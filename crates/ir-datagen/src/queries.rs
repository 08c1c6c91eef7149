//! Query workload generation.
//!
//! The paper forms queries by randomly selecting `qlen` query dimensions and
//! assigning them weights (TF-IDF-derived for WSJ, random for KB and ST).
//! Every reported number is an average over 100 queries. This module
//! reproduces that methodology: a [`QueryWorkload`] is a deterministic,
//! seeded list of [`QueryVector`]s over a given dataset.

use ir_types::{Dataset, IrResult, QueryVector};
use rand::{seq::SliceRandom, Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// How query dimensions are chosen.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum DimSelection {
    /// Uniformly among dimensions that have at least `min_postings` tuples —
    /// the KB/ST style.
    #[default]
    Uniform,
    /// Biased towards frequently occurring dimensions (document-frequency
    /// weighted) — the WSJ "search terms" style.
    PopularityBiased,
}

/// Configuration of a query workload.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Number of query dimensions per query (`qlen`).
    pub qlen: usize,
    /// Result size `k`.
    pub k: usize,
    /// Number of queries in the workload.
    pub num_queries: usize,
    /// Minimum number of postings a dimension needs to be eligible.
    pub min_postings: usize,
    /// Maximum number of postings a dimension may have and stay eligible —
    /// a stopword cut. The paper draws query terms uniformly from a huge
    /// vocabulary, where stopword-like terms are vanishingly unlikely; at
    /// smoke scale they must be excluded explicitly or they dominate every
    /// co-occurrence statistic. `usize::MAX` disables the cut.
    pub max_postings: usize,
    /// How dimensions are selected.
    pub selection: DimSelection,
    /// If true all weights are equal (the paper's Figure 6 study); otherwise
    /// weights are drawn uniformly from `[0.2, 1.0]`.
    pub equal_weights: bool,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            qlen: 4,
            k: 10,
            num_queries: 100,
            min_postings: 32,
            max_postings: usize::MAX,
            selection: DimSelection::Uniform,
            equal_weights: false,
        }
    }
}

/// A deterministic list of queries over one dataset.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QueryWorkload {
    queries: Vec<QueryVector>,
}

impl QueryWorkload {
    /// Generates a workload over `dataset`.
    pub fn generate(dataset: &Dataset, config: &WorkloadConfig, seed: u64) -> IrResult<Self> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);

        // Document frequency per dimension.
        let mut df: HashMap<u32, usize> = HashMap::new();
        for (_, tuple) in dataset.iter() {
            for (dim, _) in tuple.iter() {
                *df.entry(dim.0).or_insert(0) += 1;
            }
        }
        let mut eligible: Vec<(u32, usize)> = df
            .into_iter()
            .filter(|(_, count)| *count >= config.min_postings && *count <= config.max_postings)
            .collect();
        eligible.sort_unstable();
        if eligible.len() < config.qlen {
            let stopword_cut = if config.max_postings == usize::MAX {
                String::new()
            } else {
                format!(" and at most {} (stopword cut)", config.max_postings)
            };
            return Err(ir_types::IrError::InvalidConfig(format!(
                "only {} dimensions have at least {} postings{}, need {}",
                eligible.len(),
                config.min_postings,
                stopword_cut,
                config.qlen
            )));
        }

        let mut queries = Vec::with_capacity(config.num_queries);
        for _ in 0..config.num_queries {
            let dims: Vec<u32> = match config.selection {
                DimSelection::Uniform => {
                    let mut pool: Vec<u32> = eligible.iter().map(|(d, _)| *d).collect();
                    pool.shuffle(&mut rng);
                    pool.truncate(config.qlen);
                    pool
                }
                DimSelection::PopularityBiased => {
                    // Weighted sampling without replacement by document
                    // frequency.
                    let mut pool = eligible.clone();
                    let mut picked = Vec::with_capacity(config.qlen);
                    for _ in 0..config.qlen {
                        let total: usize = pool.iter().map(|(_, c)| *c).sum();
                        let mut target = rng.gen_range(0..total.max(1));
                        let mut chosen = 0usize;
                        for (i, (_, c)) in pool.iter().enumerate() {
                            if target < *c {
                                chosen = i;
                                break;
                            }
                            target -= *c;
                        }
                        picked.push(pool.swap_remove(chosen).0);
                    }
                    picked
                }
            };
            let weights = dims.iter().map(|&d| {
                let w = if config.equal_weights {
                    1.0
                } else {
                    rng.gen_range(0.2..=1.0)
                };
                (d, w)
            });
            queries.push(QueryVector::new(weights, config.k)?);
        }
        Ok(QueryWorkload { queries })
    }

    /// The queries.
    pub fn queries(&self) -> &[QueryVector] {
        &self.queries
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True if the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Iterates the queries.
    pub fn iter(&self) -> impl Iterator<Item = &QueryVector> {
        self.queries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::text::{TextCorpusConfig, TextCorpusGenerator};
    use ir_types::DimId;

    fn small_corpus() -> Dataset {
        TextCorpusGenerator::new(TextCorpusConfig::tiny()).generate_corpus(3)
    }

    #[test]
    fn workload_respects_configuration() {
        let dataset = small_corpus();
        let config = WorkloadConfig {
            qlen: 3,
            k: 5,
            num_queries: 20,
            min_postings: 5,
            max_postings: usize::MAX,
            selection: DimSelection::Uniform,
            equal_weights: false,
        };
        let workload = QueryWorkload::generate(&dataset, &config, 1).unwrap();
        assert_eq!(workload.len(), 20);
        for q in workload.iter() {
            assert_eq!(q.qlen(), 3);
            assert_eq!(q.k(), 5);
            for (_, w) in q.dims() {
                assert!(w > 0.0 && w <= 1.0);
            }
        }
    }

    #[test]
    fn workload_is_deterministic() {
        let dataset = small_corpus();
        let config = WorkloadConfig {
            qlen: 2,
            k: 3,
            num_queries: 5,
            min_postings: 5,
            ..WorkloadConfig::default()
        };
        let a = QueryWorkload::generate(&dataset, &config, 9).unwrap();
        let b = QueryWorkload::generate(&dataset, &config, 9).unwrap();
        assert_eq!(a, b);
        let c = QueryWorkload::generate(&dataset, &config, 10).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn popularity_bias_prefers_common_terms() {
        let dataset = small_corpus();
        let config = WorkloadConfig {
            qlen: 2,
            k: 3,
            num_queries: 50,
            min_postings: 3,
            max_postings: usize::MAX,
            selection: DimSelection::PopularityBiased,
            equal_weights: true,
        };
        let workload = QueryWorkload::generate(&dataset, &config, 4).unwrap();
        // Average document frequency of selected terms must exceed that of
        // the eligible pool (popular terms are picked more often).
        let df = |d: DimId| dataset.iter().filter(|(_, t)| t.get(d) > 0.0).count() as f64;
        let eligible: Vec<DimId> = (0..dataset.dimensionality())
            .map(DimId)
            .filter(|&d| df(d) >= 3.0)
            .collect();
        let pool_avg: f64 = eligible.iter().map(|&d| df(d)).sum::<f64>() / eligible.len() as f64;
        let mut picked_avg = 0.0;
        let mut count = 0.0;
        for q in workload.iter() {
            for (d, _) in q.dims() {
                picked_avg += df(d);
                count += 1.0;
            }
        }
        picked_avg /= count;
        assert!(
            picked_avg > pool_avg,
            "picked avg df {picked_avg} <= pool avg {pool_avg}"
        );
    }

    #[test]
    fn impossible_configuration_is_rejected() {
        let dataset = small_corpus();
        let config = WorkloadConfig {
            qlen: 50,
            k: 3,
            num_queries: 1,
            min_postings: 100_000,
            max_postings: usize::MAX,
            selection: DimSelection::Uniform,
            equal_weights: false,
        };
        assert!(QueryWorkload::generate(&dataset, &config, 0).is_err());
    }

    #[test]
    fn equal_weights_flag_produces_unit_weights() {
        let dataset = small_corpus();
        let config = WorkloadConfig {
            qlen: 2,
            k: 3,
            num_queries: 3,
            min_postings: 5,
            max_postings: usize::MAX,
            selection: DimSelection::Uniform,
            equal_weights: true,
        };
        let workload = QueryWorkload::generate(&dataset, &config, 2).unwrap();
        for q in workload.iter() {
            for (_, w) in q.dims() {
                assert_eq!(w, 1.0);
            }
        }
    }
}
