//! WSJ-like sparse TF-IDF text corpus.
//!
//! The paper's default dataset is the Wall Street Journal corpus: 172,891
//! articles over 181,978 terms, indexed with TF-IDF weights. We cannot ship
//! the corpus itself, so this generator produces a synthetic stand-in with
//! the structural properties that drive the experiments:
//!
//! * extreme sparsity — each document touches a few dozen distinct terms out
//!   of a large vocabulary,
//! * Zipfian term popularity — a few very common terms, a long tail of rare
//!   ones (which also gives the uneven inverted-list lengths that explain the
//!   Figure 13 behaviour of Prune),
//! * TF-IDF coordinates normalised into `[0, 1]`.
//!
//! The consequence that matters for immutable regions: for a random
//! multi-term query, almost every candidate has a non-zero value in exactly
//! one query dimension — `C⁰_j` and `C^H_j` dominate and `C^L_j` is tiny,
//! exactly the situation of Figure 6(a).

use crate::ZipfSampler;
use ir_types::{Dataset, DatasetBuilder};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rand_distr::{Distribution, LogNormal};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Configuration of the synthetic corpus.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TextCorpusConfig {
    /// Number of documents (tuples).
    pub num_docs: usize,
    /// Vocabulary size (dimensionality).
    pub vocabulary: u32,
    /// Mean of the log-normal distribution of *distinct terms per document*.
    pub mean_distinct_terms: f64,
    /// Zipf exponent of term popularity.
    pub zipf_exponent: f64,
}

impl Default for TextCorpusConfig {
    fn default() -> Self {
        // A laptop-scale default; `full_scale` reproduces the paper's sizes.
        TextCorpusConfig {
            num_docs: 20_000,
            vocabulary: 10_000,
            mean_distinct_terms: 40.0,
            zipf_exponent: 1.0,
        }
    }
}

impl TextCorpusConfig {
    /// The cardinalities reported in Section 7.1 for WSJ.
    pub fn full_scale() -> Self {
        TextCorpusConfig {
            num_docs: 172_891,
            vocabulary: 181_978,
            mean_distinct_terms: 180.0,
            zipf_exponent: 1.0,
        }
    }

    /// A tiny configuration for unit tests.
    pub fn tiny() -> Self {
        TextCorpusConfig {
            num_docs: 300,
            vocabulary: 200,
            mean_distinct_terms: 10.0,
            zipf_exponent: 1.0,
        }
    }
}

/// Generator of WSJ-like corpora.
#[derive(Clone, Debug, Default)]
pub struct TextCorpusGenerator {
    config: TextCorpusConfig,
}

impl TextCorpusGenerator {
    /// Creates a generator with the given configuration.
    pub fn new(config: TextCorpusConfig) -> Self {
        TextCorpusGenerator { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TextCorpusConfig {
        &self.config
    }

    /// Generates the corpus: term frequencies are drawn per document, then
    /// converted to TF-IDF and normalised into `[0, 1]`.
    pub fn generate_corpus(&self, seed: u64) -> Dataset {
        let cfg = &self.config;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let zipf = ZipfSampler::new(cfg.vocabulary as usize, cfg.zipf_exponent);
        let length_dist =
            LogNormal::new(cfg.mean_distinct_terms.ln(), 0.6).expect("valid log-normal parameters");

        // First pass: raw term frequencies per document + document frequency
        // per term.
        let mut docs: Vec<HashMap<u32, u32>> = Vec::with_capacity(cfg.num_docs);
        let mut doc_freq: HashMap<u32, u32> = HashMap::new();
        for _ in 0..cfg.num_docs {
            let distinct = (length_dist.sample(&mut rng).round() as usize).clamp(3, 2_000);
            let mut tf: HashMap<u32, u32> = HashMap::with_capacity(distinct);
            // Draw `distinct` terms (duplicates raise the term frequency).
            for _ in 0..(distinct * 2) {
                let term = zipf.sample(&mut rng) as u32;
                *tf.entry(term).or_insert(0) += 1;
                if tf.len() >= distinct {
                    break;
                }
            }
            for &term in tf.keys() {
                *doc_freq.entry(term).or_insert(0) += 1;
            }
            docs.push(tf);
        }

        // Second pass: TF-IDF, normalised by the global maximum so every
        // coordinate is in [0, 1].
        let n = cfg.num_docs as f64;
        let idf = |term: u32| -> f64 {
            let df = doc_freq.get(&term).copied().unwrap_or(1) as f64;
            (n / df).ln().max(0.0)
        };
        let mut max_weight = 0.0f64;
        let weighted: Vec<Vec<(u32, f64)>> = docs
            .iter()
            .map(|tf| {
                tf.iter()
                    .map(|(&term, &freq)| {
                        let w = (1.0 + (freq as f64).ln()) * idf(term);
                        if w > max_weight {
                            max_weight = w;
                        }
                        (term, w)
                    })
                    .collect()
            })
            .collect();
        let max_weight = max_weight.max(f64::MIN_POSITIVE);

        let mut builder = DatasetBuilder::with_capacity(cfg.vocabulary, cfg.num_docs);
        for doc in weighted {
            let pairs = doc
                .into_iter()
                .map(|(term, w)| (term, (w / max_weight).clamp(0.0, 1.0)))
                .filter(|(_, w)| *w > 0.0);
            builder.push_pairs(pairs).expect("generated tuple is valid");
        }
        builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_sparse_and_in_range() {
        let gen = TextCorpusGenerator::new(TextCorpusConfig::tiny());
        let dataset = gen.generate_corpus(42);
        let stats = dataset.stats();
        assert_eq!(stats.cardinality, 300);
        assert!(stats.avg_nnz_per_tuple < 50.0, "documents must be sparse");
        assert!(stats.max_value <= 1.0);
        assert!(stats.total_nnz > 300, "documents must not be empty");
    }

    #[test]
    fn generation_is_deterministic() {
        let gen = TextCorpusGenerator::new(TextCorpusConfig::tiny());
        let a = gen.generate_corpus(7);
        let b = gen.generate_corpus(7);
        for (id, tuple) in a.iter() {
            assert_eq!(tuple, b.tuple(id).unwrap());
        }
        let c = gen.generate_corpus(8);
        let differs = a
            .iter()
            .any(|(id, tuple)| c.tuple(id).map(|t| t != tuple).unwrap_or(true));
        assert!(differs, "different seeds must give different corpora");
    }

    #[test]
    fn term_popularity_is_skewed() {
        let gen = TextCorpusGenerator::new(TextCorpusConfig::tiny());
        let dataset = gen.generate_corpus(1);
        let mut df: HashMap<u32, usize> = HashMap::new();
        for (_, tuple) in dataset.iter() {
            for (dim, _) in tuple.iter() {
                *df.entry(dim.0).or_insert(0) += 1;
            }
        }
        let mut counts: Vec<usize> = df.into_values().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        assert!(counts.len() >= 10);
        // The most popular term must appear in far more documents than the
        // 10th most popular one.
        assert!(counts[0] >= counts[9]);
        assert!(counts[0] > 30, "head term should be common");
    }

    #[test]
    fn name_and_config_access() {
        let gen = TextCorpusGenerator::new(TextCorpusConfig::default());
        assert_eq!(gen.config().num_docs, 20_000);
        assert_eq!(TextCorpusConfig::full_scale().num_docs, 172_891);
    }
}
