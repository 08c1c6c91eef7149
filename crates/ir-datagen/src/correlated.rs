//! The ST synthetic dataset: correlated multivariate-normal tuples.
//!
//! Section 7.1: *"ST is generated by the 'mvnrnd' function in Matlab, using
//! correlation coefficients of 0.5. This means that ST tuples are clustered
//! along the line from [0,...,0] to [1,...,1]. ST contains one million
//! tuples in a 20-dimensional space."*
//!
//! We reproduce the construction directly: samples from a multivariate
//! normal with an equicorrelation covariance matrix (every off-diagonal
//! entry `ρ`), obtained through the closed-form "common factor" decomposition
//! `x_i = sqrt(ρ) · z + sqrt(1 − ρ) · e_i`, then mapped affinely into the
//! unit cube. The default cardinality is scaled down for laptop runtimes and
//! is configurable up to the paper's one million tuples.

use ir_types::{Dataset, DatasetBuilder};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

/// Configuration of the correlated generator.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CorrelatedConfig {
    /// Number of tuples.
    pub cardinality: usize,
    /// Dimensionality (the paper uses 20).
    pub dimensionality: u32,
    /// Pairwise correlation coefficient (the paper uses 0.5).
    pub correlation: f64,
}

impl Default for CorrelatedConfig {
    fn default() -> Self {
        CorrelatedConfig {
            cardinality: 50_000,
            dimensionality: 20,
            correlation: 0.5,
        }
    }
}

impl CorrelatedConfig {
    /// The paper's full-scale configuration (1M tuples).
    pub fn full_scale() -> Self {
        CorrelatedConfig {
            cardinality: 1_000_000,
            dimensionality: 20,
            correlation: 0.5,
        }
    }

    /// A tiny configuration for unit tests.
    pub fn tiny() -> Self {
        CorrelatedConfig {
            cardinality: 500,
            dimensionality: 8,
            correlation: 0.5,
        }
    }
}

/// Generator of the ST-like dataset.
#[derive(Clone, Debug, Default)]
pub struct CorrelatedGenerator {
    config: CorrelatedConfig,
}

impl CorrelatedGenerator {
    /// Creates a generator.
    pub fn new(config: CorrelatedConfig) -> Self {
        CorrelatedGenerator { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CorrelatedConfig {
        &self.config
    }

    /// Generates the dataset.
    pub fn generate_dataset(&self, seed: u64) -> Dataset {
        let cfg = &self.config;
        assert!(
            (0.0..1.0).contains(&cfg.correlation),
            "correlation must be in [0, 1)"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let std_normal: Normal<f64> = Normal::new(0.0, 1.0).expect("valid normal");
        let common_w = cfg.correlation.sqrt();
        let indep_w = (1.0 - cfg.correlation).sqrt();

        let mut builder = DatasetBuilder::with_capacity(cfg.dimensionality, cfg.cardinality);
        for _ in 0..cfg.cardinality {
            let z: f64 = std_normal.sample(&mut rng);
            let pairs: Vec<(u32, f64)> = (0..cfg.dimensionality)
                .map(|d| {
                    let e: f64 = std_normal.sample(&mut rng);
                    let x = common_w * z + indep_w * e;
                    // Map N(0,1) into [0,1]: 3σ clamp + affine rescale keeps
                    // the correlation structure while staying in the domain.
                    let v = ((x + 3.0) / 6.0).clamp(0.0, 1.0);
                    (d, v)
                })
                .filter(|(_, v)| *v > 0.0)
                .collect();
            builder.push_pairs(pairs).expect("generated tuple is valid");
        }
        builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_types::DimId;

    fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let cov: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
        let vx: f64 = xs.iter().map(|x| (x - mx).powi(2)).sum();
        let vy: f64 = ys.iter().map(|y| (y - my).powi(2)).sum();
        cov / (vx.sqrt() * vy.sqrt())
    }

    #[test]
    fn dimensions_are_positively_correlated() {
        let gen = CorrelatedGenerator::new(CorrelatedConfig {
            cardinality: 3_000,
            dimensionality: 4,
            correlation: 0.5,
        });
        let dataset = gen.generate_dataset(11);
        let col = |d: u32| -> Vec<f64> {
            dataset
                .iter()
                .map(|(_, t)| t.get(DimId(d)))
                .collect::<Vec<_>>()
        };
        let r01 = pearson(&col(0), &col(1));
        let r23 = pearson(&col(2), &col(3));
        assert!(r01 > 0.35 && r01 < 0.65, "correlation 0-1 = {r01}");
        assert!(r23 > 0.35 && r23 < 0.65, "correlation 2-3 = {r23}");
    }

    #[test]
    fn values_stay_in_unit_cube_and_are_dense() {
        let gen = CorrelatedGenerator::new(CorrelatedConfig::tiny());
        let dataset = gen.generate_dataset(3);
        let stats = dataset.stats();
        assert_eq!(stats.cardinality, 500);
        assert!(stats.max_value <= 1.0);
        // Dense data: almost every coordinate is non-zero.
        assert!(stats.avg_nnz_per_tuple > 7.5);
    }

    #[test]
    fn deterministic_per_seed() {
        let gen = CorrelatedGenerator::new(CorrelatedConfig::tiny());
        let a = gen.generate_dataset(5);
        let b = gen.generate_dataset(5);
        for (id, t) in a.iter() {
            assert_eq!(t, b.tuple(id).unwrap());
        }
    }

    #[test]
    #[should_panic(expected = "correlation must be in [0, 1)")]
    fn invalid_correlation_panics() {
        let gen = CorrelatedGenerator::new(CorrelatedConfig {
            cardinality: 10,
            dimensionality: 2,
            correlation: 1.5,
        });
        let _ = gen.generate_dataset(0);
    }
}
