//! KB-like image-feature vectors.
//!
//! The paper's second real dataset (KB, Kemelmacher & Basri) contains 28,452
//! images, each a 9,693-dimensional feature vector, with *moderate*
//! correlation between dimensions — the middle ground between the
//! uncorrelated sparse WSJ corpus and the strongly correlated dense ST data.
//! We synthesise that middle ground with a low-rank latent-factor model:
//! each image has a handful of latent factors, each feature loads on a few
//! factors, and a sparsification threshold keeps only the strong activations.
//! The result is moderately sparse, moderately correlated non-negative
//! feature vectors — so for a random query all three candidate partitions
//! (`C⁰_j`, `C^H_j`, `C^L_j`) are sizable, which is the property Figure 12
//! exercises.

use ir_types::{Dataset, DatasetBuilder};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

/// Configuration of the feature-vector generator.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FeatureConfig {
    /// Number of images (tuples).
    pub num_images: usize,
    /// Number of features (dimensionality).
    pub num_features: u32,
    /// Number of latent factors shared across features.
    pub latent_factors: usize,
    /// Fraction of features each image activates (before thresholding).
    pub activation_rate: f64,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        FeatureConfig {
            num_images: 10_000,
            num_features: 2_048,
            latent_factors: 24,
            activation_rate: 0.05,
        }
    }
}

impl FeatureConfig {
    /// The cardinalities reported in Section 7.1 for KB.
    pub fn full_scale() -> Self {
        FeatureConfig {
            num_images: 28_452,
            num_features: 9_693,
            latent_factors: 32,
            activation_rate: 0.05,
        }
    }

    /// A tiny configuration for unit tests.
    pub fn tiny() -> Self {
        FeatureConfig {
            num_images: 400,
            num_features: 128,
            latent_factors: 8,
            activation_rate: 0.15,
        }
    }
}

/// Generator of KB-like feature-vector datasets.
#[derive(Clone, Debug, Default)]
pub struct FeatureVectorGenerator {
    config: FeatureConfig,
}

impl FeatureVectorGenerator {
    /// Creates a generator.
    pub fn new(config: FeatureConfig) -> Self {
        FeatureVectorGenerator { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &FeatureConfig {
        &self.config
    }

    /// Generates the dataset.
    pub fn generate_dataset(&self, seed: u64) -> Dataset {
        let cfg = &self.config;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let normal: Normal<f64> = Normal::new(0.0, 1.0).expect("valid normal");

        // Feature loadings: each feature loads on two latent factors with
        // fixed random weights — this is what induces the moderate
        // correlation between features sharing a factor.
        let loadings: Vec<(usize, usize, f64, f64)> = (0..cfg.num_features)
            .map(|_| {
                let f1 = rng.gen_range(0..cfg.latent_factors);
                let f2 = rng.gen_range(0..cfg.latent_factors);
                (f1, f2, rng.gen_range(0.3..1.0), rng.gen_range(0.0..0.5))
            })
            .collect();

        let mut builder = DatasetBuilder::with_capacity(cfg.num_features, cfg.num_images);
        for _ in 0..cfg.num_images {
            // Per-image latent factor activations (non-negative).
            let factors: Vec<f64> = (0..cfg.latent_factors)
                .map(|_| normal.sample(&mut rng).abs())
                .collect();
            let mut pairs: Vec<(u32, f64)> = Vec::new();
            for (feat, &(f1, f2, w1, w2)) in loadings.iter().enumerate() {
                // Only a random subset of features is active per image.
                if rng.gen::<f64>() > cfg.activation_rate {
                    continue;
                }
                let raw = w1 * factors[f1] + w2 * factors[f2] + 0.1 * normal.sample(&mut rng).abs();
                let value = (raw / 3.0).clamp(0.0, 1.0);
                if value > 0.01 {
                    pairs.push((feat as u32, value));
                }
            }
            builder.push_pairs(pairs).expect("generated tuple is valid");
        }
        builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_has_moderate_sparsity() {
        let gen = FeatureVectorGenerator::new(FeatureConfig::tiny());
        let dataset = gen.generate_dataset(9);
        let stats = dataset.stats();
        assert_eq!(stats.cardinality, 400);
        assert_eq!(FeatureConfig::full_scale().num_images, 28_452);
        assert!(stats.max_value <= 1.0);
        let fill = stats.avg_nnz_per_tuple / 128.0;
        assert!(
            fill > 0.02 && fill < 0.5,
            "expected moderate sparsity, got fill rate {fill}"
        );
    }

    #[test]
    fn deterministic_per_seed_and_distinct_across_seeds() {
        let gen = FeatureVectorGenerator::new(FeatureConfig::tiny());
        let a = gen.generate_dataset(1);
        let b = gen.generate_dataset(1);
        let c = gen.generate_dataset(2);
        for (id, t) in a.iter() {
            assert_eq!(t, b.tuple(id).unwrap());
        }
        let differs = a
            .iter()
            .any(|(id, t)| c.tuple(id).map(|u| u != t).unwrap_or(true));
        assert!(differs);
    }
}
