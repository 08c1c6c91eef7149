//! Benchmark datasets and workloads (the paper's WSJ, KB and ST).

use immutable_regions::engine::IrEngine;
use ir_datagen::queries::DimSelection;
use ir_datagen::{
    CorrelatedConfig, CorrelatedGenerator, FeatureConfig, FeatureVectorGenerator, QueryWorkload,
    TextCorpusConfig, TextCorpusGenerator, WorkloadConfig,
};
use ir_types::{Dataset, IrResult};

/// Dataset scale, selected with the `IR_BENCH_SCALE` environment variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Seconds per figure; what CI runs.
    Smoke,
    /// Laptop-scale runs.
    Default,
    /// The paper's cardinalities (172,891 / 28,452 / 1M tuples).
    Full,
}

impl Scale {
    /// Reads the scale from `IR_BENCH_SCALE`; unset means `smoke`. Any other
    /// value than `smoke`, `default` or `full` exits 2 listing them — the
    /// rule every runner argument follows — so a mistyped full-scale run
    /// never prints smoke tables.
    pub fn from_env() -> Scale {
        let value = std::env::var_os("IR_BENCH_SCALE");
        match Scale::parse(value.as_deref().map(|v| v.to_string_lossy()).as_deref()) {
            Ok(scale) => scale,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }

    fn parse(value: Option<&str>) -> Result<Scale, String> {
        match value {
            None | Some("smoke") => Ok(Scale::Smoke),
            Some("default") => Ok(Scale::Default),
            Some("full") => Ok(Scale::Full),
            Some(other) => Err(format!(
                "unknown IR_BENCH_SCALE `{other}` (expected smoke, default or full)"
            )),
        }
    }
}

/// The three evaluation datasets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BenchDataset {
    /// WSJ-like sparse TF-IDF corpus.
    Wsj,
    /// KB-like image feature vectors.
    Kb,
    /// ST correlated synthetic data.
    St,
}

impl BenchDataset {
    /// Display name used in table headers.
    pub fn name(&self) -> &'static str {
        match self {
            BenchDataset::Wsj => "WSJ-like",
            BenchDataset::Kb => "KB-like",
            BenchDataset::St => "ST",
        }
    }

    /// Generates the dataset at the given scale (deterministic).
    pub fn generate(&self, scale: Scale) -> Dataset {
        match self {
            BenchDataset::Wsj => {
                let config = match scale {
                    Scale::Smoke => TextCorpusConfig {
                        num_docs: 3_000,
                        vocabulary: 2_500,
                        mean_distinct_terms: 25.0,
                        zipf_exponent: 1.0,
                    },
                    Scale::Default => TextCorpusConfig::default(),
                    Scale::Full => TextCorpusConfig::full_scale(),
                };
                TextCorpusGenerator::new(config).generate_corpus(0xC0FFEE)
            }
            BenchDataset::Kb => {
                let config = match scale {
                    Scale::Smoke => FeatureConfig {
                        num_images: 2_000,
                        num_features: 512,
                        latent_factors: 16,
                        activation_rate: 0.08,
                    },
                    Scale::Default => FeatureConfig::default(),
                    Scale::Full => FeatureConfig::full_scale(),
                };
                FeatureVectorGenerator::new(config).generate_dataset(0xC0FFEE)
            }
            BenchDataset::St => {
                let config = match scale {
                    Scale::Smoke => CorrelatedConfig {
                        cardinality: 3_000,
                        dimensionality: 20,
                        correlation: 0.5,
                    },
                    Scale::Default => CorrelatedConfig::default(),
                    Scale::Full => CorrelatedConfig::full_scale(),
                };
                CorrelatedGenerator::new(config).generate_dataset(0xC0FFEE)
            }
        }
    }

    /// How query dimensions are selected for this dataset.
    pub fn selection(&self) -> DimSelection {
        match self {
            BenchDataset::Wsj => DimSelection::PopularityBiased,
            _ => DimSelection::Uniform,
        }
    }

    /// The standard workload of `num_queries` queries over `dataset` with
    /// the given `qlen` and `k` (the seeded generation every runner and
    /// bench shares).
    pub fn workload_for(
        &self,
        dataset: &Dataset,
        qlen: usize,
        k: usize,
        num_queries: usize,
    ) -> IrResult<QueryWorkload> {
        QueryWorkload::generate(
            dataset,
            &WorkloadConfig {
                qlen,
                k,
                num_queries,
                min_postings: (2 * k).max(20),
                max_postings: usize::MAX,
                selection: self.selection(),
                equal_weights: false,
            },
            0xBEEF,
        )
    }

    /// Generates the dataset at `scale`, the standard workload over it (see
    /// [`BenchDataset::workload_for`]) and the default engine serving it.
    pub fn prepare_engine(
        &self,
        scale: Scale,
        qlen: usize,
        k: usize,
        num_queries: usize,
    ) -> IrResult<(IrEngine, QueryWorkload)> {
        let dataset = self.generate(scale);
        let workload = self.workload_for(&dataset, qlen, k, num_queries)?;
        let engine = IrEngine::builder().dataset_ref(&dataset).build()?;
        Ok((engine, workload))
    }

    /// Number of queries to average over at the given scale (the paper uses
    /// 100).
    pub fn queries_per_point(scale: Scale) -> usize {
        match scale {
            Scale::Smoke => 5,
            Scale::Default => 25,
            Scale::Full => 100,
        }
    }
}

// The law table's figure rows serve a copy of the smoke data, because
// `immutable-regions` cannot reach this crate; a test below ties the two.
#[cfg(test)]
#[path = "../../immutable-regions/tests/laws/figure_data.rs"]
mod figure_data;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scale_prepares_all_datasets() {
        for dataset in [BenchDataset::Wsj, BenchDataset::Kb, BenchDataset::St] {
            let (engine, workload) = dataset.prepare_engine(Scale::Smoke, 3, 10, 2).unwrap();
            assert!(engine.index().cardinality() >= 2_000, "{}", dataset.name());
            assert_eq!(workload.len(), 2);
        }
    }

    #[test]
    fn scale_from_env_defaults_to_smoke() {
        std::env::remove_var("IR_BENCH_SCALE");
        assert_eq!(Scale::from_env(), Scale::Smoke);
    }

    #[test]
    fn unknown_scale_is_an_error_listing_the_scales() {
        assert_eq!(Scale::parse(None), Ok(Scale::Smoke));
        assert_eq!(Scale::parse(Some("smoke")), Ok(Scale::Smoke));
        assert_eq!(Scale::parse(Some("default")), Ok(Scale::Default));
        assert_eq!(Scale::parse(Some("full")), Ok(Scale::Full));
        // Near misses are errors that list the scales, never smoke.
        for typo in ["Full", "defualt", "fulll", ""] {
            let err = Scale::parse(Some(typo)).unwrap_err();
            assert!(
                err.contains("smoke") && err.contains("default") && err.contains("full"),
                "{err}"
            );
        }
    }

    #[test]
    fn the_law_tables_figure_data_is_the_runners_smoke_data() {
        let copies: [(BenchDataset, fn() -> _); 2] = [
            (BenchDataset::Wsj, figure_data::wsj),
            (BenchDataset::St, figure_data::st),
        ];
        for (kind, copy) in copies {
            let (copy, copy_queries) = copy();
            let dataset = kind.generate(Scale::Smoke);
            let workload = kind.workload_for(&dataset, 4, 10, 5).unwrap();
            assert_eq!(copy.dimensionality(), dataset.dimensionality(), "{kind:?}");
            assert!(copy.iter().eq(dataset.iter()), "{kind:?}: tuples differ");
            assert_eq!(copy_queries, workload.queries(), "{kind:?}: queries differ");
        }
    }
}
