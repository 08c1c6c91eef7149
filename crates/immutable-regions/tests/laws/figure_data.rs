//! The figure runners' smoke-scale data: the WSJ-like corpus and the ST set
//! as `ir_bench::BenchDataset::{Wsj, St}.generate(Scale::Smoke)` builds
//! them, each under its `workload_for(.., 4, 10, 5)` workload. `ir-bench`
//! depends on this crate, so the configs and seeds are repeated here; a
//! unit test in `ir-bench`'s `workloads.rs` includes this file and fails
//! when the two drift apart.

use immutable_regions::datagen::queries::DimSelection;
use immutable_regions::prelude::*;

/// The smoke WSJ-like corpus and its workload.
pub fn wsj() -> (Dataset, Vec<QueryVector>) {
    let corpus = TextCorpusGenerator::new(TextCorpusConfig {
        num_docs: 3_000,
        vocabulary: 2_500,
        mean_distinct_terms: 25.0,
        zipf_exponent: 1.0,
    });
    with_workload(
        corpus.generate_corpus(0xC0FFEE),
        DimSelection::PopularityBiased,
    )
}

/// The smoke ST set and its workload.
pub fn st() -> (Dataset, Vec<QueryVector>) {
    let st = CorrelatedGenerator::new(CorrelatedConfig {
        cardinality: 3_000,
        dimensionality: 20,
        correlation: 0.5,
    });
    with_workload(st.generate_dataset(0xC0FFEE), DimSelection::Uniform)
}

/// `dataset` and the runners' qlen-4, k-10 workload of 5 queries over it.
fn with_workload(dataset: Dataset, selection: DimSelection) -> (Dataset, Vec<QueryVector>) {
    let workload = WorkloadConfig {
        qlen: 4,
        k: 10,
        num_queries: 5,
        min_postings: 20,
        max_postings: usize::MAX,
        selection,
        equal_weights: false,
    };
    let queries = QueryWorkload::generate(&dataset, &workload, 0xBEEF).unwrap();
    (dataset, queries.queries().to_vec())
}
