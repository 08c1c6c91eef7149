//! End-to-end runs on the three synthetic workloads (scaled down), checking
//! the qualitative claims of the evaluation section: all methods agree on
//! the regions, pruning/thresholding reduce the number of evaluated
//! candidates, and the candidate-partition structure matches the dataset
//! type (Figure 6).

use immutable_regions::prelude::*;
use ir_core::partition::Partition;
use ir_datagen::queries::DimSelection;

fn run_workload(dataset: &Dataset, workload: &QueryWorkload) -> Vec<(Algorithm, u64)> {
    let index = IndexBuilder::new().build_shared(dataset).unwrap();
    let mut totals = Vec::new();
    for algorithm in Algorithm::ALL {
        let mut evaluated = 0u64;
        let mut regions: Vec<Vec<(f64, f64)>> = Vec::new();
        for query in workload.iter() {
            let mut computation =
                RegionComputation::new(&index, query, RegionConfig::flat(algorithm)).unwrap();
            let report = computation.compute().unwrap();
            evaluated += report.stats.evaluated_candidates;
            regions.push(
                report
                    .dims
                    .iter()
                    .map(|d| (d.immutable.lo, d.immutable.hi))
                    .collect(),
            );
        }
        totals.push((algorithm, evaluated, regions));
    }
    // All algorithms must agree on every region of every query.
    let reference = &totals[0].2;
    for (algorithm, _, regions) in &totals {
        for (qr, rr) in regions.iter().zip(reference) {
            for ((lo, hi), (rlo, rhi)) in qr.iter().zip(rr) {
                assert!(
                    (lo - rlo).abs() < 1e-9 && (hi - rhi).abs() < 1e-9,
                    "{} disagrees with {}",
                    algorithm.name(),
                    totals[0].0.name()
                );
            }
        }
    }
    totals
        .into_iter()
        .map(|(a, evaluated, _)| (a, evaluated))
        .collect()
}

#[test]
fn text_corpus_workload_pruning_dominates() {
    let dataset = TextCorpusGenerator::new(TextCorpusConfig {
        num_docs: 2_000,
        vocabulary: 1_500,
        mean_distinct_terms: 20.0,
        zipf_exponent: 1.0,
    })
    .generate_corpus(5);
    let workload = QueryWorkload::generate(
        &dataset,
        &WorkloadConfig {
            qlen: 3,
            k: 10,
            num_queries: 8,
            min_postings: 30,
            max_postings: usize::MAX,
            selection: DimSelection::PopularityBiased,
            equal_weights: false,
        },
        1,
    )
    .unwrap();
    let totals = run_workload(&dataset, &workload);
    let get = |alg: Algorithm| totals.iter().find(|(a, _)| *a == alg).unwrap().1;
    // On sparse text data pruning eliminates most candidates, and CPT is at
    // least as good as every other method.
    assert!(get(Algorithm::Prune) < get(Algorithm::Scan));
    assert!(get(Algorithm::Cpt) <= get(Algorithm::Prune));
    assert!(get(Algorithm::Cpt) <= get(Algorithm::Thres));
}

#[test]
fn correlated_workload_thresholding_dominates() {
    let dataset = CorrelatedGenerator::new(CorrelatedConfig {
        cardinality: 2_000,
        dimensionality: 10,
        correlation: 0.5,
    })
    .generate_dataset(5);
    let workload = QueryWorkload::generate(
        &dataset,
        &WorkloadConfig {
            qlen: 3,
            k: 10,
            num_queries: 6,
            min_postings: 30,
            max_postings: usize::MAX,
            ..Default::default()
        },
        2,
    )
    .unwrap();
    let totals = run_workload(&dataset, &workload);
    let get = |alg: Algorithm| totals.iter().find(|(a, _)| *a == alg).unwrap().1;
    // On correlated data pruning barely helps (C^L dominates), thresholding
    // is what reduces the work; CPT tracks Thres.
    assert!(get(Algorithm::Thres) < get(Algorithm::Scan));
    assert!(get(Algorithm::Cpt) <= get(Algorithm::Thres));
    assert!(get(Algorithm::Cpt) < get(Algorithm::Scan));
}

#[test]
fn feature_vector_workload_all_methods_agree() {
    let dataset = FeatureVectorGenerator::new(FeatureConfig {
        num_images: 1_500,
        num_features: 256,
        latent_factors: 12,
        activation_rate: 0.12,
    })
    .generate_dataset(5);
    let workload = QueryWorkload::generate(
        &dataset,
        &WorkloadConfig {
            qlen: 4,
            k: 10,
            num_queries: 5,
            min_postings: 30,
            max_postings: usize::MAX,
            ..Default::default()
        },
        3,
    )
    .unwrap();
    let totals = run_workload(&dataset, &workload);
    let get = |alg: Algorithm| totals.iter().find(|(a, _)| *a == alg).unwrap().1;
    assert!(get(Algorithm::Cpt) <= get(Algorithm::Scan));
}

#[test]
fn candidate_partition_structure_matches_figure_6() {
    // WSJ-like data: C^L is (nearly) empty — candidates live on one axis.
    let text = TextCorpusGenerator::new(TextCorpusConfig {
        num_docs: 2_000,
        vocabulary: 1_500,
        mean_distinct_terms: 15.0,
        zipf_exponent: 1.0,
    })
    .generate_corpus(9);
    let text_index = IndexBuilder::new().build_shared(&text).unwrap();
    // The paper selects query terms uniformly at random from the (huge)
    // vocabulary; with popularity-biased terms the co-occurrence rate would
    // be artificially high and C^L would not be small. At this smoke scale a
    // stopword cut (`max_postings`) is needed for the same reason: a
    // 1500-term vocabulary makes drawing a term that occurs in most
    // documents quite likely, while in the paper's 181k-term WSJ vocabulary
    // it is vanishingly rare.
    let text_query = QueryWorkload::generate(
        &text,
        &WorkloadConfig {
            qlen: 4,
            k: 10,
            num_queries: 1,
            min_postings: 25,
            max_postings: 200,
            selection: DimSelection::Uniform,
            equal_weights: true,
        },
        4,
    )
    .unwrap()
    .queries()[0]
        .clone();
    let text_rc =
        RegionComputation::new(&text_index, &text_query, RegionConfig::default()).unwrap();
    let entries = text_rc.ta().candidates().entries();
    assert!(!entries.is_empty());
    let p = Partition::classify(entries, 0);
    let sizes = p.sizes();
    assert!(
        sizes.low <= (sizes.zero + sizes.high) / 4 + 1,
        "sparse text should have few C^L candidates: {sizes:?}"
    );

    // ST data: C^L dominates.
    let st = CorrelatedGenerator::new(CorrelatedConfig {
        cardinality: 2_000,
        dimensionality: 10,
        correlation: 0.5,
    })
    .generate_dataset(9);
    let st_index = IndexBuilder::new().build_shared(&st).unwrap();
    let st_query = QueryVector::new([(0, 1.0), (3, 1.0), (6, 1.0), (9, 1.0)], 10).unwrap();
    let st_rc = RegionComputation::new(&st_index, &st_query, RegionConfig::default()).unwrap();
    let st_entries = st_rc.ta().candidates().entries();
    assert!(!st_entries.is_empty());
    let sp = Partition::classify(st_entries, 0).sizes();
    assert!(
        sp.low > sp.high && sp.low > sp.zero,
        "correlated data should be dominated by C^L: {sp:?}"
    );
}
