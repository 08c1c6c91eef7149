//! Determinism-first agreement suite for the parallel execution layer.
//!
//! The contract of `BatchRegionComputation` is that parallel output is
//! *identical* to the sequential oracle — same regions, same boundary
//! perturbations, same per-region results — for every algorithm, every φ
//! level and every worker count. Scheduling must never leak into the
//! output: the merge order is fixed by query index, and each query runs
//! the one sequential solve on its worker.
//!
//! Seeded like the other property suites so failures reproduce exactly.

use immutable_regions::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A small random dataset with mixed sparsity (single-dimension, few-
/// dimension and dense tuples), same idiom as `cross_method_agreement`.
fn random_dataset(rng: &mut ChaCha8Rng, n: usize, dims: u32) -> Dataset {
    let mut builder = DatasetBuilder::new(dims);
    for _ in 0..n {
        let style: f64 = rng.gen();
        let pairs: Vec<(u32, f64)> = if style < 0.4 {
            vec![(rng.gen_range(0..dims), rng.gen_range(0.05..1.0))]
        } else if style < 0.7 {
            let a = rng.gen_range(0..dims);
            let mut b = rng.gen_range(0..dims);
            while b == a {
                b = rng.gen_range(0..dims);
            }
            vec![(a, rng.gen_range(0.05..1.0)), (b, rng.gen_range(0.05..1.0))]
        } else {
            (0..dims).map(|d| (d, rng.gen_range(0.01..1.0))).collect()
        };
        builder.push_pairs(pairs).unwrap();
    }
    builder.build()
}

fn random_query(rng: &mut ChaCha8Rng, dims: u32, qlen: usize, k: usize) -> QueryVector {
    let mut chosen = Vec::new();
    while chosen.len() < qlen {
        let d = rng.gen_range(0..dims);
        if !chosen.contains(&d) {
            chosen.push(d);
        }
    }
    QueryVector::new(chosen.into_iter().map(|d| (d, rng.gen_range(0.2..=1.0))), k).unwrap()
}

fn random_batch(rng: &mut ChaCha8Rng, dims: u32, queries: usize) -> Vec<QueryVector> {
    (0..queries)
        .map(|_| {
            let qlen = rng.gen_range(2..=dims.min(4)) as usize;
            let k = rng.gen_range(1..6);
            random_query(rng, dims, qlen, k)
        })
        .collect()
}

/// Asserts that two per-dimension region sets are *identical*: same
/// intervals (bitwise), same boundaries, same region sequences and results.
fn assert_dims_identical(expected: &[DimRegions], actual: &[DimRegions], context: &str) {
    assert_eq!(
        expected.len(),
        actual.len(),
        "{context}: dimension count differs"
    );
    for (e, a) in expected.iter().zip(actual) {
        assert_eq!(e, a, "{context}: dim {:?} differs", e.dim);
    }
}

/// The core satellite requirement: for each algorithm and φ level, the
/// batch API at 1, 2 and 8 workers produces regions identical to the
/// sequential `RegionComputation` oracle.
#[test]
fn batch_matches_sequential_oracle_for_all_algorithms_and_phi() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x9A11E7);
    for phi in [0usize, 1, 3] {
        for algorithm in Algorithm::ALL {
            let dims = rng.gen_range(3..7);
            let n = rng.gen_range(40..120);
            let dataset = random_dataset(&mut rng, n, dims);
            let index = IndexBuilder::new().build_shared(&dataset).unwrap();
            let queries = random_batch(&mut rng, dims, 5);
            let config = RegionConfig::with_phi(algorithm, phi);

            // Sequential oracle: the existing single-threaded entry point.
            let oracle: Vec<RegionReport> = queries
                .iter()
                .map(|q| {
                    RegionComputation::new(&index, q, config)
                        .unwrap()
                        .compute()
                        .unwrap()
                })
                .collect();

            for threads in [1usize, 2, 8] {
                let reports = BatchRegionComputation::new(&index, config)
                    .with_threads(threads)
                    .run(&queries)
                    .unwrap();
                assert_eq!(reports.len(), oracle.len());
                for (qi, (expected, actual)) in oracle.iter().zip(&reports).enumerate() {
                    let context = format!(
                        "{} phi={phi} threads={threads} query={qi}",
                        algorithm.name()
                    );
                    assert_dims_identical(&expected.dims, &actual.dims, &context);
                    // Batch workers run the plain sequential solve, so even
                    // the candidate counts match the oracle exactly.
                    assert_eq!(
                        expected.stats.evaluated_per_dim, actual.stats.evaluated_per_dim,
                        "{context}: evaluated candidates differ"
                    );
                    assert_eq!(
                        expected.stats.io.logical_reads, actual.stats.io.logical_reads,
                        "{context}: logical reads differ"
                    );
                }
            }
        }
    }
}

/// Composition-only mode goes through the envelope solver even for φ = 0;
/// the parallel path must agree there too.
#[test]
fn batch_matches_sequential_oracle_in_composition_only_mode() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xC0517);
    for algorithm in [Algorithm::Scan, Algorithm::Cpt] {
        let dims = rng.gen_range(3..6);
        let dataset = random_dataset(&mut rng, 80, dims);
        let index = IndexBuilder::new().build_shared(&dataset).unwrap();
        let queries = random_batch(&mut rng, dims, 4);
        let config = RegionConfig::flat(algorithm).composition_only();
        let oracle: Vec<RegionReport> = queries
            .iter()
            .map(|q| {
                RegionComputation::new(&index, q, config)
                    .unwrap()
                    .compute()
                    .unwrap()
            })
            .collect();
        for threads in [1usize, 2, 8] {
            let reports = BatchRegionComputation::new(&index, config)
                .with_threads(threads)
                .run(&queries)
                .unwrap();
            for (expected, actual) in oracle.iter().zip(&reports) {
                assert_dims_identical(
                    &expected.dims,
                    &actual.dims,
                    &format!("{} composition-only threads={threads}", algorithm.name()),
                );
            }
        }
    }
}

/// The top-k results themselves (not just the regions) must be identical
/// across the sequential and batch paths.
#[test]
fn batch_results_and_current_regions_match_sequential_topk() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x70B_B01);
    let dataset = random_dataset(&mut rng, 100, 5);
    let index = IndexBuilder::new().build_shared(&dataset).unwrap();
    let queries = random_batch(&mut rng, 5, 6);
    let reports = BatchRegionComputation::new(&index, RegionConfig::default())
        .with_threads(4)
        .run(&queries)
        .unwrap();
    for (query, report) in queries.iter().zip(&reports) {
        let sequential = TaRun::execute_default(&index, query).unwrap();
        let expected = sequential.result().ids();
        for dim in &report.dims {
            assert_eq!(
                dim.current_result(),
                &expected[..],
                "current region of {:?} must hold the sequential top-k",
                dim.dim
            );
        }
    }
}
