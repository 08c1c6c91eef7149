//! Scan, Prune, Thres and CPT must produce *identical* immutable regions —
//! they only differ in how many candidates they examine. This test checks
//! that claim, and checks all four against the exhaustive oracle, on a range
//! of randomized datasets and queries.

use immutable_regions::prelude::*;
use ir_core::config::PerturbationMode;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A small random dataset with mixed sparsity (some tuples touch every
/// dimension, some only one) so that all three candidate partitions occur.
fn random_dataset(rng: &mut ChaCha8Rng, n: usize, dims: u32) -> Dataset {
    let mut builder = DatasetBuilder::new(dims);
    for _ in 0..n {
        let style: f64 = rng.gen();
        let pairs: Vec<(u32, f64)> = if style < 0.4 {
            // Single-dimension tuple.
            vec![(rng.gen_range(0..dims), rng.gen_range(0.05..1.0))]
        } else if style < 0.7 {
            // A couple of dimensions.
            let a = rng.gen_range(0..dims);
            let mut b = rng.gen_range(0..dims);
            while b == a {
                b = rng.gen_range(0..dims);
            }
            vec![(a, rng.gen_range(0.05..1.0)), (b, rng.gen_range(0.05..1.0))]
        } else {
            // Dense tuple.
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

#[test]
fn all_algorithms_agree_with_each_other_and_the_oracle() {
    let mut rng = ChaCha8Rng::seed_from_u64(2024);
    for trial in 0..12 {
        let dims = rng.gen_range(3..7);
        let n = rng.gen_range(30..120);
        let dataset = random_dataset(&mut rng, n, dims);
        let index = IndexBuilder::new().build_shared(&dataset).unwrap();
        let k = rng.gen_range(1..6);
        let qlen = rng.gen_range(2..=dims.min(4)) as usize;
        let query = random_query(&mut rng, dims, qlen, k);
        let oracle = ExhaustiveOracle::new(&dataset, query.clone());

        let mut reference: Option<RegionReport> = None;
        for algorithm in Algorithm::ALL {
            let mut computation =
                RegionComputation::new(&index, &query, RegionConfig::flat(algorithm)).unwrap();
            let report = computation.compute().unwrap();
            // Against the oracle.
            for dim_regions in &report.dims {
                let expected =
                    oracle.regions(dim_regions.dim, 0, PerturbationMode::WithReorderings);
                assert!(
                    dim_regions.immutable.approx_eq(&expected.immutable, 1e-9),
                    "trial {trial}, {} dim {}: got {:?}, oracle {:?} (query {:?})",
                    algorithm.name(),
                    dim_regions.dim,
                    dim_regions.immutable,
                    expected.immutable,
                    query,
                );
            }
            // Against the other algorithms.
            if let Some(reference) = &reference {
                for (a, b) in reference.dims.iter().zip(&report.dims) {
                    assert!(
                        a.immutable.approx_eq(&b.immutable, 1e-9),
                        "trial {trial}: {} disagrees with Scan on {:?}",
                        algorithm.name(),
                        a.dim
                    );
                }
            } else {
                reference = Some(report);
            }
        }
    }
}

#[test]
fn composition_only_mode_agrees_with_the_oracle() {
    let mut rng = ChaCha8Rng::seed_from_u64(777);
    for _ in 0..8 {
        let dims = rng.gen_range(3..6);
        let dataset = random_dataset(&mut rng, 60, dims);
        let index = IndexBuilder::new().build_shared(&dataset).unwrap();
        let query = random_query(&mut rng, dims, 2, 3);
        let oracle = ExhaustiveOracle::new(&dataset, query.clone());
        for algorithm in [Algorithm::Scan, Algorithm::Cpt] {
            let mut computation = RegionComputation::new(
                &index,
                &query,
                RegionConfig::flat(algorithm).composition_only(),
            )
            .unwrap();
            let report = computation.compute().unwrap();
            for dim_regions in &report.dims {
                let expected =
                    oracle.regions(dim_regions.dim, 0, PerturbationMode::CompositionOnly);
                assert!(
                    dim_regions.immutable.approx_eq(&expected.immutable, 1e-9),
                    "{} dim {}: got {:?}, oracle {:?}",
                    algorithm.name(),
                    dim_regions.dim,
                    dim_regions.immutable,
                    expected.immutable
                );
            }
        }
    }
}

#[test]
fn pruning_and_thresholding_never_evaluate_more_than_scan() {
    let mut rng = ChaCha8Rng::seed_from_u64(5150);
    for _ in 0..6 {
        let dims = rng.gen_range(4..8);
        let dataset = random_dataset(&mut rng, 150, dims);
        let index = IndexBuilder::new().build_shared(&dataset).unwrap();
        let query = random_query(&mut rng, dims, 3, 5);

        let evaluated = |algorithm: Algorithm| {
            let mut computation =
                RegionComputation::new(&index, &query, RegionConfig::flat(algorithm)).unwrap();
            computation.compute().unwrap().stats.evaluated_candidates
        };
        let scan = evaluated(Algorithm::Scan);
        assert!(evaluated(Algorithm::Prune) <= scan);
        assert!(evaluated(Algorithm::Thres) <= scan);
        assert!(evaluated(Algorithm::Cpt) <= scan);
    }
}
