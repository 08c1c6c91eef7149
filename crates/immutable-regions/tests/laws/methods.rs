//! How the methods relate beyond computing the same regions: pruning and
//! thresholding evaluate no more candidates than Scan, the one-off φ
//! solver agrees with iterative re-evaluation, and the φ = 1 central region
//! is the φ = 0 region.

use crate::support::*;
use immutable_regions::prelude::*;
use ir_core::iterative::compute_iterative;
use rand::Rng;

#[test]
fn pruning_and_thresholding_never_evaluate_more_than_scan() {
    let mut rng = rng(5150);
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

#[test]
fn one_off_and_iterative_processing_agree() {
    let mut rng = rng(99);
    for _ in 0..4 {
        let dims = 4;
        let dataset = subset_dataset(&mut rng, 40, dims);
        let index = IndexBuilder::new().build_shared(&dataset).unwrap();
        let query = QueryVector::new([(0, 0.7), (2, 0.5)], 3).unwrap();
        let phi = 2;

        let mut one_off =
            RegionComputation::new(&index, &query, RegionConfig::with_phi(Algorithm::Cpt, phi))
                .unwrap();
        let one_off_report = one_off.compute().unwrap();
        let iterative = compute_iterative(&index, &query, Algorithm::Cpt, phi).unwrap();

        for (a, b) in one_off_report.dims.iter().zip(&iterative.dims) {
            assert_eq!(a.dim, b.dim);
            // Compare the region boundaries (the iterative walk nudges by
            // 1e-9 per step, so allow a slightly looser tolerance).
            assert_eq!(a.regions.len(), b.regions.len(), "dim {:?}", a.dim);
            for (ra, rb) in a.regions.iter().zip(&b.regions) {
                assert!(
                    (ra.delta_lo - rb.delta_lo).abs() < 1e-6,
                    "dim {:?}: {} vs {}",
                    a.dim,
                    ra.delta_lo,
                    rb.delta_lo
                );
                assert!((ra.delta_hi - rb.delta_hi).abs() < 1e-6);
                assert_eq!(ra.result, rb.result);
            }
        }
    }
}

#[test]
fn phi_one_central_region_is_the_phi_zero_region() {
    // A φ = 1 computation restricted to its central region must equal the
    // φ = 0 computation bit for bit: the same sweep, stopped one event later.
    let dataset = subset_dataset(&mut rng(7), 80, 5);
    let index = IndexBuilder::new().build_shared(&dataset).unwrap();
    let query = QueryVector::new([(0, 0.6), (1, 0.8), (3, 0.4)], 4).unwrap();
    for algorithm in Algorithm::ALL {
        let mut flat =
            RegionComputation::new(&index, &query, RegionConfig::flat(algorithm)).unwrap();
        let flat_report = flat.compute().unwrap();
        let mut phi =
            RegionComputation::new(&index, &query, RegionConfig::with_phi(algorithm, 1)).unwrap();
        let phi_report = phi.compute().unwrap();
        for (a, b) in flat_report.dims.iter().zip(&phi_report.dims) {
            let at = format!("{}, dim {:?}", algorithm.name(), a.dim);
            assert_eq!(a.immutable, b.immutable, "{at}");
            assert_eq!(a.lower_boundary, b.lower_boundary, "{at}");
            assert_eq!(a.upper_boundary, b.upper_boundary, "{at}");
            assert_eq!(a.regions, [b.regions[b.current_region].clone()], "{at}");
        }
    }
}
