//! Laws of the region solver, through the public API: thresholding finds
//! exactly the regions an exhaustive Phase 2 finds, with no more
//! evaluations, at every φ and in both modes; it stops early on hopeless
//! candidates and does nothing on an empty `C(q)`; the running example's
//! bounds are Lemma 1's; and Phase 3's bound on the left falls with the
//! weight.

use ir_core::region::{Perturbation, RegionReport};
use ir_core::{Algorithm, RegionComputation, RegionConfig};
use ir_storage::TopKIndex;
use ir_types::{Dataset, DimId, QueryVector, SparseVector, TupleId};
use std::sync::Arc;

/// An index over dense two-dimensional tuples; tuple `i` gets id `i`.
fn index_of(tuples: &[[f64; 2]]) -> Arc<TopKIndex> {
    let tuples = tuples
        .iter()
        .map(|t| SparseVector::from_dense(t).unwrap())
        .collect();
    let dataset = Dataset::from_tuples(2, tuples).unwrap();
    Arc::new(TopKIndex::build_in_memory(&dataset).unwrap())
}

fn solve(index: &Arc<TopKIndex>, query: &QueryVector, config: RegionConfig) -> RegionReport {
    RegionComputation::new(index, query, config)
        .unwrap()
        .compute()
        .unwrap()
}

/// Every φ the laws below are checked at, in both modes.
fn configs(algorithm: Algorithm) -> impl Iterator<Item = RegionConfig> {
    [0, 1, 3].into_iter().flat_map(move |phi| {
        let config = RegionConfig::with_phi(algorithm, phi);
        [config, config.composition_only()]
    })
}

/// Thresholded regions equal exhaustive ones (Thres against Scan, CPT
/// against Prune) down to the last bit, and thresholding evaluates no
/// more candidates.
fn assert_thresholding_is_exact(index: &Arc<TopKIndex>, query: &QueryVector) {
    for (exhaustive, thresholded) in [
        (Algorithm::Scan, Algorithm::Thres),
        (Algorithm::Prune, Algorithm::Cpt),
    ] {
        for (ex_config, th_config) in configs(exhaustive).zip(configs(thresholded)) {
            let ex = solve(index, query, ex_config);
            let th = solve(index, query, th_config);
            assert_eq!(th.dims, ex.dims, "{th_config:?}");
            assert!(
                th.stats.evaluated_candidates <= ex.stats.evaluated_candidates,
                "{th_config:?}: thresholding evaluated more ({} > {})",
                th.stats.evaluated_candidates,
                ex.stats.evaluated_candidates
            );
        }
    }
}

/// Deterministic pseudo-random stream in `[0, 1]`.
fn lcg(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / (u32::MAX as f64)
    }
}

/// On the running example, Phase 2 moves dimension 1's lower bound from
/// Phase 1's `-0.8` to `-16/35`, where `d3` replaces `d1`; the upper
/// bound stays Phase 1's `0.1`, the `d1`/`d2` reorder.
#[test]
fn running_example_dimension_1_phase2() {
    let index = Arc::new(TopKIndex::build_in_memory(&Dataset::running_example()).unwrap());
    let query = QueryVector::running_example();
    for algorithm in [Algorithm::Thres, Algorithm::Cpt] {
        let report = solve(&index, &query, RegionConfig::flat(algorithm));
        let d0 = report.for_dim(DimId(0)).unwrap();
        assert!((d0.immutable.lo + 16.0 / 35.0).abs() < 1e-12);
        assert!((d0.immutable.hi - 0.1).abs() < 1e-12);
        let lower = d0.lower_boundary.unwrap().perturbation;
        assert_eq!(
            lower,
            Perturbation::Replace {
                entering: TupleId(2),
                leaving: TupleId(0)
            }
        );
        let upper = d0.upper_boundary.unwrap().perturbation;
        assert!(matches!(upper, Perturbation::Reorder { .. }), "{upper:?}");
    }
}

/// Lemma 1 on the running example, dimension 1: `d1` overtakes `d2` at
/// `(0.81 − 0.80) / (0.8 − 0.7) = 0.1`, and `d3` overtakes `d1` at
/// `(0.80 − 0.48) / (0.1 − 0.8) = −16/35`.
#[test]
fn running_example_dimension_1_bounds() {
    let index = Arc::new(TopKIndex::build_in_memory(&Dataset::running_example()).unwrap());
    let query = QueryVector::running_example();
    for algorithm in Algorithm::ALL {
        let report = solve(&index, &query, RegionConfig::flat(algorithm));
        let d0 = report.for_dim(DimId(0)).unwrap();
        let upper = d0.upper_boundary.unwrap();
        assert!((upper.delta - 0.1).abs() < 1e-12);
        assert_eq!(
            upper.perturbation,
            Perturbation::Reorder {
                moved_up: TupleId(0),
                moved_down: TupleId(1)
            }
        );
        let lower = d0.lower_boundary.unwrap();
        assert!((lower.delta + 16.0 / 35.0).abs() < 1e-12);
    }
}

/// Dimension 2: `d1`'s smaller coordinate raises the lower bound to
/// `(0.81 − 0.80) / (0.32 − 0.5) = −1/18`, and `d3` would cap the upper
/// bound at `(0.80 − 0.48) / (0.8 − 0.32) = 2/3`, past the domain edge
/// `1 − 0.5`, so the region runs to the edge with no perturbation.
#[test]
fn running_example_dimension_2_bounds() {
    let index = Arc::new(TopKIndex::build_in_memory(&Dataset::running_example()).unwrap());
    let query = QueryVector::running_example();
    for algorithm in Algorithm::ALL {
        let report = solve(&index, &query, RegionConfig::flat(algorithm));
        let d1 = report.for_dim(DimId(1)).unwrap();
        let lower = d1.lower_boundary.unwrap();
        assert!((lower.delta + 1.0 / 18.0).abs() < 1e-12);
        assert_eq!(
            lower.perturbation,
            Perturbation::Reorder {
                moved_up: TupleId(0),
                moved_down: TupleId(1)
            }
        );
        assert_eq!(d1.immutable.hi, 0.5);
        assert_eq!(d1.upper_boundary, None);
        // With one more region allowed, d3's entry at 2/3 is still out
        // of reach, and the bound moves no further.
        let report = solve(&index, &query, RegionConfig::with_phi(algorithm, 1));
        assert_eq!(report.for_dim(DimId(1)).unwrap().immutable.hi, 0.5);
    }
}

/// A candidate whose coordinate equals `d_k`'s keeps its score gap at
/// every weight, so it bounds nothing: the region spans the domain.
#[test]
fn equal_coordinates_impose_nothing() {
    let index = index_of(&[[0.4, 0.9], [0.4, 0.3]]);
    let query = QueryVector::new([(0, 0.5), (1, 0.5)], 1).unwrap();
    for algorithm in Algorithm::ALL {
        for config in configs(algorithm) {
            let report = solve(&index, &query, config);
            let d0 = report.for_dim(DimId(0)).unwrap();
            assert_eq!(
                (d0.immutable.lo, d0.immutable.hi),
                (-0.5, 0.5),
                "{config:?}"
            );
            assert_eq!(d0.lower_boundary, None);
            assert_eq!(d0.upper_boundary, None);
        }
    }
}

/// A mixed candidate set: coordinates above, below and equal to
/// `d_k`'s, zero coordinates (`C⁰_j`) and single-dimension tuples
/// (`C^H_j`).
#[test]
fn equivalence_on_mixed_candidates() {
    let index = index_of(&[
        [0.9, 0.5],
        [0.4, 0.9],
        [0.95, 0.3],
        [0.1, 0.9],
        [0.0, 0.95],
        [0.0, 0.6],
        [0.4, 0.2],
        [0.97, 0.0],
        [0.85, 0.0],
        [0.3, 0.05],
        [0.05, 0.1],
    ]);
    for k in 1..=3 {
        let query = QueryVector::new([(0, 0.5), (1, 0.5)], k).unwrap();
        assert_thresholding_is_exact(&index, &query);
    }
}

#[test]
fn equivalence_on_pseudorandom_inputs() {
    let mut next = lcg(0x12345678);
    for trial in 0..25 {
        let n = 3 + (trial % 17);
        let tuples: Vec<[f64; 2]> = (0..n + 3).map(|_| [next(), next()]).collect();
        let index = index_of(&tuples);
        let w = 0.05 + 0.9 * next();
        let query = QueryVector::new([(0, w), (1, 1.0 - w)], 1 + trial % 3).unwrap();
        assert_thresholding_is_exact(&index, &query);
    }
}

/// One decisive candidate per side among 199 hopeless ones, which TA
/// meets before `d_k` and so all lie in `C(q)`: thresholding stops
/// early, and the upper bound is the decisive candidate's.
#[test]
fn thresholding_skips_low_potential_candidates() {
    // d_k scores 0.85; the decisive candidate 0.825 and enters at
    // (0.85 − 0.825) / (0.95 − 0.85) = 0.25.
    let mut tuples = vec![[0.85, 0.85], [0.95, 0.7]];
    for i in 0..100 {
        tuples.push([0.9 - 1e-4 * i as f64, 0.0]);
    }
    for i in 0..99 {
        tuples.push([0.0, 0.9 - 1e-4 * i as f64]);
    }
    let index = index_of(&tuples);
    let query = QueryVector::new([(0, 0.5), (1, 0.5)], 1).unwrap();
    for algorithm in [Algorithm::Thres, Algorithm::Cpt] {
        for config in configs(algorithm) {
            let report = solve(&index, &query, config);
            assert_eq!(report.stats.initial_candidates, 200);
            let evaluated = report.stats.evaluated_per_dim[0];
            assert!(evaluated < 50, "{config:?}: evaluated {evaluated} of 200");
            let d0 = report.for_dim(DimId(0)).unwrap();
            assert!((d0.immutable.hi - 0.25).abs() < 1e-12, "{config:?}");
        }
    }
    assert_thresholding_is_exact(&index, &query);
}

/// When the result holds every tuple, `C(q)` is empty and TA is
/// exhausted: no algorithm evaluates anything, and the regions are
/// the result's own reorders.
#[test]
fn empty_candidate_set_is_a_noop() {
    let index = index_of(&[[0.9, 0.2], [0.3, 0.7]]);
    let query = QueryVector::new([(0, 0.5), (1, 0.5)], 2).unwrap();
    for algorithm in Algorithm::ALL {
        for config in configs(algorithm) {
            let report = solve(&index, &query, config);
            assert_eq!(report.stats.initial_candidates, 0);
            assert_eq!(report.stats.evaluated_candidates, 0, "{config:?}");
            assert_eq!(report.stats.phase3_tuples, 0, "{config:?}");
        }
    }
    let report = solve(&index, &query, RegionConfig::flat(Algorithm::Cpt));
    let d0 = report.for_dim(DimId(0)).unwrap();
    // The two lines swap where 0.55 − 0.6·x = 0.5: x = 1/12 below q_1.
    assert!((d0.immutable.lo + 1.0 / 12.0).abs() < 1e-12);
    assert_eq!(d0.immutable.hi, 0.5);
}

/// Phase 3 on the left of dimension 1 bounds an unseen tuple by the
/// line `Σ_{i≠j} q_i t_i + (q_j − x) t_j`, which falls as the weight
/// does. Every other tuple is below the result tuple in dimension 1, so
/// the right side is closed from the start; the left side closes once
/// list 2's frontier drops past the tuples that could still enter there.
#[test]
fn left_phase3_bound_stops_ta_early() {
    let mut tuples = vec![[0.9, 0.5]];
    for i in 1..=30 {
        let i = i as f64;
        tuples.push([0.3 - 0.009 * i, 0.8 - 0.02 * i]);
    }
    let index = index_of(&tuples);
    let query = QueryVector::new([(0, 0.5), (1, 0.5)], 1).unwrap();
    let reports: Vec<RegionReport> = Algorithm::ALL
        .into_iter()
        .map(|algorithm| solve(&index, &query, RegionConfig::with_phi(algorithm, 1)))
        .collect();
    for report in &reports {
        // A bound that does not fall with the weight, `Σ_i q_i t_i`,
        // keeps TA going for 28 tuples.
        assert_eq!(report.stats.phase3_tuples, 2);
        assert_eq!(report.dims, reports[0].dims);
    }
    // d2 = (0.291, 0.78) overtakes d1 where 0.7 − 0.9·x = 0.5355 − 0.291·x.
    let d0 = reports[0].for_dim(DimId(0)).unwrap();
    let lower = d0.lower_boundary.unwrap();
    assert!((lower.delta + 0.1645 / 0.609).abs() < 1e-12);
    assert_eq!(
        lower.perturbation,
        Perturbation::Replace {
            entering: TupleId(1),
            leaving: TupleId(0)
        }
    );
}
