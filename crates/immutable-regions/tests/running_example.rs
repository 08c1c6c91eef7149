//! End-to-end checks against every number the paper reports for its running
//! example (Figures 1, 2 and 5 and the Section 1 walk-through).

use immutable_regions::prelude::*;

fn setup() -> (std::sync::Arc<TopKIndex>, QueryVector) {
    let dataset = Dataset::running_example();
    let index = IndexBuilder::new().build_shared(&dataset).unwrap();
    (index, QueryVector::running_example())
}

#[test]
fn figure_2_round_robin_ta_trace() {
    let (index, query) = setup();
    let config = TaConfig {
        probe_strategy: ProbeStrategy::RoundRobin,
    };
    let run = TaRun::execute(&index, &query, &config).unwrap();
    // R(q) = [d2, d1] with scores 0.81 and 0.80, C(q) = [d3] with score 0.48.
    assert_eq!(run.result().ids(), vec![TupleId(1), TupleId(0)]);
    assert!((run.result().at(0).unwrap().score - 0.81).abs() < 1e-12);
    assert!((run.result().at(1).unwrap().score - 0.80).abs() < 1e-12);
    assert_eq!(run.candidates().len(), 1);
    let d3 = run.candidates().top().unwrap();
    assert_eq!(d3.id, TupleId(2));
    assert!((d3.score - 0.48).abs() < 1e-12);
    // Figure 2 terminates after processing d1, d3 and d2 (3 sorted accesses);
    // the final threshold is 0.38 <= S(d1, q) = 0.80.
    assert_eq!(run.stats().sorted_accesses, 3);
    assert!((run.threshold() - 0.38).abs() < 1e-12);
}

#[test]
fn figure_1_immutable_regions_for_every_algorithm_and_mode() {
    let (index, query) = setup();
    for algorithm in Algorithm::ALL {
        let mut computation =
            RegionComputation::new(&index, &query, RegionConfig::flat(algorithm)).unwrap();
        let report = computation.compute().unwrap();
        // IR_1 = (q1 - 16/35, q1 + 0.1), IR_2 = (q2 - 1/18, q2 + 0.5).
        let d0 = report.for_dim(DimId(0)).unwrap();
        assert!(
            (d0.immutable.lo + 16.0 / 35.0).abs() < 1e-9,
            "{}",
            algorithm.name()
        );
        assert!((d0.immutable.hi - 0.1).abs() < 1e-9, "{}", algorithm.name());
        let abs = d0.absolute_immutable();
        assert!((abs.lo - (0.8 - 16.0 / 35.0)).abs() < 1e-9);
        assert!((abs.hi - 0.9).abs() < 1e-9);
        let d1 = report.for_dim(DimId(1)).unwrap();
        assert!(
            (d1.immutable.lo + 1.0 / 18.0).abs() < 1e-9,
            "{}",
            algorithm.name()
        );
        assert!((d1.immutable.hi - 0.5).abs() < 1e-9, "{}", algorithm.name());
    }
}

#[test]
fn figure_5_phase_roles() {
    // Figure 5 shows that Phase 1 (result reorderings) bounds IR_1's upper
    // end at +0.1 and IR_2's lower end at -1/18, while Phase 2 (the
    // candidate d3) bounds IR_1's lower end at -16/35, and Phase 3 finds no
    // further tuple. The boundary provenance exposes exactly this.
    let (index, query) = setup();
    let mut computation =
        RegionComputation::new(&index, &query, RegionConfig::flat(Algorithm::Scan)).unwrap();
    let report = computation.compute().unwrap();

    let d0 = report.for_dim(DimId(0)).unwrap();
    assert_eq!(
        d0.upper_boundary.unwrap().perturbation,
        Perturbation::Reorder {
            moved_up: TupleId(0),
            moved_down: TupleId(1)
        }
    );
    assert_eq!(
        d0.lower_boundary.unwrap().perturbation,
        Perturbation::Replace {
            entering: TupleId(2),
            leaving: TupleId(0)
        }
    );

    let d1 = report.for_dim(DimId(1)).unwrap();
    assert_eq!(
        d1.lower_boundary.unwrap().perturbation,
        Perturbation::Reorder {
            moved_up: TupleId(0),
            moved_down: TupleId(1)
        }
    );
    // IR_2's upper end is +0.5 = 1 - q_2: the domain edge, not a
    // perturbation (Figure 5's Phase-2 constraint of 2/3 lies beyond it).
    assert!((d1.immutable.hi - 0.5).abs() < 1e-9);
    assert!(d1.upper_boundary.is_none());
}

#[test]
fn section_1_phi_1_regions() {
    // Section 1: with φ = 1, keeping q1 within
    // (q1 - 0.55, q1 - 16/35) ∪ [q1 - 16/35, q1 + 0.1] ∪ (q1 + 0.1, q1 + 0.2)
    // ensures at most one perturbation; the respective results are
    // [d2, d3], [d2, d1], [d1, d2].
    let (index, query) = setup();
    let mut computation =
        RegionComputation::new(&index, &query, RegionConfig::with_phi(Algorithm::Cpt, 1)).unwrap();
    let report = computation.compute().unwrap();
    let d0 = report.for_dim(DimId(0)).unwrap();
    assert_eq!(d0.regions.len(), 3);

    let left = &d0.regions[0];
    assert!((left.delta_lo + 0.55).abs() < 1e-9);
    assert!((left.delta_hi + 16.0 / 35.0).abs() < 1e-9);
    assert_eq!(left.result, vec![TupleId(1), TupleId(2)]);

    let center = &d0.regions[1];
    assert_eq!(center.result, vec![TupleId(1), TupleId(0)]);
    assert_eq!(d0.current_region, 1);

    let right = &d0.regions[2];
    assert!((right.delta_lo - 0.1).abs() < 1e-9);
    assert!((right.delta_hi - 0.2).abs() < 1e-9);
    assert_eq!(right.result, vec![TupleId(0), TupleId(1)]);
}

#[test]
fn weight_shifts_confirm_the_reported_regions() {
    // Actually re-run the query with shifted weights and confirm the result
    // changes exactly where the regions say it does.
    let (index, query) = setup();
    let mut computation =
        RegionComputation::new(&index, &query, RegionConfig::flat(Algorithm::Cpt)).unwrap();
    let report = computation.compute().unwrap();
    let d0 = report.for_dim(DimId(0)).unwrap();

    let result_at = |delta: f64| {
        let shifted = query.with_weight_shift(DimId(0), delta).unwrap();
        TaRun::execute_default(&index, &shifted)
            .unwrap()
            .result()
            .ids()
    };
    let inside_hi = d0.immutable.hi - 1e-6;
    let outside_hi = d0.immutable.hi + 1e-6;
    let inside_lo = d0.immutable.lo + 1e-6;
    let outside_lo = d0.immutable.lo - 1e-6;
    let current = computation.result().ids();
    assert_eq!(result_at(inside_hi), current);
    assert_eq!(result_at(inside_lo), current);
    assert_ne!(result_at(outside_hi), current);
    assert_ne!(result_at(outside_lo), current);
}
