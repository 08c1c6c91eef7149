//! The public entry point: [`RegionComputation`].

use crate::config::{PerturbationMode, RegionConfig};
use crate::evaluator::CandidateEvaluator;
use crate::metrics::ComputationStats;
use crate::region::{DimRegions, RegionReport};
use crate::solver_flat::{solve_dim_flat, DimSolveInfo};
use crate::solver_phi::solve_dim_phi;
use ir_storage::{IoStatsSnapshot, TopKIndex};
use ir_topk::{TaConfig, TaRun};
use ir_types::{IrResult, QueryVector, TopKResult};
use std::sync::Arc;
use std::time::Instant;

/// A top-k query whose result has been computed and whose immutable regions
/// can be derived.
///
/// ```
/// use ir_core::{Algorithm, RegionComputation, RegionConfig};
/// use ir_storage::IndexBuilder;
/// use ir_types::{Dataset, DimId, QueryVector};
///
/// let dataset = Dataset::running_example();
/// let index = IndexBuilder::new().build_shared(&dataset).unwrap();
/// let query = QueryVector::running_example();
/// let mut computation =
///     RegionComputation::new(&index, &query, RegionConfig::flat(Algorithm::Cpt)).unwrap();
/// let report = computation.compute().unwrap();
/// let dim0 = report.for_dim(DimId(0)).unwrap();
/// assert!((dim0.immutable.lo - (-16.0 / 35.0)).abs() < 1e-9);
/// assert!((dim0.immutable.hi - 0.1).abs() < 1e-9);
/// ```
#[must_use = "a region computation does nothing until `compute` is called"]
pub struct RegionComputation {
    index: Arc<TopKIndex>,
    ta: TaRun,
    config: RegionConfig,
    topk_io: IoStatsSnapshot,
}

impl RegionComputation {
    /// Runs TA for the query and prepares the region computation. The
    /// computation shares ownership of the index, so it has no borrowed
    /// lifetime and can be stored, sent across threads, or returned from
    /// owning services.
    pub fn new(
        index: &Arc<TopKIndex>,
        query: &QueryVector,
        config: RegionConfig,
    ) -> IrResult<Self> {
        Self::with_ta_config(index, query, config, &TaConfig::default())
    }

    /// Same as [`RegionComputation::new`] with an explicit TA configuration.
    pub fn with_ta_config(
        index: &Arc<TopKIndex>,
        query: &QueryVector,
        config: RegionConfig,
        ta_config: &TaConfig,
    ) -> IrResult<Self> {
        let ta = TaRun::execute(index, query, ta_config)?;
        let topk_io = ta.io();
        Ok(RegionComputation {
            index: Arc::clone(index),
            ta,
            config,
            topk_io,
        })
    }

    /// The top-k result of the query.
    pub fn result(&self) -> TopKResult {
        self.ta.result()
    }

    /// Read access to the underlying TA run (result entries, candidates,
    /// thresholds) — used by the experiment harness for the Figure 6 study.
    pub fn ta(&self) -> &TaRun {
        &self.ta
    }

    /// The configuration in effect.
    pub fn config(&self) -> RegionConfig {
        self.config
    }

    /// Computes the immutable regions (and, for `φ > 0`, the surrounding
    /// regions) of every query dimension.
    ///
    /// This is the one solve path. The dimensions are solved in query order
    /// against one TA run, so `C(q)` and the tuples Phase 3 discovers for
    /// one dimension are shared with every later one. Parallelism lives one
    /// level up, across queries ([`crate::parallel`]).
    pub fn compute(&mut self) -> IrResult<RegionReport> {
        let started = Instant::now();
        let mut evaluator = CandidateEvaluator::new(&self.index);
        let mut dims = Vec::new();
        let mut stats = ComputationStats {
            initial_candidates: self.ta.candidates().len(),
            topk_io: self.topk_io,
            ..ComputationStats::default()
        };
        for dim_index in 0..self.ta.dims().len() {
            let (regions, info) = solve_dim(
                &self.index,
                &mut self.ta,
                dim_index,
                &self.config,
                &mut evaluator,
            )?;
            stats.evaluated_per_dim.push(info.evaluated);
            stats.evaluated_candidates += info.evaluated;
            stats.phase3_tuples += info.phase3_tuples;
            stats.memory_footprint_bytes = stats.memory_footprint_bytes.max(info.footprint_bytes);
            stats.io = stats.io.plus(&info.io);
            dims.push(regions);
        }
        stats.cpu_time = started.elapsed();
        Ok(RegionReport { dims, stats })
    }
}

/// Solves one query dimension with the solver `config` calls for, and
/// records in the returned info the page accesses the solve made through
/// `evaluator` and `ta`.
///
/// The flat (Lemma-1 against d_k) solver is only valid while the result
/// ordering is fixed inside the region, i.e. when reorderings count as
/// perturbations. In composition-only mode the lowest-ranked result member
/// can change identity inside the region, so the envelope-based solver is
/// used even for φ = 0.
fn solve_dim(
    index: &TopKIndex,
    ta: &mut TaRun,
    dim_index: usize,
    config: &RegionConfig,
    evaluator: &mut CandidateEvaluator<'_>,
) -> IrResult<(DimRegions, DimSolveInfo)> {
    evaluator.start_dimension();
    let io_before = evaluator.io().plus(&ta.io());
    let flat = config.phi == 0 && config.mode == PerturbationMode::WithReorderings;
    let (regions, mut info) = if flat {
        solve_dim_flat(index, ta, dim_index, config, evaluator)?
    } else {
        solve_dim_phi(index, ta, dim_index, config, evaluator)?
    };
    info.io = evaluator.io().plus(&ta.io()).since(&io_before);
    Ok((regions, info))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Algorithm;
    use crate::region::Perturbation;
    use ir_types::{Dataset, DimId, TupleId};

    fn running_setup() -> (Arc<TopKIndex>, QueryVector) {
        let dataset = Dataset::running_example();
        let index = Arc::new(TopKIndex::build_in_memory(&dataset).unwrap());
        (index, QueryVector::running_example())
    }

    /// The running example of Section 1: IR_1 = (-16/35, 0.1) and
    /// IR_2 = (-1/18, 0.5), for every algorithm.
    #[test]
    fn running_example_regions_for_all_algorithms() {
        let (index, query) = running_setup();
        for algorithm in Algorithm::ALL {
            let mut computation =
                RegionComputation::new(&index, &query, RegionConfig::flat(algorithm)).unwrap();
            let report = computation.compute().unwrap();
            assert_eq!(
                computation.result().ids(),
                vec![TupleId(1), TupleId(0)],
                "{}",
                algorithm.name()
            );
            let d0 = report.for_dim(DimId(0)).unwrap();
            assert!(
                (d0.immutable.lo + 16.0 / 35.0).abs() < 1e-9,
                "{}: lo = {}",
                algorithm.name(),
                d0.immutable.lo
            );
            assert!(
                (d0.immutable.hi - 0.1).abs() < 1e-9,
                "{}: hi = {}",
                algorithm.name(),
                d0.immutable.hi
            );
            let d1 = report.for_dim(DimId(1)).unwrap();
            assert!(
                (d1.immutable.lo + 1.0 / 18.0).abs() < 1e-9,
                "{}",
                algorithm.name()
            );
            assert!((d1.immutable.hi - 0.5).abs() < 1e-9, "{}", algorithm.name());
        }
    }

    /// The perturbations at the region boundaries match Section 1: raising
    /// q_1 past 0.1 swaps d1 and d2; lowering it past -16/35 brings d3 in.
    #[test]
    fn running_example_boundary_perturbations() {
        let (index, query) = running_setup();
        let mut computation =
            RegionComputation::new(&index, &query, RegionConfig::flat(Algorithm::Cpt)).unwrap();
        let report = computation.compute().unwrap();
        let d0 = report.for_dim(DimId(0)).unwrap();
        match d0.upper_boundary.unwrap().perturbation {
            crate::region::Perturbation::Reorder {
                moved_up,
                moved_down,
            } => {
                assert_eq!(moved_up, TupleId(0));
                assert_eq!(moved_down, TupleId(1));
            }
            other => panic!("expected a reorder at the upper bound, got {other:?}"),
        }
        match d0.lower_boundary.unwrap().perturbation {
            crate::region::Perturbation::Replace { entering, leaving } => {
                assert_eq!(entering, TupleId(2));
                assert_eq!(leaving, TupleId(0));
            }
            other => panic!("expected a replacement at the lower bound, got {other:?}"),
        }
    }

    /// φ = 1 on the running example, dimension 1: the paper (Section 1)
    /// gives the adjacent regions (0.1, 0.2) with result [d1, d2] and
    /// (-0.55, -16/35) with result [d2, d3].
    #[test]
    fn running_example_phi_one_regions() {
        let (index, query) = running_setup();
        for algorithm in Algorithm::ALL {
            let mut computation =
                RegionComputation::new(&index, &query, RegionConfig::with_phi(algorithm, 1))
                    .unwrap();
            let report = computation.compute().unwrap();
            let d0 = report.for_dim(DimId(0)).unwrap();
            assert!(
                (d0.immutable.lo + 16.0 / 35.0).abs() < 1e-9,
                "{}",
                algorithm.name()
            );
            assert!((d0.immutable.hi - 0.1).abs() < 1e-9, "{}", algorithm.name());

            let right = d0.region_at(0.15).expect("region to the right");
            assert_eq!(
                right.result,
                vec![TupleId(0), TupleId(1)],
                "{}",
                algorithm.name()
            );
            assert!((right.delta_lo - 0.1).abs() < 1e-9);
            assert!(
                (right.delta_hi - 0.2).abs() < 1e-9,
                "{}: {}",
                algorithm.name(),
                right.delta_hi
            );

            let left = d0.region_at(-0.5).expect("region to the left");
            assert_eq!(
                left.result,
                vec![TupleId(1), TupleId(2)],
                "{}",
                algorithm.name()
            );
            assert!((left.delta_hi + 16.0 / 35.0).abs() < 1e-9);
            assert!(
                (left.delta_lo + 0.55).abs() < 1e-9,
                "{}: {}",
                algorithm.name(),
                left.delta_lo
            );
        }
    }

    #[test]
    fn composition_only_mode_widens_dimension_one() {
        // In composition-only mode the reorder of d1/d2 at +0.1 no longer
        // bounds IR_1; the upper bound is instead where a new tuple would
        // enter the top-2 (or the domain edge).
        let (index, query) = running_setup();
        let mut computation = RegionComputation::new(
            &index,
            &query,
            RegionConfig::flat(Algorithm::Cpt).composition_only(),
        )
        .unwrap();
        let report = computation.compute().unwrap();
        let d0 = report.for_dim(DimId(0)).unwrap();
        assert!(d0.immutable.hi > 0.1 + 1e-9);
        assert_eq!(report.stats.evaluated_per_dim.len(), 2);
        // The other-mode lower bound is unchanged: d3 entering is a
        // composition change either way.
        assert!((d0.immutable.lo + 16.0 / 35.0).abs() < 1e-9);
    }

    #[test]
    fn stats_reflect_work_done() {
        let (index, query) = running_setup();
        index.cold_start();
        let mut scan =
            RegionComputation::new(&index, &query, RegionConfig::flat(Algorithm::Scan)).unwrap();
        let scan_report = scan.compute().unwrap();
        assert_eq!(scan_report.stats.evaluated_per_dim.len(), 2);
        assert!(scan_report.stats.io.logical_reads > 0);
        assert!(scan_report.stats.cpu_time.as_nanos() > 0);

        index.cold_start();
        let mut cpt =
            RegionComputation::new(&index, &query, RegionConfig::flat(Algorithm::Cpt)).unwrap();
        let cpt_report = cpt.compute().unwrap();
        assert!(
            cpt_report.stats.evaluated_candidates <= scan_report.stats.evaluated_candidates,
            "CPT must not evaluate more candidates than Scan"
        );
    }

    #[test]
    fn composition_only_regions_contain_reordering_regions() {
        // Ignoring reorderings can only widen every immutable region: the
        // strict-mode region must be contained in the composition-only one.
        let (index, query) = running_setup();
        for algorithm in Algorithm::ALL {
            let mut strict =
                RegionComputation::new(&index, &query, RegionConfig::flat(algorithm)).unwrap();
            let strict_report = strict.compute().unwrap();
            let mut loose = RegionComputation::new(
                &index,
                &query,
                RegionConfig::flat(algorithm).composition_only(),
            )
            .unwrap();
            let loose_report = loose.compute().unwrap();
            for dim in [DimId(0), DimId(1)] {
                let s = strict_report.for_dim(dim).unwrap();
                let l = loose_report.for_dim(dim).unwrap();
                assert!(
                    l.immutable.lo <= s.immutable.lo + 1e-12,
                    "{}",
                    algorithm.name()
                );
                assert!(
                    l.immutable.hi >= s.immutable.hi - 1e-12,
                    "{}",
                    algorithm.name()
                );
            }
            // In strict mode, IR_2's lower bound is the d1/d2 reordering at
            // -1/18 (Figure 5, Phase 1).
            let d1 = strict_report.for_dim(DimId(1)).unwrap();
            assert!(
                (d1.immutable.lo + 1.0 / 18.0).abs() < 1e-9,
                "{}",
                algorithm.name()
            );
            assert_eq!(
                d1.lower_boundary.unwrap().perturbation,
                Perturbation::Reorder {
                    moved_up: TupleId(0),
                    moved_down: TupleId(1)
                },
                "{}",
                algorithm.name()
            );
        }
    }
}
