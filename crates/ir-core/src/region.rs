//! Output types: immutable regions, perturbations and the full report.

use crate::metrics::ComputationStats;
use ir_geometry::Interval;
use ir_types::{DimId, TupleId};
use serde::{Deserialize, Serialize};

/// What happens to the result at a region boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Perturbation {
    /// Two result members swap ranks: `moved_up` overtakes `moved_down`.
    Reorder {
        /// The tuple that gains a rank.
        moved_up: TupleId,
        /// The tuple that loses a rank.
        moved_down: TupleId,
    },
    /// A non-result tuple enters the result, evicting the current k-th
    /// member.
    Replace {
        /// The tuple entering the result.
        entering: TupleId,
        /// The tuple leaving the result.
        leaving: TupleId,
    },
}

/// A region boundary: the deviation at which a perturbation occurs, and the
/// perturbation itself.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RegionBoundary {
    /// Deviation `δq_j` at which the perturbation occurs.
    pub delta: f64,
    /// The perturbation that occurs there.
    pub perturbation: Perturbation,
}

/// One maximal range of deviations with a fixed top-k result.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WeightRegion {
    /// Lower end of the deviation range.
    pub delta_lo: f64,
    /// Upper end of the deviation range.
    pub delta_hi: f64,
    /// The ordered top-k result valid throughout this region.
    pub result: Vec<TupleId>,
}

impl WeightRegion {
    /// True if the given deviation lies inside the region.
    pub fn contains(&self, delta: f64) -> bool {
        self.delta_lo <= delta && delta <= self.delta_hi
    }

    /// Width of the region.
    pub fn width(&self) -> f64 {
        self.delta_hi - self.delta_lo
    }
}

/// The regions computed for one query dimension.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DimRegions {
    /// The query dimension.
    pub dim: DimId,
    /// The current weight `q_j`.
    pub weight: f64,
    /// The immutable region (`φ = 0` region) as deviations around the
    /// current weight.
    pub immutable: Interval,
    /// The perturbation at the lower end of the immutable region, if the end
    /// is not the domain boundary `-q_j`.
    pub lower_boundary: Option<RegionBoundary>,
    /// The perturbation at the upper end of the immutable region, if the end
    /// is not the domain boundary `1 - q_j`.
    pub upper_boundary: Option<RegionBoundary>,
    /// All regions computed (one for `φ = 0`, up to `2φ + 1` otherwise),
    /// sorted by deviation and contiguous; always contains the region around
    /// deviation zero.
    pub regions: Vec<WeightRegion>,
    /// Index into [`DimRegions::regions`] of the region containing zero.
    pub current_region: usize,
}

impl DimRegions {
    /// The immutable region expressed as absolute weight values
    /// `(q_j + l_j, q_j + u_j)`, clamped to `[0, 1]`.
    pub fn absolute_immutable(&self) -> Interval {
        Interval::new(
            (self.weight + self.immutable.lo).max(0.0),
            (self.weight + self.immutable.hi).min(1.0),
        )
    }

    /// The region containing the given deviation, if any.
    pub fn region_at(&self, delta: f64) -> Option<&WeightRegion> {
        self.regions.iter().find(|r| r.contains(delta))
    }

    /// The result valid at deviation zero.
    pub fn current_result(&self) -> &[TupleId] {
        &self.regions[self.current_region].result
    }
}

/// The complete output of a region computation: one [`DimRegions`] per query
/// dimension plus the bookkeeping the evaluation section measures.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[must_use = "a region report carries the computed regions and cost counters"]
pub struct RegionReport {
    /// Per-dimension regions, in the query's dimension order.
    pub dims: Vec<DimRegions>,
    /// Cost counters of the computation.
    pub stats: ComputationStats,
}

impl RegionReport {
    /// The regions for a specific dimension, if it is a query dimension.
    pub fn for_dim(&self, dim: DimId) -> Option<&DimRegions> {
        self.dims.iter().find(|d| d.dim == dim)
    }

    /// The top-k result at the query's own weights (deviation zero). Every
    /// query dimension's region stack carries the same current result, so
    /// this reads it off the first; an (impossible) empty report yields an
    /// empty result.
    pub fn current_result(&self) -> &[TupleId] {
        self.dims.first().map_or(&[], |d| d.current_result())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(lo: f64, hi: f64, ids: &[u32]) -> WeightRegion {
        WeightRegion {
            delta_lo: lo,
            delta_hi: hi,
            result: ids.iter().map(|&i| TupleId(i)).collect(),
        }
    }

    fn dim_regions() -> DimRegions {
        DimRegions {
            dim: DimId(0),
            weight: 0.8,
            immutable: Interval::new(-16.0 / 35.0, 0.1),
            lower_boundary: Some(RegionBoundary {
                delta: -16.0 / 35.0,
                perturbation: Perturbation::Replace {
                    entering: TupleId(2),
                    leaving: TupleId(0),
                },
            }),
            upper_boundary: Some(RegionBoundary {
                delta: 0.1,
                perturbation: Perturbation::Reorder {
                    moved_up: TupleId(0),
                    moved_down: TupleId(1),
                },
            }),
            regions: vec![
                region(-0.55, -16.0 / 35.0, &[1, 2]),
                region(-16.0 / 35.0, 0.1, &[1, 0]),
                region(0.1, 0.2, &[0, 1]),
            ],
            current_region: 1,
        }
    }

    #[test]
    fn absolute_region_matches_figure_1() {
        let d = dim_regions();
        let abs = d.absolute_immutable();
        assert!((abs.lo - (0.8 - 16.0 / 35.0)).abs() < 1e-12);
        assert!((abs.hi - 0.9).abs() < 1e-12);
    }

    #[test]
    fn region_lookup_by_deviation() {
        let d = dim_regions();
        assert_eq!(d.current_result(), &[TupleId(1), TupleId(0)]);
        assert_eq!(
            d.region_at(0.15).unwrap().result,
            vec![TupleId(0), TupleId(1)]
        );
        assert_eq!(
            d.region_at(-0.5).unwrap().result,
            vec![TupleId(1), TupleId(2)]
        );
        assert!(d.region_at(5.0).is_none());
        assert!(d.region_at(0.0).unwrap().contains(0.0));
        assert!((d.regions[1].width() - (0.1 + 16.0 / 35.0)).abs() < 1e-12);
    }
}
