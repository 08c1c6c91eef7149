//! [`Subscription`]: the paper's subscribed-query loop over one engine.

use super::{EngineError, EngineResult, IrEngine};
use ir_core::RegionReport;
use ir_storage::AppliedUpdate;
use ir_types::{DimId, QueryVector, TopKResult};
use std::fmt;

/// A subscribed query (the paper's interactive weight-tuning loop): holds
/// the last computed [`RegionReport`] and the engine handle needed to
/// refresh it.
///
/// The subscription answers [`Subscription::is_immutable_under`] purely
/// from the cached regions — no I/O, no recomputation — and
/// [`Subscription::update`] recomputes only when the drifted weights
/// actually leave the reported immutable region.
pub struct Subscription {
    engine: IrEngine,
    query: QueryVector,
    result: TopKResult,
    report: RegionReport,
    refreshes: u64,
    cache_hits: u64,
}

impl fmt::Debug for Subscription {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Subscription")
            .field("query", &self.query)
            .field("result", &self.result.ids())
            .field("refreshes", &self.refreshes)
            .field("cache_hits", &self.cache_hits)
            .finish()
    }
}

impl IrEngine {
    /// Subscribes a query: computes its result and regions once and returns
    /// a [`Subscription`] that answers weight-drift questions from the
    /// cached report, recomputing only on region exit.
    pub fn subscribe(&self, query: QueryVector) -> EngineResult<Subscription> {
        let (result, report) = self.anchor_at("subscribe", &query)?;
        Ok(Subscription {
            engine: self.clone(),
            query,
            result,
            report,
            refreshes: 0,
            cache_hits: 0,
        })
    }

    /// One guarded solve of `query` with the default configuration, keeping
    /// the top-k result beside the report — what a subscription caches.
    fn anchor_at(
        &self,
        job: &str,
        query: &QueryVector,
    ) -> EngineResult<(TopKResult, RegionReport)> {
        self.run_guarded(job, || {
            let mut computation = self.computation_untracked(query, self.config)?;
            let report = computation.compute()?;
            Ok((computation.result(), report))
        })
    }
}

impl Subscription {
    /// The currently subscribed query (the anchor the cached regions are
    /// relative to).
    pub fn query(&self) -> &QueryVector {
        &self.query
    }

    /// The cached top-k result of the subscribed query.
    pub fn result(&self) -> &TopKResult {
        &self.result
    }

    /// The cached region report of the subscribed query.
    pub fn report(&self) -> &RegionReport {
        &self.report
    }

    /// How many times [`Subscription::update`] recomputed.
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// How many times [`Subscription::update`] was served from the cached
    /// regions.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Decides — locally, from the cached report — whether the result is
    /// guaranteed unchanged under `new_weights`.
    ///
    /// `true` requires that `new_weights` deviates from the subscribed
    /// query in **at most one** dimension (the paper's model: one slider
    /// moves while the others stay), with that deviation strictly inside
    /// the dimension's immutable region. Everything else — a changed `k`,
    /// several deviating weights, a new query dimension, a deviation at or
    /// past a region boundary — returns `false`, which is the conservative
    /// answer: the caller recomputes and never serves a stale result.
    pub fn is_immutable_under(&self, new_weights: &QueryVector) -> bool {
        immutable_under(&self.query, &self.report, new_weights)
    }

    /// Drives the subscription to `new_weights`: a no-op returning
    /// `Ok(false)` while the weights stay inside the reported region, a
    /// recompute (re-anchoring the subscription at `new_weights`) returning
    /// `Ok(true)` once they leave it.
    /// A failed refresh (fault, contained panic) leaves the subscription
    /// anchored at its previous query with the previous cached report — the
    /// caller can retry `update` once the device heals.
    pub fn update(&mut self, new_weights: &QueryVector) -> EngineResult<bool> {
        if self.is_immutable_under(new_weights) {
            self.cache_hits += 1;
            return Ok(false);
        }
        (self.result, self.report) = self.engine.anchor_at("subscription refresh", new_weights)?;
        self.query = new_weights.clone();
        self.refreshes += 1;
        Ok(true)
    }

    /// Maintains the subscription across a batch of applied data updates
    /// (the return value of [`IrEngine::apply_updates`]): screens each
    /// update with the kinetic line test ([`ir_core::batch_impact`]) and
    /// recomputes — at the same anchor query — only if some update punctures
    /// the cached regions. Returns `Ok(true)` when a recompute happened.
    ///
    /// Survival is a proof: when this returns `Ok(false)` the cached report
    /// is byte-identical to what a full recompute on the mutated dataset
    /// would produce. A failed recompute (fault, contained panic) leaves
    /// the cached report in place and the error surfaces — retry once the
    /// device heals; the screening is deterministic and will puncture
    /// again.
    pub fn absorb_updates(&mut self, applied: &[AppliedUpdate]) -> EngineResult<bool> {
        let index = self.engine.index();
        let impact = ir_core::batch_impact(&self.query, &self.report, applied, |id| {
            index.fetch_tuple(id)
        })
        .map_err(EngineError::Core)?;
        if impact.survived() {
            return Ok(false);
        }
        (self.result, self.report) = self
            .engine
            .anchor_at("subscription update absorb", &self.query)?;
        self.refreshes += 1;
        Ok(true)
    }
}

/// The local immutability check shared by [`Subscription`] and the
/// subscription fleet ([`crate::fleet::SubscriptionManager`]): is the
/// result anchored at `anchor` (with cached `report`) guaranteed unchanged
/// under `new_weights`?
///
/// Allocation-free: the two sparse weight vectors are merge-walked in one
/// pass over their sorted entry slices — this runs once per drift event
/// across a fleet of millions, so it must not touch the heap.
pub(crate) fn immutable_under(
    anchor: &QueryVector,
    report: &RegionReport,
    new_weights: &QueryVector,
) -> bool {
    if new_weights.k() != anchor.k() {
        return false;
    }
    let a = anchor.weights().entries();
    let b = new_weights.weights().entries();
    let (mut i, mut j) = (0usize, 0usize);
    let mut deviation: Option<(DimId, f64)> = None;
    loop {
        // delta = new - old; a dimension absent from a vector weighs 0.
        let (dim, delta) = match (a.get(i), b.get(j)) {
            (None, None) => break,
            (Some(&(dim, old)), None) => {
                i += 1;
                (dim, -old)
            }
            (None, Some(&(dim, new))) => {
                j += 1;
                (dim, new)
            }
            (Some(&(da, old)), Some(&(db, new))) => {
                if da < db {
                    i += 1;
                    (da, -old)
                } else if db < da {
                    j += 1;
                    (db, new)
                } else {
                    i += 1;
                    j += 1;
                    (da, new - old)
                }
            }
        };
        if delta != 0.0 {
            if deviation.is_some() {
                return false;
            }
            deviation = Some((dim, delta));
        }
    }
    match deviation {
        None => true,
        Some((dim, delta)) => match report.for_dim(dim) {
            // Strict interior: at the boundary itself the perturbation
            // occurs, so boundary hits count as exits.
            Some(regions) => regions.immutable.lo < delta && delta < regions.immutable.hi,
            None => false,
        },
    }
}
