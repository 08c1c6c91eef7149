//! [`SubscriptionManager`]: serving a fleet of live subscriptions.
//!
//! The paper's economics only pay off at fleet scale: a server holding
//! *many* subscribed top-k queries answers the overwhelming majority of
//! weight-drift events with a local, allocation-free region check, and
//! amortizes the region-exiting minority into batched recomputes over the
//! shared warm buffer pool. This module is that serving layer:
//!
//! * [`SubscriptionManager`] owns N live subscriptions keyed by id,
//!   ingests [`DriftEvent`] streams (see `ir_datagen::drift`), and yields
//!   one [`FleetAnswer`] per event — either served locally from the
//!   cached region report or recomputed in a batch.
//! * Region-exiting events are queued as pending recompute jobs and
//!   flushed through [`IrEngine::query_batch`] in event-order chunks.
//! * Every flush and local answer is counted in the manager's
//!   [`FleetStats`] — the one home of the fleet's counters.
//! * [`Subscription`] is a fleet of one: the paper's single subscribed
//!   query, served by the same anchor / re-anchor / screen state machine.
//!
//! # Correctness model
//!
//! A local answer is served against the subscription's *anchor* — the
//! query its cached report was computed at — even while a recompute for
//! an earlier event is still pending. That is sound because the immutable
//! region is a guarantee about results, not about the anchor's freshness:
//! if the drifted weights lie inside the anchor's region, a fresh
//! recompute at those weights returns byte-identically the anchor's
//! result. The fleet oracle suite (`tests/laws/fleet.rs`) proves exactly
//! this equivalence for every served answer.
//!
//! Recompute jobs are queued and flushed in event-sequence order, so a
//! subscription hit twice is left anchored at its latest weights (last
//! event wins), and the whole serving trace is deterministic.
//!
//! # Dynamic data
//!
//! The fleet survives tuple updates to the shared index.
//! [`SubscriptionManager::apply_updates`] mutates the index through
//! [`IrEngine::apply_updates`] and then *screens* every member's cached
//! report with the kinetic line test ([`ir_core::batch_impact`]): a
//! member whose report provably survives keeps serving locally at zero
//! cost, a punctured member is marked **stale** and re-anchored by an
//! *invalidation job* — a recompute at its current weights that emits no
//! [`FleetAnswer`] and counts in no serving statistic, so event
//! conservation (`local_answers + recomputes == events`) holds across
//! mutations. A stale member never serves a local answer (its cached
//! report predates the mutation); until its invalidation lands, every
//! drift event it receives is answered by recompute. When several
//! managers share one engine, the mutating one forwards the returned
//! [`AppliedUpdate`]s to its peers' [`SubscriptionManager::revalidate`].

use crate::engine::IrEngine;
use ir_core::{batch_impact, RegionReport};
use ir_datagen::DriftEvent;
use ir_storage::AppliedUpdate;
use ir_types::{DimId, IrError, IrResult, QueryVector, TupleId, TupleUpdate};
use std::collections::BTreeMap;
use std::fmt;

/// Configuration of a [`SubscriptionManager`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FleetConfig {
    /// Recompute batch size: pending jobs are flushed through
    /// [`IrEngine::query_batch`] once this many accumulate, and flushed
    /// batches never exceed it. Must be at least 1.
    pub max_batch: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig { max_batch: 32 }
    }
}

/// How a [`FleetAnswer`] was produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnswerKind {
    /// Served from the cached region report — no I/O, no recompute.
    Local,
    /// Served by a batched region recompute at the event's weights.
    Recomputed,
}

/// The answer to one drift event: the subscription's top-k result at the
/// event's (cumulative) weights.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FleetAnswer {
    /// Global event sequence number (0-based, assigned at ingest).
    pub seq: u64,
    /// The subscription the event targeted.
    pub sub: u64,
    /// Local cache hit or batched recompute.
    pub kind: AnswerKind,
    /// The top-k tuple ids, best first.
    pub result: Vec<TupleId>,
    /// Deterministic cost of producing the answer: 0 for a local answer,
    /// the recompute's evaluated-candidate count otherwise.
    pub evaluated_candidates: u64,
}

/// Cumulative serving statistics of one manager.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Drift events ingested.
    pub events: u64,
    /// Events answered locally from a cached region report.
    pub local_answers: u64,
    /// Events answered by a batched recompute.
    pub recomputes: u64,
    /// Recompute batches flushed through the engine's worker pool.
    pub batches: u64,
    /// Jobs in the largest batch flushed so far.
    pub largest_batch: u64,
    /// Tuple updates applied through [`SubscriptionManager::apply_updates`].
    pub updates_applied: u64,
    /// Member reports that provably survived an update batch (screened by
    /// the kinetic line test, served on without recomputation).
    pub regions_survived: u64,
    /// Member reports an update batch punctured — re-anchored through an
    /// invalidation recompute.
    pub regions_punctured: u64,
}

impl FleetStats {
    /// Fraction of events answered locally (1.0 for an event-free fleet).
    pub fn hit_ratio(&self) -> f64 {
        if self.events == 0 {
            return 1.0;
        }
        self.local_answers as f64 / self.events as f64
    }
}

/// One live subscription inside the fleet.
struct FleetEntry {
    /// The query the cached report was computed at.
    anchor: QueryVector,
    /// The latest drifted weights (anchor + all ingested deltas).
    current: QueryVector,
    /// Cached top-k ids at the anchor.
    result: Vec<TupleId>,
    /// Cached region report at the anchor.
    report: RegionReport,
    /// Highest event sequence already re-anchored, so a re-anchor can
    /// never roll an entry backwards.
    last_applied_seq: Option<u64>,
    /// Set when an update batch punctured the cached report (or screening
    /// could not prove survival). A stale report predates the mutation, so
    /// local serving from it is forbidden until a recompute — which always
    /// runs against the post-mutation index — re-anchors the entry.
    stale: bool,
    cache_hits: u64,
    refreshes: u64,
}

impl FleetEntry {
    /// The one local-answer gate: a fresh cached report whose anchor region
    /// covers `weights`. A stale report predates a mutation of the index,
    /// so the region check against it proves nothing.
    fn is_immutable_under(&self, weights: &QueryVector) -> bool {
        !self.stale && immutable_under(&self.anchor, &self.report, weights)
    }
}

/// A read-only view of one fleet member ([`SubscriptionManager::member`]).
pub struct FleetMember<'a> {
    id: u64,
    entry: &'a FleetEntry,
}

impl<'a> FleetMember<'a> {
    /// The subscription id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The anchor query the cached report is relative to.
    pub fn anchor(&self) -> &'a QueryVector {
        &self.entry.anchor
    }

    /// The latest drifted weights.
    pub fn current(&self) -> &'a QueryVector {
        &self.entry.current
    }

    /// The cached top-k ids at the anchor.
    pub fn result(&self) -> &'a [TupleId] {
        &self.entry.result
    }

    /// The cached region report at the anchor.
    pub fn report(&self) -> &'a RegionReport {
        &self.entry.report
    }

    /// True while an update batch has punctured the cached report and its
    /// invalidation recompute has not landed yet — a stale member answers
    /// by recompute, never from the cache.
    pub fn is_stale(&self) -> bool {
        self.entry.stale
    }

    /// Decides — locally, from the cached report — whether the member's
    /// cached result is guaranteed unchanged under `new_weights`.
    ///
    /// `true` requires a fresh (not stale) report and that `new_weights`
    /// deviates from the anchor in **at most one** dimension (the paper's
    /// model: one slider moves while the others stay), strictly inside that
    /// dimension's immutable region. Everything else — a stale report, a
    /// changed `k`, several deviating weights, a new query dimension, a
    /// deviation at or past a region boundary — returns `false`, the
    /// conservative answer: the caller recomputes and never serves a stale
    /// result.
    pub fn is_immutable_under(&self, new_weights: &QueryVector) -> bool {
        self.entry.is_immutable_under(new_weights)
    }

    /// Events answered locally for this subscription.
    pub fn cache_hits(&self) -> u64 {
        self.entry.cache_hits
    }

    /// Batched recomputes applied to this subscription.
    pub fn refreshes(&self) -> u64 {
        self.entry.refreshes
    }
}

/// What a pending recompute job is for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum JobKind {
    /// Answers a drift event: emits a [`FleetAnswer`] and counts as a
    /// recompute in the serving statistics.
    Drift,
    /// Re-anchors a member whose cached report an update punctured:
    /// maintenance only — no answer, no serving-statistics recompute.
    Invalidation,
}

/// A recompute job waiting for the next flush.
struct PendingJob {
    seq: u64,
    sub: u64,
    weights: QueryVector,
    kind: JobKind,
}

/// A fleet of live subscriptions served from one shared engine.
///
/// See the [module docs](self) for the serving model. The manager is
/// deliberately single-writer (`&mut self` ingest): fan-out parallelism
/// lives *inside* the engine's batch worker pool, where it is proven
/// deterministic, not in the bookkeeping.
pub struct SubscriptionManager {
    engine: IrEngine,
    config: FleetConfig,
    entries: BTreeMap<u64, FleetEntry>,
    pending: Vec<PendingJob>,
    /// Answers produced but not yet handed to the caller — survives a
    /// failed flush so no answer is ever lost.
    ready: Vec<FleetAnswer>,
    next_seq: u64,
    stats: FleetStats,
}

impl fmt::Debug for SubscriptionManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SubscriptionManager")
            .field("subscriptions", &self.entries.len())
            .field("pending", &self.pending.len())
            .field("config", &self.config)
            .field("stats", &self.stats)
            .finish()
    }
}

impl SubscriptionManager {
    /// Creates an empty fleet served by `engine` (a cheap handle clone —
    /// the warm index and buffer pool are shared).
    pub fn new(engine: &IrEngine, config: FleetConfig) -> IrResult<Self> {
        if config.max_batch == 0 {
            return Err(IrError::InvalidConfig(
                "fleet max_batch must be at least 1".to_string(),
            ));
        }
        Ok(SubscriptionManager {
            engine: engine.clone(),
            config,
            entries: BTreeMap::new(),
            pending: Vec::new(),
            ready: Vec::new(),
            next_seq: 0,
            stats: FleetStats::default(),
        })
    }

    /// Number of live subscriptions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True while the fleet has no subscriptions.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if `sub` is a live subscription.
    pub fn contains(&self, sub: u64) -> bool {
        self.entries.contains_key(&sub)
    }

    /// Recompute jobs waiting for the next flush.
    pub fn pending_recomputes(&self) -> usize {
        self.pending.len()
    }

    /// Cumulative serving statistics.
    pub fn stats(&self) -> FleetStats {
        self.stats
    }

    /// The manager's configuration.
    pub fn config(&self) -> FleetConfig {
        self.config
    }

    /// A read-only view of one member.
    pub fn member(&self, sub: u64) -> Option<FleetMember<'_>> {
        self.entries
            .get(&sub)
            .map(|entry| FleetMember { id: sub, entry })
    }

    /// Iterates the members in id order.
    pub fn members(&self) -> impl Iterator<Item = FleetMember<'_>> {
        self.entries
            .iter()
            .map(|(&id, entry)| FleetMember { id, entry })
    }

    /// Admits one subscription ([`SubscriptionManager::admit_all`] of one).
    pub fn admit(&mut self, sub: u64, query: QueryVector) -> IrResult<()> {
        self.admit_all([(sub, query)])
    }

    /// Admits a set of subscriptions: their initial results and region
    /// reports are computed in one batch over the engine's worker pool.
    ///
    /// A duplicate id — against the live fleet or within the admitted set
    /// — is rejected with [`IrError::InvalidConfig`] before any computation
    /// runs; on any error the fleet is left unchanged.
    pub fn admit_all(
        &mut self,
        subs: impl IntoIterator<Item = (u64, QueryVector)>,
    ) -> IrResult<()> {
        let subs: Vec<(u64, QueryVector)> = subs.into_iter().collect();
        let mut ids = std::collections::BTreeSet::new();
        for (sub, _) in &subs {
            if self.entries.contains_key(sub) || !ids.insert(*sub) {
                return Err(IrError::InvalidConfig(format!(
                    "subscription {sub} is already admitted"
                )));
            }
        }
        // Every chunk is computed before any member is inserted, so a
        // failing chunk leaves the fleet as it was.
        let queries: Vec<QueryVector> = subs.iter().map(|(_, q)| q.clone()).collect();
        let mut reports = Vec::with_capacity(queries.len());
        for chunk in queries.chunks(self.config.max_batch) {
            reports.extend(self.engine.query_batch(chunk)?);
        }
        for ((sub, query), report) in subs.into_iter().zip(reports) {
            self.entries.insert(
                sub,
                FleetEntry {
                    anchor: query.clone(),
                    current: query,
                    result: report.current_result().to_vec(),
                    report,
                    last_applied_seq: None,
                    stale: false,
                    cache_hits: 0,
                    refreshes: 0,
                },
            );
        }
        Ok(())
    }

    /// Ingests a slice of drift events and returns one answer per event
    /// (plus any answers buffered by a previously failed flush), in event-
    /// sequence order.
    ///
    /// The in-region majority is answered locally; region exits queue a
    /// recompute job, flushed in event-order batches whenever
    /// [`FleetConfig::max_batch`] jobs accumulate and once more at the
    /// end. A malformed event — an unknown subscription id, a dimension
    /// the index does not hold, a shift that leaves no positive weight —
    /// is rejected with a typed error before it is counted or queued, so
    /// it changes nothing. On a storage fault during a flush the manager
    /// stays serviceable: untouched subscriptions keep serving,
    /// already-produced answers and still-pending jobs are retained, and a
    /// later [`SubscriptionManager::flush`] or `ingest` resumes where the
    /// failure struck.
    pub fn ingest(&mut self, events: &[DriftEvent]) -> IrResult<Vec<FleetAnswer>> {
        for event in events {
            self.step(event.sub, |current| {
                current.with_weight_shift(event.dim, event.delta)
            })?;
        }
        self.flush()
    }

    /// Moves member `sub` to the absolute weights `weights` as one drift
    /// event and returns the answers [`SubscriptionManager::ingest`] would.
    /// Malformed weights change nothing (see `step`).
    pub(crate) fn retarget(
        &mut self,
        sub: u64,
        weights: &QueryVector,
    ) -> IrResult<Vec<FleetAnswer>> {
        self.step(sub, |_| Ok(weights.clone()))?;
        self.flush()
    }

    /// One drift event: moves member `sub`'s current weights to
    /// `to(current)`, then answers locally through the stale-aware gate or
    /// queues a drift recompute, flushing once a full batch is pending.
    ///
    /// The new weights are checked before the event takes a sequence
    /// number, is counted or queues a job: a job the engine must reject
    /// would stay pending and fail every later flush. A drift keeps `k`,
    /// so only the dimensions are checked then; a retarget that changes
    /// `k` is checked against the cardinality too.
    fn step(
        &mut self,
        sub: u64,
        to: impl FnOnce(&QueryVector) -> IrResult<QueryVector>,
    ) -> IrResult<()> {
        let entry = self.entries.get_mut(&sub).ok_or_else(|| {
            IrError::InvalidConfig(format!("drift event targets unknown subscription {sub}"))
        })?;
        let weights = to(&entry.current)?;
        if weights.k() == entry.current.k() {
            weights.validate_against(self.engine.index().dimensionality())?;
        } else {
            self.engine.validate(&weights)?;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.events += 1;
        entry.current = weights;

        if entry.is_immutable_under(&entry.current) {
            entry.cache_hits += 1;
            self.stats.local_answers += 1;
            self.ready.push(FleetAnswer {
                seq,
                sub,
                kind: AnswerKind::Local,
                result: entry.result.clone(),
                evaluated_candidates: 0,
            });
        } else {
            self.pending.push(PendingJob {
                seq,
                sub,
                weights: entry.current.clone(),
                kind: JobKind::Drift,
            });
            if self.pending.len() >= self.config.max_batch {
                self.flush_pending()?;
            }
        }
        Ok(())
    }

    /// Flushes all pending recompute jobs and returns the answers they
    /// produce (plus any answers buffered by a previously failed flush).
    pub fn flush(&mut self) -> IrResult<Vec<FleetAnswer>> {
        self.flush_pending()?;
        Ok(self.drain_ready())
    }

    /// Applies a batch of tuple updates to the shared index and brings
    /// every member's cached region report back in line with the mutated
    /// data (see [`SubscriptionManager::revalidate`]).
    ///
    /// Returns one [`AppliedUpdate`] per input. When other managers share
    /// this engine, forward the returned slice to their `revalidate` — the
    /// index is shared, their caches are not.
    pub fn apply_updates(&mut self, updates: &[TupleUpdate]) -> IrResult<Vec<AppliedUpdate>> {
        let applied = self.engine.apply_updates(updates)?;
        self.stats.updates_applied += applied.len() as u64;
        self.revalidate(&applied)?;
        Ok(applied)
    }

    /// Re-validates every member's cached report against updates already
    /// applied to the shared index (by this manager's
    /// [`SubscriptionManager::apply_updates`] or by a peer holding the
    /// same engine).
    ///
    /// Each member is screened with the kinetic line test
    /// ([`ir_core::batch_impact`]): survivors keep serving locally,
    /// punctured members are marked stale and re-anchored at their current
    /// weights through an invalidation job, flushed synchronously before
    /// this method returns. Screening that cannot complete (a device fault
    /// mid-fetch) conservatively punctures — survival must be proven.
    /// Survival and puncture counts land in [`FleetStats`].
    ///
    /// On a failed flush the punctured members stay stale — they answer
    /// every drift event by recompute, never from the stale cache — and
    /// their invalidation jobs stay pending for the next flush or ingest.
    pub fn revalidate(&mut self, applied: &[AppliedUpdate]) -> IrResult<()> {
        if applied.is_empty() || self.entries.is_empty() {
            return Ok(());
        }
        let index = self.engine.index();
        let mut survived = 0u64;
        let mut punctured: Vec<(u64, QueryVector)> = Vec::new();
        for (&sub, entry) in self.entries.iter_mut() {
            // An unscreenable member is an unproven one: puncture.
            let survives = batch_impact(&entry.anchor, &entry.report, applied, |id| {
                index.fetch_tuple(id)
            })
            .is_ok_and(|impact| impact.survived());
            if survives {
                survived += 1;
            } else {
                entry.stale = true;
                punctured.push((sub, entry.current.clone()));
            }
        }
        self.stats.regions_survived += survived;
        self.stats.regions_punctured += punctured.len() as u64;
        for (sub, weights) in punctured {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.pending.push(PendingJob {
                seq,
                sub,
                weights,
                kind: JobKind::Invalidation,
            });
        }
        self.flush_pending()
    }

    fn drain_ready(&mut self) -> Vec<FleetAnswer> {
        let mut answers = std::mem::take(&mut self.ready);
        answers.sort_by_key(|a| a.seq);
        answers
    }

    /// Runs every pending job through the engine in event-order batches.
    /// On a batch failure the failed chunk and everything after it stay
    /// pending; chunks that already succeeded stay applied (their answers
    /// are buffered in `ready`).
    fn flush_pending(&mut self) -> IrResult<()> {
        // Jobs are pushed in sequence order, so each chunk is applied in
        // event order and a subscription hit twice is left anchored at its
        // latest weights.
        while !self.pending.is_empty() {
            let n = self.config.max_batch.min(self.pending.len());
            let queries: Vec<QueryVector> = self.pending[..n]
                .iter()
                .map(|job| job.weights.clone())
                .collect();
            let reports = self.engine.query_batch(&queries)?;

            self.stats.batches += 1;
            self.stats.largest_batch = self.stats.largest_batch.max(reports.len() as u64);
            let chunk: Vec<PendingJob> = self.pending.drain(..n).collect();
            for (job, report) in chunk.into_iter().zip(reports) {
                let entry = self
                    .entries
                    .get_mut(&job.sub)
                    .expect("pending job targets a live subscription");
                let result = report.current_result().to_vec();
                let cost = report.stats.evaluated_candidates;
                if job.kind == JobKind::Drift {
                    entry.refreshes += 1;
                    self.stats.recomputes += 1;
                }
                if entry.last_applied_seq.map_or(true, |last| job.seq > last) {
                    entry.anchor = job.weights;
                    entry.result = result.clone();
                    entry.report = report;
                    entry.last_applied_seq = Some(job.seq);
                    // The report was computed just now, against the current
                    // (post-mutation) index: the entry is fresh again.
                    entry.stale = false;
                }
                if job.kind == JobKind::Drift {
                    self.ready.push(FleetAnswer {
                        seq: job.seq,
                        sub: job.sub,
                        kind: AnswerKind::Recomputed,
                        evaluated_candidates: cost,
                        result,
                    });
                }
            }
        }
        Ok(())
    }
}

/// A subscribed query — the paper's interactive weight-tuning loop — served
/// as a fleet of one: a one-member [`SubscriptionManager`], so it shares the
/// fleet's state machine, its stale gate and its [`FleetStats`].
///
/// [`Subscription::update`] answers from the cached regions while the
/// weights stay inside the anchor's immutable region and recomputes (and
/// re-anchors) once they leave it. [`Subscription::absorb_updates`]
/// screens applied tuple updates and re-anchors a punctured report. A
/// recompute that fails stays queued and the next call retries it; while
/// a punctured report waits for its re-anchoring the member is stale and
/// never answers from the pre-mutation cache.
#[derive(Debug)]
pub struct Subscription {
    fleet: SubscriptionManager,
}

/// The id of a subscription's one member.
const SOLE: u64 = 0;

impl Subscription {
    /// Subscribes `query`: computes its result and regions once.
    pub fn new(engine: &IrEngine, query: QueryVector) -> IrResult<Self> {
        let mut fleet = SubscriptionManager::new(engine, FleetConfig::default())?;
        fleet.admit(SOLE, query)?;
        Ok(Subscription { fleet })
    }

    /// The subscription's state: anchor, current weights, cached result and
    /// report, staleness and per-member counters.
    pub fn member(&self) -> FleetMember<'_> {
        self.fleet
            .member(SOLE)
            .expect("a subscription holds its one member")
    }

    /// Cumulative serving statistics (local answers, drift recomputes,
    /// regions survived and punctured by update batches).
    pub fn stats(&self) -> FleetStats {
        self.fleet.stats()
    }

    /// See [`FleetMember::is_immutable_under`].
    pub fn is_immutable_under(&self, new_weights: &QueryVector) -> bool {
        self.member().is_immutable_under(new_weights)
    }

    /// Drives the subscription to `new_weights`: `Ok(false)` when the
    /// answer came from the cached regions, `Ok(true)` when it took a
    /// recompute, which re-anchors the subscription at `new_weights`.
    pub fn update(&mut self, new_weights: &QueryVector) -> IrResult<bool> {
        let answers = self.fleet.retarget(SOLE, new_weights)?;
        // Answers come back in event order: the last one is this update's.
        Ok(answers
            .last()
            .is_some_and(|answer| answer.kind == AnswerKind::Recomputed))
    }

    /// Maintains the subscription across a batch of applied data updates
    /// (the return value of [`IrEngine::apply_updates`]) — the fleet's
    /// [`SubscriptionManager::revalidate`]. Returns `Ok(true)` when an
    /// update punctured the cached report and it was re-anchored.
    ///
    /// Survival is a proof: when this returns `Ok(false)` the cached report
    /// is byte-identical to a full recompute on the mutated dataset.
    pub fn absorb_updates(&mut self, applied: &[AppliedUpdate]) -> IrResult<bool> {
        let punctured = self.fleet.stats().regions_punctured;
        self.fleet.revalidate(applied)?;
        Ok(self.fleet.stats().regions_punctured > punctured)
    }
}

/// Is the result anchored at `anchor` (with cached `report`) guaranteed
/// unchanged under `new_weights`? See [`FleetMember::is_immutable_under`].
///
/// Allocation-free: the two sparse weight vectors are merge-walked in one
/// pass over their sorted entry slices — this runs once per drift event
/// across a fleet of millions, so it must not touch the heap.
fn immutable_under(anchor: &QueryVector, report: &RegionReport, new_weights: &QueryVector) -> bool {
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

#[cfg(test)]
mod tests {
    use super::*;
    use ir_datagen::{DriftConfig, DriftStream};
    use ir_types::{Dataset, DatasetBuilder};

    fn dataset() -> Dataset {
        let mut builder = DatasetBuilder::new(5);
        for i in 0..160u32 {
            let pairs: Vec<(u32, f64)> = (0..5u32)
                .map(|d| (d, (((i * 31 + d * 17) % 97) + 1) as f64 / 98.0))
                .collect();
            builder.push_pairs(pairs).unwrap();
        }
        builder.build()
    }

    fn fleet_queries(n: usize, k: usize) -> Vec<(u64, QueryVector)> {
        (0..n as u32)
            .map(|i| {
                let q = QueryVector::new(
                    [
                        (i % 5, 0.2 + 0.1 * (i % 4) as f64),
                        ((i + 1) % 5, 0.9 - 0.1 * (i % 3) as f64),
                        ((i + 2) % 5, 0.5),
                    ],
                    k,
                )
                .unwrap();
                (i as u64, q)
            })
            .collect()
    }

    fn engine() -> IrEngine {
        IrEngine::builder().dataset_ref(&dataset()).build().unwrap()
    }

    fn running_example_engine() -> IrEngine {
        IrEngine::builder()
            .dataset(Dataset::running_example())
            .build()
            .unwrap()
    }

    #[test]
    fn subscription_serves_drift_inside_region_from_cache() {
        let engine = running_example_engine();
        let query = QueryVector::running_example();
        let mut subscription = Subscription::new(&engine, query.clone()).unwrap();
        assert_eq!(
            subscription.member().result(),
            [TupleId(1), TupleId(0)],
            "running example top-2"
        );

        // Inside IR_1 = (-16/35, 0.1): cache hit, no recompute.
        let inside = query.with_weight_shift(DimId(0), 0.05).unwrap();
        assert!(subscription.is_immutable_under(&inside));
        assert!(!subscription.update(&inside).unwrap());
        assert_eq!(subscription.member().cache_hits(), 1);
        assert_eq!(subscription.member().refreshes(), 0);

        // Past the upper boundary at +0.1: recompute and re-anchor.
        let outside = query.with_weight_shift(DimId(0), 0.15).unwrap();
        assert!(!subscription.is_immutable_under(&outside));
        assert!(subscription.update(&outside).unwrap());
        assert_eq!(subscription.member().refreshes(), 1);
        assert_eq!(
            subscription.member().result(),
            [TupleId(0), TupleId(1)],
            "crossing +0.1 swaps d1 and d2"
        );
        assert!((subscription.member().anchor().weight(DimId(0)) - 0.95).abs() < 1e-12);
        let stats = subscription.stats();
        assert_eq!(
            (stats.events, stats.local_answers, stats.recomputes),
            (2, 1, 1)
        );
        // A k the index cannot serve is rejected and changes nothing.
        let too_deep = outside.with_k(100).unwrap();
        assert!(matches!(
            subscription.update(&too_deep),
            Err(IrError::InvalidK { .. })
        ));
        assert_eq!(subscription.stats(), stats);
        assert_eq!(subscription.member().current(), &outside);
    }

    #[test]
    fn multi_dimension_drift_is_conservative() {
        let engine = running_example_engine();
        let query = QueryVector::running_example();
        let subscription = Subscription::new(&engine, query.clone()).unwrap();
        // Both weights move a hair — per-dimension regions don't compose,
        // so the subscription must not claim immutability.
        let both = QueryVector::new([(0, 0.81), (1, 0.51)], 2).unwrap();
        assert!(!subscription.is_immutable_under(&both));
        // A changed k is never immutable either.
        let other_k = query.with_k(1).unwrap();
        assert!(!subscription.is_immutable_under(&other_k));
    }

    #[test]
    fn subscription_absorbs_surviving_updates_without_recompute() {
        let engine = running_example_engine();
        let mut subscription = Subscription::new(&engine, QueryVector::running_example()).unwrap();

        // A low-scoring insert cannot threaten the top-2: no recompute, and
        // the cached report must equal a recompute on the mutated data.
        let applied = engine
            .apply_updates(&[TupleUpdate::Insert {
                vector: ir_types::SparseVector::from_pairs([(0, 0.05), (1, 0.05)]).unwrap(),
            }])
            .unwrap();
        assert!(!subscription.absorb_updates(&applied).unwrap());
        assert_eq!(subscription.stats().regions_survived, 1);
        assert_eq!(subscription.stats().regions_punctured, 0);
        let oracle = engine.query(&QueryVector::running_example()).unwrap();
        assert_eq!(subscription.member().report().dims, oracle.dims);

        // Deleting a result member must puncture and re-anchor. The
        // invalidation is maintenance: it shows in `regions_punctured`,
        // not in the drift-recompute counters.
        let applied = engine
            .apply_updates(&[TupleUpdate::Delete { tuple: TupleId(1) }])
            .unwrap();
        assert!(subscription.absorb_updates(&applied).unwrap());
        assert_eq!(subscription.stats().regions_punctured, 1);
        assert_eq!(subscription.stats().recomputes, 0);
        assert_eq!(subscription.member().refreshes(), 0);
        let oracle = engine.query(&QueryVector::running_example()).unwrap();
        assert_eq!(subscription.member().report().dims, oracle.dims);
        assert_eq!(subscription.member().result(), oracle.current_result());
        assert_eq!(engine.maintenance_stats().updates_applied, 2);
    }

    #[test]
    fn a_subscription_never_serves_a_pre_mutation_cache() {
        // A puncturing update whose re-anchoring recompute dies at the
        // device must leave the subscription stale: until a recompute
        // lands, no update may be answered from the cached report, which
        // still holds the deleted tuple.
        let dir = tempfile::tempdir().unwrap();
        let engine = IrEngine::builder()
            .dataset_ref(&dataset())
            .backend(crate::storage::StorageBackend::Disk(
                dir.path().to_path_buf(),
            ))
            .pool_capacity(4)
            .fault_plan(crate::storage::FaultPlan::device_outage(0, None))
            .build()
            .unwrap();
        let injector = engine.index().fault_injector().unwrap();
        injector.disarm();
        let (_, query) = fleet_queries(1, 4).pop().unwrap();
        let mut subscription = Subscription::new(&engine, query).unwrap();
        let anchor = subscription.member().anchor().clone();

        // A weight shift strictly inside the first dimension's region.
        let regions = &subscription.member().report().dims[0];
        let delta = if regions.immutable.hi > 0.0 {
            regions.immutable.hi.min(0.1) / 2.0
        } else {
            regions.immutable.lo.max(-0.1) / 2.0
        };
        assert!(delta != 0.0);
        let inside = anchor.with_weight_shift(regions.dim, delta).unwrap();
        assert!(subscription.is_immutable_under(&inside));

        let victim = subscription.member().result()[0];
        let applied = engine.delete(victim).unwrap();
        injector.arm();
        engine.cold_start();
        assert!(subscription
            .absorb_updates(std::slice::from_ref(&applied))
            .is_err());

        // The cache predates the delete: nothing may be served from it.
        assert!(!subscription.is_immutable_under(&anchor));
        assert!(!subscription.is_immutable_under(&inside));
        assert!(!matches!(subscription.update(&inside), Ok(false)));

        // Heal: the next update recomputes on the mutated index.
        injector.disarm();
        assert!(subscription.update(&inside).unwrap());
        let fresh = engine.query(&inside).unwrap();
        assert_eq!(subscription.member().result(), fresh.current_result());
        assert!(!subscription.member().result().contains(&victim));
        assert!(!subscription.member().is_stale());
    }

    #[test]
    fn fleet_serves_a_drift_stream_end_to_end() {
        let engine = engine();
        let mut manager = SubscriptionManager::new(&engine, FleetConfig { max_batch: 4 }).unwrap();
        let fleet = fleet_queries(8, 4);
        manager.admit_all(fleet.clone()).unwrap();
        assert_eq!(manager.len(), 8);

        let stream = DriftStream::generate(&fleet, &DriftConfig::default(), 42).unwrap();
        let events = &stream.events()[..200];
        let answers = manager.ingest(events).unwrap();

        assert_eq!(answers.len(), events.len());
        for (i, answer) in answers.iter().enumerate() {
            assert_eq!(answer.seq, i as u64, "answers come back in event order");
            assert_eq!(answer.sub, events[i].sub);
            assert!(!answer.result.is_empty());
        }

        let stats = manager.stats();
        assert_eq!(stats.events, events.len() as u64);
        assert_eq!(
            stats.local_answers + stats.recomputes,
            stats.events,
            "every event is answered exactly once"
        );
        assert!(
            stats.local_answers > stats.recomputes,
            "the in-region majority must be served locally: {stats:?}"
        );
        assert!(stats.batches > 0);
        assert!(stats.largest_batch <= manager.config().max_batch as u64);
        assert_eq!(manager.pending_recomputes(), 0);

        // Per-member accounting sums to the fleet totals.
        let hits: u64 = manager.members().map(|m| m.cache_hits()).sum();
        let refreshes: u64 = manager.members().map(|m| m.refreshes()).sum();
        assert_eq!(hits, stats.local_answers);
        assert_eq!(refreshes, stats.recomputes);
    }

    #[test]
    fn serving_trace_is_deterministic() {
        let fleet = fleet_queries(6, 4);
        let stream = DriftStream::generate(&fleet, &DriftConfig::default(), 7).unwrap();
        let run = || {
            let engine = engine();
            let mut manager = SubscriptionManager::new(&engine, FleetConfig::default()).unwrap();
            manager.admit_all(fleet.clone()).unwrap();
            manager.ingest(&stream.events()[..150]).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn bad_fleet_configuration_is_a_typed_policy_error() {
        let engine = engine();
        assert!(matches!(
            SubscriptionManager::new(&engine, FleetConfig { max_batch: 0 }),
            Err(IrError::InvalidConfig(_))
        ));

        let mut manager = SubscriptionManager::new(&engine, FleetConfig::default()).unwrap();
        let fleet = fleet_queries(2, 4);
        manager.admit_all(fleet.clone()).unwrap();
        assert!(matches!(
            manager.admit(0, fleet[0].1.clone()),
            Err(IrError::InvalidConfig(_))
        ));
        assert!(matches!(
            manager.ingest(&[DriftEvent {
                sub: 999,
                dim: ir_types::DimId(0),
                delta: 0.01,
            }]),
            Err(IrError::InvalidConfig(_))
        ));
        // The failure left the fleet serviceable.
        assert_eq!(manager.len(), 2);
        let answers = manager
            .ingest(&[DriftEvent {
                sub: 0,
                dim: fleet[0].1.dims().next().unwrap().0,
                delta: 0.001,
            }])
            .unwrap();
        assert_eq!(answers.len(), 1);
    }

    #[test]
    fn updates_screen_the_fleet_and_recompute_only_punctured_members() {
        let engine = engine();
        let mut manager = SubscriptionManager::new(&engine, FleetConfig::default()).unwrap();
        let fleet = fleet_queries(6, 4);
        manager.admit_all(fleet.clone()).unwrap();

        // An insert far below every k-th line survives every member: no
        // invalidation, no recompute, every cache kept.
        let low = TupleUpdate::Insert {
            vector: ir_types::SparseVector::from_pairs((0..5u32).map(|d| (d, 0.001))).unwrap(),
        };
        let applied = manager.apply_updates(&[low]).unwrap();
        assert_eq!(applied.len(), 1);
        let stats = manager.stats();
        assert_eq!(stats.updates_applied, 1);
        assert_eq!(stats.regions_survived, 6);
        assert_eq!(stats.regions_punctured, 0);
        assert_eq!(stats.recomputes, 0);
        assert_eq!(manager.pending_recomputes(), 0);
        assert!(manager.members().all(|m| !m.is_stale()));

        // Deleting the head of member 0's result punctures every member
        // holding it; the punctured are re-anchored synchronously.
        let victim = manager.member(0).unwrap().result()[0];
        manager
            .apply_updates(&[TupleUpdate::Delete { tuple: victim }])
            .unwrap();
        let stats = manager.stats();
        assert_eq!(stats.updates_applied, 2);
        assert!(stats.regions_punctured >= 1);
        assert_eq!(stats.regions_survived + stats.regions_punctured, 12);
        assert_eq!(
            stats.recomputes, 0,
            "invalidation recomputes are maintenance, not event answers"
        );
        assert_eq!(manager.pending_recomputes(), 0);
        assert!(manager.members().all(|m| !m.is_stale()));
        assert!(
            manager.flush().unwrap().is_empty(),
            "invalidation jobs must not emit answers"
        );

        // Every cached report — survivor or re-anchored — is byte-identical
        // to a fresh recompute on the mutated data, and the deleted tuple
        // is gone from every result.
        for member in manager.members() {
            let fresh = engine.query(member.current()).unwrap();
            assert_eq!(member.report().dims, fresh.dims);
            assert_eq!(member.result(), fresh.current_result());
            assert!(!member.result().contains(&victim));
        }
    }

    #[test]
    fn an_invalidation_arriving_during_a_failed_flush_is_not_double_applied() {
        // The satellite scenario: a drift recompute dies at the device and
        // its job is re-queued; an update batch then punctures the same
        // member and enqueues an invalidation job; the drain applies both.
        // The `last_applied_seq` guard must leave the entry anchored by the
        // newest job, and the invalidation must add neither a second answer
        // nor a second recompute for the one drift event.
        let dir = tempfile::tempdir().unwrap();
        let engine = IrEngine::builder()
            .dataset_ref(&dataset())
            .backend(crate::storage::StorageBackend::Disk(
                dir.path().to_path_buf(),
            ))
            .pool_capacity(4)
            .fault_plan(crate::storage::FaultPlan::device_outage(0, None))
            .build()
            .unwrap();
        let injector = engine.index().fault_injector().unwrap();
        injector.disarm();
        let mut manager = SubscriptionManager::new(&engine, FleetConfig { max_batch: 2 }).unwrap();
        let fleet = fleet_queries(4, 4);
        manager.admit_all(fleet.clone()).unwrap();

        // One warm in-region event on dim 0; the follow-up event on dim 1
        // leaves the current weights deviating from the anchor in two
        // dimensions — per-dimension regions certify nothing there, so a
        // recompute is forced, and it dies at the armed device: the job
        // survives the failed flush in the pending queue.
        let warm = manager
            .ingest(&[DriftEvent {
                sub: 0,
                dim: ir_types::DimId(0),
                delta: 0.01,
            }])
            .unwrap();
        assert_eq!(warm.len(), 1);
        assert_eq!(warm[0].kind, AnswerKind::Local);
        injector.arm();
        engine.cold_start();
        let event = DriftEvent {
            sub: 0,
            dim: ir_types::DimId(1),
            delta: 0.01,
        };
        let outcome = manager.ingest(&[event]);
        assert!(
            matches!(outcome, Err(IrError::Storage(_))),
            "expected the recompute to die at the device, got {outcome:?}"
        );
        assert_eq!(manager.pending_recomputes(), 1);

        // Device heals; the update punctures member 0 while its drift job
        // is still pending. The synchronous flush drains both jobs.
        injector.disarm();
        let victim = manager.member(0).unwrap().result()[0];
        manager
            .apply_updates(&[TupleUpdate::Delete { tuple: victim }])
            .unwrap();
        assert_eq!(manager.pending_recomputes(), 0);

        let stats = manager.stats();
        assert_eq!(stats.events, 2);
        assert_eq!(stats.local_answers, 1);
        assert!(stats.regions_punctured >= 1);
        assert_eq!(
            stats.recomputes, 1,
            "one exiting drift event, one recompute — the invalidation must not double-count"
        );
        assert_eq!(manager.member(0).unwrap().refreshes(), 1);

        // Exactly one answer drains — the drift event's — and it reflects
        // the mutated data at the drifted weights.
        let answers = manager.flush().unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].seq, 1);
        assert_eq!(answers[0].kind, AnswerKind::Recomputed);
        assert!(!answers[0].result.contains(&victim));

        // The entry is anchored at its newest weights with a fresh report:
        // every member matches a full recompute on the mutated index.
        let m0 = manager.member(0).unwrap();
        assert_eq!(m0.anchor(), m0.current());
        assert!(!m0.is_stale());
        assert_eq!(answers[0].result, m0.result());
        for member in manager.members() {
            let fresh = engine.query(member.current()).unwrap();
            assert_eq!(member.report().dims, fresh.dims);
            assert_eq!(member.result(), fresh.current_result());
        }
    }

    #[test]
    fn a_stale_member_answers_by_recompute_until_revalidation_lands() {
        // A peer manager shares the engine but not the caches: the index
        // is mutated externally, screening runs on a dead device (every
        // member conservatively punctures), the synchronous flush fails —
        // and until the invalidations land, even a zero-drift event on a
        // stale member must be answered by recompute, never from the
        // pre-mutation cache.
        let dir = tempfile::tempdir().unwrap();
        let engine = IrEngine::builder()
            .dataset_ref(&dataset())
            .backend(crate::storage::StorageBackend::Disk(
                dir.path().to_path_buf(),
            ))
            .pool_capacity(4)
            .fault_plan(crate::storage::FaultPlan::device_outage(0, None))
            .build()
            .unwrap();
        let injector = engine.index().fault_injector().unwrap();
        injector.disarm();
        let mut manager = SubscriptionManager::new(&engine, FleetConfig::default()).unwrap();
        let fleet = fleet_queries(3, 4);
        manager.admit_all(fleet.clone()).unwrap();

        // Mutate the shared index directly (a peer's apply_updates would
        // look the same from here): a non-member tuple changes on dim 2, a
        // query dimension of every member, so screening needs fetches.
        let members: std::collections::BTreeSet<TupleId> = manager
            .members()
            .flat_map(|m| m.result().to_vec())
            .collect();
        let outsider = (0..160u32)
            .map(TupleId)
            .find(|id| !members.contains(id))
            .unwrap();
        let applied = engine
            .apply_updates(&[TupleUpdate::UpdateScore {
                tuple: outsider,
                dim: ir_types::DimId(2),
                value: 0.001,
            }])
            .unwrap();

        // Screening on a dead device cannot prove survival: every member
        // is conservatively punctured and stale; the flush fails.
        injector.arm();
        engine.cold_start();
        assert!(matches!(
            manager.revalidate(&applied),
            Err(IrError::Storage(_))
        ));
        assert_eq!(manager.stats().regions_punctured, 3);
        assert_eq!(manager.pending_recomputes(), 3);
        assert!(manager.members().all(|m| m.is_stale()));

        // A zero-drift event is inside the cached region, but the stale
        // gate forbids the local answer; its recompute also dies.
        let dim = fleet[0].1.dims().next().unwrap().0;
        assert!(matches!(
            manager.ingest(&[DriftEvent {
                sub: 0,
                dim,
                delta: 0.0
            }]),
            Err(IrError::Storage(_))
        ));
        assert_eq!(manager.stats().events, 1);
        assert_eq!(manager.stats().local_answers, 0);

        // Heal: the drain serves the deferred event by recompute (the
        // three invalidations emit nothing) and freshens every cache.
        injector.disarm();
        let answers = manager.flush().unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].kind, AnswerKind::Recomputed);
        assert!(manager.members().all(|m| !m.is_stale()));
        for member in manager.members() {
            let fresh = engine.query(member.current()).unwrap();
            assert_eq!(member.report().dims, fresh.dims);
            assert_eq!(member.result(), fresh.current_result());
        }

        // Freshness restored: the same zero-drift event now serves locally.
        let again = manager
            .ingest(&[DriftEvent {
                sub: 0,
                dim,
                delta: 0.0,
            }])
            .unwrap();
        assert_eq!(again.len(), 1);
        assert_eq!(again[0].kind, AnswerKind::Local);
        let stats = manager.stats();
        assert_eq!(stats.local_answers + stats.recomputes, stats.events);
    }
}
