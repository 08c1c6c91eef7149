//! [`ShardedEngine`]: the coordinator and its deterministic merge.
//!
//! A sharded engine stages one snapshot, brings up N [`ShardNode`]s over
//! it (each with its own page store), and serves query batches by fanning
//! work units out as [`SolveDim`] messages through the [`SimNetwork`] and
//! merging the [`PartialRegion`]s that come back.
//!
//! # The determinism contract
//!
//! The merged output is **byte-identical to the single-engine oracle** at
//! every shard count, delivery order and churn schedule:
//!
//! * under [`PartitionMode::ByQuery`] each node runs the plain sequential
//!   solve, so every report equals `IrEngine::query`'s — regions *and*
//!   deterministic stats;
//! * under [`PartitionMode::ByDim`] each dimension is solved from a frozen
//!   TA snapshot (`ir_core::parallel::solve_dim_from_snapshot`) — the same
//!   primitive `compute_parallel` fans out over threads, so the regions
//!   equal the sequential oracle's and the stats equal
//!   `compute_parallel`'s, assembled in the same fixed order.
//!
//! The merge itself is fixed by **(query id, dimension index)** — a
//! `BTreeMap` keyed by that pair — never by completion or delivery order,
//! which is what makes seeded reordering, drops-with-retry and mid-batch
//! churn all invisible in the output.
//!
//! # Liveness
//!
//! Dropped messages surface as unanswered units when the event schedule
//! drains; the coordinator re-requests them, escalating the transport to
//! reliable delivery after [`LOSSY_RETRY_ROUNDS`] rounds, so every run
//! terminates with either a complete answer or a typed error — and the
//! message counters always conserve.

use crate::churn::{ChurnPlan, ChurnReport};
use crate::message::{
    Address, MergeRequest, Message, PartialPayload, PartialRegion, ShardId, ShardMap, SolveDim,
};
use crate::network::{NetworkConfig, NetworkStats, SimNetwork};
use crate::node::ShardNode;
use crate::topology::{ClusterTopology, PartitionMode};
use immutable_regions::engine::{EngineError, EngineHealthSnapshot, IrEngine};
use ir_core::{ComputationStats, RegionConfig, RegionReport};
use ir_storage::{snapshot, BackendKind, IoStatsSnapshot, SnapshotPeek};
use ir_types::{Dataset, IrError, QueryVector};
use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

/// Retry rounds served over the lossy transport before the coordinator
/// escalates to reliable delivery.
pub const LOSSY_RETRY_ROUNDS: u64 = 3;

/// Hard cap on retry rounds; exceeding it is a typed
/// [`ClusterError::Undeliverable`] rather than a hang.
pub const MAX_RETRY_ROUNDS: u64 = 8;

/// Errors of the cluster layer.
#[derive(Debug)]
pub enum ClusterError {
    /// The builder was misconfigured (zero shards, churn plan naming a
    /// shard that does not exist, killing the only shard with no respawn).
    Config(String),
    /// Building or snapshotting the staging engine failed.
    Engine(EngineError),
    /// Validating the staged snapshot failed before any node came up.
    Snapshot(IrError),
    /// One shard node failed to come up from the snapshot.
    BringUp {
        /// The shard slot.
        shard: u32,
        /// The underlying engine error.
        source: EngineError,
    },
    /// A shard node failed to solve a work unit.
    Solve {
        /// The shard slot.
        shard: u32,
        /// The underlying engine error.
        source: EngineError,
    },
    /// Work units stayed unanswered past [`MAX_RETRY_ROUNDS`].
    Undeliverable {
        /// Units still missing.
        pending_units: u64,
        /// Retry rounds spent.
        rounds: u64,
    },
    /// A message violated the protocol (unknown unit, query out of range).
    Protocol(String),
    /// A cross-node consistency check failed (diverging TA snapshots,
    /// unconserved counters) — the "this should never happen" class.
    Inconsistent(String),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Config(msg) => write!(f, "invalid cluster configuration: {msg}"),
            ClusterError::Engine(err) => write!(f, "staging engine: {err}"),
            ClusterError::Snapshot(err) => write!(f, "staged snapshot rejected: {err}"),
            ClusterError::BringUp { shard, source } => {
                write!(f, "bringing up shard-{shard}: {source}")
            }
            ClusterError::Solve { shard, source } => write!(f, "shard-{shard} solve: {source}"),
            ClusterError::Undeliverable {
                pending_units,
                rounds,
            } => write!(
                f,
                "{pending_units} work units undelivered after {rounds} retry rounds"
            ),
            ClusterError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            ClusterError::Inconsistent(msg) => write!(f, "consistency check failed: {msg}"),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Engine(err)
            | ClusterError::BringUp { source: err, .. }
            | ClusterError::Solve { source: err, .. } => Some(err),
            ClusterError::Snapshot(err) => Some(err),
            _ => None,
        }
    }
}

impl From<EngineError> for ClusterError {
    fn from(err: EngineError) -> Self {
        ClusterError::Engine(err)
    }
}

/// Result alias of the cluster layer.
pub type ClusterResult<T> = Result<T, ClusterError>;

/// Where the shared snapshot lives.
enum SnapshotHome {
    /// Staged by the builder into a scratch directory (kept alive by the
    /// guard — nodes respawn from it for as long as the engine lives).
    Staged(tempfile::TempDir),
    /// A caller-provided snapshot directory.
    External(PathBuf),
}

impl SnapshotHome {
    fn path(&self) -> &std::path::Path {
        match self {
            SnapshotHome::Staged(dir) => dir.path(),
            SnapshotHome::External(dir) => dir.as_path(),
        }
    }
}

/// Builder for [`ShardedEngine`].
#[must_use = "a sharded-engine builder does nothing until `build` is called"]
pub struct ShardedEngineBuilder {
    dataset: Option<Dataset>,
    snapshot: Option<PathBuf>,
    shards: u32,
    partition: PartitionMode,
    backend: BackendKind,
    config: RegionConfig,
    network: NetworkConfig,
    churn: Option<ChurnPlan>,
}

impl Default for ShardedEngineBuilder {
    fn default() -> Self {
        ShardedEngineBuilder {
            dataset: None,
            snapshot: None,
            shards: 1,
            partition: PartitionMode::ByDim,
            backend: BackendKind::Mem,
            config: RegionConfig::default(),
            network: NetworkConfig::default(),
            churn: None,
        }
    }
}

impl ShardedEngineBuilder {
    /// Stage a snapshot from this dataset (built once, in memory, then
    /// saved; every node opens the saved snapshot).
    pub fn dataset(mut self, dataset: Dataset) -> Self {
        self.dataset = Some(dataset);
        self
    }

    /// Serve an existing snapshot directory instead of staging one.
    pub fn snapshot(mut self, dir: impl Into<PathBuf>) -> Self {
        self.snapshot = Some(dir.into());
        self
    }

    /// Number of shard nodes (≥ 1).
    pub fn shards(mut self, shards: u32) -> Self {
        self.shards = shards;
        self
    }

    /// How work is partitioned across nodes.
    pub fn partition(mut self, partition: PartitionMode) -> Self {
        self.partition = partition;
        self
    }

    /// The page-store backend every node serves the snapshot through.
    pub fn backend_kind(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// The region configuration every node solves with.
    pub fn config(mut self, config: RegionConfig) -> Self {
        self.config = config;
        self
    }

    /// The simulated network (seeded delay/reordering/drop).
    pub fn network(mut self, network: NetworkConfig) -> Self {
        self.network = network;
        self
    }

    /// A churn schedule: kill a shard mid-batch and redistribute.
    pub fn churn(mut self, plan: ChurnPlan) -> Self {
        self.churn = Some(plan);
        self
    }

    /// Stages the snapshot (if a dataset was given), validates it, and
    /// brings up every shard node over it.
    pub fn build(self) -> ClusterResult<ShardedEngine> {
        if self.shards == 0 {
            return Err(ClusterError::Config(
                "a cluster needs at least one shard".to_string(),
            ));
        }
        if let Some(plan) = self.churn {
            if plan.kill_shard >= self.shards {
                return Err(ClusterError::Config(format!(
                    "churn plan kills shard {} but the cluster has {}",
                    plan.kill_shard, self.shards
                )));
            }
            if !plan.respawn && self.shards == 1 {
                return Err(ClusterError::Config(
                    "killing the only shard with no respawn leaves no survivors".to_string(),
                ));
            }
        }
        let home = match (self.dataset, self.snapshot) {
            (Some(_), Some(_)) => {
                return Err(ClusterError::Config(
                    "give a dataset or a snapshot directory, not both".to_string(),
                ))
            }
            (None, None) => {
                return Err(ClusterError::Config(
                    "a cluster needs a dataset or a snapshot directory".to_string(),
                ))
            }
            (None, Some(dir)) => SnapshotHome::External(dir),
            (Some(dataset), None) => {
                // Stage once: build in memory, save, and from here on every
                // node (initial or respawned) serves the same bytes.
                let staging = IrEngine::builder().dataset(dataset).build()?;
                let dir =
                    tempfile::tempdir().map_err(|e| ClusterError::Snapshot(IrError::Io(e)))?;
                staging.save_snapshot(dir.path())?;
                SnapshotHome::Staged(dir)
            }
        };
        // One preflight before N bring-ups: a bad snapshot fails here with
        // one typed error instead of once per node.
        let peek = snapshot::peek(home.path()).map_err(ClusterError::Snapshot)?;
        let nodes = (0..self.shards)
            .map(|slot| {
                ShardNode::bring_up(ShardId(slot), home.path(), self.backend, self.config).map(Some)
            })
            .collect::<ClusterResult<Vec<_>>>()?;
        Ok(ShardedEngine {
            nodes,
            partition: self.partition,
            backend: self.backend,
            config: self.config,
            network_config: self.network,
            churn: self.churn,
            home,
            peek,
            map_version: 0,
        })
    }
}

/// One work unit: a whole query ([`PartitionMode::ByQuery`]) or one
/// dimension of one query ([`PartitionMode::ByDim`]).
#[derive(Clone, Copy, Debug)]
struct Unit {
    query: usize,
    /// Position of the dimension within the query (`None` = whole query).
    dim_index: Option<usize>,
    /// The global dimension id driving `ByDim` list-sharded ownership.
    dim_id: u32,
}

/// Per-shard traffic totals of one [`ShardedEngine::run`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardTraffic {
    /// The shard slot.
    pub shard: u32,
    /// `false` for a node the churn schedule killed mid-run.
    pub alive: bool,
    /// [`SolveDim`] requests the node received.
    pub requests_received: u64,
    /// Work units the node solved (retries re-solve, so this can exceed
    /// the units it uniquely answered).
    pub solves: u64,
    /// [`PartialRegion`] messages the node sent.
    pub partials_sent: u64,
    /// Logical page reads the node's store served.
    pub logical_reads: u64,
    /// Physical page reads the node's store served.
    pub physical_reads: u64,
}

/// Everything one [`ShardedEngine::run`] did besides the reports.
#[derive(Clone, Debug, Default)]
pub struct ClusterRunStats {
    /// Work units the batch decomposed into.
    pub units: u64,
    /// Message-conservation counters of the simulated network.
    pub messages: NetworkStats,
    /// Partials that arrived for already-answered units.
    pub duplicate_partials: u64,
    /// Retry rounds the coordinator ran after drains with missing units.
    pub retry_rounds: u64,
    /// Requests re-sent by those rounds (and by churn redistribution).
    pub resent_requests: u64,
    /// What churn did, if the schedule fired.
    pub churn: Option<ChurnReport>,
    /// Per-shard traffic, shards ascending; a killed slot contributes a
    /// retired (`alive: false`) entry before its replacement's, so respawn
    /// runs list the slot twice.
    pub per_shard: Vec<ShardTraffic>,
}

impl ClusterRunStats {
    /// Verifies the conservation laws: every sent message delivered,
    /// dropped or discarded; every node's solves equal its partials.
    /// Returns the first violated law.
    pub fn conservation_violation(&self) -> Option<String> {
        if !self.messages.conserved(0) {
            return Some(format!(
                "messages not conserved: {:?} (nothing should remain in flight)",
                self.messages
            ));
        }
        for traffic in &self.per_shard {
            if traffic.solves != traffic.partials_sent {
                return Some(format!(
                    "shard-{} solved {} units but sent {} partials",
                    traffic.shard, traffic.solves, traffic.partials_sent
                ));
            }
        }
        None
    }
}

/// The finished batch: merged reports plus the run's bookkeeping.
#[derive(Clone, Debug)]
pub struct ClusterOutcome {
    /// One report per input query, in input order — byte-identical to the
    /// single-engine oracle's (see the [module docs](self)).
    pub reports: Vec<RegionReport>,
    /// Counters and conservation facts.
    pub stats: ClusterRunStats,
}

/// Mutable bookkeeping of one run (kept off `ShardedEngine` so borrows of
/// the nodes and the network stay disentangled).
struct RunState {
    units: Vec<Unit>,
    owners: Vec<ShardId>,
    answered: Vec<bool>,
    /// Arrived partials keyed by `(query, dim position)` — the fixed merge
    /// order. `ByQuery` payloads key at dim position 0.
    partials: BTreeMap<(usize, usize), PartialPayload>,
    units_per_query: Vec<usize>,
    answers_per_query: Vec<usize>,
    merge_sent: Vec<bool>,
    reports: Vec<Option<RegionReport>>,
    requests_received: Vec<u64>,
    duplicate_partials: u64,
    resent_requests: u64,
    retired: Vec<ShardTraffic>,
}

impl RunState {
    fn pending_units(&self) -> Vec<usize> {
        (0..self.units.len())
            .filter(|&u| !self.answered[u])
            .collect()
    }
}

/// A sharded serving engine over N snapshot-backed nodes and a simulated
/// network. See the [module docs](self) for the determinism contract.
pub struct ShardedEngine {
    nodes: Vec<Option<ShardNode>>,
    partition: PartitionMode,
    backend: BackendKind,
    config: RegionConfig,
    network_config: NetworkConfig,
    churn: Option<ChurnPlan>,
    home: SnapshotHome,
    peek: SnapshotPeek,
    map_version: u64,
}

impl ShardedEngine {
    /// Starts building a sharded engine.
    pub fn builder() -> ShardedEngineBuilder {
        ShardedEngineBuilder::default()
    }

    /// Shard slots (dead ones included).
    pub fn shards(&self) -> u32 {
        self.nodes.len() as u32
    }

    /// Live shard nodes.
    pub fn live_shards(&self) -> u32 {
        self.nodes.iter().flatten().count() as u32
    }

    /// The partition mode.
    pub fn partition(&self) -> PartitionMode {
        self.partition
    }

    /// The backend every node serves through.
    pub fn backend_kind(&self) -> BackendKind {
        self.backend
    }

    /// The topology stamp for `BENCH_*.json` metadata.
    pub fn topology(&self) -> ClusterTopology {
        ClusterTopology {
            shards: self.shards(),
            partition: self.partition,
            seed: self.network_config.seed,
        }
    }

    /// Layout facts of the staged snapshot (validated at build).
    pub fn snapshot_peek(&self) -> SnapshotPeek {
        self.peek
    }

    /// Health counters of every live node, shards ascending.
    pub fn shard_health(&self) -> Vec<(u32, EngineHealthSnapshot)> {
        self.nodes
            .iter()
            .flatten()
            .map(|node| (node.id().0, node.engine().health()))
            .collect()
    }

    /// Serves a batch: fans units out over the simulated network, merges
    /// the partials in (query, dim) order, retries losses, survives churn.
    pub fn run(&mut self, queries: &[QueryVector]) -> ClusterResult<ClusterOutcome> {
        let mut network = SimNetwork::new(self.network_config);
        let mut state = self.fan_out(queries, &mut network)?;
        let mut churn_pending = self.churn;
        let mut churn_report: Option<ChurnReport> = None;
        let mut deliveries = 0u64;
        let mut retry_rounds = 0u64;

        loop {
            while let Some(event) = network.deliver_next() {
                self.dispatch(event.payload, queries, &mut state, &mut network)?;
                deliveries += 1;
                if let Some(plan) = churn_pending {
                    if deliveries >= plan.after_deliveries {
                        churn_pending = None;
                        churn_report =
                            Some(self.fire_churn(plan, deliveries, &mut state, &mut network)?);
                    }
                }
            }
            let pending = state.pending_units();
            if pending.is_empty() {
                break;
            }
            retry_rounds += 1;
            if retry_rounds > MAX_RETRY_ROUNDS {
                return Err(ClusterError::Undeliverable {
                    pending_units: pending.len() as u64,
                    rounds: retry_rounds - 1,
                });
            }
            if retry_rounds >= LOSSY_RETRY_ROUNDS {
                network.escalate_reliable();
            }
            for unit in pending {
                self.send_solve(unit, &state, &mut network);
                state.resent_requests += 1;
            }
        }

        self.finish(state, network, retry_rounds, churn_report)
    }

    /// Builds the unit list and initial assignment, broadcasts the shard
    /// map and sends every solve request.
    fn fan_out(
        &mut self,
        queries: &[QueryVector],
        network: &mut SimNetwork,
    ) -> ClusterResult<RunState> {
        for node in self.nodes.iter_mut().flatten() {
            node.reset_batch();
        }
        let live: Vec<ShardId> = self.nodes.iter().flatten().map(|node| node.id()).collect();
        if live.is_empty() {
            return Err(ClusterError::Config(
                "every shard of this cluster is dead".to_string(),
            ));
        }
        let mut units = Vec::new();
        let mut units_per_query = vec![0usize; queries.len()];
        for (qi, query) in queries.iter().enumerate() {
            match self.partition {
                PartitionMode::ByQuery => {
                    units.push(Unit {
                        query: qi,
                        dim_index: None,
                        dim_id: 0,
                    });
                    units_per_query[qi] = 1;
                }
                PartitionMode::ByDim => {
                    for (pos, (dim, _)) in query.dims().enumerate() {
                        units.push(Unit {
                            query: qi,
                            dim_index: Some(pos),
                            dim_id: dim.0,
                        });
                    }
                    units_per_query[qi] = query.qlen();
                }
            }
        }
        let owners: Vec<ShardId> = units
            .iter()
            .enumerate()
            .map(|(u, unit)| match self.partition {
                // List sharding: the node owning inverted list `d` solves
                // every query dimension over `d`.
                PartitionMode::ByDim => live[unit.dim_id as usize % live.len()],
                PartitionMode::ByQuery => live[u % live.len()],
            })
            .collect();
        let state = RunState {
            answered: vec![false; units.len()],
            partials: BTreeMap::new(),
            answers_per_query: vec![0; queries.len()],
            merge_sent: vec![false; queries.len()],
            reports: vec![None; queries.len()],
            requests_received: vec![0; self.nodes.len()],
            duplicate_partials: 0,
            resent_requests: 0,
            retired: Vec::new(),
            units,
            owners,
            units_per_query,
        };
        self.broadcast_map(&state, network);
        for unit in 0..state.units.len() {
            self.send_solve(unit, &state, network);
        }
        Ok(state)
    }

    /// Broadcasts the current assignment to every live node.
    fn broadcast_map(&mut self, state: &RunState, network: &mut SimNetwork) {
        self.map_version += 1;
        let map = ShardMap {
            version: self.map_version,
            shards: self.shards(),
            partition: self.partition,
            owners: state.owners.clone(),
        };
        for node in self.nodes.iter().flatten() {
            network.send(
                Address::Coordinator,
                Address::Shard(node.id()),
                Message::ShardMap(map.clone()),
            );
        }
    }

    /// Sends the solve request for one unit to its current owner.
    fn send_solve(&self, unit: usize, state: &RunState, network: &mut SimNetwork) {
        let u = state.units[unit];
        network.send(
            Address::Coordinator,
            Address::Shard(state.owners[unit]),
            Message::SolveDim(SolveDim {
                unit,
                query: u.query,
                dim_index: u.dim_index,
                map_version: self.map_version,
            }),
        );
    }

    /// Handles one delivered event.
    fn dispatch(
        &mut self,
        envelope: crate::message::MessageEnvelope,
        queries: &[QueryVector],
        state: &mut RunState,
        network: &mut SimNetwork,
    ) -> ClusterResult<()> {
        match (envelope.to, envelope.message) {
            (Address::Shard(id), Message::ShardMap(map)) => {
                if let Some(node) = self.node_mut(id) {
                    node.install_map(map);
                }
            }
            (Address::Shard(id), Message::SolveDim(request)) => {
                state.requests_received[id.0 as usize] += 1;
                let Some(node) = self.node_mut(id) else {
                    // The owner died after this request was scheduled; the
                    // retry loop re-homes the unit.
                    return Ok(());
                };
                let partial = node.solve(&request, queries)?;
                network.send(
                    Address::Shard(id),
                    Address::Coordinator,
                    Message::PartialRegion(Box::new(partial)),
                );
            }
            (Address::Coordinator, Message::PartialRegion(partial)) => {
                self.accept_partial(*partial, state, network)?;
            }
            (Address::Coordinator, Message::Merge(MergeRequest { query })) => {
                if state.reports[query].is_none() {
                    state.reports[query] = Some(self.merge_query(query, state)?);
                }
            }
            (to, message) => {
                return Err(ClusterError::Protocol(format!(
                    "{} message addressed to {to}",
                    message.kind()
                )))
            }
        }
        Ok(())
    }

    /// Records an arrived partial; once a query is complete, schedules its
    /// merge as an event of its own.
    fn accept_partial(
        &mut self,
        partial: PartialRegion,
        state: &mut RunState,
        network: &mut SimNetwork,
    ) -> ClusterResult<()> {
        if partial.unit >= state.units.len() {
            return Err(ClusterError::Protocol(format!(
                "partial for unknown unit {} (batch has {})",
                partial.unit,
                state.units.len()
            )));
        }
        if state.answered[partial.unit] {
            // A retry raced the original answer; identical by construction,
            // so counting it is all that is left to do.
            state.duplicate_partials += 1;
            return Ok(());
        }
        state.answered[partial.unit] = true;
        let unit = state.units[partial.unit];
        let dim_pos = unit.dim_index.unwrap_or(0);
        state
            .partials
            .insert((unit.query, dim_pos), partial.payload);
        state.answers_per_query[unit.query] += 1;
        if state.answers_per_query[unit.query] == state.units_per_query[unit.query]
            && !state.merge_sent[unit.query]
        {
            state.merge_sent[unit.query] = true;
            network.send(
                Address::Coordinator,
                Address::Coordinator,
                Message::Merge(MergeRequest { query: unit.query }),
            );
        }
        Ok(())
    }

    /// Merges one query's partials in fixed (query, dim position) order.
    fn merge_query(&self, query: usize, state: &RunState) -> ClusterResult<RegionReport> {
        let parts: Vec<(&(usize, usize), &PartialPayload)> = state
            .partials
            .range((query, 0)..=(query, usize::MAX))
            .collect();
        match self.partition {
            PartitionMode::ByQuery => match parts.as_slice() {
                [(_, PartialPayload::Query { report })] => Ok(report.as_ref().clone()),
                other => Err(ClusterError::Inconsistent(format!(
                    "query {query} should have exactly one whole-query partial, got {}",
                    other.len()
                ))),
            },
            PartitionMode::ByDim => {
                let mut dims = Vec::with_capacity(parts.len());
                let mut evaluated_per_dim = Vec::with_capacity(parts.len());
                let mut evaluated_total = 0u64;
                let mut phase3_total = 0u64;
                let mut footprint = 0usize;
                let mut io = IoStatsSnapshot::default();
                let mut first_ta: Option<(usize, IoStatsSnapshot)> = None;
                for (key, payload) in parts {
                    let PartialPayload::Dim(part) = payload else {
                        return Err(ClusterError::Inconsistent(format!(
                            "query {query} mixes whole-query and per-dim partials"
                        )));
                    };
                    if key.1 != part.dim_index {
                        return Err(ClusterError::Inconsistent(format!(
                            "partial keyed at dim {} carries dim {}",
                            key.1, part.dim_index
                        )));
                    }
                    // Every node ran TA over the same snapshot bytes; their
                    // candidate lists must agree or the shards have
                    // diverged.
                    match &first_ta {
                        None => first_ta = Some((part.initial_candidates, part.topk_io)),
                        Some((expected, _)) if *expected != part.initial_candidates => {
                            return Err(ClusterError::Inconsistent(format!(
                                "query {query}: shards disagree on the TA candidate list \
                                 ({expected} vs {})",
                                part.initial_candidates
                            )));
                        }
                        Some(_) => {}
                    }
                    evaluated_per_dim.push(part.evaluated);
                    evaluated_total += part.evaluated;
                    phase3_total += part.phase3_tuples;
                    footprint = footprint.max(part.footprint_bytes);
                    io = io.plus(&part.io);
                    dims.push(part.regions.clone());
                }
                let (initial_candidates, topk_io) = first_ta.ok_or_else(|| {
                    ClusterError::Inconsistent(format!("query {query} merged with no partials"))
                })?;
                Ok(RegionReport {
                    dims,
                    stats: ComputationStats {
                        evaluated_candidates: evaluated_total,
                        evaluated_per_dim,
                        phase3_tuples: phase3_total,
                        initial_candidates,
                        io,
                        topk_io,
                        // Virtual time only — the simulation never consults
                        // a wall clock.
                        cpu_time: Duration::ZERO,
                        memory_footprint_bytes: footprint,
                    },
                })
            }
        }
    }

    /// Kills the planned shard: retires its node, discards its in-flight
    /// traffic, re-homes its unanswered units (to a snapshot-respawned
    /// replacement or across survivors) and re-broadcasts the map.
    fn fire_churn(
        &mut self,
        plan: ChurnPlan,
        fired_at: u64,
        state: &mut RunState,
        network: &mut SimNetwork,
    ) -> ClusterResult<ChurnReport> {
        let slot = plan.kill_shard as usize;
        let Some(node) = self.nodes[slot].take() else {
            return Err(ClusterError::Config(format!(
                "churn plan kills shard {} twice",
                plan.kill_shard
            )));
        };
        state
            .retired
            .push(traffic_of(&node, false, state.requests_received[slot]));
        drop(node);
        let discarded = network.discard_involving(ShardId(plan.kill_shard));

        if plan.respawn {
            // Snapshot-based recovery: the replacement opens the same
            // snapshot the dead node did, trailer-only, and inherits its
            // slot (requests_received restarts with it).
            state.requests_received[slot] = 0;
            self.nodes[slot] = Some(ShardNode::bring_up(
                ShardId(plan.kill_shard),
                self.home.path(),
                self.backend,
                self.config,
            )?);
        }

        let survivors: Vec<ShardId> = self.nodes.iter().flatten().map(|node| node.id()).collect();
        debug_assert!(!survivors.is_empty(), "builder forbids zero survivors");
        let dead = ShardId(plan.kill_shard);
        let mut rehomed = Vec::new();
        for unit in 0..state.units.len() {
            if !state.answered[unit] && state.owners[unit] == dead {
                rehomed.push(unit);
            }
        }
        for (i, &unit) in rehomed.iter().enumerate() {
            state.owners[unit] = survivors[i % survivors.len()];
        }
        self.broadcast_map(state, network);
        for &unit in &rehomed {
            self.send_solve(unit, state, network);
            state.resent_requests += 1;
        }
        Ok(ChurnReport {
            killed_shard: plan.kill_shard,
            fired_at_delivery: fired_at,
            respawned: plan.respawn,
            redistributed_units: rehomed.len() as u64,
            discarded_messages: discarded,
        })
    }

    /// Assembles the outcome and verifies every conservation law.
    fn finish(
        &self,
        state: RunState,
        network: SimNetwork,
        retry_rounds: u64,
        churn: Option<ChurnReport>,
    ) -> ClusterResult<ClusterOutcome> {
        let mut reports = Vec::with_capacity(state.reports.len());
        for (qi, report) in state.reports.into_iter().enumerate() {
            reports.push(report.ok_or_else(|| {
                ClusterError::Inconsistent(format!(
                    "query {qi} was never merged despite a drained schedule"
                ))
            })?);
        }
        let mut per_shard = state.retired;
        for node in self.nodes.iter().flatten() {
            per_shard.push(traffic_of(
                node,
                true,
                state.requests_received[node.id().0 as usize],
            ));
        }
        per_shard.sort_by_key(|t| (t.shard, t.alive));
        let stats = ClusterRunStats {
            units: state.units.len() as u64,
            messages: network.stats(),
            duplicate_partials: state.duplicate_partials,
            retry_rounds,
            resent_requests: state.resent_requests,
            churn,
            per_shard,
        };
        if network.in_flight() != 0 {
            return Err(ClusterError::Inconsistent(format!(
                "{} messages still in flight after the run finished",
                network.in_flight()
            )));
        }
        if let Some(violation) = stats.conservation_violation() {
            return Err(ClusterError::Inconsistent(violation));
        }
        Ok(ClusterOutcome { reports, stats })
    }

    fn node_mut(&mut self, id: ShardId) -> Option<&mut ShardNode> {
        self.nodes.get_mut(id.0 as usize)?.as_mut()
    }
}

/// Reads one node's cumulative traffic counters.
fn traffic_of(node: &ShardNode, alive: bool, requests_received: u64) -> ShardTraffic {
    let io = node.engine().index().io_snapshot();
    ShardTraffic {
        shard: node.id().0,
        alive,
        requests_received,
        solves: node.solves(),
        partials_sent: node.partials_sent(),
        logical_reads: io.logical_reads,
        physical_reads: io.physical_reads,
    }
}
