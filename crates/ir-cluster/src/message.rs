//! The typed messages shard nodes and the coordinator exchange.
//!
//! Everything that crosses the simulated network is one of four
//! [`Message`] variants, wrapped in a [`MessageEnvelope`] that records the
//! route and a global send counter. The variants mirror the protocol:
//!
//! * [`ShardMap`] — coordinator → every node: the current work assignment
//!   (broadcast at batch start and again after churn redistributes work),
//! * [`SolveDim`] — coordinator → owning node: solve one work unit (a
//!   single query dimension under [`PartitionMode::ByDim`], a whole query
//!   under [`PartitionMode::ByQuery`]),
//! * [`PartialRegion`] — node → coordinator: the solved partial plus the
//!   deterministic counters the merge needs,
//! * [`Merge`](Message::Merge) — coordinator → coordinator: all partials of
//!   one query have arrived; perform the deterministic merge. Modeled as a
//!   message so merging is itself an event in the schedule, subject to the
//!   same reordering as everything else — which the determinism suite then
//!   proves harmless.

use crate::topology::PartitionMode;
use ir_core::{DimRegions, RegionReport};
use ir_storage::IoStatsSnapshot;
use std::fmt;

/// Identity of one shard node (dense, `0..shards`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub u32);

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard-{}", self.0)
    }
}

/// A deliverable endpoint on the simulated network.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Address {
    /// The coordinator (merge + routing side).
    Coordinator,
    /// One shard node.
    Shard(ShardId),
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Address::Coordinator => f.write_str("coordinator"),
            Address::Shard(id) => id.fmt(f),
        }
    }
}

/// One message in flight: route, global send counter, payload.
#[derive(Clone, Debug)]
pub struct MessageEnvelope {
    /// Sender.
    pub from: Address,
    /// Recipient.
    pub to: Address,
    /// Global per-run send counter — the deterministic "op id" that ties a
    /// message to the network's drop/delay draws.
    pub send_op: u64,
    /// The payload.
    pub message: Message,
}

/// The protocol.
#[derive(Clone, Debug)]
pub enum Message {
    /// Current work assignment, broadcast to every live node.
    ShardMap(ShardMap),
    /// A work-unit request routed to its owning node.
    SolveDim(SolveDim),
    /// A solved partial on its way back to the coordinator (boxed: the
    /// payload dwarfs the other variants).
    PartialRegion(Box<PartialRegion>),
    /// Coordinator self-message: merge the named query now.
    Merge(MergeRequest),
}

impl Message {
    /// Short label for logs and counters.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::ShardMap(_) => "shard-map",
            Message::SolveDim(_) => "solve-dim",
            Message::PartialRegion(_) => "partial-region",
            Message::Merge(_) => "merge",
        }
    }
}

/// The coordinator's current assignment of work units to shard nodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardMap {
    /// Bumped every time the assignment changes (churn redistribution);
    /// lets nodes and logs distinguish stale routing from fresh.
    pub version: u64,
    /// Number of shard slots (dead slots included).
    pub shards: u32,
    /// How work is split.
    pub partition: PartitionMode,
    /// `owners[unit]` is the shard currently responsible for that unit.
    pub owners: Vec<ShardId>,
}

/// Request to solve one work unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SolveDim {
    /// Index into the run's unit list.
    pub unit: usize,
    /// Index of the query in the batch.
    pub query: usize,
    /// Position of the dimension within the query's dims
    /// ([`PartitionMode::ByDim`]); `None` means the whole query
    /// ([`PartitionMode::ByQuery`]).
    pub dim_index: Option<usize>,
    /// The [`ShardMap::version`] this request was routed under.
    pub map_version: u64,
}

/// A solved partial region heading back to the coordinator.
#[derive(Clone, Debug)]
pub struct PartialRegion {
    /// The unit this answers.
    pub unit: usize,
    /// The query it belongs to.
    pub query: usize,
    /// The node that solved it.
    pub shard: ShardId,
    /// The payload, shaped by the partition mode.
    pub payload: PartialPayload,
}

/// What a [`PartialRegion`] carries.
#[derive(Clone, Debug)]
pub enum PartialPayload {
    /// One dimension's regions plus the per-dimension counters the
    /// coordinator needs to assemble [`ir_core::ComputationStats`] exactly
    /// the way `RegionComputation::compute_parallel` does (boxed: two I/O
    /// snapshots make it large relative to the other variant).
    Dim(Box<DimPartial>),
    /// A whole query solved sequentially on one node — the report is the
    /// finished article, byte-identical to the single-engine solve.
    Query {
        /// The full report (boxed: a report is large relative to the
        /// envelope).
        report: Box<RegionReport>,
    },
}

/// The per-dimension partial of [`PartialPayload::Dim`].
#[derive(Clone, Debug)]
pub struct DimPartial {
    /// Position of the dimension within the query's dims.
    pub dim_index: usize,
    /// The solved regions.
    pub regions: DimRegions,
    /// Candidates evaluated for this dimension.
    pub evaluated: u64,
    /// Tuples newly discovered by the resumed TA of Phase 3.
    pub phase3_tuples: u64,
    /// Candidate-bookkeeping bytes this dimension required.
    pub footprint_bytes: usize,
    /// Candidate-list size of the node's initial TA run. Identical on
    /// every node (same snapshot bytes) — the coordinator asserts so.
    pub initial_candidates: usize,
    /// I/O of the node's initial top-k phase for this query.
    pub topk_io: IoStatsSnapshot,
    /// I/O of this dimension's solve on the node.
    pub io: IoStatsSnapshot,
}

/// Coordinator self-message: every partial of `query` has arrived.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MergeRequest {
    /// The query to merge.
    pub query: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_kinds_are_stable_labels() {
        let map = Message::ShardMap(ShardMap {
            version: 1,
            shards: 2,
            partition: PartitionMode::ByDim,
            owners: vec![ShardId(0), ShardId(1)],
        });
        assert_eq!(map.kind(), "shard-map");
        assert_eq!(Message::Merge(MergeRequest { query: 0 }).kind(), "merge");
        assert_eq!(format!("{}", Address::Shard(ShardId(3))), "shard-3");
        assert_eq!(format!("{}", Address::Coordinator), "coordinator");
    }
}
