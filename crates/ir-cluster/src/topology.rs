//! How a cluster splits work, and the stamp that records it.

use serde::{Deserialize, Serialize};
use std::fmt;

/// How a sharded cluster splits a batch of region computations across its
/// nodes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PartitionMode {
    /// Shard by query dimension: every node holds the full index and solves
    /// the dimensions assigned to it (`dim_index % shards`), one partial
    /// region per dimension.
    #[default]
    ByDim,
    /// Shard by query: every node solves whole queries
    /// (`query_index % shards`) with the plain sequential solver.
    ByQuery,
}

impl fmt::Display for PartitionMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PartitionMode::ByDim => "by-dim",
            PartitionMode::ByQuery => "by-query",
        })
    }
}

/// The shape of a sharded cluster run, as stamped into `BENCH_*.json`
/// metadata: shard count, partition mode and the seed that drove the
/// simulated network's delivery order (and any churn schedule).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterTopology {
    /// Number of shard nodes the work was partitioned across.
    pub shards: u32,
    /// How the work was split ([`PartitionMode`]).
    pub partition: PartitionMode,
    /// The seed of the simulated network (message delay/reordering/drop)
    /// and churn schedule. Two runs with equal topology are byte-identical.
    pub seed: u64,
}
