//! # ir-cluster — sharded serving under a deterministic simulation
//!
//! This crate partitions the immutable-region workload of the paper
//! (Mouratidis & Pang, *Computing Immutable Regions for Subspace Top-k
//! Queries*, PVLDB 2013) across N in-process shard nodes, each a full
//! [`IrEngine`](immutable_regions::engine::IrEngine) over its own page
//! store brought up from one shared snapshot, and drives them through a
//! **deterministic discrete-event simulation**: a virtual-time
//! [`EventSchedule`](event_schedule::EventSchedule), a seeded
//! [`SimNetwork`] that delays, reorders and drops
//! messages reproducibly, and a [`ChurnPlan`] that kills
//! shards mid-batch.
//!
//! Two partitioning strategies are supported
//! ([`PartitionMode`]):
//!
//! * **`ByDim`** — list sharding: the node owning inverted list *d* solves
//!   every query dimension over *d* (one [`SolveDim`](message::SolveDim)
//!   unit per query dimension);
//! * **`ByQuery`** — batch partitioning: whole queries round-robin across
//!   nodes.
//!
//! The headline guarantee, proved by the oracle test-suite: the merged
//! output is **byte-identical to the single-engine result** at every shard
//! count, partition mode, delivery order, drop schedule and churn plan —
//! because the merge is fixed by (query id, dimension index), never by
//! arrival order. See [`engine`] for the full contract.

#![forbid(unsafe_code)]

pub mod churn;
pub mod engine;
pub mod event_schedule;
pub mod message;
pub mod network;
pub mod node;
pub mod topology;

pub use churn::{ChurnPlan, ChurnReport};
pub use engine::{
    ClusterError, ClusterOutcome, ClusterResult, ClusterRunStats, ShardTraffic, ShardedEngine,
    ShardedEngineBuilder,
};
pub use message::{Address, Message, MessageEnvelope, ShardId, ShardMap};
pub use network::{NetworkConfig, NetworkStats, SimNetwork};
pub use node::ShardNode;
pub use topology::{ClusterTopology, PartitionMode};
