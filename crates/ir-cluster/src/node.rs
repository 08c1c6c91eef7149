//! A shard node: one [`IrEngine`] brought up from the shared snapshot.
//!
//! Every node owns its page store — the mem backend materializes the
//! snapshot's page file into its own [`ir_storage::MemPageStore`], the
//! file/mmap backends open the file with their own handles — so nodes share
//! *bytes* (the snapshot) but no runtime state, exactly like separate
//! processes would. Bring-up goes through the zero-copy snapshot path
//! ([`IrEngineBuilder::open_snapshot`](immutable_regions::engine::IrEngineBuilder::open_snapshot)): only the trailer is read before
//! the first solve.
//!
//! Nodes are deliberately dumb: they install the latest
//! [`ShardMap`], solve the
//! [`SolveDim`] requests addressed to them, and
//! send back [`PartialRegion`]s. All routing
//! intelligence (retries, churn, merging) lives in the coordinator.

use crate::engine::{ClusterError, ClusterResult};
use crate::message::{DimPartial, PartialPayload, PartialRegion, ShardId, ShardMap, SolveDim};
use immutable_regions::engine::IrEngine;
use ir_core::{RegionComputation, RegionConfig};
use ir_storage::{BackendKind, StorageBackend};
use ir_types::QueryVector;
use std::collections::HashMap;
use std::path::Path;

/// One in-process shard node.
pub struct ShardNode {
    id: ShardId,
    engine: IrEngine,
    /// TA runs cached per query (`ByDim` mode solves several dimensions of
    /// the same query on one node; the top-k phase runs once).
    computations: HashMap<usize, RegionComputation>,
    map: Option<ShardMap>,
    /// Work units solved (retries re-solve) and partials handed back — one
    /// each per successful [`ShardNode::solve`], kept apart because they are
    /// the two sides of the coordinator's conservation check.
    solves: u64,
    partials_sent: u64,
}

impl ShardNode {
    /// Brings a node up from `snapshot_dir`, serving it through `backend`
    /// with `config` as the solving configuration.
    pub fn bring_up(
        id: ShardId,
        snapshot_dir: &Path,
        backend: BackendKind,
        config: RegionConfig,
    ) -> ClusterResult<ShardNode> {
        let storage = match backend {
            BackendKind::Mem => StorageBackend::Memory,
            // The path inside the variant is ignored when opening a
            // snapshot (the file to serve is the snapshot's); the kind is
            // what selects positioned reads vs a read-only mapping.
            BackendKind::File => StorageBackend::Disk(snapshot_dir.to_path_buf()),
            BackendKind::Mmap => StorageBackend::Mmap(snapshot_dir.to_path_buf()),
        };
        let engine = IrEngine::builder()
            .open_snapshot(snapshot_dir)
            .backend(storage)
            .config(config)
            .build()
            .map_err(|source| ClusterError::BringUp {
                shard: id.0,
                source,
            })?;
        Ok(ShardNode {
            id,
            engine,
            computations: HashMap::new(),
            map: None,
            solves: 0,
            partials_sent: 0,
        })
    }

    /// The node's identity.
    pub fn id(&self) -> ShardId {
        self.id
    }

    /// The node's engine (health counters, I/O accounting).
    pub fn engine(&self) -> &IrEngine {
        &self.engine
    }

    /// Work units this node has solved since it came up.
    pub fn solves(&self) -> u64 {
        self.solves
    }

    /// Partial-region messages this node has produced for the coordinator.
    pub fn partials_sent(&self) -> u64 {
        self.partials_sent
    }

    /// Installs a (newer) work assignment; stale broadcasts — delivered out
    /// of order by the simulated network — are ignored.
    pub fn install_map(&mut self, map: ShardMap) {
        if self.map.as_ref().map_or(true, |m| m.version < map.version) {
            self.map = Some(map);
        }
    }

    /// The assignment version the node last installed (0 before any).
    pub fn map_version(&self) -> u64 {
        self.map.as_ref().map_or(0, |m| m.version)
    }

    /// Clears per-batch state (cached TA runs) before a new batch.
    pub fn reset_batch(&mut self) {
        self.computations.clear();
    }

    /// Serves one work-unit request, returning the partial to send back.
    ///
    /// The result is a pure function of (snapshot bytes, query, request),
    /// so serving a duplicate request — a retry whose original answer was
    /// dropped — reproduces the identical partial.
    pub fn solve(
        &mut self,
        request: &SolveDim,
        queries: &[QueryVector],
    ) -> ClusterResult<PartialRegion> {
        let query = queries.get(request.query).ok_or_else(|| {
            ClusterError::Protocol(format!(
                "{} received a request for query {} but the batch holds {}",
                self.id,
                request.query,
                queries.len()
            ))
        })?;
        let payload = match request.dim_index {
            None => {
                // ByQuery: the plain sequential solve — the report is
                // byte-identical to the single-engine one.
                let report = self
                    .engine
                    .query(query)
                    .map_err(|source| ClusterError::Solve {
                        shard: self.id.0,
                        source,
                    })?;
                PartialPayload::Query {
                    report: Box::new(report),
                }
            }
            Some(dim_index) => {
                // ByDim: run TA once per query (cached), then solve this
                // dimension from the frozen snapshot — the same primitive
                // `compute_parallel` fans out over threads, here fanned out
                // over nodes.
                let config = self.engine.config();
                if !self.computations.contains_key(&request.query) {
                    let computation =
                        self.engine
                            .computation(query)
                            .map_err(|source| ClusterError::Solve {
                                shard: self.id.0,
                                source,
                            })?;
                    self.computations.insert(request.query, computation);
                }
                let computation = &self.computations[&request.query];
                let index = self.engine.index();
                let before = index.thread_io_snapshot();
                let (regions, info) = ir_core::parallel::solve_dim_from_snapshot(
                    index,
                    computation.ta(),
                    dim_index,
                    &config,
                )
                .map_err(|source| ClusterError::Solve {
                    shard: self.id.0,
                    source: source.into(),
                })?;
                let io = index.thread_io_snapshot().since(&before);
                PartialPayload::Dim(Box::new(DimPartial {
                    dim_index,
                    regions,
                    evaluated: info.evaluated,
                    phase3_tuples: info.phase3_tuples,
                    footprint_bytes: info.footprint_bytes,
                    initial_candidates: computation.initial_candidates(),
                    topk_io: computation.topk_io(),
                    io,
                }))
            }
        };
        self.solves += 1;
        self.partials_sent += 1;
        Ok(PartialRegion {
            unit: request.unit,
            query: request.query,
            shard: self.id,
            payload,
        })
    }
}
