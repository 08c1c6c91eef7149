//! Cluster benchmark: the sharded engine against the single-engine oracle
//! at growing shard counts.
//!
//! For every shard count N the runner stages one snapshot, brings up an
//! N-shard [`ShardedEngine`] in both partition modes (`by-dim` list
//! sharding and `by-query` batch partitioning) over a seeded reordering
//! network, serves the standard ST workload, and reports **deterministic
//! counter distributions** — never wall-clock — so the emitted
//! `BENCH_cluster.json` is byte-stable across machines, backends and
//! reorder seeds, and CI can diff it exactly:
//!
//! * `Oracle` — the unsharded engine's totals (evaluated candidates in
//!   `evaluated_per_dim`, logical reads in `logical_reads`, query count in
//!   `memory_kbytes`); constant across the x-axis by construction.
//! * `ByDim` / `ByQuery` — the merged totals of the sharded run (same
//!   columns, except `memory_kbytes` carries the work-unit count).
//! * `ByDimMsgs` / `ByQueryMsgs` — message conservation: sent in
//!   `evaluated_per_dim`, delivered in `logical_reads`, dropped+discarded
//!   in `memory_kbytes` (all zero on the lossless bench network).
//! * `ByDimShardLoad` / `ByQueryShardLoad` — the per-shard solve-count
//!   distribution: min / max / mean.
//! * `ByDimShardIo` / `ByQueryShardIo` — the per-shard logical-read
//!   distribution: min / max / mean.
//!
//! The reorder seed comes from `IR_BENCH_CLUSTER_SEED` (default `0xC105`);
//! the CI cluster stage runs two seeds and exact-diffs both emissions
//! against one committed baseline, proving delivery order never leaks into
//! the counters.
//!
//! The runner is self-checking and exits non-zero unless the determinism
//! contract holds: merged regions byte-identical to the sequential oracle
//! at every shard count and partition mode, merged deterministic stats
//! equal to the matching oracle (`query` for by-query, single-threaded
//! `compute_parallel` for by-dim), a 1-shard by-query run identical to the
//! unsharded engine's answers, and conserved message counters.

use immutable_regions::engine::{EngineResult, IrEngine};
use ir_bench::{print_table, BenchArgs, BenchDataset, ExperimentTable, MethodMeasurement, Scale};
use ir_cluster::{ClusterOutcome, NetworkConfig, PartitionMode, ShardedEngine};
use ir_core::RegionReport;
use std::time::Instant;

/// Shard counts per scale (the x-axis).
fn shard_counts(scale: Scale) -> Vec<u32> {
    match scale {
        Scale::Smoke => vec![1, 2, 4],
        Scale::Default | Scale::Full => vec![1, 2, 4, 8],
    }
}

/// A packed table row (see the module docs for the column mapping).
fn row(series: &str, x: f64, a: f64, b: f64, c: f64) -> MethodMeasurement {
    MethodMeasurement {
        algorithm: series.to_string(),
        x,
        evaluated_per_dim: a,
        io_time_ms: 0.0,
        cpu_time_ms: 0.0,
        memory_kbytes: c,
        logical_reads: b,
        physical_reads: 0.0,
    }
}

/// Sum of evaluated candidates and logical solve reads over a report set.
fn totals(reports: &[RegionReport]) -> (u64, u64) {
    reports.iter().fold((0, 0), |(ev, io), r| {
        (
            ev + r.stats.evaluated_candidates,
            io + r.stats.io.logical_reads,
        )
    })
}

/// (min, max, mean) of a counter distribution.
fn distribution(values: &[u64]) -> (u64, u64, f64) {
    let min = values.iter().min().copied().unwrap_or(0);
    let max = values.iter().max().copied().unwrap_or(0);
    let mean = values.iter().sum::<u64>() as f64 / values.len().max(1) as f64;
    (min, max, mean)
}

/// Checks one sharded outcome against the oracles, pushing any violation.
fn check_outcome(
    context: &str,
    outcome: &ClusterOutcome,
    regions_oracle: &[RegionReport],
    stats_oracle: &[RegionReport],
    violations: &mut Vec<String>,
) {
    for (qi, (actual, expected)) in outcome.reports.iter().zip(regions_oracle).enumerate() {
        if actual.dims != expected.dims {
            violations.push(format!(
                "{context} query {qi}: merged regions diverge from the sequential oracle"
            ));
        }
    }
    for (qi, (actual, expected)) in outcome.reports.iter().zip(stats_oracle).enumerate() {
        if actual.stats.evaluated_per_dim != expected.stats.evaluated_per_dim
            || actual.stats.io.logical_reads != expected.stats.io.logical_reads
            || actual.stats.initial_candidates != expected.stats.initial_candidates
        {
            violations.push(format!(
                "{context} query {qi}: merged deterministic stats diverge from the oracle"
            ));
        }
    }
    if let Some(violation) = outcome.stats.conservation_violation() {
        violations.push(format!("{context}: {violation}"));
    }
}

fn main() -> EngineResult<()> {
    let args = BenchArgs::parse();
    let started = Instant::now();
    let scale = Scale::from_env();
    let seed = std::env::var("IR_BENCH_CLUSTER_SEED")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0xC105);
    let mut table = ExperimentTable::new(
        "Cluster serving — sharded engine vs single-engine oracle per shard count (merged totals; message conservation; per-shard load and I/O distributions)",
        "shards",
    );
    let mut violations = Vec::new();

    let dataset = BenchDataset::St.generate(scale);
    let queries = BenchDataset::St
        .workload_for(&dataset, 3, 10, BenchDataset::queries_per_point(scale))?
        .queries()
        .to_vec();

    // One oracle engine doubles as the snapshot stager: every cluster below
    // serves the exact bytes this engine saved.
    let oracle_engine = IrEngine::builder().dataset_ref(&dataset).build()?;
    let staged = tempfile::tempdir().map_err(|e| {
        immutable_regions::engine::EngineError::Policy(format!("staging snapshot dir: {e}"))
    })?;
    let snap = staged.path().join("snap");
    oracle_engine.save_snapshot(&snap)?;
    let sequential: Vec<RegionReport> = queries
        .iter()
        .map(|q| oracle_engine.query(q))
        .collect::<EngineResult<_>>()?;
    let parallel: Vec<RegionReport> = queries
        .iter()
        .map(|q| Ok(oracle_engine.computation(q)?.compute_parallel(1)?))
        .collect::<EngineResult<_>>()?;
    let (oracle_evaluated, oracle_reads) = totals(&sequential);

    for shards in shard_counts(scale) {
        table.push(row(
            "Oracle",
            shards as f64,
            oracle_evaluated as f64,
            oracle_reads as f64,
            queries.len() as f64,
        ));
        for partition in [PartitionMode::ByDim, PartitionMode::ByQuery] {
            let context = format!("shards={shards} partition={partition}");
            let mut cluster = ShardedEngine::builder()
                .snapshot(&snap)
                .shards(shards)
                .partition(partition)
                .backend_kind(args.backend)
                .network(NetworkConfig::reordering(seed, 5))
                .build()
                .map_err(|e| {
                    immutable_regions::engine::EngineError::Policy(format!("{context}: {e}"))
                })?;
            table.cluster = Some(cluster.topology());
            let outcome = cluster.run(&queries).map_err(|e| {
                immutable_regions::engine::EngineError::Policy(format!("{context}: {e}"))
            })?;

            let stats_oracle = match partition {
                PartitionMode::ByQuery => &sequential,
                PartitionMode::ByDim => &parallel,
            };
            check_outcome(
                &context,
                &outcome,
                &sequential,
                stats_oracle,
                &mut violations,
            );
            if shards == 1 && partition == PartitionMode::ByQuery {
                // The 1-shard cluster must be indistinguishable from the
                // unsharded engine — the identity the CI stage pins.
                let (evaluated, reads) = totals(&outcome.reports);
                if (evaluated, reads) != (oracle_evaluated, oracle_reads) {
                    violations.push(format!(
                        "{context}: 1-shard totals ({evaluated}, {reads}) != unsharded \
                         ({oracle_evaluated}, {oracle_reads})"
                    ));
                }
            }

            let (evaluated, reads) = totals(&outcome.reports);
            let run = &outcome.stats;
            let solves: Vec<u64> = run.per_shard.iter().map(|t| t.solves).collect();
            let shard_reads: Vec<u64> = run.per_shard.iter().map(|t| t.logical_reads).collect();
            let (solve_min, solve_max, solve_mean) = distribution(&solves);
            let (io_min, io_max, io_mean) = distribution(&shard_reads);

            println!(
                "{context}: {} units, {} messages ({} delivered), solves/shard {}..{} (mean {:.2})",
                run.units,
                run.messages.sent,
                run.messages.delivered,
                solve_min,
                solve_max,
                solve_mean,
            );

            let mode = partition.to_string();
            let series = match mode.as_str() {
                "by-dim" => "ByDim",
                _ => "ByQuery",
            };
            table.push(row(
                series,
                shards as f64,
                evaluated as f64,
                reads as f64,
                run.units as f64,
            ));
            table.push(row(
                &format!("{series}Msgs"),
                shards as f64,
                run.messages.sent as f64,
                run.messages.delivered as f64,
                (run.messages.dropped + run.messages.discarded) as f64,
            ));
            table.push(row(
                &format!("{series}ShardLoad"),
                shards as f64,
                solve_min as f64,
                solve_max as f64,
                solve_mean,
            ));
            table.push(row(
                &format!("{series}ShardIo"),
                shards as f64,
                io_min as f64,
                io_max as f64,
                io_mean,
            ));
        }
    }

    print_table(&table);
    args.emit("cluster", &table)?;
    args.report_wall_clock(started);

    if !violations.is_empty() {
        for v in &violations {
            eprintln!("cluster violation: {v}");
        }
        std::process::exit(1);
    }
    Ok(())
}
