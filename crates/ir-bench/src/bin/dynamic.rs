//! Dynamic-data benchmark: a subscription fleet under tuple churn.
//!
//! For every churn rate the runner builds the WSJ-like engine, admits a
//! fleet of subscriptions, generates a deterministic Zipf-popular
//! [`UpdateStream`] and applies it in maintenance batches through
//! [`SubscriptionManager::apply_updates`]. It reports **deterministic
//! counter series** — never wall-clock — so the emitted
//! `BENCH_dynamic.json` is byte-stable across machines, backends and
//! worker counts, and CI can diff it exactly:
//!
//! * `Survival` — region survival ratio in `evaluated_per_dim`, regions
//!   survived in `logical_reads`, regions punctured in `memory_kbytes`.
//! * `Maintenance` — maintenance logical page reads in
//!   `evaluated_per_dim`, maintenance pages written in `logical_reads`,
//!   inverted-list rewrites in `memory_kbytes`.
//! * `RebuildIO` — pages written / bytes encoded by ONE full index
//!   rebuild on the mutated dataset in `evaluated_per_dim` /
//!   `logical_reads`, maintenance batches applied in `memory_kbytes`.
//!
//! The economics claim under test: in-place maintenance replaces the
//! rebuild-per-batch strategy (rebuilding the index after every update
//! batch is the only other way to keep serving fresh results), so the
//! runner exits non-zero unless the *entire* maintenance I/O bill for the
//! stream is strictly below `batches × one-rebuild I/O` — the bill the
//! rebuild strategy would pay for the same freshness.
//!
//! It also enforces the oracle law at serving level: after the stream,
//! every incremental query answer and every fleet member's region report
//! must be byte-identical to a freshly built engine on the mutated
//! dataset.

use immutable_regions::engine::{EngineResult, IrEngine};
use immutable_regions::fleet::{FleetConfig, SubscriptionManager};
use ir_bench::{print_table, BenchArgs, BenchDataset, ExperimentTable, MethodMeasurement, Scale};
use ir_datagen::{UpdateConfig, UpdateStream};
use ir_types::QueryVector;
use std::time::Instant;

/// Churn rates (fraction of updates that are inserts/deletes) — the x-axis,
/// in percent.
const CHURN_PERCENTS: [u64; 3] = [10, 40, 80];

/// Updates per churn level at each scale.
fn updates_for(scale: Scale) -> usize {
    match scale {
        Scale::Smoke => 120,
        Scale::Default => 600,
        Scale::Full => 3_000,
    }
}

/// Fleet size at each scale.
fn fleet_size(scale: Scale) -> usize {
    match scale {
        Scale::Smoke => 8,
        Scale::Default => 32,
        Scale::Full => 128,
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

fn main() -> EngineResult<()> {
    let args = BenchArgs::parse();
    let started = Instant::now();
    let scale = Scale::from_env();
    let mut table = ExperimentTable::new(
        "Dynamic data — region survival and maintenance I/O vs full-rebuild I/O per churn rate",
        "churn %",
    );
    let mut violations = Vec::new();

    let dataset = BenchDataset::Wsj.generate(scale);
    let num_subs = fleet_size(scale);
    let workload = BenchDataset::Wsj.workload_for(&dataset, 3, 10, num_subs)?;
    let fleet: Vec<(u64, QueryVector)> = workload
        .queries()
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, q)| (i as u64, q))
        .collect();

    for churn_pct in CHURN_PERCENTS {
        let (engine, _) = BenchDataset::Wsj.prepare_engine_for(scale, 3, 10, num_subs, &args)?;
        table.cold_start = engine.cold_start_info();
        let mut manager = SubscriptionManager::new(
            &engine,
            FleetConfig {
                max_batch: 16,
                ..FleetConfig::default()
            },
        )?;
        manager.admit_all(fleet.clone())?;

        let stream = UpdateStream::generate(
            &dataset,
            &UpdateConfig {
                num_updates: updates_for(scale),
                churn: churn_pct as f64 / 100.0,
                zipf_exponent: 1.0,
                remove_fraction: 0.1,
            },
            0xD1DA ^ churn_pct,
        )?;
        let mut batches = 0u64;
        for batch in stream.batches(16) {
            manager.apply_updates(batch)?;
            batches += 1;
        }
        let maint = engine.maintenance_stats();
        let stats = manager.stats();
        let screened = stats.regions_survived + stats.regions_punctured;
        let survival = if screened == 0 {
            1.0
        } else {
            stats.regions_survived as f64 / screened as f64
        };

        // The alternative strategy: one full rebuild on the mutated
        // dataset (per batch, were it to stay fresh). Its build I/O is
        // read before any query touches the fresh engine.
        let mutated = dataset.with_updates(stream.updates())?;
        let (storage, scratch) = args.storage_backend()?;
        let rebuilt = IrEngine::builder()
            .dataset_ref(&mutated)
            .backend(storage)
            .threads(args.threads)
            .build()?;
        let rebuild = rebuilt.cold_start_info();
        drop(scratch);

        let maint_io = maint.logical_reads + maint.pages_written;
        let rebuild_cost = batches * rebuild.pages;
        println!(
            "churn {churn_pct}%: {} updates in {batches} batches, survival {survival:.3} \
             ({} survived / {} punctured), maintenance I/O {maint_io} vs rebuild-per-batch \
             {rebuild_cost} ({batches} × {})",
            stats.updates_applied, stats.regions_survived, stats.regions_punctured, rebuild.pages,
        );

        table.push(row(
            "Survival",
            churn_pct as f64,
            survival,
            stats.regions_survived as f64,
            stats.regions_punctured as f64,
        ));
        table.push(row(
            "Maintenance",
            churn_pct as f64,
            maint.logical_reads as f64,
            maint.pages_written as f64,
            maint.lists_rewritten as f64,
        ));
        table.push(row(
            "RebuildIO",
            churn_pct as f64,
            rebuild.pages as f64,
            rebuild.bytes as f64,
            batches as f64,
        ));

        // Self-checks: the economics and the oracle law the update model
        // exists for.
        if stats.updates_applied != stream.len() as u64 {
            violations.push(format!(
                "churn {churn_pct}%: {} updates applied for a stream of {}",
                stats.updates_applied,
                stream.len()
            ));
        }
        if maint.batches != batches || maint.updates_applied != stream.len() as u64 {
            violations.push(format!(
                "churn {churn_pct}%: index maintenance counters ({} batches, {} updates) \
                 disagree with the stream ({batches} batches, {} updates)",
                maint.batches,
                maint.updates_applied,
                stream.len()
            ));
        }
        if screened != num_subs as u64 * batches {
            violations.push(format!(
                "churn {churn_pct}%: {screened} regions screened, expected {} members × {batches} batches",
                num_subs
            ));
        }
        if survival <= 0.5 {
            violations.push(format!(
                "churn {churn_pct}%: survival ratio {survival:.3} — most regions must survive \
                 most update batches, that is the premise of incremental maintenance"
            ));
        }
        if maint_io >= rebuild_cost {
            violations.push(format!(
                "churn {churn_pct}%: maintenance I/O {maint_io} is not strictly below the \
                 full-rebuild I/O {rebuild_cost} ({batches} batches × {} pages per rebuild)",
                rebuild.pages
            ));
        }
        for member in manager.members() {
            if member.is_stale() {
                violations.push(format!(
                    "churn {churn_pct}%: member {} is still stale after its invalidation flush",
                    member.id()
                ));
            }
            let oracle = rebuilt.query(member.current())?;
            if member.report().dims != oracle.dims {
                violations.push(format!(
                    "churn {churn_pct}%: member {}'s maintained region report differs from the \
                     full recompute on the mutated dataset",
                    member.id()
                ));
            }
        }
        for query in workload.queries() {
            if engine.query(query)?.dims != rebuilt.query(query)?.dims {
                violations.push(format!(
                    "churn {churn_pct}%: incremental query answer differs from the rebuilt \
                     engine on the mutated dataset"
                ));
                break;
            }
        }
    }

    print_table(&table);
    args.emit("dynamic", &table)?;
    args.report_wall_clock(started);

    if !violations.is_empty() {
        for v in &violations {
            eprintln!("dynamic violation: {v}");
        }
        std::process::exit(1);
    }
    Ok(())
}
