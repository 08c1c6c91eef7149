//! The traced run: every call issued twice, plain and as spans, then the
//! per-layer probes, and the per-layer metrics derived from both.

use crate::oracle::Failures;
use crate::probes;
use crate::run::{
    err, prepare, query_in_two_steps, region_config, Calls, Metric, QueryCounts, RunOpts,
    RunReport, TraceCtx,
};
use crate::stats;
use crate::sys::ScratchDir;
use crate::trace::Tracer;
use crate::workload::{Inputs, Scale};
use immutable_regions::engine::EngineResult;
use immutable_regions::fleet::FleetStats;
use ir_core::RegionReport;
use ir_storage::{MaintenanceStatsSnapshot, PAGE_SIZE};
use ir_types::QueryVector;
use std::time::Instant;

/// Queries the traced run splits into TA and solver on workloads whose
/// timed call is not a single query, and times at one and two workers.
const PROBE_QUERIES: usize = 120;

/// Durations in microseconds of every span called `name`, in span order.
fn span_durations_us(tracer: &Tracer, name: &str) -> Vec<f64> {
    tracer
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect()
}

fn p50(values: &[f64]) -> f64 {
    stats::percentile(&stats::sorted(values), 50.0)
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

pub(crate) fn run_traced(opts: &RunOpts, scratch: &ScratchDir) -> Result<RunReport, String> {
    let workload = opts.workload;
    let shape = workload.shape();
    let config = region_config(workload);

    let inputs = Inputs::generate(workload, opts.seed, opts.seconds, opts.scale).map_err(err)?;
    let (dataset_s, inputs_s) = (inputs.dataset_s, inputs.inputs_s);
    // Two identical states: one takes every call plain, the other takes the
    // same call as spans right before or after, so both see the host in the
    // same mood and their difference is the tracing alone.
    let mut plain_state = prepare(opts, &inputs, scratch, "plain")?;
    let mut state = prepare(opts, &inputs, scratch, "traced")?;
    let (build_s, admit_s) = (state.build_s, state.admit_s);
    let build_pages = state.engine.cold_start_info().pages;
    // Half the untraced run's calls, each issued twice: the rest of
    // `--seconds` goes to the probes.
    let calls = match opts.scale {
        Scale::Full => (inputs.timed_calls / 2).max(1),
        Scale::Smoke => inputs.timed_calls,
    };
    let items = (calls * shape.items_per_call()) as f64;

    let mut ctx = TraceCtx {
        tracer: Tracer::with_capacity(calls * 8 + PROBE_QUERIES * 3 + 16),
        counts: QueryCounts::default(),
    };
    let fleet_before = state.manager.as_ref().map(|m| m.stats());
    let maintenance_before = state.engine.maintenance_stats();
    let pages_before = state.store_pages();
    let (mut plain, mut traced) = (Calls::default(), Calls::default());
    for call in shape.warmup_calls..shape.warmup_calls + calls {
        // Whichever goes second finds the CPU caches warm: take turns.
        if call % 2 == 0 {
            plain.issue(workload, &mut plain_state, &inputs, call, None);
            traced.issue(workload, &mut state, &inputs, call, Some(&mut ctx));
        } else {
            traced.issue(workload, &mut state, &inputs, call, Some(&mut ctx));
            plain.issue(workload, &mut plain_state, &inputs, call, None);
        }
    }
    drop(plain_state);
    let fleet: FleetStats = match (&state.manager, fleet_before) {
        (Some(manager), Some(before)) => {
            let after = manager.stats();
            FleetStats {
                events: after.events - before.events,
                local_answers: after.local_answers - before.local_answers,
                recomputes: after.recomputes - before.recomputes,
                batches: after.batches - before.batches,
                regions_survived: after.regions_survived - before.regions_survived,
                regions_punctured: after.regions_punctured - before.regions_punctured,
                ..FleetStats::default()
            }
        }
        _ => FleetStats::default(),
    };
    let maintenance = {
        let after = state.engine.maintenance_stats();
        let b = maintenance_before;
        MaintenanceStatsSnapshot {
            updates_applied: after.updates_applied - b.updates_applied,
            batches: after.batches - b.batches,
            lists_rewritten: after.lists_rewritten - b.lists_rewritten,
            tuple_relocations: after.tuple_relocations - b.tuple_relocations,
            logical_reads: after.logical_reads - b.logical_reads,
            pages_written: after.pages_written - b.pages_written,
            ..MaintenanceStatsSnapshot::default()
        }
    };
    let pages_growth = state.store_pages() - pages_before;
    let attempted = 2 * calls as u64;
    let mut failures = Failures::default();
    failures.errors(&plain);
    failures.errors(&traced);
    // Issuing a call as its public steps must not change what it returns.
    failures.check(
        "traced calls answered differently than untraced ones",
        &plain.outputs,
        &traced.outputs,
    );

    // Queries whose cost the spans split into TA and solver. On a workload
    // whose timed call is one query these are the timed calls themselves;
    // elsewhere a fixed prefix of the workload's own queries.
    let engine = state.engine.with_config(config);
    let probe_queries: Vec<QueryVector> = if shape.queries_per_call == 0 {
        inputs
            .fleet
            .iter()
            .map(|(_, q)| q)
            .take(PROBE_QUERIES)
            .cloned()
            .collect()
    } else {
        let timed = &inputs.queries[shape.warmup_calls * shape.queries_per_call..];
        timed.iter().take(PROBE_QUERIES).cloned().collect()
    };
    let probe_queries = probe_queries.as_slice();
    // On those workloads: the plain latency of each probe query and the sum
    // of its two steps.
    let probed = if shape.items_per_call() == 1 {
        None
    } else {
        let mut plain_us = Vec::with_capacity(probe_queries.len());
        let mut split_us = Vec::with_capacity(probe_queries.len());
        for (op, query) in probe_queries.iter().enumerate() {
            // Bring the query's pages into the pool, then take turns at
            // going first.
            let _ = engine.query(query).map_err(err)?;
            for plain_turn in [op % 2 == 0, op % 2 != 0] {
                if plain_turn {
                    let started = Instant::now();
                    let _ = std::hint::black_box(engine.query(query).map_err(err)?);
                    plain_us.push(started.elapsed().as_secs_f64() * 1e6);
                } else {
                    let first_step = ctx.tracer.spans().len() + 1;
                    let _ = ctx
                        .span("probe.query", 0, op as u32, engine.index(), |ctx, root| {
                            query_in_two_steps(&engine, query, config, ctx, root, op as u32)
                        })
                        .map_err(err)?;
                    let steps = &ctx.tracer.spans()[first_step..];
                    split_us.push(steps.iter().map(|s| s.duration_ns() as f64 / 1e3).sum());
                }
            }
        }
        Some((plain_us, split_us))
    };

    // Per-layer probes.
    let storage = probes::storage(&scratch.subdir("probe")?)?;
    let index = state.engine.index();
    let (open_cursor_ns, cursor_ns_per_entry, _) = probes::cursors(index, probe_queries)?;
    let fetch_ns = probes::tuple_fetch(index)?;
    let snapshot = probes::snapshot(&state.engine, &scratch.subdir("snapshot")?)?;
    let (envelope_ns_per_line, sweep_ns_per_event) = probes::geometry();
    let local_check_ns = probes::local_check(&engine, &probe_queries[0])?;
    let cached: Vec<(QueryVector, RegionReport)> = probe_queries
        .iter()
        .take(32)
        .map(|q| engine.query(q).map(|r| (q.clone(), r)))
        .collect::<EngineResult<_>>()
        .map_err(err)?;
    let update_impact_ns = probes::update_impact_ns(&engine, &inputs.dataset, &cached)?;
    let parallel_speedup = probes::parallel_speedup(&engine, probe_queries)?;
    let calibration_ns = probes::calibration_ns();

    // Derive the workload's own layer metrics from spans and counters.
    let tracer = &ctx.tracer;
    let counts = &ctx.counts;
    let ta_us = span_durations_us(tracer, "ta.execute");
    let solve_us = span_durations_us(tracer, "core.solve");
    let (plain_query_us, split_query_us) = probed.unwrap_or_else(|| {
        let split_us = ta_us.iter().zip(&solve_us).map(|(t, s)| t + s).collect();
        (plain.latencies_us.clone(), split_us)
    });
    let queries = counts.queries as f64;
    let roots: Vec<_> = tracer.spans().iter().filter(|s| s.name == "call").collect();
    let logical: u64 = roots.iter().map(|s| s.io.logical_reads).sum();
    let physical: u64 = roots.iter().map(|s| s.io.physical_reads).sum();
    let logical_per_op = logical as f64 / items;
    let physical_per_op = physical as f64 / items;
    let item_ns = plain.total_s() * 1e9 / items;
    let write_us: f64 = span_durations_us(tracer, "engine.apply_updates")
        .iter()
        .sum::<f64>();
    let revalidate_us = span_durations_us(tracer, "fleet.revalidate");
    let query_after_update_us = span_durations_us(tracer, "engine.query");
    let ingest_us: f64 = span_durations_us(tracer, "fleet.ingest").iter().sum();
    let updates = maintenance.updates_applied as f64;
    let screened = (fleet.regions_survived + fleet.regions_punctured) as f64;

    let m = Metric::new;
    let metrics = vec![
        m("host.calibration_ns", calibration_ns, "ns"),
        m("datagen.dataset_s", dataset_s, "s"),
        m("datagen.inputs_s", inputs_s, "s"),
        m("index.build_s", build_s, "s"),
        m("index.build_pages", build_pages as f64, "pages"),
        m("snapshot.save_s", snapshot.save_s, "s"),
        m("snapshot.open_s", snapshot.open_s, "s"),
        m(
            "snapshot.open_bytes_decoded",
            snapshot.open_bytes_decoded,
            "bytes",
        ),
        m("pagestore.mem_read_ns", storage.mem_read_ns, "ns"),
        m("pagestore.file_read_ns", storage.file_read_ns, "ns"),
        m("buffer.hit_ns", storage.hit_ns, "ns"),
        m("buffer.hit_ns_t2", storage.hit_ns_t2, "ns"),
        m("buffer.miss_ns", storage.miss_ns, "ns"),
        m("buffer.logical_reads_per_op", logical_per_op, "count"),
        m("buffer.physical_reads_per_op", physical_per_op, "count"),
        m(
            "buffer.hit_ratio",
            1.0 - ratio(physical as f64, logical as f64),
            "ratio",
        ),
        m(
            "buffer.page_bytes_copied_per_op",
            physical_per_op * PAGE_SIZE as f64,
            "bytes",
        ),
        m("inverted.open_cursor_ns", open_cursor_ns, "ns"),
        m("inverted.cursor_ns_per_entry", cursor_ns_per_entry, "ns"),
        m("tuplestore.fetch_ns", fetch_ns, "ns"),
        m("ta.execute_us", p50(&ta_us), "us"),
        m(
            "ta.sorted_accesses_per_op",
            ratio(counts.sorted_accesses as f64, queries),
            "count",
        ),
        m(
            "ta.random_accesses_per_op",
            ratio(counts.random_accesses as f64, queries),
            "count",
        ),
        m(
            "ta.candidates_per_op",
            ratio(counts.candidates as f64, queries),
            "count",
        ),
        m("core.solve_us", p50(&solve_us), "us"),
        m(
            "core.evaluated_per_dim",
            ratio(counts.evaluated as f64, counts.dims as f64),
            "count",
        ),
        m(
            "core.phase3_tuples_per_op",
            ratio(counts.phase3_tuples as f64, queries),
            "count",
        ),
        m(
            "core.memory_kb",
            ratio(counts.memory_bytes as f64, queries) / 1024.0,
            "KiB",
        ),
        m("core.parallel_speedup_t2", parallel_speedup, "ratio"),
        m("core.update_impact_ns", update_impact_ns, "ns"),
        m("geometry.envelope_ns_per_line", envelope_ns_per_line, "ns"),
        m("geometry.sweep_ns_per_event", sweep_ns_per_event, "ns"),
        m(
            "engine.overhead_us",
            p50(&plain_query_us) - p50(&split_query_us),
            "us",
        ),
        m(
            "engine.query_after_update_us",
            p50(&query_after_update_us),
            "us",
        ),
        m(
            "engine.apply_updates_us_per_batch",
            ratio(
                write_us + revalidate_us.iter().sum::<f64>(),
                maintenance.batches as f64,
            ),
            "us",
        ),
        m(
            "maintain.apply_us_per_update",
            ratio(write_us, updates),
            "us",
        ),
        m(
            "maintain.pages_written_per_update",
            ratio(maintenance.pages_written as f64, updates),
            "count",
        ),
        m(
            "maintain.logical_reads_per_update",
            ratio(maintenance.logical_reads as f64, updates),
            "count",
        ),
        m(
            "maintain.lists_rewritten_per_update",
            ratio(maintenance.lists_rewritten as f64, updates),
            "count",
        ),
        m(
            "maintain.relocations_per_kupdate",
            ratio(maintenance.tuple_relocations as f64 * 1e3, updates),
            "count",
        ),
        m("maintain.store_pages_growth", pages_growth as f64, "pages"),
        m("fleet.local_check_ns", local_check_ns, "ns"),
        m(
            "fleet.hit_ratio",
            ratio(fleet.local_answers as f64, fleet.events as f64),
            "ratio",
        ),
        m(
            "fleet.recomputes_per_event",
            ratio(fleet.recomputes as f64, fleet.events as f64),
            "count",
        ),
        m(
            "fleet.mean_batch",
            ratio(fleet.recomputes as f64, fleet.batches as f64),
            "count",
        ),
        m(
            "fleet.flush_us_per_recompute",
            ratio(ingest_us, fleet.recomputes as f64),
            "us",
        ),
        m(
            "fleet.admit_us_per_sub",
            ratio(admit_s * 1e6, shape.fleet_size as f64),
            "us",
        ),
        m("fleet.revalidate_us_per_batch", p50(&revalidate_us), "us"),
        m(
            "fleet.survival_ratio",
            ratio(fleet.regions_survived as f64, screened),
            "ratio",
        ),
        m(
            "storage.est_share_pct",
            100.0 * (logical_per_op * storage.hit_ns + physical_per_op * storage.miss_ns) / item_ns,
            "%",
        ),
        m(
            "trace.overhead_pct",
            100.0 * (traced.total_s() - plain.total_s()) / traced.total_s(),
            "%",
        ),
    ];

    let trace_dir = opts.out_dir.join("trace");
    std::fs::create_dir_all(&trace_dir).map_err(err)?;
    ctx.tracer
        .write_json(
            workload.name(),
            &trace_dir.join(format!("{}.spans.json", workload.name())),
        )
        .map_err(err)?;

    Ok(RunReport {
        fingerprint: inputs.fingerprint(),
        calls,
        items_per_call: shape.items_per_call(),
        passes: 2,
        tail_pct: shape.tail_pct(calls),
        attempted,
        failed: failures.count,
        problems: failures.problems,
        metrics,
        counts: vec![
            ("calls", calls as u64),
            ("spans", ctx.tracer.spans().len() as u64),
            ("logical_reads", logical),
            ("sorted_accesses", counts.sorted_accesses),
            ("random_accesses", counts.random_accesses),
            ("evaluated_candidates", counts.evaluated),
        ],
    })
}
