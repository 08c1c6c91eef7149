//! One workload in one process: set-up, the closed-loop timed passes, the
//! correctness checks and the metrics of either the untraced run (end to
//! end) or the traced run (per layer).
//!
//! Load shape: one client; the next call is issued when the previous one
//! returns. A pass replays the same call sequence; a call's latency is its
//! minimum over passes and percentiles are taken across calls.

use crate::oracle::{check_against_oracle, Failures};
use crate::stats;
use crate::sys::{self, ScratchDir};
use crate::trace::Tracer;
use crate::traced::run_traced;
use crate::workload::{Fingerprint, Inputs, Scale, Workload};
use immutable_regions::engine::{EngineResult, IrEngine};
use immutable_regions::fleet::{FleetAnswer, FleetConfig, SubscriptionManager};
use ir_core::{Algorithm, DimRegions, RegionConfig, RegionReport};
use ir_storage::{IoStatsSnapshot, PageId, StorageBackend, TopKIndex, PAGE_SIZE};
use ir_types::QueryVector;
use std::path::PathBuf;
use std::time::Instant;

/// How often the untraced run sets the workload up (the median is reported).
const SETUP_REPS: usize = 3;

pub struct RunOpts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub scale: Scale,
    pub out_dir: PathBuf,
    /// Test hook: falsify one expected report so the oracle check must fail.
    pub corrupt_oracle: bool,
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

pub struct RunReport {
    pub fingerprint: Fingerprint,
    pub calls: usize,
    pub items_per_call: usize,
    pub passes: usize,
    pub tail_pct: f64,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Exact counters: equal between two runs of one seed on one build.
    pub counts: Vec<(&'static str, u64)>,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

pub(crate) fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The region configuration a workload's queries run with.
pub(crate) fn region_config(workload: Workload) -> RegionConfig {
    match workload {
        Workload::WsjPhi3Warm => RegionConfig::with_phi(Algorithm::Cpt, 3),
        _ => RegionConfig::default(),
    }
}

/// Engine and fleet state of one workload, rebuilt by every set-up.
pub(crate) struct State {
    pub engine: IrEngine,
    pub manager: Option<SubscriptionManager>,
    pub build_s: f64,
    pub admit_s: f64,
}

impl State {
    pub fn store_pages(&self) -> u64 {
        u64::from(self.engine.index().pool().store().num_pages())
    }

    pub fn io(&self) -> IoStatsSnapshot {
        self.engine.index().io_snapshot()
    }
}

/// What one timed call returned.
#[derive(PartialEq)]
pub(crate) enum Output {
    Regions(Vec<Vec<DimRegions>>),
    Answers(Vec<FleetAnswer>),
}

/// Sums of the per-query counters the traced run reads at layer boundaries.
#[derive(Default)]
pub(crate) struct QueryCounts {
    pub queries: u64,
    pub sorted_accesses: u64,
    pub random_accesses: u64,
    pub candidates: u64,
    pub evaluated: u64,
    pub dims: u64,
    pub phase3_tuples: u64,
    pub memory_bytes: u64,
}

/// Span recorder plus the counters collected alongside it.
pub(crate) struct TraceCtx {
    pub tracer: Tracer,
    pub counts: QueryCounts,
}

impl TraceCtx {
    /// Runs `step` under a span named `name`, with the index's I/O counters
    /// read at both boundaries. `step` receives the span's id as the parent
    /// for spans of its own.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u32,
        index: &TopKIndex,
        step: impl FnOnce(&mut TraceCtx, u32) -> T,
    ) -> T {
        let span = self.tracer.begin(name, parent, op, index.io_snapshot());
        let result = step(self, span);
        self.tracer.end(span, index.io_snapshot());
        result
    }
}

fn build_state(
    workload: Workload,
    inputs: &Inputs,
    scale: Scale,
    scratch: &ScratchDir,
    slot: &str,
) -> Result<State, String> {
    let builder = IrEngine::builder().dataset_ref(&inputs.dataset);
    let builder = match workload {
        // The whole index (14 k pages) fits the pool: zero physical reads.
        Workload::WsjCptWarm | Workload::WsjPhi3Warm => builder.pool_capacity(16_384),
        // Under 2 % of the index fits: every query pays the page path.
        Workload::WsjCptFileSmallPool => builder
            .backend(StorageBackend::Disk(scratch.subdir(slot)?))
            .pool_capacity(match scale {
                Scale::Full => 256,
                Scale::Smoke => 8,
            }),
        // The default engine configuration under two workers.
        Workload::WsjBatchT2 => builder.threads(2),
        Workload::StFleetDrift => builder.pool_capacity(8_192),
        Workload::WsjUpdateMix => builder,
    };
    let started = Instant::now();
    let engine = builder.build().map_err(err)?;
    let build_s = started.elapsed().as_secs_f64();
    if matches!(
        workload,
        Workload::WsjCptWarm | Workload::WsjPhi3Warm | Workload::StFleetDrift
    ) {
        // "Warm" means the pool holds the whole index before the first
        // call, not only the pages the warm-up calls happen to touch.
        let pool = engine.index().pool();
        for page in 0..pool.store().num_pages() {
            pool.read(PageId(page)).map_err(err)?;
        }
    }

    let started = Instant::now();
    let manager = if inputs.fleet.is_empty() {
        None
    } else {
        let config = FleetConfig {
            max_batch: 16,
            ..FleetConfig::default()
        };
        let mut manager = SubscriptionManager::new(&engine, config).map_err(err)?;
        manager
            .admit_all(inputs.fleet.iter().cloned())
            .map_err(err)?;
        Some(manager)
    };
    let admit_s = started.elapsed().as_secs_f64();
    Ok(State {
        engine,
        manager,
        build_s,
        admit_s,
    })
}

/// Builds the state (a file-backed index goes to `slot` of the scratch area)
/// and runs the warm-up calls.
pub(crate) fn prepare(
    opts: &RunOpts,
    inputs: &Inputs,
    scratch: &ScratchDir,
    slot: &str,
) -> Result<State, String> {
    let mut state = build_state(opts.workload, inputs, opts.scale, scratch, slot)?;
    for call in 0..opts.workload.shape().warmup_calls {
        issue(opts.workload, &mut state, inputs, call, None).map_err(err)?;
    }
    Ok(state)
}

/// Generates the inputs and prepares the state: everything between process
/// start and the first timed call, with the seconds it took.
fn set_up(opts: &RunOpts, scratch: &ScratchDir) -> Result<(Inputs, State, f64), String> {
    let started = Instant::now();
    let inputs =
        Inputs::generate(opts.workload, opts.seed, opts.seconds, opts.scale).map_err(err)?;
    let state = prepare(opts, &inputs, scratch, "index")?;
    Ok((inputs, state, started.elapsed().as_secs_f64()))
}

/// The two public steps `IrEngine::query_with` takes, each under its own
/// span, with the counters only the intermediate handle exposes.
pub(crate) fn query_in_two_steps(
    engine: &IrEngine,
    query: &QueryVector,
    config: RegionConfig,
    ctx: &mut TraceCtx,
    parent: u32,
    op: u32,
) -> EngineResult<RegionReport> {
    let index = engine.index();
    let mut computation = ctx.span("ta.execute", parent, op, index, |_, _| {
        engine.computation_with(query, config)
    })?;
    let report = ctx.span("core.solve", parent, op, index, |_, _| {
        computation.compute()
    })?;

    let ta = computation.ta().stats();
    let counts = &mut ctx.counts;
    counts.queries += 1;
    counts.sorted_accesses += ta.sorted_accesses;
    counts.random_accesses += ta.random_accesses;
    counts.candidates += report.stats.initial_candidates as u64;
    counts.evaluated += report.stats.evaluated_candidates;
    counts.dims += report.stats.evaluated_per_dim.len() as u64;
    counts.phase3_tuples += report.stats.phase3_tuples;
    counts.memory_bytes += report.stats.memory_footprint_bytes as u64;
    Ok(report)
}

/// Issues call `call` of the workload's sequence. With a trace context the
/// call is issued as the public steps the engine itself takes, each under a
/// child span of `root`.
fn issue(
    workload: Workload,
    state: &mut State,
    inputs: &Inputs,
    call: usize,
    trace: Option<(&mut TraceCtx, u32)>,
) -> EngineResult<Output> {
    let shape = workload.shape();
    let op = call as u32;
    let queries = &inputs.queries[call * shape.queries_per_call..][..shape.queries_per_call];
    let config = region_config(workload);
    let engine = &state.engine;
    let index = engine.index();
    match workload {
        Workload::WsjCptWarm | Workload::WsjCptFileSmallPool | Workload::WsjPhi3Warm => {
            let report = match trace {
                None => engine.query_with(&queries[0], config)?,
                Some((ctx, root)) => {
                    query_in_two_steps(engine, &queries[0], config, ctx, root, op)?
                }
            };
            Ok(Output::Regions(vec![report.dims]))
        }
        Workload::WsjBatchT2 => {
            let reports = match trace {
                None => engine.query_batch(queries)?,
                Some((ctx, root)) => ctx.span("engine.query_batch", root, op, index, |_, _| {
                    engine.query_batch(queries)
                })?,
            };
            Ok(Output::Regions(
                reports.into_iter().map(|r| r.dims).collect(),
            ))
        }
        Workload::StFleetDrift => {
            let events = &inputs.drift[call * shape.events_per_call..][..shape.events_per_call];
            let manager = state
                .manager
                .as_mut()
                .expect("fleet workload has a manager");
            let answers = match trace {
                None => manager.ingest(events)?,
                Some((ctx, root)) => ctx.span("fleet.ingest", root, op, index, |_, _| {
                    manager.ingest(events)
                })?,
            };
            Ok(Output::Answers(answers))
        }
        Workload::WsjUpdateMix => {
            let updates =
                &inputs.updates[call * shape.updates_per_call..][..shape.updates_per_call];
            let manager = state
                .manager
                .as_mut()
                .expect("update workload has a manager");
            let mut regions = Vec::with_capacity(queries.len());
            match trace {
                None => {
                    manager.apply_updates(updates)?;
                    for query in queries {
                        regions.push(engine.query(query)?.dims);
                    }
                }
                Some((ctx, root)) => {
                    // The same two calls `SubscriptionManager::apply_updates`
                    // makes, so the write half splits into index maintenance
                    // and region revalidation.
                    let applied = ctx.span("engine.apply_updates", root, op, index, |_, _| {
                        engine.apply_updates(updates)
                    })?;
                    ctx.span("fleet.revalidate", root, op, index, |_, _| {
                        manager.revalidate(&applied)
                    })?;
                    for query in queries {
                        let report = ctx.span("engine.query", root, op, index, |ctx, span| {
                            query_in_two_steps(engine, query, config, ctx, span, op)
                        })?;
                        regions.push(report.dims);
                    }
                }
            }
            Ok(Output::Regions(regions))
        }
    }
}

/// Latencies, outputs and errors of the timed calls issued so far.
#[derive(Default)]
pub(crate) struct Calls {
    pub latencies_us: Vec<f64>,
    pub outputs: Vec<Option<Output>>,
    pub errors: Vec<String>,
}

impl Calls {
    /// Issues and times call `call`; with a trace context, under a root span.
    pub fn issue(
        &mut self,
        workload: Workload,
        state: &mut State,
        inputs: &Inputs,
        call: usize,
        trace: Option<&mut TraceCtx>,
    ) {
        let started = Instant::now();
        let result = match trace {
            None => issue(workload, state, inputs, call, None),
            Some(ctx) => {
                let index = std::sync::Arc::clone(state.engine.index());
                ctx.span("call", 0, call as u32, &index, |ctx, root| {
                    issue(workload, state, inputs, call, Some((ctx, root)))
                })
            }
        };
        self.latencies_us
            .push(started.elapsed().as_secs_f64() * 1e6);
        match result {
            Ok(output) => self.outputs.push(Some(output)),
            Err(e) => {
                self.errors.push(format!("call {call}: {e}"));
                self.outputs.push(None);
            }
        }
    }

    pub fn total_s(&self) -> f64 {
        self.latencies_us.iter().sum::<f64>() / 1e6
    }
}

/// One untraced pass over the timed calls.
struct Pass {
    calls: Calls,
    wall_s: f64,
    cpu_s: f64,
    io: IoStatsSnapshot,
}

fn run_pass(
    workload: Workload,
    state: &mut State,
    inputs: &Inputs,
    timed_calls: usize,
) -> Result<Pass, String> {
    let warmup = workload.shape().warmup_calls;
    let mut calls = Calls::default();
    let io_before = state.io();
    let cpu_before = sys::cpu_seconds()?;
    let started = Instant::now();
    for call in warmup..warmup + timed_calls {
        calls.issue(workload, state, inputs, call, None);
    }
    Ok(Pass {
        calls,
        wall_s: started.elapsed().as_secs_f64(),
        cpu_s: sys::cpu_seconds()? - cpu_before,
        io: state.io().since(&io_before),
    })
}

/// Runs one workload and returns its report.
pub fn run(opts: &RunOpts) -> Result<RunReport, String> {
    let scratch = ScratchDir::create(&opts.out_dir)?;
    if opts.traced {
        run_traced(opts, &scratch)
    } else {
        run_untraced(opts, &scratch)
    }
}

fn run_untraced(opts: &RunOpts, scratch: &ScratchDir) -> Result<RunReport, String> {
    let workload = opts.workload;
    let shape = workload.shape();
    let (setup_reps, max_passes) = match opts.scale {
        Scale::Full => (SETUP_REPS, shape.passes),
        Scale::Smoke => (1, 1),
    };

    let mut setups_s = Vec::new();
    let (mut inputs, mut state, setup_s) = set_up(opts, scratch)?;
    setups_s.push(setup_s);
    let calls = inputs.timed_calls;
    let items = (calls * shape.items_per_call()) as f64;

    let mut best_us = vec![f64::INFINITY; calls];
    let mut best_wall_s = f64::INFINITY;
    let (mut cpu_s, mut passes) = (0.0, 0usize);
    let mut attempted = 0u64;
    let mut failures = Failures::default();
    let mut reference: Option<Pass> = None;
    let last = loop {
        if passes > 0 && workload.mutates() {
            drop(state);
            let (i, s, setup_s) = set_up(opts, scratch)?;
            (inputs, state) = (i, s);
            setups_s.push(setup_s);
        }
        let pass = run_pass(workload, &mut state, &inputs, calls)?;
        passes += 1;
        attempted += calls as u64;
        failures.errors(&pass.calls);
        stats::merge_min(&mut best_us, &pass.calls.latencies_us);
        best_wall_s = best_wall_s.min(pass.wall_s);
        cpu_s += pass.cpu_s;
        // Every pass must produce what the first one did.
        if let Some(first) = &reference {
            failures.check(
                "calls answered differently than in the first pass",
                &first.calls.outputs,
                &pass.calls.outputs,
            );
            if first.io.logical_reads != pass.io.logical_reads {
                failures.fail(
                    1,
                    format!(
                        "pass {passes} made {} logical reads, the first {}",
                        pass.io.logical_reads, first.io.logical_reads
                    ),
                );
            }
        }
        if passes == max_passes {
            break pass;
        }
        reference.get_or_insert(pass);
    };
    let logical_reads = last.io.logical_reads;
    let store_pages = state.store_pages();

    // The dataset the index must now be equivalent to.
    let applied = (shape.warmup_calls + calls) * shape.updates_per_call;
    let updated = match applied {
        0 => None,
        _ => Some(
            inputs
                .dataset
                .with_updates(&inputs.updates[..applied])
                .map_err(err)?,
        ),
    };
    let live = updated.as_ref().unwrap_or(&inputs.dataset);
    let live_bytes = Inputs::data_bytes(live);

    attempted += check_against_oracle(
        opts,
        &inputs,
        live,
        state,
        &last.calls.outputs,
        &mut failures,
    )?;
    drop(updated);
    let fingerprint = inputs.fingerprint();
    drop(last);
    drop(reference);

    // Top the set-up samples up; each repetition frees its state before the
    // next one builds, as a restarted process would.
    while setups_s.len() < setup_reps {
        drop(inputs);
        let (i, state, setup_s) = set_up(opts, scratch)?;
        inputs = i;
        drop(state);
        setups_s.push(setup_s);
    }

    let sorted_us = stats::sorted(&best_us);
    let tail_pct = shape.tail_pct(calls);
    let total_items = items * passes as f64;
    let metrics = vec![
        Metric::new("setup_s", stats::median(&setups_s), "s"),
        Metric::new("ops_per_s", items / best_wall_s, "1/s"),
        Metric::new("call_p50_us", stats::percentile(&sorted_us, 50.0), "us"),
        Metric::new(
            "call_tail_us",
            stats::percentile(&sorted_us, tail_pct),
            "us",
        ),
        Metric::new("cpu_ms_per_op", cpu_s * 1e3 / total_items, "ms"),
        Metric::new("peak_rss_mb", sys::peak_rss_mib()?, "MiB"),
        Metric::new(
            "stored_bytes_per_data_byte",
            (store_pages * PAGE_SIZE as u64) as f64 / live_bytes as f64,
            "ratio",
        ),
        Metric::new(
            "ok_ratio",
            1.0 - failures.count as f64 / attempted as f64,
            "ratio",
        ),
    ];
    Ok(RunReport {
        fingerprint,
        calls,
        items_per_call: shape.items_per_call(),
        passes,
        tail_pct,
        attempted,
        failed: failures.count,
        problems: failures.problems,
        metrics,
        counts: vec![
            ("calls", calls as u64),
            ("items", items as u64),
            ("store_pages", store_pages),
            ("live_data_bytes", live_bytes),
            ("logical_reads_per_pass", logical_reads),
        ],
    })
}
