//! Parallel execution of region computations.
//!
//! Parallelism is per query: [`BatchRegionComputation`] runs *many* queries
//! concurrently over one warm buffer pool, each worker running the one
//! sequential solve ([`RegionComputation::compute`]) for its query. Within
//! a query the dimensions stay sequential, because they share `C(q)` and
//! the tuples Phase 3 discovers.
//!
//! **Determinism.** Batch output is byte-for-byte identical for every
//! worker count: results are merged by query index, never by completion
//! order, and each report equals the sequential oracle's exactly (regions
//! *and* candidate counts). Only wall-clock time and physical-read counts
//! (cache-state dependent) may vary between runs.
//!
//! **Panic containment.** Every job runs under `catch_unwind`: a panicking
//! worker job surfaces as a typed [`ir_types::IrError::WorkerPanicked`] in
//! that job's result slot, other jobs complete normally, and no mutex is
//! ever poisoned (the collection locks are `parking_lot` locks, which have
//! no poisoning at all) — the process and the driver stay fully serviceable.
//!
//! **I/O attribution.** Counters travel with the work, not the thread: each
//! query's cursors, TA run and evaluator tally their own page accesses, and
//! a report's `io` / `topk_io` is the sum of those tallies. A report's I/O
//! is therefore exactly its own however many workers or other callers share
//! the buffer pool, and the reports of a batch sum to every access the
//! batch made ([`BatchOutcome::total_io`]).

use crate::compute::RegionComputation;
use crate::config::RegionConfig;
use crate::region::RegionReport;
use ir_storage::{IoStatsSnapshot, TopKIndex};
use ir_topk::TaConfig;
use ir_types::{IrError, IrResult, QueryVector};
use parking_lot::Mutex;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Best-effort extraction of a human-readable message from a panic payload
/// (the `&str`/`String` payloads `panic!` produces; anything else becomes a
/// placeholder).
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `job(i)`, converting a panic into a typed
/// [`IrError::WorkerPanicked`] naming the job as `"{label} {i}"`.
fn run_contained<T, F>(label: &str, i: usize, job: &F) -> IrResult<T>
where
    F: Fn(usize) -> IrResult<T> + Sync,
{
    match catch_unwind(AssertUnwindSafe(|| job(i))) {
        Ok(result) => result,
        Err(payload) => Err(IrError::WorkerPanicked {
            job: format!("{label} {i}"),
            message: panic_message(payload.as_ref()),
        }),
    }
}

/// Runs `n` jobs on up to `threads` workers and returns the per-job results
/// **in job order**.
///
/// The driver is a scoped work-stealing pool: workers pull the next
/// unclaimed job index from a shared atomic counter until none remain, so
/// an uneven job mix self-balances. With `threads <= 1` (or a single job)
/// everything runs inline on the caller — bit-identical to the threaded
/// path, because job results never depend on which worker ran them.
///
/// **Panic containment.** Each job runs under `catch_unwind`: a panicking
/// job becomes an `Err(`[`IrError::WorkerPanicked`]`)` in its slot of the
/// result vector (named `"{label} {i}"`), the worker moves on to the next
/// job, and no lock is ever poisoned — the process survives and every other
/// job's result is unaffected.
pub fn run_queries<T, F>(threads: usize, n: usize, label: &str, job: F) -> Vec<IrResult<T>>
where
    T: Send,
    F: Fn(usize) -> IrResult<T> + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 {
        return (0..n).map(|i| run_contained(label, i, &job)).collect();
    }

    let next_job = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, IrResult<T>)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let job = &job;
            let next_job = &next_job;
            let collected = &collected;
            scope.spawn(move || {
                let mut local = Vec::new();
                loop {
                    let i = next_job.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, run_contained(label, i, job)));
                }
                collected.lock().extend(local);
            });
        }
    });
    let mut items = collected.into_inner();
    items.sort_by_key(|(i, _)| *i);
    items.into_iter().map(|(_, item)| item).collect()
}

/// The outcome of a [`BatchRegionComputation`] run: the per-query reports
/// (in query order) plus batch-level bookkeeping.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// One report per input query, in input order regardless of which
    /// worker finished when.
    pub reports: Vec<RegionReport>,
    /// Wall-clock time of the whole batch.
    pub wall_time: Duration,
}

impl BatchOutcome {
    /// The batch-wide I/O: the sum of every report's `topk_io` and `io`,
    /// which is every page access the batch made.
    pub fn total_io(&self) -> IoStatsSnapshot {
        self.reports
            .iter()
            .fold(IoStatsSnapshot::default(), |acc, r| {
                acc.plus(&r.stats.topk_io).plus(&r.stats.io)
            })
    }
}

/// Runs many queries concurrently over one shared index and warm buffer
/// pool — the "serve heavy traffic" entry point.
///
/// ```
/// use ir_core::{parallel::BatchRegionComputation, RegionConfig};
/// use ir_storage::IndexBuilder;
/// use ir_types::{Dataset, QueryVector};
///
/// let dataset = Dataset::running_example();
/// let index = IndexBuilder::new().build_shared(&dataset).unwrap();
/// let queries = vec![QueryVector::running_example(); 4];
/// let batch = BatchRegionComputation::new(&index, RegionConfig::default()).with_threads(2);
/// let reports = batch.run(&queries).unwrap();
/// assert_eq!(reports.len(), 4);
/// // Deterministic: every worker count yields identical regions.
/// let sequential = BatchRegionComputation::new(&index, RegionConfig::default())
///     .run(&queries)
///     .unwrap();
/// assert!(reports
///     .iter()
///     .zip(&sequential)
///     .all(|(a, b)| a.dims == b.dims));
/// ```
#[derive(Clone)]
#[must_use = "a batch runner does nothing until `run` is called"]
pub struct BatchRegionComputation {
    index: Arc<TopKIndex>,
    config: RegionConfig,
    ta_config: TaConfig,
    threads: usize,
}

impl BatchRegionComputation {
    /// Creates a batch runner over `index` with one worker (sequential).
    /// The runner shares ownership of the index, so an owning service can
    /// store it or move it across threads.
    pub fn new(index: &Arc<TopKIndex>, config: RegionConfig) -> Self {
        BatchRegionComputation {
            index: Arc::clone(index),
            config,
            ta_config: TaConfig::default(),
            threads: 1,
        }
    }

    /// Sets the worker count (clamped to at least 1; the driver never runs
    /// more workers than there are queries). Regions and deterministic
    /// counters are identical for every value; only wall-clock time and
    /// cache-dependent physical reads change.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Overrides the TA configuration used for every query.
    pub fn with_ta_config(mut self, ta_config: TaConfig) -> Self {
        self.ta_config = ta_config;
        self
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The region configuration every query runs with.
    pub fn config(&self) -> RegionConfig {
        self.config
    }

    /// Runs every query and returns the reports in query order.
    pub fn run(&self, queries: &[QueryVector]) -> IrResult<Vec<RegionReport>> {
        self.run_detailed(queries).map(|outcome| outcome.reports)
    }

    /// Runs every query, also returning the batch wall-clock time.
    pub fn run_detailed(&self, queries: &[QueryVector]) -> IrResult<BatchOutcome> {
        let started = Instant::now();
        let results = run_queries(self.threads, queries.len(), "query", |query_index| {
            let mut computation = RegionComputation::with_ta_config(
                &self.index,
                &queries[query_index],
                self.config,
                &self.ta_config,
            )?;
            // Each query runs the plain sequential solve on its worker:
            // a query is self-contained, so the report (regions *and*
            // candidate counts) is exactly what the sequential oracle
            // produces, for every worker count.
            computation.compute()
        });
        let reports = results.into_iter().collect::<IrResult<Vec<_>>>()?;
        Ok(BatchOutcome {
            reports,
            wall_time: started.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Algorithm;
    use ir_types::{Dataset, DatasetBuilder};

    /// Silences the default panic hook for deliberately injected panics
    /// (spawned worker threads are outside libtest's output capture);
    /// everything else still reaches the default hook.
    fn quiet_panics() {
        use std::sync::Once;
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            let default = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if !panic_message(info.payload()).contains("injected fault") {
                    default(info);
                }
            }));
        });
    }

    fn medium_dataset() -> Dataset {
        let mut builder = DatasetBuilder::new(5);
        for i in 0..160u32 {
            let pairs: Vec<(u32, f64)> = (0..5u32)
                .map(|d| (d, (((i * 31 + d * 17) % 97) + 1) as f64 / 98.0))
                .collect();
            builder.push_pairs(pairs).unwrap();
        }
        builder.build()
    }

    fn queries(k: usize) -> Vec<QueryVector> {
        (0..6u32)
            .map(|i| {
                QueryVector::new(
                    [
                        (i % 5, 0.2 + 0.1 * (i % 4) as f64),
                        ((i + 1) % 5, 0.9 - 0.1 * (i % 3) as f64),
                        ((i + 2) % 5, 0.5),
                    ],
                    k,
                )
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn run_queries_preserves_job_order() {
        for threads in [1usize, 2, 5] {
            let items = run_queries(threads, 9, "job", |i| Ok(i * i));
            let items: Vec<usize> = items.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(items, (0..9).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_queries_contains_panics_per_job() {
        // Suppress the default panic hook's stderr spam for the injected
        // panics; the hook is process-global, so set it once.
        quiet_panics();
        for threads in [1usize, 2, 8] {
            let items = run_queries(threads, 9, "job", |i| {
                if i == 4 {
                    panic!("injected fault: job four exploded");
                }
                Ok(i)
            });
            assert_eq!(items.len(), 9);
            for (i, item) in items.iter().enumerate() {
                if i == 4 {
                    let err = item.as_ref().unwrap_err();
                    match err {
                        IrError::WorkerPanicked { job, message } => {
                            assert_eq!(job, "job 4");
                            assert!(message.contains("exploded"), "{message}");
                        }
                        other => panic!("expected WorkerPanicked, got: {other}"),
                    }
                } else {
                    assert_eq!(*item.as_ref().unwrap(), i, "threads = {threads}");
                }
            }
        }
        // The driver is reusable after a panic: no poisoned state anywhere.
        let items = run_queries(4, 3, "job", Ok);
        assert!(items.into_iter().all(|r| r.is_ok()));
    }

    #[test]
    fn panic_message_extracts_common_payloads() {
        let from_str = std::panic::catch_unwind(|| panic!("plain &str")).unwrap_err();
        assert_eq!(panic_message(from_str.as_ref()), "plain &str");
        let from_string = std::panic::catch_unwind(|| panic!("formatted {}", 42)).unwrap_err();
        assert_eq!(panic_message(from_string.as_ref()), "formatted 42");
        let opaque = std::panic::catch_unwind(|| std::panic::panic_any(17u32)).unwrap_err();
        assert_eq!(panic_message(opaque.as_ref()), "non-string panic payload");
    }

    #[test]
    fn batch_reports_match_for_every_worker_count() {
        let dataset = medium_dataset();
        let index = Arc::new(ir_storage::TopKIndex::build_in_memory(&dataset).unwrap());
        let queries = queries(4);
        let baseline = BatchRegionComputation::new(&index, RegionConfig::flat(Algorithm::Cpt))
            .run(&queries)
            .unwrap();
        for threads in [2usize, 4, 8] {
            let reports = BatchRegionComputation::new(&index, RegionConfig::flat(Algorithm::Cpt))
                .with_threads(threads)
                .run(&queries)
                .unwrap();
            assert_eq!(reports.len(), baseline.len());
            for (a, b) in baseline.iter().zip(&reports) {
                assert_eq!(a.dims, b.dims, "threads = {threads}");
            }
        }
    }

    #[test]
    fn worker_tallies_sum_to_batch_io() {
        let dataset = medium_dataset();
        let index = Arc::new(ir_storage::TopKIndex::build_in_memory(&dataset).unwrap());
        index.cold_start();
        let before = index.io_snapshot();
        let outcome = BatchRegionComputation::new(&index, RegionConfig::default())
            .with_threads(3)
            .run_detailed(&queries(3))
            .unwrap();
        let total = index.io_snapshot().since(&before);
        assert_eq!(outcome.total_io(), total);
        assert!(total.logical_reads > 0);
    }
}
