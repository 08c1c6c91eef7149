//! Parallel execution of region computations.
//!
//! Parallelism is per query: [`run_queries`] runs *many* jobs concurrently,
//! and a batch of region computations gives each worker the one
//! sequential solve ([`crate::RegionComputation::compute`]) for its query,
//! all over one warm buffer pool. Within a query the dimensions stay
//! sequential, because they share `C(q)` and the tuples Phase 3 discovers.
//!
//! **Determinism.** Batch output is byte-for-byte identical for every
//! worker count: results are merged by job index, never by completion
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
//! batch made.

use ir_types::{IrError, IrResult};
use parking_lot::Mutex;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
