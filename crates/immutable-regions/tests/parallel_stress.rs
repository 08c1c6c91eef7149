//! Concurrency stress suite: proptest-driven random query batches hammer
//! one shared index and buffer pool at several worker counts.
//!
//! Invariants under stress:
//!
//! * no worker panics and every query produces a report,
//! * the reports' I/O tallies sum to the pool's global delta (each access
//!   is counted once, by the unit of work that made it — nothing double
//!   counted, nothing dropped),
//! * a report's I/O is its own, however many callers share the pool, and
//!   maintenance I/O is the batch's own while queries run beside it,
//! * reports are identical across worker counts (determinism survives
//!   contention).

mod support;

use immutable_regions::prelude::*;
use ir_storage::{IoStatsSnapshot, PageId};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use support::*;

/// An index over `dataset` with a pool larger than its store, every page
/// read once, so that every later read of an existing page is a hit.
fn warm_index(dataset: &Dataset, config: RegionConfig) -> Arc<TopKIndex> {
    let cell = Cell::built(config, Mem, 1);
    let engine = engine_with(&cell, dataset, |builder| builder.pool_capacity(4096));
    let index = Arc::clone(engine.index());
    for page in 0..index.pool().store().num_pages() {
        index.pool().read(PageId(page)).unwrap();
    }
    index
}

/// Every page access a batch made: the sum of its reports' tallies.
fn total_io(reports: &[RegionReport]) -> IoStatsSnapshot {
    reports.iter().fold(IoStatsSnapshot::default(), |acc, r| {
        acc.plus(&r.stats.topk_io).plus(&r.stats.io)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10).with_seed(0x57E5_5001))]

    /// Random batches at 1/2/4/8 workers over one shared pool: the summed
    /// report tallies must equal the pool delta, and reports must not
    /// depend on the worker count.
    #[test]
    fn merged_worker_stats_equal_pool_delta(
        seed in 0u64..10_000,
        num_queries in 1usize..10,
        k in 1usize..6,
        phi in 0usize..3,
    ) {
        let dims = 5u32;
        let dataset = dense_dataset(seed, 120, dims);
        let config = RegionConfig::with_phi(Algorithm::Cpt, phi);
        let engine = engine(&Cell::built(config, Mem, 1), &dataset);
        let index = engine.index();
        let queries = dense_queries(seed, dims, num_queries, k);

        let mut baseline: Option<Vec<RegionReport>> = None;
        for workers in [1usize, 2, 4, 8] {
            let before = index.io_snapshot();
            let reports = engine.with_threads(workers).query_batch(&queries).unwrap();
            let delta = index.io_snapshot().since(&before);

            // What the reports tallied is exactly what the pool observed
            // — nothing lost, nothing double counted, even with every
            // worker on the same pool.
            prop_assert_eq!(total_io(&reports), delta, "workers = {}", workers);
            prop_assert!(delta.logical_reads > 0);
            prop_assert_eq!(reports.len(), queries.len());

            match &baseline {
                None => baseline = Some(reports),
                Some(expected) => {
                    for (e, r) in expected.iter().zip(&reports) {
                        prop_assert_eq!(&e.dims, &r.dims, "workers = {}", workers);
                    }
                }
            }
        }
    }
}

/// Two batches run *concurrently* against the same index: their combined
/// report tallies must still account for every page access the pool
/// served, and both must agree with a sequential reference run.
#[test]
fn concurrent_batches_share_one_pool_losslessly() {
    let dims = 5u32;
    let dataset = dense_dataset(0xFEED, 200, dims);
    let engine = engine(&Cell::built(RegionConfig::default(), Mem, 1), &dataset);
    let queries_a = dense_queries(1, dims, 8, 4);
    let queries_b = dense_queries(2, dims, 8, 3);

    let reference_a = engine.query_batch(&queries_a).unwrap();
    let reference_b = engine.query_batch(&queries_b).unwrap();

    let index = engine.index();
    index.reset_io_stats();
    let before = index.io_snapshot();
    let workers = engine.with_threads(4);
    let (reports_a, reports_b) = std::thread::scope(|scope| {
        let handle_a = scope.spawn(|| workers.query_batch(&queries_a).unwrap());
        let handle_b = scope.spawn(|| workers.query_batch(&queries_b).unwrap());
        (handle_a.join().unwrap(), handle_b.join().unwrap())
    });
    let delta = index.io_snapshot().since(&before);

    assert_eq!(
        total_io(&reports_a).plus(&total_io(&reports_b)),
        delta,
        "two concurrent batches must account for every pool access between them"
    );
    for (expected, report) in reference_a.iter().zip(&reports_a) {
        assert_eq!(expected.dims, report.dims);
    }
    for (expected, report) in reference_b.iter().zip(&reports_b) {
        assert_eq!(expected.dims, report.dims);
    }
}

/// A long-lived hammering run: many repeated batches over a cold-started
/// pool keep the report/global agreement and never panic.
#[test]
fn repeated_batches_keep_stats_consistent() {
    let dims = 4u32;
    let dataset = dense_dataset(0xBEEF, 150, dims);
    let engine = engine(&Cell::built(RegionConfig::default(), Mem, 1), &dataset);
    engine.cold_start();
    let before_all = engine.index().io_snapshot();
    let mut accounted = IoStatsSnapshot::default();
    for round in 0..6u64 {
        let queries = dense_queries(round, dims, 5, 2 + (round as usize % 3));
        let reports = engine
            .with_threads(1 + (round as usize % 4))
            .query_batch(&queries)
            .unwrap();
        accounted = accounted.plus(&total_io(&reports));
    }
    let delta = engine.index().io_snapshot().since(&before_all);
    assert_eq!(accounted, delta);
    assert!(delta.physical_reads > 0, "cold start must hit the store");
}

/// 96 concurrent callers, each computing one φ = 1 CPT query 30 times on
/// one warm index: every report's `io` and `topk_io` must equal the
/// sequential oracle's, because a report counts only its own units of work.
#[test]
fn concurrent_callers_keep_their_own_io() {
    const CALLERS: usize = 96;
    const REPEATS: usize = 30;
    let dims = 5u32;
    let dataset = dense_dataset(0xC0DE, 200, dims);
    let config = RegionConfig::with_phi(Algorithm::Cpt, 1);
    let index = warm_index(&dataset, config);
    let query = dense_queries(3, dims, 1, 4).remove(0);
    let oracle = RegionComputation::new(&index, &query, config)
        .unwrap()
        .compute()
        .unwrap()
        .stats;
    assert!(oracle.io.logical_reads > 0 && oracle.topk_io.logical_reads > 0);
    assert_eq!(oracle.io.physical_reads + oracle.topk_io.physical_reads, 0);

    let start = Barrier::new(CALLERS);
    let wrong: usize = std::thread::scope(|scope| {
        let callers: Vec<_> = (0..CALLERS)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    (0..REPEATS)
                        .filter(|_| {
                            let stats = RegionComputation::new(&index, &query, config)
                                .unwrap()
                                .compute()
                                .unwrap()
                                .stats;
                            (stats.io, stats.topk_io) != (oracle.io, oracle.topk_io)
                        })
                        .count()
                })
            })
            .collect();
        callers.into_iter().map(|c| c.join().unwrap()).sum()
    });
    assert_eq!(
        wrong,
        0,
        "{wrong} of {} reports counted another caller's reads",
        CALLERS * REPEATS
    );
}

/// A maintenance batch applied while eight threads query the same index
/// counts exactly the I/O the same batch counts on an idle index.
#[test]
fn concurrent_queries_stay_out_of_maintenance_io() {
    let dims = 5u32;
    let dataset = dense_dataset(0x0DD5, 300, dims);
    let batch: Vec<TupleUpdate> = (0..12u32)
        .map(|i| match i % 3 {
            0 => TupleUpdate::Insert {
                vector: SparseVector::from_pairs([(i % dims, 0.9), ((i + 1) % dims, 0.4)]).unwrap(),
            },
            1 => TupleUpdate::Delete {
                tuple: TupleId(i * 7),
            },
            _ => TupleUpdate::UpdateScore {
                tuple: TupleId(i * 5),
                dim: DimId(i % dims),
                value: 0.55,
            },
        })
        .collect();
    let build = || warm_index(&dataset, RegionConfig::default());

    let idle = build();
    idle.apply_updates(&batch).unwrap();
    let expected = idle.maintenance_stats();
    assert!(expected.logical_reads > 0 && expected.pages_written > 0);

    let busy: Arc<TopKIndex> = build();
    let queries = dense_queries(7, dims, 8, 3);
    let start = Barrier::new(queries.len() + 1);
    let applied = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for query in &queries {
            let (busy, start, applied) = (&busy, &start, &applied);
            scope.spawn(move || {
                start.wait();
                // At least one query per thread, then until the batch is in.
                loop {
                    let report = RegionComputation::new(busy, query, RegionConfig::default())
                        .unwrap()
                        .compute()
                        .unwrap();
                    assert!(report.stats.topk_io.logical_reads > 0);
                    if applied.load(Ordering::Acquire) {
                        break;
                    }
                }
            });
        }
        start.wait();
        busy.apply_updates(&batch).unwrap();
        applied.store(true, Ordering::Release);
    });
    assert_eq!(busy.maintenance_stats(), expected);
}
