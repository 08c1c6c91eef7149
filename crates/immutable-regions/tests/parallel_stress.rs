//! Concurrency stress suite: proptest-driven random query batches hammer
//! one shared index and buffer pool at several worker counts.
//!
//! Invariants under stress:
//!
//! * no worker panics and every query produces a report,
//! * the merged per-worker buffer statistics equal the pool's global delta
//!   (the sharded counters merge losslessly — nothing double counted,
//!   nothing dropped),
//! * reports are identical across worker counts (determinism survives
//!   contention).

use immutable_regions::prelude::*;
use ir_storage::IoStatsSnapshot;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn build_dataset(seed: u64, n: usize, dims: u32) -> Dataset {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut builder = DatasetBuilder::new(dims);
    for _ in 0..n {
        let nnz = rng.gen_range(1..=dims);
        let mut pairs = Vec::new();
        for d in 0..dims {
            if pairs.len() < nnz as usize && rng.gen::<f64>() < 0.7 {
                pairs.push((d, rng.gen_range(0.01..1.0)));
            }
        }
        if pairs.is_empty() {
            pairs.push((rng.gen_range(0..dims), rng.gen_range(0.01..1.0)));
        }
        builder.push_pairs(pairs).unwrap();
    }
    builder.build()
}

fn build_queries(seed: u64, dims: u32, count: usize, k: usize) -> Vec<QueryVector> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xABCD);
    (0..count)
        .map(|_| {
            let qlen = rng.gen_range(2..=dims.min(4)) as usize;
            let mut chosen = Vec::new();
            while chosen.len() < qlen {
                let d = rng.gen_range(0..dims);
                if !chosen.contains(&d) {
                    chosen.push(d);
                }
            }
            QueryVector::new(chosen.into_iter().map(|d| (d, rng.gen_range(0.1..=1.0))), k).unwrap()
        })
        .collect()
}

fn sum(snapshots: &[IoStatsSnapshot]) -> IoStatsSnapshot {
    snapshots
        .iter()
        .fold(IoStatsSnapshot::default(), |acc, s| acc.plus(s))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10).with_seed(0x57E5_5001))]

    /// Random batches at 1/2/4/8 workers over one shared pool: merged
    /// per-worker stats must equal the pool delta, and reports must not
    /// depend on the worker count.
    #[test]
    fn merged_worker_stats_equal_pool_delta(
        seed in 0u64..10_000,
        num_queries in 1usize..10,
        k in 1usize..6,
        phi in 0usize..3,
    ) {
        let dims = 5u32;
        let dataset = build_dataset(seed, 120, dims);
        let index = IndexBuilder::new().build_shared(&dataset).unwrap();
        let queries = build_queries(seed, dims, num_queries, k);
        let config = RegionConfig::with_phi(Algorithm::Cpt, phi);

        let mut baseline: Option<Vec<RegionReport>> = None;
        for workers in [1usize, 2, 4, 8] {
            let before = index.io_snapshot();
            let outcome = BatchRegionComputation::new(&index, config)
                .with_threads(workers)
                .run_detailed(&queries)
                .unwrap();
            let delta = index.io_snapshot().since(&before);

            // Lossless merge: what the workers self-reported is exactly
            // what the pool observed — nothing lost, nothing double
            // counted, even with every worker on the same pool.
            prop_assert_eq!(
                sum(&outcome.worker_io), delta,
                "workers = {}", workers
            );
            prop_assert!(delta.logical_reads > 0);
            prop_assert_eq!(outcome.reports.len(), queries.len());

            match &baseline {
                None => baseline = Some(outcome.reports),
                Some(expected) => {
                    for (e, r) in expected.iter().zip(&outcome.reports) {
                        prop_assert_eq!(&e.dims, &r.dims, "workers = {}", workers);
                    }
                }
            }
        }
    }
}

/// Two batches run *concurrently* against the same index: their combined
/// per-worker tallies must still account for every page access the pool
/// served, and both must agree with a sequential reference run.
#[test]
fn concurrent_batches_share_one_pool_losslessly() {
    let dims = 5u32;
    let dataset = build_dataset(0xFEED, 200, dims);
    let index = IndexBuilder::new().build_shared(&dataset).unwrap();
    let queries_a = build_queries(1, dims, 8, 4);
    let queries_b = build_queries(2, dims, 8, 3);
    let config = RegionConfig::default();

    let reference_a = BatchRegionComputation::new(&index, config)
        .run(&queries_a)
        .unwrap();
    let reference_b = BatchRegionComputation::new(&index, config)
        .run(&queries_b)
        .unwrap();

    index.reset_io_stats();
    let before = index.io_snapshot();
    let (outcome_a, outcome_b) = std::thread::scope(|scope| {
        let handle_a = scope.spawn(|| {
            BatchRegionComputation::new(&index, config)
                .with_threads(4)
                .run_detailed(&queries_a)
                .unwrap()
        });
        let handle_b = scope.spawn(|| {
            BatchRegionComputation::new(&index, config)
                .with_threads(4)
                .run_detailed(&queries_b)
                .unwrap()
        });
        (handle_a.join().unwrap(), handle_b.join().unwrap())
    });
    let delta = index.io_snapshot().since(&before);

    assert_eq!(
        outcome_a.total_io().plus(&outcome_b.total_io()),
        delta,
        "two concurrent batches must account for every pool access between them"
    );
    for (expected, report) in reference_a.iter().zip(&outcome_a.reports) {
        assert_eq!(expected.dims, report.dims);
    }
    for (expected, report) in reference_b.iter().zip(&outcome_b.reports) {
        assert_eq!(expected.dims, report.dims);
    }
}

/// A long-lived hammering run: many repeated batches over a cold-started
/// pool keep the per-worker/global agreement and never panic.
#[test]
fn repeated_batches_keep_stats_consistent() {
    let dims = 4u32;
    let dataset = build_dataset(0xBEEF, 150, dims);
    let index = IndexBuilder::new().build_shared(&dataset).unwrap();
    index.cold_start();
    let before_all = index.io_snapshot();
    let mut accounted = IoStatsSnapshot::default();
    for round in 0..6u64 {
        let queries = build_queries(round, dims, 5, 2 + (round as usize % 3));
        let outcome = BatchRegionComputation::new(&index, RegionConfig::default())
            .with_threads(1 + (round as usize % 4))
            .run_detailed(&queries)
            .unwrap();
        accounted = accounted.plus(&outcome.total_io());
    }
    let delta = index.io_snapshot().since(&before_all);
    assert_eq!(accounted, delta);
    assert!(delta.physical_reads > 0, "cold start must hit the store");
}
