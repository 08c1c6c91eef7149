//! Backend-agreement suite: the storage backend must never leak into query
//! output.
//!
//! For every algorithm, φ level and worker count, an engine built over the
//! file backend must produce *byte-identical* region reports and
//! deterministic counters to
//! the default [`MemPageStore`](ir_storage::MemPageStore) engine: same
//! intervals (bitwise), same boundaries, same evaluated-candidate counts,
//! same logical reads. The backends store the same pages in the same layout
//! behind the same buffer pool, so any divergence is a correctness bug in
//! the access path, not a legitimate backend difference.
//!
//! Seeded like the other property suites so failures reproduce exactly.

use immutable_regions::engine::IrEngine;
use immutable_regions::prelude::*;
use ir_storage::BackendKind;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A small random dataset with mixed sparsity, same idiom as
/// `parallel_agreement`.
fn random_dataset(rng: &mut ChaCha8Rng, n: usize, dims: u32) -> Dataset {
    let mut builder = DatasetBuilder::new(dims);
    for _ in 0..n {
        let style: f64 = rng.gen();
        let pairs: Vec<(u32, f64)> = if style < 0.4 {
            vec![(rng.gen_range(0..dims), rng.gen_range(0.05..1.0))]
        } else if style < 0.7 {
            let a = rng.gen_range(0..dims);
            let mut b = rng.gen_range(0..dims);
            while b == a {
                b = rng.gen_range(0..dims);
            }
            vec![(a, rng.gen_range(0.05..1.0)), (b, rng.gen_range(0.05..1.0))]
        } else {
            (0..dims).map(|d| (d, rng.gen_range(0.01..1.0))).collect()
        };
        builder.push_pairs(pairs).unwrap();
    }
    builder.build()
}

fn random_batch(rng: &mut ChaCha8Rng, dims: u32, queries: usize) -> Vec<QueryVector> {
    (0..queries)
        .map(|_| {
            let qlen = rng.gen_range(2..=dims.min(4)) as usize;
            let k = rng.gen_range(1..6);
            let mut chosen = Vec::new();
            while chosen.len() < qlen {
                let d = rng.gen_range(0..dims);
                if !chosen.contains(&d) {
                    chosen.push(d);
                }
            }
            QueryVector::new(chosen.into_iter().map(|d| (d, rng.gen_range(0.2..=1.0))), k).unwrap()
        })
        .collect()
}

/// Builds an engine over `dataset` on the requested backend, with a scratch
/// page directory where one is needed.
fn engine_on(
    dataset: &Dataset,
    backend: BackendKind,
    config: RegionConfig,
    threads: usize,
) -> IrEngine {
    let builder = IrEngine::builder()
        .dataset_ref(dataset)
        .config(config)
        .threads(threads);
    let engine = match backend {
        BackendKind::Mem => builder.build(),
        BackendKind::File => {
            let dir = tempfile::tempdir().unwrap();
            builder.on_disk(dir.path()).build()
        }
    };
    engine.unwrap_or_else(|e| panic!("building {backend} engine: {e}"))
}

/// Core requirement: batch output over the file backend is identical
/// to the mem-backend oracle for every algorithm × φ × worker count —
/// regions, boundary perturbations, evaluated candidates and logical reads
/// alike.
#[test]
fn backends_agree_for_all_algorithms_phi_and_worker_counts() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xBA_CE2D);
    for phi in [0usize, 1, 3] {
        for algorithm in Algorithm::ALL {
            let dims = rng.gen_range(3..7);
            let n = rng.gen_range(40..120);
            let dataset = random_dataset(&mut rng, n, dims);
            let queries = random_batch(&mut rng, dims, 4);
            let config = RegionConfig::with_phi(algorithm, phi);

            let oracle_engine = engine_on(&dataset, BackendKind::Mem, config, 1);
            let oracle: Vec<RegionReport> = queries
                .iter()
                .map(|q| {
                    oracle_engine.cold_start();
                    oracle_engine.query(q).unwrap()
                })
                .collect();

            for threads in [1usize, 2, 8] {
                let engine = engine_on(&dataset, BackendKind::File, config, threads);
                let reports = engine.query_batch(&queries).unwrap();
                assert_eq!(reports.len(), oracle.len());
                for (qi, (expected, actual)) in oracle.iter().zip(&reports).enumerate() {
                    let context =
                        format!("{algorithm} phi={phi} backend=file threads={threads} query={qi}");
                    assert_eq!(
                        expected.dims, actual.dims,
                        "{context}: regions must be byte-identical across backends"
                    );
                    assert_eq!(
                        expected.stats.evaluated_per_dim, actual.stats.evaluated_per_dim,
                        "{context}: evaluated candidates differ"
                    );
                    assert_eq!(
                        expected.stats.io.logical_reads, actual.stats.io.logical_reads,
                        "{context}: logical reads differ"
                    );
                }
            }
        }
    }
}

/// Composition-only mode (Figure 16's envelope solver) must agree across
/// backends too.
#[test]
fn backends_agree_in_composition_only_mode() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x00C0_BACE);
    for algorithm in [Algorithm::Scan, Algorithm::Cpt] {
        let dims = rng.gen_range(3..6);
        let dataset = random_dataset(&mut rng, 80, dims);
        let queries = random_batch(&mut rng, dims, 3);
        let config = RegionConfig::flat(algorithm).composition_only();
        let oracle_engine = engine_on(&dataset, BackendKind::Mem, config, 1);
        let oracle: Vec<RegionReport> = queries
            .iter()
            .map(|q| oracle_engine.query(q).unwrap())
            .collect();
        let engine = engine_on(&dataset, BackendKind::File, config, 2);
        let reports = engine.query_batch(&queries).unwrap();
        for (expected, actual) in oracle.iter().zip(&reports) {
            assert_eq!(
                expected.dims, actual.dims,
                "{algorithm} composition-only backend=file"
            );
        }
    }
}

/// The device-level counters live in the buffer pool alone, and they tell
/// the same story on every backend: each store sees exactly the pool's
/// miss sequence, so logical reads, physical reads and writes agree
/// counter for counter. Wall-clock is what legitimately differs, and the
/// CI diff never compares it.
#[test]
fn device_level_counters_tell_the_backend_story() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x10_57A7);
    let dataset = random_dataset(&mut rng, 100, 4);
    let queries = random_batch(&mut rng, 4, 4);

    let mut pool_snapshots = Vec::new();
    for backend in BackendKind::ALL {
        let engine = engine_on(&dataset, backend, RegionConfig::default(), 1);
        engine.cold_start();
        for q in &queries {
            let _ = engine.query(q).unwrap();
        }
        let pool = engine.index().io_snapshot();
        assert!(pool.physical_reads > 0, "{backend}: a cold engine misses");
        pool_snapshots.push((backend, pool));
    }
    // The pool-level counters — what the experiment harness reports — are
    // identical on every backend.
    let (_, first) = pool_snapshots[0];
    for (backend, snap) in &pool_snapshots[1..] {
        assert_eq!(*snap, first, "pool counters diverged on {backend}");
    }
}
