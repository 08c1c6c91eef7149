//! Fleet oracle: every answer the [`SubscriptionManager`] serves — local
//! check or batched recompute — is byte-identical to a fresh
//! per-subscription recompute at the event's cumulative weights.
//!
//! The matrix covers all four algorithms × the mem and file backends ×
//! 1/2/8 batch workers. Within one
//! algorithm, the complete serving trace (every [`FleetAnswer`], in
//! order) must additionally be identical across backends and worker
//! counts, and every member's re-anchored report must match a fresh
//! recompute at its final anchor.

use immutable_regions::prelude::*;
use ir_core::Algorithm;

/// Deterministic 160 × 5 dataset (the chaos-suite workload).
fn dataset() -> Dataset {
    let mut builder = DatasetBuilder::new(5);
    for i in 0..160u32 {
        let pairs: Vec<(u32, f64)> = (0..5u32)
            .map(|d| (d, (((i * 31 + d * 17) % 97) + 1) as f64 / 98.0))
            .collect();
        builder.push_pairs(pairs).unwrap();
    }
    builder.build()
}

/// Eight deterministic 3-dimensional subscriptions, k = 4.
fn fleet() -> Vec<(u64, QueryVector)> {
    (0..8u32)
        .map(|i| {
            let q = QueryVector::new(
                [
                    (i % 5, 0.2 + 0.1 * (i % 4) as f64),
                    ((i + 1) % 5, 0.9 - 0.1 * (i % 3) as f64),
                    ((i + 2) % 5, 0.5),
                ],
                4,
            )
            .unwrap();
            (i as u64, q)
        })
        .collect()
}

const BACKENDS: [&str; 2] = ["mem", "file"];

fn build_engine(backend: &str, threads: usize, algorithm: Algorithm) -> IrEngine {
    let dataset = dataset();
    let dir = tempfile::tempdir().unwrap();
    let storage = match backend {
        "mem" => StorageBackend::Memory,
        "file" => StorageBackend::Disk(dir.path().to_path_buf()),
        other => panic!("unknown backend {other}"),
    };
    IrEngine::builder()
        .dataset_ref(&dataset)
        .backend(storage)
        .threads(threads)
        .build()
        .unwrap()
        .with_config(RegionConfig::flat(algorithm))
}

#[test]
fn every_fleet_answer_matches_a_fresh_recompute() {
    let fleet = fleet();
    let stream = DriftStream::generate(
        &fleet,
        &DriftConfig {
            num_events: 60,
            zipf_exponent: 1.0,
            small_delta: 0.01,
            large_delta: 0.35,
            large_every: 6,
        },
        0xAC1E,
    )
    .unwrap();

    for algorithm in Algorithm::ALL {
        // The fault-free sequential oracle this algorithm's cells compare
        // against, plus the reference serving trace of the first cell.
        let oracle = build_engine("mem", 1, algorithm);
        let mut reference: Option<Vec<FleetAnswer>> = None;

        for backend in BACKENDS {
            for threads in [1usize, 2, 8] {
                let engine = build_engine(backend, threads, algorithm);
                let mut manager =
                    SubscriptionManager::new(&engine, FleetConfig { max_batch: 5 }).unwrap();
                manager.admit_all(fleet.clone()).unwrap();

                let answers = manager.ingest(stream.events()).unwrap();
                assert_eq!(answers.len(), stream.len());

                // (1) Oracle: each answer equals a fresh recompute at the
                // event's cumulative weights.
                let mut current: Vec<QueryVector> = fleet.iter().map(|(_, q)| q.clone()).collect();
                for (event, answer) in stream.iter().zip(&answers) {
                    let q = &mut current[event.sub as usize];
                    *q = q.with_weight_shift(event.dim, event.delta).unwrap();
                    assert_eq!(answer.sub, event.sub);
                    let fresh = oracle.query(q).unwrap();
                    assert_eq!(
                        answer.result,
                        fresh.current_result(),
                        "{algorithm} × {backend} × {threads}w, seq {}: fleet answer deviates \
                         from a fresh recompute ({:?})",
                        answer.seq,
                        answer.kind,
                    );
                }

                // (2) Every member's re-anchored cached state matches a
                // fresh recompute at its final anchor.
                for member in manager.members() {
                    let fresh = oracle.query(member.anchor()).unwrap();
                    assert_eq!(member.report().dims, fresh.dims);
                    assert_eq!(member.result(), fresh.current_result());
                    assert_eq!(
                        member.report().stats.evaluated_per_dim,
                        fresh.stats.evaluated_per_dim
                    );
                }

                // (3) The serving trace is byte-identical across backends
                // and worker counts.
                match &reference {
                    None => reference = Some(answers),
                    Some(reference) => assert_eq!(
                        reference, &answers,
                        "{algorithm} × {backend} × {threads}w: serving trace deviates"
                    ),
                }
            }
        }
    }
}

#[test]
fn serving_traces_share_results_across_algorithms() {
    // All four algorithms compute the same exact regions, so the fleet's
    // answers (ids, kinds, sequence) — though not their costs — must
    // agree across algorithms as well.
    let fleet = fleet();
    let stream = DriftStream::generate(
        &fleet,
        &DriftConfig {
            num_events: 40,
            zipf_exponent: 1.0,
            small_delta: 0.01,
            large_delta: 0.35,
            large_every: 6,
        },
        0xCAFE,
    )
    .unwrap();

    type AnswerShape = (u64, u64, AnswerKind, Vec<TupleId>);
    let mut shapes: Vec<Vec<AnswerShape>> = Vec::new();
    for algorithm in Algorithm::ALL {
        let engine = build_engine("mem", 2, algorithm);
        let mut manager = SubscriptionManager::new(&engine, FleetConfig::default()).unwrap();
        manager.admit_all(fleet.clone()).unwrap();
        let answers = manager.ingest(stream.events()).unwrap();
        shapes.push(
            answers
                .into_iter()
                .map(|a| (a.seq, a.sub, a.kind, a.result))
                .collect(),
        );
    }
    for other in &shapes[1..] {
        assert_eq!(&shapes[0], other);
    }
}
