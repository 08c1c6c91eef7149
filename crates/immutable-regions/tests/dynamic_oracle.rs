//! Dynamic-data oracle suite: incremental maintenance must be invisible.
//!
//! The update model's contract (the "oracle law"): after ANY update
//! sequence, every incremental result and region report is byte-identical
//! to a full recompute on the mutated dataset. Three layers enforce it:
//!
//! * **matrix** — a deterministic [`ir_datagen::UpdateStream`] applied in
//!   batches through [`IrEngine::apply_updates`], checked against a
//!   freshly built engine on the mutated dataset for every algorithm ×
//!   {mem, file} × 1/2/8 workers,
//! * **mid-stream** — the law holds after *every* batch, not only at the
//!   end (an incrementally maintained index never serves a stale page),
//! * **interleaving (proptest)** — random `DriftEvent`s and update
//!   batches woven through one [`SubscriptionManager`]: answer/report
//!   agreement with a fresh engine at every step, plus counter
//!   conservation across both kinds of traffic.

use immutable_regions::engine::IrEngine;
use immutable_regions::prelude::*;
use ir_datagen::{UpdateConfig, UpdateStream};
use ir_storage::BackendKind;
use ir_types::TupleUpdate;
use proptest::prelude::*;

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

/// A fixed five-query workload over the 160 × 5 dataset, spanning 2–3
/// dims and mixed k.
fn queries() -> Vec<QueryVector> {
    (0..5u64)
        .map(|i| {
            let dims = [
                (((i) % 5) as u32, 0.2 + 0.1 * ((i % 4) as f64)),
                (((i + 1) % 5) as u32, 0.9 - 0.1 * ((i % 3) as f64)),
                (((i + 2) % 5) as u32, 0.5),
            ];
            QueryVector::new(dims, 3 + (i as usize % 4)).unwrap()
        })
        .collect()
}

/// Builds an engine over `dataset` on the requested backend.
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

/// The oracle law across the full serving matrix: every algorithm ×
/// backend × worker count serves byte-identical reports after the same
/// update stream as a fresh engine built on the mutated dataset.
#[test]
fn incremental_equals_recompute_across_algorithms_backends_and_workers() {
    let base = dataset();
    let stream = UpdateStream::generate(
        &base,
        &UpdateConfig {
            num_updates: 60,
            churn: 0.5,
            zipf_exponent: 1.0,
            remove_fraction: 0.2,
        },
        0xD1A0,
    )
    .unwrap();
    let mutated = base.with_updates(stream.updates()).unwrap();
    let queries = queries();

    for algorithm in Algorithm::ALL {
        let config = RegionConfig::with_phi(algorithm, 1);
        let oracle_engine = engine_on(&mutated, BackendKind::Mem, config, 1);
        let oracle: Vec<RegionReport> = queries
            .iter()
            .map(|q| oracle_engine.query(q).unwrap())
            .collect();

        for backend in BackendKind::ALL {
            for threads in [1usize, 2, 8] {
                let engine = engine_on(&base, backend, config, threads);
                for batch in stream.batches(16) {
                    engine.apply_updates(batch).unwrap();
                }
                let reports = engine.query_batch(&queries).unwrap();
                for (qi, (expected, actual)) in oracle.iter().zip(&reports).enumerate() {
                    assert_eq!(
                        expected.dims, actual.dims,
                        "{algorithm} backend={backend} threads={threads} query={qi}: \
                         incremental report must be byte-identical to the full recompute"
                    );
                }
                assert_eq!(
                    engine.maintenance_stats().updates_applied,
                    stream.len() as u64
                );
            }
        }
    }
}

/// The law holds after every batch, not only at the end of the stream.
#[test]
fn every_intermediate_batch_state_matches_a_fresh_rebuild() {
    let base = dataset();
    let stream = UpdateStream::generate(
        &base,
        &UpdateConfig {
            num_updates: 40,
            churn: 0.6,
            zipf_exponent: 0.8,
            remove_fraction: 0.15,
        },
        7,
    )
    .unwrap();
    let queries = queries();
    let engine = engine_on(&base, BackendKind::File, RegionConfig::default(), 2);

    let mut applied: Vec<TupleUpdate> = Vec::new();
    for batch in stream.batches(10) {
        engine.apply_updates(batch).unwrap();
        applied.extend(batch.iter().cloned());
        let mutated = base.with_updates(&applied).unwrap();
        let oracle = engine_on(&mutated, BackendKind::Mem, RegionConfig::default(), 1);
        for (qi, q) in queries.iter().enumerate() {
            assert_eq!(
                engine.query(q).unwrap().dims,
                oracle.query(q).unwrap().dims,
                "after {} updates, query {qi} diverged from the rebuilt oracle",
                applied.len()
            );
        }
    }
}

/// Convenience single-update entry points are the same maintenance path.
#[test]
fn single_update_conveniences_match_the_batch_path() {
    let base = dataset();
    let a = engine_on(&base, BackendKind::Mem, RegionConfig::default(), 1);
    let b = engine_on(&base, BackendKind::Mem, RegionConfig::default(), 1);

    let vector = SparseVector::from_pairs([(0u32, 0.9), (3u32, 0.4)]).unwrap();
    let ins_a = a.insert(vector.clone()).unwrap();
    let ins_b = b
        .apply_updates(&[TupleUpdate::Insert { vector }])
        .unwrap()
        .remove(0);
    assert_eq!(ins_a, ins_b);
    assert_eq!(
        a.update_score(TupleId(5), DimId(2), 0.75).unwrap(),
        b.apply_updates(&[TupleUpdate::UpdateScore {
            tuple: TupleId(5),
            dim: DimId(2),
            value: 0.75,
        }])
        .unwrap()
        .remove(0)
    );
    assert_eq!(
        a.delete(TupleId(9)).unwrap(),
        b.apply_updates(&[TupleUpdate::Delete { tuple: TupleId(9) }])
            .unwrap()
            .remove(0)
    );
    for q in queries() {
        assert_eq!(a.query(&q).unwrap().dims, b.query(&q).unwrap().dims);
    }
}

/// A random fleet: 2–5 subscriptions, each over 2–3 distinct dimensions
/// of the 5 with weights in `[0.2, 1.0]` and its own `k`.
fn arb_fleet() -> impl Strategy<Value = Vec<(u64, QueryVector)>> {
    proptest::collection::vec(
        (
            proptest::collection::btree_map(0u32..5, 0.2f64..=1.0, 2..=3),
            3usize..=6,
        ),
        2..=5,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (weights, k))| (i as u64, QueryVector::new(weights, k).unwrap()))
            .collect()
    })
}

/// A random (valid) update-stream configuration.
fn arb_updates() -> impl Strategy<Value = UpdateConfig> {
    (12usize..=36, 0.0f64..=1.0, 0.0f64..=1.5, 0.0f64..=0.4).prop_map(
        |(num_updates, churn, zipf_exponent, remove_fraction)| UpdateConfig {
            num_updates,
            churn,
            zipf_exponent,
            remove_fraction,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10).with_seed(219840087))]

    /// Satellite: `DriftEvent`s and `UpdateStream` batches interleaved
    /// through ONE manager. Every drift answer agrees with a fresh
    /// recompute on the dataset state current at that moment, every
    /// member report stays oracle-identical after the final flush, and
    /// the counters conserve across both kinds of traffic.
    #[test]
    fn interleaved_drift_and_updates_conserve_and_agree(
        fleet in arb_fleet(),
        drift in (20usize..=40, 0.0f64..=1.5).prop_map(|(num_events, zipf_exponent)| DriftConfig {
            num_events,
            zipf_exponent,
            small_delta: 0.01,
            large_delta: 0.3,
            large_every: 5,
        }),
        updates in arb_updates(),
        seed in 0u64..=u64::MAX,
        threads in 1usize..=2,
    ) {
        let base = dataset();
        let drift_stream = DriftStream::generate(&fleet, &drift, seed).unwrap();
        let update_stream = UpdateStream::generate(&base, &updates, seed ^ 0xA11).unwrap();

        let engine = engine_on(&base, BackendKind::Mem, RegionConfig::default(), threads);
        let mut manager = SubscriptionManager::new(
            &engine,
            FleetConfig { max_batch: 4, ..FleetConfig::default() },
        ).unwrap();
        manager.admit_all(fleet.clone()).unwrap();

        // Interleave: 3 rounds of (update batch, drift chunk).
        let rounds = 3usize;
        let update_chunk = update_stream.len().div_ceil(rounds);
        let drift_chunk = drift_stream.len().div_ceil(rounds);
        let mut applied: Vec<TupleUpdate> = Vec::new();
        let mut current: Vec<QueryVector> = fleet.iter().map(|(_, q)| q.clone()).collect();
        let mut update_batches = 0u64;
        let mut events_seen = 0u64;

        for round in 0..rounds {
            let updates_now = update_stream.updates()
                .chunks(update_chunk.max(1))
                .nth(round)
                .unwrap_or(&[]);
            if !updates_now.is_empty() {
                manager.apply_updates(updates_now).unwrap();
                applied.extend(updates_now.iter().cloned());
                update_batches += 1;
            }

            // Oracle for this round: a fresh engine on the current state.
            let snapshot = base.with_updates(&applied).unwrap();
            let oracle = engine_on(&snapshot, BackendKind::Mem, RegionConfig::default(), 1);

            let events_now = drift_stream.events()
                .chunks(drift_chunk.max(1))
                .nth(round)
                .unwrap_or(&[]);
            let answers = manager.ingest(events_now).unwrap();
            prop_assert_eq!(answers.len(), events_now.len());
            events_seen += events_now.len() as u64;
            for (event, answer) in events_now.iter().zip(&answers) {
                let q = &mut current[event.sub as usize];
                *q = q.with_weight_shift(event.dim, event.delta).unwrap();
                prop_assert_eq!(answer.sub, event.sub);
                let fresh = oracle.query(q).unwrap();
                prop_assert_eq!(
                    &answer.result,
                    &fresh.current_result(),
                    "round {}: {:?} answer deviates from the current-state oracle",
                    round,
                    answer.kind
                );
            }

            // Every member report is oracle-identical right now — drift-
            // refreshed, update-invalidated and untouched members alike.
            // The cached report is relative to the member's ANCHOR (a
            // locally-served member carries drifted `current` weights but
            // keeps serving from the anchor's report).
            for member in manager.members() {
                prop_assert!(!member.is_stale());
                let fresh = oracle.query(member.anchor()).unwrap();
                prop_assert_eq!(
                    &member.report().dims,
                    &fresh.dims,
                    "round {}: member {} report deviates",
                    round,
                    member.id()
                );
            }
        }

        // Conservation across both kinds of traffic.
        let stats = manager.stats();
        prop_assert_eq!(stats.events, events_seen);
        prop_assert_eq!(stats.local_answers + stats.recomputes, stats.events);
        prop_assert_eq!(stats.updates_applied, applied.len() as u64);
        prop_assert_eq!(
            stats.regions_survived + stats.regions_punctured,
            update_batches * fleet.len() as u64
        );
        prop_assert_eq!(
            engine.maintenance_stats().updates_applied,
            stats.updates_applied
        );
        prop_assert_eq!(manager.pending_recomputes(), 0);
    }
}
