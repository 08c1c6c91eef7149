//! Fleet agreement properties: random drift streams over random fleets.
//!
//! Three invariants, proptest-driven:
//!
//! * **(a) agreement** — every answer the manager serves (local or
//!   recomputed) equals a fresh per-subscription recompute at the
//!   event's cumulative weights,
//! * **(b) conservation** — cache-hit and refresh counters sum to the
//!   number of ingested events, in the fleet totals, the per-member
//!   views, and the engine's shared health counters alike,
//! * **(c) fault containment** — a mid-stream injected device fault
//!   (reusing [`FaultPlan`]) surfaces as a typed error, leaves untouched
//!   subscriptions serving locally, and once the device heals the
//!   manager drains every deferred answer — still oracle-identical.

use immutable_regions::prelude::*;
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

fn build_engine(backend: &str, threads: usize, plan: Option<FaultPlan>) -> IrEngine {
    let dataset = dataset();
    let dir = tempfile::tempdir().unwrap();
    let storage = match backend {
        "mem" => StorageBackend::Memory,
        "file" => StorageBackend::Disk(dir.path().to_path_buf()),
        other => panic!("unknown backend {other}"),
    };
    let mut builder = IrEngine::builder()
        .dataset_ref(&dataset)
        .backend(storage)
        .pool_capacity(4)
        .threads(threads);
    if let Some(plan) = plan {
        builder = builder.fault_plan(plan);
    }
    builder.build().unwrap()
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

/// A random (valid) drift configuration.
fn arb_drift() -> impl Strategy<Value = DriftConfig> {
    (
        20usize..=60,
        0.0f64..=1.5,
        0.002f64..=0.03,
        0.1f64..=0.4,
        0usize..=6,
    )
        .prop_map(
            |(num_events, zipf_exponent, small_delta, large_delta, large_every)| DriftConfig {
                num_events,
                zipf_exponent,
                small_delta,
                large_delta,
                large_every,
            },
        )
}

/// Replays `events` one by one against a fresh-recompute oracle and
/// checks each answer byte for byte (property (a)). Panics on deviation.
fn assert_oracle_agreement(
    oracle: &IrEngine,
    fleet: &[(u64, QueryVector)],
    events: &[DriftEvent],
    answers: &[FleetAnswer],
) {
    assert_eq!(answers.len(), events.len());
    let mut current: Vec<QueryVector> = fleet.iter().map(|(_, q)| q.clone()).collect();
    for (event, answer) in events.iter().zip(answers) {
        let q = &mut current[event.sub as usize];
        *q = q.with_weight_shift(event.dim, event.delta).unwrap();
        assert_eq!(answer.sub, event.sub);
        let fresh = oracle.query(q).unwrap();
        assert_eq!(
            answer.result,
            fresh.current_result(),
            "seq {}: {:?} answer deviates from a fresh recompute",
            answer.seq,
            answer.kind
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10).with_seed(0xF1EE_7001))]

    /// Properties (a) and (b) on a fault-free fleet, across 1 and 2
    /// batch workers.
    #[test]
    fn random_streams_agree_with_fresh_recomputes(
        fleet in arb_fleet(),
        drift in arb_drift(),
        seed in 0u64..=u64::MAX,
        threads in 1usize..=2,
    ) {
        let stream = DriftStream::generate(&fleet, &drift, seed).unwrap();
        let oracle = build_engine("mem", 1, None);
        let engine = build_engine("mem", threads, None);
        let mut manager = SubscriptionManager::new(
            &engine,
            FleetConfig { max_batch: 4 },
        ).unwrap();
        manager.admit_all(fleet.clone()).unwrap();

        let answers = manager.ingest(stream.events()).unwrap();

        // (a) every answer equals a fresh recompute.
        assert_oracle_agreement(&oracle, &fleet, stream.events(), &answers);

        // (b) hits + refreshes sum to the events, at every level.
        let stats = manager.stats();
        prop_assert_eq!(stats.events, stream.len() as u64);
        prop_assert_eq!(stats.local_answers + stats.recomputes, stats.events);
        let hits: u64 = manager.members().map(|m| m.cache_hits()).sum();
        let refreshes: u64 = manager.members().map(|m| m.refreshes()).sum();
        prop_assert_eq!(hits, stats.local_answers);
        prop_assert_eq!(refreshes, stats.recomputes);
        let locals = answers.iter().filter(|a| a.kind == AnswerKind::Local).count() as u64;
        prop_assert_eq!(locals, stats.local_answers);
        prop_assert_eq!(manager.pending_recomputes(), 0);
    }

    /// Property (c): a device outage injected mid-stream. The first
    /// `warmup` events are served on a healthy device; then the outage
    /// arms, every flush that touches the device fails with a typed
    /// error, untouched subscriptions still serve locally, and after the
    /// device heals the manager drains every deferred answer — all of
    /// them oracle-identical.
    ///
    /// The test keeps its own ledger of *ingested* events (the stream
    /// prefix the manager actually consumed, plus any mid-outage probe):
    /// event sequence numbers equal ledger positions, so the final
    /// replay is exact even though the outage interrupts `ingest`
    /// mid-slice.
    #[test]
    fn mid_stream_faults_leave_the_fleet_serviceable(
        fleet in arb_fleet(),
        drift in arb_drift(),
        seed in 0u64..=u64::MAX,
        warmup_frac in 0.2f64..0.8,
    ) {
        let stream = DriftStream::generate(&fleet, &drift, seed).unwrap();
        let events = stream.events();
        let warmup = ((events.len() as f64 * warmup_frac) as usize).clamp(1, events.len());
        let oracle = build_engine("mem", 1, None);

        // Built with a permanent outage, disarmed for the warmup — the
        // chaos-suite injector toggle — and armed mid-stream.
        let engine = build_engine("file", 2, Some(FaultPlan::device_outage(0, None)));
        let injector = engine.index().fault_injector().unwrap();
        injector.disarm();
        let mut manager = SubscriptionManager::new(
            &engine,
            FleetConfig { max_batch: 4 },
        ).unwrap();
        manager.admit_all(fleet.clone()).unwrap();

        // Ledger: `ingested` mirrors every event the manager consumed, in
        // seq order; `stream_pos` counts how many came from the stream.
        let mut ingested: Vec<DriftEvent> = Vec::new();
        let mut stream_pos = 0usize;
        let mut answers: Vec<FleetAnswer> = Vec::new();
        macro_rules! track {
            ($chunk:expr, $from_stream:expr) => {{
                let newly = manager.stats().events as usize - ingested.len();
                ingested.extend_from_slice(&$chunk[..newly]);
                if $from_stream {
                    stream_pos += newly;
                }
            }};
        }

        let mut warm = manager.ingest(&events[..warmup]).unwrap();
        answers.append(&mut warm);
        track!(events[..warmup], true);

        // Outage: every recompute from here on dies at the device.
        injector.arm();
        engine.cold_start(); // drop cached pages so the outage bites
        let mut saw_fault = false;
        match manager.ingest(&events[warmup..]) {
            Ok(mut a) => answers.append(&mut a), // stream needed no recompute
            Err(EngineError::Core(_)) => saw_fault = true,
            Err(other) => prop_assert!(false, "untyped failure: {:?}", other),
        }
        track!(events[warmup..], true);

        if saw_fault {
            // The manager is intact: no subscription was lost.
            prop_assert_eq!(manager.len(), fleet.len());

            // An untouched subscription (still anchored where it stands)
            // keeps serving locally: a zero-drift event is answered
            // without the device, even while recomputes are impossible.
            // Its answer may be deferred behind pending recomputes (it
            // lands in the ready buffer), but the local-answer counter
            // proves it was served.
            let untouched: Option<(u64, DimId)> = manager
                .members()
                .find(|m| m.current() == m.anchor())
                .map(|m| (m.id(), m.anchor().dims().next().unwrap().0));
            if let Some((sub, dim)) = untouched {
                let local_before = manager.stats().local_answers;
                let probe = [DriftEvent { sub, dim, delta: 0.0 }];
                match manager.ingest(&probe) {
                    Ok(mut a) => answers.append(&mut a),
                    Err(EngineError::Core(_)) => {}
                    Err(other) => prop_assert!(false, "untyped probe failure: {:?}", other),
                }
                track!(probe, false);
                prop_assert_eq!(manager.stats().local_answers, local_before + 1);
            }
        }

        // Heal the device: the manager serves the rest of the stream and
        // drains every deferred answer.
        injector.disarm();
        let mut rest = manager.ingest(&events[stream_pos..]).unwrap();
        answers.append(&mut rest);
        track!(events[stream_pos..], true);
        let mut drained = manager.flush().unwrap();
        answers.append(&mut drained);
        prop_assert_eq!(stream_pos, events.len());
        prop_assert_eq!(manager.pending_recomputes(), 0);

        // (a) exact replay of the ledger: one answer per ingested event,
        // each equal to a fresh recompute at the cumulative weights.
        answers.sort_by_key(|a| a.seq);
        assert_oracle_agreement(&oracle, &fleet, &ingested, &answers);

        // (b) conservation holds across the fault.
        let stats = manager.stats();
        prop_assert_eq!(stats.events, ingested.len() as u64);
        prop_assert_eq!(stats.local_answers + stats.recomputes, stats.events);
    }
}
