//! Fleet laws: every answer the [`SubscriptionManager`] serves — local
//! check or batched recompute — is byte-identical to a fresh
//! per-subscription recompute at the event's cumulative weights.
//!
//! * **oracle matrix** — all four algorithms × the mem and file backends ×
//!   1/2/8 batch workers; within one algorithm the complete serving trace
//!   (every [`FleetAnswer`], in order) is also identical across backends
//!   and worker counts, and every member's re-anchored report matches a
//!   fresh recompute at its final anchor,
//! * **random streams (proptest)** — (a) agreement on random fleets and
//!   drift streams, (b) conservation: cache hits and refreshes sum to the
//!   ingested events at every level, (c) fault containment: a mid-stream
//!   device fault surfaces typed, untouched subscriptions keep serving
//!   locally, and once the device heals every deferred answer drains,
//! * **admission** — a failed `admit_all` leaves the fleet unchanged,
//! * **malformed events** — a rejected drift event leaves the fleet
//!   unchanged and serviceable.

use crate::support::*;
use immutable_regions::prelude::*;
use proptest::prelude::*;

/// Eight deterministic 3-dimensional subscriptions, k = 4.
fn fleet() -> Vec<(u64, QueryVector)> {
    (0..8u32).map(|i| (i as u64, grid_query(i, 4))).collect()
}

/// An engine over [`grid_dataset`] serving `algorithm` flat.
fn grid_engine(algorithm: Algorithm, backend: BackendKind, workers: usize) -> IrEngine {
    let cell = Cell::built(RegionConfig::flat(algorithm), backend, workers);
    engine(&cell, &grid_dataset())
}

/// A CPT engine over [`grid_dataset`] with a 4-page pool and an optional
/// fault plan.
fn small_pool_engine(backend: BackendKind, workers: usize, plan: Option<FaultPlan>) -> IrEngine {
    let cell = Cell::built(RegionConfig::default(), backend, workers);
    engine_with(&cell, &grid_dataset(), |builder| {
        let builder = builder.pool_capacity(4);
        match plan {
            Some(plan) => builder.fault_plan(plan),
            None => builder,
        }
    })
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
        let oracle = grid_engine(algorithm, Mem, 1);
        let mut reference: Option<Vec<FleetAnswer>> = None;

        for backend in BackendKind::ALL {
            for threads in [1usize, 2, 8] {
                let engine = grid_engine(algorithm, backend, threads);
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
        let engine = grid_engine(algorithm, Mem, 2);
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
        let oracle = small_pool_engine(Mem, 1, None);
        let engine = small_pool_engine(Mem, threads, None);
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
        let oracle = small_pool_engine(Mem, 1, None);

        // Built with a permanent outage, disarmed for the warmup — the
        // chaos-suite injector toggle — and armed mid-stream.
        let engine = small_pool_engine(File, 2, Some(FaultPlan::device_outage(0, None)));
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
            Err(err) if is_device_fault(&err) => saw_fault = true,
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
                    Err(err) if is_device_fault(&err) => {}
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

/// `admit_all` computes every chunk before it admits anyone: a query that
/// fails in a later chunk leaves the fleet empty, and the corrected set is
/// admitted whole.
#[test]
fn a_failed_admit_all_leaves_the_fleet_unchanged() {
    let engine = engine(
        &Cell::built(RegionConfig::default(), Mem, 1),
        &Dataset::running_example(),
    );
    let mut manager = SubscriptionManager::new(&engine, FleetConfig { max_batch: 2 }).unwrap();
    let query = QueryVector::running_example();
    let too_deep = QueryVector::new(query.dims().map(|(d, w)| (d.0, w)), 100).unwrap();
    let subs =
        |third: &QueryVector| vec![(0, query.clone()), (1, query.clone()), (2, third.clone())];

    let err = manager.admit_all(subs(&too_deep)).unwrap_err();
    assert!(matches!(err, IrError::InvalidK { .. }), "{err}");
    assert_eq!(manager.len(), 0, "a failed admission admitted members");

    manager.admit_all(subs(&query)).unwrap();
    assert_eq!(manager.len(), 3);
}

/// The drift event moving member `sub`'s weight on `dim` by `delta`.
fn event(sub: u64, dim: u32, delta: f64) -> DriftEvent {
    let dim = DimId(dim);
    DriftEvent { sub, dim, delta }
}

/// A malformed drift event — an unknown member, a dimension the index does
/// not hold, a shift that leaves no positive weight — is rejected typed
/// before it is counted or queued: the fleet's counters, queue and members
/// are untouched, and the next valid event is answered.
#[test]
fn a_malformed_drift_event_changes_nothing() {
    let engine = engine(
        &Cell::built(RegionConfig::default(), Mem, 1),
        &Dataset::running_example(),
    );
    let mut manager = SubscriptionManager::new(&engine, FleetConfig::default()).unwrap();
    let query = QueryVector::running_example();
    let single = QueryVector::new([(0, 0.5)], 1).unwrap();
    manager
        .admit_all([(1, query.clone()), (2, query), (3, single)])
        .unwrap();
    // A member's result and report change only with its anchor.
    let state = |manager: &SubscriptionManager| {
        let members: Vec<_> = manager
            .members()
            .map(|m| (m.anchor().clone(), m.current().clone(), m.is_stale()))
            .collect();
        (manager.stats(), manager.pending_recomputes(), members)
    };
    let before = state(&manager);

    let mut reject = |event: DriftEvent| {
        let err = manager.ingest(&[event]).unwrap_err();
        assert!(state(&manager) == before, "{event:?} changed the fleet");
        err
    };
    let err = reject(event(9, 0, 0.1));
    assert!(
        matches!(err, IrError::InvalidConfig(_)),
        "unknown member: {err:?}"
    );
    let err = reject(event(1, 99, 0.1));
    assert!(
        matches!(err, IrError::UnknownDimension { dim: 99, .. }),
        "unknown dimension: {err:?}"
    );
    let err = reject(event(3, 0, -0.5));
    assert!(matches!(err, IrError::EmptyQuery), "zeroed query: {err:?}");

    // Out of member 2's region on dimension 0: answered by recompute.
    let answers = manager.ingest(&[event(2, 0, 0.2)]).unwrap();
    let fresh = engine.query(manager.member(2).unwrap().current()).unwrap();
    assert_eq!(answers.len(), 1);
    assert_eq!(answers[0].kind, AnswerKind::Recomputed);
    assert_eq!(answers[0].result, fresh.current_result());
    assert_eq!(manager.stats().recomputes, manager.stats().events);
}
