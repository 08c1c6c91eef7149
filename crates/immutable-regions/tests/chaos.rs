//! Chaos suite: the engine under an adversarial storage device.
//!
//! Every scenario runs the same deterministic workload (160 tuples × 5
//! dimensions, six queries, k = 4) against a fault-injecting page store and
//! checks the robustness contract end to end:
//!
//! * transient faults healed by the buffer pool's retry policy are
//!   **invisible** — reports byte-identical to a fault-free oracle run,
//! * permanent faults (device outage, corruption, exhausted retries,
//!   injected worker panics) surface as **typed errors**, never a panic of
//!   the calling thread and never a poisoned engine — and so does a tuple
//!   record that is sealed but wrong, which no checksum can catch,
//! * after any failed query the engine answers the next one correctly.
//!
//! The matrix covers the mem and file backends × 1/2/8 workers; a proptest
//! sweep drives arbitrary fault plans through the same invariants.

mod support;

use immutable_regions::prelude::*;
use immutable_regions::storage::{CorruptionSpec, FaultPlan, PageId};
use ir_core::DimRegions;
use proptest::prelude::*;
use support::*;

/// Six deterministic 3-dimensional queries over [`grid_dataset`].
fn queries(k: usize) -> Vec<QueryVector> {
    (0..6).map(|i| grid_query(i, k)).collect()
}

/// Builds a CPT engine over the chaos workload. A tiny pool (4 pages)
/// forces real device traffic, and a cold start clears whatever the build
/// left cached so injected faults actually strike the queries.
fn build_engine(
    backend: BackendKind,
    threads: usize,
    plan: Option<FaultPlan>,
    retry: RetryPolicy,
) -> IrEngine {
    let cell = Cell::built(RegionConfig::default(), backend, threads);
    let engine = engine_with(&cell, &grid_dataset(), |builder| {
        let builder = builder.pool_capacity(4).retry_policy(retry);
        match plan {
            Some(plan) => builder.fault_plan(plan),
            None => builder,
        }
    });
    engine.cold_start();
    engine
}

/// The fault-free reports every scenario compares against.
fn oracle_reports(k: usize) -> Vec<Vec<DimRegions>> {
    let engine = build_engine(Mem, 1, None, RetryPolicy::default());
    engine
        .query_batch(&queries(k))
        .unwrap()
        .into_iter()
        .map(|report| report.dims)
        .collect()
}

/// Silences the default panic hook for deliberately injected panics
/// (worker threads print before containment catches them); everything else
/// still reaches the default hook.
fn quiet_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = immutable_regions::core::parallel::panic_message(info.payload());
            if !message.contains("injected fault") {
                default(info);
            }
        }));
    });
}

#[test]
fn transient_faults_heal_to_byte_identical_results() {
    let oracle = oracle_reports(4);
    // The device's op counter is shared across workers, so with several
    // threads the op index a retry attempt draws depends on scheduling: an
    // attempt can land on *any* not-yet-consumed faulted op, not just the
    // one after its last failure. Budgeting more attempts than the plan
    // has faults makes healing a pigeonhole guarantee — at most 10 of the
    // 12 attempts can be faulted — independent of interleaving.
    let retry = RetryPolicy {
        max_attempts: 12,
        ..RetryPolicy::default()
    };
    for backend in BackendKind::ALL {
        for threads in [1usize, 2, 8] {
            let plan = FaultPlan::transient_reads(7, 10, 400);
            let engine = build_engine(backend, threads, Some(plan), retry);
            let reports = engine
                .query_batch(&queries(4))
                .unwrap_or_else(|e| panic!("{backend}/{threads}: {e}"));
            for (i, report) in reports.iter().enumerate() {
                assert_eq!(
                    report.dims, oracle[i],
                    "{backend}/{threads} workers: query {i} diverged from the fault-free oracle"
                );
            }
            let health = engine.health();
            assert_eq!(health.queries_failed, 0, "{backend}/{threads}");
            assert!(
                health.read_retries > 0,
                "{backend}/{threads}: the plan must actually have fired \
                 (read_retries = 0 means the workload never hit a faulted op)"
            );
        }
    }
}

#[test]
fn device_outage_surfaces_typed_errors_then_heals() {
    let oracle = oracle_reports(4);
    for backend in BackendKind::ALL {
        // Read ops 0..3 fail permanently; no retries, so each failed query
        // burns exactly one op.
        let plan = FaultPlan::device_outage(0, Some(3));
        let engine = build_engine(backend, 1, Some(plan), RetryPolicy::none());
        let query = &queries(4)[0];
        for attempt in 0..3 {
            let err = engine.query(query).map(|_| ()).unwrap_err();
            assert!(
                matches!(&err, IrError::Storage(_)),
                "{backend} attempt {attempt}: {err:?}"
            );
            assert!(
                err.to_string().contains("injected device failure"),
                "{backend}: {err}"
            );
        }
        // The outage window is exhausted: the engine heals in place.
        let report = engine.query(query).unwrap();
        assert_eq!(report.dims, oracle[0], "{backend}: post-outage divergence");
        let health = engine.health();
        assert_eq!(health.queries_failed, 3, "{backend}");
        assert_eq!(health.queries_ok, 1, "{backend}");
        assert_eq!(health.worker_panics, 0, "{backend}");
    }
}

#[test]
fn worker_panics_are_contained_on_every_thread_count() {
    quiet_panics();
    let oracle = oracle_reports(4);
    for backend in BackendKind::ALL {
        for threads in [1usize, 2, 8] {
            let plan = FaultPlan {
                panic_read_ops: vec![2],
                ..FaultPlan::default()
            };
            let engine = build_engine(backend, threads, Some(plan), RetryPolicy::none());
            let err = engine.query_batch(&queries(4)).map(|_| ()).unwrap_err();
            assert!(
                matches!(&err, IrError::WorkerPanicked { .. }),
                "{backend}/{threads}: {err:?}"
            );
            // The panic fired exactly once; the engine serves the full
            // batch correctly on the very next call.
            let reports = engine
                .query_batch(&queries(4))
                .unwrap_or_else(|e| panic!("{backend}/{threads} post-panic: {e}"));
            for (i, report) in reports.iter().enumerate() {
                assert_eq!(report.dims, oracle[i], "{backend}/{threads}: query {i}");
            }
            let health = engine.health();
            assert_eq!(health.worker_panics, 1, "{backend}/{threads}");
            assert_eq!(health.queries_failed, 1, "{backend}/{threads}");
            assert_eq!(health.queries_ok, 1, "{backend}/{threads}");
        }
    }
}

#[test]
fn corruption_is_typed_and_one_shot() {
    let oracle = oracle_reports(4);
    for backend in BackendKind::ALL {
        let plan = FaultPlan {
            corruptions: vec![CorruptionSpec {
                op: 1,
                byte_offset: 33,
                xor_mask: 0x40,
            }],
            ..FaultPlan::default()
        };
        let engine = build_engine(backend, 1, Some(plan), RetryPolicy::default());
        let query = &queries(4)[0];
        let err = engine.query(query).map(|_| ()).unwrap_err();
        assert!(
            matches!(&err, IrError::Corruption { page: Some(_), .. }),
            "{backend}: {err:?}"
        );
        assert!(
            err.to_string().contains("checksum mismatch"),
            "{backend}: {err}"
        );
        // The injector restores the byte after the read (one-shot), so the
        // device is clean again and the engine answers correctly.
        let report = engine.query(query).unwrap();
        assert_eq!(
            report.dims, oracle[0],
            "{backend}: post-corruption divergence"
        );
        let health = engine.health();
        assert_eq!(health.corruption_errors, 1, "{backend}");
        assert_eq!(health.queries_ok, 1, "{backend}");
    }
}

#[test]
fn a_sealed_but_wrong_tuple_record_is_counted_as_corruption() {
    // 40 tuples on dimensions 0 and 1, then one tuple only on dimension 2.
    let mut builder = DatasetBuilder::new(3);
    for i in 0..40u32 {
        builder
            .push_pairs([(0, f64::from(i + 1) / 41.0), (1, f64::from(40 - i) / 41.0)])
            .unwrap();
    }
    builder.push_pairs([(2, 0.9)]).unwrap();
    let dataset = builder.build();
    let touches = QueryVector::new([(1, 0.5), (2, 0.9)], 2).unwrap();
    let clean = QueryVector::new([(0, 0.6), (1, 0.4)], 2).unwrap();
    let cell = |backend| Cell::built(RegionConfig::default(), backend, 1);
    let oracle = engine(&cell(Mem), &dataset).query(&clean).unwrap().dims;
    for backend in BackendKind::ALL {
        let engine = engine(&cell(backend), &dataset);
        // The tuple region is allocated last and fits one page, so the last
        // tuple's one coordinate is the 12 bytes after the 80 before it.
        // Rewrite its value through the pool: the frame seal stays valid.
        let pool = engine.index().pool();
        let page = PageId(pool.store().num_pages() - 1);
        let at = 80 * 12;
        let mut bytes = pool.read(page).unwrap().to_vec();
        assert_eq!(bytes[at..at + 4], 2u32.to_le_bytes(), "{backend}");
        assert_eq!(bytes[at + 4..at + 12], 0.9f64.to_le_bytes(), "{backend}");
        bytes[at + 4..at + 12].copy_from_slice(&1.5f64.to_le_bytes());
        pool.write(page, &bytes).unwrap();

        let err = engine.query(&touches).map(|_| ()).unwrap_err();
        assert!(
            matches!(
                &err,
                IrError::Corruption { page: Some(p), .. } if *p == page.0
            ),
            "{backend}: {err:?}"
        );
        let health = engine.health();
        assert_eq!(health.corruption_errors, 1, "{backend}");
        assert_eq!(health.queries_failed, 1, "{backend}");
        // A query whose lists never reach the damaged tuple is still exact.
        assert_eq!(engine.query(&clean).unwrap().dims, oracle, "{backend}");
        assert_eq!(engine.health().queries_ok, 1, "{backend}");
    }
}

#[test]
fn consecutive_transients_exhaust_retries_with_a_typed_error() {
    let oracle = oracle_reports(4);
    for backend in BackendKind::ALL {
        // Ops 0, 1 and 2 all fail transiently: a 3-attempt policy burns
        // attempt 1 on op 0, retries into ops 1 and 2, and gives up typed.
        let plan = FaultPlan {
            transient_read_ops: vec![0, 1, 2],
            ..FaultPlan::default()
        };
        let engine = build_engine(backend, 1, Some(plan), RetryPolicy::default());
        let query = &queries(4)[0];
        let err = engine.query(query).map(|_| ()).unwrap_err();
        assert!(
            matches!(&err, IrError::RetryExhausted { attempts: 3, .. }),
            "{backend}: {err:?}"
        );
        let report = engine.query(query).unwrap();
        assert_eq!(
            report.dims, oracle[0],
            "{backend}: post-exhaustion divergence"
        );
        let health = engine.health();
        assert_eq!(health.retries_exhausted, 1, "{backend}");
        assert_eq!(health.read_retries, 2, "{backend}: two retries were burned");
        assert_eq!(health.queries_ok, 1, "{backend}");
    }
}

/// Strategy for arbitrary (panic-free) fault plans: scattered transient
/// ops, an optional outage window (length 0 = none) and an optional
/// one-shot corruption (mask 0 = none — a zero XOR would be invisible
/// anyway).
fn arb_fault_plan() -> impl Strategy<Value = FaultPlan> {
    (
        proptest::collection::vec(0u64..300, 0..12),
        (0u64..50, 0u64..40),
        (0u64..100, 0usize..4096, 0u8..=255),
    )
        .prop_map(
            |(mut transient_read_ops, (from, outage_len), (op, byte_offset, xor_mask))| {
                transient_read_ops.sort_unstable();
                transient_read_ops.dedup();
                let (fail_reads_from_op, fail_reads_until_op) = if outage_len > 0 {
                    (Some(from), Some(from + outage_len))
                } else {
                    (None, None)
                };
                FaultPlan {
                    transient_read_ops,
                    fail_reads_from_op,
                    fail_reads_until_op,
                    corruptions: if xor_mask != 0 {
                        vec![CorruptionSpec {
                            op,
                            byte_offset: byte_offset as u32,
                            xor_mask,
                        }]
                    } else {
                        Vec::new()
                    },
                    ..FaultPlan::default()
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8).with_seed(0xC4A0_0001))]

    /// Under an arbitrary fault plan the engine never panics the caller:
    /// every query either matches the fault-free oracle byte for byte or
    /// fails with a typed error — and once the device is disarmed, the
    /// engine serves the whole workload correctly again.
    #[test]
    fn arbitrary_fault_plans_never_poison_the_engine(plan in arb_fault_plan()) {
        let oracle = oracle_reports(4);
        let engine = build_engine(Mem, 2, Some(plan), RetryPolicy::default());
        for (i, query) in queries(4).iter().enumerate() {
            match engine.query(query) {
                Ok(report) => prop_assert_eq!(
                    &report.dims, &oracle[i],
                    "query {} diverged under faults", i
                ),
                Err(err) if is_device_fault(&err) => {} // typed failure: acceptable
                Err(other) => prop_assert!(false, "untyped failure: {:?}", other),
            }
        }
        // Disarm the device: the engine must be fully serviceable.
        engine.index().fault_injector().unwrap().disarm();
        let reports = engine.query_batch(&queries(4)).unwrap();
        for (i, report) in reports.iter().enumerate() {
            prop_assert_eq!(&report.dims, &oracle[i], "post-disarm query {}", i);
        }
        let health = engine.health();
        prop_assert_eq!(health.queries_ok + health.queries_failed, 7);
    }
}
