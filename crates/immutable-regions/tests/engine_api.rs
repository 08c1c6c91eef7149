//! Integration suite for the [`IrEngine`] façade:
//!
//! * typed error paths — malformed requests come back as the right
//!   [`IrError`] variant, never a panic,
//! * storage forwarding — every storage option set on the builder reaches
//!   the index, for a dataset source and a snapshot source alike,
//! * subscription soundness — a proptest sweep of weight perturbations
//!   inside and outside the reported region checks that
//!   `Subscription::is_immutable_under` always agrees with a fresh
//!   recompute.

mod support;

use immutable_regions::prelude::*;
use proptest::prelude::*;
use support::*;

// ---------------------------------------------------------------- errors --

#[test]
fn empty_dataset_is_a_typed_error() {
    let err = IrEngine::builder()
        .dataset(DatasetBuilder::new(3).build())
        .build()
        .unwrap_err();
    assert!(matches!(err, IrError::EmptyDataset), "{err}");
}

#[test]
fn missing_source_is_a_typed_error() {
    let err = IrEngine::builder().build().unwrap_err();
    assert!(matches!(err, IrError::InvalidConfig(_)), "{err}");
}

#[test]
fn k_larger_than_dataset_is_a_typed_error() {
    let engine = IrEngine::builder()
        .dataset(Dataset::running_example()) // 4 tuples
        .build()
        .unwrap();
    let query = QueryVector::new([(0, 0.5)], 9).unwrap();
    let err = engine.query(&query).unwrap_err();
    match err {
        IrError::InvalidK { k, cardinality } => {
            assert_eq!(k, 9);
            assert_eq!(cardinality, 4);
        }
        other => panic!("expected InvalidK, got {other}"),
    }
    // The same guard protects every call style.
    assert!(matches!(
        engine.query_batch(std::slice::from_ref(&query)),
        Err(IrError::InvalidK { .. })
    ));
    assert!(matches!(
        Subscription::new(&engine, query),
        Err(IrError::InvalidK { .. })
    ));
}

#[test]
fn unindexed_dimension_is_a_typed_error() {
    let engine = IrEngine::builder()
        .dataset(Dataset::running_example()) // 2 dimensions
        .build()
        .unwrap();
    let query = QueryVector::new([(0, 0.5), (7, 0.5)], 2).unwrap();
    let err = engine.query(&query).unwrap_err();
    match err {
        IrError::UnknownDimension {
            dim,
            dimensionality,
        } => {
            assert_eq!(dim, 7);
            assert_eq!(dimensionality, 2);
        }
        other => panic!("expected UnknownDimension, got {other}"),
    }
}

#[test]
fn zero_weight_query_is_a_typed_error() {
    let err = QueryVector::new([(0u32, 0.0), (1u32, 0.0)], 2).unwrap_err();
    assert!(matches!(err, IrError::EmptyQuery), "{err}");
    let err = QueryVector::new(std::iter::empty::<(u32, f64)>(), 2).unwrap_err();
    assert!(matches!(err, IrError::EmptyQuery), "{err}");
}

#[test]
fn engine_error_display_is_informative() {
    let engine = IrEngine::builder()
        .dataset(Dataset::running_example())
        .build()
        .unwrap();
    let err = engine
        .query(&QueryVector::new([(0, 0.5)], 9).unwrap())
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains('9') && msg.contains('4'), "{msg}");
}

// --------------------------------------------------------- storage options --

/// The builder configures storage only by forwarding into its
/// `IndexBuilder`; a forward that went missing for one source shows up as
/// a default read back from the served index.
#[test]
fn storage_options_reach_the_index_from_every_source() {
    const PAGES: usize = 4;
    let dataset = dense_dataset(31, 600, 6);
    let query = dense_queries(31, 6, 1, 5).remove(0);
    // Neither is a default: 5 attempts without backoff, and two transient
    // read faults early enough to strike the build's or the open's reads.
    let retry = RetryPolicy {
        max_attempts: 5,
        backoff_base: std::time::Duration::ZERO,
    };
    let plan = FaultPlan::transient_reads(7, 2, 40);

    for source in [Built, Snapshot] {
        for backend in [Mem, File] {
            let cell = Cell {
                source,
                ..Cell::built(RegionConfig::default(), backend, 1)
            };
            let engine = engine_with(&cell, &dataset, |builder| {
                builder
                    .pool_capacity(PAGES)
                    .retry_policy(retry)
                    .fault_plan(plan.clone())
            });
            assert_eq!(engine.index().pool().retry_policy(), retry, "{cell:?}");
            assert_eq!(engine.index().fault_plan(), Some(&plan), "{cell:?}");
            engine.cold_start();
            let report = engine.query(&query).unwrap();
            assert!(
                report.stats.io.physical_reads > PAGES as u64,
                "{cell:?}: the query must read more pages than the pool holds"
            );
            assert!(engine.index().pool().cached_pages() <= PAGES, "{cell:?}");
        }
    }
}

// ----------------------------------------------------------- subscription --

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12).with_seed(0x5AB5_C21B))]

    /// Sweep single-dimension weight perturbations both inside the reported
    /// immutable region and into the adjacent (φ = 1) regions:
    /// `is_immutable_under` must claim immutability exactly when a fresh
    /// recompute returns the cached ordered result.
    #[test]
    fn subscription_agrees_with_fresh_recompute(
        seed in 0u64..5_000,
        k in 1usize..5,
        t in 0.05f64..0.95,
    ) {
        let dims = 5u32;
        // φ = 1 so the report also names the exact result inside the
        // adjacent regions — the outside probes below land there.
        let cell = Cell::built(RegionConfig::with_phi(Algorithm::Cpt, 1), Mem, 1);
        let engine = engine(&cell, &dense_dataset(seed, 120, dims));
        let query = dense_queries(seed, dims, 1, k).pop().unwrap();
        let subscription = Subscription::new(&engine, query.clone()).unwrap();
        let cached_ids = subscription.member().result().to_vec();

        for dim_regions in subscription.member().report().dims.clone() {
            let dim = dim_regions.dim;
            let immutable = dim_regions.immutable;

            // Inside probe: a point strictly within the immutable region.
            let delta = immutable.lo + t * (immutable.hi - immutable.lo);
            let shifted_weight = query.weight(dim) + delta;
            let clear_of_bounds = delta > immutable.lo + 1e-9
                && delta < immutable.hi - 1e-9
                && shifted_weight > 1e-9;
            if clear_of_bounds {
                let inside = query.with_weight_shift(dim, delta).unwrap();
                prop_assert!(
                    subscription.is_immutable_under(&inside),
                    "dim {dim:?}, delta {delta} inside {immutable:?}"
                );
                let fresh = engine.computation(&inside).unwrap();
                prop_assert_eq!(
                    fresh.result().ids(),
                    cached_ids.clone(),
                    "inside the region the fresh result must equal the cache"
                );
            }

            // Outside probes: the midpoint of each adjacent region. The
            // report records the exact result there, so the check is
            // epsilon-free: not immutable, and the fresh recompute returns
            // the adjacent region's result, not the cached one.
            for (i, region) in dim_regions.regions.iter().enumerate() {
                if i == dim_regions.current_region || region.width() < 1e-6 {
                    continue;
                }
                let delta = 0.5 * (region.delta_lo + region.delta_hi);
                let shifted_weight = query.weight(dim) + delta;
                if shifted_weight <= 1e-9 || shifted_weight >= 1.0 - 1e-9 {
                    continue;
                }
                let outside = query.with_weight_shift(dim, delta).unwrap();
                prop_assert!(
                    !subscription.is_immutable_under(&outside),
                    "dim {dim:?}, delta {delta} outside {immutable:?}"
                );
                let fresh = engine.computation(&outside).unwrap();
                prop_assert_eq!(
                    fresh.result().ids(),
                    region.result.clone(),
                    "adjacent region result must match the report"
                );
                prop_assert!(
                    fresh.result().ids() != cached_ids,
                    "crossing a boundary must change the ordered result"
                );
            }
        }
    }
}
