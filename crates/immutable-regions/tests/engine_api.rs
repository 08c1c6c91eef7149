//! Integration suite for the [`IrEngine`] façade:
//!
//! * typed error paths — malformed requests come back as the right
//!   [`EngineError`] variant, never a panic,
//! * batch parity — `IrEngine::query_batch` output equals the borrow-based
//!   sequential oracle (`RegionComputation::new` + `compute`) for every
//!   worker count, regions *and* deterministic counters,
//! * subscription soundness — a proptest sweep of weight perturbations
//!   inside and outside the reported region checks that
//!   `Subscription::is_immutable_under` always agrees with a fresh
//!   recompute.

use immutable_regions::prelude::*;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn build_dataset(seed: u64, n: usize, dims: u32) -> Dataset {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut builder = DatasetBuilder::new(dims);
    for _ in 0..n {
        let mut pairs = Vec::new();
        for d in 0..dims {
            if rng.gen::<f64>() < 0.8 {
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
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EED);
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
            QueryVector::new(chosen.into_iter().map(|d| (d, rng.gen_range(0.1..=0.9))), k).unwrap()
        })
        .collect()
}

// ---------------------------------------------------------------- errors --

#[test]
fn empty_dataset_is_a_typed_error() {
    let err = IrEngine::builder()
        .dataset(DatasetBuilder::new(3).build())
        .build()
        .unwrap_err();
    assert!(matches!(err, EngineError::EmptyDataset), "{err}");
}

#[test]
fn missing_source_is_a_typed_error() {
    let err = IrEngine::builder().build().unwrap_err();
    assert!(matches!(err, EngineError::NoSource), "{err}");
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
        EngineError::KTooLarge { k, cardinality } => {
            assert_eq!(k, 9);
            assert_eq!(cardinality, 4);
        }
        other => panic!("expected KTooLarge, got {other}"),
    }
    // The same guard protects every call style.
    assert!(matches!(
        engine.query_batch(std::slice::from_ref(&query)),
        Err(EngineError::KTooLarge { .. })
    ));
    assert!(matches!(
        Subscription::new(&engine, query),
        Err(EngineError::KTooLarge { .. })
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
        EngineError::DimensionNotIndexed {
            dim,
            dimensionality,
        } => {
            assert_eq!(dim, 7);
            assert_eq!(dimensionality, 2);
        }
        other => panic!("expected DimensionNotIndexed, got {other}"),
    }
}

#[test]
fn zero_weight_query_is_a_typed_error() {
    let engine = IrEngine::builder()
        .dataset(Dataset::running_example())
        .build()
        .unwrap();
    let err = engine
        .query_pairs([(0u32, 0.0), (1u32, 0.0)], 2)
        .unwrap_err();
    assert!(matches!(err, EngineError::ZeroWeightQuery), "{err}");
    let err = engine.query_pairs(std::iter::empty(), 2).unwrap_err();
    assert!(matches!(err, EngineError::ZeroWeightQuery), "{err}");
}

/// `EnginePolicy` JSON is strict both ways: the four-key document
/// round-trips, and a document from before the bench stamps moved to the
/// bench series envelope (six keys) is rejected with a typed error rather
/// than half-understood.
#[test]
fn policy_json_round_trips_four_keys_and_rejects_the_old_six() {
    let json = EnginePolicy::default().to_json();
    for key in ["config", "threads", "backend", "fault_plan"] {
        assert!(json.contains(&format!("\"{key}\":")), "{key} in {json}");
    }
    assert!(!json.contains("cold_start") && !json.contains("cluster"));
    assert_eq!(
        EnginePolicy::from_json(&json).unwrap(),
        EnginePolicy::default()
    );

    let old = format!(
        "{},\"cold_start\":{{\"source\":\"Built\",\"pages\":0,\"bytes\":0}},\"cluster\":null}}",
        json.strip_suffix('}').unwrap()
    );
    let err = EnginePolicy::from_json(&old).unwrap_err();
    assert!(matches!(err, EngineError::Policy(_)), "{err}");
    assert!(err.to_string().contains("cold_start"), "{err}");
    // A missing key is rejected the same way.
    let short = json.replace(",\"fault_plan\":null", "");
    assert!(matches!(
        EnginePolicy::from_json(&short),
        Err(EngineError::Policy(_))
    ));
}

/// A policy written while the memory-mapped backend existed names it by
/// its serialized variant (the capitalised CLI name). Loading it is a typed
/// policy error that names the unknown variant, never a silent fallback to
/// the mem backend.
#[test]
fn policy_json_naming_the_removed_mmap_backend_is_a_policy_error() {
    let removed = "mmap";
    let variant = format!("{}{}", removed[..1].to_uppercase(), &removed[1..]);
    let json = EnginePolicy::default().to_json();
    let old = json.replace("\"backend\":\"Mem\"", &format!("\"backend\":\"{variant}\""));
    assert_ne!(old, json, "the default policy stamps the mem backend");
    let err = EnginePolicy::from_json(&old).unwrap_err();
    assert!(matches!(err, EngineError::Policy(_)), "{err}");
    assert!(err.to_string().contains(&variant), "{err}");
}

/// Every robustness-relevant [`IrError`] variant crosses the engine
/// boundary without loss: the request-shaped ones become their own
/// [`EngineError`] variants, and the storage-failure ones ride through
/// [`EngineError::Core`] with payload, message and source chain intact.
#[test]
fn engine_error_maps_every_core_variant_without_loss() {
    use std::error::Error as _;

    // Request-shaped errors are lifted into dedicated variants.
    assert!(matches!(
        EngineError::from(IrError::InvalidK {
            k: 9,
            cardinality: 4
        }),
        EngineError::KTooLarge {
            k: 9,
            cardinality: 4
        }
    ));
    assert!(matches!(
        EngineError::from(IrError::UnknownDimension {
            dim: 7,
            dimensionality: 2
        }),
        EngineError::DimensionNotIndexed {
            dim: 7,
            dimensionality: 2
        }
    ));
    assert!(matches!(
        EngineError::from(IrError::EmptyQuery),
        EngineError::ZeroWeightQuery
    ));

    // Storage failures keep their exact typed payloads behind `Core`.
    let corruption = EngineError::from(IrError::Corruption {
        page: Some(3),
        detail: "checksum mismatch".to_string(),
    });
    assert!(matches!(
        &corruption,
        EngineError::Core(IrError::Corruption { page: Some(3), .. })
    ));
    assert!(corruption.to_string().contains("page 3"), "{corruption}");

    let panicked = EngineError::from(IrError::WorkerPanicked {
        job: "query 4".to_string(),
        message: "boom".to_string(),
    });
    assert!(matches!(
        &panicked,
        EngineError::Core(IrError::WorkerPanicked { .. })
    ));
    assert!(panicked.to_string().contains("query 4"), "{panicked}");

    let oob = EngineError::from(IrError::PageOutOfBounds {
        page: 9,
        num_pages: 3,
    });
    assert!(matches!(
        &oob,
        EngineError::Core(IrError::PageOutOfBounds {
            page: 9,
            num_pages: 3
        })
    ));

    // RetryExhausted keeps its source chain: EngineError -> IrError
    // (exhaustion) -> IrError (the underlying transient fault).
    let exhausted = EngineError::from(IrError::RetryExhausted {
        attempts: 3,
        source: Box::new(IrError::Io(std::io::Error::new(
            std::io::ErrorKind::Interrupted,
            "transient".to_string(),
        ))),
    });
    assert!(exhausted.to_string().contains("3 attempts"), "{exhausted}");
    let core = exhausted.source().expect("Core keeps a source");
    let inner = core.source().expect("RetryExhausted keeps its source");
    assert!(inner.to_string().contains("transient"), "{inner}");
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

// ------------------------------------------------------------ batch parity --

/// The engine's batch path must reproduce the pre-refactor sequential
/// oracle — a plain `RegionComputation::new` + `compute` loop over the
/// borrow-based API — for every worker count: same regions, same
/// deterministic counters (evaluated candidates, logical reads, memory).
#[test]
fn batch_output_matches_borrowed_sequential_oracle_for_every_worker_count() {
    let dims = 5u32;
    let dataset = build_dataset(0xA11CE, 150, dims);
    let queries = build_queries(0xA11CE, dims, 8, 4);

    for config in [
        RegionConfig::flat(Algorithm::Cpt),
        RegionConfig::with_phi(Algorithm::Prune, 2),
        RegionConfig::flat(Algorithm::Scan).composition_only(),
    ] {
        // Low-level oracle: hand-assembled index, no engine.
        let index = IndexBuilder::new().build_shared(&dataset).unwrap();
        let oracle: Vec<RegionReport> = queries
            .iter()
            .map(|query| {
                let mut computation = RegionComputation::new(&index, query, config).unwrap();
                computation.compute().unwrap()
            })
            .collect();

        let engine = IrEngine::builder()
            .dataset(dataset.clone())
            .config(config)
            .build()
            .unwrap();
        for workers in [1usize, 2, 4, 8] {
            let reports = engine.with_threads(workers).query_batch(&queries).unwrap();
            assert_eq!(reports.len(), oracle.len());
            for (expected, got) in oracle.iter().zip(&reports) {
                assert_eq!(expected.dims, got.dims, "workers = {workers}");
                assert_eq!(
                    expected.stats.evaluated_per_dim, got.stats.evaluated_per_dim,
                    "workers = {workers}"
                );
                assert_eq!(
                    expected.stats.phase3_tuples, got.stats.phase3_tuples,
                    "workers = {workers}"
                );
                assert_eq!(
                    expected.stats.initial_candidates, got.stats.initial_candidates,
                    "workers = {workers}"
                );
                assert_eq!(
                    expected.stats.io.logical_reads, got.stats.io.logical_reads,
                    "workers = {workers}"
                );
                assert_eq!(
                    expected.stats.memory_footprint_bytes, got.stats.memory_footprint_bytes,
                    "workers = {workers}"
                );
            }
        }
    }
}

#[test]
fn single_query_matches_borrowed_path_exactly() {
    let dataset = Dataset::running_example();
    let query = QueryVector::running_example();
    let index = IndexBuilder::new().build_shared(&dataset).unwrap();
    let mut low_level =
        RegionComputation::new(&index, &query, RegionConfig::flat(Algorithm::Cpt)).unwrap();
    let expected = low_level.compute().unwrap();

    let engine = IrEngine::builder()
        .dataset(dataset)
        .config(RegionConfig::flat(Algorithm::Cpt))
        .build()
        .unwrap();
    engine.cold_start();
    let got = engine.query(&query).unwrap();
    assert_eq!(expected.dims, got.dims);
    assert_eq!(
        expected.stats.evaluated_per_dim,
        got.stats.evaluated_per_dim
    );
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
        let dataset = build_dataset(seed, 120, dims);
        let engine = IrEngine::builder()
            .dataset(dataset)
            // φ = 1 so the report also names the exact result inside the
            // adjacent regions — the outside probes below land there.
            .config(RegionConfig::with_phi(Algorithm::Cpt, 1))
            .build()
            .unwrap();
        let query = build_queries(seed, dims, 1, k).pop().unwrap();
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
