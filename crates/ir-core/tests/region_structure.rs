//! Structural invariants of the region reports, checked on randomized
//! inputs: regions are contiguous and ordered, the current region contains
//! deviation zero, every reported result is a valid top-k list of the right
//! length, and the composition-only regions always contain the strict-mode
//! regions. Also covers φ > 0 in composition-only mode against the oracle,
//! which no other test exercises.

use ir_core::config::PerturbationMode;
use ir_core::{Algorithm, ExhaustiveOracle, RegionComputation, RegionConfig};
use ir_storage::IndexBuilder;
use ir_types::{Dataset, DatasetBuilder, QueryVector};
use proptest::prelude::*;

fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    let dims = 5u32;
    let tuple = proptest::collection::btree_map(0..dims, 0.01f64..1.0, 1..=dims as usize);
    proptest::collection::vec(tuple, 8..50).prop_map(move |tuples| {
        let mut builder = DatasetBuilder::new(dims);
        for t in tuples {
            builder.push_pairs(t).unwrap();
        }
        builder.build()
    })
}

fn query_strategy() -> impl Strategy<Value = QueryVector> {
    (
        proptest::collection::btree_map(0u32..5, 0.25f64..=1.0, 2..=3),
        2usize..5,
        0usize..3,
    )
        .prop_map(|(weights, k, phi)| (QueryVector::new(weights, k).unwrap(), phi))
        .prop_map(|(q, _)| q)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn region_sequences_are_well_formed(
        dataset in dataset_strategy(),
        query in query_strategy(),
        phi in 0usize..3,
    ) {
        let index = IndexBuilder::new().build_shared(&dataset).unwrap();
        let mut computation =
            RegionComputation::new(&index, &query, RegionConfig::with_phi(Algorithm::Cpt, phi))
                .unwrap();
        let report = computation.compute().unwrap();
        let k = computation.result().len();

        prop_assert_eq!(report.dims.len(), query.qlen());
        for dim_regions in &report.dims {
            // The immutable region contains zero and lies inside the weight
            // domain.
            prop_assert!(dim_regions.immutable.lo <= 1e-12);
            prop_assert!(dim_regions.immutable.hi >= -1e-12);
            prop_assert!(dim_regions.immutable.lo >= -dim_regions.weight - 1e-9);
            prop_assert!(dim_regions.immutable.hi <= 1.0 - dim_regions.weight + 1e-9);

            // Regions are contiguous, ordered, and at most 2φ + 1 of them.
            prop_assert!(dim_regions.regions.len() <= 2 * phi + 1);
            prop_assert!(dim_regions.current_region < dim_regions.regions.len());
            for pair in dim_regions.regions.windows(2) {
                prop_assert!(pair[0].delta_hi <= pair[1].delta_lo + 1e-9);
                prop_assert!((pair[0].delta_hi - pair[1].delta_lo).abs() < 1e-9,
                    "regions must be contiguous");
            }
            let current = &dim_regions.regions[dim_regions.current_region];
            prop_assert!(current.contains(0.0));
            // Every reported result has exactly k members (the dataset is
            // large enough) and no duplicates.
            for region in &dim_regions.regions {
                prop_assert_eq!(region.result.len(), k);
                let mut ids = region.result.clone();
                ids.sort_unstable();
                ids.dedup();
                prop_assert_eq!(ids.len(), k);
            }
        }
    }

    #[test]
    fn composition_only_phi_regions_match_oracle(
        dataset in dataset_strategy(),
        query in query_strategy(),
        phi in 1usize..3,
    ) {
        let index = IndexBuilder::new().build_shared(&dataset).unwrap();
        let oracle = ExhaustiveOracle::new(&dataset, query.clone());
        let mut computation = RegionComputation::new(
            &index,
            &query,
            RegionConfig::with_phi(Algorithm::Cpt, phi).composition_only(),
        )
        .unwrap();
        let report = computation.compute().unwrap();
        for dim_regions in &report.dims {
            let expected = oracle.regions(dim_regions.dim, phi, PerturbationMode::CompositionOnly);
            prop_assert!(
                dim_regions.immutable.approx_eq(&expected.immutable, 1e-9),
                "dim {:?}: {:?} vs oracle {:?}",
                dim_regions.dim,
                dim_regions.immutable,
                expected.immutable
            );
            // Region *boundaries* past the immutable region must also agree
            // (compare the set of boundaries on each side, as far as both
            // report them).
            let ours: Vec<f64> = dim_regions
                .regions
                .iter()
                .map(|r| r.delta_lo)
                .chain(dim_regions.regions.iter().map(|r| r.delta_hi))
                .collect();
            let theirs: Vec<f64> = expected
                .regions
                .iter()
                .map(|r| r.delta_lo)
                .chain(expected.regions.iter().map(|r| r.delta_hi))
                .collect();
            for boundary in &theirs {
                prop_assert!(
                    ours.iter().any(|b| (b - boundary).abs() < 1e-9),
                    "oracle boundary {boundary} missing from {ours:?}"
                );
            }
        }
    }

    #[test]
    fn strict_regions_are_contained_in_composition_only_regions(
        dataset in dataset_strategy(),
        query in query_strategy(),
    ) {
        let index = IndexBuilder::new().build_shared(&dataset).unwrap();
        let mut strict =
            RegionComputation::new(&index, &query, RegionConfig::flat(Algorithm::Cpt)).unwrap();
        let strict_report = strict.compute().unwrap();
        let mut loose = RegionComputation::new(
            &index,
            &query,
            RegionConfig::flat(Algorithm::Cpt).composition_only(),
        )
        .unwrap();
        let loose_report = loose.compute().unwrap();
        for (s, l) in strict_report.dims.iter().zip(&loose_report.dims) {
            prop_assert!(l.immutable.lo <= s.immutable.lo + 1e-9);
            prop_assert!(l.immutable.hi >= s.immutable.hi - 1e-9);
        }
    }
}
