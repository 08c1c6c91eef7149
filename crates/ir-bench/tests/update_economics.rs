//! Update economics at WSJ smoke scale: under a Zipf-popular tuple-update
//! stream most fleet regions survive each maintenance batch, and the whole
//! stream's in-place maintenance I/O stays strictly below rebuilding the
//! index after every batch.
//!
//! Both properties need a realistic index: on the oracle suites' toy
//! datasets an index rebuild costs only a handful of pages, so in-place
//! maintenance does not win there. The equivalence of maintained and
//! rebuilt answers is `dynamic_oracle`'s job, not this test's.

use immutable_regions::engine::IrEngine;
use immutable_regions::fleet::{FleetConfig, SubscriptionManager};
use ir_bench::{BenchDataset, Scale};
use ir_datagen::{UpdateConfig, UpdateStream};

#[test]
fn maintenance_beats_rebuild_per_batch_and_most_regions_survive() {
    let dataset = BenchDataset::Wsj.generate(Scale::Smoke);
    let workload = BenchDataset::Wsj.workload_for(&dataset, 3, 10, 8).unwrap();
    let engine = IrEngine::builder().dataset_ref(&dataset).build().unwrap();
    let mut manager = SubscriptionManager::new(&engine, FleetConfig { max_batch: 16 }).unwrap();
    manager
        .admit_all(
            workload
                .queries()
                .iter()
                .cloned()
                .enumerate()
                .map(|(i, q)| (i as u64, q)),
        )
        .unwrap();

    let stream = UpdateStream::generate(
        &dataset,
        &UpdateConfig {
            num_updates: 120,
            churn: 0.4,
            zipf_exponent: 1.0,
            remove_fraction: 0.1,
        },
        0xD1DA ^ 40,
    )
    .unwrap();
    for batch in stream.batches(16) {
        manager.apply_updates(batch).unwrap();
    }

    let maint = engine.maintenance_stats();
    let stats = manager.stats();
    assert_eq!(maint.batches, 8);
    let screened = stats.regions_survived + stats.regions_punctured;
    assert_eq!(
        screened,
        8 * maint.batches,
        "every member screened per batch"
    );
    let survival = stats.regions_survived as f64 / screened as f64;
    assert!(
        survival > 0.5,
        "most regions must survive an update batch: {} of {screened}",
        stats.regions_survived
    );

    // The alternative that keeps answers equally fresh: rebuild the index
    // after every batch. One rebuild on the mutated data costs this much.
    let mutated = dataset.with_updates(stream.updates()).unwrap();
    let rebuilt = IrEngine::builder().dataset_ref(&mutated).build().unwrap();
    let maint_io = maint.logical_reads + maint.pages_written;
    let rebuild_io = maint.batches * rebuilt.cold_start_info().pages;
    assert!(
        maint_io < rebuild_io,
        "maintenance I/O {maint_io} must stay below rebuild-per-batch I/O {rebuild_io}"
    );
}
