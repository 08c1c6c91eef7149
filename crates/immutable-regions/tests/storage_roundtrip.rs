//! The disk-backed storage path: building the index on real files, running
//! TA and the region computation through the buffer pool, and checking that
//! the I/O accounting behaves sensibly.

use immutable_regions::prelude::*;
use immutable_regions::storage::PAGE_SIZE;

fn medium_dataset() -> Dataset {
    // Deterministic mixed-sparsity dataset, large enough to span many pages.
    let dims = 24u32;
    let mut builder = DatasetBuilder::new(dims);
    for i in 0..2_000u32 {
        let nnz = 1 + (i % 7);
        let pairs: Vec<(u32, f64)> = (0..nnz)
            .map(|j| {
                let d = (i * 13 + j * 7) % dims;
                let v = (((i * 31 + j * 17) % 97) + 1) as f64 / 100.0;
                (d, v)
            })
            .collect::<std::collections::BTreeMap<u32, f64>>()
            .into_iter()
            .collect();
        builder.push_pairs(pairs).unwrap();
    }
    builder.build()
}

#[test]
fn disk_backed_index_produces_the_same_regions_as_memory() {
    let dataset = medium_dataset();
    let dir = tempfile::tempdir().unwrap();
    let disk_index = IndexBuilder::new()
        .backend(StorageBackend::Disk(dir.path().to_path_buf()))
        .pool_capacity(64)
        .build_shared(&dataset)
        .unwrap();
    let mem_index = IndexBuilder::new().build_shared(&dataset).unwrap();
    let query = QueryVector::new([(0, 0.9), (5, 0.6), (11, 0.3)], 10).unwrap();

    let mut disk_rc =
        RegionComputation::new(&disk_index, &query, RegionConfig::flat(Algorithm::Cpt)).unwrap();
    let disk_report = disk_rc.compute().unwrap();
    let mut mem_rc =
        RegionComputation::new(&mem_index, &query, RegionConfig::flat(Algorithm::Cpt)).unwrap();
    let mem_report = mem_rc.compute().unwrap();

    assert_eq!(disk_rc.result().ids(), mem_rc.result().ids());
    for (a, b) in disk_report.dims.iter().zip(&mem_report.dims) {
        assert!(a.immutable.approx_eq(&b.immutable, 1e-12));
    }
    // The page file exists and holds at least the tuple region.
    let page_file = dir.path().join("index.pages");
    let len = std::fs::metadata(&page_file).unwrap().len();
    assert!(len >= PAGE_SIZE as u64);
}

#[test]
fn small_buffer_pool_forces_physical_rereads() {
    let dataset = medium_dataset();
    let query = QueryVector::new([(0, 0.9), (5, 0.6)], 10).unwrap();

    let tight = IndexBuilder::new()
        .pool_capacity(2)
        .build_shared(&dataset)
        .unwrap();
    let roomy = IndexBuilder::new()
        .pool_capacity(4096)
        .build_shared(&dataset)
        .unwrap();

    for index in [&tight, &roomy] {
        index.cold_start();
        let mut rc =
            RegionComputation::new(index, &query, RegionConfig::flat(Algorithm::Scan)).unwrap();
        let _ = rc.compute().unwrap();
    }
    let tight_phys = tight.io_snapshot().physical_reads;
    let roomy_phys = roomy.io_snapshot().physical_reads;
    assert!(
        tight_phys > roomy_phys,
        "a 2-page pool ({tight_phys}) must re-read more than a 4096-page pool ({roomy_phys})"
    );
    // Logical reads are identical — the access pattern does not depend on
    // the pool size.
    assert_eq!(
        tight.io_snapshot().logical_reads,
        roomy.io_snapshot().logical_reads
    );
}

#[test]
fn io_latency_model_converts_physical_reads_to_time() {
    let dataset = medium_dataset();
    let index = IndexBuilder::new()
        .io_config(IoConfig::default())
        .pool_capacity(8)
        .build_shared(&dataset)
        .unwrap();
    let query = QueryVector::new([(2, 0.8), (7, 0.5)], 5).unwrap();
    index.cold_start();
    let mut rc =
        RegionComputation::new(&index, &query, RegionConfig::flat(Algorithm::Cpt)).unwrap();
    let report = rc.compute().unwrap();
    let io_time = index
        .io_config()
        .simulated_io_time(&report.stats.io.plus(&report.stats.topk_io));
    assert!(
        io_time.as_micros() > 0,
        "physical reads must cost simulated time"
    );
    assert_eq!(
        IoConfig::memory_resident()
            .simulated_io_time(&report.stats.io)
            .as_nanos(),
        0
    );
}
