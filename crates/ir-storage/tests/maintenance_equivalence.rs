//! The storage-level oracle law of the dynamic update model: after **any**
//! sequence of [`TupleUpdate`] batches, a maintained [`TopKIndex`] is
//! logically identical to an index freshly built from the mutated dataset —
//! same list contents in the same stored order, same tuple vectors, same
//! cardinality. Plus the physical properties maintenance promises: free
//! page runs are recycled, relocations are counted, maintenance I/O lands
//! in its own counters, and a snapshot saved mid-churn reopens as the
//! mutated state.

use ir_storage::{IndexBuilder, StorageBackend, TopKIndex};
use ir_types::{Dataset, DatasetBuilder, DimId, SeededLcg, SparseVector, TupleId, TupleUpdate};

/// Entries of one inverted list in stored order, read through a cursor.
fn list_entries(index: &TopKIndex, dim: u32) -> Vec<(TupleId, f64)> {
    let mut cursor = index.list_cursor(DimId(dim)).unwrap();
    std::iter::from_fn(|| cursor.next_entry().unwrap()).collect()
}

/// Asserts the maintained index and a fresh build of `dataset` agree on
/// every list and every tuple.
fn assert_matches_fresh_build(maintained: &TopKIndex, dataset: &Dataset) {
    let fresh = TopKIndex::build_in_memory(dataset).unwrap();
    assert_eq!(maintained.cardinality(), fresh.cardinality());
    assert_eq!(maintained.dimensionality(), fresh.dimensionality());
    for dim in 0..dataset.dimensionality() {
        assert_eq!(
            list_entries(maintained, dim),
            list_entries(&fresh, dim),
            "list {dim} diverged from a fresh build"
        );
    }
    for id in 0..dataset.cardinality() as u32 {
        assert_eq!(
            maintained.fetch_tuple(TupleId(id)).unwrap(),
            fresh.fetch_tuple(TupleId(id)).unwrap(),
            "tuple {id} diverged from a fresh build"
        );
    }
}

fn vector(pairs: &[(u32, f64)]) -> SparseVector {
    SparseVector::from_pairs(pairs.iter().copied()).unwrap()
}

#[test]
fn insert_delete_and_rescore_match_a_fresh_build() {
    let mut dataset = Dataset::running_example();
    let index = TopKIndex::build_in_memory(&dataset).unwrap();
    let updates = vec![
        TupleUpdate::Insert {
            vector: vector(&[(0, 0.95), (1, 0.15)]),
        },
        TupleUpdate::Delete { tuple: TupleId(1) },
        TupleUpdate::UpdateScore {
            tuple: TupleId(0),
            dim: DimId(1),
            value: 0.9,
        },
        // Inserted above at id 4, mutated inside the same batch.
        TupleUpdate::UpdateScore {
            tuple: TupleId(4),
            dim: DimId(0),
            value: 0.0,
        },
    ];
    let applied = index.apply_updates(&updates).unwrap();
    assert_eq!(applied.len(), 4);
    assert_eq!(applied[0].tuple, TupleId(4));
    assert!(applied[0].old_vector.is_empty());
    assert_eq!(applied[1].new_vector, SparseVector::new());
    assert_eq!(applied[3].old_vector, applied[0].new_vector);
    for update in &updates {
        dataset.apply_update(update).unwrap();
    }
    assert_matches_fresh_build(&index, &dataset);

    let stats = index.maintenance_stats();
    assert_eq!(stats.updates_applied, 4);
    assert_eq!(stats.batches, 1);
    assert!(stats.lists_rewritten >= 2, "both dimensions changed");
    assert!(
        stats.pages_written > 0,
        "maintenance I/O must be attributed"
    );
}

#[test]
fn an_invalid_update_rejects_the_whole_batch() {
    let dataset = Dataset::running_example();
    let index = TopKIndex::build_in_memory(&dataset).unwrap();
    let batch = vec![
        TupleUpdate::Delete { tuple: TupleId(0) },
        TupleUpdate::UpdateScore {
            tuple: TupleId(99),
            dim: DimId(0),
            value: 0.5,
        },
    ];
    assert!(index.apply_updates(&batch).is_err());
    // Nothing was applied: the index still matches the unmutated dataset.
    assert_matches_fresh_build(&index, &dataset);
    assert_eq!(index.maintenance_stats().updates_applied, 0);
}

#[test]
fn randomized_churn_matches_a_fresh_build_after_every_batch() {
    // A seeded mixed-operation stream over a dataset large enough that
    // lists span several pages and the tuple region relocates.
    let mut builder = DatasetBuilder::new(6);
    let mut rng = SeededLcg::mixed(0xD11A);
    for _ in 0..500 {
        let mut pairs: Vec<(u32, f64)> = Vec::new();
        for d in 0..6u32 {
            if rng.next_below(3) > 0 {
                pairs.push((d, (rng.next_below(999) + 1) as f64 / 1000.0));
            }
        }
        builder.push_pairs(pairs).unwrap();
    }
    let mut dataset = builder.build();
    let index = TopKIndex::build_in_memory(&dataset).unwrap();

    for _batch in 0..12 {
        let mut updates = Vec::new();
        for _ in 0..40 {
            let card = dataset.cardinality() as u64;
            match rng.next_below(4) {
                0 => {
                    let mut pairs: Vec<(u32, f64)> = Vec::new();
                    for d in 0..6u32 {
                        if rng.next_below(2) == 0 {
                            pairs.push((d, (rng.next_below(999) + 1) as f64 / 1000.0));
                        }
                    }
                    updates.push(TupleUpdate::Insert {
                        vector: vector(&pairs),
                    });
                }
                1 => updates.push(TupleUpdate::Delete {
                    tuple: TupleId(rng.next_below(card) as u32),
                }),
                _ => updates.push(TupleUpdate::UpdateScore {
                    tuple: TupleId(rng.next_below(card) as u32),
                    dim: DimId(rng.next_below(6) as u32),
                    value: rng.next_below(1000) as f64 / 1000.0, // 0.0 removes
                }),
            }
            // Keep the oracle dataset in lockstep so ids stay valid while
            // the batch is being composed.
            dataset.apply_update(updates.last().unwrap()).unwrap();
        }
        index.apply_updates(&updates).unwrap();
        assert_matches_fresh_build(&index, &dataset);
    }

    let stats = index.maintenance_stats();
    assert_eq!(stats.updates_applied, 12 * 40);
    assert_eq!(stats.batches, 12);
    assert!(
        stats.tuple_relocations >= 1,
        "480 updates with ~120 inserts must outgrow the tuple region at least once"
    );
}

#[test]
fn maintenance_io_is_separate_from_query_io() {
    let dataset = Dataset::running_example();
    let index = TopKIndex::build_in_memory(&dataset).unwrap();
    index.cold_start();
    index
        .apply_update(&TupleUpdate::UpdateScore {
            tuple: TupleId(2),
            dim: DimId(0),
            value: 0.99,
        })
        .unwrap();
    let maint = index.maintenance_stats();
    let pool_after_maintenance = index.io_snapshot();
    assert!(maint.pages_written > 0);
    assert!(maint.logical_reads > 0);
    // Query traffic grows the pool counters but not the maintenance ones.
    index.fetch_tuple(TupleId(0)).unwrap();
    assert_eq!(index.maintenance_stats(), maint);
    assert!(index.io_snapshot().logical_reads > pool_after_maintenance.logical_reads);
}

#[test]
fn emptied_lists_free_their_pages_for_reuse() {
    // One tuple per dimension; deleting the only tuple of dimension 0 must
    // drop its list entirely (a fresh build of the mutated dataset has no
    // list there) and recycle its page for the next list that needs one.
    let mut builder = DatasetBuilder::new(3);
    builder.push_pairs([(0, 0.7)]).unwrap();
    builder.push_pairs([(1, 0.6)]).unwrap();
    builder.push_pairs([(2, 0.5)]).unwrap();
    let mut dataset = builder.build();
    let index = TopKIndex::build_in_memory(&dataset).unwrap();
    let freed = index.list_directory(DimId(0)).unwrap();

    let batch = vec![TupleUpdate::Delete { tuple: TupleId(0) }];
    index.apply_updates(&batch).unwrap();
    dataset.apply_update(&batch[0]).unwrap();
    assert!(index.list_directory(DimId(0)).is_none());
    assert_matches_fresh_build(&index, &dataset);

    // An insert that revives dimension 0 reuses the freed page run instead
    // of allocating fresh pages past the end of the store.
    let revive = vec![TupleUpdate::Insert {
        vector: vector(&[(0, 0.4)]),
    }];
    index.apply_updates(&revive).unwrap();
    dataset.apply_update(&revive[0]).unwrap();
    assert_eq!(
        index.list_directory(DimId(0)).unwrap().first_page,
        freed.first_page,
        "freed run must be recycled deterministically"
    );
    assert_matches_fresh_build(&index, &dataset);
}

#[test]
fn snapshot_saved_mid_churn_reopens_as_the_mutated_state() {
    let mut dataset = Dataset::running_example();
    let index = TopKIndex::build_in_memory(&dataset).unwrap();
    let updates = vec![
        TupleUpdate::Delete { tuple: TupleId(3) },
        TupleUpdate::Insert {
            vector: vector(&[(0, 0.66), (1, 0.44)]),
        },
        TupleUpdate::UpdateScore {
            tuple: TupleId(0),
            dim: DimId(0),
            value: 0.11,
        },
    ];
    index.apply_updates(&updates).unwrap();
    for update in &updates {
        dataset.apply_update(update).unwrap();
    }

    let dir = tempfile::tempdir().unwrap();
    index.save_snapshot(dir.path()).unwrap();
    let reopened = IndexBuilder::new()
        .backend(StorageBackend::Memory)
        .open_snapshot(dir.path())
        .unwrap();
    assert_matches_fresh_build(&reopened, &dataset);

    // And the reopened index keeps accepting updates.
    let more = vec![TupleUpdate::UpdateScore {
        tuple: TupleId(4),
        dim: DimId(1),
        value: 0.77,
    }];
    reopened.apply_updates(&more).unwrap();
    dataset.apply_update(&more[0]).unwrap();
    assert_matches_fresh_build(&reopened, &dataset);
}

#[test]
fn file_backend_applies_updates_in_place() {
    let dir = tempfile::tempdir().unwrap();
    let mut dataset = Dataset::running_example();
    let index = IndexBuilder::new()
        .backend(StorageBackend::Disk(dir.path().to_path_buf()))
        .build(&dataset)
        .unwrap();
    let updates = vec![
        TupleUpdate::Insert {
            vector: vector(&[(0, 0.33)]),
        },
        TupleUpdate::UpdateScore {
            tuple: TupleId(1),
            dim: DimId(1),
            value: 0.0,
        },
    ];
    index.apply_updates(&updates).unwrap();
    for update in &updates {
        dataset.apply_update(update).unwrap();
    }
    assert_matches_fresh_build(&index, &dataset);
}

#[test]
fn a_fetch_never_observes_a_half_applied_batch() {
    use ir_storage::{tuplestore::COORD_BYTES, PAGE_SIZE};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    // Tuple 0 fills bytes [0, 4092) of the tuple region, so tuple 1's
    // two-coordinate record [4092, 4116) straddles the first page boundary
    // and every in-place rewrite of it is two page writes.
    let filler_nnz = PAGE_SIZE / COORD_BYTES;
    let mut builder = DatasetBuilder::new(filler_nnz as u32);
    builder
        .push_pairs((0..filler_nnz as u32).map(|d| (d, 0.5)))
        .unwrap();
    builder.push_pairs([(0, 0.25), (1, 0.75)]).unwrap();
    let index = TopKIndex::build_in_memory(&builder.build()).unwrap();
    let target = TupleId(1);
    let a = vector(&[(0, 0.25), (1, 0.75)]);
    let b = vector(&[(0, 0.5), (1, 0.5)]);
    assert_eq!(index.fetch_tuple(target).unwrap(), a);

    // Each batch moves the tuple from one vector to the other in two
    // updates; between them the stored record is neither.
    let batch_to = |v: &SparseVector| -> Vec<TupleUpdate> {
        v.iter()
            .map(|(dim, value)| TupleUpdate::UpdateScore {
                tuple: target,
                dim,
                value,
            })
            .collect()
    };
    let done = AtomicBool::new(false);
    let start = Barrier::new(3);
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    let mut fetches = 0u64;
                    while !done.load(Ordering::Acquire) {
                        let seen = index.fetch_tuple(target).unwrap();
                        assert!(seen == a || seen == b, "half-applied batch: {seen:?}");
                        fetches += 1;
                    }
                    fetches
                })
            })
            .collect();
        start.wait();
        let written = (0..2_000).try_for_each(|round| {
            let next = if round % 2 == 0 { &b } else { &a };
            index.apply_updates(&batch_to(next)).map(drop)
        });
        // Release the readers before judging the writer, so a failed batch
        // fails the test instead of hanging it.
        done.store(true, Ordering::Release);
        written.unwrap();
        for reader in readers {
            assert!(reader.join().unwrap() > 0, "a reader never ran");
        }
    });
    assert_eq!(index.fetch_tuple(target).unwrap(), a);
    assert_eq!(index.maintenance_stats().tuple_relocations, 0);
}
