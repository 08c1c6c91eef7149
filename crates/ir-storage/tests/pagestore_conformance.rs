//! Shared conformance suite for every page-store backend.
//!
//! One set of behavioural checks — roundtrip, reopen-after-drop
//! persistence, concurrent readers, and a proptest write/read pattern sweep
//! against an in-memory model — instantiated for [`MemPageStore`] and
//! [`FilePageStore`] through the [`conformance!`] macro, so a new backend
//! cannot ship without passing the exact same contract.

use ir_storage::page::zeroed_page;
use ir_storage::{PageId, PageStore, PAGE_SIZE};
use ir_types::IrError;
use proptest::prelude::*;
use std::path::Path;
use std::sync::Arc;

/// A recognisable page body: every byte derived from the seed and offset.
fn patterned_page(seed: u8) -> Box<[u8]> {
    (0..PAGE_SIZE)
        .map(|i| seed.wrapping_mul(31).wrapping_add((i % 251) as u8))
        .collect()
}

/// Basic contract: allocation is contiguous from zero, writes round-trip,
/// fresh pages are zeroed, out-of-bounds and short writes are rejected.
fn check_roundtrip(store: &dyn PageStore) {
    assert_eq!(store.num_pages(), 0);
    assert_eq!(store.allocate(3).unwrap(), PageId(0));
    assert_eq!(store.num_pages(), 3);

    let page = patterned_page(7);
    store.write_page(PageId(1), &page).unwrap();
    assert_eq!(store.read_page(PageId(1)).unwrap(), page);
    assert!(store.read_page(PageId(2)).unwrap().iter().all(|&b| b == 0));

    assert!(store.read_page(PageId(3)).is_err());
    assert!(store.write_page(PageId(3), &page).is_err());
    assert!(store.write_page(PageId(0), &[0u8; 17]).is_err());

    assert_eq!(store.allocate(1).unwrap(), PageId(3));
    assert_eq!(store.num_pages(), 4);
}

/// Many threads read a shared store concurrently (the situation the
/// parallel batch driver puts every backend in); each read must return the
/// exact page that was written.
fn check_concurrent_readers(store: Arc<dyn PageStore>) {
    const PAGES: u32 = 12;
    const THREADS: u32 = 8;
    const READS: u32 = 250;
    store.allocate(PAGES).unwrap();
    for page in 0..PAGES {
        store
            .write_page(PageId(page), &patterned_page(page as u8))
            .unwrap();
    }
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let store = Arc::clone(&store);
        handles.push(std::thread::spawn(move || {
            for i in 0..READS {
                let page = (i * 13 + t * 5) % PAGES;
                let data = store.read_page(PageId(page)).unwrap();
                assert_eq!(data, patterned_page(page as u8), "page {page} corrupted");
            }
        }));
    }
    for handle in handles {
        handle.join().unwrap();
    }
}

/// Writes survive dropping the store and reopening the same path.
fn check_reopen_persistence(
    dir: &Path,
    create: fn(&Path) -> Arc<dyn PageStore>,
    open: fn(&Path) -> Arc<dyn PageStore>,
) {
    {
        let store = create(dir);
        store.allocate(5).unwrap();
        for page in 0..5u32 {
            store
                .write_page(PageId(page), &patterned_page(100 + page as u8))
                .unwrap();
        }
        // The store is dropped here — its file handle closes.
    }
    let reopened = open(dir);
    assert_eq!(reopened.num_pages(), 5);
    for page in 0..5u32 {
        assert_eq!(
            reopened.read_page(PageId(page)).unwrap(),
            patterned_page(100 + page as u8),
            "page {page} lost across reopen"
        );
    }
    // Persistence composes with further growth.
    assert_eq!(reopened.allocate(1).unwrap(), PageId(5));
    assert!(reopened
        .read_page(PageId(5))
        .unwrap()
        .iter()
        .all(|&b| b == 0));
}

/// Error paths are typed and identical across backends: out-of-range pages
/// surface [`IrError::PageOutOfBounds`] with exact coordinates (not a
/// stringly error, not a panic), short writes are rejected, and a damaged
/// stored byte surfaces [`IrError::Corruption`] naming the page — healed by
/// re-flipping (XOR) the same byte, after which the store serves the
/// original data again.
fn check_typed_error_paths(store: &dyn PageStore) {
    store.allocate(2).unwrap();
    let err = store.read_page(PageId(5)).unwrap_err();
    assert!(
        matches!(
            err,
            IrError::PageOutOfBounds {
                page: 5,
                num_pages: 2
            }
        ),
        "{err:?}"
    );
    let err = store.write_page(PageId(2), &patterned_page(1)).unwrap_err();
    assert!(
        matches!(
            err,
            IrError::PageOutOfBounds {
                page: 2,
                num_pages: 2
            }
        ),
        "{err:?}"
    );
    assert!(store.write_page(PageId(0), &[1, 2, 3]).is_err());

    store.write_page(PageId(1), &patterned_page(3)).unwrap();
    store.corrupt_stored_byte(PageId(1), 40, 0x20).unwrap();
    let err = store.read_page(PageId(1)).unwrap_err();
    assert!(
        matches!(err, IrError::Corruption { page: Some(1), .. }),
        "{err:?}"
    );
    // Neighbouring pages are unaffected, and re-applying the XOR heals.
    assert!(store.read_page(PageId(0)).is_ok());
    store.corrupt_stored_byte(PageId(1), 40, 0x20).unwrap();
    assert_eq!(store.read_page(PageId(1)).unwrap(), patterned_page(3));
    // Corruption offsets past the payload are rejected, not wrapped.
    assert!(store.corrupt_stored_byte(PageId(1), PAGE_SIZE, 1).is_err());
}

/// Proptest sweep: an arbitrary interleaving of writes and reads behaves
/// exactly like the trivial in-memory model.
fn check_pattern_sweep(store: &dyn PageStore, ops: &[(u8, u8)]) {
    let mut model: Vec<Box<[u8]>> = Vec::new();
    store.allocate(16).unwrap();
    model.resize_with(16, zeroed_page);
    for &(page, seed) in ops {
        let page = page as usize % 16;
        if seed % 3 == 0 {
            // Read and compare against the model.
            let data = store.read_page(PageId(page as u32)).unwrap();
            assert_eq!(&data, &model[page], "page {page} diverged from model");
        } else {
            let body = patterned_page(seed);
            store.write_page(PageId(page as u32), &body).unwrap();
            model[page] = body;
        }
    }
    // Full final audit.
    for (page, expected) in model.iter().enumerate() {
        let data = store.read_page(PageId(page as u32)).unwrap();
        assert_eq!(&data, expected, "final audit: page {page} diverged");
    }
}

/// Instantiates the whole suite for one backend. `$create`/`$open` are
/// `fn(&Path) -> Arc<dyn PageStore>`; pass `None` for `$open` on
/// non-persistent backends.
macro_rules! conformance {
    ($modname:ident, $create:expr, $open:expr) => {
        mod $modname {
            use super::*;

            const CREATE: fn(&Path) -> Arc<dyn PageStore> = $create;

            #[test]
            fn roundtrip() {
                let dir = tempfile::tempdir().unwrap();
                check_roundtrip(CREATE(dir.path()).as_ref());
            }

            #[test]
            fn concurrent_readers() {
                let dir = tempfile::tempdir().unwrap();
                check_concurrent_readers(CREATE(dir.path()));
            }

            #[test]
            fn typed_error_paths() {
                let dir = tempfile::tempdir().unwrap();
                check_typed_error_paths(CREATE(dir.path()).as_ref());
            }

            #[test]
            fn reopen_persistence() {
                let open: Option<fn(&Path) -> Arc<dyn PageStore>> = $open;
                if let Some(open) = open {
                    let dir = tempfile::tempdir().unwrap();
                    check_reopen_persistence(dir.path(), CREATE, open);
                }
            }

            proptest! {
                #![proptest_config(ProptestConfig::with_cases(24).with_seed(0xC04F_0001))]

                #[test]
                fn pattern_sweep(ops in proptest::collection::vec((0u8..=255u8, 0u8..=255u8), 0..80)) {
                    let dir = tempfile::tempdir().unwrap();
                    check_pattern_sweep(CREATE(dir.path()).as_ref(), &ops);
                }
            }
        }
    };
}

conformance!(mem, |_dir| Arc::new(ir_storage::MemPageStore::new()), None);

// An armed fault injector executing the *empty* plan must be a perfect
// passthrough — the whole contract, error paths included, holds through the
// wrapper.
conformance!(
    faulty_mem_passthrough,
    |_dir| {
        let store = ir_storage::FaultInjectingPageStore::new(
            Arc::new(ir_storage::MemPageStore::new()),
            ir_storage::FaultPlan::default(),
        );
        store.arm();
        store
    },
    None
);

conformance!(
    file,
    |dir| Arc::new(ir_storage::FilePageStore::create(dir.join("pages.bin")).unwrap()),
    Some(|dir: &Path| {
        Arc::new(ir_storage::FilePageStore::open(dir.join("pages.bin")).unwrap())
            as Arc<dyn PageStore>
    })
);

/// The persistent backend rejects files that are not (whole) page files
/// with a typed file-level corruption error — no panic, no misread.
#[test]
fn open_rejects_garbage_files() {
    fn assert_rejected(path: &Path, what: &str) {
        let err = ir_storage::FilePageStore::open(path)
            .map(|_| ())
            .unwrap_err();
        assert!(
            matches!(err, IrError::Corruption { page: None, .. }),
            "file store, {what}: {err:?}"
        );
    }

    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("garbage.bin");

    // Shorter than the header.
    std::fs::write(&path, b"short").unwrap();
    assert_rejected(&path, "truncated header");

    // Plausible length, wrong magic.
    std::fs::write(&path, vec![0xAAu8; 64 + PAGE_SIZE + 8]).unwrap();
    assert_rejected(&path, "foreign content");

    // Valid header followed by a torn (partial) frame.
    let store_path = dir.path().join("torn.bin");
    {
        let store = ir_storage::FilePageStore::create(&store_path).unwrap();
        store.allocate(1).unwrap();
    }
    let mut bytes = std::fs::read(&store_path).unwrap();
    bytes.truncate(bytes.len() - 1);
    std::fs::write(&store_path, &bytes).unwrap();
    assert_rejected(&store_path, "torn trailing frame");
}
