//! O(1) exact-LRU buffer pool with I/O accounting and transient-fault
//! retries.
//!
//! Every page access performed by the inverted-list cursors and the tuple
//! store goes through a [`BufferPool`]. The pool keeps the most recently
//! used pages in memory and counts logical reads (requests), physical reads
//! (misses that hit the page store) and writes. Every count lands twice: in
//! the pool's lifetime totals and in the tally of the unit of work that
//! asked ([`BufferPool::read_counted`], [`BufferPool::write_counted`]). The
//! totals sit beside the frames under the pool mutex each request already
//! takes. The one exception is a logical read of a page its caller still
//! holds (a list cursor reading the next entry on its page,
//! [`BufferPool::count_held_read`]): it takes no lock and is counted in a
//! relaxed atomic that [`BufferPool::io_snapshot`] adds in. The totals are
//! exact for the whole pool and a tally is exact for its owner, however
//! many threads share the pool.
//!
//! A miss caches the `Arc` the store returns. On the mem store that is the
//! stored frame itself, so the pool keeps no second copy of a page.
//!
//! Eviction is exact LRU, and a hit, a miss and an eviction each cost O(1)
//! under the pool mutex: the frames sit in a slab, joined in an intrusive
//! recency list, and a slot table indexed by page id (page ids are dense)
//! finds a page's frame without hashing. Exact LRU rather than an
//! approximation such as CLOCK keeps the victim, and so every
//! single-threaded physical-read count, a function of the access sequence
//! alone.
//!
//! The pool is also the retry boundary of the stack: a [`RetryPolicy`]
//! re-issues store reads and writes that fail with a *transient* error
//! ([`IrError::is_transient`] — interrupted syscalls, timeouts), with a
//! bounded attempt count and a deterministic exponential backoff. A fault
//! that heals within the budget is invisible to every layer above except
//! the `read_retries`/`write_retries` counters; one that persists surfaces
//! as a typed [`IrError::RetryExhausted`]. Non-transient errors (corruption,
//! out-of-bounds, permanent device failure) are never retried.

use crate::page::{PageBuf, PageId, PAGE_SIZE};
use crate::pagestore::PageStore;
use crate::stats::IoStatsSnapshot;
use ir_types::{IrError, IrResult};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Default number of pages the pool keeps cached (4 MiB with 4 KiB pages).
pub const DEFAULT_POOL_CAPACITY: usize = 1024;

/// Bounded-retry policy for transient storage faults.
///
/// Attempt `i` (zero-based, after the first failure) sleeps
/// `backoff_base * 2^i` before re-issuing the operation, so the schedule is
/// deterministic: with the defaults (3 attempts, 100 µs base) a page read
/// is tried at t=0, t=100 µs and t=300 µs, then gives up with
/// [`IrError::RetryExhausted`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation, including the first (minimum 1).
    pub max_attempts: u32,
    /// Backoff before the first re-attempt; doubles on each further one.
    pub backoff_base: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_base: Duration::from_micros(100),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries: every transient fault surfaces
    /// immediately (as itself, not as `RetryExhausted`).
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff_base: Duration::ZERO,
        }
    }

    /// Backoff before re-attempt number `retry` (zero-based).
    fn backoff(&self, retry: u32) -> Duration {
        self.backoff_base * 2u32.saturating_pow(retry).min(1 << 16)
    }
}

/// "No slot": the end of the recency list, and a page that is not resident.
const NIL: u32 = u32::MAX;

/// One cached page: a slab slot linked into the recency list.
struct Frame {
    page: PageId,
    data: Arc<PageBuf>,
    /// The next more recently used slot, or [`NIL`] at the head.
    newer: u32,
    /// The next less recently used slot, or [`NIL`] at the tail.
    older: u32,
}

/// The cached pages in exact least-recently-used order, every operation
/// O(1): a slot table indexed by page id (page ids are dense), and the slab
/// slots joined in an intrusive doubly-linked list from most recently used
/// (`head`) to least (`tail`).
struct LruFrames {
    /// The slab slot of each page id, or [`NIL`]; grown on insert.
    slots: Vec<u32>,
    frames: Vec<Frame>,
    head: u32,
    tail: u32,
    capacity: usize,
    /// The pool's lifetime I/O totals (not reset by [`LruFrames::clear`]),
    /// but for held reads, which `BufferPool::held_reads` counts.
    io: IoStatsSnapshot,
}

impl LruFrames {
    fn new(capacity: usize) -> Self {
        LruFrames {
            slots: Vec::new(),
            frames: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            capacity,
            io: IoStatsSnapshot::default(),
        }
    }

    /// Every slab slot holds a resident page.
    fn len(&self) -> usize {
        self.frames.len()
    }

    fn slot(&self, page: PageId) -> Option<u32> {
        self.slots
            .get(page.index())
            .copied()
            .filter(|&slot| slot != NIL)
    }

    /// The cached copy of `page`, marked most recently used.
    fn get(&mut self, page: PageId) -> Option<Arc<PageBuf>> {
        let slot = self.slot(page)?;
        self.touch(slot);
        Some(Arc::clone(&self.frames[slot as usize].data))
    }

    /// Caches `data` for `page` as the most recently used page. A full pool
    /// reuses the least recently used slot. A page that is already resident
    /// (two threads missed it at once) is only touched: it takes no second
    /// slot and evicts nothing.
    fn insert(&mut self, page: PageId, data: &Arc<PageBuf>) {
        if let Some(slot) = self.slot(page) {
            self.touch(slot);
            return;
        }
        let slot = if self.frames.len() < self.capacity {
            self.frames.push(Frame {
                page,
                data: Arc::clone(data),
                newer: NIL,
                older: NIL,
            });
            (self.frames.len() - 1) as u32
        } else {
            let victim = self.tail;
            self.unlink(victim);
            let frame = &mut self.frames[victim as usize];
            self.slots[frame.page.index()] = NIL;
            frame.page = page;
            frame.data = Arc::clone(data);
            victim
        };
        if self.slots.len() <= page.index() {
            self.slots.resize(page.index() + 1, NIL);
        }
        self.slots[page.index()] = slot;
        self.push_front(slot);
    }

    /// Replaces the cached copy of `page`, if any, and touches it.
    fn refresh(&mut self, page: PageId, data: &[u8]) {
        if let Some(slot) = self.slot(page) {
            self.frames[slot as usize].data = Arc::new(data.into());
            self.touch(slot);
        }
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.frames.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    fn touch(&mut self, slot: u32) {
        if self.head != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
    }

    fn unlink(&mut self, slot: u32) {
        let Frame { newer, older, .. } = self.frames[slot as usize];
        match newer {
            NIL => self.head = older,
            newer => self.frames[newer as usize].older = older,
        }
        match older {
            NIL => self.tail = newer,
            older => self.frames[older as usize].newer = newer,
        }
    }

    fn push_front(&mut self, slot: u32) {
        let old_head = self.head;
        let frame = &mut self.frames[slot as usize];
        frame.newer = NIL;
        frame.older = old_head;
        match old_head {
            NIL => self.tail = slot,
            old_head => self.frames[old_head as usize].newer = slot,
        }
        self.head = slot;
    }
}

/// An LRU page cache in front of a [`PageStore`].
pub struct BufferPool {
    store: Arc<dyn PageStore>,
    inner: Mutex<LruFrames>,
    retry: RetryPolicy,
    /// Logical reads of pages their caller already held (see
    /// [`BufferPool::count_held_read`]), counted without the mutex.
    held_reads: AtomicU64,
}

impl BufferPool {
    /// Creates a pool with the default capacity.
    pub fn new(store: Arc<dyn PageStore>) -> Self {
        Self::with_capacity(store, DEFAULT_POOL_CAPACITY)
    }

    /// Creates a pool that caches at most `capacity` pages (minimum 1),
    /// with the default [`RetryPolicy`].
    pub fn with_capacity(store: Arc<dyn PageStore>, capacity: usize) -> Self {
        Self::with_capacity_and_policy(store, capacity, RetryPolicy::default())
    }

    /// Creates a pool with an explicit transient-fault [`RetryPolicy`].
    pub fn with_capacity_and_policy(
        store: Arc<dyn PageStore>,
        capacity: usize,
        retry: RetryPolicy,
    ) -> Self {
        BufferPool {
            store,
            inner: Mutex::new(LruFrames::new(capacity.clamp(1, NIL as usize))),
            retry,
            held_reads: AtomicU64::new(0),
        }
    }

    /// The underlying page store.
    pub fn store(&self) -> &Arc<dyn PageStore> {
        &self.store
    }

    /// The pool's transient-fault retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Runs `op` under the retry policy: transient failures are re-issued
    /// (`count_retry` ticks the pool totals and `tally` once per
    /// re-attempt) until they heal or the attempt budget is spent.
    fn with_retries<T>(
        &self,
        tally: &mut IoStatsSnapshot,
        count_retry: fn(&mut IoStatsSnapshot),
        op: impl Fn() -> IrResult<T>,
    ) -> IrResult<T> {
        let mut attempt = 0u32;
        loop {
            match op() {
                Ok(value) => return Ok(value),
                Err(err) if err.is_transient() => {
                    attempt += 1;
                    if attempt >= self.retry.max_attempts.max(1) {
                        return if self.retry.max_attempts <= 1 {
                            // A no-retry policy surfaces the fault as-is.
                            Err(err)
                        } else {
                            Err(IrError::RetryExhausted {
                                attempts: attempt,
                                source: Box::new(err),
                            })
                        };
                    }
                    let backoff = self.retry.backoff(attempt - 1);
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                    count_retry(&mut self.inner.lock().io);
                    count_retry(tally);
                }
                Err(err) => return Err(err),
            }
        }
    }

    /// Number of pages currently cached.
    pub fn cached_pages(&self) -> usize {
        self.inner.lock().len()
    }

    /// [`BufferPool::read_counted`] for a caller that keeps no tally.
    pub fn read(&self, page: PageId) -> IrResult<Arc<PageBuf>> {
        self.read_counted(page, &mut IoStatsSnapshot::default())
    }

    /// Reads a page through the cache. Records one logical read, plus one
    /// physical read if the page was not cached and one read retry per
    /// re-issued store read, in the pool's totals and in `tally` alike.
    pub fn read_counted(
        &self,
        page: PageId,
        tally: &mut IoStatsSnapshot,
    ) -> IrResult<Arc<PageBuf>> {
        tally.logical_reads += 1;
        {
            let mut inner = self.inner.lock();
            inner.io.logical_reads += 1;
            if let Some(data) = inner.get(page) {
                return Ok(data);
            }
            inner.io.physical_reads += 1;
        }
        tally.physical_reads += 1;
        // Miss: fetch outside the lock (retrying transient faults), then
        // insert.
        let data = self.with_retries(
            tally,
            |io| io.read_retries += 1,
            || self.store.read_page(page),
        )?;
        self.inner.lock().insert(page, &data);
        Ok(data)
    }

    /// Counts one logical read of a page the caller still holds from an
    /// earlier [`BufferPool::read_counted`] (a list cursor reading the next
    /// entry on its page), in the pool's totals and in `tally` alike. It
    /// takes no lock and leaves the recency order as it is.
    pub fn count_held_read(&self, tally: &mut IoStatsSnapshot) {
        tally.logical_reads += 1;
        self.held_reads.fetch_add(1, Ordering::Relaxed);
    }

    /// [`BufferPool::write_counted`] for a caller that keeps no tally.
    pub fn write(&self, page: PageId, data: &[u8]) -> IrResult<()> {
        self.write_counted(page, data, &mut IoStatsSnapshot::default())
    }

    /// Writes a page through the cache (write-through: the store is updated
    /// immediately and the cached copy, if any, is refreshed). Records one
    /// page written and one write retry per re-issued store write, in the
    /// pool's totals and in `tally` alike.
    pub fn write_counted(
        &self,
        page: PageId,
        data: &[u8],
        tally: &mut IoStatsSnapshot,
    ) -> IrResult<()> {
        if data.len() != PAGE_SIZE {
            return Err(IrError::Storage(format!(
                "buffer pool write expects {PAGE_SIZE} bytes, got {}",
                data.len()
            )));
        }
        self.with_retries(
            tally,
            |io| io.write_retries += 1,
            || self.store.write_page(page, data),
        )?;
        tally.pages_written += 1;
        let mut inner = self.inner.lock();
        inner.io.pages_written += 1;
        inner.refresh(page, data);
        Ok(())
    }

    /// Allocates fresh pages in the underlying store.
    pub fn allocate(&self, count: u32) -> IrResult<PageId> {
        self.store.allocate(count)
    }

    /// Drops every cached page (the I/O totals are preserved).
    pub fn clear_cache(&self) {
        self.inner.lock().clear();
    }

    /// The pool's I/O totals since it was created or last reset: every
    /// request from every caller.
    pub fn io_snapshot(&self) -> IoStatsSnapshot {
        let mut io = self.inner.lock().io;
        io.logical_reads += self.held_reads.load(Ordering::Relaxed);
        io
    }

    /// Resets the I/O totals (the cache content is preserved).
    pub fn reset_io_stats(&self) {
        let mut inner = self.inner.lock();
        inner.io = IoStatsSnapshot::default();
        self.held_reads.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultInjectingPageStore, FaultPlan};
    use crate::pagestore::MemPageStore;
    use std::collections::VecDeque;
    use std::sync::Barrier;

    fn pool_with_pages(capacity: usize, pages: u32) -> BufferPool {
        let store = Arc::new(MemPageStore::new());
        store.allocate(pages).unwrap();
        BufferPool::with_capacity(store, capacity)
    }

    #[test]
    fn hit_and_miss_accounting() {
        let pool = pool_with_pages(4, 2);
        pool.read(PageId(0)).unwrap();
        pool.read(PageId(0)).unwrap();
        pool.read(PageId(1)).unwrap();
        let snap = pool.io_snapshot();
        assert_eq!(snap.logical_reads, 3);
        assert_eq!(snap.physical_reads, 2, "second read of page 0 is a hit");
    }

    #[test]
    fn lru_eviction_prefers_least_recently_used() {
        let pool = pool_with_pages(2, 3);
        pool.read(PageId(0)).unwrap();
        pool.read(PageId(1)).unwrap();
        // Touch page 0 so page 1 becomes the LRU victim.
        pool.read(PageId(0)).unwrap();
        pool.read(PageId(2)).unwrap(); // evicts page 1
        assert_eq!(pool.cached_pages(), 2);
        let before = pool.io_snapshot().physical_reads;
        pool.read(PageId(0)).unwrap(); // still cached
        assert_eq!(pool.io_snapshot().physical_reads, before);
        pool.read(PageId(1)).unwrap(); // was evicted -> physical read
        assert_eq!(pool.io_snapshot().physical_reads, before + 1);
    }

    /// Seeded random `read` / `write` / `clear_cache` sequences against a
    /// `VecDeque` reference LRU (front = most recently used): after every
    /// operation the pool's miss count, residency and bytes match it. Odd
    /// seeds spread the 12 pages over ids up to ~10,000, so the slot table
    /// grows on insert and is emptied by `clear_cache` at that size.
    #[test]
    fn pool_matches_a_reference_lru_model() {
        const PAGES: u32 = 12;
        const SPREAD: u32 = 833;
        for capacity in 1..=8usize {
            for seed in 0..4u64 {
                let mut rng = ir_types::SeededLcg::mixed(seed * 131 + capacity as u64);
                let ids: Vec<u32> = (0..PAGES)
                    .map(|i| match seed % 2 {
                        0 => i,
                        _ => i * SPREAD + rng.next_below(u64::from(SPREAD)) as u32,
                    })
                    .collect();
                let pool = pool_with_pages(capacity, ids[PAGES as usize - 1] + 1);
                let mut model: VecDeque<u32> = VecDeque::new();
                let mut contents = [0u8; PAGES as usize];
                let mut misses = 0u64;
                for step in 0..400 {
                    let at = rng.next_below(u64::from(PAGES)) as usize;
                    let page = ids[at];
                    let resident = model.iter().position(|&p| p == page);
                    match rng.next_below(20) {
                        0 => {
                            pool.clear_cache();
                            model.clear();
                        }
                        1..=4 => {
                            contents[at] = step as u8;
                            pool.write(PageId(page), &vec![step as u8; PAGE_SIZE])
                                .unwrap();
                            if let Some(at) = resident {
                                model.remove(at);
                                model.push_front(page);
                            }
                        }
                        _ => {
                            let data = pool.read(PageId(page)).unwrap();
                            assert_eq!(data[0], contents[at]);
                            match resident {
                                Some(at) => {
                                    model.remove(at);
                                }
                                None => {
                                    misses += 1;
                                    if model.len() == capacity {
                                        model.pop_back();
                                    }
                                }
                            }
                            model.push_front(page);
                        }
                    }
                    let context = format!("capacity {capacity} seed {seed} step {step}");
                    assert_eq!(pool.io_snapshot().physical_reads, misses, "{context}");
                    assert_eq!(pool.cached_pages(), model.len(), "{context}");
                }
            }
        }
    }

    /// A store whose reads of one page block until two threads are inside.
    struct RendezvousStore {
        inner: MemPageStore,
        page: PageId,
        barrier: Barrier,
    }

    impl PageStore for RendezvousStore {
        fn num_pages(&self) -> u32 {
            self.inner.num_pages()
        }

        fn allocate(&self, count: u32) -> IrResult<PageId> {
            self.inner.allocate(count)
        }

        fn read_page(&self, page: PageId) -> IrResult<Arc<PageBuf>> {
            if page == self.page {
                self.barrier.wait();
            }
            self.inner.read_page(page)
        }

        fn write_page(&self, page: PageId, data: &[u8]) -> IrResult<()> {
            self.inner.write_page(page, data)
        }
    }

    #[test]
    fn a_double_miss_evicts_nothing_else() {
        let inner = MemPageStore::new();
        inner.allocate(4).unwrap();
        let store = RendezvousStore {
            inner,
            page: PageId(3),
            barrier: Barrier::new(2),
        };
        let pool = BufferPool::with_capacity(Arc::new(store), 3);
        for page in 0..3 {
            pool.read(PageId(page)).unwrap();
        }
        // Both threads miss page 3 before either inserts it. The first
        // insert evicts page 0, the least recently used; the second finds
        // page 3 resident and must not evict page 1 as well.
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| pool.read(PageId(3)).unwrap());
            }
        });
        assert_eq!(pool.cached_pages(), 3);
        let misses = pool.io_snapshot().physical_reads;
        assert_eq!(misses, 5, "three fills plus the two racing misses");
        for page in [1, 2, 3] {
            pool.read(PageId(page)).unwrap();
        }
        assert_eq!(pool.io_snapshot().physical_reads, misses, "pages 1-3 hit");
    }

    #[test]
    fn write_through_updates_cache_and_store() {
        let pool = pool_with_pages(2, 1);
        pool.read(PageId(0)).unwrap();
        let mut page = vec![0u8; PAGE_SIZE];
        page[5] = 77;
        pool.write(PageId(0), &page).unwrap();
        let cached = pool.read(PageId(0)).unwrap();
        assert_eq!(cached[5], 77);
        // Store sees it too.
        assert_eq!(pool.store().read_page(PageId(0)).unwrap()[5], 77);
        assert_eq!(pool.io_snapshot().pages_written, 1);
    }

    #[test]
    fn clear_cache_forces_physical_rereads() {
        let pool = pool_with_pages(4, 1);
        pool.read(PageId(0)).unwrap();
        pool.clear_cache();
        pool.read(PageId(0)).unwrap();
        assert_eq!(pool.io_snapshot().physical_reads, 2);
    }

    #[test]
    fn invalid_write_size_is_rejected() {
        let pool = pool_with_pages(1, 1);
        assert!(pool.write(PageId(0), &[0u8; 10]).is_err());
    }

    #[test]
    fn out_of_bounds_read_propagates_error() {
        let pool = pool_with_pages(1, 1);
        assert!(pool.read(PageId(99)).is_err());
    }

    fn faulty_pool(
        plan: FaultPlan,
        retry: RetryPolicy,
    ) -> (BufferPool, Arc<FaultInjectingPageStore>) {
        let inner = Arc::new(MemPageStore::new());
        inner.allocate(4).unwrap();
        let faulty = FaultInjectingPageStore::new(inner, plan);
        faulty.arm();
        let pool = BufferPool::with_capacity_and_policy(Arc::clone(&faulty) as _, 2, retry);
        (pool, faulty)
    }

    #[test]
    fn transient_read_faults_heal_invisibly() {
        let plan = FaultPlan {
            transient_read_ops: vec![0, 2],
            ..FaultPlan::default()
        };
        let (pool, faulty) = faulty_pool(
            plan,
            RetryPolicy {
                max_attempts: 3,
                backoff_base: Duration::ZERO,
            },
        );
        // Op 0 fails once, op 1 (the retry) succeeds.
        pool.read(PageId(0)).unwrap();
        // Op 2 fails once, op 3 succeeds.
        pool.read(PageId(1)).unwrap();
        let snap = pool.io_snapshot();
        assert_eq!(snap.physical_reads, 2, "retries are not extra misses");
        assert_eq!(snap.read_retries, 2, "each healed fault counted once");
        assert_eq!(faulty.injected_faults().0, 2);
    }

    #[test]
    fn transient_write_faults_heal_invisibly() {
        let plan = FaultPlan {
            transient_write_ops: vec![0],
            ..FaultPlan::default()
        };
        let (pool, _) = faulty_pool(
            plan,
            RetryPolicy {
                max_attempts: 2,
                backoff_base: Duration::ZERO,
            },
        );
        pool.write(PageId(0), &vec![7u8; PAGE_SIZE]).unwrap();
        let snap = pool.io_snapshot();
        assert_eq!(snap.pages_written, 1);
        assert_eq!(snap.write_retries, 1);
        assert_eq!(pool.store().read_page(PageId(0)).unwrap()[0], 7);
    }

    #[test]
    fn consecutive_transient_faults_exhaust_the_budget() {
        // Ops 0, 1 and 2 all fail: a 3-attempt policy sees transient errors
        // on every attempt and gives up with a typed RetryExhausted.
        let plan = FaultPlan {
            transient_read_ops: vec![0, 1, 2],
            ..FaultPlan::default()
        };
        let (pool, _) = faulty_pool(
            plan,
            RetryPolicy {
                max_attempts: 3,
                backoff_base: Duration::ZERO,
            },
        );
        let err = pool.read(PageId(0)).unwrap_err();
        match err {
            IrError::RetryExhausted { attempts, source } => {
                assert_eq!(attempts, 3);
                assert!(source.is_transient());
            }
            other => panic!("expected RetryExhausted, got: {other}"),
        }
        assert_eq!(pool.io_snapshot().read_retries, 2, "two re-attempts made");
        // The fault window has passed: the pool serves the next read fine.
        pool.read(PageId(0)).unwrap();
    }

    #[test]
    fn permanent_faults_are_not_retried() {
        let (pool, faulty) =
            faulty_pool(FaultPlan::device_outage(0, Some(1)), RetryPolicy::default());
        let err = pool.read(PageId(0)).unwrap_err();
        assert!(
            matches!(err, IrError::Storage(_)),
            "permanent fault must surface as-is, got: {err}"
        );
        assert_eq!(pool.io_snapshot().read_retries, 0);
        assert_eq!(faulty.injected_faults().0, 1, "exactly one op was issued");
    }

    #[test]
    fn no_retry_policy_surfaces_transient_faults_directly() {
        let plan = FaultPlan {
            transient_read_ops: vec![0],
            ..FaultPlan::default()
        };
        let (pool, _) = faulty_pool(plan, RetryPolicy::none());
        let err = pool.read(PageId(0)).unwrap_err();
        assert!(err.is_transient(), "no wrapping under RetryPolicy::none()");
        assert_eq!(pool.io_snapshot().read_retries, 0);
    }

    #[test]
    fn default_policy_has_bounded_deterministic_backoff() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.max_attempts, 3);
        assert_eq!(policy.backoff(0), Duration::from_micros(100));
        assert_eq!(policy.backoff(1), Duration::from_micros(200));
        assert_eq!(policy.backoff(2), Duration::from_micros(400));
    }
}
