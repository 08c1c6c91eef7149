//! Deterministic fault injection: [`FaultInjectingPageStore`] wraps any
//! [`PageStore`] and misbehaves exactly where a [`FaultPlan`] says to.
//!
//! The plan is *seeded*: a chaos run is reproducible from its plan alone,
//! and every fault fires at a deterministic operation index rather than at
//! a random wall-clock moment. Faults are injected *underneath* the buffer
//! pool, so the layers above see exactly what a flaky disk would produce:
//!
//! * **Transient faults** — scheduled read/write ops fail once with a
//!   retryable `io::ErrorKind::Interrupted`; the pool's `RetryPolicy`
//!   re-issues the op (bumping the retry counters) and the computation's
//!   output is byte-identical to a fault-free run.
//! * **Device outage** — every read in `[fail_reads_from_op,
//!   fail_reads_until_op)` fails with a *permanent* storage error the
//!   retry policy refuses to retry; an open-ended window (`until = None`)
//!   models a dead device.
//! * **Corruption** — at a scheduled op the stored bytes are XOR-damaged
//!   *before* the read and restored after it (one-shot bit rot): the
//!   checksum layer turns the read into [`ir_types::IrError::Corruption`]
//!   and the very next access sees healthy bytes again.
//! * **Worker panic** — a scheduled read panics mid-job, exercising the
//!   driver's `catch_unwind` containment.
//!
//! The wrapper starts *disarmed* (fully transparent) so an index can be
//! built on it fault-free; [`FaultInjectingPageStore::arm`] zeroes the op
//! counters and starts the schedule at query time.

use crate::page::{PageBuf, PageId};
use crate::pagestore::PageStore;
use ir_types::rng::SeededLcg;
use ir_types::{IrError, IrResult};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// One scheduled bit-rot event: at read op `op`, XOR `xor_mask` into the
/// stored byte at `byte_offset` of whatever page that op targets, then
/// restore it after the read (XOR is self-inverse).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CorruptionSpec {
    /// The read-op index at which the corruption strikes.
    pub op: u64,
    /// Byte offset inside the page payload to damage.
    pub byte_offset: u32,
    /// The mask XORed into the stored byte (must be non-zero to have any
    /// effect).
    pub xor_mask: u8,
}

/// A schedule of storage faults, all keyed by *operation index* (reads and
/// writes counted separately, starting at 0 when the wrapper is armed).
///
/// The default plan is empty: a `FaultInjectingPageStore` driven by it is
/// fully transparent.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed recorded with the plan, used by the schedule-generating
    /// constructors; replaying a plan never re-derives anything from it.
    pub seed: u64,
    /// Read ops that fail once with a retryable `Interrupted` error.
    pub transient_read_ops: Vec<u64>,
    /// Write ops that fail once with a retryable `Interrupted` error.
    pub transient_write_ops: Vec<u64>,
    /// First read op of a permanent outage window (`None`: no outage).
    pub fail_reads_from_op: Option<u64>,
    /// First read op *after* the outage window (`None` with a `from` set:
    /// the device never comes back).
    pub fail_reads_until_op: Option<u64>,
    /// One-shot bit-rot events, keyed by read op.
    pub corruptions: Vec<CorruptionSpec>,
    /// Read ops that panic instead of returning, simulating a worker bug.
    pub panic_read_ops: Vec<u64>,
}

impl FaultPlan {
    /// A plan that fails `count` reads transiently at pseudo-random ops in
    /// `[0, max_op)`, derived deterministically from `seed`. Only `max_op`
    /// distinct ops exist, so a larger `count` fails every one of them.
    pub fn transient_reads(seed: u64, count: usize, max_op: u64) -> FaultPlan {
        let count = count.min(usize::try_from(max_op).unwrap_or(usize::MAX));
        let mut ops = Vec::with_capacity(count);
        // The shared workspace LCG, in its raw-state scatter convention —
        // the draw sequence is part of the plan contract.
        let mut lcg = SeededLcg::scatter(seed);
        while ops.len() < count {
            let op = lcg.next_state() % max_op;
            if !ops.contains(&op) {
                ops.push(op);
            }
        }
        ops.sort_unstable();
        FaultPlan {
            seed,
            transient_read_ops: ops,
            ..FaultPlan::default()
        }
    }

    /// A plan with a permanent read outage over `[from, until)` ops
    /// (`until = None` for a device that never recovers).
    pub fn device_outage(from: u64, until: Option<u64>) -> FaultPlan {
        FaultPlan {
            fail_reads_from_op: Some(from),
            fail_reads_until_op: until,
            ..FaultPlan::default()
        }
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.transient_read_ops.is_empty()
            && self.transient_write_ops.is_empty()
            && self.fail_reads_from_op.is_none()
            && self.corruptions.is_empty()
            && self.panic_read_ops.is_empty()
    }
}

/// A [`PageStore`] wrapper that executes a [`FaultPlan`] — see the module
/// docs for the fault taxonomy.
///
/// All counters are atomics: concurrent readers draw distinct op indices,
/// so a plan fires each fault exactly once regardless of thread
/// interleaving (which op a given *thread* draws is scheduling-dependent,
/// but the multiset of injected faults is not).
pub struct FaultInjectingPageStore {
    inner: Arc<dyn PageStore>,
    plan: FaultPlan,
    armed: AtomicBool,
    read_ops: AtomicU64,
    write_ops: AtomicU64,
    injected_read_faults: AtomicU64,
    injected_write_faults: AtomicU64,
}

impl FaultInjectingPageStore {
    /// Wraps `inner`, initially *disarmed*: every operation passes through
    /// untouched until [`Self::arm`] starts the schedule.
    pub fn new(inner: Arc<dyn PageStore>, plan: FaultPlan) -> Arc<FaultInjectingPageStore> {
        Arc::new(FaultInjectingPageStore {
            inner,
            plan,
            armed: AtomicBool::new(false),
            read_ops: AtomicU64::new(0),
            write_ops: AtomicU64::new(0),
            injected_read_faults: AtomicU64::new(0),
            injected_write_faults: AtomicU64::new(0),
        })
    }

    /// Zeroes the op counters and starts executing the plan.
    pub fn arm(&self) {
        self.read_ops.store(0, Ordering::Relaxed);
        self.write_ops.store(0, Ordering::Relaxed);
        self.armed.store(true, Ordering::Release);
    }

    /// Stops injecting (op counters keep their values).
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::Release);
    }

    /// Whether the plan is currently being executed.
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::Acquire)
    }

    /// The plan this wrapper executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Faults injected so far: `(reads, writes)`.
    pub fn injected_faults(&self) -> (u64, u64) {
        (
            self.injected_read_faults.load(Ordering::Relaxed),
            self.injected_write_faults.load(Ordering::Relaxed),
        )
    }

    fn in_outage(&self, op: u64) -> bool {
        match (self.plan.fail_reads_from_op, self.plan.fail_reads_until_op) {
            (Some(from), Some(until)) => op >= from && op < until,
            (Some(from), None) => op >= from,
            (None, _) => false,
        }
    }
}

impl PageStore for FaultInjectingPageStore {
    fn num_pages(&self) -> u32 {
        self.inner.num_pages()
    }

    fn allocate(&self, count: u32) -> IrResult<PageId> {
        self.inner.allocate(count)
    }

    fn read_page(&self, page: PageId) -> IrResult<PageBuf> {
        if !self.is_armed() {
            return self.inner.read_page(page);
        }
        let op = self.read_ops.fetch_add(1, Ordering::Relaxed);
        if self.plan.panic_read_ops.contains(&op) {
            panic!("injected fault: worker panic at read op {op}");
        }
        if self.in_outage(op) {
            self.injected_read_faults.fetch_add(1, Ordering::Relaxed);
            return Err(IrError::Storage(format!(
                "injected device failure: read op {op} is inside the outage window"
            )));
        }
        if self.plan.transient_read_ops.contains(&op) {
            self.injected_read_faults.fetch_add(1, Ordering::Relaxed);
            return Err(IrError::Io(io::Error::new(
                io::ErrorKind::Interrupted,
                format!("injected transient read fault at op {op}"),
            )));
        }
        if let Some(spec) = self.plan.corruptions.iter().find(|c| c.op == op) {
            self.injected_read_faults.fetch_add(1, Ordering::Relaxed);
            // One-shot bit rot: damage the stored byte, let the read trip
            // over the checksum, then heal the byte so the next access
            // succeeds (XOR is self-inverse).
            self.inner
                .corrupt_stored_byte(page, spec.byte_offset as usize, spec.xor_mask)?;
            let result = self.inner.read_page(page);
            self.inner
                .corrupt_stored_byte(page, spec.byte_offset as usize, spec.xor_mask)?;
            return result;
        }
        self.inner.read_page(page)
    }

    fn write_page(&self, page: PageId, data: &[u8]) -> IrResult<()> {
        if !self.is_armed() {
            return self.inner.write_page(page, data);
        }
        let op = self.write_ops.fetch_add(1, Ordering::Relaxed);
        if self.plan.transient_write_ops.contains(&op) {
            self.injected_write_faults.fetch_add(1, Ordering::Relaxed);
            return Err(IrError::Io(io::Error::new(
                io::ErrorKind::Interrupted,
                format!("injected transient write fault at op {op}"),
            )));
        }
        self.inner.write_page(page, data)
    }

    fn corrupt_stored_byte(&self, page: PageId, offset: usize, mask: u8) -> IrResult<()> {
        self.inner.corrupt_stored_byte(page, offset, mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{zeroed_page, PAGE_SIZE};
    use crate::pagestore::MemPageStore;

    fn store_with_pages(plan: FaultPlan) -> Arc<FaultInjectingPageStore> {
        let inner = Arc::new(MemPageStore::new());
        inner.allocate(4).unwrap();
        let mut page = zeroed_page();
        page[0] = 9;
        inner.write_page(PageId(2), &page).unwrap();
        FaultInjectingPageStore::new(inner, plan)
    }

    #[test]
    fn disarmed_wrapper_is_transparent() {
        let store = store_with_pages(FaultPlan::transient_reads(7, 100, 100));
        for _ in 0..50 {
            assert_eq!(store.read_page(PageId(2)).unwrap()[0], 9);
        }
        assert_eq!(store.injected_faults(), (0, 0));
    }

    #[test]
    fn transient_read_ops_fail_exactly_on_schedule() {
        let plan = FaultPlan {
            transient_read_ops: vec![1, 3],
            ..FaultPlan::default()
        };
        let store = store_with_pages(plan);
        store.arm();
        assert!(store.read_page(PageId(0)).is_ok()); // op 0
        let err = store.read_page(PageId(0)).unwrap_err(); // op 1
        assert!(
            err.is_transient(),
            "injected fault must be retryable: {err}"
        );
        assert!(err.to_string().contains("op 1"), "{err}");
        assert!(store.read_page(PageId(0)).is_ok()); // op 2
        assert!(store.read_page(PageId(0)).is_err()); // op 3
        assert!(store.read_page(PageId(0)).is_ok()); // op 4
        assert_eq!(store.injected_faults(), (2, 0));
    }

    #[test]
    fn outage_window_is_permanent_and_bounded() {
        let store = store_with_pages(FaultPlan::device_outage(1, Some(3)));
        store.arm();
        assert!(store.read_page(PageId(0)).is_ok()); // op 0
        for op in 1..3 {
            let err = store.read_page(PageId(0)).unwrap_err();
            assert!(!err.is_transient(), "outage op {op} must not be retryable");
            assert!(err.to_string().contains("injected device failure"));
        }
        assert!(store.read_page(PageId(0)).is_ok()); // op 3: recovered
                                                     // An open-ended outage never recovers.
        let dead = store_with_pages(FaultPlan::device_outage(0, None));
        dead.arm();
        for _ in 0..10 {
            assert!(dead.read_page(PageId(0)).is_err());
        }
    }

    #[test]
    fn corruption_is_one_shot() {
        let plan = FaultPlan {
            corruptions: vec![CorruptionSpec {
                op: 0,
                byte_offset: 0,
                xor_mask: 0x55,
            }],
            ..FaultPlan::default()
        };
        let store = store_with_pages(plan);
        store.arm();
        let err = store.read_page(PageId(2)).unwrap_err(); // op 0
        assert!(
            matches!(err, IrError::Corruption { page: Some(2), .. }),
            "expected checksum failure, got: {err}"
        );
        // The rot healed: the very next read returns the original bytes.
        assert_eq!(store.read_page(PageId(2)).unwrap()[0], 9);
    }

    #[test]
    fn panic_ops_panic_with_a_recognizable_payload() {
        let plan = FaultPlan {
            panic_read_ops: vec![0],
            ..FaultPlan::default()
        };
        let store = store_with_pages(plan);
        store.arm();
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| store.read_page(PageId(0))))
                .unwrap_err();
        let message = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(message.contains("injected fault"), "{message}");
        // The wrapper itself stays usable after the unwind.
        assert!(store.read_page(PageId(0)).is_ok());
    }

    #[test]
    fn arm_resets_op_counters() {
        let plan = FaultPlan {
            transient_read_ops: vec![0],
            ..FaultPlan::default()
        };
        let store = store_with_pages(plan);
        store.arm();
        assert!(store.read_page(PageId(0)).is_err()); // op 0 fires
        assert!(store.read_page(PageId(0)).is_ok());
        store.arm(); // restart the schedule
        assert!(store.read_page(PageId(0)).is_err(), "op 0 fires again");
    }

    #[test]
    fn seeded_constructor_is_deterministic_and_in_range() {
        let a = FaultPlan::transient_reads(42, 10, 1000);
        let b = FaultPlan::transient_reads(42, 10, 1000);
        assert_eq!(a, b);
        assert_eq!(a.transient_read_ops.len(), 10);
        assert!(a.transient_read_ops.iter().all(|&op| op < 1000));
        let c = FaultPlan::transient_reads(43, 10, 1000);
        assert_ne!(a, c, "different seeds give different schedules");
        assert!(!a.is_empty());
        assert!(FaultPlan::default().is_empty());
    }

    #[test]
    fn seeded_constructor_caps_count_at_the_ops_that_exist() {
        let every_op = vec![0, 1, 2, 3, 4];
        assert_eq!(
            FaultPlan::transient_reads(7, 5, 5).transient_read_ops,
            every_op
        );
        assert_eq!(
            FaultPlan::transient_reads(7, 6, 5).transient_read_ops,
            every_op
        );
        assert!(FaultPlan::transient_reads(7, 3, 0).is_empty());
    }

    #[test]
    fn corrupt_offset_bounds_are_enforced_through_the_wrapper() {
        let store = store_with_pages(FaultPlan::default());
        assert!(store.corrupt_stored_byte(PageId(0), PAGE_SIZE, 1).is_err());
        assert!(store.corrupt_stored_byte(PageId(0), 0, 1).is_ok());
        assert!(store.corrupt_stored_byte(PageId(0), 0, 1).is_ok());
        assert!(store.read_page(PageId(0)).is_ok(), "double XOR healed it");
    }
}
