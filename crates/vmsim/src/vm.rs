//! The VM core: fault handling, reclaim, kswapd.
//!
//! State machine per page (keyed by address-space id + virtual page
//! number):
//!
//! ```text
//!   (absent) --first touch--> Resident{dirty}
//!   Resident --clock eviction, clean+slot--> Swapped      (no I/O)
//!   Resident --clock eviction, dirty------> Writing --io--> Swapped
//!   Swapped  --fault-----------------------> Reading --io--> Resident
//!   Writing  --touch (re-reference)--------> stays, re-dirties on write
//! ```
//!
//! Replacement is second-chance (CLOCK) over resident pages. `kswapd` runs
//! as engine events: woken when free frames drop below the low watermark,
//! it issues batched page-outs until the high watermark is restored —
//! asynchronously, so page-out I/O overlaps application compute exactly as
//! the paper's measurements rely on. Swap-in performs cluster readahead
//! over the next-fit-contiguous slots. Pages that came back clean from
//! swap keep their slot and evict for free until re-dirtied.

use crate::backend::{LoadKind, PageDone, SwapBackend};
use crate::config::VmConfig;
use crate::frames::{FrameId, FramePool};
use crate::swap::{PageKey, Slot, SwapManager};
use blockdev::{IoBuffer, IoResult};
use netmodel::{Calibration, Node};
use simcore::{Engine, Signal, SimDuration, SimTime};
use std::cell::{Cell, OnceCell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

/// Free frames the swap-in readahead may not consume.
const READAHEAD_RESERVE: usize = 2;
/// Retry bound for the blocking access path, to turn livelock into a
/// diagnosable panic.
const MAX_FAULT_RETRIES: usize = 10_000;

#[derive(Clone)]
enum PageState {
    Resident {
        frame: FrameId,
        slot: Option<Slot>,
        dirty: bool,
    },
    Swapped {
        slot: Slot,
    },
    Reading {
        frame: FrameId,
        slot: Slot,
        signal: Signal,
        /// When the read was issued (trace span start).
        started: SimTime,
        /// Demand fault (true) vs readahead (false).
        major: bool,
    },
    Writing {
        frame: FrameId,
        slot: Slot,
        dirty_again: bool,
    },
}

#[derive(Clone)]
struct PageEntry {
    state: PageState,
    referenced: bool,
}

/// The two counters a [`crate::PagedVec`] validates its lookaside against,
/// shared out via [`Vm::stamps`] so the per-element fast path reads them
/// without borrowing the VM.
#[derive(Default)]
pub struct Stamps {
    epoch: Cell<u64>,
    sweep: Cell<u64>,
}

impl Stamps {
    /// Moves on every residency change (a page gains or loses its frame, or
    /// its write-out starts or ends): a frame buffer cached before the move
    /// may no longer be the page's.
    pub fn epoch(&self) -> u64 {
        self.epoch.get()
    }

    /// Moves whenever anything a touch would have to redo may have been
    /// undone: on every `epoch` move, every other page-table insert or
    /// remove, and every referenced bit reclaim clears. While it stands
    /// still, repeating a touch that already happened changes nothing.
    pub fn sweep(&self) -> u64 {
        self.sweep.get()
    }

    fn bump_sweep(&self) {
        self.sweep.set(self.sweep.get() + 1);
    }
}

/// Dense per-asid page table. Asids and vpns are both small bump-allocated
/// integers (`Vm::new_asid`, `AddressSpace::alloc_pages`), so a slab per
/// address space resolves the fault-path lookup with two array indexings.
///
/// Entries change only through the mutators below, and every mutator that
/// can clear a bit or move a page bumps `stamps.sweep`; [`PageTable::touch`]
/// only sets bits. That is what lets a `PagedVec` skip a touch it can prove
/// would be a repeat.
struct PageTable {
    /// Slab per asid; index 0 stays empty (asids start at 1).
    spaces: Vec<Vec<Option<PageEntry>>>,
    stamps: Rc<Stamps>,
}

impl PageTable {
    fn new() -> PageTable {
        PageTable {
            spaces: Vec::new(),
            stamps: Rc::default(),
        }
    }

    /// Record a residency change.
    fn bump_epoch(&self) {
        self.stamps.epoch.set(self.stamps.epoch.get() + 1);
        self.stamps.bump_sweep();
    }

    #[inline]
    fn get(&self, key: &PageKey) -> Option<&PageEntry> {
        self.spaces
            .get(key.0 as usize)?
            .get(key.1 as usize)?
            .as_ref()
    }

    #[inline]
    fn entry_mut(&mut self, key: &PageKey) -> Option<&mut PageEntry> {
        self.spaces
            .get_mut(key.0 as usize)?
            .get_mut(key.1 as usize)?
            .as_mut()
    }

    /// An access to `key`: set its referenced bit and, for a store to a
    /// mapped page, its dirty bit. Sets bits only, so `sweep` stays.
    #[inline]
    fn touch(&mut self, key: &PageKey, write: bool) -> Option<&PageState> {
        let entry = self.entry_mut(key)?;
        entry.referenced = true;
        if write {
            match &mut entry.state {
                PageState::Resident { dirty, .. } => *dirty = true,
                // Page under writeback is still mapped; a write re-dirties
                // it so it will not be freed.
                PageState::Writing { dirty_again, .. } => *dirty_again = true,
                PageState::Reading { .. } | PageState::Swapped { .. } => {}
            }
        }
        Some(&entry.state)
    }

    /// CLOCK's second chance: clear the referenced bit of `key`.
    fn clear_referenced(&mut self, key: &PageKey) {
        if let Some(entry) = self.entry_mut(key) {
            entry.referenced = false;
            self.stamps.bump_sweep();
        }
    }

    fn insert(&mut self, key: PageKey, entry: PageEntry) {
        self.stamps.bump_sweep();
        let (asid, vpn) = (key.0 as usize, key.1 as usize);
        if self.spaces.len() <= asid {
            self.spaces.resize_with(asid + 1, Vec::new);
        }
        let space = &mut self.spaces[asid];
        if space.len() <= vpn {
            space.resize_with(vpn + 1, || None);
        }
        space[vpn] = Some(entry);
    }

    fn remove(&mut self, key: &PageKey) -> Option<PageEntry> {
        self.stamps.bump_sweep();
        self.spaces
            .get_mut(key.0 as usize)?
            .get_mut(key.1 as usize)?
            .take()
    }

    /// Live entries in `(asid, vpn)` order — same order the `BTreeMap`
    /// used to iterate in.
    fn iter(&self) -> impl Iterator<Item = (PageKey, &PageEntry)> {
        self.spaces.iter().enumerate().flat_map(|(asid, space)| {
            space
                .iter()
                .enumerate()
                .filter_map(move |(vpn, e)| e.as_ref().map(|en| ((asid as u32, vpn as u64), en)))
        })
    }
}

/// Paging activity counters.
#[derive(Clone, Debug, Default)]
pub struct VmStats {
    /// Faults that required swap-in I/O.
    pub major_faults: u64,
    /// Pages read from swap (faults + readahead).
    pub swap_ins: u64,
    /// Of which readahead.
    pub readaheads: u64,
    /// Pages written to swap.
    pub swap_outs: u64,
    /// Clean pages evicted without I/O (swap-cache hit on eviction).
    pub clean_evictions: u64,
    /// First-touch zero-filled pages.
    pub zero_fills: u64,
    /// Times an allocation had to wait for a free frame.
    pub frame_waits: u64,
    /// Synchronous-reclaim episodes the allocating task waited on
    /// (Linux 2.4 `try_to_free_pages` throttling).
    pub throttles: u64,
}

/// An in-flight synchronous reclaim episode (Linux 2.4
/// `try_to_free_pages` semantics): the allocating task waits until the
/// episode's page-outs complete.
struct Throttle {
    signal: Signal,
    remaining: usize,
    /// Episode start (trace span start).
    started: SimTime,
    /// Page-outs this episode issued.
    issued: usize,
}

struct VmInner {
    config: VmConfig,
    frames: FramePool,
    table: PageTable,
    clock: VecDeque<PageKey>,
    swap: SwapManager,
    /// Signals to fire whenever forward progress happens (frame freed or
    /// I/O finished) so blocked allocators retry.
    waiters: Vec<Signal>,
    /// Synchronous-reclaim episode in flight, if any.
    throttle: Option<Throttle>,
    kswapd_active: bool,
    next_asid: u32,
    stats: VmStats,
}

/// Lazily-resolved metric handles for the VM's hot emit sites (one registry
/// lookup each, on first use).
struct VmCounters {
    readahead_hits: simtrace::LazyCounter,
    throttles: simtrace::LazyCounter,
    kswapd_batches: simtrace::LazyCounter,
    fault_latency_us: OnceCell<simtrace::Histogram>,
}

/// The simulated VM subsystem of one node. Clone shares the instance.
#[derive(Clone)]
pub struct Vm {
    engine: Engine,
    cal: Rc<Calibration>,
    node: Node,
    inner: Rc<RefCell<VmInner>>,
    ctrs: Rc<VmCounters>,
}

impl Vm {
    /// Create a VM with `config` on `node`.
    pub fn new(engine: Engine, cal: Rc<Calibration>, node: Node, config: VmConfig) -> Vm {
        assert!(
            config.total_frames > config.high_watermark + READAHEAD_RESERVE,
            "memory too small for watermarks"
        );
        let frames = FramePool::new(config.total_frames, config.page_size as usize);
        let swap = SwapManager::new(config.page_size);
        Vm {
            ctrs: Rc::new(VmCounters {
                readahead_hits: engine.metrics().lazy_counter("vmsim.readahead_hits"),
                throttles: engine.metrics().lazy_counter("vmsim.throttles"),
                kswapd_batches: engine.metrics().lazy_counter("vmsim.kswapd_batches"),
                fault_latency_us: OnceCell::new(),
            }),
            engine,
            cal,
            node,
            inner: Rc::new(RefCell::new(VmInner {
                config,
                frames,
                table: PageTable::new(),
                clock: VecDeque::new(),
                swap,
                waiters: Vec::new(),
                throttle: None,
                kswapd_active: false,
                next_asid: 1,
                stats: VmStats::default(),
            })),
        }
    }

    /// The engine driving this VM.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The node the VM lives on.
    pub fn node(&self) -> &Node {
        &self.node
    }

    /// The calibration in effect.
    pub fn calibration(&self) -> &Rc<Calibration> {
        &self.cal
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> u64 {
        self.inner.borrow().config.page_size
    }

    /// Register a swap backend with `priority` (higher fills first).
    pub fn add_swap_backend(&self, backend: Rc<dyn SwapBackend>, priority: i32) -> u32 {
        self.inner.borrow_mut().swap.add_device(backend, priority)
    }

    /// Allocate a fresh address-space id.
    pub fn new_asid(&self) -> u32 {
        let mut inner = self.inner.borrow_mut();
        let asid = inner.next_asid;
        inner.next_asid += 1;
        asid
    }

    /// Frames currently free.
    pub fn free_frames(&self) -> usize {
        self.inner.borrow().frames.free_count()
    }

    /// Free slots across all swap devices.
    pub fn free_swap_slots(&self) -> u64 {
        self.inner.borrow().swap.free_slots()
    }

    /// Shared handle to the lookaside-validation counters. Reading through
    /// the handle skips the `RefCell` borrow of the VM — this sits on the
    /// per-element access fast path of [`crate::PagedVec`].
    pub fn stamps(&self) -> Rc<Stamps> {
        self.inner.borrow().table.stamps.clone()
    }

    /// Snapshot of the activity counters.
    pub fn stats(&self) -> VmStats {
        self.inner.borrow().stats.clone()
    }

    /// Validate cross-structure invariants (used by property tests):
    /// every frame is either free or owned by exactly one page entry, and
    /// every allocated swap slot is referenced by exactly one page entry.
    ///
    /// # Panics
    /// Panics with a diagnostic if an invariant is violated.
    pub fn check_invariants(&self) {
        let inner = self.inner.borrow();
        let mut frames_used = 0usize;
        let mut seen_frames = std::collections::BTreeSet::new();
        let mut seen_slots = std::collections::BTreeSet::new();
        for (key, entry) in inner.table.iter() {
            let (frame, slot) = match entry.state {
                PageState::Resident { frame, slot, .. } => (Some(frame), slot),
                PageState::Swapped { slot } => (None, Some(slot)),
                PageState::Reading { frame, slot, .. } => (Some(frame), Some(slot)),
                PageState::Writing { frame, slot, .. } => (Some(frame), Some(slot)),
            };
            if let Some(f) = frame {
                assert!(
                    seen_frames.insert(f),
                    "frame {f} owned by two pages (second: {key:?})"
                );
                frames_used += 1;
            }
            if let Some(s) = slot {
                assert!(
                    seen_slots.insert(s),
                    "slot {s:?} referenced by two pages (second: {key:?})"
                );
                assert_eq!(
                    inner.swap.owner_of(s),
                    Some(key),
                    "slot {s:?} rmap does not point back at {key:?}"
                );
            }
        }
        assert_eq!(
            frames_used + inner.frames.free_count(),
            inner.frames.total(),
            "frame accounting: used + free != total"
        );
    }

    /// Touch page `(asid, vpn)`. On success returns the frame buffer (valid
    /// until the next engine run). If the access must wait — swap-in in
    /// flight, or no free frame — returns the [`Signal`] that fires when
    /// retrying makes sense.
    pub fn try_page(&self, asid: u32, vpn: u64, write: bool) -> Result<IoBuffer, Signal> {
        let mut inner = self.inner.borrow_mut();
        let key = (asid, vpn);
        match inner.table.touch(&key, write) {
            Some(PageState::Resident { frame, .. } | PageState::Writing { frame, .. }) => {
                let frame = *frame;
                Ok(inner.frames.buffer(frame))
            }
            Some(PageState::Reading { signal, major, .. }) => {
                if !*major {
                    // Demand fault absorbed by in-flight readahead.
                    self.ctrs.readahead_hits.inc();
                }
                Err(signal.clone())
            }
            Some(PageState::Swapped { slot }) => {
                let slot = *slot;
                self.start_swap_in(&mut inner, key, slot)
            }
            None => self.zero_fill(&mut inner, key),
        }
    }

    /// Blocking flavour of [`Vm::try_page`]: runs the engine until the
    /// access succeeds.
    pub fn page_blocking(&self, asid: u32, vpn: u64, write: bool) -> IoBuffer {
        for _ in 0..MAX_FAULT_RETRIES {
            match self.try_page(asid, vpn, write) {
                Ok(buf) => return buf,
                Err(sig) => self.engine.run_until_signal(&sig),
            }
        }
        panic!("page ({asid},{vpn}) did not become resident after {MAX_FAULT_RETRIES} retries");
    }

    /// Drop `pages` pages starting at `base_vpn` (address-space teardown).
    /// Frames return to the pool, swap slots free.
    ///
    /// # Panics
    /// Panics if any page still has I/O in flight — quiesce the engine
    /// first.
    pub fn release_range(&self, asid: u32, base_vpn: u64, pages: u64) {
        let mut inner = self.inner.borrow_mut();
        for vpn in base_vpn..base_vpn + pages {
            let key = (asid, vpn);
            match inner.table.remove(&key) {
                None => {}
                Some(entry) => match entry.state {
                    PageState::Resident { frame, slot, .. } => {
                        inner.frames.free(frame);
                        if let Some(slot) = slot {
                            inner.swap.free_slot(slot);
                        }
                        inner.table.bump_epoch();
                    }
                    PageState::Swapped { slot } => inner.swap.free_slot(slot),
                    PageState::Reading { .. } | PageState::Writing { .. } => {
                        panic!("release_range with I/O in flight on page ({asid},{vpn})")
                    }
                },
            }
        }
        let waiters: Vec<Signal> = inner.waiters.drain(..).collect();
        drop(inner);
        for w in waiters {
            w.set();
        }
    }

    // -- fault paths --------------------------------------------------------

    fn zero_fill(&self, inner: &mut VmInner, key: PageKey) -> Result<IoBuffer, Signal> {
        if let Some(sig) = self.maybe_throttle(inner) {
            return Err(sig);
        }
        let Some(frame) = self.grab_frame(inner) else {
            return Err(self.frame_wait(inner));
        };
        inner.frames.zero(frame);
        // Zeroing a page costs about a page-sized memcpy.
        let cost = self.cal.memcpy_time(inner.config.page_size);
        self.node.cpu().reserve(self.engine.now(), cost);
        inner.table.insert(
            key,
            PageEntry {
                state: PageState::Resident {
                    frame,
                    slot: None,
                    dirty: true,
                },
                referenced: true,
            },
        );
        inner.clock.push_back(key);
        inner.table.bump_epoch();
        inner.stats.zero_fills += 1;
        self.engine.lifecycle().note_fault(false);
        self.maybe_wake_kswapd(inner);
        Ok(inner.frames.buffer(frame))
    }

    fn start_swap_in(
        &self,
        inner: &mut VmInner,
        key: PageKey,
        slot: Slot,
    ) -> Result<IoBuffer, Signal> {
        if let Some(sig) = self.maybe_throttle(inner) {
            return Err(sig);
        }
        let Some(frame) = self.grab_frame(inner) else {
            return Err(self.frame_wait(inner));
        };
        inner.stats.major_faults += 1;
        inner.stats.swap_ins += 1;
        self.engine.lifecycle().note_fault(true);
        // Kernel fault-path cost.
        let cost = SimDuration::from_nanos(self.cal.compute.fault_ns);
        self.node.cpu().reserve(self.engine.now(), cost);

        let signal = Signal::new("swap-in");
        inner.table.insert(
            key,
            PageEntry {
                state: PageState::Reading {
                    frame,
                    slot,
                    signal: signal.clone(),
                    started: self.engine.now(),
                    major: true,
                },
                referenced: true,
            },
        );
        let backend = inner.swap.backend(slot.dev);
        self.stage_read(inner, key, frame, slot, LoadKind::Demand, &backend);

        // Cluster readahead over contiguous allocated slots.
        let neighbors = inner
            .swap
            .readahead_neighbors(slot, inner.config.readahead_pages.saturating_sub(1));
        for (nslot, nkey) in neighbors {
            if inner.frames.free_count() <= READAHEAD_RESERVE {
                break;
            }
            let swapped_here = matches!(
                inner.table.get(&nkey),
                Some(PageEntry {
                    state: PageState::Swapped { slot } , ..
                }) if *slot == nslot
            );
            if !swapped_here {
                continue;
            }
            let Some(nframe) = self.grab_frame(inner) else {
                break;
            };
            inner.stats.swap_ins += 1;
            inner.stats.readaheads += 1;
            inner.table.insert(
                nkey,
                PageEntry {
                    state: PageState::Reading {
                        frame: nframe,
                        slot: nslot,
                        signal: Signal::new("readahead"),
                        started: self.engine.now(),
                        major: false,
                    },
                    referenced: false,
                },
            );
            self.stage_read(inner, nkey, nframe, nslot, LoadKind::Readahead, &backend);
        }
        backend.reap();
        self.maybe_wake_kswapd(inner);
        Err(signal)
    }

    fn stage_read(
        &self,
        inner: &mut VmInner,
        key: PageKey,
        frame: FrameId,
        slot: Slot,
        kind: LoadKind,
        backend: &Rc<dyn SwapBackend>,
    ) {
        let offset = inner.swap.offset_of(slot);
        let buf = inner.frames.buffer(frame);
        let done = self.page_done(move |vm, result| {
            result.unwrap_or_else(|e| panic!("swap-in failed for page {key:?}: {e:?}"));
            vm.finish_read(key);
        });
        backend.load(offset, kind, buf, done);
    }

    /// A swap completion that runs `body` on the VM if it still exists.
    /// The device holding the request is owned through this VM's swap
    /// backends, so a strong capture would be a cycle while it is in flight.
    fn page_done(&self, body: impl FnOnce(&Vm, IoResult) + 'static) -> PageDone {
        let (engine, cal, node) = (self.engine.clone(), self.cal.clone(), self.node.clone());
        let (inner, ctrs) = (Rc::downgrade(&self.inner), self.ctrs.clone());
        Box::new(move |result| {
            if let Some(inner) = inner.upgrade() {
                let vm = Vm {
                    engine,
                    cal,
                    node,
                    inner,
                    ctrs,
                };
                body(&vm, result);
            }
        })
    }

    fn finish_read(&self, key: PageKey) {
        let mut inner = self.inner.borrow_mut();
        let entry = inner.table.get(&key).cloned();
        match entry.map(|e| e.state) {
            Some(PageState::Reading {
                frame,
                slot,
                signal,
                started,
                major,
            }) => {
                let now = self.engine.now();
                self.engine.span(
                    "vmsim",
                    if major { "fault" } else { "readahead" },
                    started.as_nanos(),
                    now.as_nanos(),
                    &[("vpn", key.1), ("dev", slot.dev as u64)],
                );
                if major {
                    self.ctrs
                        .fault_latency_us
                        .get_or_init(|| {
                            self.engine
                                .metrics()
                                .histogram_handle("vmsim.fault_latency_us")
                        })
                        .observe(now.since(started).as_micros_f64());
                }
                inner.table.insert(
                    key,
                    PageEntry {
                        state: PageState::Resident {
                            frame,
                            slot: Some(slot),
                            dirty: false,
                        },
                        referenced: true,
                    },
                );
                inner.clock.push_back(key);
                inner.table.bump_epoch();
                signal.set();
                self.notify_waiters(&mut inner);
            }
            other => panic!(
                "swap-in completion for page {key:?} in unexpected state (present: {})",
                other.is_some()
            ),
        }
    }

    fn finish_write(&self, key: PageKey) {
        let mut inner = self.inner.borrow_mut();
        let entry = inner.table.get(&key).cloned();
        match entry.map(|e| e.state) {
            Some(PageState::Writing {
                frame,
                slot,
                dirty_again,
            }) => {
                if dirty_again {
                    inner.table.insert(
                        key,
                        PageEntry {
                            state: PageState::Resident {
                                frame,
                                slot: Some(slot),
                                dirty: true,
                            },
                            referenced: true,
                        },
                    );
                    inner.clock.push_back(key);
                } else {
                    inner.table.insert(
                        key,
                        PageEntry {
                            state: PageState::Swapped { slot },
                            referenced: false,
                        },
                    );
                    inner.frames.free(frame);
                }
                inner.table.bump_epoch();
                if let Some(t) = &mut inner.throttle {
                    t.remaining = t.remaining.saturating_sub(1);
                    if t.remaining == 0 {
                        t.signal.set();
                        let started = t.started;
                        let issued = t.issued;
                        inner.throttle = None;
                        self.engine.span(
                            "vmsim",
                            "reclaim_throttle",
                            started.as_nanos(),
                            self.engine.now().as_nanos(),
                            &[("pageouts", issued as u64)],
                        );
                    }
                }
                self.notify_waiters(&mut inner);
            }
            other => panic!(
                "swap-out completion for page {key:?} in unexpected state (present: {})",
                other.is_some()
            ),
        }
    }

    // -- frames & reclaim ----------------------------------------------------

    fn grab_frame(&self, inner: &mut VmInner) -> Option<FrameId> {
        inner.frames.alloc()
    }

    /// Linux 2.4-style allocation throttling: when free frames dip below
    /// the low watermark, the allocating task itself performs a reclaim
    /// pass and sleeps until its page-outs complete. This is the mechanism
    /// that couples application progress to the swap device's round-trip
    /// time under heavy dirtying — the effect behind the Figure 5/7 gaps
    /// between local memory and every remote pager.
    fn maybe_throttle(&self, inner: &mut VmInner) -> Option<Signal> {
        if let Some(t) = &inner.throttle {
            // An episode is already in flight: every allocator below the
            // watermark joins the wait (2.4's try_to_free_pages throttled
            // each allocating process, not just the first).
            if inner.frames.free_count() < inner.config.low_watermark {
                return Some(t.signal.clone());
            }
            return None;
        }
        if inner.frames.free_count() >= inner.config.low_watermark {
            return None;
        }
        let issued = self.reclaim(inner, inner.config.reclaim_batch);
        inner.swap.reap_all();
        if issued == 0 {
            // Clean evictions (or nothing evictable): no I/O to wait for.
            return None;
        }
        inner.stats.throttles += 1;
        self.ctrs.throttles.inc();
        let signal = Signal::new("reclaim-throttle");
        inner.throttle = Some(Throttle {
            signal: signal.clone(),
            remaining: issued,
            started: self.engine.now(),
            issued,
        });
        Some(signal)
    }

    /// Register a progress waiter and kick direct reclaim.
    fn frame_wait(&self, inner: &mut VmInner) -> Signal {
        inner.stats.frame_waits += 1;
        let sig = Signal::new("frame-wait");
        inner.waiters.push(sig.clone());
        let batch = inner.config.reclaim_batch;
        let _ = self.reclaim(inner, batch);
        inner.swap.reap_all();
        self.maybe_wake_kswapd(inner);
        sig
    }

    fn notify_waiters(&self, inner: &mut VmInner) {
        for sig in inner.waiters.drain(..) {
            sig.set();
        }
    }

    fn maybe_wake_kswapd(&self, inner: &mut VmInner) {
        if inner.kswapd_active || inner.frames.free_count() >= inner.config.low_watermark {
            return;
        }
        inner.kswapd_active = true;
        let vm = self.clone();
        self.engine
            .schedule_at(self.engine.now(), move || vm.kswapd_tick());
    }

    fn kswapd_tick(&self) {
        let reschedule = {
            let mut inner = self.inner.borrow_mut();
            if inner.frames.free_count() >= inner.config.high_watermark {
                inner.kswapd_active = false;
                false
            } else {
                let batch = inner.config.kswapd_batch;
                let writes = self.reclaim(&mut inner, batch);
                inner.swap.reap_all();
                self.ctrs.kswapd_batches.inc();
                self.engine
                    .instant("vmsim", "kswapd_batch", &[("pageouts", writes as u64)]);
                true
            }
        };
        if reschedule {
            let vm = self.clone();
            let interval = SimDuration::from_nanos(self.inner.borrow().config.kswapd_interval_ns);
            self.engine.schedule_in(interval, move || vm.kswapd_tick());
        }
    }

    /// One reclaim pass: free or start writing out up to `target` pages
    /// using second-chance CLOCK. Staged bios are NOT flushed here; callers
    /// flush so adjacent page-outs merge. Returns the number of page-out
    /// writes issued.
    fn reclaim(&self, inner: &mut VmInner, target: usize) -> usize {
        let mut writes = 0usize;
        let mut progressed = 0usize;
        let mut scanned = 0usize;
        let cap = inner.clock.len() * 2 + 1;
        while progressed < target && scanned < cap {
            let Some(key) = inner.clock.pop_front() else {
                break;
            };
            scanned += 1;
            let Some(entry) = inner.table.get(&key).cloned() else {
                continue; // released
            };
            let PageState::Resident { frame, slot, dirty } = entry.state else {
                continue; // stale clock entry
            };
            if entry.referenced {
                inner.table.clear_referenced(&key);
                inner.clock.push_back(key);
                continue;
            }
            match (dirty, slot) {
                (false, Some(slot)) => {
                    // Clean page whose swap copy is still valid: free now.
                    inner.table.insert(
                        key,
                        PageEntry {
                            state: PageState::Swapped { slot },
                            referenced: false,
                        },
                    );
                    inner.frames.free(frame);
                    inner.table.bump_epoch();
                    inner.stats.clean_evictions += 1;
                    self.notify_waiters(inner);
                    progressed += 1;
                }
                (dirty_or_fresh, maybe_slot) => {
                    // Dirty (or never-swapped) page: write it out.
                    debug_assert!(dirty_or_fresh || maybe_slot.is_none());
                    let slot = match maybe_slot.or_else(|| inner.swap.alloc_slot(key)) {
                        Some(s) => s,
                        None => {
                            // Swap exhausted: nothing we can do with this
                            // page; keep it resident.
                            inner.clock.push_back(key);
                            continue;
                        }
                    };
                    inner.table.insert(
                        key,
                        PageEntry {
                            state: PageState::Writing {
                                frame,
                                slot,
                                dirty_again: false,
                            },
                            referenced: false,
                        },
                    );
                    // A store from here on must go back through `try_page`
                    // to set `dirty_again`: drop every lookaside.
                    inner.table.bump_epoch();
                    inner.stats.swap_outs += 1;
                    let backend = inner.swap.backend(slot.dev);
                    let offset = inner.swap.offset_of(slot);
                    let buf = inner.frames.buffer(frame);
                    let done = self.page_done(move |vm, result| {
                        result
                            .unwrap_or_else(|e| panic!("swap-out failed for page {key:?}: {e:?}"));
                        vm.finish_write(key);
                    });
                    backend.store(offset, buf, done);
                    writes += 1;
                    progressed += 1;
                }
            }
        }
        writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AddressSpace, DirectBackend, DirectConfig, PagedVec};
    use blockdev::SimDisk;

    fn vm_over_disk(frames: u64) -> (Engine, Vm) {
        let engine = Engine::new();
        let cal = Rc::new(Calibration::cluster_2005());
        let node = Node::new("client", 0, 2);
        let vm = Vm::new(
            engine.clone(),
            cal.clone(),
            node.clone(),
            VmConfig::for_memory(frames * 4096),
        );
        // The direct path over a disk copies the page at `store` time, as
        // the HPBD client does into its staging pool: what the device
        // holds is the page as of the write-out, not of its completion.
        let disk = Rc::new(SimDisk::new(
            engine.clone(),
            cal.disk.clone(),
            64 * 4096,
            "swap",
        ));
        vm.add_swap_backend(
            DirectBackend::new(engine.clone(), node, disk, DirectConfig::default()),
            0,
        );
        (engine, vm)
    }

    /// One reclaim pass the way every caller in `Vm` makes it: the direct
    /// path stages its stores until `reap`.
    fn reclaim_and_reap(vm: &Vm, target: usize) -> usize {
        let mut inner = vm.inner.borrow_mut();
        let writes = vm.reclaim(&mut inner, target);
        inner.swap.reap_all();
        writes
    }

    fn entry(vm: &Vm, key: PageKey) -> PageEntry {
        vm.inner.borrow().table.get(&key).cloned().expect("mapped")
    }

    /// Starting a page's write-out must invalidate every `PagedVec`
    /// lookaside: a holder with write intent that keeps storing past
    /// `try_page` never sets `dirty_again`, so `finish_write` frees the
    /// frame and the store vanishes.
    #[test]
    fn store_after_writeout_starts_is_not_lost() {
        let (engine, vm) = vm_over_disk(16);
        let space = AddressSpace::new(&vm);
        let v: PagedVec<i32> = PagedVec::new(&space, 1024);
        v.set(0, 1);
        assert!(
            v.pinned(|pages| pages.write(0, 1)).is_some(),
            "nothing swept yet: the pinned page takes stores"
        );
        // One pass clears the referenced bit, then starts the write-out.
        let writes = reclaim_and_reap(&vm, 1);
        assert_eq!(writes, 1, "the page's write-out must be in flight");
        assert!(
            v.pinned(|pages| pages.write(0, 2)).is_none(),
            "a swept slot must send the store back to try_page"
        );
        v.try_set(0, 2)
            .expect("a page under writeback stays mapped");
        assert!(matches!(
            entry(&vm, (space.asid(), 0)).state,
            PageState::Writing {
                dirty_again: true,
                ..
            }
        ));
        engine.run_until_idle();
        assert_eq!(v.get(0), 2);
    }

    /// Pinning makes no touch of its own: a page that was only read keeps
    /// refusing stores and leaves as a clean eviction.
    #[test]
    fn pinned_read_only_page_evicts_clean() {
        let (engine, vm) = vm_over_disk(16);
        let space = AddressSpace::new(&vm);
        let v: PagedVec<i32> = PagedVec::new(&space, 32 * 1024);
        for i in 0..v.len() {
            v.set(i, 7);
        }
        engine.run_until_idle();
        assert_eq!(v.get(0), 7, "page 0 comes back from swap, clean");
        assert_eq!(
            v.pinned(|pages| (pages.read(1), pages.write(1, 9))),
            (Some(7), None),
            "read intent pins for reads only"
        );
        let key = (space.asid(), 0);
        let before = vm.stats();
        while !matches!(entry(&vm, key).state, PageState::Swapped { .. }) {
            assert!(
                matches!(
                    entry(&vm, key).state,
                    PageState::Resident { dirty: false, .. }
                ),
                "page 0 must never be dirtied or written out"
            );
            reclaim_and_reap(&vm, 1);
        }
        assert!(vm.stats().clean_evictions > before.clean_evictions);
        engine.run_until_idle();
    }

    /// CLOCK's second chance alone — no eviction, no residency change —
    /// must already stop elision: the next access to each page has to set
    /// its referenced bit again, as it always did.
    #[test]
    fn cleared_referenced_bit_is_set_again_by_the_next_access() {
        let engine = Engine::new();
        let node = Node::new("client", 0, 2);
        let cal = Rc::new(Calibration::cluster_2005());
        // No swap device: reclaim can clear bits but evict nothing.
        let vm = Vm::new(engine, cal, node, VmConfig::for_memory(16 * 4096));
        let space = AddressSpace::new(&vm);
        let v: PagedVec<i32> = PagedVec::new(&space, 2048);
        let keys = [(space.asid(), 0), (space.asid(), 1)];
        v.set(0, 1);
        v.set(1024, 2);
        let epoch = vm.stamps().epoch();
        assert_eq!(vm.reclaim(&mut vm.inner.borrow_mut(), 1), 0);
        assert_eq!(vm.stamps().epoch(), epoch, "nothing moved");
        assert!(keys.iter().all(|&k| !entry(&vm, k).referenced));
        assert_eq!(v.pinned(|pages| pages.read(0)), None);
        assert_eq!((v.get(0), v.get(1024)), (1, 2));
        assert!(keys.iter().all(|&k| entry(&vm, k).referenced));
    }
}
