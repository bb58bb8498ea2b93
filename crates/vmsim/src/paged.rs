//! Application memory over the simulated VM.
//!
//! A [`PagedVec`] is a typed array whose storage is paged through [`Vm`]:
//! every element access may fault, swap in, trigger reclaim — the full
//! paging path, with real bytes surviving the round trips. This is how the
//! workloads (testswap, quicksort, Barnes-Hut) "run on" the simulated
//! machine while remaining ordinary Rust code.
//!
//! Accesses come in four flavours:
//! * `try_get`/`try_set` return `Err(Signal)` instead of blocking, which
//!   lets a scheduler interleave multiple application instances (Figure 9).
//! * `get`/`set` run the engine until the fault resolves (single-instance
//!   figures).
//! * [`PagedVec::pinned`] lends out the two pages the array touched last
//!   for a run of accesses that need no VM call at all; an access it cannot
//!   prove to be one of those answers `None` and is made through
//!   `try_get`/`try_set` instead.
//! * [`Pinned::lend`] goes one step further when both pages were last
//!   touched with write intent and nothing was swept since: every access to
//!   them is then a repeat, so a [`Lent`] reads and writes their bytes with
//!   no lookaside bookkeeping, and [`Pinned::hand_back`] afterwards leaves
//!   the lookaside where the run's last access would have.
//!
//! # The lookaside, and why it is exact
//!
//! The simulated MMU is [`Vm::try_page`]: it sets the referenced bit (and
//! the dirty bit for a store), which is what CLOCK and write-back later
//! read, so *which* accesses reach it decides every virtual-time number.
//! That sequence is fixed by a one-page **logical** lookaside: an access
//! skips `try_page` iff it is to the page of the previous access, no
//! residency change ([`Stamps::epoch`]) happened since, and a store has
//! write intent already. Everything else is a logical miss.
//!
//! Most logical misses change nothing. The benchmark's Fig 9 cell
//! (`qsort_pair_hpbd`, seed 42) makes 278.5 M accesses in its timed pass;
//! 81.8 M are logical misses, and of those 54.6 M only alternate between
//! the two pages Lomuto's `a[i]` and `a[j]` sit on and 27.2 M only follow
//! a load with a store on the same page — 2,936 miss because the epoch
//! moved. So the array keeps **two** slots, each stamped with
//! [`Stamps::sweep`] at its last real `try_page` and with that touch's
//! intent. `sweep` moves whenever a page-table entry is inserted,
//! removed or has a bit cleared; `try_page` on a mapped page only *sets*
//! bits. A logical miss on a slot whose stamp is current and whose intent
//! covers the access would therefore find the page in the same frame with
//! `referenced` and `dirty`/`dirty_again` already set, touch no counter and
//! emit no event: it is skipped, and the logical lookaside is updated as if
//! it had been made. The real `try_page` calls that remain are the old
//! sequence minus calls that were no-ops, so page-table state after every
//! access — and with it CLOCK order, dirty bits, faults and time — is the
//! same by construction.

use crate::vm::{Stamps, Vm};
use blockdev::IoBuffer;
use simcore::Signal;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Fixed-size plain-data element storable in paged memory.
pub trait Element: Copy {
    /// Encoded size in bytes; must divide the page size.
    const SIZE: usize;
    /// Serialise into `out` (little-endian).
    fn store(&self, out: &mut [u8]);
    /// Deserialise from `inp`.
    fn load(inp: &[u8]) -> Self;
}

macro_rules! impl_element {
    ($($t:ty),*) => {$(
        impl Element for $t {
            const SIZE: usize = std::mem::size_of::<$t>();
            #[inline]
            fn store(&self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn load(inp: &[u8]) -> Self {
                <$t>::from_le_bytes(inp.try_into().expect("element size"))
            }
        }
    )*};
}

impl_element!(i32, u32, i64, u64, f32, f64);

/// A virtual address space: an asid plus a bump allocator for page ranges.
pub struct AddressSpace {
    vm: Vm,
    asid: u32,
    next_vpn: Cell<u64>,
}

impl AddressSpace {
    /// Create a fresh address space on `vm`.
    pub fn new(vm: &Vm) -> AddressSpace {
        AddressSpace {
            vm: vm.clone(),
            asid: vm.new_asid(),
            next_vpn: Cell::new(0),
        }
    }

    /// The VM backing this space.
    pub fn vm(&self) -> &Vm {
        &self.vm
    }

    /// Address-space id.
    pub fn asid(&self) -> u32 {
        self.asid
    }

    /// Reserve `pages` virtual pages; returns the base vpn.
    pub fn alloc_pages(&self, pages: u64) -> u64 {
        let base = self.next_vpn.get();
        self.next_vpn.set(base + pages);
        base
    }
}

/// The logical one-page lookaside: page and intent of the last access
/// that went (or provably need not have gone) to [`Vm::try_page`], and the
/// epoch it saw.
#[derive(Clone, Copy)]
struct Lookaside {
    vpn: u64,
    epoch: u64,
    write: bool,
}

impl Lookaside {
    const EMPTY: Lookaside = Lookaside {
        vpn: u64::MAX,
        epoch: u64::MAX,
        write: false,
    };

    #[inline]
    fn hits(&self, vpn: u64, write: bool, epoch: u64) -> bool {
        self.vpn == vpn && self.epoch == epoch && (self.write || !write)
    }
}

/// What one slot knows about its page: the sweep stamp and intent of the
/// last real `try_page` on it.
#[derive(Clone, Copy)]
struct SlotMeta {
    vpn: u64,
    sweep: u64,
    write: bool,
}

impl SlotMeta {
    const EMPTY: SlotMeta = SlotMeta {
        vpn: u64::MAX,
        sweep: u64::MAX,
        write: false,
    };

    /// Would `try_page(vpn, write)` be a repeat of what this slot's last
    /// real touch already did?
    #[inline]
    fn covers(&self, vpn: u64, write: bool, sweep: u64) -> bool {
        self.vpn == vpn && self.sweep == sweep && (self.write || !write)
    }
}

/// A typed array living in paged virtual memory.
pub struct PagedVec<T: Element> {
    vm: Vm,
    /// Shared counters, read without borrowing the VM (hot path).
    stamps: Rc<Stamps>,
    asid: u32,
    base_vpn: u64,
    len: usize,
    /// `log2` of the elements per page: index math is shift and mask.
    per_page_shift: u32,
    page_size: usize,
    lookaside: Cell<Lookaside>,
    /// The two pages touched last; `lookaside.vpn` is always `meta[mru]`'s.
    meta: [Cell<SlotMeta>; 2],
    bufs: [RefCell<Option<IoBuffer>>; 2],
    mru: Cell<usize>,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Element> PagedVec<T> {
    /// Allocate a paged array of `len` elements in `space`. Pages are
    /// faulted lazily on first touch (zero-filled), like anonymous memory.
    pub fn new(space: &AddressSpace, len: usize) -> PagedVec<T> {
        let page_size = space.vm().page_size() as usize;
        assert!(
            T::SIZE > 0 && page_size.is_multiple_of(T::SIZE),
            "element size must divide the page size"
        );
        let per_page = page_size / T::SIZE;
        assert!(
            per_page.is_power_of_two(),
            "elements per page must be a power of two"
        );
        let pages = len.div_ceil(per_page).max(1) as u64;
        let base_vpn = space.alloc_pages(pages);
        PagedVec {
            vm: space.vm().clone(),
            stamps: space.vm().stamps(),
            asid: space.asid(),
            base_vpn,
            len,
            per_page_shift: per_page.trailing_zeros(),
            page_size,
            lookaside: Cell::new(Lookaside::EMPTY),
            meta: [Cell::new(SlotMeta::EMPTY), Cell::new(SlotMeta::EMPTY)],
            bufs: [RefCell::new(None), RefCell::new(None)],
            mru: Cell::new(0),
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the array holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pages backing the array.
    pub fn pages(&self) -> u64 {
        self.len.div_ceil(1 << self.per_page_shift).max(1) as u64
    }

    /// Total footprint in bytes (page-granular).
    pub fn footprint_bytes(&self) -> u64 {
        self.pages() * self.page_size as u64
    }

    #[inline]
    fn locate(&self, index: usize) -> (u64, usize) {
        assert!(index < self.len, "index {index} out of {}", self.len);
        (
            self.base_vpn + (index >> self.per_page_shift) as u64,
            (index & ((1 << self.per_page_shift) - 1)) * T::SIZE,
        )
    }

    /// A logical miss: make the `try_page` call the one-page rule asks for,
    /// unless a slot proves it a repeat. Returns the slot now holding `vpn`.
    fn touch(&self, vpn: u64, write: bool) -> Result<usize, Signal> {
        let sweep = self.stamps.sweep();
        let slot = match self
            .meta
            .iter()
            .position(|m| m.get().covers(vpn, write, sweep))
        {
            Some(slot) => slot,
            None => {
                let buf = self.vm.try_page(self.asid, vpn, write)?;
                let slot = self
                    .meta
                    .iter()
                    .position(|m| m.get().vpn == vpn)
                    .unwrap_or(1 - self.mru.get());
                // Stamp after the call: a fault bumps `sweep` on its way.
                self.meta[slot].set(SlotMeta {
                    vpn,
                    sweep: self.stamps.sweep(),
                    write,
                });
                *self.bufs[slot].borrow_mut() = Some(buf);
                slot
            }
        };
        self.mru.set(slot);
        self.lookaside.set(Lookaside {
            vpn,
            epoch: self.stamps.epoch(),
            write,
        });
        Ok(slot)
    }

    /// Run `f` against the page's buffer. The fast path touches only
    /// `Cell`s and the cached buffer — no VM borrow, no `Rc` clone — which
    /// is what makes element-at-a-time workloads over multi-GiB arrays
    /// affordable.
    #[inline]
    fn with_page<R>(
        &self,
        vpn: u64,
        write: bool,
        f: impl FnOnce(&IoBuffer) -> R,
    ) -> Result<R, Signal> {
        let slot = if self.lookaside.get().hits(vpn, write, self.stamps.epoch()) {
            self.mru.get()
        } else {
            self.touch(vpn, write)?
        };
        let buf = self.bufs[slot].borrow();
        Ok(f(buf.as_ref().expect("a live slot holds its frame buffer")))
    }

    /// Read element `index`, or the signal to wait on.
    #[inline]
    pub fn try_get(&self, index: usize) -> Result<T, Signal> {
        let (vpn, off) = self.locate(index);
        self.with_page(vpn, false, |buf| {
            let b = buf.borrow();
            T::load(&b[off..off + T::SIZE])
        })
    }

    /// Write element `index`, or the signal to wait on.
    #[inline]
    pub fn try_set(&self, index: usize, value: T) -> Result<(), Signal> {
        let (vpn, off) = self.locate(index);
        self.with_page(vpn, true, |buf| {
            let mut b = buf.borrow_mut();
            value.store(&mut b[off..off + T::SIZE]);
        })
    }

    /// Lend `f` the two slots for a run of accesses that make no VM call.
    /// Nothing else may run meanwhile — `f` gets the frame buffers mutably
    /// borrowed — so an access [`Pinned`] refuses must be made through
    /// `try_get`/`try_set` after `f` returns.
    pub fn pinned<R>(&self, f: impl FnOnce(&mut Pinned<'_, T>) -> R) -> R {
        let (epoch, sweep) = (self.stamps.epoch(), self.stamps.sweep());
        let lookaside = self.lookaside.get();
        let mru = self.mru.get();
        // A slot is live — its buffer still the page's frame — if nothing
        // was swept since its stamp, or if it is the logical slot and no
        // residency changed. Only live slots are borrowed: a dead one may
        // name a frame that has since gone to the other slot's page.
        let live = [0, 1].map(|k| {
            let meta = self.meta[k].get();
            let fresh = meta.sweep == sweep;
            (fresh || (k == mru && lookaside.epoch == epoch)).then_some((meta, fresh))
        });
        let bufs = [0, 1].map(|k| live[k].and_then(|_| self.bufs[k].borrow().clone()));
        let mut guards = bufs
            .each_ref()
            .map(|buf| buf.as_ref().map(|b| b.borrow_mut()));
        let mut view = Pinned {
            vec: self,
            epoch,
            lookaside,
            mru,
            vpn: live.map(|slot| slot.map_or(u64::MAX, |(meta, _)| meta.vpn)),
            elidable: live.map(|slot| slot.and_then(|(meta, fresh)| fresh.then_some(meta.write))),
            page: guards.each_mut().map(|guard| match guard {
                Some(page) => &mut page[..],
                None => &mut [],
            }),
        };
        let out = f(&mut view);
        self.lookaside.set(view.lookaside);
        self.mru.set(view.mru);
        out
    }

    /// Blocking read (runs the engine through any fault).
    pub fn get(&self, index: usize) -> T {
        loop {
            match self.try_get(index) {
                Ok(v) => return v,
                Err(sig) => self.vm.engine().run_until_signal(&sig),
            }
        }
    }

    /// Blocking write.
    pub fn set(&self, index: usize, value: T) {
        loop {
            match self.try_set(index, value) {
                Ok(()) => return,
                Err(sig) => self.vm.engine().run_until_signal(&sig),
            }
        }
    }

    /// Release the backing pages and swap slots. Call with the engine
    /// quiesced (no in-flight I/O on these pages).
    pub fn release(self) {
        self.vm
            .release_range(self.asid, self.base_vpn, self.pages());
    }
}

/// The two live slots of a [`PagedVec`], borrowed for a run of accesses.
/// `read`/`write` answer `None` — and change nothing — for an access that
/// is not provably free of a VM call: a page in neither slot, or a logical
/// miss the slot's stamp or intent does not cover.
pub struct Pinned<'a, T: Element> {
    vec: &'a PagedVec<T>,
    epoch: u64,
    lookaside: Lookaside,
    mru: usize,
    vpn: [u64; 2],
    /// `Some(intent)` for a slot whose stamp is current.
    elidable: [Option<bool>; 2],
    page: [&'a mut [u8]; 2],
}

impl<T: Element> Pinned<'_, T> {
    /// The byte range of element `index` in a slot's page, with the logical
    /// lookaside advanced exactly as `with_page` would have.
    #[inline]
    fn access(&mut self, index: usize, write: bool) -> Option<(usize, usize)> {
        let (vpn, off) = self.vec.locate(index);
        let slot = if self.vpn[0] == vpn {
            0
        } else if self.vpn[1] == vpn {
            1
        } else {
            return None;
        };
        if !self.lookaside.hits(vpn, write, self.epoch) {
            // A logical miss: only a slot that proves the touch a repeat
            // may stand in for it.
            if !self.elidable[slot].is_some_and(|intent| intent || !write) {
                return None;
            }
            self.lookaside = Lookaside {
                vpn,
                epoch: self.epoch,
                write,
            };
            self.mru = slot;
        }
        Some((slot, off))
    }

    /// Element `index`, if reading it needs no VM call.
    #[inline]
    pub fn read(&mut self, index: usize) -> Option<T> {
        let (slot, off) = self.access(index, false)?;
        Some(T::load(&self.page[slot][off..off + T::SIZE]))
    }

    /// Store element `index`, if that needs no VM call.
    #[inline]
    pub fn write(&mut self, index: usize, value: T) -> Option<()> {
        let (slot, off) = self.access(index, true)?;
        value.store(&mut self.page[slot][off..off + T::SIZE]);
        Some(())
    }

    /// Lend the pages holding elements `a` and `b` (one page if they share
    /// it) for a run of loads and stores with no bookkeeping at all. Only a
    /// page in a slot whose stamp is current with write intent is lent: any
    /// access to it, load or store, hit or logical miss, is then a repeat of
    /// that slot's last touch. The run leaves the logical lookaside as it
    /// was; [`Pinned::hand_back`] moves it afterwards.
    pub fn lend(&mut self, a: usize, b: usize) -> Option<Lent<'_, T>> {
        let slot = |index| {
            let (vpn, _) = self.vec.locate(index);
            (0..2).find(|&k| self.vpn[k] == vpn && self.elidable[k] == Some(true))
        };
        let slot = [slot(a)?, slot(b)?];
        let per_page = 1 << self.vec.per_page_shift;
        let first = [a, b].map(|index| index & !(per_page - 1));
        let count = first.map(|first| per_page.min(self.vec.len - first));
        let [p0, p1] = &mut self.page;
        Some(Lent {
            page: [&mut **p0, &mut **p1],
            slot,
            first,
            count,
            _marker: std::marker::PhantomData,
        })
    }

    /// Leave the logical lookaside and the most recent slot where an access
    /// to element `index` with intent `write` would have left them. A run
    /// over [`Pinned::lend`]'s pages hands back an access to the page it
    /// ended on, a store if it stored there since it last came from the
    /// other page — and, if it came from there at all, an access to the
    /// other page first. Panics if the access would have been refused.
    pub fn hand_back(&mut self, index: usize, write: bool) {
        self.access(index, write)
            .expect("a run's accesses are to lent pages");
    }
}

/// The pages [`Pinned::lend`] lent: page 0 holds its `a`, page 1 its `b`
/// (the same page if they share one). Elements on them are read and written
/// directly, with nothing recorded. Naming the page at each access, rather
/// than finding it from the index, lets a loop keep both pages in registers.
pub struct Lent<'p, T: Element> {
    /// Both slots' pages; only the two named by `slot` are lent.
    page: [&'p mut [u8]; 2],
    /// Slot, first element index and element count of lent page 0 and 1.
    slot: [usize; 2],
    first: [usize; 2],
    count: [usize; 2],
    _marker: std::marker::PhantomData<T>,
}

impl<T: Element> Lent<'_, T> {
    /// The first element lent page `of` holds.
    pub fn first(&self, of: usize) -> usize {
        self.first[of]
    }

    /// One past the last element lent page `of` holds.
    pub fn end(&self, of: usize) -> usize {
        self.first[of] + self.count[of]
    }

    /// The bytes of the elements on lent pages 0 and 1, or one slice for
    /// both when they are the same page.
    pub fn bytes(&mut self) -> (&mut [u8], Option<&mut [u8]>) {
        let len = self.count.map(|count| count * T::SIZE);
        let [p0, p1] = &mut self.page;
        let (a, b) = if self.slot[0] == 0 {
            (p0, p1)
        } else {
            (p1, p0)
        };
        let b = (self.slot[0] != self.slot[1]).then(|| &mut b[..len[1]]);
        (&mut a[..len[0]], b)
    }

    /// The slot and byte offset of element `index` on lent page `of`.
    #[inline]
    fn at(&self, of: usize, index: usize) -> (usize, usize) {
        let d = index.wrapping_sub(self.first[of]);
        assert!(d < self.count[of], "element not on its lent page");
        (self.slot[of], d * T::SIZE)
    }

    /// Element `index`, on lent page `of`.
    #[inline]
    pub fn get(&self, of: usize, index: usize) -> T {
        let (slot, off) = self.at(of, index);
        T::load(&self.page[slot][off..off + T::SIZE])
    }

    /// Store element `index`, on lent page `of`.
    #[inline]
    pub fn set(&mut self, of: usize, index: usize, value: T) {
        let (slot, off) = self.at(of, index);
        value.store(&mut self.page[slot][off..off + T::SIZE]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VmConfig;
    use netmodel::{Calibration, Node};
    use simcore::Engine;
    use std::rc::Rc;

    /// A VM with `frames` frames of local memory and a RamDisk swap device
    /// of `swap_pages` pages (remote-memory-like but trivially local).
    fn vm_fixture(frames: usize, swap_pages: u64) -> (Engine, Vm) {
        let engine = Engine::new();
        let cal = Rc::new(Calibration::cluster_2005());
        let node = Node::new("client", 0, 2);
        let mut config = VmConfig::for_memory(frames as u64 * 4096);
        config.total_frames = frames;
        let vm = Vm::new(engine.clone(), cal.clone(), node.clone(), config);
        let backend =
            crate::BlockBackend::over_ramdisk(&engine, &cal, &node, swap_pages * 4096, "swap");
        vm.add_swap_backend(backend, 0);
        (engine, vm)
    }

    #[test]
    fn fits_in_memory_no_swap() {
        let (_engine, vm) = vm_fixture(64, 64);
        let space = AddressSpace::new(&vm);
        let v: PagedVec<i32> = PagedVec::new(&space, 1000);
        for i in 0..1000 {
            v.set(i, i as i32 * 3);
        }
        for i in 0..1000 {
            assert_eq!(v.get(i), i as i32 * 3);
        }
        assert_eq!(vm.stats().major_faults, 0);
        assert_eq!(vm.stats().swap_outs, 0);
    }

    #[test]
    fn working_set_larger_than_memory_swaps_and_survives() {
        // 32 frames of memory, array needs 128 pages.
        let (engine, vm) = vm_fixture(32, 256);
        let space = AddressSpace::new(&vm);
        let n = 128 * 1024; // i32 elements over 128 pages
        let v: PagedVec<i32> = PagedVec::new(&space, n);
        for i in 0..n {
            v.set(i, i as i32 ^ 0x5A5A);
        }
        // Read everything back — pages must round-trip through swap intact.
        for i in 0..n {
            assert_eq!(v.get(i), i as i32 ^ 0x5A5A, "element {i}");
        }
        let stats = vm.stats();
        assert!(stats.swap_outs > 0, "must have paged out");
        assert!(stats.major_faults > 0, "must have faulted back in");
        engine.run_until_idle();
    }

    #[test]
    fn readahead_reduces_major_faults_for_sequential_access() {
        let (_engine, vm) = vm_fixture(32, 256);
        let space = AddressSpace::new(&vm);
        let n = 128 * 1024;
        let v: PagedVec<i32> = PagedVec::new(&space, n);
        for i in 0..n {
            v.set(i, 1);
        }
        for i in 0..n {
            let _ = v.get(i);
        }
        let stats = vm.stats();
        // 128 pages re-read; readahead in clusters of 8 should make major
        // faults far fewer than pages read.
        assert!(
            stats.readaheads > stats.major_faults,
            "readahead {} vs major {}",
            stats.readaheads,
            stats.major_faults
        );
    }

    #[test]
    fn clean_pages_evict_without_io() {
        let (_engine, vm) = vm_fixture(32, 512);
        let space = AddressSpace::new(&vm);
        let n = 200 * 1024; // 200 pages
        let v: PagedVec<i32> = PagedVec::new(&space, n);
        for i in 0..n {
            v.set(i, 7);
        }
        let outs_after_fill = vm.stats().swap_outs;
        // Two read-only sweeps: pages come in clean and should mostly leave
        // clean (no additional write-out).
        for _ in 0..2 {
            for i in 0..n {
                let _ = v.get(i);
            }
        }
        let stats = vm.stats();
        assert!(stats.clean_evictions > 0, "clean evictions expected");
        let extra_outs = stats.swap_outs - outs_after_fill;
        assert!(
            extra_outs < stats.clean_evictions / 4,
            "read-only sweeps should not rewrite pages: {extra_outs} extra writes vs {} clean",
            stats.clean_evictions
        );
    }

    #[test]
    fn time_advances_under_paging() {
        let (engine, vm) = vm_fixture(32, 256);
        let space = AddressSpace::new(&vm);
        let n = 64 * 1024;
        let v: PagedVec<i64> = PagedVec::new(&space, n);
        for i in 0..n {
            v.set(i, i as i64);
        }
        assert!(engine.now().as_nanos() > 0, "paging must cost virtual time");
    }

    #[test]
    fn release_frees_frames_and_slots() {
        let (engine, vm) = vm_fixture(32, 256);
        let space = AddressSpace::new(&vm);
        let v: PagedVec<i32> = PagedVec::new(&space, 64 * 1024);
        for i in 0..v.len() {
            v.set(i, 1);
        }
        engine.run_until_idle();
        let slots_before = vm.free_swap_slots();
        assert!(slots_before < 256, "the array must be holding swap slots");
        v.release();
        // All frames and every slot back.
        assert_eq!(vm.free_frames(), 32);
        assert_eq!(vm.free_swap_slots(), 256);
        assert!(vm.free_swap_slots() > slots_before);
    }

    #[test]
    fn element_roundtrip_all_types() {
        let (_engine, vm) = vm_fixture(64, 64);
        let space = AddressSpace::new(&vm);
        let vf: PagedVec<f64> = PagedVec::new(&space, 100);
        vf.set(42, -1.5e300);
        assert_eq!(vf.get(42), -1.5e300);
        let vu: PagedVec<u64> = PagedVec::new(&space, 100);
        vu.set(0, u64::MAX);
        assert_eq!(vu.get(0), u64::MAX);
        let vi: PagedVec<i64> = PagedVec::new(&space, 100);
        vi.set(99, i64::MIN);
        assert_eq!(vi.get(99), i64::MIN);
    }

    #[test]
    fn distinct_spaces_do_not_alias() {
        let (_engine, vm) = vm_fixture(64, 128);
        let s1 = AddressSpace::new(&vm);
        let s2 = AddressSpace::new(&vm);
        let a: PagedVec<i32> = PagedVec::new(&s1, 1024);
        let b: PagedVec<i32> = PagedVec::new(&s2, 1024);
        for i in 0..1024 {
            a.set(i, 1);
            b.set(i, 2);
        }
        for i in 0..1024 {
            assert_eq!(a.get(i), 1);
            assert_eq!(b.get(i), 2);
        }
    }

    #[test]
    fn swap_exhaustion_keeps_pages_resident() {
        // Swap much smaller than the working set: the VM cannot evict
        // everything, but data must stay correct for what fits.
        let (_engine, vm) = vm_fixture(64, 16);
        let space = AddressSpace::new(&vm);
        // 40 pages working set, 64 frames: fits in memory, no pressure.
        let v: PagedVec<i32> = PagedVec::new(&space, 40 * 1024);
        for i in 0..v.len() {
            v.set(i, 3);
        }
        for i in 0..v.len() {
            assert_eq!(v.get(i), 3);
        }
    }

    /// A 4-page array whose pages 0 and 1 were both last touched with write
    /// intent and nothing swept since.
    fn two_written_pages(vm: &Vm) -> PagedVec<i32> {
        let v = PagedVec::new(&AddressSpace::new(vm), 4 * 1024);
        v.set(0, 1);
        // Faulting page 1 in sweeps, so page 0's stamp goes stale...
        v.set(1024, 2);
        // ...until a real touch of it again.
        v.set(1, 3);
        v
    }

    #[test]
    fn lend_serves_both_written_pages() {
        let (_engine, vm) = vm_fixture(64, 64);
        let v = two_written_pages(&vm);
        v.pinned(|pages| {
            let mut lent = pages.lend(1, 1024).expect("both pages written, none swept");
            assert_eq!((lent.end(0), lent.end(1)), (1024, 2048));
            assert_eq!(
                (lent.get(0, 0), lent.get(0, 1), lent.get(1, 1024)),
                (1, 3, 2)
            );
            lent.set(1, 2047, 9);
            let (page_0, page_1) = lent.bytes();
            assert_eq!((page_0[4], page_1.map(|page| page[0])), (3, Some(2)));
            // One page lent for both elements.
            let mut lent = pages.lend(5, 7).expect("page 0 is written");
            assert_eq!((lent.end(0), lent.end(1)), (1024, 1024));
            assert_eq!((lent.first(1), lent.bytes().0.len()), (0, 4096));
            assert!(lent.bytes().1.is_none());
            // Page 1 lent as page 0 too: its slot comes first.
            let mut lent = pages.lend(1024, 0).expect("both pages written");
            assert_eq!((lent.first(0), lent.bytes().0[0]), (1024, 2));
        });
        assert_eq!(v.get(2047), 9);
    }

    #[test]
    #[should_panic(expected = "not on its lent page")]
    fn lent_access_off_its_page_panics() {
        let (_engine, vm) = vm_fixture(64, 64);
        let v = two_written_pages(&vm);
        v.pinned(|pages| pages.lend(0, 0).map(|lent| lent.get(0, 1024)));
    }

    #[test]
    fn lend_refuses_a_page_touched_to_read_only() {
        let (_engine, vm) = vm_fixture(64, 64);
        let v = PagedVec::<i32>::new(&AddressSpace::new(&vm), 4 * 1024);
        v.set(0, 1);
        v.set(1024, 2);
        // A real touch with read intent restamps page 0.
        v.get(0);
        v.pinned(|pages| {
            assert!(pages.lend(0, 1024).is_none());
            assert!(pages.lend(0, 0).is_none());
            assert!(pages.lend(1024, 1025).is_some());
        });
    }

    #[test]
    fn lend_refuses_a_stale_stamp() {
        let (_engine, vm) = vm_fixture(64, 64);
        let v = two_written_pages(&vm);
        // Removing a page that was never mapped sweeps and moves nothing:
        // page 0 is still the lookaside's, but its stamp is stale.
        vm.release_range(AddressSpace::new(&vm).asid(), 0, 1);
        v.pinned(|pages| {
            assert!(pages.lend(0, 0).is_none());
            assert_eq!(pages.read(1), Some(3), "a lookaside hit needs no stamp");
        });
        // A real touch restamps page 0; faulting page 2 in then evicts page
        // 1 from its slot and leaves page 0's stamp stale again.
        v.set(1, 3);
        v.set(2048, 4);
        v.pinned(|pages| {
            assert!(pages.lend(0, 2048).is_none());
            assert!(pages.lend(2048, 2048).is_some());
        });
    }

    #[test]
    fn lend_refuses_a_page_in_neither_slot() {
        let (_engine, vm) = vm_fixture(64, 64);
        let v = two_written_pages(&vm);
        v.pinned(|pages| {
            assert!(pages.lend(3 * 1024, 0).is_none());
            assert!(pages.lend(0, 2048).is_none());
        });
    }

    /// Loads and stores made through a [`Lent`] and then handed back leave
    /// the lookaside, the most recent slot and the data where the same
    /// accesses made one by one through [`Pinned`] leave them.
    #[test]
    fn hand_back_matches_element_wise_accesses() {
        // Runs of (index, store?) from a lookaside on page 0 with write
        // intent, each with its hand-back: the last page, with write intent
        // if the final accesses to it stored any, after an access to the
        // other page if the run went there.
        type Accesses = &'static [(usize, bool)];
        let runs: [(Accesses, Accesses); 5] = [
            (&[(1024, false), (1025, false)], &[(1024, false)]),
            (&[(1024, false), (5, true), (1024, true)], &[(1024, true)]),
            (&[(5, false), (1024, false)], &[(5, false), (1024, false)]),
            (&[(2, true), (3, false)], &[(3, true)]),
            // Back on page 0 with a load only: its write intent is gone.
            (&[(1024, false), (5, false)], &[(1024, false), (5, false)]),
        ];
        for (accesses, hand_back) in runs {
            let lent_side = vm_fixture(64, 64);
            let wise_side = vm_fixture(64, 64);
            let [lent_vec, wise_vec] = [&lent_side.1, &wise_side.1].map(two_written_pages);
            lent_vec.pinned(|pages| {
                let mut lent = pages.lend(0, 1024).expect("both pages written");
                for &(index, store) in accesses {
                    let of = usize::from(index >= 1024);
                    match store {
                        true => lent.set(of, index, index as i32),
                        false => drop(lent.get(of, index)),
                    }
                }
                for &(index, write) in hand_back {
                    pages.hand_back(index, write);
                }
            });
            wise_vec.pinned(|pages| {
                for &(index, store) in accesses {
                    match store {
                        true => pages.write(index, index as i32),
                        false => pages.read(index).map(drop),
                    }
                    .expect("written pages serve every access");
                }
            });
            let state = |v: &PagedVec<i32>| {
                let l = v.lookaside.get();
                (l.vpn, l.write, v.mru.get(), v.get(2), v.get(1024))
            };
            assert_eq!(state(&lent_vec), state(&wise_vec), "{accesses:?}");
        }
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn out_of_bounds_access_panics() {
        let (_engine, vm) = vm_fixture(64, 64);
        let space = AddressSpace::new(&vm);
        let v: PagedVec<i32> = PagedVec::new(&space, 10);
        v.get(10);
    }
}
