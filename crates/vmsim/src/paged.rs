//! Application memory over the simulated VM.
//!
//! A [`PagedVec`] is a typed array whose storage is paged through [`Vm`]:
//! every element access may fault, swap in, trigger reclaim — the full
//! paging path, with real bytes surviving the round trips. This is how the
//! workloads (testswap, quicksort, Barnes-Hut) "run on" the simulated
//! machine while remaining ordinary Rust code.
//!
//! Accesses come in two flavours:
//! * `try_get`/`try_set` return `Err(Signal)` instead of blocking, which
//!   lets a scheduler interleave multiple application instances (Figure 9).
//! * `get`/`set` run the engine until the fault resolves (single-instance
//!   figures).
//!
//! A one-page lookaside cache (invalidated by the VM's epoch counter) keeps
//! the fast path to a few nanoseconds of real time, so paper-scale datasets
//! are affordable.

use crate::vm::Vm;
use blockdev::IoBuffer;
use simcore::Signal;
use std::cell::{Cell, RefCell};

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

/// A typed array living in paged virtual memory.
pub struct PagedVec<T: Element> {
    vm: Vm,
    /// Shared epoch counter, read without borrowing the VM (hot path).
    epoch: std::rc::Rc<Cell<u64>>,
    asid: u32,
    base_vpn: u64,
    len: usize,
    per_page: usize,
    /// `log2(per_page)` when `per_page` is a power of two (always, for the
    /// built-in element types): index math becomes shift/mask instead of
    /// an integer divide on every access.
    per_page_shift: Option<u32>,
    page_size: usize,
    // One-page lookaside cache: (vpn, epoch, write-intent honoured).
    cached_vpn: Cell<u64>,
    cached_epoch: Cell<u64>,
    cached_write: Cell<bool>,
    cached_buf: RefCell<Option<IoBuffer>>,
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
        let pages = len.div_ceil(per_page).max(1) as u64;
        let base_vpn = space.alloc_pages(pages);
        PagedVec {
            vm: space.vm().clone(),
            epoch: space.vm().epoch_handle(),
            asid: space.asid(),
            base_vpn,
            len,
            per_page,
            per_page_shift: per_page
                .is_power_of_two()
                .then(|| per_page.trailing_zeros()),
            page_size,
            cached_vpn: Cell::new(u64::MAX),
            cached_epoch: Cell::new(u64::MAX),
            cached_write: Cell::new(false),
            cached_buf: RefCell::new(None),
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
        (self.len.div_ceil(self.per_page).max(1)) as u64
    }

    /// Total footprint in bytes (page-granular).
    pub fn footprint_bytes(&self) -> u64 {
        self.pages() * self.page_size as u64
    }

    #[inline]
    fn locate(&self, index: usize) -> (u64, usize) {
        assert!(index < self.len, "index {index} out of {}", self.len);
        match self.per_page_shift {
            Some(shift) => (
                self.base_vpn + (index >> shift) as u64,
                (index & (self.per_page - 1)) * T::SIZE,
            ),
            None => (
                self.base_vpn + (index / self.per_page) as u64,
                (index % self.per_page) * T::SIZE,
            ),
        }
    }

    /// Run `f` against the page's buffer, resolving through the one-page
    /// lookaside cache. The fast path touches only `Cell`s and the cached
    /// buffer — no VM borrow, no `Rc` clone — which is what makes
    /// element-at-a-time workloads over multi-GiB arrays affordable.
    #[inline]
    fn with_page<R>(
        &self,
        vpn: u64,
        write: bool,
        f: impl FnOnce(&IoBuffer) -> R,
    ) -> Result<R, Signal> {
        if self.cached_vpn.get() == vpn
            && self.cached_epoch.get() == self.epoch.get()
            && (!write || self.cached_write.get())
        {
            if let Some(buf) = self.cached_buf.borrow().as_ref() {
                return Ok(f(buf));
            }
        }
        let buf = self.vm.try_page(self.asid, vpn, write)?;
        self.cached_vpn.set(vpn);
        self.cached_epoch.set(self.epoch.get());
        self.cached_write.set(write);
        let out = f(&buf);
        *self.cached_buf.borrow_mut() = Some(buf);
        Ok(out)
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

    /// Blocking swap of two elements.
    pub fn swap(&self, i: usize, j: usize) {
        let a = self.get(i);
        let b = self.get(j);
        self.set(i, b);
        self.set(j, a);
    }

    /// Release the backing pages and swap slots. Call with the engine
    /// quiesced (no in-flight I/O on these pages).
    pub fn release(self) {
        self.vm
            .release_range(self.asid, self.base_vpn, self.pages());
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

    #[test]
    #[should_panic(expected = "out of")]
    fn out_of_bounds_access_panics() {
        let (_engine, vm) = vm_fixture(64, 64);
        let space = AddressSpace::new(&vm);
        let v: PagedVec<i32> = PagedVec::new(&space, 10);
        v.get(10);
    }
}
