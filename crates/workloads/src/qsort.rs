//! Quicksort over paged memory (paper §6.1: "an implementation of a
//! quick-sort algorithm \[CLRS\], which sorts 256M randomly generated
//! integers, whose data set is around 1 GB on our IA-32 platform").
//!
//! The task is a fully resumable state machine: every element access can
//! report "would block" (a page fault in flight), and re-entry retries the
//! same access — the micro-state carried in `Phase` caches already-read
//! values so re-execution is idempotent. This is what lets two quicksort
//! instances interleave over one VM for Figure 9.
//!
//! Algorithm: iterative Lomuto-partition quicksort with an insertion-sort
//! cutoff, the textbook CLRS structure the paper cites.

use crate::task::{Step, Task};
use simcore::{Signal, SimRng};
use std::cell::Cell;
use std::hint::select_unpredictable;
use vmsim::{AddressSpace, Lent, PagedVec, Pinned};

/// Ranges at or below this length use insertion sort.
const INSERTION_CUTOFF: u64 = 16;

/// How the state machine reaches the array. It is written once against
/// this; a step runs it over the pinned pages, and makes the one access
/// they refuse through the VM.
trait Mem {
    /// Why an access was not made.
    type Stop;
    fn read(&mut self, index: u64) -> Result<i32, Self::Stop>;
    fn write(&mut self, index: u64, value: i32) -> Result<(), Self::Stop>;
    /// Lend `run` the pages of elements `a` and `b`, if this memory can.
    /// `run` returns the access its run's lookaside is handed back as, or
    /// `None` if it made none. True if it made any.
    fn with_lent(
        &mut self,
        _a: u64,
        _b: u64,
        _run: impl FnOnce(&mut Lent<'_, i32>) -> Option<(u64, bool)>,
    ) -> bool {
        false
    }
}

/// The pinned pages cannot serve this access without a VM call.
struct Unpinned;

impl Mem for Pinned<'_, i32> {
    type Stop = Unpinned;
    #[inline]
    fn read(&mut self, index: u64) -> Result<i32, Unpinned> {
        Pinned::read(self, index as usize).ok_or(Unpinned)
    }
    #[inline]
    fn write(&mut self, index: u64, value: i32) -> Result<(), Unpinned> {
        Pinned::write(self, index as usize, value).ok_or(Unpinned)
    }
    #[inline]
    fn with_lent(
        &mut self,
        a: u64,
        b: u64,
        run: impl FnOnce(&mut Lent<'_, i32>) -> Option<(u64, bool)>,
    ) -> bool {
        let Some(mut pages) = self.lend(a as usize, b as usize) else {
            return false;
        };
        let last = run(&mut pages);
        if let Some((index, write)) = last {
            self.hand_back(index as usize, write);
        }
        last.is_some()
    }
}

/// Through the VM: may fault, and stops on the signal to wait for.
impl Mem for &PagedVec<i32> {
    type Stop = Signal;
    fn read(&mut self, index: u64) -> Result<i32, Signal> {
        self.try_get(index as usize)
    }
    fn write(&mut self, index: u64, value: i32) -> Result<(), Signal> {
        self.try_set(index as usize, value)
    }
}

/// Lomuto scan over `lo..hi`: `i` is the store index, `j` the scan index.
/// The `Option`s and `wrote_i` hold the swap's progress across a stop.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Scan {
    lo: u64,
    hi: u64,
    pivot: i32,
    i: u64,
    j: u64,
    vj: Option<i32>,
    vi: Option<i32>,
    wrote_i: bool,
}

impl Scan {
    /// Scan while `*budget > 0`, one op per access; true once `j` reached
    /// `hi`. On a stop the fields say where to pick up.
    #[inline]
    fn run<M: Mem>(&mut self, mem: &mut M, budget: &mut i64) -> Result<bool, M::Stop> {
        while *budget > 0 {
            if self.j == self.hi {
                return Ok(true);
            }
            // At a visit boundary (`vj` empty implies `vi` empty and
            // `!wrote_i`) with budget for a whole visit, try the tight loop.
            // Every visit loads `a[j]`, on `j`'s page throughout; after a
            // swap the lookaside stays where the store to `a[j]` left it.
            if self.vj.is_none()
                && *budget >= 4
                && mem.with_lent(self.i, self.j, |pages| {
                    let j = self.j;
                    Some((j, self.visits(pages, budget)))
                })
            {
                continue;
            }
            let Some(vj) = self.vj else {
                self.vj = Some(mem.read(self.j)?);
                *budget -= 1;
                continue;
            };
            if vj > self.pivot {
                self.j += 1;
                self.vj = None;
                continue;
            }
            if self.i == self.j {
                self.i += 1;
                self.j += 1;
                self.vj = None;
                continue;
            }
            // Swap a[i] <-> a[j], one access per transition.
            let Some(vi) = self.vi else {
                self.vi = Some(mem.read(self.i)?);
                *budget -= 1;
                continue;
            };
            if !self.wrote_i {
                mem.write(self.i, vj)?;
                self.wrote_i = true;
                *budget -= 1;
                continue;
            }
            mem.write(self.j, vi)?;
            self.i += 1;
            self.j += 1;
            self.vj = None;
            self.vi = None;
            self.wrote_i = false;
            *budget -= 1;
        }
        Ok(false)
    }

    /// Whole visits over lent pages, charging what the element-wise path
    /// charges (1 op to load `a[j]`, 3 more to swap), while a full visit's
    /// 4 ops are left and `i` and `j` stay on their pages. Starts at a visit
    /// boundary with `j < hi` and budget for one visit, so makes at least
    /// one. True if any visit swapped.
    ///
    /// A visit branches on no key: it stores `a[j]` or `a[i]` back to each
    /// slot through a select, so one that does not swap rewrites both with
    /// what they hold. Nothing can see those stores, since a lent page is
    /// stamped current with write intent and every access to it is a repeat.
    #[inline]
    fn visits(&mut self, pages: &mut Lent<'_, i32>, budget: &mut i64) -> bool {
        // Lent page 0 holds `a[i]`, page 1 `a[j]`; `i` and `j` count from
        // their page's first element, `a[j]`'s page `gap` elements on.
        let (first_i, first_j) = (pages.first(0), pages.first(1));
        let j_end = pages.end(1).min(self.hi as usize) - first_j;
        let gap = first_j - first_i;
        fn cells(bytes: &mut [u8]) -> &[Cell<[u8; 4]>] {
            Cell::from_mut(bytes.as_chunks_mut::<4>().0).as_slice_of_cells()
        }
        let (page_i, page_j) = match pages.bytes() {
            (page, None) => {
                let page = cells(page);
                (page, page)
            }
            (page_i, Some(page_j)) => (cells(page_i), cells(page_j)),
        };
        let page_j = &page_j[..j_end];
        let (mut i, mut j) = (self.i as usize - first_i, self.j as usize - first_j);
        let mut left = *budget;
        let mut swapped = false;
        while i < page_i.len() && j < page_j.len() && left >= 4 {
            let (at_i, at_j) = (&page_i[i], &page_j[j]);
            let (vi, vj) = (
                i32::from_le_bytes(at_i.get()),
                i32::from_le_bytes(at_j.get()),
            );
            let le = vj <= self.pivot;
            at_i.set(select_unpredictable(le, vj, vi).to_le_bytes());
            at_j.set(select_unpredictable(le, vi, vj).to_le_bytes());
            let swap = le & (i + gap != j);
            left -= 1 + 3 * i64::from(swap);
            swapped |= swap;
            i += usize::from(le);
            j += 1;
        }
        (self.i, self.j, *budget) = ((first_i + i) as u64, (first_j + j) as u64, left);
        swapped
    }
}

/// Insertion sort of `lo..=hi` from outer element `i`, over a lent page
/// that holds the whole range: the `InsOuter`/`InsInner` transitions, each
/// charged as the element-wise path charges it, while `*budget > 0`. Returns
/// the phase they leave and whether any stored.
fn insert_lent(
    pages: &mut Lent<'_, i32>,
    lo: u64,
    hi: u64,
    mut i: u64,
    budget: &mut i64,
) -> (Phase, bool) {
    let at = |index: u64| index as usize;
    let mut stored = false;
    while *budget > 0 && i <= hi {
        let key = pages.get(0, at(i));
        *budget -= 1;
        let mut j = i;
        loop {
            if *budget <= 0 {
                return (Phase::InsInner { lo, hi, i, j, key }, stored);
            }
            *budget -= 2;
            stored = true;
            if j > lo {
                let prev = pages.get(0, at(j - 1));
                if prev > key {
                    pages.set(0, at(j), prev);
                    j -= 1;
                    continue;
                }
            }
            pages.set(0, at(j), key);
            break;
        }
        i += 1;
    }
    (Phase::InsOuter { lo, hi, i }, stored)
}

/// Micro-state of the quicksort state machine. Indices are element
/// positions; `Option` fields cache values across a blocking retry.
#[derive(Debug, PartialEq)]
enum Phase {
    /// Writing random input data.
    Fill,
    /// Pop the next range off the stack.
    Next,
    /// Load the pivot `a[hi]`.
    PivotLoad { lo: u64, hi: u64 },
    /// Partition around the pivot.
    Scan(Scan),
    /// Swap the pivot into place at `i`, then push subranges.
    FinalSwap {
        lo: u64,
        hi: u64,
        i: u64,
        vi: Option<i32>,
        vhi: Option<i32>,
        wrote_i: bool,
    },
    /// Insertion sort outer loop at element `i`.
    InsOuter { lo: u64, hi: u64, i: u64 },
    /// Insertion sort inner loop: sift `key` down to position `j`.
    InsInner {
        lo: u64,
        hi: u64,
        i: u64,
        j: u64,
        key: i32,
    },
    /// Sorting complete.
    Finished,
}

/// The sort's progress, apart from the array it works on.
struct Sorter {
    n: u64,
    stack: Vec<(u64, u64)>,
    phase: Phase,
    fill_next: u64,
    fill_val: Option<i32>,
    rng: SimRng,
}

impl Sorter {
    /// Make transitions while `*budget > 0`, charging it the ops each one
    /// costs. Transitions that touch no memory are free but still need
    /// budget left; the budget only counts memory operations, matching the
    /// paper's compute model.
    fn advance<M: Mem>(&mut self, mem: &mut M, budget: &mut i64) -> Result<(), M::Stop> {
        while *budget > 0 {
            match &mut self.phase {
                Phase::Fill => {
                    if self.fill_next == self.n {
                        self.phase = if self.n >= 2 {
                            self.stack.push((0, self.n - 1));
                            Phase::Next
                        } else {
                            Phase::Finished
                        };
                        continue;
                    }
                    let val = *self
                        .fill_val
                        .get_or_insert_with(|| self.rng.next_u32() as i32);
                    mem.write(self.fill_next, val)?;
                    self.fill_next += 1;
                    self.fill_val = None;
                    *budget -= 1;
                }
                Phase::Next => {
                    self.phase = match self.stack.pop() {
                        None => Phase::Finished,
                        Some((lo, hi)) if hi - lo < INSERTION_CUTOFF => {
                            Phase::InsOuter { lo, hi, i: lo + 1 }
                        }
                        Some((lo, hi)) => Phase::PivotLoad { lo, hi },
                    };
                }
                Phase::PivotLoad { lo, hi } => {
                    let (lo, hi) = (*lo, *hi);
                    let pivot = mem.read(hi)?;
                    self.phase = Phase::Scan(Scan {
                        lo,
                        hi,
                        pivot,
                        i: lo,
                        j: lo,
                        vj: None,
                        vi: None,
                        wrote_i: false,
                    });
                    *budget -= 1;
                }
                Phase::Scan(scan) => {
                    // On a copy, so the loop's state stays in registers.
                    let mut s = *scan;
                    let swept = s.run(mem, budget);
                    *scan = s;
                    if swept? {
                        self.phase = Phase::FinalSwap {
                            lo: s.lo,
                            hi: s.hi,
                            i: s.i,
                            vi: None,
                            vhi: None,
                            wrote_i: false,
                        };
                    }
                }
                Phase::FinalSwap {
                    lo,
                    hi,
                    i,
                    vi,
                    vhi,
                    wrote_i,
                } => {
                    let (lo, hi, i) = (*lo, *hi, *i);
                    if i != hi {
                        let Some(cur_vhi) = *vhi else {
                            *vhi = Some(mem.read(hi)?);
                            *budget -= 1;
                            continue;
                        };
                        let Some(cur_vi) = *vi else {
                            *vi = Some(mem.read(i)?);
                            *budget -= 1;
                            continue;
                        };
                        if !*wrote_i {
                            mem.write(i, cur_vhi)?;
                            *wrote_i = true;
                            *budget -= 1;
                            continue;
                        }
                        mem.write(hi, cur_vi)?;
                    }
                    // Pivot in place at i. Push larger side first so the
                    // smaller is processed next (bounded stack depth).
                    let left = (i > lo).then(|| (lo, i - 1));
                    let right = (i < hi).then(|| (i + 1, hi));
                    match (left, right) {
                        (Some(l), Some(r)) => {
                            if l.1 - l.0 > r.1 - r.0 {
                                self.stack.push(l);
                                self.stack.push(r);
                            } else {
                                self.stack.push(r);
                                self.stack.push(l);
                            }
                        }
                        (Some(l), None) => self.stack.push(l),
                        (None, Some(r)) => self.stack.push(r),
                        (None, None) => {}
                    }
                    self.phase = Phase::Next;
                    *budget -= 1;
                }
                Phase::InsOuter { lo, hi, i } => {
                    let (lo, hi, i) = (*lo, *hi, *i);
                    if i > hi {
                        self.phase = Phase::Next;
                        continue;
                    }
                    // When one page holds the whole range, every access is
                    // to it: the lookaside ends as one access to it leaves it,
                    // a store if any was made.
                    let phase = &mut self.phase;
                    if mem.with_lent(lo, lo, |pages| {
                        (pages.end(0) > hi as usize).then(|| {
                            let (next, stored) = insert_lent(pages, lo, hi, i, budget);
                            *phase = next;
                            (lo, stored)
                        })
                    }) {
                        continue;
                    }
                    let key = mem.read(i)?;
                    self.phase = Phase::InsInner {
                        lo,
                        hi,
                        i,
                        j: i,
                        key,
                    };
                    *budget -= 1;
                }
                Phase::InsInner { lo, hi, i, j, key } => {
                    let (lo, hi, i, key) = (*lo, *hi, *i, *key);
                    if *j > lo {
                        let prev = mem.read(*j - 1)?;
                        if prev > key {
                            mem.write(*j, prev)?;
                            *j -= 1;
                            *budget -= 2;
                            continue;
                        }
                    }
                    mem.write(*j, key)?;
                    self.phase = Phase::InsOuter { lo, hi, i: i + 1 };
                    *budget -= 2;
                }
                Phase::Finished => break,
            }
        }
        Ok(())
    }
}

/// A resumable quicksort instance.
pub struct QsortTask {
    data: PagedVec<i32>,
    sorter: Sorter,
    ns_per_op: u64,
    name: String,
}

impl QsortTask {
    /// Allocate and later sort `elements` random i32s.
    pub fn new(
        space: &AddressSpace,
        elements: usize,
        seed: u64,
        ns_per_op: u64,
        name: impl Into<String>,
    ) -> QsortTask {
        QsortTask {
            data: PagedVec::new(space, elements),
            sorter: Sorter {
                n: elements as u64,
                stack: Vec::new(),
                phase: Phase::Fill,
                fill_next: 0,
                fill_val: None,
                rng: SimRng::new(seed),
            },
            ns_per_op,
            name: name.into(),
        }
    }

    /// The array (for verification).
    pub fn data(&self) -> &PagedVec<i32> {
        &self.data
    }

    /// Blocking full-array sortedness check (verification outside the
    /// measured run).
    pub fn is_sorted(&self) -> bool {
        let n = self.data.len();
        if n < 2 {
            return true;
        }
        let mut prev = self.data.get(0);
        for i in 1..n {
            let v = self.data.get(i);
            if v < prev {
                return false;
            }
            prev = v;
        }
        true
    }

    /// [`Task::step`], also saying how many ops it charged.
    fn step_counting(&mut self, max_ops: u64) -> (Step, i64) {
        let mut budget = max_ops as i64;
        let sorter = &mut self.sorter;
        let step = 'run: {
            while budget > 0 && sorter.phase != Phase::Finished {
                let ran = self.data.pinned(|pages| sorter.advance(pages, &mut budget));
                if ran.is_err() {
                    // Make the refused access — and nothing after it —
                    // through the VM, where it may fault or block, then pin
                    // again.
                    let mut one = 1;
                    let made = sorter.advance(&mut &self.data, &mut one);
                    budget -= 1 - one;
                    if let Err(sig) = made {
                        break 'run Step::Blocked(sig);
                    }
                }
            }
            if sorter.phase == Phase::Finished {
                Step::Done
            } else {
                Step::Ran
            }
        };
        (step, max_ops as i64 - budget)
    }
}

impl Task for QsortTask {
    fn step(&mut self, max_ops: u64) -> Step {
        self.step_counting(max_ops).0
    }

    fn ns_per_op(&self) -> u64 {
        self.ns_per_op
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Scheduler;
    use netmodel::{Calibration, Node};
    use simcore::Engine;
    use std::rc::Rc;
    use vmsim::{Vm, VmConfig};

    fn vm_with_ram_swap(frames: usize, swap_pages: u64) -> (Engine, Vm) {
        let engine = Engine::new();
        let cal = Rc::new(Calibration::cluster_2005());
        let node = Node::new("client", 0, 2);
        let mut config = VmConfig::for_memory(frames as u64 * 4096);
        config.total_frames = frames;
        let vm = Vm::new(engine.clone(), cal.clone(), node.clone(), config);
        let backend =
            vmsim::BlockBackend::over_ramdisk(&engine, &cal, &node, swap_pages * 4096, "swap");
        vm.add_swap_backend(backend, 0);
        (engine, vm)
    }

    #[test]
    fn sorts_in_memory() {
        let (engine, vm) = vm_with_ram_swap(256, 64);
        let space = AddressSpace::new(&vm);
        let mut t = QsortTask::new(&space, 50_000, 42, 11, "qsort");
        Scheduler::new(engine.clone(), 2).run_one(&mut t);
        assert!(t.is_sorted(), "output must be sorted");
        assert_eq!(vm.stats().major_faults, 0, "fits in memory");
    }

    #[test]
    fn sorts_tiny_and_degenerate_inputs() {
        let (engine, vm) = vm_with_ram_swap(64, 16);
        let space = AddressSpace::new(&vm);
        for n in [0usize, 1, 2, 3, 15, 16, 17, 100] {
            let mut t = QsortTask::new(&space, n, n as u64, 11, "tiny");
            Scheduler::new(engine.clone(), 2).run_one(&mut t);
            assert!(t.is_sorted(), "n={n}");
        }
    }

    #[test]
    fn sorts_under_memory_pressure() {
        // Array is 4x local memory: the sort has to page constantly and
        // must still be correct.
        let (engine, vm) = vm_with_ram_swap(32, 512);
        let space = AddressSpace::new(&vm);
        let mut t = QsortTask::new(&space, 128 * 1024, 7, 11, "qsort");
        Scheduler::new(engine.clone(), 2).run_one(&mut t);
        assert!(vm.stats().swap_outs > 0, "must have paged");
        assert!(t.is_sorted(), "paging must not corrupt the sort");
    }

    #[test]
    fn paging_run_is_slower() {
        let run = |frames| {
            let (engine, vm) = vm_with_ram_swap(frames, 512);
            let space = AddressSpace::new(&vm);
            let mut t = QsortTask::new(&space, 64 * 1024, 3, 11, "qsort");
            Scheduler::new(engine.clone(), 2).run_one(&mut t)
        };
        let fast = run(256);
        let slow = run(16);
        assert!(slow > fast, "pressure {slow} vs in-memory {fast}");
    }

    /// Pinned pages that lend nothing: the element-wise path alone.
    struct ElementWise<'a, 'p>(&'a mut Pinned<'p, i32>);

    impl Mem for ElementWise<'_, '_> {
        type Stop = Unpinned;
        fn read(&mut self, index: u64) -> Result<i32, Unpinned> {
            Mem::read(self.0, index)
        }
        fn write(&mut self, index: u64, value: i32) -> Result<(), Unpinned> {
            Mem::write(self.0, index, value)
        }
    }

    /// A step of `budget` ops as `step_counting` makes it, with or without
    /// lent pages, waiting out any fault in place.
    fn step(task: &mut QsortTask, engine: &Engine, mut budget: i64, lend: bool) {
        while budget > 0 && task.sorter.phase != Phase::Finished {
            let sorter = &mut task.sorter;
            let ran = task.data.pinned(|pages| match lend {
                true => sorter.advance(pages, &mut budget),
                false => sorter.advance(&mut ElementWise(pages), &mut budget),
            });
            if ran.is_err() {
                let mut one = 1;
                while let Err(sig) = sorter.advance(&mut &task.data, &mut one) {
                    engine.run_until_signal(&sig);
                }
                budget -= 1 - one;
            }
        }
    }

    /// The logical lookaside as accesses see it. After a sweep that moves
    /// nothing no slot proves a touch a repeat, so an access is served
    /// without the VM only on a lookaside hit: a load on its page, a store
    /// too if it has write intent.
    fn lookaside(task: &QsortTask, vm: &Vm) -> Vec<(bool, bool)> {
        vm.release_range(AddressSpace::new(vm).asid(), 0, 1);
        task.data.pinned(|pages| {
            (0..task.data.len())
                .step_by(1024)
                .map(|x| {
                    let load = pages.read(x);
                    (
                        load.is_some(),
                        load.and_then(|v| pages.write(x, v)).is_some(),
                    )
                })
                .collect()
        })
    }

    /// Runs over lent pages hand back the lookaside the element-wise path
    /// leaves, for the scan and insertion sort alike: after every step the
    /// same phase and the same accesses served without a VM call.
    #[test]
    fn lent_runs_hand_back_the_element_wise_lookaside() {
        for budget in [5, 64, 4545] {
            let mut twins = [true, false].map(|lend| {
                let (engine, vm) = vm_with_ram_swap(64, 64);
                let task = QsortTask::new(&AddressSpace::new(&vm), 5000, 9, 11, "t");
                (lend, engine, vm, task)
            });
            for n in 0.. {
                for (lend, engine, _, task) in &mut twins {
                    step(task, engine, budget, *lend);
                }
                let [(_, _, vm, lent), (_, _, twin_vm, wise)] = &twins;
                assert_eq!(
                    lent.sorter.phase, wise.sorter.phase,
                    "budget {budget} step {n}"
                );
                assert_eq!(
                    lookaside(lent, vm),
                    lookaside(wise, twin_vm),
                    "budget {budget} step {n}"
                );
                if lent.sorter.phase == Phase::Finished {
                    break;
                }
            }
            let [(_, _, vm, lent), (_, _, twin_vm, wise)] = &twins;
            assert_eq!(
                format!("{:?}", vm.stats()),
                format!("{:?}", twin_vm.stats())
            );
            assert!(lent.is_sorted() && wise.is_sorted());
        }
    }

    /// `keys` in a VM of their own, the pages of elements `i` and `j` last
    /// touched by stores: both slots stamped current with write intent.
    fn written(keys: &[i32], i: usize, j: usize) -> PagedVec<i32> {
        let (_engine, vm) = vm_with_ram_swap(64, 64);
        let v = PagedVec::new(&AddressSpace::new(&vm), keys.len());
        for (x, &key) in keys.iter().enumerate() {
            v.set(x, key);
        }
        v.set(i, keys[i]);
        v.set(j, keys[j]);
        v
    }

    /// What `Scan::visits` does, made by the element-wise arm of `Scan::run`
    /// one visit at a time (on a copy whose `hi` is the next `j`) under the
    /// same stop rule: `i` and `j` on their first pages, `j` below `hi`, a
    /// whole visit's 4 ops left. True if any visit swapped.
    fn visits_element_wise(scan: &mut Scan, pages: &mut Pinned<'_, i32>, budget: &mut i64) -> bool {
        let page_end = |x: u64| (x / 1024 + 1) * 1024;
        let (i_end, j_end) = (page_end(scan.i), page_end(scan.j).min(scan.hi));
        let mut swapped = false;
        while scan.i < i_end && scan.j < j_end && *budget >= 4 {
            let before = *budget;
            let mut one = Scan {
                hi: scan.j + 1,
                ..*scan
            };
            let served = one.run(&mut ElementWise(pages), budget).is_ok();
            assert!(served && one.j == one.hi, "written pages serve a visit");
            (scan.i, scan.j) = (one.i, one.j);
            swapped |= before - *budget == 4;
        }
        swapped
    }

    /// `Scan::visits` over lent pages and the element-wise arm from the same
    /// start end with the same `i`, `j`, budget left and swap flag, and the
    /// same bytes. Returns the budget left.
    fn visits_match(keys: &[i32], start: Scan, budget: i64) -> i64 {
        let (i, j) = (start.i as usize, start.j as usize);
        let [lent_vec, wise_vec] = [(); 2].map(|()| written(keys, i, j));
        let (mut lent, mut lent_left) = (start, budget);
        let lent_swapped = lent_vec.pinned(|pages| {
            let mut pages = pages.lend(i, j).expect("both pages written");
            lent.visits(&mut pages, &mut lent_left)
        });
        let (mut wise, mut wise_left) = (start, budget);
        let wise_swapped =
            wise_vec.pinned(|pages| visits_element_wise(&mut wise, pages, &mut wise_left));
        assert_eq!(
            (lent.i, lent.j, lent_left, lent_swapped),
            (wise.i, wise.j, wise_left, wise_swapped),
            "from {start:?} with budget {budget}"
        );
        let bytes = |v: &PagedVec<i32>| (0..v.len()).map(|x| v.get(x)).collect::<Vec<_>>();
        assert!(
            bytes(&lent_vec) == bytes(&wise_vec),
            "from {start:?} with budget {budget}: the arrays differ"
        );
        lent_left
    }

    /// The branch-free visit loop against the element-wise arm: random keys,
    /// keys equal to the pivot, all-below and all-above runs; `i` and `j` on
    /// one page (from `i == j`, then apart) and on two; `hi` cutting `j`'s
    /// page short; budgets that stop the loop with each of 0–3 ops left.
    #[test]
    fn lent_visits_match_the_element_wise_arm() {
        // Three pages of 1,024 elements, the last one short.
        const N: usize = 2500;
        let mut rng = SimRng::new(39);
        let mut random = |n: u32| -> Vec<i32> {
            (0..N)
                .map(|_| match n {
                    0 => rng.next_u32() as i32,
                    n => (rng.next_u32() % n) as i32,
                })
                .collect()
        };
        // (keys, pivot)
        let runs: Vec<i32> = (0..N).map(|x| [1, 9][x / 37 % 2]).collect();
        let key_sets = [
            (random(0), 0),
            (random(5), 2),
            (random(5), 9),
            (random(5), -1),
            (runs, 5),
        ];
        // (i, j, hi)
        let starts = [
            (0, 0, N - 1),
            (300, 300, N - 1),
            (10, 500, N - 1),
            (700, 1100, N - 1),
            (5, 1030, 1500),
            (1000, 2100, 2300),
        ];
        let mut stopped_with = std::collections::BTreeSet::new();
        for (keys, pivot) in &key_sets {
            for &(i, j, hi) in &starts {
                let start = Scan {
                    lo: i as u64,
                    hi: hi as u64,
                    pivot: *pivot,
                    i: i as u64,
                    j: j as u64,
                    vj: None,
                    vi: None,
                    wrote_i: false,
                };
                for budget in (4..=20).chain([64, 1 << 20]) {
                    stopped_with.insert(visits_match(keys, start, budget).min(4));
                }
            }
        }
        assert_eq!(
            stopped_with.into_iter().collect::<Vec<_>>(),
            [0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn two_instances_interleave_and_both_sort() {
        let (engine, vm) = vm_with_ram_swap(48, 1024);
        let s1 = AddressSpace::new(&vm);
        let s2 = AddressSpace::new(&vm);
        let mut a = QsortTask::new(&s1, 64 * 1024, 1, 11, "qsort-a");
        let mut b = QsortTask::new(&s2, 64 * 1024, 2, 11, "qsort-b");
        let mut tasks: [&mut dyn Task; 2] = [&mut a, &mut b];
        Scheduler::new(engine.clone(), 2).run(&mut tasks);
        assert!(a.is_sorted(), "instance A sorted");
        assert!(b.is_sorted(), "instance B sorted");
    }
}
