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
use vmsim::{AddressSpace, PagedVec, Pinned};

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
