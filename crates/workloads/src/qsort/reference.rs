//! The access rule and the state machine `QsortTask` had before it ran
//! over pinned pages, kept as the oracle: a one-page lookaside that calls
//! `Vm::try_page` on every logical miss, under an element-at-a-time
//! quicksort. The tests hold the task to it number for number.

use super::*;
use crate::scenario::{Scenario, ScenarioConfig, SwapKind, SwapPath};
use crate::task::Scheduler;
use netmodel::{Calibration, Node};
use simcore::Engine;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use vmsim::{Stamps, Vm, VmConfig};

const PER_PAGE: usize = 1024;

/// An `i32` array whose every logical miss is a real `try_page`.
struct RefVec {
    vm: Vm,
    stamps: Rc<Stamps>,
    asid: u32,
    base_vpn: u64,
    len: usize,
    /// (vpn, epoch, write intent honoured).
    cached: Cell<(u64, u64, bool)>,
    buf: RefCell<Option<Rc<RefCell<Vec<u8>>>>>,
}

impl RefVec {
    fn new(space: &AddressSpace, len: usize) -> RefVec {
        RefVec {
            vm: space.vm().clone(),
            stamps: space.vm().stamps(),
            asid: space.asid(),
            base_vpn: space.alloc_pages(len.div_ceil(PER_PAGE).max(1) as u64),
            len,
            cached: Cell::new((u64::MAX, u64::MAX, false)),
            buf: RefCell::new(None),
        }
    }

    fn with_elem<R>(
        &self,
        index: usize,
        write: bool,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, Signal> {
        assert!(index < self.len);
        let vpn = self.base_vpn + (index / PER_PAGE) as u64;
        let (cached_vpn, cached_epoch, cached_write) = self.cached.get();
        if !(cached_vpn == vpn && cached_epoch == self.stamps.epoch() && (!write || cached_write)) {
            let buf = self.vm.try_page(self.asid, vpn, write)?;
            self.cached.set((vpn, self.stamps.epoch(), write));
            *self.buf.borrow_mut() = Some(buf);
        }
        let buf = self.buf.borrow();
        let mut page = buf.as_ref().expect("cached page").borrow_mut();
        let off = index % PER_PAGE * 4;
        Ok(f(&mut page[off..off + 4]))
    }

    fn try_get(&self, index: usize) -> Result<i32, Signal> {
        self.with_elem(index, false, |b| {
            i32::from_le_bytes((&*b).try_into().expect("4 bytes"))
        })
    }

    fn try_set(&self, index: usize, value: i32) -> Result<(), Signal> {
        self.with_elem(index, true, |b| b.copy_from_slice(&value.to_le_bytes()))
    }

    fn get(&self, index: usize) -> i32 {
        loop {
            match self.try_get(index) {
                Ok(v) => return v,
                Err(sig) => self.vm.engine().run_until_signal(&sig),
            }
        }
    }

    fn set(&self, index: usize, value: i32) {
        while let Err(sig) = self.try_set(index, value) {
            self.vm.engine().run_until_signal(&sig);
        }
    }
}

/// The element-at-a-time quicksort: one micro-transition per call.
struct RefQsort {
    data: RefVec,
    stack: Vec<(u64, u64)>,
    phase: Phase,
    fill_next: usize,
    fill_val: Option<i32>,
    rng: SimRng,
    ns_per_op: u64,
}

impl RefQsort {
    fn new(space: &AddressSpace, elements: usize, seed: u64, ns_per_op: u64) -> RefQsort {
        RefQsort {
            data: RefVec::new(space, elements),
            stack: Vec::new(),
            phase: Phase::Fill,
            fill_next: 0,
            fill_val: None,
            rng: SimRng::new(seed),
            ns_per_op,
        }
    }

    /// One micro-transition. Returns ops consumed, or the blocking signal.
    fn advance_one(&mut self) -> Result<u64, Signal> {
        let n = self.data.len as u64;
        match &mut self.phase {
            Phase::Fill => {
                if self.fill_next as u64 == n {
                    self.phase = if n >= 2 {
                        self.stack.push((0, n - 1));
                        Phase::Next
                    } else {
                        Phase::Finished
                    };
                    return Ok(0);
                }
                let val = *self
                    .fill_val
                    .get_or_insert_with(|| self.rng.next_u32() as i32);
                self.data.try_set(self.fill_next, val)?;
                self.fill_next += 1;
                self.fill_val = None;
                Ok(1)
            }
            Phase::Next => match self.stack.pop() {
                None => {
                    self.phase = Phase::Finished;
                    Ok(0)
                }
                Some((lo, hi)) => {
                    self.phase = if hi - lo < INSERTION_CUTOFF {
                        Phase::InsOuter { lo, hi, i: lo + 1 }
                    } else {
                        Phase::PivotLoad { lo, hi }
                    };
                    Ok(0)
                }
            },
            Phase::PivotLoad { lo, hi } => {
                let (lo, hi) = (*lo, *hi);
                let pivot = self.data.try_get(hi as usize)?;
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
                Ok(1)
            }
            Phase::Scan(s) => {
                if s.j == s.hi {
                    self.phase = Phase::FinalSwap {
                        lo: s.lo,
                        hi: s.hi,
                        i: s.i,
                        vi: None,
                        vhi: None,
                        wrote_i: false,
                    };
                    return Ok(0);
                }
                // Read a[j].
                let cur_vj = match s.vj {
                    Some(v) => v,
                    None => {
                        let v = self.data.try_get(s.j as usize)?;
                        s.vj = Some(v);
                        return Ok(1);
                    }
                };
                if cur_vj > s.pivot {
                    s.j += 1;
                    s.vj = None;
                    return Ok(0);
                }
                if s.i == s.j {
                    s.i += 1;
                    s.j += 1;
                    s.vj = None;
                    return Ok(0);
                }
                // Swap a[i] <-> a[j], one access per transition.
                let cur_vi = match s.vi {
                    Some(v) => v,
                    None => {
                        let v = self.data.try_get(s.i as usize)?;
                        s.vi = Some(v);
                        return Ok(1);
                    }
                };
                if !s.wrote_i {
                    self.data.try_set(s.i as usize, cur_vj)?;
                    s.wrote_i = true;
                    return Ok(1);
                }
                self.data.try_set(s.j as usize, cur_vi)?;
                s.i += 1;
                s.j += 1;
                s.vj = None;
                s.vi = None;
                s.wrote_i = false;
                Ok(1)
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
                    let cur_vhi = match *vhi {
                        Some(v) => v,
                        None => {
                            let v = self.data.try_get(hi as usize)?;
                            *vhi = Some(v);
                            return Ok(1);
                        }
                    };
                    let cur_vi = match *vi {
                        Some(v) => v,
                        None => {
                            let v = self.data.try_get(i as usize)?;
                            *vi = Some(v);
                            return Ok(1);
                        }
                    };
                    if !*wrote_i {
                        self.data.try_set(i as usize, cur_vhi)?;
                        *wrote_i = true;
                        return Ok(1);
                    }
                    self.data.try_set(hi as usize, cur_vi)?;
                }
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
                Ok(1)
            }
            Phase::InsOuter { lo, hi, i } => {
                let (lo, hi, i) = (*lo, *hi, *i);
                if i > hi {
                    self.phase = Phase::Next;
                    return Ok(0);
                }
                let key = self.data.try_get(i as usize)?;
                self.phase = Phase::InsInner {
                    lo,
                    hi,
                    i,
                    j: i,
                    key,
                };
                Ok(1)
            }
            Phase::InsInner { lo, hi, i, j, key } => {
                let (lo, hi, i, key) = (*lo, *hi, *i, *key);
                if *j > lo {
                    let prev = self.data.try_get(*j as usize - 1)?;
                    if prev > key {
                        self.data.try_set(*j as usize, prev)?;
                        *j -= 1;
                        return Ok(2);
                    }
                }
                self.data.try_set(*j as usize, key)?;
                self.phase = Phase::InsOuter { lo, hi, i: i + 1 };
                Ok(2)
            }
            Phase::Finished => Ok(0),
        }
    }

    fn step_counting(&mut self, max_ops: u64) -> (Step, i64) {
        let mut budget = max_ops as i64;
        while budget > 0 {
            if self.phase == Phase::Finished {
                return (Step::Done, max_ops as i64 - budget);
            }
            match self.advance_one() {
                Ok(ops) => budget -= ops as i64,
                Err(sig) => return (Step::Blocked(sig), max_ops as i64 - budget),
            }
        }
        let step = if self.phase == Phase::Finished {
            Step::Done
        } else {
            Step::Ran
        };
        (step, max_ops as i64 - budget)
    }
}

impl Task for RefQsort {
    fn step(&mut self, max_ops: u64) -> Step {
        self.step_counting(max_ops).0
    }
    fn ns_per_op(&self) -> u64 {
        self.ns_per_op
    }
    fn name(&self) -> &str {
        "reference"
    }
}

// -- machines -------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum Swap {
    Ramdisk,
    HpbdBlock,
    HpbdDirect,
}

struct Machine {
    engine: Engine,
    vm: Vm,
    node: Node,
    /// Keeps the HPBD deployment alive.
    _scenario: Option<Scenario>,
}

impl Machine {
    fn new(swap: Swap, frames: usize) -> Machine {
        let path = match swap {
            Swap::Ramdisk => {
                let engine = Engine::new();
                let cal = Rc::new(Calibration::cluster_2005());
                let node = Node::new("client", 0, 2);
                let config = VmConfig::for_memory(frames as u64 * 4096);
                let vm = Vm::new(engine.clone(), cal.clone(), node.clone(), config);
                let swap = vmsim::BlockBackend::over_ramdisk(&engine, &cal, &node, 4 << 20, "swap");
                vm.add_swap_backend(swap, 0);
                return Machine {
                    engine,
                    vm,
                    node,
                    _scenario: None,
                };
            }
            Swap::HpbdBlock => SwapPath::Block,
            Swap::HpbdDirect => SwapPath::Direct,
        };
        let mut config =
            ScenarioConfig::new(frames as u64 * 4096, 4 << 20, SwapKind::Hpbd { servers: 2 });
        config.swap_path = path;
        let scenario = Scenario::build(&config);
        Machine {
            engine: scenario.engine.clone(),
            vm: scenario.vm.clone(),
            node: scenario.node.clone(),
            _scenario: Some(scenario),
        }
    }

    /// Everything deterministic a run leaves behind on the machine.
    fn fingerprint(&self) -> String {
        self.vm.check_invariants();
        format!(
            "{:?} now={} events={}",
            self.vm.stats(),
            self.engine.now().as_nanos(),
            self.engine.events_executed()
        )
    }

    fn run_pair(&self, a: &mut dyn Task, b: &mut dyn Task) {
        Scheduler::new(self.engine.clone(), 2)
            .with_node_cpu(self.node.cpu().clone())
            .run(&mut [a, b]);
    }
}

const ELEMENTS: usize = 64 * 1024;

/// Two interleaved quicksorts leave the machine exactly as the reference
/// pair leaves its twin, on every swap path, from thrashing to no pressure.
fn pair_matches_reference(swap: Swap) {
    for frames in [48, 64, 128, 1024] {
        for seed in 0..20u64 {
            let at = format!("{swap:?} frames={frames} seed={seed}");
            let new = Machine::new(swap, frames);
            let (s1, s2) = (AddressSpace::new(&new.vm), AddressSpace::new(&new.vm));
            let mut a = QsortTask::new(&s1, ELEMENTS, seed, 11, "a");
            let mut b = QsortTask::new(&s2, ELEMENTS, seed + 100, 11, "b");
            new.run_pair(&mut a, &mut b);

            let old = Machine::new(swap, frames);
            let (r1, r2) = (AddressSpace::new(&old.vm), AddressSpace::new(&old.vm));
            let mut ra = RefQsort::new(&r1, ELEMENTS, seed, 11);
            let mut rb = RefQsort::new(&r2, ELEMENTS, seed + 100, 11);
            old.run_pair(&mut ra, &mut rb);

            assert_eq!(new.fingerprint(), old.fingerprint(), "{at}");
            for (task, reference) in [(&a, &ra), (&b, &rb)] {
                let mut prev = i32::MIN;
                for i in 0..ELEMENTS {
                    let v = task.data().get(i);
                    assert_eq!(v, reference.data.get(i), "{at} element {i}");
                    assert!(prev <= v, "{at} unsorted at {i}");
                    prev = v;
                }
            }
            // The read-back faulted pages in on both sides alike.
            assert_eq!(new.fingerprint(), old.fingerprint(), "{at} after read-back");
        }
    }
}

#[test]
fn pair_matches_reference_over_ramdisk() {
    pair_matches_reference(Swap::Ramdisk);
}

#[test]
fn pair_matches_reference_over_hpbd_block_path() {
    pair_matches_reference(Swap::HpbdBlock);
}

#[test]
fn pair_matches_reference_over_hpbd_direct_path() {
    pair_matches_reference(Swap::HpbdDirect);
}

/// Serve accesses from `ops[got.len()..]` through the pages lent for the
/// next one and the next other page the burst goes to, then hand the
/// lookaside back: to the last page, with write intent if the final
/// accesses to it stored any, after an access to the other page if the run
/// went there. False if those pages are not lendable.
fn serve_lent(
    pages: &mut Pinned<'_, i32>,
    ops: &[(usize, Option<i32>)],
    got: &mut Vec<i32>,
) -> bool {
    let page = |index: usize| index / PER_PAGE;
    let start = got.len();
    let first = ops[start].0;
    let other = ops[start..]
        .iter()
        .map(|&(index, _)| index)
        .find(|&index| page(index) != page(first))
        .unwrap_or(first);
    let Some(mut lent) = pages.lend(first, other) else {
        return false;
    };
    while let Some(&(index, store)) = ops.get(got.len()) {
        let Some(of) = [first, other].iter().position(|&x| page(x) == page(index)) else {
            break;
        };
        got.push(match store {
            Some(v) => {
                lent.set(of, index, v);
                v
            }
            None => lent.get(of, index),
        });
    }
    let served = &ops[start..got.len()];
    let last = served[served.len() - 1].0;
    let tail = served
        .iter()
        .rev()
        .take_while(|op| page(op.0) == page(last))
        .count();
    if tail < served.len() {
        pages.hand_back(served[served.len() - tail - 1].0, false);
    }
    pages.hand_back(
        last,
        served[served.len() - tail..]
            .iter()
            .any(|op| op.1.is_some()),
    );
    true
}

/// Random loads and stores from two address spaces under reclaim pressure,
/// some through `try_get`/`try_set`, some through `pinned` and some through
/// the pages it lends, with the refused ones made the blocking way: same
/// values, same machine.
#[test]
fn random_accesses_match_reference() {
    const LEN: usize = 40 * PER_PAGE;
    let mut lent_served = 0;
    for seed in 0..24u64 {
        let new = Machine::new(Swap::Ramdisk, 32);
        let spaces = [AddressSpace::new(&new.vm), AddressSpace::new(&new.vm)];
        let vecs = spaces.each_ref().map(|s| PagedVec::<i32>::new(s, LEN));
        let old = Machine::new(Swap::Ramdisk, 32);
        let ref_spaces = [AddressSpace::new(&old.vm), AddressSpace::new(&old.vm)];
        let refs = ref_spaces.each_ref().map(|s| RefVec::new(s, LEN));

        let mut rng = SimRng::new(seed);
        let mut at = [0usize; 2];
        for _ in 0..400 {
            // A burst on one array: mostly near two wandering cursors, so
            // pages alternate and intents upgrade as in a partition scan.
            let which = rng.below(2) as usize;
            let ops: Vec<(usize, Option<i32>)> = (0..rng.below(200))
                .map(|_| {
                    let cursor = rng.below(2) as usize;
                    at[cursor] = match rng.below(16) {
                        0 => rng.below(LEN as u64) as usize,
                        _ => (at[cursor] + rng.below(300) as usize) % LEN,
                    };
                    let store = (rng.below(3) == 0).then(|| rng.next_u32() as i32);
                    (at[cursor], store)
                })
                .collect();
            let expect: Vec<i32> = ops
                .iter()
                .map(|&(index, store)| match store {
                    Some(v) => {
                        refs[which].set(index, v);
                        v
                    }
                    None => refs[which].get(index),
                })
                .collect();

            let vec = &vecs[which];
            let mut got = Vec::with_capacity(ops.len());
            let mode = rng.below(3);
            if mode == 0 {
                for &(index, store) in &ops {
                    got.push(match store {
                        Some(v) => {
                            vec.set(index, v);
                            v
                        }
                        None => vec.get(index),
                    });
                }
            } else {
                while got.len() < ops.len() {
                    vec.pinned(|pages| {
                        while let Some(&(index, store)) = ops.get(got.len()) {
                            let before = got.len();
                            if mode == 2 && serve_lent(pages, &ops, &mut got) {
                                lent_served += got.len() - before;
                                continue;
                            }
                            let served = match store {
                                Some(v) => pages.write(index, v).map(|()| v),
                                None => pages.read(index),
                            };
                            match served {
                                Some(v) => got.push(v),
                                None => break,
                            }
                        }
                    });
                    if let Some(&(index, store)) = ops.get(got.len()) {
                        got.push(match store {
                            Some(v) => {
                                vec.set(index, v);
                                v
                            }
                            None => vec.get(index),
                        });
                    }
                }
            }
            assert_eq!(got, expect, "seed {seed}");
            assert_eq!(new.fingerprint(), old.fingerprint(), "seed {seed}");
        }
        assert!(new.vm.stats().swap_outs > 0, "the run must page");
    }
    assert!(lent_served > 10_000, "only {lent_served} accesses lent");
}

/// Step for step: same ops charged, same outcome, same `Phase` — so a
/// quantum boundary falls between the same two accesses whatever the budget.
#[test]
fn steps_match_reference_at_every_budget() {
    for (budget, elements, frames) in [
        (1, 20 * PER_PAGE, 16),
        (2, 20 * PER_PAGE, 16),
        (3, 20 * PER_PAGE, 16),
        // Around the scan's whole-visit guard of 4 ops.
        (4, 20 * PER_PAGE, 16),
        (5, 20 * PER_PAGE, 16),
        (7, 20 * PER_PAGE, 16),
        (4545, 128 * PER_PAGE, 32),
    ] {
        let new = Machine::new(Swap::Ramdisk, frames);
        let mut task = QsortTask::new(&AddressSpace::new(&new.vm), elements, 5, 11, "t");
        let old = Machine::new(Swap::Ramdisk, frames);
        let mut reference = RefQsort::new(&AddressSpace::new(&old.vm), elements, 5, 11);
        let mut blocked = 0;
        for n in 0.. {
            let (step, ops) = task.step_counting(budget);
            let (ref_step, ref_ops) = reference.step_counting(budget);
            assert_eq!(ops, ref_ops, "budget {budget} step {n}");
            assert_eq!(
                task.sorter.phase, reference.phase,
                "budget {budget} step {n}"
            );
            assert_eq!(
                task.sorter.stack, reference.stack,
                "budget {budget} step {n}"
            );
            match (step, ref_step) {
                (Step::Ran, Step::Ran) => {
                    // A quantum passes, as under the scheduler.
                    new.engine.advance(simcore::SimDuration::from_micros(50));
                    old.engine.advance(simcore::SimDuration::from_micros(50));
                }
                (Step::Blocked(sig), Step::Blocked(ref_sig)) => {
                    blocked += 1;
                    new.engine.run_until_signal(&sig);
                    old.engine.run_until_signal(&ref_sig);
                }
                (Step::Done, Step::Done) => break,
                _ => panic!("budget {budget} step {n}: outcomes differ"),
            }
        }
        assert!(blocked > 0, "budget {budget}: the run must fault");
        assert_eq!(new.fingerprint(), old.fingerprint(), "budget {budget}");
        assert!(task.is_sorted());
    }
}
