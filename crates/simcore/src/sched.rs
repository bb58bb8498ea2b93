//! The event queue behind [`Engine`](crate::Engine).
//!
//! Events pop in strict `(time, seq)` order, where `seq` is the engine's
//! submission counter, so ties break by submission order.
//!
//! [`TimingWheel`] is a flat window of `WHEEL_SLOTS` one-nanosecond slots
//! starting at `base`, backed by a two-level occupancy bitmap for O(1)
//! earliest-slot lookup, with a slab of reusable event nodes (no per-event
//! heap allocation beyond the boxed closure itself) and an overflow binary
//! heap for events beyond the window. When the window drains, the wheel
//! *re-anchors* at the overflow minimum and promotes every overflow event
//! inside the new window, in heap order — which is exactly `(time, seq)`
//! order, so slot FIFOs stay sequence-sorted.
//!
//! ## Determinism argument
//!
//! With 1 ns slots, every event in a slot shares one timestamp, and slot
//! FIFOs only ever receive events in increasing `seq` (direct pushes are
//! sequenced by the engine's counter; promotions happen only into an empty
//! wheel and arrive in heap-sorted `(time, seq)` order). The overflow heap
//! orders by `(time, seq)` directly, and every overflow entry lies at or
//! past `base + WHEEL_SLOTS`: `push` routes only those there, and
//! `reanchor` promotes every entry inside the new window. So while the
//! wheel holds an event its head is the earliest, and the popped stream is
//! a stable sort by `(time, seq)`. The sorted-vec model in
//! `tests/sched_model.rs` holds the engine to exactly that order.
//!
//! Cancellation is lazy: cancelling drops the closure immediately (so
//! captured resources release deterministically) and leaves a tombstone
//! node that is skipped and recycled when it reaches the head of its
//! structure.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A boxed event closure.
pub(crate) type Action = Box<dyn FnOnce()>;

/// Number of 1 ns slots in the wheel window (~65.5 µs horizon).
const WHEEL_SLOTS: usize = 1 << 16;
/// 64-bit occupancy words covering the slots.
const WORDS: usize = WHEEL_SLOTS / 64;
/// Second-level summary words (one bit per occupancy word).
const SUMMARY_WORDS: usize = WORDS / 64;

const NIL: u32 = u32::MAX;

/// Handle to a cancellable scheduled event.
///
/// Returned by [`Engine::schedule_cancellable_at`] and friends; pass it to
/// [`Engine::cancel`]. Stale ids (event already ran, already cancelled, or
/// the node was recycled) are detected via a generation counter and the
/// cancel becomes a no-op.
///
/// [`Engine::schedule_cancellable_at`]: crate::Engine::schedule_cancellable_at
/// [`Engine::cancel`]: crate::Engine::cancel
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EventId {
    idx: u32,
    gen: u32,
}

/// Slab node: one scheduled event. Its time is its slot's, or its overflow
/// entry's. `next` links the slot FIFO.
struct Node {
    gen: u32,
    next: u32,
    action: Option<Action>,
}

#[derive(Clone, Copy)]
struct Slot {
    head: u32,
    tail: u32,
}

const EMPTY_SLOT: Slot = Slot {
    head: NIL,
    tail: NIL,
};

/// Overflow entry ordered so the *earliest* `(at, seq)` pops first.
struct OflEntry {
    at: u64,
    seq: u64,
    node: u32,
}

impl PartialEq for OflEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for OflEntry {}
impl PartialOrd for OflEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OflEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Hierarchical timing wheel with slab-allocated nodes and an overflow heap.
pub(crate) struct TimingWheel {
    /// Absolute time (ns) of slot 0. Only moves forward, and only to values
    /// at or below the engine clock, so `at >= base` for every push.
    base: u64,
    slots: Box<[Slot]>,
    words: Box<[u64]>,
    summary: [u64; SUMMARY_WORDS],
    overflow: BinaryHeap<OflEntry>,
    nodes: Vec<Node>,
    free_head: u32,
    /// Live (non-cancelled) pending events.
    live: usize,
}

impl TimingWheel {
    pub(crate) fn new() -> TimingWheel {
        TimingWheel {
            base: 0,
            slots: vec![EMPTY_SLOT; WHEEL_SLOTS].into_boxed_slice(),
            words: vec![0u64; WORDS].into_boxed_slice(),
            summary: [0u64; SUMMARY_WORDS],
            overflow: BinaryHeap::new(),
            nodes: Vec::new(),
            free_head: NIL,
            live: 0,
        }
    }

    fn alloc_node(&mut self, action: Action) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            let node = &mut self.nodes[idx as usize];
            self.free_head = node.next;
            node.next = NIL;
            node.action = Some(action);
            idx
        } else {
            let idx = self.nodes.len() as u32;
            self.nodes.push(Node {
                gen: 0,
                next: NIL,
                action: Some(action),
            });
            idx
        }
    }

    /// Recycle a node: bump its generation (invalidating outstanding
    /// [`EventId`]s) and push it onto the free list.
    fn free_node(&mut self, idx: u32) {
        let node = &mut self.nodes[idx as usize];
        debug_assert!(node.action.is_none(), "freeing a live node");
        node.gen = node.gen.wrapping_add(1);
        node.next = self.free_head;
        self.free_head = idx;
    }

    fn insert_slot(&mut self, slot: usize, idx: u32) {
        let s = &mut self.slots[slot];
        if s.tail == NIL {
            s.head = idx;
            s.tail = idx;
            self.words[slot >> 6] |= 1u64 << (slot & 63);
            self.summary[slot >> 12] |= 1u64 << ((slot >> 6) & 63);
        } else {
            let tail = s.tail;
            s.tail = idx;
            self.nodes[tail as usize].next = idx;
        }
    }

    /// Unlink the head of `slot`, clearing occupancy bits when it empties.
    fn pop_slot_head(&mut self, slot: usize) -> u32 {
        let s = &mut self.slots[slot];
        let idx = s.head;
        debug_assert_ne!(idx, NIL, "popping an empty slot");
        let next = self.nodes[idx as usize].next;
        s.head = next;
        if next == NIL {
            s.tail = NIL;
            let word = slot >> 6;
            self.words[word] &= !(1u64 << (slot & 63));
            if self.words[word] == 0 {
                self.summary[slot >> 12] &= !(1u64 << ((slot >> 6) & 63));
            }
        }
        idx
    }

    /// Earliest occupied slot, via the two-level bitmap.
    fn min_slot(&self) -> Option<usize> {
        for (si, &sw) in self.summary.iter().enumerate() {
            if sw != 0 {
                let word = (si << 6) + sw.trailing_zeros() as usize;
                let bits = self.words[word];
                debug_assert_ne!(bits, 0, "summary bit set on empty word");
                return Some((word << 6) + bits.trailing_zeros() as usize);
            }
        }
        None
    }

    fn wheel_is_empty(&self) -> bool {
        self.summary.iter().all(|&w| w == 0)
    }

    /// Move the window to start at `at` (callers guarantee the wheel is
    /// empty and `at` never exceeds the engine clock's next stop), then
    /// promote every overflow event now inside the window. Heap pops come
    /// out in `(time, seq)` order, so slot FIFOs stay sequence-sorted.
    fn reanchor(&mut self, at: u64) {
        debug_assert!(self.wheel_is_empty(), "re-anchoring a non-empty wheel");
        debug_assert!(at >= self.base, "wheel base must not move backwards");
        self.base = at;
        let horizon = at + WHEEL_SLOTS as u64;
        while let Some(top) = self.overflow.peek() {
            if top.at >= horizon {
                break;
            }
            let entry = self.overflow.pop().expect("peeked entry");
            if self.nodes[entry.node as usize].action.is_none() {
                self.free_node(entry.node);
            } else {
                self.insert_slot((entry.at - at) as usize, entry.node);
            }
        }
        // The heap minimum bounds every entry.
        debug_assert!(
            self.overflow.peek().is_none_or(|top| top.at >= horizon),
            "overflow entry left inside the window"
        );
    }

    /// Drop tombstoned (cancelled) nodes sitting at the head of either
    /// structure so peeks and pops see live events only. Returns the
    /// wheel's earliest slot, whose head is now live, if the wheel holds
    /// an event.
    fn prune(&mut self) -> Option<usize> {
        while let Some(top) = self.overflow.peek() {
            if self.nodes[top.node as usize].action.is_some() {
                break;
            }
            let node = self.overflow.pop().expect("peeked entry").node;
            self.free_node(node);
        }
        while let Some(slot) = self.min_slot() {
            let idx = self.slots[slot].head;
            if self.nodes[idx as usize].action.is_some() {
                return Some(slot);
            }
            self.pop_slot_head(slot);
            self.free_node(idx);
        }
        None
    }

    pub(crate) fn push(&mut self, at: SimTime, seq: u64, action: Action) -> EventId {
        let idx = self.alloc_node(action);
        let id = EventId {
            idx,
            gen: self.nodes[idx as usize].gen,
        };
        // `at >= base` always holds (base trails the clock), so a wrapping
        // subtraction that lands outside the window routes to overflow.
        let offset = at.0.wrapping_sub(self.base);
        if offset < WHEEL_SLOTS as u64 {
            self.insert_slot(offset as usize, idx);
        } else {
            debug_assert!(
                at.0 >= self.base + WHEEL_SLOTS as u64,
                "overflow entry inside the window"
            );
            self.overflow.push(OflEntry {
                at: at.0,
                seq,
                node: idx,
            });
        }
        self.live += 1;
        id
    }

    /// Cancel every pending event, handing the closures back so the
    /// caller drops them outside its borrow of the wheel.
    pub(crate) fn take_all(&mut self) -> Vec<Action> {
        self.live = 0;
        self.nodes
            .iter_mut()
            .filter_map(|n| n.action.take())
            .collect()
    }

    pub(crate) fn cancel(&mut self, id: EventId) -> bool {
        match self.nodes.get_mut(id.idx as usize) {
            Some(node) if node.gen == id.gen && node.action.is_some() => {
                // Drop the closure now so captured resources release
                // deterministically; the node is recycled lazily.
                node.action = None;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Pop the earliest event if its time is `<= deadline`.
    pub(crate) fn pop_due(&mut self, deadline: SimTime) -> Option<(SimTime, Action)> {
        loop {
            // Every overflow entry lies past the window, so a non-empty
            // wheel's head is the earliest event.
            if let Some(slot) = self.prune() {
                let at = self.base + slot as u64;
                if at > deadline.0 {
                    return None;
                }
                let idx = self.pop_slot_head(slot);
                return Some((SimTime(at), self.take_action(idx)));
            }
            match self.overflow.peek() {
                // Window drained: re-anchor at the overflow minimum and
                // retry — the promoted events now sit in the wheel.
                Some(top) if top.at <= deadline.0 => {
                    let at = top.at;
                    self.reanchor(at);
                }
                _ => return None,
            }
        }
    }

    fn take_action(&mut self, idx: u32) -> Action {
        let action = self.nodes[idx as usize]
            .action
            .take()
            .expect("popping a tombstone");
        self.free_node(idx);
        self.live -= 1;
        action
    }

    /// Timestamp of the earliest live event, pruning tombstones on the way.
    pub(crate) fn peek_time(&mut self) -> Option<SimTime> {
        match self.prune() {
            Some(slot) => Some(SimTime(self.base + slot as u64)),
            None => self.overflow.peek().map(|e| SimTime(e.at)),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    const MAX: SimTime = SimTime(u64::MAX);

    fn tagged(q: &mut TimingWheel, at: u64, seq: u64, log: &Rc<RefCell<Vec<u64>>>) -> EventId {
        let log = log.clone();
        q.push(
            SimTime(at),
            seq,
            Box::new(move || log.borrow_mut().push(seq)),
        )
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = TimingWheel::new();
        let log: Rc<RefCell<Vec<u64>>> = Rc::default();
        tagged(&mut q, 50, 0, &log);
        tagged(&mut q, 10, 1, &log);
        tagged(&mut q, 10, 2, &log);
        tagged(&mut q, 5, 3, &log);
        while let Some((_, a)) = q.pop_due(MAX) {
            a();
        }
        assert_eq!(*log.borrow(), vec![3, 1, 2, 0]);
    }

    #[test]
    fn far_events_overflow_and_promote() {
        let mut q = TimingWheel::new();
        let log: Rc<RefCell<Vec<u64>>> = Rc::default();
        // Far beyond the 65.5 µs window: must route via the overflow heap.
        tagged(&mut q, 10_000_000, 0, &log);
        tagged(&mut q, 9_000_000, 1, &log);
        tagged(&mut q, 100, 2, &log);
        let (at, a) = q.pop_due(MAX).unwrap();
        assert_eq!(at, SimTime(100));
        a();
        let (at, a) = q.pop_due(MAX).unwrap();
        assert_eq!(at, SimTime(9_000_000));
        a();
        let (at, a) = q.pop_due(MAX).unwrap();
        assert_eq!(at, SimTime(10_000_000));
        a();
        assert_eq!(*log.borrow(), vec![2, 1, 0]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn deadline_is_inclusive() {
        let mut q = TimingWheel::new();
        let log: Rc<RefCell<Vec<u64>>> = Rc::default();
        tagged(&mut q, 10, 0, &log);
        tagged(&mut q, 11, 1, &log);
        assert!(q.pop_due(SimTime(9)).is_none());
        let (at, a) = q.pop_due(SimTime(10)).unwrap();
        assert_eq!(at, SimTime(10));
        a();
        assert!(q.pop_due(SimTime(10)).is_none());
        assert_eq!(q.peek_time(), Some(SimTime(11)));
    }

    #[test]
    fn cancel_skips_event_and_invalidates_id() {
        let mut q = TimingWheel::new();
        let log: Rc<RefCell<Vec<u64>>> = Rc::default();
        let a = tagged(&mut q, 10, 0, &log);
        tagged(&mut q, 20, 1, &log);
        assert_eq!(q.len(), 2);
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double-cancel must fail");
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime(20)));
        let (at, act) = q.pop_due(MAX).unwrap();
        assert_eq!(at, SimTime(20));
        act();
        assert_eq!(*log.borrow(), vec![1]);
    }

    #[test]
    fn cancelled_overflow_event_is_skipped() {
        let mut q = TimingWheel::new();
        let log: Rc<RefCell<Vec<u64>>> = Rc::default();
        let far = tagged(&mut q, 1_000_000, 0, &log);
        tagged(&mut q, 2_000_000, 1, &log);
        assert!(q.cancel(far));
        let (at, a) = q.pop_due(MAX).unwrap();
        assert_eq!(at, SimTime(2_000_000));
        a();
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn slab_nodes_are_recycled() {
        let mut q = TimingWheel::new();
        let log: Rc<RefCell<Vec<u64>>> = Rc::default();
        for round in 0..10u64 {
            for i in 0..100u64 {
                tagged(&mut q, round * 1000 + i, round * 100 + i, &log);
            }
            while let Some((_, a)) = q.pop_due(MAX) {
                a();
            }
        }
        // 1000 events total, but the slab never needed more than one round's
        // worth of nodes.
        assert!(q.nodes.len() <= 100, "slab grew to {}", q.nodes.len());
        assert_eq!(log.borrow().len(), 1000);
    }

    #[test]
    fn stale_id_after_recycle_does_not_cancel() {
        let mut q = TimingWheel::new();
        let log: Rc<RefCell<Vec<u64>>> = Rc::default();
        let id = tagged(&mut q, 5, 0, &log);
        let (_, a) = q.pop_due(MAX).unwrap();
        a();
        // The node is recycled for a new event; the stale id must not hit it.
        tagged(&mut q, 10, 1, &log);
        assert!(!q.cancel(id));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn window_edge_and_overflow_events_interleave_in_time_then_seq_order() {
        let mut q = TimingWheel::new();
        let log: Rc<RefCell<Vec<u64>>> = Rc::default();
        // Slots 65_535 (last in the window) and 65_536 (first overflow
        // entry), duplicates on both sides, and one cancelled duplicate.
        let times = [70_000u64, 3, 70_000, 500, 3, 1_000_000, 0, 65_535, 65_536];
        let ids: Vec<EventId> = times
            .iter()
            .enumerate()
            .map(|(seq, &t)| tagged(&mut q, t, seq as u64, &log))
            .collect();
        assert!(q.cancel(ids[2]));
        let mut popped = Vec::new();
        while let Some(at) = q.peek_time() {
            let (t, a) = q.pop_due(MAX).unwrap();
            assert_eq!(t, at, "peek and pop must agree");
            popped.push(t.0);
            a();
        }
        assert_eq!(popped, [0, 3, 3, 500, 65_535, 65_536, 70_000, 1_000_000]);
        assert_eq!(*log.borrow(), [6, 1, 4, 3, 7, 8, 0, 5]);
    }
}
