//! The pre-registered buffer pool (paper §4.2.2).
//!
//! Registering memory with the HCA is far costlier than copying a swap
//! request's worth of data (Figure 3), so HPBD registers one pool at device
//! load time and copies pages through it. The allocator is first-fit over a
//! sorted free list; deallocation merges with free neighbours so external
//! fragmentation cannot force multi-copy requests ("a merging algorithm is
//! used at buffer deallocation time... ensures contiguous buffer allocation
//! for page requests. Its simplicity incurs little overhead").
//!
//! Allocation failure must not fail the swap request — that could crash the
//! machine — so the [`SimBufferPool`] queues the request instead (the
//! kernel driver's wait queue): a continuation fired on deallocation.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;

/// A span allocated from the pool: offset into the registered region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolBuf {
    /// Byte offset inside the pool region.
    pub offset: u64,
    /// Span length.
    pub len: u64,
}

/// Pure first-fit allocator with merge-on-free. No interior mutability —
/// wrap it for sharing.
///
/// `alloc` scans the sorted free list for the first extent that fits.
/// `free` locates its insertion point (and therefore both merge
/// neighbours) with `partition_point` by offset, then merges in place with
/// at most one list mutation.
#[derive(Clone, Debug)]
pub struct PoolAllocator {
    size: u64,
    /// Free extents, sorted by offset, always coalesced.
    free: Vec<(u64, u64)>,
    free_bytes: u64,
}

impl PoolAllocator {
    /// An allocator over `size` bytes, all free.
    pub fn new(size: u64) -> PoolAllocator {
        assert!(size > 0, "empty pool");
        PoolAllocator {
            size,
            free: vec![(0, size)],
            free_bytes: size,
        }
    }

    /// Debug-build validation after every mutating op.
    #[inline]
    fn debug_check(&self) {
        #[cfg(debug_assertions)]
        self.check_invariants();
    }

    /// Pool capacity.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Bytes currently free (possibly fragmented).
    pub fn free_bytes(&self) -> u64 {
        self.free_bytes
    }

    /// Number of free extents (1 when fully coalesced and nothing is
    /// allocated in the middle).
    pub fn fragments(&self) -> usize {
        self.free.len()
    }

    /// First-fit allocation. Returns `None` if no single free extent is
    /// large enough (even if the total free bytes would suffice — requests
    /// need contiguous registered memory).
    pub fn alloc(&mut self, len: u64) -> Option<PoolBuf> {
        assert!(len > 0, "zero-length pool allocation");
        let idx = self.free.iter().position(|&(_, l)| l >= len)?;
        let (off, flen) = self.free[idx];
        if flen == len {
            self.free.remove(idx);
        } else {
            self.free[idx] = (off + len, flen - len);
        }
        self.free_bytes -= len;
        self.debug_check();
        Some(PoolBuf { offset: off, len })
    }

    /// Return a span, merging with adjacent free extents.
    ///
    /// # Panics
    /// Panics if the span overlaps a free extent (double free) or exceeds
    /// the pool.
    pub fn free(&mut self, buf: PoolBuf) {
        assert!(buf.len > 0 && buf.offset + buf.len <= self.size, "bad free");
        // Both merge neighbours fall out of one binary search by offset.
        let idx = self.free.partition_point(|&(off, _)| off < buf.offset);
        // Overlap checks against neighbours, then decide both merges up
        // front so the list is mutated at most once (no insert-then-remove).
        let merge_left = idx > 0 && {
            let (poff, plen) = self.free[idx - 1];
            assert!(poff + plen <= buf.offset, "double free (left overlap)");
            poff + plen == buf.offset
        };
        let merge_right = idx < self.free.len() && {
            let (noff, _) = self.free[idx];
            assert!(buf.offset + buf.len <= noff, "double free (right overlap)");
            buf.offset + buf.len == noff
        };
        match (merge_left, merge_right) {
            (true, true) => {
                // Bridge: left extent absorbs the span and the right extent.
                let (_, nlen) = self.free[idx];
                self.free[idx - 1].1 += buf.len + nlen;
                self.free.remove(idx);
            }
            (true, false) => self.free[idx - 1].1 += buf.len,
            (false, true) => {
                let (_, nlen) = self.free[idx];
                self.free[idx] = (buf.offset, buf.len + nlen);
            }
            (false, false) => self.free.insert(idx, (buf.offset, buf.len)),
        }
        self.free_bytes += buf.len;
        self.debug_check();
    }

    /// Validate internal invariants (used by property tests and, in debug
    /// builds, after every op): sorted, non-overlapping, coalesced and
    /// accounted.
    pub fn check_invariants(&self) {
        let mut total = 0;
        let mut prev_end: Option<u64> = None;
        for &(off, len) in &self.free {
            assert!(len > 0, "empty free extent");
            assert!(off + len <= self.size, "extent beyond pool");
            if let Some(pe) = prev_end {
                assert!(off > pe, "unsorted or overlapping free list");
                assert!(off != pe, "uncoalesced neighbours");
            }
            prev_end = Some(off + len);
            total += len;
        }
        assert_eq!(total, self.free_bytes, "free byte accounting");
    }
}

type AllocCallback = Box<dyn FnOnce(PoolBuf)>;

/// Event-based pool for the simulation: allocation failure queues a
/// continuation served FIFO as deallocations create space — the paper's
/// "memory allocation wait queue".
pub struct SimBufferPool {
    inner: RefCell<PoolAllocator>,
    waiters: RefCell<VecDeque<(u64, AllocCallback)>>,
}

impl SimBufferPool {
    /// A pool over `size` bytes.
    pub fn new(size: u64) -> SimBufferPool {
        SimBufferPool {
            inner: RefCell::new(PoolAllocator::new(size)),
            waiters: RefCell::new(VecDeque::new()),
        }
    }

    /// Allocate `len` bytes; `ready` is invoked immediately if space is
    /// available, otherwise when deallocations make the head of the wait
    /// queue satisfiable. FIFO order prevents starvation of large requests.
    pub fn alloc(&self, len: u64, ready: impl FnOnce(PoolBuf) + 'static) {
        assert!(
            len <= self.inner.borrow().size(),
            "request of {len} bytes exceeds pool of {} bytes",
            self.inner.borrow().size()
        );
        let satisfiable_now = self.waiters.borrow().is_empty();
        if satisfiable_now {
            // Bound first: `ready` may free a span, which borrows `inner`.
            let granted = self.inner.borrow_mut().alloc(len);
            if let Some(buf) = granted {
                ready(buf);
                return;
            }
        }
        self.waiters.borrow_mut().push_back((len, Box::new(ready)));
    }

    /// Free a span; serves queued waiters in FIFO order while they fit.
    pub fn free(&self, buf: PoolBuf) {
        self.inner.borrow_mut().free(buf);
        loop {
            let grant = {
                let waiters = self.waiters.borrow();
                match waiters.front() {
                    Some(&(len, _)) => self.inner.borrow_mut().alloc(len),
                    None => None,
                }
            };
            match grant {
                Some(buf) => {
                    let (_, cb) = self.waiters.borrow_mut().pop_front().expect("non-empty");
                    cb(buf);
                }
                None => break,
            }
        }
    }

    /// Bytes currently free.
    pub fn free_bytes(&self) -> u64 {
        self.inner.borrow().free_bytes()
    }

    /// Waiters queued for space.
    pub fn queued_waiters(&self) -> usize {
        self.waiters.borrow().len()
    }
}

impl fmt::Debug for SimBufferPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimBufferPool")
            .field("free_bytes", &self.free_bytes())
            .field("waiters", &self.queued_waiters())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    #[test]
    fn first_fit_takes_earliest_block() {
        let mut p = PoolAllocator::new(1024);
        let a = p.alloc(100).unwrap();
        let b = p.alloc(100).unwrap();
        assert_eq!(a.offset, 0);
        assert_eq!(b.offset, 100);
        p.free(a);
        // First fit reuses the hole at 0 even though the tail is larger.
        let c = p.alloc(50).unwrap();
        assert_eq!(c.offset, 0);
        p.check_invariants();
    }

    #[test]
    fn merge_on_free_restores_contiguity() {
        let mut p = PoolAllocator::new(300);
        let a = p.alloc(100).unwrap();
        let b = p.alloc(100).unwrap();
        let c = p.alloc(100).unwrap();
        assert!(p.alloc(1).is_none());
        // Free out of order: a, c, then b — must coalesce into one extent.
        p.free(a);
        p.free(c);
        assert_eq!(p.fragments(), 2);
        p.free(b);
        assert_eq!(p.fragments(), 1);
        assert_eq!(p.free_bytes(), 300);
        assert_eq!(p.alloc(300).unwrap().offset, 0);
        p.check_invariants();
    }

    #[test]
    fn fragmentation_blocks_large_contiguous_request() {
        let mut p = PoolAllocator::new(300);
        let a = p.alloc(100).unwrap();
        let _b = p.alloc(100).unwrap();
        let c = p.alloc(100).unwrap();
        p.free(a);
        p.free(c);
        // 200 bytes free but not contiguous.
        assert_eq!(p.free_bytes(), 200);
        assert!(p.alloc(150).is_none());
        assert!(p.alloc(100).is_some());
        p.check_invariants();
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_detected() {
        let mut p = PoolAllocator::new(100);
        let a = p.alloc(50).unwrap();
        p.free(a);
        p.free(a);
    }

    #[test]
    fn sim_pool_queues_and_serves_fifo() {
        let p = SimBufferPool::new(100);
        let served: Rc<RefCell<Vec<&'static str>>> = Rc::default();
        let hold = Rc::new(Cell::new(None));
        {
            let hold = hold.clone();
            let served = served.clone();
            p.alloc(100, move |b| {
                served.borrow_mut().push("first");
                hold.set(Some(b));
            });
        }
        // These two must queue: pool is full.
        for name in ["second", "third"] {
            let served = served.clone();
            p.alloc(60, move |_| served.borrow_mut().push(name));
        }
        assert_eq!(p.queued_waiters(), 2);
        assert_eq!(*served.borrow(), vec!["first"]);
        // Freeing serves "second" (60 fits) but not "third" (only 40 left).
        p.free(hold.take().unwrap());
        assert_eq!(*served.borrow(), vec!["first", "second"]);
        assert_eq!(p.queued_waiters(), 1);
    }

    #[test]
    fn sim_pool_head_of_line_blocks_smaller_requests() {
        // FIFO strictness: a large queued request is not starved by later
        // small ones.
        let p = SimBufferPool::new(100);
        let hold = Rc::new(Cell::new(None));
        {
            let hold = hold.clone();
            p.alloc(80, move |b| hold.set(Some(b)));
        }
        let order: Rc<RefCell<Vec<&'static str>>> = Rc::default();
        {
            let order = order.clone();
            p.alloc(90, move |_| order.borrow_mut().push("large"));
        }
        {
            let order = order.clone();
            p.alloc(10, move |_| order.borrow_mut().push("small"));
        }
        // 20 bytes are free and "small" would fit, but "large" is queued
        // ahead of it.
        assert_eq!(order.borrow().len(), 0);
        p.free(hold.take().unwrap());
        assert_eq!(*order.borrow(), vec!["large", "small"]);
    }

    #[test]
    #[should_panic(expected = "exceeds pool")]
    fn sim_pool_rejects_oversized_request() {
        let p = SimBufferPool::new(64);
        p.alloc(65, |_| {});
    }
}
