//! Registered memory regions.
//!
//! Communication over InfiniBand requires buffers to be registered with the
//! HCA (pinned and entered into its translation tables). A registered
//! [`MemoryRegion`] here is a real byte buffer plus an `lkey`/`rkey` pair;
//! RDMA operations address remote memory by `rkey` + offset, exactly as the
//! verbs do (we use region-relative offsets in place of virtual addresses).
//! Keeping real bytes in the regions lets every layer above — the HPBD
//! protocol, the VM pager, the workloads — be checked for data integrity.
//!
//! An RDMA in flight holds a `Snapshot` of its source span, not a copy:
//! the bytes are copied once, at placement, straight from the source
//! region. Every write to a region first saves the old bytes of any
//! unplaced snapshot it overlaps, so what lands is always what the span
//! held when the snapshot was taken.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::ops::Range;
use std::rc::Rc;

struct MrInner {
    buf: RefCell<Vec<u8>>,
    /// The spans of the unplaced snapshots taken of this region.
    readers: RefCell<Vec<Reader>>,
    next_reader: Cell<u64>,
    lkey: u32,
    rkey: u32,
}

/// An unplaced [`Snapshot`]'s claim on its source span.
struct Reader {
    id: u64,
    span: Range<usize>,
    /// The span's bytes at the snapshot instant, saved by the first write
    /// over them; `None` while the region still holds them.
    saved: Option<Vec<u8>>,
}

/// A registered, RDMA-addressable buffer. Clones share the same storage.
#[derive(Clone)]
pub struct MemoryRegion {
    inner: Rc<MrInner>,
}

impl MemoryRegion {
    /// Create a region of `len` zeroed bytes with the given keys. Use
    /// [`crate::Hca::register`] rather than calling this directly.
    pub(crate) fn new(len: usize, lkey: u32, rkey: u32) -> MemoryRegion {
        MemoryRegion {
            inner: Rc::new(MrInner {
                buf: RefCell::new(vec![0; len]),
                readers: RefCell::new(Vec::new()),
                next_reader: Cell::new(0),
                lkey,
                rkey,
            }),
        }
    }

    /// Local key (identifies the region to the local HCA).
    pub fn lkey(&self) -> u32 {
        self.inner.lkey
    }

    /// Remote key (lets remote peers address this region with RDMA).
    pub fn rkey(&self) -> u32 {
        self.inner.rkey
    }

    /// Region length in bytes.
    pub fn len(&self) -> usize {
        self.inner.buf.borrow().len()
    }

    /// True if the region has zero length.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy bytes out of the region. Panics on out-of-bounds — callers must
    /// have validated the slice (the QP logic validates RDMA requests and
    /// turns violations into error completions before touching memory).
    pub fn read(&self, offset: usize, out: &mut [u8]) {
        let buf = self.inner.buf.borrow();
        out.copy_from_slice(&buf[offset..offset + out.len()]);
    }

    /// Take the snapshot a transfer carries while it is on the wire: the
    /// bytes of `offset..offset+len` as they are now, copied only when the
    /// snapshot is placed. Panics on out-of-bounds, as
    /// [`MemoryRegion::read`] does.
    pub(crate) fn snapshot(&self, offset: usize, len: usize) -> Snapshot {
        let span = offset..offset + len;
        assert!(
            span.end <= self.len(),
            "snapshot {offset}+{len} outside region of {} bytes",
            self.len()
        );
        let id = self.inner.next_reader.get();
        self.inner.next_reader.set(id + 1);
        self.inner.readers.borrow_mut().push(Reader {
            id,
            span: span.clone(),
            saved: None,
        });
        Snapshot {
            mr: self.clone(),
            id,
            span,
        }
    }

    /// Save the current bytes of every unplaced snapshot that `span`
    /// overlaps, before `span` of `buf` (this region's bytes) is written.
    fn save_readers(&self, buf: &[u8], span: &Range<usize>) {
        for r in self.inner.readers.borrow_mut().iter_mut() {
            if r.saved.is_none() && r.span.start < span.end && span.start < r.span.end {
                r.saved = Some(buf[r.span.clone()].to_vec());
            }
        }
    }

    /// Unregister snapshot `id`; its saved bytes, if it was written over.
    fn retire(&self, id: u64) -> Option<Vec<u8>> {
        let mut readers = self.inner.readers.borrow_mut();
        let i = readers.iter().position(|r| r.id == id)?;
        readers.swap_remove(i).saved
    }

    /// Run `f` over `offset..offset+len` of the region, to fill it in place.
    /// Panics on out-of-bounds.
    pub fn fill_with(&self, offset: usize, len: usize, f: impl FnOnce(&mut [u8])) {
        let span = offset..offset + len;
        let mut buf = self.inner.buf.borrow_mut();
        self.save_readers(&buf, &span);
        f(&mut buf[span]);
    }

    /// Run `f` over `offset..offset+len` of the region, to read it in place.
    /// Panics on out-of-bounds.
    pub fn read_with<R>(&self, offset: usize, len: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        f(&self.inner.buf.borrow()[offset..offset + len])
    }

    /// Copy `data` into the region at `offset`. Panics on out-of-bounds.
    pub fn write(&self, offset: usize, data: &[u8]) {
        self.fill_with(offset, data.len(), |span| span.copy_from_slice(data));
    }

    /// Read a copy of the whole region (tests / small control buffers).
    pub fn to_vec(&self) -> Vec<u8> {
        self.inner.buf.borrow().clone()
    }

    /// Whether `offset..offset+len` lies inside the region.
    pub fn contains(&self, offset: u64, len: u64) -> bool {
        offset
            .checked_add(len)
            .is_some_and(|end| end <= self.len() as u64)
    }

    /// A slice descriptor over this region.
    pub fn slice(&self, offset: u64, len: u64) -> MrSlice {
        assert!(
            self.contains(offset, len),
            "slice {offset}+{len} outside region of {} bytes",
            self.len()
        );
        MrSlice {
            mr: self.clone(),
            offset,
            len,
        }
    }

    /// Identity comparison: do two handles name the same registration?
    pub fn same_region(&self, other: &MemoryRegion) -> bool {
        Rc::ptr_eq(&self.inner, &other.inner)
    }

    /// Unplaced snapshots of this region, and how many of them have saved
    /// their bytes.
    #[cfg(test)]
    pub(crate) fn snapshot_counts(&self) -> (usize, usize) {
        let readers = self.inner.readers.borrow();
        let saved = readers.iter().filter(|r| r.saved.is_some()).count();
        (readers.len(), saved)
    }
}

impl fmt::Debug for MemoryRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoryRegion")
            .field("lkey", &self.inner.lkey)
            .field("rkey", &self.inner.rkey)
            .field("len", &self.len())
            .finish()
    }
}

/// A span of a region as it stood when an RDMA took it, held without a
/// copy (see [`MemoryRegion::snapshot`]). Dropping it unplaced — the RDMA
/// was refused — unregisters it.
pub(crate) struct Snapshot {
    mr: MemoryRegion,
    id: u64,
    span: Range<usize>,
}

impl Snapshot {
    /// Copy the snapshot into `dst` at `offset`: the transfer's one copy,
    /// from the source region, or from the bytes saved when the source was
    /// written over in flight. Panics on out-of-bounds.
    pub(crate) fn place(self, dst: &MemoryRegion, offset: usize) {
        if let Some(saved) = self.mr.retire(self.id) {
            dst.write(offset, &saved);
        } else if dst.same_region(&self.mr) {
            let mut buf = dst.inner.buf.borrow_mut();
            dst.save_readers(&buf, &(offset..offset + self.span.len()));
            buf.copy_within(self.span.clone(), offset);
        } else {
            dst.write(offset, &self.mr.inner.buf.borrow()[self.span.clone()]);
        }
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        self.mr.retire(self.id);
    }
}

/// A local scatter/gather element: a span of a registered region.
#[derive(Clone, Debug)]
pub struct MrSlice {
    /// The registered region.
    pub mr: MemoryRegion,
    /// Byte offset inside the region.
    pub offset: u64,
    /// Span length in bytes.
    pub len: u64,
}

/// A remote buffer descriptor carried in RDMA work requests: the peer's
/// rkey plus a region-relative offset (standing in for the remote VA).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RemoteSlice {
    /// Remote region key.
    pub rkey: u32,
    /// Byte offset inside the remote region.
    pub offset: u64,
    /// Span length in bytes.
    pub len: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mr = MemoryRegion::new(16, 1, 2);
        mr.write(4, &[9, 8, 7]);
        let mut out = [0u8; 3];
        mr.read(4, &mut out);
        assert_eq!(out, [9, 8, 7]);
    }

    #[test]
    fn clones_share_storage() {
        let a = MemoryRegion::new(8, 1, 2);
        let b = a.clone();
        a.write(0, &[5]);
        let mut out = [0u8; 1];
        b.read(0, &mut out);
        assert_eq!(out[0], 5);
        assert!(a.same_region(&b));
    }

    #[test]
    fn contains_checks_bounds() {
        let mr = MemoryRegion::new(100, 1, 2);
        assert!(mr.contains(0, 100));
        assert!(mr.contains(99, 1));
        assert!(!mr.contains(99, 2));
        assert!(!mr.contains(u64::MAX, 1)); // overflow-safe
    }

    #[test]
    #[should_panic(expected = "outside region")]
    fn slice_out_of_bounds_panics() {
        MemoryRegion::new(10, 1, 2).slice(8, 4);
    }

    /// A region of `len` bytes, each distinct from its neighbours.
    fn patterned(len: usize, seed: u8) -> MemoryRegion {
        let mr = MemoryRegion::new(len, 1, 2);
        mr.fill_with(0, len, |span| {
            for (i, b) in span.iter_mut().enumerate() {
                *b = (i as u8).wrapping_mul(31).wrapping_add(seed);
            }
        });
        mr
    }

    #[test]
    fn a_write_beside_a_snapshot_saves_nothing() {
        let src = patterned(64, 1);
        let dst = MemoryRegion::new(64, 3, 4);
        let snap = src.snapshot(16, 16);
        src.write(0, &[0xEE; 16]);
        src.fill_with(32, 32, |span| span.fill(0xEE));
        assert_eq!(src.snapshot_counts(), (1, 0));
        let want = src.to_vec()[16..32].to_vec();
        snap.place(&dst, 0);
        assert_eq!(dst.to_vec()[..16], want);
        assert_eq!(src.snapshot_counts(), (0, 0));
    }

    #[test]
    fn a_write_over_a_snapshot_saves_it_once() {
        let src = patterned(64, 1);
        let dst = MemoryRegion::new(64, 3, 4);
        let old = src.to_vec();
        let snap = src.snapshot(16, 16);
        src.write(24, &[0xEE; 16]);
        src.fill_with(16, 4, |span| span.fill(0xDD));
        assert_eq!(src.snapshot_counts(), (1, 1));
        snap.place(&dst, 8);
        assert_eq!(dst.to_vec()[8..24], old[16..32]);
        assert_eq!(src.snapshot_counts(), (0, 0));
    }

    #[test]
    fn placing_into_its_own_region_matches_an_eager_copy() {
        for (from, to) in [(0, 24), (24, 0), (8, 8), (0, 48)] {
            let mr = patterned(80, 7);
            let mut eager = mr.to_vec();
            let taken = eager[from..from + 32].to_vec();
            eager[to..to + 32].copy_from_slice(&taken);
            mr.snapshot(from, 32).place(&mr, to);
            assert_eq!(mr.to_vec(), eager, "{from} -> {to}");
        }
    }

    #[test]
    fn a_dropped_snapshot_unregisters() {
        let mr = patterned(16, 0);
        let snap = mr.snapshot(0, 8);
        assert_eq!(mr.snapshot_counts(), (1, 0));
        drop(snap);
        assert_eq!(mr.snapshot_counts(), (0, 0));
    }

    /// Random snapshots, writes, placements and drops over three small
    /// regions, against the eager model (a snapshot copies its bytes when
    /// taken): every region's bytes must match after every step.
    #[test]
    fn lazy_snapshots_match_eager_copies() {
        const LEN: u64 = 64;
        fn span(rng: &mut simcore::SimRng) -> (usize, usize) {
            let len = 1 + rng.below(LEN / 2);
            (rng.below(LEN - len + 1) as usize, len as usize)
        }
        for seed in 0..200 {
            let mut rng = simcore::SimRng::new(seed);
            let regions: Vec<_> = (0..3).map(|k| patterned(LEN as usize, k)).collect();
            let mut model: Vec<_> = regions.iter().map(MemoryRegion::to_vec).collect();
            let mut in_flight: Vec<(Snapshot, Vec<u8>)> = Vec::new();
            for step in 0..120 {
                let r = rng.below(3) as usize;
                match rng.below(5) {
                    0 | 1 => {
                        let (off, len) = span(&mut rng);
                        let eager = model[r][off..off + len].to_vec();
                        in_flight.push((regions[r].snapshot(off, len), eager));
                    }
                    2 => {
                        let (off, len) = span(&mut rng);
                        let byte = rng.below(256) as u8;
                        if rng.below(2) == 0 {
                            regions[r].write(off, &vec![byte; len]);
                        } else {
                            regions[r].fill_with(off, len, |s| s.fill(byte));
                        }
                        model[r][off..off + len].fill(byte);
                    }
                    3 if !in_flight.is_empty() => {
                        let i = rng.below(in_flight.len() as u64) as usize;
                        let (snap, eager) = in_flight.swap_remove(i);
                        let off = rng.below(LEN - eager.len() as u64 + 1) as usize;
                        snap.place(&regions[r], off);
                        model[r][off..off + eager.len()].copy_from_slice(&eager);
                    }
                    4 if !in_flight.is_empty() => {
                        let i = rng.below(in_flight.len() as u64) as usize;
                        in_flight.swap_remove(i);
                    }
                    _ => {}
                }
                for (k, mr) in regions.iter().enumerate() {
                    assert_eq!(mr.to_vec(), model[k], "seed {seed} step {step} region {k}");
                }
            }
            in_flight.clear();
            assert!(regions.iter().all(|mr| mr.snapshot_counts() == (0, 0)));
        }
    }
}
