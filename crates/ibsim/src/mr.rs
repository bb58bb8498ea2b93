//! Registered memory regions.
//!
//! Communication over InfiniBand requires buffers to be registered with the
//! HCA (pinned and entered into its translation tables). A registered
//! [`MemoryRegion`] here is a real byte buffer plus an `lkey`/`rkey` pair;
//! RDMA operations address remote memory by `rkey` + offset, exactly as the
//! verbs do (we use region-relative offsets in place of virtual addresses).
//! Keeping real bytes in the regions lets every layer above — the HPBD
//! protocol, the VM pager, the workloads — be checked for data integrity.
//! [`MemoryRegion::unregistered`] makes the same kind of buffer with no
//! keys, for memory no RDMA may reach (the HPBD server's page store).
//!
//! ## Lazy bytes
//!
//! A copy between regions stays a reference until its bytes are read. An
//! RDMA in flight holds a `Snapshot` of its source span: a *reader*
//! registered on the source region. Placing the snapshot records it
//! against the destination span as a *pending* placement instead of
//! copying, and a read of a span inside one pending reads the source's
//! bytes. Every write to a region first saves the old bytes of each
//! reader it overlaps, so a pending always yields what its source held at
//! the snapshot instant. The rules:
//!
//! * a snapshot of a span inside one pending registers on the pending's
//!   source (or lands the pending, if its source has saved its bytes), so
//!   chains of pendings never form;
//! * a write or fill that covers a pending drops it unread;
//! * anything partial — a write over part of a pending, a read or
//!   snapshot straddling several pendings or a pending and real bytes —
//!   first *lands* the pendings it touches: copies their bytes in;
//! * [`MemoryRegion::discard`] drops the pendings of a span its owner will
//!   write before it reads it again;
//! * a region that goes away lands every pending that still reads it.
//!
//! So an unsaved reader always covers real bytes of its region, and a
//! placement into the source's own region is copied at once. Pendings
//! never overlap and are kept by offset; readers are kept by start; both
//! lookups are range queries, because pendings live until their span is
//! reused.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::rc::{Rc, Weak};

/// A reader's key in its region: its span's start, then its id.
type ReaderKey = (usize, u64);

struct MrInner {
    buf: RefCell<Vec<u8>>,
    /// The snapshots taken of this region, in flight or pending elsewhere.
    readers: RefCell<BTreeMap<ReaderKey, Reader>>,
    /// The longest reader span yet: a reader overlapping `x..y` starts in
    /// `x - reach..y`.
    reach: Cell<usize>,
    /// The snapshots placed into this region and not yet read into `buf`,
    /// by destination offset.
    pendings: RefCell<BTreeMap<usize, Pending>>,
    next_reader: Cell<u64>,
    lkey: u32,
    rkey: u32,
}

/// A [`Snapshot`]'s claim on its source span, from the snapshot instant
/// until its bytes are read out or it is dropped.
struct Reader {
    end: usize,
    /// The span's bytes at the snapshot instant, saved by the first write
    /// over them; `None` while the region still holds them.
    saved: Option<Vec<u8>>,
    /// The region and offset it is pending at, once placed.
    placed: Option<(Weak<MrInner>, usize)>,
}

/// A placed snapshot: the destination span reads `key`'s reader in `src`.
struct Pending {
    len: usize,
    src: Weak<MrInner>,
    key: ReaderKey,
}

impl Pending {
    /// The source region, which lands every pending before it goes away.
    fn src(&self) -> Rc<MrInner> {
        let src = self.src.upgrade();
        src.unwrap_or_else(|| unreachable!("a pending outlived its source"))
    }
}

impl MrInner {
    fn new(len: usize, lkey: u32, rkey: u32) -> MrInner {
        MrInner {
            buf: RefCell::new(vec![0; len]),
            readers: RefCell::new(BTreeMap::new()),
            reach: Cell::new(0),
            pendings: RefCell::new(BTreeMap::new()),
            next_reader: Cell::new(0),
            lkey,
            rkey,
        }
    }

    /// The last pending overlapping `span`, as `(offset, len)`: the last
    /// one starting before its end, if that one reaches into it (pendings
    /// never overlap, so no earlier one can).
    fn pending_in(&self, span: &Range<usize>) -> Option<(usize, usize)> {
        if span.is_empty() {
            return None;
        }
        let pendings = self.pendings.borrow();
        let (&at, p) = pendings.range(..span.end).next_back()?;
        (at + p.len > span.start).then_some((at, p.len))
    }

    /// The pending that alone holds all of `span`, if one does: its
    /// offset, its source and its reader there.
    fn pending_holding(&self, span: &Range<usize>) -> Option<(usize, Rc<MrInner>, ReaderKey)> {
        let pendings = self.pendings.borrow();
        let (&at, p) = pendings.range(..span.end).next_back()?;
        (at <= span.start && span.end <= at + p.len).then(|| (at, p.src(), p.key))
    }

    /// Run `f` over the bytes reader `key` took: saved, or still in `buf`.
    fn with_reader<R>(&self, key: ReaderKey, f: impl FnOnce(&[u8]) -> R) -> R {
        let readers = self.readers.borrow();
        let reader = &readers[&key];
        match &reader.saved {
            Some(saved) => f(saved),
            None => f(&self.buf.borrow()[key.0..reader.end]),
        }
    }

    /// Take every pending overlapping `span` out of the table and retire
    /// its reader: land (copy into `buf`) those reaching past the span, and
    /// those inside it too when `land_inside`; drop the rest unread.
    fn take_pendings(&self, span: &Range<usize>, land_inside: bool) {
        while let Some((at, len)) = self.pending_in(span) {
            let inside = span.start <= at && at + len <= span.end;
            let pending = self.pendings.borrow_mut().remove(&at);
            let pending = pending.unwrap_or_else(|| unreachable!("no pending at {at}"));
            let src = pending.src();
            if land_inside || !inside {
                let dst = &mut self.buf.borrow_mut()[at..at + len];
                src.with_reader(pending.key, |bytes| dst.copy_from_slice(bytes));
            }
            src.readers.borrow_mut().remove(&pending.key);
        }
    }

    /// Ready `span` to be written: drop or land its pendings, then save the
    /// bytes of every unsaved reader it overlaps.
    fn before_write(&self, span: &Range<usize>) {
        self.take_pendings(span, false);
        let buf = self.buf.borrow();
        let from = span.start.saturating_sub(self.reach.get());
        let mut readers = self.readers.borrow_mut();
        for (&(start, _), r) in readers.range_mut((from, 0)..(span.end, 0)) {
            if r.saved.is_none() && r.end > span.start {
                r.saved = Some(buf[start..r.end].to_vec());
            }
        }
    }
}

impl Drop for MrInner {
    fn drop(&mut self) {
        let MrInner {
            buf,
            readers,
            pendings,
            ..
        } = self;
        let buf = buf.get_mut();
        // Every pending that still reads this region lands first.
        for ((start, _), r) in std::mem::take(readers.get_mut()) {
            let Some((dst, at)) = r.placed else { continue };
            let Some(dst) = dst.upgrade() else { continue };
            dst.pendings.borrow_mut().remove(&at);
            let bytes = r.saved.as_deref().unwrap_or(&buf[start..r.end]);
            dst.buf.borrow_mut()[at..at + bytes.len()].copy_from_slice(bytes);
        }
        // The pendings placed here stop reading their sources.
        for pending in std::mem::take(pendings.get_mut()).into_values() {
            if let Some(src) = pending.src.upgrade() {
                src.readers.borrow_mut().remove(&pending.key);
            }
        }
    }
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
            inner: Rc::new(MrInner::new(len, lkey, rkey)),
        }
    }

    /// A region of `len` zeroed bytes that no HCA knows: its keys are 0,
    /// which no registration hands out, so no RDMA can reach it. Copies
    /// into and out of it follow the same rules as for registered regions.
    pub fn unregistered(len: usize) -> MemoryRegion {
        MemoryRegion::new(len, 0, 0)
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

    /// `offset..offset+len`, which must lie inside the region.
    fn span(&self, offset: usize, len: usize) -> Range<usize> {
        assert!(
            offset + len <= self.len(),
            "span {offset}+{len} outside region of {} bytes",
            self.len()
        );
        offset..offset + len
    }

    /// Copy bytes out of the region. Panics on out-of-bounds — callers must
    /// have validated the slice (the QP logic validates RDMA requests and
    /// turns violations into error completions before touching memory).
    pub fn read(&self, offset: usize, out: &mut [u8]) {
        self.read_with(offset, out.len(), |span| out.copy_from_slice(span));
    }

    /// Take the snapshot a transfer carries while it is on the wire: the
    /// bytes of `offset..offset+len` as they are now, copied only when they
    /// are read. Panics on out-of-bounds, as [`MemoryRegion::read`] does.
    pub(crate) fn snapshot(&self, offset: usize, len: usize) -> Snapshot {
        let span = self.span(offset, len);
        if let Some((at, src, key)) = self.inner.pending_holding(&span) {
            if src.readers.borrow()[&key].saved.is_none() {
                let start = key.0 + offset - at;
                return Snapshot::register(MemoryRegion { inner: src }, start..start + len);
            }
        }
        self.inner.take_pendings(&span, true);
        Snapshot::register(self.clone(), span)
    }

    /// Run `f` over `offset..offset+len` of the region, to fill it in place.
    /// `f` must write every byte: a pending placement the span covers is
    /// dropped unread, so `f` may see stale bytes. Panics on out-of-bounds.
    pub fn fill_with(&self, offset: usize, len: usize, f: impl FnOnce(&mut [u8])) {
        let span = self.span(offset, len);
        self.inner.before_write(&span);
        f(&mut self.inner.buf.borrow_mut()[span]);
    }

    /// Run `f` over `offset..offset+len` of the region, to read it in place:
    /// the source bytes of a pending placement that holds the whole span,
    /// else the region's own. `f` must not write a region. Panics on
    /// out-of-bounds.
    pub fn read_with<R>(&self, offset: usize, len: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        let span = self.span(offset, len);
        if let Some((at, src, key)) = self.inner.pending_holding(&span) {
            let skip = offset - at;
            return src.with_reader(key, |bytes| f(&bytes[skip..skip + len]));
        }
        self.inner.take_pendings(&span, true);
        f(&self.inner.buf.borrow()[span])
    }

    /// Copy `data` into the region at `offset`. Panics on out-of-bounds.
    pub fn write(&self, offset: usize, data: &[u8]) {
        self.fill_with(offset, data.len(), |span| span.copy_from_slice(data));
    }

    /// Copy `len` bytes of `src` at `offset` into this region at `at`, now.
    /// Panics on out-of-bounds.
    pub fn copy_from(&self, at: usize, src: &MemoryRegion, offset: usize, len: usize) {
        src.snapshot(offset, len).copy_into(self, at);
    }

    /// Place `len` bytes of `src` at `offset` into this region at `at`: they
    /// read as they are now, and are copied only when read. Panics on
    /// out-of-bounds.
    pub fn place_from(&self, at: usize, src: &MemoryRegion, offset: usize, len: usize) {
        src.snapshot(offset, len).place(self, at);
    }

    /// Drop the pending placements inside `offset..offset+len` unread, for
    /// a span whose owner writes it before it reads it again; its bytes
    /// are stale until then. A pending reaching past the span lands.
    /// Panics on out-of-bounds.
    pub fn discard(&self, offset: usize, len: usize) {
        let span = self.span(offset, len);
        self.inner.take_pendings(&span, false);
    }

    /// Read a copy of the whole region (tests / small control buffers).
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = self.inner.buf.borrow().clone();
        for (&at, p) in self.inner.pendings.borrow().iter() {
            let dst = &mut out[at..at + p.len];
            p.src()
                .with_reader(p.key, |bytes| dst.copy_from_slice(bytes));
        }
        out
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
        let unplaced = readers.values().filter(|r| r.placed.is_none());
        let saved = unplaced.clone().filter(|r| r.saved.is_some()).count();
        (unplaced.count(), saved)
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
    key: ReaderKey,
    len: usize,
    /// Placed: its reader belongs to the pending now.
    placed: bool,
}

impl Snapshot {
    /// Register a reader of `span`, which holds real bytes, on `mr`.
    fn register(mr: MemoryRegion, span: Range<usize>) -> Snapshot {
        let inner = &mr.inner;
        debug_assert!(inner.pending_in(&span).is_none(), "a reader over a pending");
        let id = inner.next_reader.get();
        inner.next_reader.set(id + 1);
        inner.reach.set(inner.reach.get().max(span.len()));
        let reader = Reader {
            end: span.end,
            saved: None,
            placed: None,
        };
        inner.readers.borrow_mut().insert((span.start, id), reader);
        Snapshot {
            key: (span.start, id),
            len: span.len(),
            mr,
            placed: false,
        }
    }

    /// Place the snapshot into `dst` at `offset`: record it as pending
    /// there, to be read from the source region, or from the bytes saved
    /// when the source was written over in flight. A placement into the
    /// source's own region is copied at once. Panics on out-of-bounds.
    pub(crate) fn place(mut self, dst: &MemoryRegion, offset: usize) {
        if self.len == 0 || dst.same_region(&self.mr) {
            return self.copy_into(dst, offset);
        }
        let span = dst.span(offset, self.len);
        dst.inner.before_write(&span);
        let mut readers = self.mr.inner.readers.borrow_mut();
        let reader = readers.get_mut(&self.key);
        let reader = reader.unwrap_or_else(|| unreachable!("a snapshot lost its reader"));
        reader.placed = Some((Rc::downgrade(&dst.inner), offset));
        drop(readers);
        let pending = Pending {
            len: self.len,
            src: Rc::downgrade(&self.mr.inner),
            key: self.key,
        };
        debug_assert!(dst.inner.pending_in(&span).is_none(), "pendings overlap");
        dst.inner.pendings.borrow_mut().insert(offset, pending);
        self.placed = true;
    }

    /// Copy the snapshot into `dst` at `offset` now, from the source region
    /// or from its saved bytes. Panics on out-of-bounds.
    fn copy_into(self, dst: &MemoryRegion, offset: usize) {
        let span = dst.span(offset, self.len);
        dst.inner.before_write(&span);
        let src = &self.mr.inner;
        if dst.same_region(&self.mr) && src.readers.borrow()[&self.key].saved.is_none() {
            // Unsaved, so the write above did not overlap the source span.
            let from = self.key.0..self.key.0 + self.len;
            dst.inner.buf.borrow_mut().copy_within(from, offset);
        } else {
            let mut buf = dst.inner.buf.borrow_mut();
            src.with_reader(self.key, |bytes| buf[span].copy_from_slice(bytes));
        }
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        if !self.placed {
            self.mr.inner.readers.borrow_mut().remove(&self.key);
        }
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

    /// A region's pending placements, as spans, by offset.
    fn pending_spans(mr: &MemoryRegion) -> Vec<Range<usize>> {
        let pendings = mr.inner.pendings.borrow();
        pendings.iter().map(|(&at, p)| at..at + p.len).collect()
    }

    /// Every reader (in flight or placed) and every pending of a region.
    fn lazy_counts(mr: &MemoryRegion) -> (usize, usize) {
        let readers = mr.inner.readers.borrow().len();
        (readers, mr.inner.pendings.borrow().len())
    }

    #[test]
    fn a_placed_snapshot_reads_its_source_until_the_source_is_written() {
        let src = patterned(64, 1);
        let dst = MemoryRegion::new(64, 3, 4);
        let old = src.to_vec();
        dst.place_from(8, &src, 16, 32);
        assert_eq!(lazy_counts(&dst), (0, 1), "placed, not copied");
        assert_eq!(dst.read_with(8, 32, <[u8]>::to_vec), old[16..48]);
        src.write(20, &[0xEE; 4]);
        assert_eq!(src.snapshot_counts(), (0, 0), "no reader in flight");
        assert_eq!(dst.read_with(12, 8, <[u8]>::to_vec), old[20..28]);
        dst.write(8, &[0xDD; 32]);
        assert_eq!((lazy_counts(&src), lazy_counts(&dst)), ((0, 0), (0, 0)));
    }

    #[test]
    fn a_snapshot_of_a_placed_span_reads_the_placements_source() {
        let (store, staging, pool) = (patterned(64, 1), patterned(64, 2), patterned(64, 3));
        let old = store.to_vec();
        staging.place_from(0, &store, 32, 16);
        staging.snapshot(4, 8).place(&pool, 40);
        assert_eq!(lazy_counts(&store), (2, 0));
        assert_eq!(lazy_counts(&staging), (0, 1), "no chain through staging");
        staging.discard(0, 16);
        assert_eq!(pool.read_with(40, 8, <[u8]>::to_vec), old[36..44]);
        assert_eq!(lazy_counts(&store), (1, 0));
    }

    #[test]
    fn a_dropped_source_lands_its_placements_first() {
        let (a, b) = (patterned(64, 1), patterned(64, 2));
        let (old_a, old_b) = (a.to_vec(), b.to_vec());
        b.place_from(0, &a, 0, 32);
        a.place_from(32, &b, 32, 32);
        let freed = Rc::downgrade(&a.inner);
        drop(a);
        assert!(freed.upgrade().is_none(), "a cycle of placements leaks");
        assert_eq!(b.to_vec()[..32], old_a[..32]);
        assert_eq!(b.to_vec()[32..], old_b[32..]);
        assert_eq!(lazy_counts(&b), (0, 0));
    }

    #[test]
    fn an_unregistered_region_has_no_keys() {
        let store = MemoryRegion::unregistered(16);
        assert_eq!((store.lkey(), store.rkey(), store.len()), (0, 0, 16));
    }

    /// Random snapshots, placements, copies, reads, writes, discards and
    /// drops over three small registered regions and an unregistered one,
    /// against the eager model (a snapshot copies its bytes when taken, a
    /// placement copies them in): every region's bytes must match after
    /// every step. Reads go through pendings whole, inside one, and
    /// straddling two; writes cover pendings fully and partly. A discarded
    /// span's bytes are its owner's to write next, so the model adopts them.
    /// At the end a dropped region must free itself, and once everything
    /// is dropped or discarded no reader or pending may remain.
    #[test]
    fn lazy_snapshots_match_eager_copies() {
        const LEN: u64 = 64;
        fn span(rng: &mut simcore::SimRng) -> Range<usize> {
            let len = 1 + rng.below(LEN / 2);
            let off = rng.below(LEN - len + 1);
            off as usize..(off + len) as usize
        }
        /// A span over `mr`'s pendings, if it has any: one whole, one part
        /// of one, or one straddling two neighbours; else a random one.
        fn placed_span(rng: &mut simcore::SimRng, mr: &MemoryRegion) -> Range<usize> {
            let spans = pending_spans(mr);
            if spans.is_empty() {
                return span(rng);
            }
            let i = rng.below(spans.len() as u64) as usize;
            let p = spans[i].clone();
            let inside = |rng: &mut simcore::SimRng| {
                let start = p.start + rng.below(p.len() as u64) as usize;
                start..start + 1 + rng.below((p.end - start) as u64) as usize
            };
            match rng.below(3) {
                0 => p,
                1 => inside(rng),
                _ => match spans.get(i + 1) {
                    Some(q) => p.start + p.len() / 2..q.start + 1 + q.len() / 2,
                    None => inside(rng),
                },
            }
        }
        for seed in 0..200 {
            let mut rng = simcore::SimRng::new(seed);
            let mut regions: Vec<_> = (0..3).map(|k| patterned(LEN as usize, k)).collect();
            let store = MemoryRegion::unregistered(LEN as usize);
            store.write(0, &patterned(LEN as usize, 3).to_vec());
            regions.push(store);
            let mut model: Vec<_> = regions.iter().map(MemoryRegion::to_vec).collect();
            let mut in_flight: Vec<(Snapshot, Vec<u8>)> = Vec::new();
            for step in 0..150 {
                let r = rng.below(4) as usize;
                let s = match rng.below(2) {
                    0 => span(&mut rng),
                    _ => placed_span(&mut rng, &regions[r]),
                };
                let (off, len) = (s.start, s.len());
                match rng.below(8) {
                    0 | 1 => {
                        let eager = model[r][s.clone()].to_vec();
                        in_flight.push((regions[r].snapshot(off, len), eager));
                    }
                    2 => {
                        let byte = rng.below(256) as u8;
                        if rng.below(2) == 0 {
                            regions[r].write(off, &vec![byte; len]);
                        } else {
                            regions[r].fill_with(off, len, |s| s.fill(byte));
                        }
                        model[r][s].fill(byte);
                    }
                    3 if !in_flight.is_empty() => {
                        let i = rng.below(in_flight.len() as u64) as usize;
                        let (snap, eager) = in_flight.swap_remove(i);
                        let at = rng.below(LEN - eager.len() as u64 + 1) as usize;
                        snap.place(&regions[r], at);
                        model[r][at..at + eager.len()].copy_from_slice(&eager);
                    }
                    4 if !in_flight.is_empty() => {
                        let i = rng.below(in_flight.len() as u64) as usize;
                        in_flight.swap_remove(i);
                    }
                    5 => {
                        let mut out = vec![0; len];
                        if rng.below(2) == 0 {
                            regions[r].read(off, &mut out);
                        } else {
                            regions[r].read_with(off, len, |b| out.copy_from_slice(b));
                        }
                        assert_eq!(out, model[r][s], "seed {seed} step {step} read");
                    }
                    6 => {
                        let d = rng.below(4) as usize;
                        let at = rng.below(LEN - len as u64 + 1) as usize;
                        if rng.below(2) == 0 {
                            regions[d].place_from(at, &regions[r], off, len);
                        } else {
                            regions[d].copy_from(at, &regions[r], off, len);
                        }
                        let eager = model[r][s].to_vec();
                        model[d][at..at + len].copy_from_slice(&eager);
                    }
                    7 => {
                        regions[r].discard(off, len);
                        model[r][s.clone()].copy_from_slice(&regions[r].to_vec()[s]);
                    }
                    _ => {}
                }
                for (k, mr) in regions.iter().enumerate() {
                    assert_eq!(mr.to_vec(), model[k], "seed {seed} step {step} region {k}");
                }
            }
            for (snap, eager) in in_flight.drain(..) {
                snap.place(&regions[0], 0);
                model[0][..eager.len()].copy_from_slice(&eager);
            }
            let gone = rng.below(4) as usize;
            let freed = Rc::downgrade(&regions.remove(gone).inner);
            model.remove(gone);
            assert!(
                freed.upgrade().is_none(),
                "seed {seed}: region {gone} leaked"
            );
            for (k, mr) in regions.iter().enumerate() {
                assert_eq!(mr.to_vec(), model[k], "seed {seed} after the drop");
                mr.discard(0, LEN as usize);
            }
            for mr in &regions {
                assert_eq!(lazy_counts(mr), (0, 0), "seed {seed}");
            }
        }
    }
}
