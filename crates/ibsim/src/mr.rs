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
//! ## Shared pages
//!
//! A region's bytes are a row of 4 KiB pages, each behind an `Rc` that
//! copies may share; a fresh region shares one zeroed page. A snapshot —
//! what an RDMA carries on the wire, or the source of
//! [`MemoryRegion::copy_from`] — clones the handles of the pages its span
//! touches. Landing it hands a destination page the source's page when the
//! piece covers the whole destination page from a page boundary of the
//! source, and copies every other piece. A write copies a page first only
//! when someone else still holds it (`Rc::make_mut`), and a shared page it
//! covers whole is replaced by a fresh one instead. So a copy yields what
//! its source held when it was taken: that is `Rc`'s aliasing, with no
//! bookkeeping beside it.

use std::cell::RefCell;
use std::fmt;
use std::ops::Range;
use std::rc::Rc;

/// Bytes per page.
const PAGE: usize = 4096;

type Page = Rc<[u8; PAGE]>;

struct MrInner {
    pages: RefCell<Vec<Page>>,
    len: usize,
    lkey: u32,
    rkey: u32,
}

/// The pieces of byte span `span` of a row of pages, split at page
/// boundaries: each as its page, its bytes in that page, and its position
/// in the span.
fn pieces(span: Range<usize>) -> impl Iterator<Item = (usize, Range<usize>, usize)> {
    let mut at = span.start;
    std::iter::from_fn(move || {
        (at < span.end).then(|| {
            let page = at / PAGE;
            let piece = at % PAGE..(span.end - page * PAGE).min(PAGE);
            let pos = at - span.start;
            at = page * PAGE + piece.end;
            (page, piece, pos)
        })
    })
}

/// `piece` of `page`, to be written whole: a shared page the piece covers
/// whole is replaced by a fresh one, any other shared page is copied first.
fn writable(page: &mut Page, piece: Range<usize>) -> &mut [u8] {
    if piece.len() == PAGE && Rc::get_mut(page).is_none() {
        *page = Rc::new([0; PAGE]);
    }
    &mut Rc::make_mut(page)[piece]
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
        let zero = Rc::new([0; PAGE]);
        MemoryRegion {
            inner: Rc::new(MrInner {
                pages: RefCell::new(vec![zero; len.div_ceil(PAGE)]),
                len,
                lkey,
                rkey,
            }),
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
        self.inner.len
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
        self.read_chunks(offset, out.len(), |pos, piece| {
            out[pos..pos + piece.len()].copy_from_slice(piece)
        });
    }

    /// Run `f` over `offset..offset+len` of the region page by page, to
    /// read it in place: `f(position in the span, piece)`. `f` must not
    /// write this region. Panics on out-of-bounds.
    pub fn read_chunks(&self, offset: usize, len: usize, mut f: impl FnMut(usize, &[u8])) {
        let span = self.span(offset, len);
        let pages = self.inner.pages.borrow();
        for (page, piece, pos) in pieces(span) {
            f(pos, &pages[page][piece]);
        }
    }

    /// Run `f` over `offset..offset+len` of the region as one slice, to
    /// read it in place; a span that straddles a page is copied out first.
    /// `f` must not write this region. Panics on out-of-bounds.
    pub fn read_with<R>(&self, offset: usize, len: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        let at = self.span(offset, len).start % PAGE;
        if at + len <= PAGE {
            if let Some(page) = self.inner.pages.borrow().get(offset / PAGE) {
                return f(&page[at..at + len]);
            }
        }
        let mut out = vec![0; len];
        self.read(offset, &mut out);
        f(&out)
    }

    /// Take the snapshot a transfer carries while it is on the wire: the
    /// bytes of `offset..offset+len` as they are now, held as references to
    /// their pages. Panics on out-of-bounds, as [`MemoryRegion::read`] does.
    pub(crate) fn snapshot(&self, offset: usize, len: usize) -> Snapshot {
        let span = self.span(offset, len);
        let pages = offset / PAGE..span.end.div_ceil(PAGE);
        Snapshot {
            pages: self.inner.pages.borrow()[pages].to_vec(),
            skip: offset % PAGE,
            len,
        }
    }

    /// Run `f` over `offset..offset+len` of the region page by page, to
    /// fill it in place: `f(position in the span, piece)`. `f` must write
    /// every byte of each piece, and must not touch this region. Panics on
    /// out-of-bounds.
    pub fn fill_with(&self, offset: usize, len: usize, mut f: impl FnMut(usize, &mut [u8])) {
        let span = self.span(offset, len);
        let mut pages = self.inner.pages.borrow_mut();
        for (page, piece, pos) in pieces(span) {
            f(pos, writable(&mut pages[page], piece));
        }
    }

    /// Copy `data` into the region at `offset`. Panics on out-of-bounds.
    pub fn write(&self, offset: usize, data: &[u8]) {
        self.fill_with(offset, data.len(), |pos, piece| {
            piece.copy_from_slice(&data[pos..pos + piece.len()])
        });
    }

    /// Copy `len` bytes of `src` at `offset` into this region at `at`, as
    /// they are now; `src` may be this region. Panics on out-of-bounds.
    pub fn copy_from(&self, at: usize, src: &MemoryRegion, offset: usize, len: usize) {
        src.snapshot(offset, len).place(self, at);
    }

    /// Read a copy of the whole region (tests / small control buffers).
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = vec![0; self.len()];
        self.read(0, &mut out);
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

    /// The handles to this region's pages held outside it: by snapshots in
    /// flight, or by the regions a copy gave its pages to.
    #[cfg(test)]
    pub(crate) fn outside_refs(&self) -> usize {
        let pages = self.inner.pages.borrow();
        let mut distinct: Vec<&Page> = pages.iter().collect();
        distinct.sort_by_key(|page| Rc::as_ptr(page));
        distinct.dedup_by_key(|page| Rc::as_ptr(page));
        distinct.into_iter().map(Rc::strong_count).sum::<usize>() - pages.len()
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

/// A span of a region as it stood when it was taken, held as references
/// to its pages (see [`MemoryRegion::snapshot`]).
pub(crate) struct Snapshot {
    /// The pages the span touches.
    pages: Vec<Page>,
    /// Where the span starts in its first page.
    skip: usize,
    len: usize,
}

impl Snapshot {
    /// Land the snapshot in `dst` at `offset`, piece by destination page: a
    /// page the piece covers whole, from a page boundary of the source,
    /// takes the source's page; any other piece is copied. Panics on
    /// out-of-bounds.
    pub(crate) fn place(self, dst: &MemoryRegion, offset: usize) {
        let span = dst.span(offset, self.len);
        let mut pages = dst.inner.pages.borrow_mut();
        for (page, piece, pos) in pieces(span) {
            let from = self.skip + pos;
            if piece.len() == PAGE && from.is_multiple_of(PAGE) {
                pages[page] = self.pages[from / PAGE].clone();
                continue;
            }
            let out = writable(&mut pages[page], piece);
            for (src, bytes, at) in pieces(from..from + out.len()) {
                out[at..at + bytes.len()].copy_from_slice(&self.pages[src][bytes]);
            }
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
        mr.fill_with(0, len, |pos, piece| {
            for (i, b) in piece.iter_mut().enumerate() {
                *b = ((pos + i) as u8).wrapping_mul(31).wrapping_add(seed);
            }
        });
        mr
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
    fn a_whole_page_lands_as_a_reference_and_a_part_page_as_a_copy() {
        let src = patterned(3 * PAGE, 1);
        let dst = MemoryRegion::new(3 * PAGE, 3, 4);
        dst.copy_from(PAGE, &src, PAGE, PAGE);
        assert_eq!(src.outside_refs(), 1, "an aligned whole page is shared");
        dst.copy_from(0, &src, 1, PAGE);
        dst.copy_from(2 * PAGE, &src, 2 * PAGE, PAGE - 1);
        assert_eq!(src.outside_refs(), 1, "an unaligned or part page is copied");
        src.write(PAGE + 8, &[0xEE; 8]);
        assert_eq!(src.outside_refs(), 0, "a write copies a page it shares");
        assert_eq!(
            dst.to_vec()[PAGE..2 * PAGE],
            patterned(3 * PAGE, 1).to_vec()[PAGE..2 * PAGE]
        );
    }

    #[test]
    fn an_unregistered_region_has_no_keys() {
        let store = MemoryRegion::unregistered(16);
        assert_eq!((store.lkey(), store.rkey(), store.len()), (0, 0, 16));
    }

    /// Random snapshots, landings, copies, reads and writes over three
    /// registered regions and an unregistered one, each three pages and a
    /// part long, against the eager model (a snapshot copies its bytes when
    /// taken): every region's bytes must match after every step. Span ends
    /// fall on page boundaries half the time, so pieces are whole pages and
    /// part pages, from aligned and unaligned sources; copies also go into
    /// the source's own region, overlapping their source or not. At the
    /// end one region goes away, and what was copied from it must stay.
    #[test]
    fn shared_pages_match_eager_copies() {
        const LEN: usize = 3 * PAGE + 512;
        /// An offset in `0..=max`, on a page boundary half the time.
        fn offset(rng: &mut simcore::SimRng, max: usize) -> usize {
            match rng.below(2) {
                0 => rng.below((max / PAGE) as u64 + 1) as usize * PAGE,
                _ => rng.below(max as u64 + 1) as usize,
            }
        }
        for seed in 0..200 {
            let mut rng = simcore::SimRng::new(seed);
            let mut regions: Vec<_> = (0..3).map(|k| patterned(LEN, k)).collect();
            let store = MemoryRegion::unregistered(LEN);
            store.write(0, &patterned(LEN, 3).to_vec());
            regions.push(store);
            let mut model: Vec<_> = regions.iter().map(MemoryRegion::to_vec).collect();
            let mut in_flight: Vec<(Snapshot, Vec<u8>)> = Vec::new();
            for step in 0..150 {
                let r = rng.below(4) as usize;
                let (a, b) = (offset(&mut rng, LEN), offset(&mut rng, LEN));
                let s = a.min(b)..a.max(b);
                let (off, len) = (s.start, s.len());
                let at = offset(&mut rng, LEN - len);
                match rng.below(6) {
                    0 => {
                        let eager = model[r][s].to_vec();
                        in_flight.push((regions[r].snapshot(off, len), eager));
                    }
                    1 => {
                        let byte = rng.below(256) as u8;
                        if rng.below(2) == 0 {
                            regions[r].write(off, &vec![byte; len]);
                        } else {
                            regions[r].fill_with(off, len, |_, piece| piece.fill(byte));
                        }
                        model[r][s].fill(byte);
                    }
                    2 if !in_flight.is_empty() => {
                        let i = rng.below(in_flight.len() as u64) as usize;
                        let (snap, eager) = in_flight.swap_remove(i);
                        let at = offset(&mut rng, LEN - eager.len());
                        snap.place(&regions[r], at);
                        model[r][at..at + eager.len()].copy_from_slice(&eager);
                    }
                    3 if !in_flight.is_empty() => {
                        let i = rng.below(in_flight.len() as u64) as usize;
                        in_flight.swap_remove(i);
                    }
                    4 => {
                        let mut out = vec![0; len];
                        match rng.below(3) {
                            0 => regions[r].read(off, &mut out),
                            1 => regions[r].read_with(off, len, |b| out.copy_from_slice(b)),
                            _ => regions[r].read_chunks(off, len, |pos, piece| {
                                out[pos..pos + piece.len()].copy_from_slice(piece)
                            }),
                        }
                        assert_eq!(out, model[r][s], "seed {seed} step {step} read");
                    }
                    5 => {
                        let d = if rng.below(2) == 0 {
                            r
                        } else {
                            rng.below(4) as usize
                        };
                        regions[d].copy_from(at, &regions[r], off, len);
                        let eager = model[r][s].to_vec();
                        model[d][at..at + len].copy_from_slice(&eager);
                    }
                    _ => {}
                }
                for (k, mr) in regions.iter().enumerate() {
                    assert_eq!(mr.to_vec(), model[k], "seed {seed} step {step} region {k}");
                }
            }
            // A region's copies outlive it, and so do its snapshots.
            let gone = rng.below(4) as usize;
            regions.remove(gone);
            model.remove(gone);
            for (snap, eager) in in_flight.drain(..) {
                snap.place(&regions[0], 0);
                model[0][..eager.len()].copy_from_slice(&eager);
            }
            for (k, mr) in regions.iter().enumerate() {
                assert_eq!(
                    mr.to_vec(),
                    model[k],
                    "seed {seed} after region {gone} went"
                );
            }
        }
    }
}
