//! Registered memory regions.
//!
//! Communication over InfiniBand requires buffers to be registered with the
//! HCA (pinned and entered into its translation tables). A registered
//! [`MemoryRegion`] here is a real byte buffer plus an `lkey`/`rkey` pair;
//! RDMA operations address remote memory by `rkey` + offset, exactly as the
//! verbs do (we use region-relative offsets in place of virtual addresses).
//! Keeping real bytes in the regions lets every layer above — the HPBD
//! protocol, the VM pager, the workloads — be checked for data integrity.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

struct MrInner {
    buf: RefCell<Vec<u8>>,
    lkey: u32,
    rkey: u32,
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

    /// Append `len` bytes starting at `offset` to `out`: the owned snapshot
    /// a transfer carries while it is on the wire. Panics on out-of-bounds,
    /// as [`MemoryRegion::read`] does.
    pub(crate) fn read_append(&self, offset: usize, len: usize, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.inner.buf.borrow()[offset..offset + len]);
    }

    /// Run `f` over `offset..offset+len` of the region, to fill it in place.
    /// Panics on out-of-bounds.
    pub fn fill_with(&self, offset: usize, len: usize, f: impl FnOnce(&mut [u8])) {
        f(&mut self.inner.buf.borrow_mut()[offset..offset + len]);
    }

    /// Run `f` over `offset..offset+len` of the region, to read it in place.
    /// Panics on out-of-bounds.
    pub fn read_with<R>(&self, offset: usize, len: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        f(&self.inner.buf.borrow()[offset..offset + len])
    }

    /// Copy `data` into the region at `offset`. Panics on out-of-bounds.
    pub fn write(&self, offset: usize, data: &[u8]) {
        let mut buf = self.inner.buf.borrow_mut();
        buf[offset..offset + data.len()].copy_from_slice(data);
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
}
