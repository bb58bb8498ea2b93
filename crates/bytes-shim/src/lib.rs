//! A minimal, dependency-free stand-in for the parts of the `bytes` crate
//! this workspace uses: cheaply-cloneable immutable [`Bytes`], a growable
//! [`BytesMut`] builder, and the [`Buf`]/[`BufMut`] cursor traits with the
//! little-endian accessors the wire protocols need.
//!
//! The build environment has no access to crates.io, so the workspace
//! resolves the `bytes` dependency to this path crate. Only the API
//! surface actually exercised by the suite is provided; semantics match
//! the real crate for that subset.

use std::fmt;
use std::ops::{Deref, RangeBounds};
use std::rc::Rc;

/// A cheaply cloneable, contiguous, immutable byte buffer.
///
/// Cloning is O(1): clones share the underlying storage. Slicing adjusts
/// a view window without copying.
#[derive(Clone)]
pub struct Bytes {
    repr: Repr,
    start: usize,
    end: usize,
}

#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    Shared(Rc<Vec<u8>>),
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Bytes {
        Bytes::from_static(&[])
    }

    /// Wrap a static slice without copying.
    pub fn from_static(s: &'static [u8]) -> Bytes {
        Bytes {
            start: 0,
            end: s.len(),
            repr: Repr::Static(s),
        }
    }

    /// Copy a slice into a new shared buffer.
    pub fn copy_from_slice(s: &[u8]) -> Bytes {
        Bytes::from(s.to_vec())
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A sub-view of this buffer (no copy).
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        use std::ops::Bound;
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of range");
        let mut out = self.clone();
        out.end = out.start + hi;
        out.start += lo;
        out
    }

    /// Copy the view into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    fn as_slice(&self) -> &[u8] {
        match &self.repr {
            Repr::Static(s) => &s[self.start..self.end],
            Repr::Shared(v) => &v[self.start..self.end],
        }
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes {
            start: 0,
            end: v.len(),
            repr: Repr::Shared(Rc::new(v)),
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Bytes {
        Bytes::from_static(s)
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            write!(f, "\\x{b:02x}")?;
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

/// A growable byte buffer used to build messages, frozen into [`Bytes`].
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> BytesMut {
        BytesMut { data: Vec::new() }
    }

    /// An empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Append a slice.
    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.data.extend_from_slice(s);
    }

    /// Split off and return the first `n` bytes, leaving the rest.
    pub fn split_to(&mut self, n: usize) -> BytesMut {
        assert!(n <= self.data.len(), "split_to out of range");
        let rest = self.data.split_off(n);
        BytesMut {
            data: std::mem::replace(&mut self.data, rest),
        }
    }

    /// Convert into an immutable [`Bytes`] (no copy).
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BytesMut({} bytes)", self.data.len())
    }
}

/// Read cursor over a byte buffer: little-endian integer accessors plus
/// explicit advancement, matching the real crate's provided methods.
pub trait Buf {
    /// Bytes remaining ahead of the cursor.
    fn remaining(&self) -> usize;

    /// The bytes ahead of the cursor.
    fn chunk(&self) -> &[u8];

    /// Move the cursor forward by `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// Read a little-endian `u32` and advance.
    fn get_u32_le(&mut self) -> u32 {
        let mut raw = [0u8; 4];
        raw.copy_from_slice(&self.chunk()[..4]);
        self.advance(4);
        u32::from_le_bytes(raw)
    }

    /// Read a little-endian `u64` and advance.
    fn get_u64_le(&mut self) -> u64 {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.chunk()[..8]);
        self.advance(8);
        u64::from_le_bytes(raw)
    }

    /// Read a single byte and advance.
    fn get_u8(&mut self) -> u8 {
        let b = self.chunk()[0];
        self.advance(1);
        b
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end");
        self.start += cnt;
    }
}

/// Write cursor used to build messages with little-endian encoders.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, s: &[u8]);

    /// Append a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a single byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, s: &[u8]) {
        self.data.extend_from_slice(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_le_fields() {
        let mut b = BytesMut::with_capacity(16);
        b.put_u32_le(0xDEAD_BEEF);
        b.put_u64_le(0x0123_4567_89AB_CDEF);
        b.put_u8(7);
        let mut frozen = b.freeze();
        assert_eq!(frozen.len(), 13);
        assert_eq!(frozen.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(frozen.get_u64_le(), 0x0123_4567_89AB_CDEF);
        assert_eq!(frozen.get_u8(), 7);
        assert_eq!(frozen.remaining(), 0);
    }

    #[test]
    fn slice_and_clone_share_storage() {
        let b = Bytes::from(vec![0, 1, 2, 3, 4, 5, 6, 7]);
        let s = b.slice(2..6);
        assert_eq!(&s[..], &[2, 3, 4, 5]);
        assert_eq!(s.slice(1..3).to_vec(), vec![3, 4]);
        let c = b.clone();
        assert_eq!(c, b);
    }

    #[test]
    fn split_to_partitions() {
        let mut m = BytesMut::new();
        m.extend_from_slice(b"hello world");
        let head = m.split_to(5);
        assert_eq!(&head[..], b"hello");
        assert_eq!(&m[..], b" world");
        assert_eq!(&head.freeze()[..], b"hello");
    }

    #[test]
    fn static_bytes_are_zero_copy() {
        let b = Bytes::from_static(b"abc");
        assert_eq!(b.len(), 3);
        assert_eq!(b.to_vec(), vec![b'a', b'b', b'c']);
    }
}
