//! Block I/O request structures.
//!
//! A [`Bio`] is the unit the VM submits: one page-sized (usually) span with
//! its own buffer and completion callback. The [`RequestQueue`] merges
//! adjacent bios into an [`IoRequest`] — one contiguous device extent —
//! before handing it to the device driver, which sees a single transfer and
//! uses [`IoRequest::gather`] / [`IoRequest::scatter`] to move bytes between
//! the device and the per-bio buffers.
//!
//! [`RequestQueue`]: crate::RequestQueue

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Read or write, from the device's point of view.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IoOp {
    /// Device → memory (swap-in).
    Read,
    /// Memory → device (swap-out).
    Write,
}

/// The specific failure behind an [`IoError::Fault`]: which part of the
/// remote-paging path gave out. Set by the device drivers when an injected
/// (or simulated-organic) fault kills a request with no replica to save it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The memory server holding the data crashed (and no replica exists).
    ServerDead,
    /// The request timed out with no reply and no replica to fail over to.
    Timeout,
    /// The network link failed the transfer (completion-with-error).
    LinkDown,
    /// The transport connection was reset (NBD's TCP path).
    Reset,
}

/// Why an I/O failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoError {
    /// Request extends past the device capacity.
    OutOfRange,
    /// The device (or its remote server) reported a failure.
    DeviceError(&'static str),
    /// A fault (injected or simulated) made the request unservable; the
    /// cause says which layer failed. Devices must surface this as a
    /// completion — a fault never strands a request without a callback.
    Fault(FaultKind),
}

/// Completion status of a request.
pub type IoResult = Result<(), IoError>;

/// Shared, interiorly-mutable I/O buffer.
pub type IoBuffer = Rc<RefCell<Vec<u8>>>;

/// Allocate a zeroed I/O buffer of `len` bytes.
pub fn new_buffer(len: usize) -> IoBuffer {
    Rc::new(RefCell::new(vec![0u8; len]))
}

/// One unit of block I/O as issued by the VM: a contiguous span with its
/// own buffer and completion callback.
pub struct Bio {
    /// Read or write.
    pub op: IoOp,
    /// Byte offset on the device.
    pub offset: u64,
    /// Data buffer; its length is the transfer length.
    pub buf: IoBuffer,
    /// Invoked exactly once when the bio's parent request completes.
    pub done: Box<dyn FnOnce(IoResult)>,
}

impl Bio {
    /// Build a bio. `done` runs at completion with the request's result.
    pub fn new(op: IoOp, offset: u64, buf: IoBuffer, done: impl FnOnce(IoResult) + 'static) -> Bio {
        Bio {
            op,
            offset,
            buf,
            done: Box::new(done),
        }
    }

    /// Transfer length in bytes.
    pub fn len(&self) -> u64 {
        self.buf.borrow().len() as u64
    }

    /// True for zero-length bios (rejected by the queue).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Device range end (exclusive).
    pub fn end(&self) -> u64 {
        self.offset + self.len()
    }
}

impl fmt::Debug for Bio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Bio")
            .field("op", &self.op)
            .field("offset", &self.offset)
            .field("len", &self.len())
            .finish()
    }
}

type CompletionHook = Box<dyn FnOnce(IoResult)>;

/// A merged, contiguous request as seen by a device driver.
pub struct IoRequest {
    op: IoOp,
    offset: u64,
    len: u64,
    bios: Vec<Bio>,
    hooks: Vec<CompletionHook>,
    lifecycle: Option<Rc<simtrace::RequestCtx>>,
}

impl IoRequest {
    /// Build a request from bios that must be same-op, sorted, and exactly
    /// adjacent (no gaps, no overlaps).
    ///
    /// # Panics
    /// Panics if the bios do not form one contiguous same-op extent — the
    /// queue guarantees this; a violation is a kernel-layer bug.
    pub fn from_bios(bios: Vec<Bio>) -> IoRequest {
        assert!(!bios.is_empty(), "empty request");
        let op = bios[0].op;
        let offset = bios[0].offset;
        let mut cursor = offset;
        for b in &bios {
            assert_eq!(b.op, op, "mixed-op request");
            assert_eq!(b.offset, cursor, "non-contiguous request");
            cursor = b.end();
        }
        IoRequest {
            op,
            offset,
            len: cursor - offset,
            bios,
            hooks: Vec::new(),
            lifecycle: None,
        }
    }

    /// A single-bio request (drivers submitted to directly).
    pub fn single(bio: Bio) -> IoRequest {
        IoRequest::from_bios(vec![bio])
    }

    /// Read or write.
    pub fn op(&self) -> IoOp {
        self.op
    }

    /// Byte offset of the extent on the device.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Extent length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if the request covers no bytes (cannot happen via constructors).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// End of the extent (exclusive).
    pub fn end(&self) -> u64 {
        self.offset + self.len
    }

    /// Number of merged bios.
    pub fn bio_count(&self) -> usize {
        self.bios.len()
    }

    /// Concatenate the bio buffers into one device-order image (writes).
    pub fn gather(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len as usize);
        for b in &self.bios {
            out.extend_from_slice(&b.buf.borrow());
        }
        out
    }

    /// Distribute a device-order image into the bio buffers (reads).
    ///
    /// # Panics
    /// Panics if `data` length differs from the request length.
    pub fn scatter(&self, data: &[u8]) {
        assert_eq!(data.len() as u64, self.len, "scatter length mismatch");
        self.scatter_range(0, data);
    }

    /// Concatenate the bytes of the sub-range `start..start+out.len()`
    /// (relative to the request start) across bio buffers into `out`. Used
    /// when a request is split into physical requests to different
    /// servers; a driver points `out` at its staging memory, so the bytes
    /// are copied once.
    ///
    /// # Panics
    /// Panics if the range exceeds the request.
    pub fn gather_range_into(&self, start: u64, out: &mut [u8]) {
        let len = out.len() as u64;
        assert!(start + len <= self.len, "gather_range out of request");
        let mut cursor = 0u64; // position within the request
        for b in &self.bios {
            let blen = b.len();
            let lo = start.max(cursor);
            let hi = (start + len).min(cursor + blen);
            if lo < hi {
                let buf = b.buf.borrow();
                out[(lo - start) as usize..(hi - start) as usize]
                    .copy_from_slice(&buf[(lo - cursor) as usize..(hi - cursor) as usize]);
            }
            cursor += blen;
            if cursor >= start + len {
                break;
            }
        }
    }

    /// Distribute `data` into the bio buffers starting at request-relative
    /// offset `start`.
    ///
    /// # Panics
    /// Panics if the range exceeds the request.
    pub fn scatter_range(&self, start: u64, data: &[u8]) {
        let len = data.len() as u64;
        assert!(start + len <= self.len, "scatter_range out of request");
        let mut cursor = 0u64;
        for b in &self.bios {
            let blen = b.len();
            let lo = start.max(cursor);
            let hi = (start + len).min(cursor + blen);
            if lo < hi {
                let mut buf = b.buf.borrow_mut();
                buf[(lo - cursor) as usize..(hi - cursor) as usize]
                    .copy_from_slice(&data[(lo - start) as usize..(hi - start) as usize]);
            }
            cursor += blen;
            if cursor >= start + len {
                break;
            }
        }
    }

    /// Attach a hook that fires after the bio callbacks when the request
    /// completes (used by stacking drivers like [`crate::Elevator`]).
    pub fn on_complete(mut self, hook: impl FnOnce(IoResult) + 'static) -> IoRequest {
        self.hooks.push(Box::new(hook));
        self
    }

    /// Attach a lifecycle span context; device drivers below the queue
    /// read it back via [`IoRequest::lifecycle`] to append phase marks.
    pub fn set_lifecycle(&mut self, ctx: Rc<simtrace::RequestCtx>) {
        self.lifecycle = Some(ctx);
    }

    /// The lifecycle span context stamped at dispatch, if tracing is on.
    pub fn lifecycle(&self) -> Option<&Rc<simtrace::RequestCtx>> {
        self.lifecycle.as_ref()
    }

    /// Complete the request: every bio callback fires with `result`, then
    /// the completion hooks in attachment order.
    pub fn complete(self, result: IoResult) {
        for b in self.bios {
            (b.done)(result);
        }
        for h in self.hooks {
            h(result);
        }
    }
}

impl fmt::Debug for IoRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IoRequest")
            .field("op", &self.op)
            .field("offset", &self.offset)
            .field("len", &self.len)
            .field("bios", &self.bios.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn bio_at(offset: u64, len: usize, fill: u8) -> Bio {
        let buf = new_buffer(len);
        buf.borrow_mut().fill(fill);
        Bio::new(IoOp::Write, offset, buf, |_| {})
    }

    #[test]
    fn merged_request_geometry() {
        let req = IoRequest::from_bios(vec![bio_at(0, 4096, 1), bio_at(4096, 4096, 2)]);
        assert_eq!(req.offset(), 0);
        assert_eq!(req.len(), 8192);
        assert_eq!(req.bio_count(), 2);
        assert_eq!(req.end(), 8192);
    }

    #[test]
    fn gather_concatenates_in_device_order() {
        let req = IoRequest::from_bios(vec![bio_at(0, 2, 0xA), bio_at(2, 3, 0xB)]);
        assert_eq!(req.gather(), vec![0xA, 0xA, 0xB, 0xB, 0xB]);
    }

    #[test]
    fn scatter_distributes() {
        let b1 = new_buffer(2);
        let b2 = new_buffer(2);
        let req = IoRequest::from_bios(vec![
            Bio::new(IoOp::Read, 0, b1.clone(), |_| {}),
            Bio::new(IoOp::Read, 2, b2.clone(), |_| {}),
        ]);
        req.scatter(&[1, 2, 3, 4]);
        assert_eq!(*b1.borrow(), vec![1, 2]);
        assert_eq!(*b2.borrow(), vec![3, 4]);
    }

    #[test]
    fn complete_fires_every_bio_callback() {
        let count = Rc::new(Cell::new(0));
        let mk = |offset| {
            let count = count.clone();
            Bio::new(IoOp::Write, offset, new_buffer(1), move |r| {
                assert!(r.is_ok());
                count.set(count.get() + 1);
            })
        };
        IoRequest::from_bios(vec![mk(0), mk(1), mk(2)]).complete(Ok(()));
        assert_eq!(count.get(), 3);
    }

    #[test]
    #[should_panic(expected = "non-contiguous")]
    fn gap_rejected() {
        IoRequest::from_bios(vec![bio_at(0, 4096, 0), bio_at(8192, 4096, 0)]);
    }

    #[test]
    #[should_panic(expected = "mixed-op")]
    fn mixed_op_rejected() {
        let read = Bio::new(IoOp::Read, 4096, new_buffer(4096), |_| {});
        IoRequest::from_bios(vec![bio_at(0, 4096, 0), read]);
    }

    #[test]
    #[should_panic(expected = "scatter length mismatch")]
    fn bad_scatter_rejected() {
        let req = IoRequest::single(Bio::new(IoOp::Read, 0, new_buffer(4), |_| {}));
        req.scatter(&[0u8; 3]);
    }

    #[test]
    fn gather_range_spans_bio_boundaries() {
        let req = IoRequest::from_bios(vec![bio_at(0, 4, 1), bio_at(4, 4, 2), bio_at(8, 4, 3)]);
        // Stale content must be overwritten.
        let mut out = [7u8; 12];
        // Range covering the tail of bio 0, all of bio 1, head of bio 2.
        req.gather_range_into(2, &mut out[..8]);
        assert_eq!(out[..8], [1, 1, 2, 2, 2, 2, 3, 3]);
        // Degenerate full range equals gather().
        req.gather_range_into(0, &mut out);
        assert_eq!(out[..], req.gather());
    }

    #[test]
    fn scatter_range_spans_bio_boundaries() {
        let b1 = new_buffer(4);
        let b2 = new_buffer(4);
        let req = IoRequest::from_bios(vec![
            Bio::new(IoOp::Read, 0, b1.clone(), |_| {}),
            Bio::new(IoOp::Read, 4, b2.clone(), |_| {}),
        ]);
        req.scatter_range(2, &[9, 9, 9, 9]);
        assert_eq!(*b1.borrow(), vec![0, 0, 9, 9]);
        assert_eq!(*b2.borrow(), vec![9, 9, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "gather_range out of request")]
    fn gather_range_bounds_checked() {
        let req = IoRequest::single(bio_at(0, 4, 0));
        req.gather_range_into(2, &mut [0; 4]);
    }
}
