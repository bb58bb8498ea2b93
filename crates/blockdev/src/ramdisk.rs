//! Memory-backed storage and the local RamDisk device.
//!
//! [`Storage`] is the raw byte store (also used by the NBD memory server as
//! its "RamDisk based file", paper §4.2; the HPBD server keeps its store in
//! an unregistered `ibsim` region, which RDMA snapshots can name). [`RamDiskDevice`]
//! wraps one as a local [`BlockDevice`] whose only cost is the memcpy
//! between the I/O buffers and the store, charged to the owning node's CPU.

use crate::device::BlockDevice;
use crate::request::{IoError, IoOp, IoRequest};
use netmodel::{Calibration, Node};
use simcore::Engine;
use std::cell::RefCell;
use std::rc::Rc;

/// A plain byte store with bounds-checked access.
pub struct Storage {
    bytes: RefCell<Vec<u8>>,
}

impl Storage {
    /// Allocate `capacity` zeroed bytes.
    pub fn new(capacity: u64) -> Storage {
        Storage {
            bytes: RefCell::new(vec![0u8; capacity as usize]),
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.bytes.borrow().len() as u64
    }

    /// Whether `offset..offset+len` is inside the store.
    pub fn in_range(&self, offset: u64, len: u64) -> bool {
        offset
            .checked_add(len)
            .is_some_and(|end| end <= self.capacity())
    }

    /// Copy out of the store. Panics if out of range (callers validate).
    pub fn read_at(&self, offset: u64, out: &mut [u8]) {
        let bytes = self.bytes.borrow();
        let at = offset as usize;
        out.copy_from_slice(&bytes[at..at + out.len()]);
    }

    /// Copy into the store. Panics if out of range (callers validate).
    pub fn write_at(&self, offset: u64, data: &[u8]) {
        let mut bytes = self.bytes.borrow_mut();
        let at = offset as usize;
        bytes[at..at + data.len()].copy_from_slice(data);
    }
}

/// A local memory-backed block device.
pub struct RamDiskDevice {
    engine: Engine,
    cal: Rc<Calibration>,
    node: Node,
    storage: Rc<Storage>,
    name: String,
}

impl RamDiskDevice {
    /// Create a ramdisk of `capacity` bytes on `node`.
    pub fn new(
        engine: Engine,
        cal: Rc<Calibration>,
        node: Node,
        capacity: u64,
        name: impl Into<String>,
    ) -> RamDiskDevice {
        RamDiskDevice {
            engine,
            cal,
            node,
            storage: Rc::new(Storage::new(capacity)),
            name: name.into(),
        }
    }

    /// The backing store (shared with tests).
    pub fn storage(&self) -> &Rc<Storage> {
        &self.storage
    }
}

impl BlockDevice for RamDiskDevice {
    fn capacity(&self) -> u64 {
        self.storage.capacity()
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn submit(&self, req: IoRequest) {
        let engine = self.engine.clone();
        if !self.storage.in_range(req.offset(), req.len()) {
            engine.schedule_at(engine.now(), move || req.complete(Err(IoError::OutOfRange)));
            return;
        }
        // The only cost is the copy, charged to this node's CPU.
        let dur = self.cal.memcpy_time(req.len());
        let (_, end) = self.node.cpu().reserve(engine.now(), dur);
        let storage = self.storage.clone();
        engine.schedule_at(end, move || {
            let span = req.offset() as usize..req.end() as usize;
            match req.op() {
                IoOp::Write => req.gather_range_into(0, &mut storage.bytes.borrow_mut()[span]),
                IoOp::Read => req.scatter_range(0, &storage.bytes.borrow()[span]),
            }
            req.complete(Ok(()));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{new_buffer, Bio};
    use std::cell::Cell;

    fn setup(capacity: u64) -> (Engine, RamDiskDevice) {
        let engine = Engine::new();
        let cal = Rc::new(Calibration::cluster_2005());
        let node = Node::new("n", 0, 2);
        let dev = RamDiskDevice::new(engine.clone(), cal, node, capacity, "ramdisk0");
        (engine, dev)
    }

    #[test]
    fn write_then_read_roundtrip() {
        let (engine, dev) = setup(16 * 4096);
        let wbuf = new_buffer(4096);
        wbuf.borrow_mut().fill(0x5A);
        let wrote = Rc::new(Cell::new(false));
        {
            let wrote = wrote.clone();
            dev.submit(IoRequest::single(Bio::new(
                IoOp::Write,
                8192,
                wbuf,
                move |r| {
                    assert!(r.is_ok());
                    wrote.set(true);
                },
            )));
        }
        engine.run_until_idle();
        assert!(wrote.get());

        let rbuf = new_buffer(4096);
        dev.submit(IoRequest::single(Bio::new(
            IoOp::Read,
            8192,
            rbuf.clone(),
            |r| assert!(r.is_ok()),
        )));
        engine.run_until_idle();
        assert!(rbuf.borrow().iter().all(|&b| b == 0x5A));
    }

    #[test]
    fn out_of_range_fails_asynchronously() {
        let (engine, dev) = setup(4096);
        let result = Rc::new(Cell::new(None));
        {
            let result = result.clone();
            dev.submit(IoRequest::single(Bio::new(
                IoOp::Read,
                4096,
                new_buffer(1),
                move |r| result.set(Some(r)),
            )));
        }
        // Not completed synchronously.
        assert!(result.get().is_none());
        engine.run_until_idle();
        assert_eq!(result.get(), Some(Err(IoError::OutOfRange)));
    }

    #[test]
    fn cost_is_memcpy_on_cpu() {
        let (engine, dev) = setup(1 << 20);
        let cal = Calibration::cluster_2005();
        dev.submit(IoRequest::single(Bio::new(
            IoOp::Write,
            0,
            new_buffer(128 * 1024),
            |_| {},
        )));
        engine.run_until_idle();
        assert_eq!(
            engine.now().as_nanos(),
            cal.memcpy_time(128 * 1024).as_nanos()
        );
    }

    #[test]
    fn storage_bounds() {
        let s = Storage::new(100);
        assert!(s.in_range(0, 100));
        assert!(!s.in_range(1, 100));
        assert!(!s.in_range(u64::MAX, 2));
    }
}
