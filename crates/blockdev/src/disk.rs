//! The local ATA disk baseline.
//!
//! Models the testbed's 40 GB ST340014A drive: a single head served
//! serially, paying average seek + rotational delay for any non-sequential
//! access and only the media transfer rate for sequential successors. This
//! cost structure is what makes disk swap tolerable for testswap's
//! largely-sequential clusters (Figure 5: disk ≈ 2.2× slower than HPBD) but
//! catastrophic for quicksort's scattered faults (Figure 7: 4.5×) and for
//! two interleaved quicksorts (Figure 9: 36× the local-memory time).

use crate::device::{BlockDevice, DeviceHealth};
use crate::request::{FaultKind, IoError, IoOp, IoRequest};
use netmodel::DiskParams;
use simcore::{Engine, Resource};
use std::cell::{Cell, RefCell};

/// A simulated mechanical disk with data storage.
pub struct SimDisk {
    engine: Engine,
    params: DiskParams,
    capacity: u64,
    /// Serial service: one head.
    head: Resource,
    /// End offset of the most recently *scheduled* request, for sequential
    /// detection (the head is where the last queued request leaves it).
    last_end: Cell<u64>,
    bytes: RefCell<Vec<u8>>,
    name: String,
    seeks: Cell<u64>,
    sequential_hits: Cell<u64>,
    shut_down: Cell<bool>,
}

impl SimDisk {
    /// Create a disk of `capacity` bytes.
    pub fn new(
        engine: Engine,
        params: DiskParams,
        capacity: u64,
        name: impl Into<String>,
    ) -> SimDisk {
        SimDisk {
            engine,
            params,
            capacity,
            head: Resource::new("disk-head"),
            last_end: Cell::new(u64::MAX), // first access always seeks
            bytes: RefCell::new(vec![0u8; capacity as usize]),
            name: name.into(),
            seeks: Cell::new(0),
            sequential_hits: Cell::new(0),
            shut_down: Cell::new(false),
        }
    }

    /// Number of seeking (non-sequential) accesses served.
    pub fn seeks(&self) -> u64 {
        self.seeks.get()
    }

    /// Number of sequential accesses served.
    pub fn sequential_hits(&self) -> u64 {
        self.sequential_hits.get()
    }
}

impl BlockDevice for SimDisk {
    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn submit(&self, req: IoRequest) {
        let engine = self.engine.clone();
        if self.shut_down.get() {
            engine.schedule_at(engine.now(), move || {
                req.complete(Err(IoError::Fault(FaultKind::ServerDead)))
            });
            return;
        }
        if req.offset() + req.len() > self.capacity {
            engine.schedule_at(engine.now(), move || req.complete(Err(IoError::OutOfRange)));
            return;
        }
        let sequential = req.offset() == self.last_end.get();
        self.last_end.set(req.end());
        if sequential {
            self.sequential_hits.set(self.sequential_hits.get() + 1);
        } else {
            self.seeks.set(self.seeks.get() + 1);
        }
        let service = self.params.service_time(req.len(), sequential);
        let (_, end) = self.head.reserve(engine.now(), service);

        // The bytes move at submission — the platter is written, or a read
        // takes its snapshot, in queue order — and only the completion waits
        // for the head: a bio buffer is unobservable before its callback.
        let span = req.offset() as usize..req.end() as usize;
        match req.op() {
            IoOp::Write => req.gather_range_into(0, &mut self.bytes.borrow_mut()[span]),
            IoOp::Read => req.scatter_range(0, &self.bytes.borrow()[span]),
        }
        engine.schedule_at(end, move || req.complete(Ok(())));
    }

    fn shutdown(&self) {
        self.shut_down.set(true);
    }

    fn health(&self) -> DeviceHealth {
        if self.shut_down.get() {
            DeviceHealth::Failed
        } else {
            DeviceHealth::Healthy
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{new_buffer, Bio};
    use netmodel::Calibration;
    use std::rc::Rc;

    fn setup() -> (Engine, SimDisk) {
        let engine = Engine::new();
        let disk = SimDisk::new(
            engine.clone(),
            Calibration::cluster_2005().disk,
            1 << 24,
            "hda",
        );
        (engine, disk)
    }

    fn write_at(disk: &SimDisk, offset: u64, len: usize) {
        disk.submit(IoRequest::single(Bio::new(
            IoOp::Write,
            offset,
            new_buffer(len),
            |r| assert!(r.is_ok()),
        )));
    }

    #[test]
    fn sequential_run_skips_seeks() {
        let (engine, disk) = setup();
        for i in 0..8u64 {
            write_at(&disk, i * 4096, 4096);
        }
        engine.run_until_idle();
        assert_eq!(disk.seeks(), 1, "only the first access seeks");
        assert_eq!(disk.sequential_hits(), 7);
    }

    #[test]
    fn random_accesses_all_seek() {
        let (engine, disk) = setup();
        for &off in &[0u64, 1 << 20, 4096, 1 << 22] {
            write_at(&disk, off, 4096);
        }
        engine.run_until_idle();
        assert_eq!(disk.seeks(), 4);
    }

    #[test]
    fn random_is_orders_of_magnitude_slower() {
        let params = Calibration::cluster_2005().disk;
        // 8 random 4K pages vs 8 sequential.
        let t_random: u64 = (0..8)
            .map(|_| params.service_time(4096, false).as_nanos())
            .sum();
        let t_seq: u64 = params.service_time(4096, false).as_nanos()
            + (0..7)
                .map(|_| params.service_time(4096, true).as_nanos())
                .sum::<u64>();
        assert!(t_random > 5 * t_seq, "random {t_random} vs seq {t_seq}");
    }

    #[test]
    fn data_integrity_roundtrip() {
        let (engine, disk) = setup();
        let wbuf = new_buffer(8192);
        wbuf.borrow_mut().fill(0x3C);
        disk.submit(IoRequest::single(Bio::new(IoOp::Write, 16384, wbuf, |r| {
            assert!(r.is_ok())
        })));
        engine.run_until_idle();
        let rbuf = new_buffer(8192);
        disk.submit(IoRequest::single(Bio::new(
            IoOp::Read,
            16384,
            rbuf.clone(),
            |r| assert!(r.is_ok()),
        )));
        engine.run_until_idle();
        assert!(rbuf.borrow().iter().all(|&b| b == 0x3C));
    }

    #[test]
    fn read_ahead_of_a_write_in_flight_returns_the_old_bytes() {
        // Both wait for the head, the read first: it must not see the write
        // queued behind it, and the write must not be lost.
        let (engine, disk) = setup();
        let page = |fill: u8| {
            let buf = new_buffer(4096);
            buf.borrow_mut().fill(fill);
            buf
        };
        let submit = |op, buf| {
            disk.submit(IoRequest::single(Bio::new(op, 8192, buf, |r| {
                assert!(r.is_ok())
            })))
        };
        submit(IoOp::Write, page(0x11));
        engine.run_until_idle();
        let (first, second) = (page(0), page(0));
        submit(IoOp::Read, first.clone());
        submit(IoOp::Write, page(0x22));
        engine.run_until_idle();
        submit(IoOp::Read, second.clone());
        engine.run_until_idle();
        assert!(first.borrow().iter().all(|&b| b == 0x11));
        assert!(second.borrow().iter().all(|&b| b == 0x22));
    }

    #[test]
    fn requests_serve_serially() {
        let (engine, disk) = setup();
        write_at(&disk, 0, 4096);
        write_at(&disk, 1 << 20, 4096);
        engine.run_until_idle();
        let params = Calibration::cluster_2005().disk;
        let expect = 2 * params.service_time(4096, false).as_nanos();
        assert_eq!(engine.now().as_nanos(), expect);
    }

    #[test]
    fn out_of_range_rejected() {
        let (engine, disk) = setup();
        let got = Rc::new(Cell::new(None));
        {
            let got = got.clone();
            disk.submit(IoRequest::single(Bio::new(
                IoOp::Write,
                disk.capacity(),
                new_buffer(4096),
                move |r| got.set(Some(r)),
            )));
        }
        engine.run_until_idle();
        assert_eq!(got.get(), Some(Err(IoError::OutOfRange)));
    }

    #[test]
    fn shutdown_fails_new_submissions_cleanly() {
        let (engine, disk) = setup();
        assert_eq!(disk.health(), DeviceHealth::Healthy);
        disk.shutdown();
        assert_eq!(disk.health(), DeviceHealth::Failed);
        let got = Rc::new(Cell::new(None));
        {
            let got = got.clone();
            disk.submit(IoRequest::single(Bio::new(
                IoOp::Read,
                0,
                new_buffer(4096),
                move |r| got.set(Some(r)),
            )));
        }
        // Still asynchronous, even on the failure path.
        assert!(got.get().is_none());
        engine.run_until_idle();
        assert_eq!(got.get(), Some(Err(IoError::Fault(FaultKind::ServerDead))));
    }
}
