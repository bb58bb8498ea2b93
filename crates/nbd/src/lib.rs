#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! # nbd — the TCP network block device baseline
//!
//! A reimplementation of the paper's comparison system: the Linux Network
//! Block Device (paper §3.3), a block device whose backing store lives on a
//! remote server reached over kernel TCP sockets. Run it over
//! [`netmodel::Transport::GigE`] for NBD-GigE and
//! [`netmodel::Transport::IpoIb`] for NBD-IPoIB — above the IP layer the
//! code path is identical, exactly as the paper notes.
//!
//! Fidelity points that matter for the figures:
//!
//! * **Blocking transfer per request**: the client sends one request and
//!   waits for its reply before sending the next ("NBD simply uses blocking
//!   mode transfer for each request and response", §6.2) — no pipelining,
//!   unlike HPBD's credit window.
//! * **Single server**: as of Linux 2.4, one NBD device is served by one
//!   remote server (§3.3), so the multi-server experiments have no NBD bar.
//! * **Page data rides the TCP stream**, paying per-segment and per-byte
//!   host stack costs on both ends (see `tcpsim`), where HPBD moves data by
//!   RDMA.

pub mod client;
pub mod proto;
pub mod server;

pub use client::NbdClient;
pub use server::NbdServer;

use netmodel::{Calibration, Node, Transport, TransportModel};
use simcore::{Engine, SimTime};
use simfault::{FaultEvent, FaultPlan};
use std::rc::Rc;

/// Build a connected NBD client/server pair over `transport`. The server
/// gets its own node; the client lives on `client_node` (shared with the
/// VM). Returns the client block device.
pub fn build_pair(
    engine: &Engine,
    cal: Rc<Calibration>,
    transport: Transport,
    client_node: &Node,
    capacity: u64,
) -> NbdClient {
    build_pair_with_faults(
        engine,
        cal,
        transport,
        client_node,
        capacity,
        &FaultPlan::new(),
    )
}

/// [`build_pair`], arming a deterministic [`FaultPlan`] against the TCP
/// connection. Only [`FaultEvent::TcpReset`] entries apply to NBD; the
/// server/link-targeted InfiniBand faults are ignored, so one plan can be
/// shared between an HPBD cell and its NBD baseline. An empty plan
/// schedules nothing — the run is byte-identical to [`build_pair`].
pub fn build_pair_with_faults(
    engine: &Engine,
    cal: Rc<Calibration>,
    transport: Transport,
    client_node: &Node,
    capacity: u64,
    plan: &FaultPlan,
) -> NbdClient {
    let model: Rc<TransportModel> = Rc::new(match transport {
        Transport::IbRdma => cal.ib.clone(),
        Transport::IpoIb => cal.ipoib.clone(),
        Transport::GigE => cal.gige.clone(),
    });
    let server_node = Node::new(format!("nbd-server-{}", model.name), 9000, 2);
    let (conn_c, conn_s) = tcpsim::connect(engine, model, client_node, &server_node);
    let server = NbdServer::new(engine.clone(), cal, server_node, capacity);
    server.serve(conn_s);
    for fault in plan.events() {
        if let FaultEvent::TcpReset = fault.event {
            let conn = conn_c.clone();
            engine.schedule_at(SimTime(fault.at_ns), move || conn.reset());
        }
    }
    NbdClient::new(engine.clone(), conn_c, server, capacity, transport)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockdev::{new_buffer, Bio, BlockDevice, IoOp, IoRequest};
    use std::cell::Cell;
    use std::rc::Rc;

    fn pair(transport: Transport) -> (Engine, NbdClient) {
        let engine = Engine::new();
        let cal = Rc::new(Calibration::cluster_2005());
        let node = Node::new("client", 0, 2);
        let dev = build_pair(&engine, cal, transport, &node, 8 << 20);
        (engine, dev)
    }

    #[test]
    fn roundtrip_over_gige() {
        let (engine, dev) = pair(Transport::GigE);
        let wbuf = new_buffer(8192);
        wbuf.borrow_mut().fill(0x42);
        dev.submit(IoRequest::single(Bio::new(IoOp::Write, 4096, wbuf, |r| {
            r.unwrap()
        })));
        engine.run_until_idle();
        let rbuf = new_buffer(8192);
        dev.submit(IoRequest::single(Bio::new(
            IoOp::Read,
            4096,
            rbuf.clone(),
            |r| r.unwrap(),
        )));
        engine.run_until_idle();
        assert!(rbuf.borrow().iter().all(|&b| b == 0x42));
    }

    #[test]
    fn roundtrip_over_ipoib() {
        let (engine, dev) = pair(Transport::IpoIb);
        let wbuf = new_buffer(4096);
        wbuf.borrow_mut().fill(0x17);
        dev.submit(IoRequest::single(Bio::new(IoOp::Write, 0, wbuf, |r| {
            r.unwrap()
        })));
        engine.run_until_idle();
        let rbuf = new_buffer(4096);
        dev.submit(IoRequest::single(Bio::new(
            IoOp::Read,
            0,
            rbuf.clone(),
            |r| r.unwrap(),
        )));
        engine.run_until_idle();
        assert!(rbuf.borrow().iter().all(|&b| b == 0x17));
    }

    #[test]
    fn requests_are_serialized_not_pipelined() {
        let (engine, dev) = pair(Transport::GigE);
        // Two writes issued back to back: total time ≈ 2x one write
        // (blocking per request), not ~1x (pipelined).
        let t0 = engine.now();
        dev.submit(IoRequest::single(Bio::new(
            IoOp::Write,
            0,
            new_buffer(64 * 1024),
            |r| r.unwrap(),
        )));
        engine.run_until_idle();
        let one = (engine.now() - t0).as_nanos();

        let t1 = engine.now();
        for i in 0..2u64 {
            dev.submit(IoRequest::single(Bio::new(
                IoOp::Write,
                i * 65536,
                new_buffer(64 * 1024),
                |r| r.unwrap(),
            )));
        }
        engine.run_until_idle();
        let two = (engine.now() - t1).as_nanos();
        assert!(
            two > one * 17 / 10,
            "two blocking writes ({two}ns) should cost near 2x one ({one}ns)"
        );
    }

    #[test]
    fn gige_slower_than_ipoib() {
        let run = |t: Transport| {
            let (engine, dev) = pair(t);
            let t0 = engine.now();
            for i in 0..4u64 {
                dev.submit(IoRequest::single(Bio::new(
                    IoOp::Write,
                    i * 131072,
                    new_buffer(128 * 1024),
                    |r| r.unwrap(),
                )));
            }
            engine.run_until_idle();
            (engine.now() - t0).as_nanos()
        };
        let gige = run(Transport::GigE);
        let ipoib = run(Transport::IpoIb);
        assert!(
            gige > ipoib,
            "GigE {gige} should be slower than IPoIB {ipoib}"
        );
    }

    #[test]
    fn out_of_range_rejected() {
        let (engine, dev) = pair(Transport::GigE);
        let got = Rc::new(Cell::new(None));
        {
            let got = got.clone();
            dev.submit(IoRequest::single(Bio::new(
                IoOp::Write,
                dev.capacity(),
                new_buffer(4096),
                move |r| got.set(Some(r)),
            )));
        }
        engine.run_until_idle();
        assert_eq!(got.get(), Some(Err(blockdev::IoError::OutOfRange)));
    }

    #[test]
    fn interleaved_read_write_alternation() {
        // Write then immediately read the same offset, repeatedly: the
        // serialized protocol must keep them ordered.
        let (engine, dev) = pair(Transport::GigE);
        for round in 0..8u64 {
            let buf = new_buffer(4096);
            buf.borrow_mut().fill(round as u8 + 1);
            dev.submit(IoRequest::single(Bio::new(IoOp::Write, 0, buf, |r| {
                r.unwrap()
            })));
            let rbuf = new_buffer(4096);
            let expect = round as u8 + 1;
            dev.submit(IoRequest::single(Bio::new(
                IoOp::Read,
                0,
                rbuf.clone(),
                move |r| r.unwrap(),
            )));
            engine.run_until_idle();
            assert!(
                rbuf.borrow().iter().all(|&b| b == expect),
                "round {round}: read saw stale data"
            );
        }
    }

    #[test]
    fn stats_track_traffic() {
        let (engine, dev) = pair(Transport::IpoIb);
        dev.submit(IoRequest::single(Bio::new(
            IoOp::Write,
            0,
            new_buffer(8192),
            |r| r.unwrap(),
        )));
        dev.submit(IoRequest::single(Bio::new(
            IoOp::Read,
            0,
            new_buffer(4096),
            |r| r.unwrap(),
        )));
        engine.run_until_idle();
        let s = dev.stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.bytes_out, 8192);
        assert_eq!(s.bytes_in, 4096);
    }

    #[test]
    fn tcp_reset_fails_inflight_and_queued_cleanly() {
        use blockdev::{DeviceHealth, FaultKind, IoError};
        let engine = Engine::new();
        let cal = Rc::new(Calibration::cluster_2005());
        let node = Node::new("client", 0, 2);
        // Reset the connection at t=0: it fires from the event loop while
        // the first request is on the wire.
        let plan = simfault::FaultPlan::new().tcp_reset(0);
        let dev = build_pair_with_faults(&engine, cal, Transport::GigE, &node, 8 << 20, &plan);
        assert_eq!(dev.health(), DeviceHealth::Healthy);
        let results: Vec<_> = (0..3u64)
            .map(|i| {
                let got = Rc::new(Cell::new(None));
                let sink = got.clone();
                dev.submit(IoRequest::single(Bio::new(
                    IoOp::Write,
                    i * 4096,
                    new_buffer(4096),
                    move |r| sink.set(Some(r)),
                )));
                got
            })
            .collect();
        engine.run_until_idle();
        // Every request failed cleanly — no hang, no lost completion.
        for (i, got) in results.iter().enumerate() {
            assert_eq!(
                got.get(),
                Some(Err(IoError::Fault(FaultKind::Reset))),
                "request {i} should fail with Reset"
            );
        }
        assert_eq!(dev.health(), DeviceHealth::Failed);

        // Submissions after the reset also fail cleanly, from the event loop.
        let got = Rc::new(Cell::new(None));
        let sink = got.clone();
        dev.submit(IoRequest::single(Bio::new(
            IoOp::Read,
            0,
            new_buffer(4096),
            move |r| sink.set(Some(r)),
        )));
        assert_eq!(got.get(), None, "completion must not run on submit's stack");
        engine.run_until_idle();
        assert_eq!(got.get(), Some(Err(IoError::Fault(FaultKind::Reset))));
    }

    #[test]
    fn shutdown_stops_new_submissions() {
        use blockdev::{DeviceHealth, FaultKind, IoError};
        let (engine, dev) = pair(Transport::IpoIb);
        dev.submit(IoRequest::single(Bio::new(
            IoOp::Write,
            0,
            new_buffer(4096),
            |r| r.unwrap(),
        )));
        engine.run_until_idle();
        dev.shutdown();
        assert_eq!(dev.health(), DeviceHealth::Failed);
        let got = Rc::new(Cell::new(None));
        let sink = got.clone();
        dev.submit(IoRequest::single(Bio::new(
            IoOp::Read,
            0,
            new_buffer(4096),
            move |r| sink.set(Some(r)),
        )));
        engine.run_until_idle();
        assert_eq!(got.get(), Some(Err(IoError::Fault(FaultKind::Reset))));
    }

    #[test]
    fn many_pages_integrity() {
        let (engine, dev) = pair(Transport::IpoIb);
        for i in 0..32u64 {
            let buf = new_buffer(4096);
            buf.borrow_mut().fill(i as u8 + 1);
            dev.submit(IoRequest::single(Bio::new(
                IoOp::Write,
                i * 4096,
                buf,
                |r| r.unwrap(),
            )));
        }
        engine.run_until_idle();
        let bufs: Vec<_> = (0..32u64)
            .map(|i| {
                let buf = new_buffer(4096);
                dev.submit(IoRequest::single(Bio::new(
                    IoOp::Read,
                    i * 4096,
                    buf.clone(),
                    |r| r.unwrap(),
                )));
                buf
            })
            .collect();
        engine.run_until_idle();
        for (i, buf) in bufs.iter().enumerate() {
            assert!(buf.borrow().iter().all(|&b| b == i as u8 + 1), "page {i}");
        }
    }
}
