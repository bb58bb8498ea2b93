//! Figure 1: latency comparison of memcpy, RDMA write, IPoIB and GigE for
//! message sizes up to 128 KiB.
//!
//! The network latencies are *measured through the simulators* (an RDMA
//! write over `ibsim`, a one-way message over `tcpsim`), not just read off
//! the closed-form models — so this figure also validates that the
//! simulated stacks reproduce their own calibration.

use ibsim::{Fabric, RemoteSlice, WorkKind, WorkRequest};
use netmodel::{Calibration, Node};
use simcore::{Engine, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// One size point of Figure 1 (all latencies in microseconds).
#[derive(Clone, Debug)]
pub struct Point {
    /// Message size in bytes.
    pub size: u64,
    /// Local memcpy.
    pub memcpy_us: f64,
    /// One-way RDMA write (data placed at the remote).
    pub rdma_write_us: f64,
    /// One-way message over IPoIB.
    pub ipoib_us: f64,
    /// One-way message over GigE.
    pub gige_us: f64,
}

/// The sizes plotted by the paper (1 B to 128 KiB, powers of two).
pub fn sizes() -> Vec<u64> {
    (0..=17).map(|i| 1u64 << i).collect()
}

/// Measure one RDMA write's data-placement latency through `ibsim`.
fn measure_rdma(size: u64) -> f64 {
    let engine = Engine::new();
    let cal = Rc::new(Calibration::cluster_2005());
    let prop = cal.ib.propagation();
    let fabric = Fabric::new(engine.clone(), cal);
    let a = fabric.add_node("a");
    let b = fabric.add_node("b");
    let (acq, arcq, bcq, brcq) = (a.create_cq(), a.create_cq(), b.create_cq(), b.create_cq());
    let (qp, _qp_b) = fabric.connect(&a, &acq, &arcq, &b, &bcq, &brcq);
    let src = a.hca().register(size as usize);
    let dst = b.hca().register(size as usize);
    let wr = |id| WorkRequest {
        wr_id: id,
        kind: WorkKind::RdmaWrite {
            local: src.slice(0, size),
            remote: RemoteSlice {
                rkey: dst.rkey(),
                offset: 0,
                len: size,
            },
        },
        solicited: false,
    };
    // Warm the QP context caches.
    qp.post_send(wr(0)).expect("warmup");
    engine.run_until_idle();
    acq.drain();
    let t0 = engine.now();
    qp.post_send(wr(1)).expect("measured op");
    engine.run_until_idle();
    let completion = engine.now() - t0;
    // The requester completion includes the ack propagation; the quantity
    // Figure 1 plots is time-to-remote-placement.
    completion.saturating_sub(prop).as_micros_f64()
}

/// Measure a one-way `size`-byte message over a TCP transport.
fn measure_tcp(size: u64, which: fn(&Calibration) -> &netmodel::TransportModel) -> f64 {
    let engine = Engine::new();
    let cal = Calibration::cluster_2005();
    let model = Rc::new(which(&cal).clone());
    let a = Node::new("a", 0, 2);
    let b = Node::new("b", 1, 2);
    let (ca, cb) = tcpsim::connect(&engine, model, &a, &b);
    let arrived: Rc<RefCell<Option<SimTime>>> = Rc::default();
    {
        let arrived = arrived.clone();
        let eng = engine.clone();
        cb.recv(size as usize, move |_| {
            *arrived.borrow_mut() = Some(eng.now())
        });
    }
    ca.send(bytes::Bytes::from(vec![0u8; size as usize]));
    engine.run_until_idle();
    let at = arrived.borrow().expect("message delivered");
    at.as_nanos() as f64 / 1e3
}

/// Produce every point of Figure 1.
pub fn run() -> Vec<Point> {
    let cal = Calibration::cluster_2005();
    sizes()
        .into_iter()
        .map(|size| Point {
            size,
            memcpy_us: cal.memcpy_time(size).as_micros_f64(),
            rdma_write_us: measure_rdma(size),
            ipoib_us: measure_tcp(size, |c| &c.ipoib),
            gige_us: measure_tcp(size, |c| &c.gige),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_shape() {
        let points = run();
        assert_eq!(points.len(), 18);
        for p in &points {
            // Paper's headline: RDMA is comparable to memcpy; TCP paths are
            // far slower; GigE is the slowest.
            assert!(p.memcpy_us < p.rdma_write_us, "size {}", p.size);
            assert!(p.rdma_write_us < p.ipoib_us, "size {}", p.size);
            assert!(p.ipoib_us < p.gige_us, "size {}", p.size);
        }
        // At 128K: RDMA within ~2.5x of memcpy, IPoIB several times worse.
        let last = points.last().unwrap();
        assert!(last.rdma_write_us / last.memcpy_us < 2.5);
        assert!(last.ipoib_us / last.rdma_write_us > 3.0);
    }

    #[test]
    fn measured_rdma_tracks_model() {
        // The sim-measured RDMA latency should be close to the closed-form
        // wire model plus fixed per-op costs.
        let cal = Calibration::cluster_2005();
        let measured = measure_rdma(65536);
        let wire = cal.ib.one_way_latency(65536).as_micros_f64();
        assert!(
            (measured - wire).abs() < 10.0,
            "measured {measured}us vs model {wire}us"
        );
    }
}
