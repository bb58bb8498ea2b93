#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! # tcpsim — simulated kernel TCP sockets over the modeled fabrics
//!
//! The paper's baseline, NBD, is a TCP/IP network block device; its
//! disadvantage relative to HPBD comes from exactly two modeled effects:
//! TCP/IP *stack processing on the host CPUs* (per-segment and per-byte
//! work on both ends, which competes with the application and the pager for
//! cycles) and *store-and-forward stream delivery* instead of zero-copy
//! RDMA placement. This crate provides connected, ordered, reliable byte
//! streams with those costs, parameterised by a
//! [`netmodel::TransportModel`] — instantiate with `Calibration::gige` for
//! NBD-over-GigE and `Calibration::ipoib` for NBD-over-IPoIB (same code
//! path above the IP layer, as the paper notes).
//!
//! Semantics: [`TcpConn::send`] is asynchronous and never blocks (the
//! paper's NBD deadlock over memory allocation in TCP is out of scope);
//! [`TcpConn::recv`] registers a continuation invoked once exactly `n`
//! bytes are available — stream framing is the caller's job, as with real
//! sockets.

use bytes::{Bytes, BytesMut};
use netmodel::{Node, TransportModel};
use simcore::{Engine, SimTime};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::rc::{Rc, Weak};

type RecvCallback = Box<dyn FnOnce(Bytes)>;
type ResetHandler = Box<dyn Fn()>;

struct ConnInner {
    engine: Engine,
    model: Rc<TransportModel>,
    node: Node,
    peer: RefCell<Weak<ConnInner>>,
    rx_buf: RefCell<BytesMut>,
    pending: RefCell<VecDeque<(usize, RecvCallback)>>,
    /// Enforces in-order stream delivery even when CPU scheduling would
    /// finish a later segment earlier.
    last_delivery: Cell<SimTime>,
    bytes_sent: Cell<u64>,
    bytes_received: Cell<u64>,
    /// Connection torn down (RST seen). Sends are discarded, buffered bytes
    /// are gone, and pending reads never fire.
    reset: Cell<bool>,
    /// Invoked (from the event loop) when the connection is reset, so
    /// protocol layers can fail their in-flight work instead of stalling.
    reset_handler: RefCell<Option<Rc<ResetHandler>>>,
}

/// One endpoint of a connected simulated TCP stream.
#[derive(Clone)]
pub struct TcpConn {
    inner: Rc<ConnInner>,
}

/// Create a connected socket pair between two nodes over `model`.
pub fn connect(
    engine: &Engine,
    model: Rc<TransportModel>,
    a: &Node,
    b: &Node,
) -> (TcpConn, TcpConn) {
    assert!(!a.same_node(b), "cannot connect a node to itself");
    let mk = |node: &Node| {
        Rc::new(ConnInner {
            engine: engine.clone(),
            model: model.clone(),
            node: node.clone(),
            peer: RefCell::new(Weak::new()),
            rx_buf: RefCell::new(BytesMut::new()),
            pending: RefCell::new(VecDeque::new()),
            last_delivery: Cell::new(SimTime::ZERO),
            bytes_sent: Cell::new(0),
            bytes_received: Cell::new(0),
            reset: Cell::new(false),
            reset_handler: RefCell::new(None),
        })
    };
    let ia = mk(a);
    let ib = mk(b);
    *ia.peer.borrow_mut() = Rc::downgrade(&ib);
    *ib.peer.borrow_mut() = Rc::downgrade(&ia);
    (TcpConn { inner: ia }, TcpConn { inner: ib })
}

impl TcpConn {
    /// The transport this stream runs over.
    pub fn model(&self) -> &TransportModel {
        &self.inner.model
    }

    /// Node this endpoint lives on.
    pub fn node(&self) -> &Node {
        &self.inner.node
    }

    /// Bytes queued for reading at this endpoint.
    pub fn available(&self) -> usize {
        self.inner.rx_buf.borrow().len()
    }

    /// Total payload bytes sent from this endpoint.
    pub fn bytes_sent(&self) -> u64 {
        self.inner.bytes_sent.get()
    }

    /// Total payload bytes delivered to this endpoint.
    pub fn bytes_received(&self) -> u64 {
        self.inner.bytes_received.get()
    }

    /// Queue `data` for transmission. Charges the sending CPU for stack
    /// processing, the ports for serialisation, and the receiving CPU for
    /// stack processing; the bytes become readable at the peer afterwards.
    pub fn send(&self, data: Bytes) {
        let inner = &self.inner;
        if inner.reset.get() {
            // Writing to a reset socket: the bytes go nowhere. The protocol
            // layer learns of the reset through its reset handler.
            return;
        }
        let Some(peer) = inner.peer.borrow().upgrade() else {
            // The peer endpoint was dropped (its node is gone): the bytes
            // vanish on the wire, exactly like a send into a dead host.
            return;
        };
        let len = data.len() as u64;
        inner.bytes_sent.set(inner.bytes_sent.get() + len);
        let now = inner.engine.now();

        // Sender stack occupies the CPU but PIPELINES with the wire: only
        // the first segment's processing delays transmission.
        inner
            .node
            .cpu()
            .reserve(now, inner.model.host_side_time(len));
        let startup_tx = inner.model.segment_startup(len);
        // Wire: tx port, propagation, rx port (cut-through).
        let wire = inner
            .model
            .wire_time(len)
            .max(inner.model.host_side_time(len));
        let prop = inner.model.propagation();
        let (_, tx_end) = inner.node.tx().reserve(now + startup_tx, wire);
        let rx_earliest = SimTime((tx_end + prop).as_nanos().saturating_sub(wire.as_nanos()));
        let (_, rx_end) = peer.node.rx().reserve(rx_earliest, wire);
        // Receiver stack: occupancy on the CPU, last segment's processing
        // in the latency path.
        peer.node
            .cpu()
            .reserve(rx_end, peer.model.host_side_time(len));
        let startup_rx = peer.model.segment_startup(len);
        // In-order delivery.
        let t_deliver = (rx_end + startup_rx).max(peer.last_delivery.get());
        peer.last_delivery.set(t_deliver);

        let peer2 = peer.clone();
        inner.engine.schedule_at(t_deliver, move || {
            if peer2.reset.get() {
                // Connection died while the bytes were in flight.
                return;
            }
            peer2.bytes_received.set(peer2.bytes_received.get() + len);
            peer2.rx_buf.borrow_mut().extend_from_slice(&data);
            drain_pending(&peer2);
        });
    }

    /// Invoke `cb` with exactly `n` bytes once they are available.
    /// Continuations are served FIFO, preserving stream order. On a reset
    /// connection the continuation is dropped without firing (the reset
    /// handler is the error path).
    pub fn recv(&self, n: usize, cb: impl FnOnce(Bytes) + 'static) {
        assert!(n > 0, "zero-byte recv");
        if self.inner.reset.get() {
            return;
        }
        self.inner.pending.borrow_mut().push_back((n, Box::new(cb)));
        // Serve immediately-satisfiable reads from the event loop, not the
        // caller's stack.
        let inner = self.inner.clone();
        self.inner
            .engine
            .schedule_at(self.inner.engine.now(), move || drain_pending(&inner));
    }

    /// True once the connection has been reset.
    pub fn is_reset(&self) -> bool {
        self.inner.reset.get()
    }

    /// Register a handler invoked (from the event loop) when the connection
    /// is reset. One handler per endpoint; later registrations replace it.
    pub fn set_reset_handler(&self, handler: impl Fn() + 'static) {
        *self.inner.reset_handler.borrow_mut() = Some(Rc::new(Box::new(handler)));
    }

    /// Reset the connection (RST): both endpoints stop sending and
    /// receiving, buffered and in-flight bytes are discarded, pending read
    /// continuations are dropped, and each endpoint's reset handler fires
    /// from the event loop at the current virtual instant.
    pub fn reset(&self) {
        let ends = [Some(self.inner.clone()), self.inner.peer.borrow().upgrade()];
        for end in ends.into_iter().flatten() {
            if end.reset.replace(true) {
                continue; // already reset
            }
            {
                // The shimmed BytesMut has no `clear`; drain via split_to.
                let mut buf = end.rx_buf.borrow_mut();
                let len = buf.len();
                let _ = buf.split_to(len);
            }
            end.pending.borrow_mut().clear();
            let handler = end.reset_handler.borrow().clone();
            if let Some(handler) = handler {
                end.engine.schedule_at(end.engine.now(), move || handler());
            }
        }
    }
}

fn drain_pending(inner: &Rc<ConnInner>) {
    loop {
        let ready = {
            let pending = inner.pending.borrow();
            match pending.front() {
                Some(&(n, _)) => inner.rx_buf.borrow().len() >= n,
                None => false,
            }
        };
        if !ready {
            return;
        }
        let Some((n, cb)) = inner.pending.borrow_mut().pop_front() else {
            return;
        };
        let chunk = inner.rx_buf.borrow_mut().split_to(n).freeze();
        cb(chunk);
    }
}

impl fmt::Debug for TcpConn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TcpConn")
            .field("node", &self.inner.node.name())
            .field("transport", &self.inner.model.name)
            .field("available", &self.available())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::Calibration;
    use std::cell::RefCell;

    fn setup(which: fn(&Calibration) -> &TransportModel) -> (Engine, TcpConn, TcpConn) {
        let engine = Engine::new();
        let cal = Calibration::cluster_2005();
        let model = Rc::new(which(&cal).clone());
        let a = Node::new("client", 0, 2);
        let b = Node::new("server", 1, 2);
        let (ca, cb) = connect(&engine, model, &a, &b);
        (engine, ca, cb)
    }

    #[test]
    fn bytes_arrive_intact() {
        let (engine, ca, cb) = setup(|c| &c.gige);
        let got: Rc<RefCell<Option<Bytes>>> = Rc::default();
        {
            let got = got.clone();
            cb.recv(11, move |b| *got.borrow_mut() = Some(b));
        }
        ca.send(Bytes::from_static(b"hello world"));
        engine.run_until_idle();
        assert_eq!(got.borrow().as_deref(), Some(b"hello world".as_ref()));
        assert_eq!(ca.bytes_sent(), 11);
        assert_eq!(cb.bytes_received(), 11);
    }

    #[test]
    fn stream_reassembles_across_sends_and_recvs() {
        let (engine, ca, cb) = setup(|c| &c.gige);
        let log: Rc<RefCell<Vec<Bytes>>> = Rc::default();
        // Two reads of 4 and 6 bytes, fed by three sends of other sizes.
        for &n in &[4usize, 6] {
            let log = log.clone();
            cb.recv(n, move |b| log.borrow_mut().push(b));
        }
        ca.send(Bytes::from_static(b"ab"));
        ca.send(Bytes::from_static(b"cdefg"));
        ca.send(Bytes::from_static(b"hij"));
        engine.run_until_idle();
        let log = log.borrow();
        assert_eq!(&log[0][..], b"abcd");
        assert_eq!(&log[1][..], b"efghij");
    }

    #[test]
    fn recv_before_send_waits() {
        let (engine, ca, cb) = setup(|c| &c.ipoib);
        let got: Rc<RefCell<Option<Bytes>>> = Rc::default();
        {
            let got = got.clone();
            cb.recv(3, move |b| *got.borrow_mut() = Some(b));
        }
        engine.run_until_idle();
        assert!(got.borrow().is_none());
        ca.send(Bytes::from_static(b"xyz"));
        engine.run_until_idle();
        assert_eq!(got.borrow().as_deref(), Some(b"xyz".as_ref()));
    }

    #[test]
    fn latency_matches_transport_model() {
        let (engine, ca, cb) = setup(|c| &c.gige);
        let t_arrived: Rc<RefCell<Option<SimTime>>> = Rc::default();
        {
            let t_arrived = t_arrived.clone();
            let eng = engine.clone();
            cb.recv(1024, move |_| *t_arrived.borrow_mut() = Some(eng.now()));
        }
        ca.send(Bytes::from(vec![0u8; 1024]));
        engine.run_until_idle();
        let cal = Calibration::cluster_2005();
        let expect = cal.gige.one_way_latency(1024).as_nanos();
        let got = t_arrived.borrow().expect("delivered").as_nanos();
        // Within 1us of the closed-form model (event rounding only).
        assert!(
            got.abs_diff(expect) < 1_000,
            "got {got}ns expected {expect}ns"
        );
    }

    #[test]
    fn ipoib_beats_gige_on_bulk_transfer() {
        // Same payload is faster over IPoIB than GigE (higher bandwidth),
        // which is the Figure 5 NBD-IPoIB vs NBD-GigE gap at transport level.
        let t = |which: fn(&Calibration) -> &TransportModel| {
            let (engine, ca, cb) = setup(which);
            let done: Rc<RefCell<Option<SimTime>>> = Rc::default();
            {
                let done = done.clone();
                let eng = engine.clone();
                cb.recv(128 * 1024, move |_| *done.borrow_mut() = Some(eng.now()));
            }
            ca.send(Bytes::from(vec![0u8; 128 * 1024]));
            engine.run_until_idle();
            let at = done.borrow().unwrap();
            at
        };
        let ipoib = t(|c| &c.ipoib);
        let gige = t(|c| &c.gige);
        assert!(ipoib < gige, "IPoIB {ipoib} should beat GigE {gige}");
    }

    #[test]
    fn delivery_is_in_order_despite_mixed_sizes() {
        let (engine, ca, cb) = setup(|c| &c.gige);
        // Large send followed by tiny send: the tiny one must not overtake.
        let order: Rc<RefCell<Vec<u8>>> = Rc::default();
        {
            let order = order.clone();
            cb.recv(64 * 1024, move |b| order.borrow_mut().push(b[0]));
        }
        {
            let order = order.clone();
            cb.recv(1, move |b| order.borrow_mut().push(b[0]));
        }
        ca.send(Bytes::from(vec![1u8; 64 * 1024]));
        ca.send(Bytes::from(vec![2u8]));
        engine.run_until_idle();
        assert_eq!(*order.borrow(), vec![1, 2]);
    }

    #[test]
    fn stack_cost_lands_on_cpus() {
        let (engine, ca, cb) = setup(|c| &c.gige);
        let before_tx = ca.node().cpu().busy_total();
        let before_rx = cb.node().cpu().busy_total();
        ca.send(Bytes::from(vec![0u8; 64 * 1024]));
        engine.run_until_idle();
        assert!(
            ca.node().cpu().busy_total() > before_tx,
            "sender stack work"
        );
        assert!(
            cb.node().cpu().busy_total() > before_rx,
            "receiver stack work"
        );
    }

    #[test]
    fn duplex_traffic_works() {
        let (engine, ca, cb) = setup(|c| &c.ipoib);
        let got_a: Rc<RefCell<Option<Bytes>>> = Rc::default();
        let got_b: Rc<RefCell<Option<Bytes>>> = Rc::default();
        {
            let g = got_a.clone();
            ca.recv(2, move |b| *g.borrow_mut() = Some(b));
        }
        {
            let g = got_b.clone();
            cb.recv(2, move |b| *g.borrow_mut() = Some(b));
        }
        ca.send(Bytes::from_static(b"to"));
        cb.send(Bytes::from_static(b"fr"));
        engine.run_until_idle();
        assert_eq!(got_b.borrow().as_deref(), Some(b"to".as_ref()));
        assert_eq!(got_a.borrow().as_deref(), Some(b"fr".as_ref()));
    }

    #[test]
    #[should_panic(expected = "zero-byte recv")]
    fn zero_recv_rejected() {
        let (_engine, _ca, cb) = setup(|c| &c.gige);
        cb.recv(0, |_| {});
    }

    #[test]
    fn reset_fires_both_handlers_and_drops_pending_reads() {
        let (engine, ca, cb) = setup(|c| &c.gige);
        let fired = Rc::new(Cell::new(0u32));
        for conn in [&ca, &cb] {
            let fired = fired.clone();
            conn.set_reset_handler(move || fired.set(fired.get() + 1));
        }
        let read_fired = Rc::new(Cell::new(false));
        {
            let read_fired = read_fired.clone();
            cb.recv(4, move |_| read_fired.set(true));
        }
        engine.run_until_idle();
        ca.reset();
        assert!(ca.is_reset() && cb.is_reset());
        // Handler runs from the event loop, not the reset() call stack.
        assert_eq!(fired.get(), 0);
        engine.run_until_idle();
        assert_eq!(fired.get(), 2);
        // The pending read never fires; sends after reset go nowhere.
        ca.send(Bytes::from_static(b"dead"));
        engine.run_until_idle();
        assert!(!read_fired.get());
        assert_eq!(cb.available(), 0);
    }

    #[test]
    fn bytes_in_flight_at_reset_are_discarded() {
        let (engine, ca, cb) = setup(|c| &c.gige);
        ca.send(Bytes::from_static(b"in-flight"));
        // Reset before the delivery event runs.
        ca.reset();
        engine.run_until_idle();
        assert_eq!(cb.available(), 0);
        assert_eq!(cb.bytes_received(), 0);
    }

    #[test]
    fn reset_is_idempotent() {
        let (engine, ca, cb) = setup(|c| &c.ipoib);
        let fired = Rc::new(Cell::new(0u32));
        {
            let fired = fired.clone();
            cb.set_reset_handler(move || fired.set(fired.get() + 1));
        }
        ca.reset();
        cb.reset();
        ca.reset();
        engine.run_until_idle();
        assert_eq!(fired.get(), 1, "handler fires once per connection death");
    }
}
