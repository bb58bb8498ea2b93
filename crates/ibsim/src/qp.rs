//! Reliable-connection queue pairs.
//!
//! A [`QueuePair`] models one side of an RC connection: a send queue and a
//! receive queue onto which work requests are posted non-blocking, with
//! completions reported through the associated CQs (paper §3.1). Both IBA
//! communication semantics are implemented:
//!
//! * **channel semantics** — `Send` work requests consume a pre-posted
//!   receive buffer at the peer. Arriving at a peer with an empty receive
//!   queue is an RNR failure reported to the *sender*, which is precisely
//!   the failure HPBD's credit-based flow control exists to prevent.
//! * **memory semantics** — `RdmaWrite` / `RdmaRead` move data between
//!   registered regions without consuming peer receives and without peer
//!   CPU involvement. rkey and bounds violations produce error completions.
//!
//! ## Timing
//!
//! Each posted request charges, in order: the posting CPU
//! ([`netmodel::Node::cpu`]), the local HCA's WQE pipeline (with QP-context
//! cache effects), the sender's tx port for the serialisation time, and the
//! receiver's rx port (cut-through, so an idle path costs `wire + α`).
//! RDMA READ adds a request propagation before the data flows back.
//!
//! ## Bytes
//!
//! An RDMA's bytes are those its source span holds when the operation
//! reads it: at post for an RDMA WRITE, when the request reaches the
//! responder for an RDMA READ. The operation holds them as references to
//! the source's pages, and they land when the target HCA has processed the
//! arriving data: a target page the span covers whole takes the source's
//! page, the rest is copied ([`crate::mr`]'s shared pages; a source
//! rewritten in between copies its page first). A `Send` payload is an
//! owned `Bytes`, copied into the receive buffer on delivery.

use crate::cq::{Completion, CompletionQueue, Opcode, WcStatus};
use crate::fault::{Budget, LinkFaults};
use crate::hca::Hca;
use crate::mr::{MrSlice, RemoteSlice};
use bytes::Bytes;
use netmodel::{Node, TransportModel};
use simcore::{Engine, SimDuration, SimTime};
use simtrace::LazyCounter;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::rc::{Rc, Weak};

/// The operation carried by a work request.
#[derive(Clone, Debug)]
pub enum WorkKind {
    /// Two-sided send; the peer must have a posted receive.
    Send {
        /// Message payload, copied into the peer's receive buffer.
        payload: Bytes,
    },
    /// One-sided write of `local` into the peer region named by `remote`.
    RdmaWrite {
        /// Local source slice.
        local: MrSlice,
        /// Remote destination descriptor.
        remote: RemoteSlice,
    },
    /// One-sided read of the peer region named by `remote` into `local`.
    RdmaRead {
        /// Local destination slice.
        local: MrSlice,
        /// Remote source descriptor.
        remote: RemoteSlice,
    },
}

/// A send-queue work request.
#[derive(Clone, Debug)]
pub struct WorkRequest {
    /// Caller-chosen id, returned in the completion.
    pub wr_id: u64,
    /// The operation.
    pub kind: WorkKind,
    /// Set the solicited-event flag on the message, so the peer's armed CQ
    /// delivers a completion event (HPBD's server sets this on replies so
    /// the client's receiver thread wakes; paper §5).
    pub solicited: bool,
}

/// Why a post was rejected at the verbs interface (before any wire traffic).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PostError {
    /// Send queue at capacity (too many uncompleted sends).
    SendQueueFull,
    /// Receive queue at capacity.
    RecvQueueFull,
    /// QP not connected to a live peer.
    NotConnected,
}

pub(crate) struct QpInner {
    engine: Engine,
    qp_num: u32,
    node: Node,
    hca: Hca,
    send_cq: CompletionQueue,
    recv_cq: CompletionQueue,
    model: TransportModel,
    peer: RefCell<Weak<QpInner>>,
    recv_queue: RefCell<VecDeque<(u64, MrSlice)>>,
    outstanding_send: Cell<usize>,
    max_send_wr: usize,
    max_recv_wr: usize,
    /// Injected link faults; `None` (the default) keeps the hot path free
    /// of any fault arithmetic so unfaulted runs stay bit-identical.
    faults: RefCell<Option<LinkFaults>>,
    ctr_sends: LazyCounter,
    ctr_rdma_reads: LazyCounter,
    ctr_rdma_writes: LazyCounter,
}

/// One endpoint of an RC connection. Clone freely; clones share state.
#[derive(Clone)]
pub struct QueuePair {
    inner: Rc<QpInner>,
}

impl QueuePair {
    #[expect(
        clippy::too_many_arguments,
        reason = "the fabric hands over every part of the QP it wired"
    )]
    pub(crate) fn new(
        engine: Engine,
        qp_num: u32,
        node: Node,
        hca: Hca,
        send_cq: CompletionQueue,
        recv_cq: CompletionQueue,
        model: TransportModel,
        max_send_wr: usize,
        max_recv_wr: usize,
    ) -> QueuePair {
        QueuePair {
            inner: Rc::new(QpInner {
                ctr_sends: engine.metrics().lazy_counter("ibsim.sends"),
                ctr_rdma_reads: engine.metrics().lazy_counter("ibsim.rdma_reads"),
                ctr_rdma_writes: engine.metrics().lazy_counter("ibsim.rdma_writes"),
                engine,
                qp_num,
                node,
                hca,
                send_cq,
                recv_cq,
                model,
                peer: RefCell::new(Weak::new()),
                recv_queue: RefCell::new(VecDeque::new()),
                outstanding_send: Cell::new(0),
                max_send_wr,
                max_recv_wr,
                faults: RefCell::new(None),
            }),
        }
    }

    pub(crate) fn wire_peers(a: &QueuePair, b: &QueuePair) {
        *a.inner.peer.borrow_mut() = Rc::downgrade(&b.inner);
        *b.inner.peer.borrow_mut() = Rc::downgrade(&a.inner);
    }

    /// This QP's number (appears in completions; feeds the HCA's context
    /// cache).
    pub fn qp_num(&self) -> u32 {
        self.inner.qp_num
    }

    /// The node this QP lives on.
    pub fn node(&self) -> &Node {
        &self.inner.node
    }

    /// The HCA this QP lives on.
    pub fn hca(&self) -> &Hca {
        &self.inner.hca
    }

    /// CQ receiving send-side completions.
    pub fn send_cq(&self) -> &CompletionQueue {
        &self.inner.send_cq
    }

    /// CQ receiving receive-side completions.
    pub fn recv_cq(&self) -> &CompletionQueue {
        &self.inner.recv_cq
    }

    /// Posted receives not yet consumed.
    pub fn recv_queue_depth(&self) -> usize {
        self.inner.recv_queue.borrow().len()
    }

    /// Install a shared fault handle for this QP's link. Fault plans set
    /// the *same* handle on both ends of a connection so degradation is
    /// symmetric and drop/error budgets are shared.
    pub fn set_link_faults(&self, faults: LinkFaults) {
        *self.inner.faults.borrow_mut() = Some(faults);
    }

    /// One-way propagation, including any injected link latency.
    fn eff_prop(&self) -> SimDuration {
        let p = self.inner.model.propagation();
        match self.inner.faults.borrow().as_ref() {
            Some(f) => p + f.extra_latency(),
            None => p,
        }
    }

    /// Apply any injected bandwidth cut to a serialisation time.
    fn eff_stretch(&self, wire: SimDuration) -> SimDuration {
        match self.inner.faults.borrow().as_ref() {
            Some(f) => f.stretch(wire),
            None => wire,
        }
    }

    /// Serialisation time for `len` bytes, including any bandwidth cut.
    fn eff_wire(&self, len: u64) -> SimDuration {
        self.eff_stretch(self.inner.model.wire_time(len))
    }

    /// Post a receive buffer (`VAPI_post_rr`). Consumed FIFO by incoming
    /// sends.
    pub fn post_recv(&self, wr_id: u64, buffer: MrSlice) -> Result<(), PostError> {
        let mut q = self.inner.recv_queue.borrow_mut();
        if q.len() >= self.inner.max_recv_wr {
            return Err(PostError::RecvQueueFull);
        }
        q.push_back((wr_id, buffer));
        Ok(())
    }

    /// Post a send-queue work request (`VAPI_post_sr`). Non-blocking: the
    /// outcome arrives later on the send CQ (and, for `Send`, on the peer's
    /// receive CQ).
    pub fn post_send(&self, wr: WorkRequest) -> Result<(), PostError> {
        self.post_chain(1, std::iter::once(wr))
    }

    /// Post a chain of work requests with ONE doorbell
    /// (`VAPI_post_sr_list` analogue). The posting CPU pays the full
    /// descriptor+doorbell cost once plus the cheaper chained cost per
    /// subsequent WQE; the HCA still processes every WQE individually and
    /// every element completes on the send CQ exactly as if posted alone.
    ///
    /// All-or-nothing at the verbs interface: a chain that does not fit in
    /// the send queue is rejected whole, with nothing posted. Returns the
    /// number of WQEs posted.
    pub fn post_send_many(&self, wrs: Vec<WorkRequest>) -> Result<usize, PostError> {
        let n = wrs.len();
        if n == 0 {
            return Ok(0);
        }
        self.post_chain(n, wrs).map(|()| n)
    }

    /// The one posting body: `n` WQEs (`n >= 1`) behind one doorbell. A
    /// chain of one costs `post_ns`, exactly a single post.
    fn post_chain(
        &self,
        n: usize,
        wrs: impl IntoIterator<Item = WorkRequest>,
    ) -> Result<(), PostError> {
        let inner = &self.inner;
        let peer = inner
            .peer
            .borrow()
            .upgrade()
            .ok_or(PostError::NotConnected)?;
        if inner.outstanding_send.get() + n > inner.max_send_wr {
            return Err(PostError::SendQueueFull);
        }
        inner.outstanding_send.set(inner.outstanding_send.get() + n);

        let now = inner.engine.now();
        let params = inner.hca.params();
        // One doorbell for the whole chain: full post cost for the head,
        // chained cost for every linked WQE after it.
        let post =
            SimDuration::from_nanos(params.post_ns + (n as u64 - 1) * params.chained_post_ns);
        let (_, t_posted) = inner.node.cpu().reserve(now, post);
        for wr in wrs {
            self.dispatch_wr(peer.clone(), now, t_posted, wr);
        }
        Ok(())
    }

    /// Hand one posted WQE to the HCA pipeline: WQE processing, injected
    /// fault errors, then the kind-specific wire state machine. Called by
    /// `post_chain` once per WQE; `posted` is the post instant (trace span
    /// start), `t_posted` the instant the posting CPU finished.
    fn dispatch_wr(&self, peer: Rc<QpInner>, posted: SimTime, t_posted: SimTime, wr: WorkRequest) {
        let inner = &self.inner;
        // Local HCA fetches and processes the WQE.
        let t_hca = inner.hca.process_wqe(t_posted, inner.qp_num);

        // Injected completion-with-error: the transport gives up on this
        // work request without any wire traffic — the caller sees a
        // RetryExceeded completion, exactly like exhausted RC retries.
        let injected_error = inner
            .faults
            .borrow()
            .as_ref()
            .is_some_and(|f| f.take(Budget::CompletionError));
        if injected_error {
            let opcode = match wr.kind {
                WorkKind::Send { .. } => Opcode::Send,
                WorkKind::RdmaWrite { .. } => Opcode::RdmaWrite,
                WorkKind::RdmaRead { .. } => Opcode::RdmaRead,
            };
            self.complete_send(posted, t_hca, wr.wr_id, opcode, WcStatus::RetryExceeded, 0);
            return;
        }

        match wr.kind {
            WorkKind::Send { ref payload } => {
                inner.ctr_sends.inc();
                self.do_send(peer, wr.wr_id, payload.clone(), wr.solicited, posted, t_hca);
            }
            WorkKind::RdmaWrite {
                ref local,
                ref remote,
            } => {
                inner.ctr_rdma_writes.inc();
                self.do_rdma_write(peer, wr.wr_id, local.clone(), *remote, posted, t_hca);
            }
            WorkKind::RdmaRead {
                ref local,
                ref remote,
            } => {
                inner.ctr_rdma_reads.inc();
                self.do_rdma_read(peer, wr.wr_id, local.clone(), *remote, posted, t_hca);
            }
        }
    }

    /// Deliver a completion to this QP's send CQ and release a send-queue
    /// slot. `posted` is the original post instant, for the trace span.
    fn complete_send(
        &self,
        posted: SimTime,
        at: SimTime,
        wr_id: u64,
        opcode: Opcode,
        status: WcStatus,
        len: u64,
    ) {
        let this = self.inner.clone();
        self.inner.engine.schedule_at(at, move || {
            this.outstanding_send
                .set(this.outstanding_send.get().saturating_sub(1));
            let name = match opcode {
                Opcode::Send => "send",
                Opcode::RdmaWrite => "rdma_write",
                Opcode::RdmaRead => "rdma_read",
                Opcode::Recv => "recv",
            };
            this.engine.span(
                "ibsim",
                name,
                posted.as_nanos(),
                this.engine.now().as_nanos(),
                &[
                    ("bytes", len),
                    ("qp", this.qp_num as u64),
                    ("ok", (status == WcStatus::Success) as u64),
                ],
            );
            if opcode == Opcode::Send && status == WcStatus::Success {
                // The send completed: the message has left the wire. Only
                // `Send` wr_ids share the request-id namespace the lifecycle
                // registry keys on (RDMA wr_ids are server-local tokens).
                this.engine.lifecycle().mark_phys(
                    wr_id,
                    simtrace::MarkKind::WireTx,
                    this.engine.now().as_nanos(),
                );
            }
            this.send_cq.push(Completion {
                wr_id,
                opcode,
                status,
                byte_len: len,
                qp_num: this.qp_num,
                solicited: false,
            });
        });
    }

    /// Serialise `len` bytes out of this node and into `peer`'s rx port.
    /// Returns the instant the last byte lands at the peer.
    fn wire_transfer(&self, peer: &QpInner, start: SimTime, len: u64) -> SimTime {
        let inner = &self.inner;
        let wire = self.eff_wire(len);
        let prop = self.eff_prop();
        let (_, tx_end) = inner.node.tx().reserve(start, wire);
        // Cut-through: the head of the message reaches the peer α after it
        // left; the rx port is busy while the bits stream in.
        let rx_earliest = (tx_end + prop).saturating_minus(wire);
        let (_, rx_end) = peer.node.rx().reserve(rx_earliest, wire);
        rx_end
    }

    fn do_send(
        &self,
        peer: Rc<QpInner>,
        wr_id: u64,
        payload: Bytes,
        solicited: bool,
        posted: SimTime,
        t_hca: SimTime,
    ) {
        let inner = self.inner.clone();
        let len = payload.len() as u64;

        // Injected message loss: the bits leave the sender's tx port and
        // then vanish in the fabric — no delivery, no completion. Only the
        // send-queue slot is quietly released once serialisation ends, so
        // losses don't permanently shrink the send queue.
        let dropped = inner
            .faults
            .borrow()
            .as_ref()
            .is_some_and(|f| f.take(Budget::Loss));
        if dropped {
            let wire = self.eff_wire(len);
            let (_, tx_end) = inner.node.tx().reserve(t_hca, wire);
            let this = self.inner.clone();
            inner.engine.schedule_at(tx_end, move || {
                this.outstanding_send
                    .set(this.outstanding_send.get().saturating_sub(1));
            });
            return;
        }

        // Injected delivery delay / duplication. A delay stretches only the
        // in-flight time, so the message can land after the timeout that
        // gave up on it; a duplicate schedules a second, ghost delivery of
        // the same bytes. Both consume their budget per message.
        let (extra_delay, duplicated) = match inner.faults.borrow().as_ref() {
            Some(f) => (f.take_delay(), f.take(Budget::Duplicate)),
            None => (None, false),
        };

        let mut delivered = self.wire_transfer(&peer, t_hca, len);
        if let Some(d) = extra_delay {
            delivered += d;
        }

        let dup_payload = if duplicated {
            Some(payload.clone())
        } else {
            None
        };

        // Delivery at the peer: consume a receive, place the payload. The
        // local send completion fires only after the RC ack confirms the
        // outcome — RNR turns into a sender-side error, not a silent drop.
        let this = self.clone();
        let peer2 = peer.clone();
        inner.engine.schedule_at(delivered, move || {
            let t_placed = peer2.hca.process_wqe(peer2.engine.now(), peer2.qp_num);
            let ack = t_placed + this.eff_prop();
            let entry = peer2.recv_queue.borrow_mut().pop_front();
            match entry {
                None => {
                    // Receiver not ready: RC retries exhaust and the SENDER
                    // sees the failure.
                    this.complete_send(
                        posted,
                        ack,
                        wr_id,
                        Opcode::Send,
                        WcStatus::RnrRetryExceeded,
                        0,
                    );
                }
                Some(recv) => {
                    this.complete_send(posted, ack, wr_id, Opcode::Send, WcStatus::Success, len);
                    place_recv(&peer2, recv, &payload, solicited, t_placed);
                }
            }
        });

        if let Some(ghost) = dup_payload {
            // Fabric-level ghost copy: it consumes a posted receive at the
            // destination and places the same payload, but the sender sees
            // only the one completion from the real copy above. Scheduled
            // after the real delivery at the same instant (engine FIFO), so
            // the real copy consumes the first receive. With no receive
            // posted the ghost vanishes silently — RNR reporting belongs to
            // the real copy alone.
            inner.engine.schedule_at(delivered, move || {
                let t_placed = peer.hca.process_wqe(peer.engine.now(), peer.qp_num);
                let entry = peer.recv_queue.borrow_mut().pop_front();
                if let Some(recv) = entry {
                    place_recv(&peer, recv, &ghost, solicited, t_placed);
                }
            });
        }
    }

    fn do_rdma_write(
        &self,
        peer: Rc<QpInner>,
        wr_id: u64,
        local: MrSlice,
        remote: RemoteSlice,
        posted: SimTime,
        t_hca: SimTime,
    ) {
        let inner = self.inner.clone();
        // Local protection check happens in the HCA before any wire traffic.
        if !local.mr.contains(local.offset, local.len) || local.len != remote.len {
            self.complete_send(
                posted,
                t_hca,
                wr_id,
                Opcode::RdmaWrite,
                WcStatus::LocalProtectionError,
                0,
            );
            return;
        }
        let len = local.len;
        let data = local.mr.snapshot(local.offset as usize, len as usize);

        let placed = self.wire_transfer(&peer, t_hca, len);
        let this = self.clone();
        inner.engine.schedule_at(placed, move || {
            let t_done = peer.hca.process_wqe(peer.engine.now(), peer.qp_num);
            let prop = this.eff_prop();
            match peer.hca.lookup_rkey(remote.rkey) {
                Some(region) if region.contains(remote.offset, len) => {
                    let peer2 = peer.clone();
                    let this2 = this.clone();
                    peer.engine.schedule_at(t_done, move || {
                        data.place(&region, remote.offset as usize);
                        let _ = peer2;
                        // Ack travels back; requester completion after it.
                        this2.complete_send(
                            posted,
                            this2.inner.engine.now() + prop,
                            wr_id,
                            Opcode::RdmaWrite,
                            WcStatus::Success,
                            len,
                        );
                    });
                }
                _ => {
                    // Refused: the snapshot is never landed.
                    drop(data);
                    this.complete_send(
                        posted,
                        t_done + prop,
                        wr_id,
                        Opcode::RdmaWrite,
                        WcStatus::RemoteAccessError,
                        0,
                    );
                }
            }
        });
    }

    fn do_rdma_read(
        &self,
        peer: Rc<QpInner>,
        wr_id: u64,
        local: MrSlice,
        remote: RemoteSlice,
        posted: SimTime,
        t_hca: SimTime,
    ) {
        let inner = self.inner.clone();
        if !local.mr.contains(local.offset, local.len) || local.len != remote.len {
            self.complete_send(
                posted,
                t_hca,
                wr_id,
                Opcode::RdmaRead,
                WcStatus::LocalProtectionError,
                0,
            );
            return;
        }
        let len = local.len;
        let prop = self.eff_prop();
        // The read REQUEST is a small control packet: one propagation.
        let t_req_arrives = t_hca + prop;
        let this = self.clone();
        inner.engine.schedule_at(t_req_arrives, move || {
            let t_srv = peer.hca.process_wqe(peer.engine.now(), peer.qp_num);
            match peer.hca.lookup_rkey(remote.rkey) {
                Some(region) if region.contains(remote.offset, len) => {
                    let data = region.snapshot(remote.offset as usize, len as usize);
                    // Data streams back: peer tx -> our rx. READ responses
                    // are limited by the Tavor HCA's read bandwidth.
                    let read_bw = this
                        .inner
                        .model
                        .bytes_per_ns
                        .min(peer.hca.params().rdma_read_bytes_per_ns);
                    let wire = this.eff_stretch(simcore::SimDuration::from_nanos(
                        (len as f64 / read_bw).round() as u64,
                    ));
                    let (_, tx_end) = peer.node.tx().reserve(t_srv, wire);
                    let rx_earliest = (tx_end + prop).saturating_minus(wire);
                    let (_, rx_end) = this.inner.node.rx().reserve(rx_earliest, wire);
                    let this2 = this.clone();
                    this.inner.engine.schedule_at(rx_end, move || {
                        let t_done = this2
                            .inner
                            .hca
                            .process_wqe(this2.inner.engine.now(), this2.inner.qp_num);
                        let this3 = this2.clone();
                        this2.inner.engine.schedule_at(t_done, move || {
                            data.place(&local.mr, local.offset as usize);
                            this3.complete_send(
                                posted,
                                this3.inner.engine.now(),
                                wr_id,
                                Opcode::RdmaRead,
                                WcStatus::Success,
                                len,
                            );
                        });
                    });
                }
                _ => {
                    this.complete_send(
                        posted,
                        t_srv + prop,
                        wr_id,
                        Opcode::RdmaRead,
                        WcStatus::RemoteAccessError,
                        0,
                    );
                }
            }
        });
    }
}

impl fmt::Debug for QueuePair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueuePair")
            .field("qp_num", &self.inner.qp_num)
            .field("node", &self.inner.node.name())
            .field("recv_depth", &self.recv_queue_depth())
            .finish()
    }
}

/// Place a delivered `payload` in the receive buffer `recv` popped from
/// `peer`'s receive queue, and complete that receive at `t_placed`: a
/// payload longer than the buffer completes with `LocalLengthError` and
/// writes nothing.
fn place_recv(
    peer: &Rc<QpInner>,
    (recv_wr_id, slice): (u64, MrSlice),
    payload: &[u8],
    solicited: bool,
    t_placed: SimTime,
) {
    let len = payload.len() as u64;
    let status = if len > slice.len {
        WcStatus::LocalLengthError
    } else {
        slice.mr.write(slice.offset as usize, payload);
        WcStatus::Success
    };
    let peer2 = peer.clone();
    peer.engine.schedule_at(t_placed, move || {
        peer2.recv_cq.push(Completion {
            wr_id: recv_wr_id,
            opcode: Opcode::Recv,
            status,
            byte_len: len,
            qp_num: peer2.qp_num,
            solicited,
        });
    });
}

/// Saturating `SimTime - SimDuration` helper (never goes below zero).
trait SaturatingMinus {
    fn saturating_minus(self, d: SimDuration) -> SimTime;
}

impl SaturatingMinus for SimTime {
    fn saturating_minus(self, d: SimDuration) -> SimTime {
        SimTime(self.as_nanos().saturating_sub(d.as_nanos()))
    }
}
