//! The switched fabric: node creation and connection management.
//!
//! [`Fabric`] stands in for the single Mellanox MTS-14400 switch of the
//! testbed plus the out-of-band connection setup HPBD performs over a
//! socket at initialisation (paper §5): `connect` creates a pair of RC QPs
//! already wired to each other.

use crate::cq::CompletionQueue;
use crate::hca::Hca;
use crate::qp::QueuePair;
use netmodel::{Calibration, MemoryModel, Node};
use simcore::{Engine, SimDuration};
use std::cell::Cell;
use std::rc::Rc;

/// Default send/receive queue capacities for created QPs.
pub const DEFAULT_MAX_WR: usize = 256;

/// One IB-attached node: the node resources plus its HCA.
#[derive(Clone)]
pub struct IbNode {
    node: Node,
    hca: Hca,
    engine: Engine,
    cal: Rc<Calibration>,
}

impl IbNode {
    /// The underlying cluster node (CPU + port resources).
    pub fn node(&self) -> &Node {
        &self.node
    }

    /// This node's HCA.
    pub fn hca(&self) -> &Hca {
        &self.hca
    }

    /// Create a completion queue on this node. Completion events are
    /// delivered with the calibrated interrupt latency.
    pub fn create_cq(&self) -> CompletionQueue {
        CompletionQueue::new(
            self.engine.clone(),
            SimDuration::from_nanos(self.cal.hca.completion_event_ns),
        )
    }

    /// A memory model charging copies against this node's CPUs.
    pub fn memory_model(&self) -> MemoryModel {
        MemoryModel::new(self.cal.clone(), self.node.cpu().clone())
    }
}

/// The fabric: owns the calibration and hands out nodes and connections.
/// Cloning shares the fabric (same id counters).
#[derive(Clone)]
pub struct Fabric {
    engine: Engine,
    cal: Rc<Calibration>,
    next_node_id: Rc<Cell<usize>>,
    next_qp_num: Rc<Cell<u32>>,
}

impl Fabric {
    /// Create a fabric with the given calibration.
    pub fn new(engine: Engine, cal: Rc<Calibration>) -> Fabric {
        Fabric {
            engine,
            cal,
            next_node_id: Rc::new(Cell::new(0)),
            next_qp_num: Rc::new(Cell::new(1)),
        }
    }

    /// The calibration in effect.
    pub fn calibration(&self) -> &Rc<Calibration> {
        &self.cal
    }

    /// The shared engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Add a dual-CPU node with an HCA to the fabric.
    pub fn add_node(&self, name: impl Into<String>) -> IbNode {
        let id = self.next_node_id.get();
        self.next_node_id.set(id + 1);
        let hca = Hca::new(self.cal.hca.clone());
        hca.set_metrics(self.engine.metrics());
        IbNode {
            node: Node::new(name, id, 2),
            hca,
            engine: self.engine.clone(),
            cal: self.cal.clone(),
        }
    }

    /// Connect two nodes with a pair of RC QPs using the given CQs and
    /// default queue depths. Returns `(qp_on_a, qp_on_b)`.
    pub fn connect(
        &self,
        a: &IbNode,
        a_send_cq: &CompletionQueue,
        a_recv_cq: &CompletionQueue,
        b: &IbNode,
        b_send_cq: &CompletionQueue,
        b_recv_cq: &CompletionQueue,
    ) -> (QueuePair, QueuePair) {
        self.connect_with_depth(
            a,
            a_send_cq,
            a_recv_cq,
            b,
            b_send_cq,
            b_recv_cq,
            DEFAULT_MAX_WR,
            DEFAULT_MAX_WR,
        )
    }

    /// [`Fabric::connect`] with explicit send/recv queue capacities.
    #[expect(
        clippy::too_many_arguments,
        reason = "each endpoint's node and two CQs, plus both queue depths, as ibv_create_qp takes them"
    )]
    pub fn connect_with_depth(
        &self,
        a: &IbNode,
        a_send_cq: &CompletionQueue,
        a_recv_cq: &CompletionQueue,
        b: &IbNode,
        b_send_cq: &CompletionQueue,
        b_recv_cq: &CompletionQueue,
        max_send_wr: usize,
        max_recv_wr: usize,
    ) -> (QueuePair, QueuePair) {
        assert!(
            !a.node.same_node(&b.node),
            "cannot connect a node to itself"
        );
        let qa = self.next_qp_num.get();
        self.next_qp_num.set(qa + 2);
        let qp_a = QueuePair::new(
            self.engine.clone(),
            qa,
            a.node.clone(),
            a.hca.clone(),
            a_send_cq.clone(),
            a_recv_cq.clone(),
            self.cal.ib.clone(),
            max_send_wr,
            max_recv_wr,
        );
        let qp_b = QueuePair::new(
            self.engine.clone(),
            qa + 1,
            b.node.clone(),
            b.hca.clone(),
            b_send_cq.clone(),
            b_recv_cq.clone(),
            self.cal.ib.clone(),
            max_send_wr,
            max_recv_wr,
        );
        a.hca.note_qp_connected();
        b.hca.note_qp_connected();
        QueuePair::wire_peers(&qp_a, &qp_b);
        (qp_a, qp_b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cq::{Opcode, WcStatus};
    use crate::mr::MemoryRegion;
    use crate::qp::{PostError, WorkKind, WorkRequest};
    use bytes::Bytes;
    use simcore::SimTime;

    struct Pair {
        engine: Engine,
        cal: Rc<Calibration>,
        a: IbNode,
        b: IbNode,
        qp_a: QueuePair,
        qp_b: QueuePair,
    }

    fn pair() -> Pair {
        let engine = Engine::new();
        let cal = Rc::new(Calibration::cluster_2005());
        let fabric = Fabric::new(engine.clone(), cal.clone());
        let a = fabric.add_node("client");
        let b = fabric.add_node("server");
        let a_cq = a.create_cq();
        let a_rcq = a.create_cq();
        let b_cq = b.create_cq();
        let b_rcq = b.create_cq();
        let (qp_a, qp_b) = fabric.connect(&a, &a_cq, &a_rcq, &b, &b_cq, &b_rcq);
        Pair {
            engine,
            cal,
            a,
            b,
            qp_a,
            qp_b,
        }
    }

    #[test]
    fn send_recv_moves_data_and_completes_both_sides() {
        let p = pair();
        let rbuf = p.b.hca().register(128);
        p.qp_b.post_recv(42, rbuf.slice(0, 128)).unwrap();
        p.qp_a
            .post_send(WorkRequest {
                wr_id: 9,
                kind: WorkKind::Send {
                    payload: Bytes::from_static(b"hello hpbd"),
                },
                solicited: true,
            })
            .unwrap();
        p.engine.run_until_idle();

        let send_c = p.qp_a.send_cq().poll().expect("send completion");
        assert_eq!(send_c.wr_id, 9);
        assert_eq!(send_c.opcode, Opcode::Send);
        assert_eq!(send_c.status, WcStatus::Success);

        let recv_c = p.qp_b.recv_cq().poll().expect("recv completion");
        assert_eq!(recv_c.wr_id, 42);
        assert_eq!(recv_c.byte_len, 10);
        assert!(recv_c.solicited);
        let mut out = [0u8; 10];
        rbuf.read(0, &mut out);
        assert_eq!(&out, b"hello hpbd");
    }

    #[test]
    fn send_without_posted_recv_fails_at_sender() {
        let p = pair();
        p.qp_a
            .post_send(WorkRequest {
                wr_id: 1,
                kind: WorkKind::Send {
                    payload: Bytes::from_static(b"x"),
                },
                solicited: false,
            })
            .unwrap();
        p.engine.run_until_idle();
        let c = p.qp_a.send_cq().poll().expect("completion");
        assert_eq!(c.status, WcStatus::RnrRetryExceeded);
        assert!(p.qp_b.recv_cq().poll().is_none());
    }

    #[test]
    fn rdma_write_places_data_remotely() {
        let p = pair();
        let src = p.a.hca().register(4096);
        let dst = p.b.hca().register(4096);
        src.write(0, &[7u8; 4096]);
        p.qp_a
            .post_send(WorkRequest {
                wr_id: 2,
                kind: WorkKind::RdmaWrite {
                    local: src.slice(0, 4096),
                    remote: crate::RemoteSlice {
                        rkey: dst.rkey(),
                        offset: 0,
                        len: 4096,
                    },
                },
                solicited: false,
            })
            .unwrap();
        p.engine.run_until_idle();
        let c = p.qp_a.send_cq().poll().unwrap();
        assert_eq!(c.status, WcStatus::Success);
        assert_eq!(c.opcode, Opcode::RdmaWrite);
        let mut out = [0u8; 4096];
        dst.read(0, &mut out);
        assert!(out.iter().all(|&b| b == 7));
        // No peer-side completion for one-sided ops.
        assert!(p.qp_b.recv_cq().poll().is_none());
        assert!(p.qp_b.send_cq().poll().is_none());
    }

    #[test]
    fn rdma_read_pulls_data() {
        let p = pair();
        let dst = p.a.hca().register(1024);
        let src = p.b.hca().register(1024);
        src.write(0, &[0xAB; 1024]);
        p.qp_a
            .post_send(WorkRequest {
                wr_id: 3,
                kind: WorkKind::RdmaRead {
                    local: dst.slice(0, 1024),
                    remote: crate::RemoteSlice {
                        rkey: src.rkey(),
                        offset: 0,
                        len: 1024,
                    },
                },
                solicited: false,
            })
            .unwrap();
        p.engine.run_until_idle();
        let c = p.qp_a.send_cq().poll().unwrap();
        assert_eq!(c.status, WcStatus::Success);
        let mut out = [0u8; 1024];
        dst.read(0, &mut out);
        assert!(out.iter().all(|&b| b == 0xAB));
    }

    #[test]
    fn rdma_read_latency_exceeds_write_latency() {
        // READ pays an extra propagation for the request leg — the reason
        // the server pulls swap-out data but pushes swap-in data matters.
        let p = pair();
        let buf_a = p.a.hca().register(65536);
        let buf_b = p.b.hca().register(65536);
        // Warm the QP context caches on both HCAs so the comparison is
        // about protocol legs, not cold-start context loads.
        for wr_id in [100, 101] {
            p.qp_a
                .post_send(WorkRequest {
                    wr_id,
                    kind: WorkKind::RdmaWrite {
                        local: buf_a.slice(0, 64),
                        remote: crate::RemoteSlice {
                            rkey: buf_b.rkey(),
                            offset: 0,
                            len: 64,
                        },
                    },
                    solicited: false,
                })
                .unwrap();
            p.engine.run_until_idle();
            p.qp_a.send_cq().drain();
        }
        let t0 = p.engine.now();
        p.qp_a
            .post_send(WorkRequest {
                wr_id: 1,
                kind: WorkKind::RdmaWrite {
                    local: buf_a.slice(0, 65536),
                    remote: crate::RemoteSlice {
                        rkey: buf_b.rkey(),
                        offset: 0,
                        len: 65536,
                    },
                },
                solicited: false,
            })
            .unwrap();
        p.engine.run_until_idle();
        let write_done = p.engine.now() - t0;
        assert!(p.qp_a.send_cq().poll().is_some());

        let t1 = p.engine.now();
        p.qp_a
            .post_send(WorkRequest {
                wr_id: 2,
                kind: WorkKind::RdmaRead {
                    local: buf_a.slice(0, 65536),
                    remote: crate::RemoteSlice {
                        rkey: buf_b.rkey(),
                        offset: 0,
                        len: 65536,
                    },
                },
                solicited: false,
            })
            .unwrap();
        p.engine.run_until_idle();
        let read_done = p.engine.now() - t1;
        assert!(
            read_done > write_done,
            "read {read_done} should exceed write {write_done}"
        );
    }

    #[test]
    fn bad_rkey_yields_remote_access_error() {
        let p = pair();
        let src = p.a.hca().register(64);
        p.qp_a
            .post_send(WorkRequest {
                wr_id: 5,
                kind: WorkKind::RdmaWrite {
                    local: src.slice(0, 64),
                    remote: crate::RemoteSlice {
                        rkey: 0xDEAD,
                        offset: 0,
                        len: 64,
                    },
                },
                solicited: false,
            })
            .unwrap();
        p.engine.run_until_idle();
        assert_eq!(
            p.qp_a.send_cq().poll().unwrap().status,
            WcStatus::RemoteAccessError
        );
        assert_eq!(src.outside_refs(), 0, "refused: no page held");
    }

    #[test]
    fn remote_bounds_violation_rejected() {
        let p = pair();
        let src = p.a.hca().register(8192);
        let dst = p.b.hca().register(4096);
        p.qp_a
            .post_send(WorkRequest {
                wr_id: 6,
                kind: WorkKind::RdmaWrite {
                    local: src.slice(0, 8192),
                    remote: crate::RemoteSlice {
                        rkey: dst.rkey(),
                        offset: 0,
                        len: 8192,
                    },
                },
                solicited: false,
            })
            .unwrap();
        p.engine.run_until_idle();
        assert_eq!(
            p.qp_a.send_cq().poll().unwrap().status,
            WcStatus::RemoteAccessError
        );
        // Destination untouched.
        assert!(dst.to_vec().iter().all(|&b| b == 0));
        assert_eq!(src.outside_refs(), 0, "refused: no page held");
    }

    /// Post an RDMA on `p.qp_a` between all of `local` and all of the peer
    /// region `remote`: a WRITE into it, or a READ from it.
    fn post_rdma(p: &Pair, write: bool, local: &MemoryRegion, remote: &MemoryRegion) {
        let len = local.len() as u64;
        let (local, remote) = (
            local.slice(0, len),
            crate::RemoteSlice {
                rkey: remote.rkey(),
                offset: 0,
                len,
            },
        );
        let kind = if write {
            WorkKind::RdmaWrite { local, remote }
        } else {
            WorkKind::RdmaRead { local, remote }
        };
        p.qp_a
            .post_send(WorkRequest {
                wr_id: 1,
                kind,
                solicited: false,
            })
            .unwrap();
    }

    #[test]
    fn rdma_write_lands_the_bytes_of_its_post() {
        for overwrite in [0..4096, 1024..2048] {
            let p = pair();
            let src = p.a.hca().register(4096);
            let dst = p.b.hca().register(4096);
            src.write(0, &[7; 4096]);
            post_rdma(&p, true, &src, &dst);
            p.engine.run_until(p.engine.peek_next_time().unwrap());
            assert!(dst.to_vec().iter().all(|&b| b == 0), "still in flight");
            src.fill_with(overwrite.start, overwrite.len(), |_, s| s.fill(9));
            p.engine.run_until_idle();
            assert_eq!(p.qp_a.send_cq().poll().unwrap().status, WcStatus::Success);
            assert!(dst.to_vec().iter().all(|&b| b == 7), "{overwrite:?}");
            assert_eq!(
                src.outside_refs(),
                0,
                "the written page is the source's own"
            );
        }
    }

    /// An RDMA READ of a span of 1s whose source is overwritten with 2s at
    /// `at`: the bytes that land, and the instant the request reached the
    /// responder, if the source was still unwritten once its events ran.
    fn read_overwritten_at(at: u64) -> (Vec<u8>, Option<u64>) {
        let p = pair();
        let dst = p.a.hca().register(1024);
        let src = p.b.hca().register(1024);
        src.write(0, &[1; 1024]);
        post_rdma(&p, false, &dst, &src);
        let src2 = src.clone();
        p.engine
            .schedule_at(SimTime(at), move || src2.write(0, &[2; 1024]));
        let mut arrival = None;
        while let Some(t) = p.engine.peek_next_time() {
            p.engine.run_until(t);
            // The responder's snapshot is the one handle held outside.
            if arrival.is_none() && src.outside_refs() == 1 {
                arrival = Some(t.as_nanos());
            }
        }
        assert_eq!(p.qp_a.send_cq().poll().unwrap().status, WcStatus::Success);
        assert_eq!(src.outside_refs(), 0, "a part page lands as a copy");
        (dst.to_vec(), arrival)
    }

    #[test]
    fn rdma_read_lands_the_bytes_its_request_found() {
        let (landed, arrival) = read_overwritten_at(1_000_000_000);
        assert!(landed.iter().all(|&b| b == 1));
        let arrival = arrival.unwrap();
        // Scheduled after the request's arrival event at the same instant.
        let (landed, _) = read_overwritten_at(arrival);
        assert!(landed.iter().all(|&b| b == 1), "overwritten after arrival");
        let (landed, _) = read_overwritten_at(arrival - 1);
        assert!(landed.iter().all(|&b| b == 2), "overwritten before arrival");
    }

    #[test]
    fn deregistered_region_is_unreachable() {
        let p = pair();
        let src = p.a.hca().register(64);
        let dst = p.b.hca().register(64);
        p.b.hca().deregister(&dst);
        p.qp_a
            .post_send(WorkRequest {
                wr_id: 7,
                kind: WorkKind::RdmaWrite {
                    local: src.slice(0, 64),
                    remote: crate::RemoteSlice {
                        rkey: dst.rkey(),
                        offset: 0,
                        len: 64,
                    },
                },
                solicited: false,
            })
            .unwrap();
        p.engine.run_until_idle();
        assert_eq!(
            p.qp_a.send_cq().poll().unwrap().status,
            WcStatus::RemoteAccessError
        );
    }

    #[test]
    fn send_queue_capacity_enforced() {
        let engine = Engine::new();
        let cal = Rc::new(Calibration::cluster_2005());
        let fabric = Fabric::new(engine.clone(), cal);
        let a = fabric.add_node("a");
        let b = fabric.add_node("b");
        let (acq, arcq, bcq, brcq) = (a.create_cq(), a.create_cq(), b.create_cq(), b.create_cq());
        let (qp_a, _qp_b) = fabric.connect_with_depth(&a, &acq, &arcq, &b, &bcq, &brcq, 2, 2);
        let mk = |id| WorkRequest {
            wr_id: id,
            kind: WorkKind::Send {
                payload: Bytes::from_static(b"z"),
            },
            solicited: false,
        };
        qp_a.post_send(mk(1)).unwrap();
        qp_a.post_send(mk(2)).unwrap();
        assert_eq!(qp_a.post_send(mk(3)), Err(PostError::SendQueueFull));
        engine.run_until_idle();
        // After completions drain, capacity is available again.
        qp_a.post_send(mk(4)).unwrap();
    }

    #[test]
    fn recv_queue_capacity_enforced() {
        let engine = Engine::new();
        let cal = Rc::new(Calibration::cluster_2005());
        let fabric = Fabric::new(engine.clone(), cal);
        let a = fabric.add_node("a");
        let b = fabric.add_node("b");
        let (acq, arcq, bcq, brcq) = (a.create_cq(), a.create_cq(), b.create_cq(), b.create_cq());
        let (_qp_a, qp_b) = fabric.connect_with_depth(&a, &acq, &arcq, &b, &bcq, &brcq, 2, 1);
        let buf = b.hca().register(64);
        qp_b.post_recv(1, buf.slice(0, 32)).unwrap();
        assert_eq!(
            qp_b.post_recv(2, buf.slice(32, 32)),
            Err(PostError::RecvQueueFull)
        );
    }

    #[test]
    fn oversized_send_reports_length_error_to_receiver() {
        let p = pair();
        let rbuf = p.b.hca().register(4);
        p.qp_b.post_recv(1, rbuf.slice(0, 4)).unwrap();
        p.qp_a
            .post_send(WorkRequest {
                wr_id: 2,
                kind: WorkKind::Send {
                    payload: Bytes::from_static(b"way too big"),
                },
                solicited: false,
            })
            .unwrap();
        p.engine.run_until_idle();
        let c = p.qp_b.recv_cq().poll().unwrap();
        assert_eq!(c.status, WcStatus::LocalLengthError);
    }

    #[test]
    fn one_way_small_send_latency_in_band() {
        // End-to-end one-way time for a tiny send should be on the order of
        // the calibrated small-message latency (a few microseconds).
        let p = pair();
        let rbuf = p.b.hca().register(64);
        p.qp_b.post_recv(1, rbuf.slice(0, 64)).unwrap();
        p.qp_a
            .post_send(WorkRequest {
                wr_id: 1,
                kind: WorkKind::Send {
                    payload: Bytes::from_static(&[0u8; 16]),
                },
                solicited: false,
            })
            .unwrap();
        // Find the recv completion time.
        let mut recv_at = None;
        while p.engine.pending_events() > 0 {
            p.engine.run_until(p.engine.peek_next_time().unwrap());
            if p.qp_b.recv_cq().depth() > 0 && recv_at.is_none() {
                recv_at = Some(p.engine.now());
            }
        }
        let t = recv_at.expect("delivered").as_nanos();
        assert!(
            (p.cal.ib.base_latency_ns..p.cal.ib.base_latency_ns + 10_000).contains(&t),
            "one-way small send took {t}ns"
        );
    }

    #[test]
    fn shared_cq_across_qps_collects_all_completions() {
        // HPBD shares one send CQ and one recv CQ across the QPs to all
        // servers (paper §5): completions from different QPs land in the
        // same queue, distinguishable by qp_num.
        let engine = Engine::new();
        let cal = Rc::new(Calibration::cluster_2005());
        let fabric = Fabric::new(engine.clone(), cal);
        let hub = fabric.add_node("hub");
        let shared_send = hub.create_cq();
        let shared_recv = hub.create_cq();
        let mut qps = Vec::new();
        let mut peer_qps = Vec::new(); // keep peers alive (hub holds Weak)
        for i in 0..3 {
            let peer = fabric.add_node(format!("peer{i}"));
            let (pcq, prcq) = (peer.create_cq(), peer.create_cq());
            let (qp_hub, qp_peer) =
                fabric.connect(&hub, &shared_send, &shared_recv, &peer, &pcq, &prcq);
            let rbuf = peer.hca().register(64);
            qp_peer.post_recv(1, rbuf.slice(0, 64)).unwrap();
            qps.push(qp_hub);
            peer_qps.push(qp_peer);
        }
        for (i, qp) in qps.iter().enumerate() {
            qp.post_send(WorkRequest {
                wr_id: i as u64,
                kind: WorkKind::Send {
                    payload: Bytes::from_static(b"ping"),
                },
                solicited: false,
            })
            .unwrap();
        }
        engine.run_until_idle();
        let completions = shared_send.drain();
        assert_eq!(
            completions.len(),
            3,
            "one completion per QP on the shared CQ"
        );
        let qp_nums: std::collections::BTreeSet<u32> =
            completions.iter().map(|c| c.qp_num).collect();
        assert_eq!(qp_nums.len(), 3, "distinguishable by qp_num");
    }

    #[test]
    fn concurrent_rdma_ops_pipeline_on_the_wire() {
        // Posting N large RDMA writes back to back should cost far less
        // than N serial round trips: the wire serialises but posting and
        // propagation overlap.
        let p = pair();
        let src = p.a.hca().register(8 * 65536);
        let dst = p.b.hca().register(8 * 65536);
        let t0 = p.engine.now();
        for i in 0..8u64 {
            p.qp_a
                .post_send(WorkRequest {
                    wr_id: i,
                    kind: WorkKind::RdmaWrite {
                        local: src.slice(i * 65536, 65536),
                        remote: crate::RemoteSlice {
                            rkey: dst.rkey(),
                            offset: i * 65536,
                            len: 65536,
                        },
                    },
                    solicited: false,
                })
                .unwrap();
        }
        p.engine.run_until_idle();
        let pipelined = (p.engine.now() - t0).as_nanos();
        // One op's full latency:
        let t1 = p.engine.now();
        p.qp_a
            .post_send(WorkRequest {
                wr_id: 99,
                kind: WorkKind::RdmaWrite {
                    local: src.slice(0, 65536),
                    remote: crate::RemoteSlice {
                        rkey: dst.rkey(),
                        offset: 0,
                        len: 65536,
                    },
                },
                solicited: false,
            })
            .unwrap();
        p.engine.run_until_idle();
        let single = (p.engine.now() - t1).as_nanos();
        assert!(
            pipelined < single * 8 * 9 / 10,
            "8 ops ({pipelined}ns) should beat 8 serial round trips (8 x {single}ns)"
        );
    }

    #[test]
    fn op_counts_track() {
        let p = pair();
        let buf_a = p.a.hca().register(64);
        let buf_b = p.b.hca().register(64);
        let remote = crate::RemoteSlice {
            rkey: buf_b.rkey(),
            offset: 0,
            len: 64,
        };
        p.qp_a
            .post_send(WorkRequest {
                wr_id: 1,
                kind: WorkKind::RdmaWrite {
                    local: buf_a.slice(0, 64),
                    remote,
                },
                solicited: false,
            })
            .unwrap();
        p.qp_a
            .post_send(WorkRequest {
                wr_id: 2,
                kind: WorkKind::RdmaRead {
                    local: buf_a.slice(0, 64),
                    remote,
                },
                solicited: false,
            })
            .unwrap();
        p.engine.run_until_idle();
        let m = p.engine.metrics();
        let counts = ["ibsim.sends", "ibsim.rdma_reads", "ibsim.rdma_writes"].map(|c| m.counter(c));
        assert_eq!(counts, [0, 1, 1]);
    }

    /// An RDMA WRITE of `len` bytes at `offset` from `src` to `dst`.
    fn rdma_write(
        id: u64,
        src: &MemoryRegion,
        dst: &MemoryRegion,
        offset: u64,
        len: u64,
    ) -> WorkRequest {
        WorkRequest {
            wr_id: id,
            kind: WorkKind::RdmaWrite {
                local: src.slice(offset, len),
                remote: crate::RemoteSlice {
                    rkey: dst.rkey(),
                    offset,
                    len,
                },
            },
            solicited: false,
        }
    }

    #[test]
    fn post_send_many_of_one_is_a_post_send() {
        let p = pair();
        let rbuf = p.b.hca().register(64);
        p.qp_b.post_recv(1, rbuf.slice(0, 64)).unwrap();
        let send = WorkRequest {
            wr_id: 7,
            kind: WorkKind::Send {
                payload: Bytes::from_static(b"one"),
            },
            solicited: true,
        };
        assert_eq!(p.qp_a.post_send_many(vec![send]), Ok(1));
        p.engine.run_until_idle();
        let c = p.qp_a.send_cq().poll().unwrap();
        assert_eq!((c.wr_id, c.status), (7, WcStatus::Success));
        let mut out = [0u8; 3];
        rbuf.read(0, &mut out);
        assert_eq!(&out, b"one");
    }

    #[test]
    fn empty_post_send_many_posts_nothing() {
        let p = pair();
        assert_eq!(p.qp_a.post_send_many(Vec::new()), Ok(0));
        p.engine.run_until_idle();
        assert!(p.qp_a.send_cq().poll().is_none());
    }

    #[test]
    fn post_send_many_completes_in_post_order_with_data_intact() {
        let p = pair();
        let rbuf = p.b.hca().register(64);
        p.qp_b.post_recv(5, rbuf.slice(0, 64)).unwrap();
        let src = p.a.hca().register(4 * 4096);
        let dst = p.b.hca().register(4 * 4096);
        for i in 0..4u8 {
            src.write(i as usize * 4096, &[i + 1; 4096]);
        }
        let mut wrs: Vec<_> = (0..4)
            .map(|i| rdma_write(i, &src, &dst, i * 4096, 4096))
            .collect();
        wrs.push(WorkRequest {
            wr_id: 4,
            kind: WorkKind::Send {
                payload: Bytes::from_static(b"done"),
            },
            solicited: true,
        });
        assert_eq!(p.qp_a.post_send_many(wrs), Ok(5));
        p.engine.run_until_idle();
        let comps = p.qp_a.send_cq().drain();
        let order: Vec<_> = comps.iter().map(|c| (c.wr_id, c.opcode)).collect();
        let mut want: Vec<_> = (0..4).map(|i| (i, Opcode::RdmaWrite)).collect();
        want.push((4, Opcode::Send));
        assert_eq!(order, want);
        assert!(comps.iter().all(|c| c.status == WcStatus::Success));
        for i in 0..4u8 {
            let mut out = vec![0u8; 4096];
            dst.read(i as usize * 4096, &mut out);
            assert!(out.iter().all(|&b| b == i + 1), "extent {i} intact");
        }
    }

    #[test]
    fn post_send_many_is_all_or_nothing_on_a_full_send_queue() {
        let engine = Engine::new();
        let fabric = Fabric::new(engine.clone(), Rc::new(Calibration::cluster_2005()));
        let a = fabric.add_node("a");
        let b = fabric.add_node("b");
        let (acq, arcq, bcq, brcq) = (a.create_cq(), a.create_cq(), b.create_cq(), b.create_cq());
        let (qp_a, _qp_b) = fabric.connect_with_depth(&a, &acq, &arcq, &b, &bcq, &brcq, 3, 3);
        let src = a.hca().register(4 * 64);
        let dst = b.hca().register(4 * 64);
        let wrs = |n| {
            (0..n)
                .map(|i| rdma_write(i, &src, &dst, i * 64, 64))
                .collect()
        };
        // Four WRs into a depth-3 queue: rejected whole, nothing posted.
        assert_eq!(qp_a.post_send_many(wrs(4)), Err(PostError::SendQueueFull));
        engine.run_until_idle();
        assert!(qp_a.send_cq().poll().is_none());
        assert_eq!(engine.metrics().counter("ibsim.rdma_writes"), 0);
        // A chain that fits still goes through afterwards.
        assert_eq!(qp_a.post_send_many(wrs(3)), Ok(3));
        engine.run_until_idle();
        assert_eq!(qp_a.send_cq().drain().len(), 3);
    }

    #[test]
    fn post_send_many_frees_the_cpu_sooner_than_separate_posts() {
        // One doorbell for eight WQEs: the posting CPU is free again
        // before it would be after eight separate posts.
        let cpu_free_after = |chained: bool| {
            let p = pair();
            let src = p.a.hca().register(8 * 64);
            let dst = p.b.hca().register(8 * 64);
            let wrs = (0..8).map(|i| rdma_write(i, &src, &dst, i * 64, 64));
            if chained {
                p.qp_a.post_send_many(wrs.collect()).unwrap();
            } else {
                wrs.for_each(|wr| p.qp_a.post_send(wr).unwrap());
            }
            let now = p.engine.now();
            p.a.node().cpu().reserve(now, simcore::SimDuration::ZERO).1
        };
        assert!(cpu_free_after(true) < cpu_free_after(false));
    }
}
