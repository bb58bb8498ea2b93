//! The typed send side of a queue pair.
//!
//! The raw verb objects ([`QueuePair`], [`CompletionQueue`],
//! [`crate::MemoryRegion`]) are deliberately thin — they mirror the VAPI
//! calls the paper's implementation uses, and completion queues and memory
//! regions are used as they are. Protocol code built directly on a
//! [`QueuePair`] has to get one more thing right at every call site: how
//! work requests are linked into a chain before the doorbell rings. This
//! module packages that rule in the style of mond77's `ibv` crate
//! (`src/types/`): a [`Qp`] only emits work requests through a [`WrChain`]
//! builder, and the chain — not the caller — decides whether the post is a
//! single `post_send` or a doorbell-batched `post_send_many`.
//!
//! Ownership rules (see DESIGN.md §15):
//!
//! * A [`WrChain`] borrows its [`Qp`]; it cannot outlive the connection and
//!   cannot interleave with another chain on the same QP.
//! * Posting consumes the chain. All-or-nothing: if the send queue cannot
//!   take the whole chain, nothing is posted and the caller still owns the
//!   request content (ids/slices are `Copy`/cheap clones).
//! * A chain of one posts through the exact single-WR path — same CPU
//!   charge, same event sequence — so wrapping a lone request in a chain is
//!   free and batching-off runs stay byte-identical.

use crate::cq::CompletionQueue;
use crate::mr::{MrSlice, RemoteSlice};
use crate::qp::{PostError, QueuePair, WorkKind, WorkRequest};
use bytes::Bytes;

/// A typed RC queue-pair handle.
///
/// Receive-side and introspection methods pass straight through; the send
/// side is only reachable by building a [`WrChain`] with [`Qp::chain`],
/// which is what makes doorbell batching an explicit, visible decision at
/// every post site (`crates/clippy.toml` disallows the raw posts).
pub struct Qp {
    qp: QueuePair,
}

impl From<QueuePair> for Qp {
    fn from(qp: QueuePair) -> Qp {
        Qp { qp }
    }
}

impl Qp {
    /// Start an empty work-request chain on this QP.
    pub fn chain(&self) -> WrChain<'_> {
        WrChain {
            qp: self,
            wrs: ChainWrs::None,
        }
    }

    /// Post a receive work request (unchanged from the raw verb).
    pub fn post_recv(&self, wr_id: u64, buffer: MrSlice) -> Result<(), PostError> {
        self.qp.post_recv(wr_id, buffer)
    }

    /// This QP's number.
    pub fn qp_num(&self) -> u32 {
        self.qp.qp_num()
    }

    /// The send CQ completions land on.
    pub fn send_cq(&self) -> &CompletionQueue {
        self.qp.send_cq()
    }

    /// The receive CQ completions land on.
    pub fn recv_cq(&self) -> &CompletionQueue {
        self.qp.recv_cq()
    }

    /// Number of receive WRs currently posted.
    pub fn recv_queue_depth(&self) -> usize {
        self.qp.recv_queue_depth()
    }

    /// Arm link-level fault injection on this QP.
    pub fn set_link_faults(&self, faults: crate::fault::LinkFaults) {
        self.qp.set_link_faults(faults)
    }

    /// The raw queue pair, for wiring and tests. Sending through it
    /// directly bypasses the chain discipline — don't.
    pub fn raw(&self) -> &QueuePair {
        &self.qp
    }
}

/// Inline storage for a chain: the overwhelmingly common one-element chain
/// must not allocate, or wrapping every single post in a chain would cost
/// the hot path a heap round trip.
enum ChainWrs {
    None,
    One(WorkRequest),
    Many(Vec<WorkRequest>),
}

/// A linked list of work requests destined for one doorbell ring.
///
/// Build with [`WrChain::send`] / [`WrChain::rdma_read`] /
/// [`WrChain::rdma_write`] / [`WrChain::push`], then [`WrChain::post`]
/// once. Elements complete individually on the send CQ in post order.
#[must_use = "a chain that is never posted drops its work requests"]
pub struct WrChain<'a> {
    qp: &'a Qp,
    wrs: ChainWrs,
}

impl WrChain<'_> {
    /// Append an already-built work request.
    pub fn push(&mut self, wr: WorkRequest) -> &mut Self {
        self.wrs = match std::mem::replace(&mut self.wrs, ChainWrs::None) {
            ChainWrs::None => ChainWrs::One(wr),
            ChainWrs::One(first) => ChainWrs::Many(vec![first, wr]),
            ChainWrs::Many(mut v) => {
                v.push(wr);
                ChainWrs::Many(v)
            }
        };
        self
    }

    /// Append a two-sided send of `payload`.
    pub fn send(&mut self, wr_id: u64, payload: Bytes, solicited: bool) -> &mut Self {
        self.push(WorkRequest {
            wr_id,
            kind: WorkKind::Send { payload },
            solicited,
        })
    }

    /// Append a one-sided RDMA READ into `local` from `remote`.
    pub fn rdma_read(&mut self, wr_id: u64, local: MrSlice, remote: RemoteSlice) -> &mut Self {
        self.push(WorkRequest {
            wr_id,
            kind: WorkKind::RdmaRead { local, remote },
            solicited: false,
        })
    }

    /// Append a one-sided RDMA WRITE of `local` to `remote`.
    pub fn rdma_write(&mut self, wr_id: u64, local: MrSlice, remote: RemoteSlice) -> &mut Self {
        self.push(WorkRequest {
            wr_id,
            kind: WorkKind::RdmaWrite { local, remote },
            solicited: false,
        })
    }

    /// Work requests queued so far.
    pub fn len(&self) -> usize {
        match &self.wrs {
            ChainWrs::None => 0,
            ChainWrs::One(_) => 1,
            ChainWrs::Many(v) => v.len(),
        }
    }

    /// True if nothing has been queued.
    pub fn is_empty(&self) -> bool {
        matches!(self.wrs, ChainWrs::None)
    }

    /// Ring the doorbell: post the whole chain as one linked list.
    ///
    /// A chain of one takes the plain single-WR path (identical cost and
    /// event sequence to a bare post). Longer chains pay the doorbell once
    /// plus the cheaper chained descriptor cost per extra WQE. On error
    /// nothing was posted. Returns the number of WQEs posted.
    #[expect(
        clippy::disallowed_methods,
        reason = "the chain is the one sanctioned submit path, and this is where it reaches the QP"
    )]
    pub fn post(self) -> Result<usize, PostError> {
        match self.wrs {
            ChainWrs::None => Ok(0),
            ChainWrs::One(wr) => self.qp.qp.post_send(wr).map(|()| 1),
            ChainWrs::Many(v) => self.qp.qp.post_send_many(v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cq::{Opcode, WcStatus};
    use crate::fabric::{Fabric, IbNode};
    use netmodel::Calibration;
    use simcore::Engine;
    use std::rc::Rc;

    struct Rig {
        engine: Engine,
        a: IbNode,
        b: IbNode,
        qp_a: Qp,
        qp_b: Qp,
    }

    fn rig() -> Rig {
        let engine = Engine::new();
        let cal = Rc::new(Calibration::cluster_2005());
        let fabric = Fabric::new(engine.clone(), cal);
        let a = fabric.add_node("a");
        let b = fabric.add_node("b");
        let (acq, arcq, bcq, brcq) = (a.create_cq(), a.create_cq(), b.create_cq(), b.create_cq());
        let (qp_a, qp_b) = fabric.connect(&a, &acq, &arcq, &b, &bcq, &brcq);
        Rig {
            engine,
            a,
            b,
            qp_a: Qp::from(qp_a),
            qp_b: Qp::from(qp_b),
        }
    }

    #[test]
    fn chain_of_one_behaves_like_plain_post() {
        let r = rig();
        let rbuf = r.b.hca().register(64);
        r.qp_b.post_recv(1, rbuf.slice(0, 64)).unwrap();
        let mut c = r.qp_a.chain();
        c.send(7, Bytes::from_static(b"one"), true);
        assert_eq!(c.len(), 1);
        assert_eq!(c.post().unwrap(), 1);
        r.engine.run_until_idle();
        let comp = r.qp_a.send_cq().poll().unwrap();
        assert_eq!((comp.wr_id, comp.status), (7, WcStatus::Success));
        let mut out = [0u8; 3];
        rbuf.read(0, &mut out);
        assert_eq!(&out, b"one");
    }

    #[test]
    fn empty_chain_posts_nothing() {
        let r = rig();
        assert_eq!(r.qp_a.chain().post().unwrap(), 0);
        r.engine.run_until_idle();
        assert!(r.qp_a.send_cq().poll().is_none());
    }

    #[test]
    fn chained_rdma_writes_all_complete_with_data_intact() {
        let r = rig();
        let src = r.a.hca().register(4 * 4096);
        let dst = r.b.hca().register(4 * 4096);
        for i in 0..4u8 {
            src.write(i as usize * 4096, &vec![i + 1; 4096]);
        }
        let mut c = r.qp_a.chain();
        for i in 0..4u64 {
            c.rdma_write(
                i,
                src.slice(i * 4096, 4096),
                RemoteSlice {
                    rkey: dst.rkey(),
                    offset: i * 4096,
                    len: 4096,
                },
            );
        }
        assert_eq!(c.post().unwrap(), 4);
        r.engine.run_until_idle();
        let comps = r.qp_a.send_cq().drain();
        assert_eq!(comps.len(), 4);
        assert!(comps
            .iter()
            .all(|c| c.status == WcStatus::Success && c.opcode == Opcode::RdmaWrite));
        // Completions arrive in post order.
        let ids: Vec<u64> = comps.iter().map(|c| c.wr_id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        for i in 0..4u8 {
            let mut out = vec![0u8; 4096];
            dst.read(i as usize * 4096, &mut out);
            assert!(out.iter().all(|&b| b == i + 1), "extent {i} intact");
        }
    }

    #[test]
    fn chain_posting_is_cheaper_than_individual_posts() {
        // The whole point of the doorbell batch: N chained posts must charge
        // the posting CPU less than N separate posts. Compare the time the
        // CPU frees up, not end-to-end (wire time dominates e2e).
        let cal = Calibration::cluster_2005();
        let chained = cal.hca.post_ns + 7 * cal.hca.chained_post_ns;
        let separate = 8 * cal.hca.post_ns;
        assert!(
            chained < separate,
            "chained {chained}ns should beat separate {separate}ns"
        );
    }

    #[test]
    fn chain_rejected_whole_when_send_queue_cannot_take_it() {
        let engine = Engine::new();
        let cal = Rc::new(Calibration::cluster_2005());
        let fabric = Fabric::new(engine.clone(), cal);
        let a = fabric.add_node("a");
        let b = fabric.add_node("b");
        let (acq, arcq, bcq, brcq) = (a.create_cq(), a.create_cq(), b.create_cq(), b.create_cq());
        let (qp_a, _qp_b) = fabric.connect_with_depth(&a, &acq, &arcq, &b, &bcq, &brcq, 3, 3);
        let qp_a = Qp::from(qp_a);
        let src = a.hca().register(4 * 64);
        let dst = b.hca().register(4 * 64);
        let mut c = qp_a.chain();
        for i in 0..4u64 {
            c.rdma_write(
                i,
                src.slice(i * 64, 64),
                RemoteSlice {
                    rkey: dst.rkey(),
                    offset: i * 64,
                    len: 64,
                },
            );
        }
        // Four WRs into a depth-3 queue: rejected whole, nothing posted.
        assert_eq!(c.post(), Err(PostError::SendQueueFull));
        engine.run_until_idle();
        assert!(qp_a.send_cq().poll().is_none());
        assert_eq!(engine.metrics().counter("ibsim.rdma_writes"), 0);
        // A fitting chain still goes through afterwards.
        let mut c = qp_a.chain();
        for i in 0..3u64 {
            c.rdma_write(
                i,
                src.slice(i * 64, 64),
                RemoteSlice {
                    rkey: dst.rkey(),
                    offset: i * 64,
                    len: 64,
                },
            );
        }
        assert_eq!(c.post().unwrap(), 3);
        engine.run_until_idle();
        assert_eq!(qp_a.send_cq().drain().len(), 3);
    }

    #[test]
    fn mixed_chain_send_and_rdma_complete_in_order() {
        let r = rig();
        let rbuf = r.b.hca().register(64);
        let src = r.a.hca().register(4096);
        let dst = r.b.hca().register(4096);
        r.qp_b.post_recv(5, rbuf.slice(0, 64)).unwrap();
        src.write(0, &[0xCD; 4096]);
        let mut c = r.qp_a.chain();
        c.rdma_write(
            1,
            src.slice(0, 4096),
            RemoteSlice {
                rkey: dst.rkey(),
                offset: 0,
                len: 4096,
            },
        )
        .send(2, Bytes::from_static(b"done"), true);
        assert_eq!(c.post().unwrap(), 2);
        r.engine.run_until_idle();
        let comps = r.qp_a.send_cq().drain();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].opcode, Opcode::RdmaWrite);
        assert_eq!(comps[1].opcode, Opcode::Send);
        assert!(dst.to_vec().iter().all(|&b| b == 0xCD));
    }
}
