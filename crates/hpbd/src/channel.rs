//! One end of an HPBD connection, the same at the client and at every
//! memory server: a QP and its ring of pre-posted receives (IB needs a
//! posted buffer for every message that may arrive; paper §4.2.3–4.2.4).
//! Slot `i` is posted with wr_id `i`, so a completion names its slot.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use ibsim::{IbNode, MemoryRegion, QueuePair};

pub(crate) struct Channel {
    pub(crate) qp: QueuePair,
    /// The receive ring: slots of `slot` bytes in one registration.
    ring: MemoryRegion,
    slot: u64,
}

impl Channel {
    /// Register a ring of `slots` receive slots of `slot` bytes on
    /// `ibnode`'s HCA and pre-post every slot on `qp`.
    pub(crate) fn open(ibnode: &IbNode, qp: QueuePair, slots: usize, slot: usize) -> Channel {
        let ring = ibnode.hca().register(slots * slot);
        let slot = slot as u64;
        let channel = Channel { qp, ring, slot };
        for i in 0..slots as u64 {
            channel.repost(i);
        }
        channel
    }

    /// Decode the message in slot `i` with `decode`, then post the slot
    /// again for the next message.
    pub(crate) fn take<R>(&self, i: u64, decode: impl FnOnce(&[u8]) -> R) -> R {
        let (at, len) = ((i * self.slot) as usize, self.slot as usize);
        let decoded = self.ring.read_with(at, len, decode);
        self.repost(i);
        decoded
    }

    /// Post slot `i` on the QP's receive queue.
    pub(crate) fn repost(&self, i: u64) {
        #[expect(
            clippy::expect_used,
            reason = "a slot is posted only while it is not, and the receive queue holds the whole ring"
        )]
        self.qp
            .post_recv(i, self.ring.slice(i * self.slot, self.slot))
            .expect("posting a receive slot");
    }
}

/// The index of the channel whose QP is `qp_num`, if any. A scan is the
/// whole lookup: a client keeps one channel per server (16 in the largest
/// figure cell) and a server one per client.
pub(crate) fn route<'a>(
    channels: impl IntoIterator<Item = &'a Channel>,
    qp_num: u32,
) -> Option<usize> {
    channels.into_iter().position(|c| c.qp.qp_num() == qp_num)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibsim::{Fabric, WorkKind, WorkRequest};
    use netmodel::Calibration;
    use simcore::Engine;
    use std::rc::Rc;

    /// A message is read from the slot it landed in, however many land
    /// between two takes: `take` re-posts the slot it read, not another.
    #[test]
    fn a_take_reposts_the_slot_it_read() {
        let engine = Engine::new();
        let fabric = Fabric::new(engine.clone(), Rc::new(Calibration::cluster_2005()));
        let (a, b) = (fabric.add_node("a"), fabric.add_node("b"));
        let (a_send, a_recv, b_send, b_recv) =
            (a.create_cq(), a.create_cq(), b.create_cq(), b.create_cq());
        let (qp_a, qp_b) = fabric.connect(&a, &a_send, &a_recv, &b, &b_send, &b_recv);
        let channel = Channel::open(&b, qp_b, 2, 8);
        let send = |byte: u8| {
            let payload = vec![byte].into();
            let kind = WorkKind::Send { payload };
            let wr = WorkRequest {
                wr_id: 0,
                kind,
                solicited: false,
            };
            qp_a.post_send(wr).unwrap();
            engine.run_until_idle();
        };
        let take = || channel.take(b_recv.poll().unwrap().wr_id, |slot| slot[0]);
        send(1);
        assert_eq!(take(), 1);
        // Slot 0 went back behind slot 1: each of the next two messages
        // gets a slot of its own.
        send(2);
        send(3);
        assert_eq!((take(), take()), (2, 3));
    }
}
