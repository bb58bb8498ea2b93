//! Completion queues with solicited-event delivery.
//!
//! Requests are submitted to queue pairs in a non-blocking fashion and their
//! completion is reported through CQs, which may be shared among QPs (paper
//! §3.1 — HPBD shares its CQs across the QPs to all servers). Consumers can
//! poll, or register a completion *event handler* that fires only for
//! solicited completions once the CQ is armed — the mechanism HPBD's client
//! uses to wake its reply-processing thread and the server uses to wake from
//! its 200 µs idle sleep.

use simcore::{Engine, SimDuration};
use simtrace::LazyCounter;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

/// What operation a completion reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Opcode {
    /// A send finished (local buffer reusable).
    Send,
    /// A posted receive consumed an incoming send.
    Recv,
    /// An RDMA write completed (remotely placed, locally acknowledged).
    RdmaWrite,
    /// An RDMA read completed (data landed locally).
    RdmaRead,
}

/// Completion status. Anything but `Success` means the work request failed
/// validation or the channel protocol was violated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WcStatus {
    /// Operation completed.
    Success,
    /// RDMA address/rkey validation failed at the responder.
    RemoteAccessError,
    /// Local slice fell outside its region.
    LocalProtectionError,
    /// A send arrived with no posted receive (receiver-not-ready exceeded).
    RnrRetryExceeded,
    /// Incoming message larger than the posted receive buffer.
    LocalLengthError,
    /// Transport retries exhausted — the link failed the work request.
    /// Produced by injected completion errors ([`crate::LinkFaults`]).
    RetryExceeded,
}

/// A completion-queue entry.
#[derive(Clone, Debug)]
pub struct Completion {
    /// Caller-chosen work-request id.
    pub wr_id: u64,
    /// Which operation completed.
    pub opcode: Opcode,
    /// Completion status.
    pub status: WcStatus,
    /// Bytes transferred (payload length for sends/receives).
    pub byte_len: u64,
    /// Number of the QP the work request belonged to.
    pub qp_num: u32,
    /// Whether the completion carries the solicited-event flag (set by the
    /// sender on the message that should wake the consumer).
    pub solicited: bool,
}

type Handler = Box<dyn Fn()>;

struct CqInner {
    queue: VecDeque<Completion>,
    handler: Option<Rc<Handler>>,
    /// Armed = the next qualifying completion triggers the handler.
    armed: bool,
    /// If true, only solicited completions trigger (VAPI solicited
    /// notification type).
    solicited_only: bool,
    /// Completion-event delivery latency (interrupt + dispatch).
    event_latency: SimDuration,
    delivered_events: u64,
}

/// A completion queue, possibly shared among several QPs.
#[derive(Clone)]
pub struct CompletionQueue {
    engine: Engine,
    inner: Rc<RefCell<CqInner>>,
    events_ctr: Rc<LazyCounter>,
}

impl CompletionQueue {
    /// Create a CQ whose event handler fires `event_latency` after a
    /// qualifying completion arrives. Use [`crate::IbNode::create_cq`].
    pub(crate) fn new(engine: Engine, event_latency: SimDuration) -> CompletionQueue {
        CompletionQueue {
            events_ctr: Rc::new(engine.metrics().lazy_counter("ibsim.cq_events")),
            engine,
            inner: Rc::new(RefCell::new(CqInner {
                queue: VecDeque::new(),
                handler: None,
                armed: false,
                solicited_only: true,
                event_latency,
                delivered_events: 0,
            })),
        }
    }

    /// Register the completion event handler (`EVAPI_set_comp_eventh`).
    /// The handler is invoked once per arming, `event_latency` after the
    /// triggering completion; it typically drains the CQ and re-arms.
    pub fn set_event_handler(&self, handler: impl Fn() + 'static) {
        self.inner.borrow_mut().handler = Some(Rc::new(Box::new(handler)));
    }

    /// Arm the CQ for one event notification (`VAPI_req_comp_notif`).
    /// With `solicited_only`, only completions carrying the solicited flag
    /// trigger; otherwise the next completion of any kind does.
    pub fn req_notify(&self, solicited_only: bool) {
        let mut inner = self.inner.borrow_mut();
        inner.armed = true;
        inner.solicited_only = solicited_only;
    }

    /// Remove and return the oldest completion, if any (`VAPI_poll_cq`).
    pub fn poll(&self) -> Option<Completion> {
        self.inner.borrow_mut().queue.pop_front()
    }

    /// Drain every pending completion (the burst processing HPBD's receiver
    /// thread performs per wakeup).
    pub fn drain(&self) -> Vec<Completion> {
        let mut inner = self.inner.borrow_mut();
        inner.queue.drain(..).collect()
    }

    /// Number of completions waiting.
    pub fn depth(&self) -> usize {
        self.inner.borrow().queue.len()
    }

    /// Push a completion into the CQ at the current instant, triggering the
    /// event handler if the CQ is armed and the completion qualifies.
    /// Called by the QP engine at completion instants.
    pub(crate) fn push(&self, completion: Completion) {
        let fire = {
            let mut inner = self.inner.borrow_mut();
            let qualifies = inner.armed
                && (!inner.solicited_only
                    || completion.solicited
                    || completion.status != WcStatus::Success);
            inner.queue.push_back(completion);
            match inner.handler.clone() {
                Some(handler) if qualifies => {
                    inner.armed = false;
                    inner.delivered_events += 1;
                    Some((handler, inner.event_latency))
                }
                _ => None,
            }
        };
        if let Some((handler, latency)) = fire {
            self.events_ctr.inc();
            self.engine
                .instant("ibsim", "cq_event", &[("latency_ns", latency.as_nanos())]);
            self.engine.schedule_in(latency, move || handler());
        }
    }
}

impl fmt::Debug for CompletionQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("CompletionQueue")
            .field("depth", &inner.queue.len())
            .field("armed", &inner.armed)
            .field("events", &inner.delivered_events)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn cq(engine: &Engine) -> CompletionQueue {
        CompletionQueue::new(engine.clone(), SimDuration::from_micros(4))
    }

    fn completion(solicited: bool) -> Completion {
        Completion {
            wr_id: 7,
            opcode: Opcode::Recv,
            status: WcStatus::Success,
            byte_len: 64,
            qp_num: 1,
            solicited,
        }
    }

    #[test]
    fn poll_returns_fifo() {
        let eng = Engine::new();
        let cq = cq(&eng);
        for id in 0..3 {
            cq.push(Completion {
                wr_id: id,
                ..completion(false)
            });
        }
        assert_eq!(cq.poll().unwrap().wr_id, 0);
        assert_eq!(cq.poll().unwrap().wr_id, 1);
        assert_eq!(cq.drain().len(), 1);
        assert!(cq.poll().is_none());
    }

    #[test]
    fn unarmed_cq_fires_no_event() {
        let eng = Engine::new();
        let cq = cq(&eng);
        let fired = Rc::new(Cell::new(0));
        {
            let fired = fired.clone();
            cq.set_event_handler(move || fired.set(fired.get() + 1));
        }
        cq.push(completion(true));
        eng.run_until_idle();
        assert_eq!(fired.get(), 0);
    }

    #[test]
    fn armed_cq_fires_once_on_solicited() {
        let eng = Engine::new();
        let cq = cq(&eng);
        let fired = Rc::new(Cell::new(0));
        {
            let fired = fired.clone();
            cq.set_event_handler(move || fired.set(fired.get() + 1));
        }
        cq.req_notify(true);
        cq.push(completion(false)); // unsolicited: no trigger
        cq.push(completion(true)); // triggers and disarms
        cq.push(completion(true)); // disarmed: no trigger
        eng.run_until_idle();
        assert_eq!(fired.get(), 1);
        assert_eq!(cq.depth(), 3, "completions stay queued for draining");
    }

    #[test]
    fn event_arrives_after_interrupt_latency() {
        let eng = Engine::new();
        let cq = cq(&eng);
        let at = Rc::new(Cell::new(0u64));
        {
            let at = at.clone();
            let eng2 = eng.clone();
            cq.set_event_handler(move || at.set(eng2.now().as_nanos()));
        }
        cq.req_notify(true);
        cq.push(completion(true));
        eng.run_until_idle();
        assert_eq!(at.get(), 4_000);
    }

    #[test]
    fn any_mode_fires_on_unsolicited() {
        let eng = Engine::new();
        let cq = cq(&eng);
        let fired = Rc::new(Cell::new(0));
        {
            let fired = fired.clone();
            cq.set_event_handler(move || fired.set(fired.get() + 1));
        }
        cq.req_notify(false);
        cq.push(completion(false));
        eng.run_until_idle();
        assert_eq!(fired.get(), 1);
    }

    #[test]
    fn error_completions_always_trigger_when_armed() {
        let eng = Engine::new();
        let cq = cq(&eng);
        let fired = Rc::new(Cell::new(0));
        {
            let fired = fired.clone();
            cq.set_event_handler(move || fired.set(fired.get() + 1));
        }
        cq.req_notify(true); // solicited-only
        cq.push(Completion {
            status: WcStatus::RemoteAccessError,
            ..completion(false)
        });
        eng.run_until_idle();
        assert_eq!(fired.get(), 1, "errors must not be silently swallowed");
    }

    #[test]
    fn rearm_allows_second_event() {
        let eng = Engine::new();
        let cq = cq(&eng);
        let fired = Rc::new(Cell::new(0));
        {
            let fired = fired.clone();
            let cq2 = cq.clone();
            cq.set_event_handler(move || {
                fired.set(fired.get() + 1);
                cq2.drain();
                cq2.req_notify(true);
            });
        }
        cq.req_notify(true);
        cq.push(completion(true));
        eng.run_until_idle();
        cq.push(completion(true));
        eng.run_until_idle();
        assert_eq!(fired.get(), 2);
    }
}
