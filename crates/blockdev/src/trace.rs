//! Swap-trace recording and replay.
//!
//! The request queue's dispatch log is a complete record of a workload's
//! block traffic. This module turns it into a portable artifact: save a
//! trace from one run, replay it against any device — the standard
//! methodology for apples-to-apples device comparison under identical I/O
//! (the paper's own Figure 6 is a request-stream profile; a trace makes
//! such analysis repeatable without re-running the application).
//!
//! Replay modes:
//! * **open-loop** — events fire at their recorded timestamps, preserving
//!   the workload's arrival process (devices slower than the recording
//!   device accumulate queueing).
//! * **closed-loop** — each request issues when the previous completes,
//!   measuring pure device service capability.
//!
//! The on-disk format is one line per event: `at_ns op offset len`, with
//! `op` ∈ {`R`, `W`} — trivially greppable and diffable.

use crate::device::BlockDevice;
use crate::queue::DispatchRecord;
use crate::request::{new_buffer, Bio, IoOp, IoRequest};
use simcore::{Engine, OnlineStats, Signal, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// One trace event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Dispatch instant in the recorded run, ns.
    pub at_ns: u64,
    /// Read or write.
    pub op: IoOp,
    /// Device byte offset.
    pub offset: u64,
    /// Transfer length.
    pub len: u64,
}

/// A recorded block-I/O trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SwapTrace {
    /// Events in dispatch order.
    pub events: Vec<TraceEvent>,
}

impl SwapTrace {
    /// Build a trace from a request queue's dispatch log.
    pub fn from_dispatch_log(log: &[DispatchRecord]) -> SwapTrace {
        SwapTrace {
            events: log
                .iter()
                .map(|r| TraceEvent {
                    at_ns: r.at.as_nanos(),
                    op: r.op,
                    offset: r.offset,
                    len: r.len,
                })
                .collect(),
        }
    }

    /// Serialise to the line format.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 32);
        for e in &self.events {
            let op = match e.op {
                IoOp::Read => 'R',
                IoOp::Write => 'W',
            };
            out.push_str(&format!("{} {} {} {}\n", e.at_ns, op, e.offset, e.len));
        }
        out
    }

    /// Parse the line format; returns a line-numbered error message on
    /// malformed input.
    pub fn from_text(text: &str) -> Result<SwapTrace, String> {
        let mut events = Vec::new();
        for (no, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut fields = line.split_whitespace();
            let mut next = |what: &str| {
                fields
                    .next()
                    .ok_or_else(|| format!("line {}: missing {what}", no + 1))
            };
            let at_ns: u64 = next("timestamp")?
                .parse()
                .map_err(|e| format!("line {}: bad timestamp: {e}", no + 1))?;
            let op = match next("op")? {
                "R" => IoOp::Read,
                "W" => IoOp::Write,
                other => return Err(format!("line {}: bad op {other:?}", no + 1)),
            };
            let offset: u64 = next("offset")?
                .parse()
                .map_err(|e| format!("line {}: bad offset: {e}", no + 1))?;
            let len: u64 = next("len")?
                .parse()
                .map_err(|e| format!("line {}: bad len: {e}", no + 1))?;
            events.push(TraceEvent {
                at_ns,
                op,
                offset,
                len,
            });
        }
        Ok(SwapTrace { events })
    }

    /// Total bytes moved by the trace, split (reads, writes).
    pub fn bytes(&self) -> (u64, u64) {
        let mut r = 0;
        let mut w = 0;
        for e in &self.events {
            match e.op {
                IoOp::Read => r += e.len,
                IoOp::Write => w += e.len,
            }
        }
        (r, w)
    }
}

/// Outcome of a replay.
#[derive(Clone, Debug)]
pub struct ReplayReport {
    /// Virtual time from first issue to last completion.
    pub makespan: simcore::SimDuration,
    /// Per-request service latency, µs.
    pub latency_us: OnlineStats,
    /// Requests replayed.
    pub requests: u64,
}

/// Replay `trace` against `device` in open-loop mode (recorded timestamps).
/// Runs the engine to completion.
pub fn replay_open_loop(
    engine: &Engine,
    device: Rc<dyn BlockDevice>,
    trace: &SwapTrace,
) -> ReplayReport {
    let latency: Rc<RefCell<OnlineStats>> = Rc::default();
    let base = engine.now();
    for e in &trace.events {
        let device = device.clone();
        let latency = latency.clone();
        let (op, offset, len) = (e.op, e.offset, e.len);
        let eng = engine.clone();
        engine.schedule_at(SimTime(base.as_nanos() + e.at_ns), move || {
            let issued = eng.now();
            let eng2 = eng.clone();
            device.submit(
                IoRequest::single(Bio::new(op, offset, new_buffer(len as usize), |r| {
                    r.expect("replayed I/O failed")
                }))
                .on_complete(move |_| {
                    latency
                        .borrow_mut()
                        .record(eng2.now().since(issued).as_micros_f64());
                }),
            );
        });
    }
    engine.run_until_idle();
    let latency_us = latency.borrow().clone();
    assert_eq!(
        latency_us.count(),
        trace.events.len() as u64,
        "all events replayed"
    );
    ReplayReport {
        makespan: engine.now() - base,
        requests: latency_us.count(),
        latency_us,
    }
}

/// Replay `trace` against `device` in closed-loop mode (issue the next
/// request when the previous completes).
pub fn replay_closed_loop(
    engine: &Engine,
    device: Rc<dyn BlockDevice>,
    trace: &SwapTrace,
) -> ReplayReport {
    let latency: Rc<RefCell<OnlineStats>> = Rc::default();
    let base = engine.now();
    let events: Rc<Vec<TraceEvent>> = Rc::new(trace.events.clone());
    let finished = Signal::new("replay-finished");

    fn issue(
        idx: usize,
        engine: Engine,
        device: Rc<dyn BlockDevice>,
        events: Rc<Vec<TraceEvent>>,
        latency: Rc<RefCell<OnlineStats>>,
        finished: Signal,
    ) {
        let Some(e) = events.get(idx).copied() else {
            finished.set();
            return;
        };
        let issued = engine.now();
        let eng2 = engine.clone();
        let dev2 = device.clone();
        device.submit(
            IoRequest::single(Bio::new(e.op, e.offset, new_buffer(e.len as usize), |r| {
                r.expect("replayed I/O failed")
            }))
            .on_complete(move |_| {
                latency
                    .borrow_mut()
                    .record(eng2.now().since(issued).as_micros_f64());
                issue(idx + 1, eng2.clone(), dev2, events, latency, finished);
            }),
        );
    }

    if !events.is_empty() {
        issue(
            0,
            engine.clone(),
            device.clone(),
            events.clone(),
            latency.clone(),
            finished.clone(),
        );
        engine.run_until_signal(&finished);
        engine.run_until_idle();
    }
    let latency_us = latency.borrow().clone();
    ReplayReport {
        makespan: engine.now() - base,
        requests: latency_us.count(),
        latency_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ramdisk::RamDiskDevice;
    use netmodel::{Calibration, Node};

    fn sample_trace() -> SwapTrace {
        SwapTrace {
            events: vec![
                TraceEvent {
                    at_ns: 0,
                    op: IoOp::Write,
                    offset: 0,
                    len: 4096,
                },
                TraceEvent {
                    at_ns: 50_000,
                    op: IoOp::Write,
                    offset: 4096,
                    len: 131072,
                },
                TraceEvent {
                    at_ns: 400_000,
                    op: IoOp::Read,
                    offset: 0,
                    len: 4096,
                },
            ],
        }
    }

    #[test]
    fn text_roundtrip() {
        let t = sample_trace();
        let parsed = SwapTrace::from_text(&t.to_text()).expect("parse");
        assert_eq!(parsed, t);
    }

    #[test]
    fn parser_rejects_garbage_with_line_numbers() {
        let err = SwapTrace::from_text("0 W 0 4096\n12 X 0 1\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = SwapTrace::from_text("nope").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn parser_skips_comments_and_blanks() {
        let t = SwapTrace::from_text("# header\n\n0 R 4096 8192\n").expect("parse");
        assert_eq!(t.events.len(), 1);
        assert_eq!(t.bytes(), (8192, 0));
    }

    fn ramdisk(engine: &Engine) -> Rc<RamDiskDevice> {
        let cal = Rc::new(Calibration::cluster_2005());
        let node = Node::new("n", 0, 2);
        Rc::new(RamDiskDevice::new(
            engine.clone(),
            cal,
            node,
            16 << 20,
            "ram",
        ))
    }

    #[test]
    fn open_loop_replay_honors_timestamps() {
        let engine = Engine::new();
        let dev = ramdisk(&engine);
        let report = replay_open_loop(&engine, dev, &sample_trace());
        assert_eq!(report.requests, 3);
        // The last event fires at 400us; makespan at least that.
        assert!(report.makespan.as_nanos() >= 400_000);
        assert!(report.latency_us.count() == 3);
    }

    #[test]
    fn closed_loop_replay_serializes() {
        let engine = Engine::new();
        let dev = ramdisk(&engine);
        let report = replay_closed_loop(&engine, dev, &sample_trace());
        assert_eq!(report.requests, 3);
        // Closed loop ignores timestamps: makespan = sum of service times,
        // far below the 400us recorded span for a fast ramdisk.
        assert!(report.makespan.as_nanos() < 400_000);
    }

    #[test]
    fn empty_trace_replays_trivially() {
        let engine = Engine::new();
        let dev = ramdisk(&engine);
        let report = replay_closed_loop(&engine, dev, &SwapTrace::default());
        assert_eq!(report.requests, 0);
    }
}
