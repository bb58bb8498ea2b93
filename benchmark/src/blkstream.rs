//! `blk_stream_hpbd`: a closed-loop block-level driver with no VM.
//!
//! The driver keeps `queue_depth` requests outstanding against the HPBD
//! client through `BlockDevice::submit`, each next request going out only
//! when an earlier one has completed. A round writes the whole area in
//! sequential requests of 128 KiB, one in four of 64 KiB (which straddle the
//! server extents), waits
//! for them, then issues seeded random-offset reads of 4, 8, 32 and
//! 128 KiB, then a burst of sequential 4 KiB reads from the start of the
//! area, and checks every byte that comes back against the pattern the
//! round wrote. 32 x 128 KiB outstanding overrun the 1 MiB staging pool;
//! the 4 KiB burst fits the pool but lands on one server, so 32
//! outstanding overrun its 16 credits. This is the one workload that
//! drives the pool and the credit window to their limits.

use crate::assembly::{Machine, SPAN_COMPLETION, SPAN_WORKLOADS};
use crate::spans::{request_id, Recorder};
use blockdev::{new_buffer, Bio, IoOp, IoRequest, IoResult};
use simcore::{SimDuration, SimRng};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

const WRITE_BYTES: u64 = 128 << 10;
const READ_BYTES: [u64; 4] = [4 << 10, 8 << 10, 32 << 10, 128 << 10];

/// Driver parameters.
#[derive(Clone, Debug)]
pub struct StreamParams {
    /// Write-then-read rounds.
    pub rounds: u64,
    /// Random reads per round.
    pub reads_per_round: u64,
    /// Sequential 4 KiB reads per round, from offset 0 (one server).
    pub burst_reads: u64,
    /// Requests kept outstanding.
    pub queue_depth: usize,
    /// Seed of the read offsets and sizes, and of the data pattern.
    pub seed: u64,
    /// Harness self-test hook: flip one byte of this read (counted from 0
    /// over the whole run) before it is verified, so the tests can see
    /// `failed` count it.
    pub corrupt_read: Option<u64>,
}

/// What a run produced.
#[derive(Clone, Debug)]
pub struct StreamResult {
    /// Virtual time from the first submission to the last completion.
    pub elapsed: SimDuration,
    /// Requests submitted (all complete before the run returns).
    pub requests: u64,
    /// Requests that errored or read back wrong data.
    pub failed: u64,
    /// Submit-to-completion latency of every read, virtual µs: the stall
    /// the queue-depth-32 caller sees on a swap-in.
    pub read_latencies_us: Vec<f64>,
}

/// The 8-byte word stored at device byte offset `offset` in a round whose
/// salt is `salt`: one multiply per word, so that generating and checking
/// data stays a small part of the workload's host time.
fn pattern_word(salt: u64, offset: u64) -> u64 {
    (offset / 8)
        .wrapping_add(salt)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Per-round salt: successive rounds and different seeds store different
/// data at the same offset.
fn salt(seed: u64, round: u64) -> u64 {
    let x = seed.wrapping_add(round.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    (x ^ (x >> 31)).wrapping_mul(0x94D0_49BB_1331_11EB)
}

fn fill(buf: &mut [u8], salt: u64, offset: u64) {
    for (i, word) in buf.chunks_exact_mut(8).enumerate() {
        word.copy_from_slice(&pattern_word(salt, offset + 8 * i as u64).to_le_bytes());
    }
}

fn matches(buf: &[u8], salt: u64, offset: u64) -> bool {
    buf.chunks_exact(8)
        .enumerate()
        .all(|(i, word)| word == pattern_word(salt, offset + 8 * i as u64).to_le_bytes())
}

struct Progress {
    in_flight: Cell<usize>,
    failed: Cell<u64>,
    read_latencies_us: RefCell<Vec<f64>>,
}

/// Run the stream on `machine`'s device, undecorated.
pub fn run(machine: &Machine, params: &StreamParams) -> StreamResult {
    run_with(machine, params, &Recorder::disabled())
}

/// Run the stream, opening a `workloads` span around each request the
/// driver builds and a `completion` span around each verification.
pub fn run_with(machine: &Machine, params: &StreamParams, rec: &Recorder) -> StreamResult {
    let dev = machine.device.clone().expect("block stream needs a device");
    let engine = &machine.engine;
    let area = dev.capacity();
    assert!(area >= WRITE_BYTES && params.queue_depth > 0);
    let reads = params.rounds * (params.reads_per_round + params.burst_reads);
    let progress = Rc::new(Progress {
        in_flight: Cell::new(0),
        failed: Cell::new(0),
        read_latencies_us: RefCell::new(Vec::with_capacity(reads as usize)),
    });
    let mut rng = SimRng::new(params.seed);
    let mut reads_issued = 0u64;
    let mut requests = 0u64;
    let t_start = engine.now();

    let wait_below = |limit: usize| {
        while progress.in_flight.get() >= limit {
            assert!(
                engine.step_one(),
                "requests outstanding but no event pending"
            );
        }
    };
    let lifecycle_device = engine
        .lifecycle_enabled()
        .then(|| simtrace::intern(dev.name()));
    let mut submit = |op: IoOp, round: u64, offset: u64, len: u64, corrupt: bool| {
        wait_below(params.queue_depth);
        let id = request_id(op == IoOp::Write, offset);
        let salt = salt(params.seed, round);
        rec.span(SPAN_WORKLOADS, id, || {
            let buf = new_buffer(len as usize);
            if op == IoOp::Write {
                fill(&mut buf.borrow_mut(), salt, offset);
            }
            progress.in_flight.set(progress.in_flight.get() + 1);
            let submitted = engine.now();
            let (engine, progress, rec) = (engine.clone(), progress.clone(), rec.clone());
            let data = buf.clone();
            // The driver is the dispatch boundary here, so it opens the
            // request's lifecycle as the request queue would (phase pass).
            let lifecycle = lifecycle_device.and_then(|device| {
                let write = op == IoOp::Write;
                (engine.lifecycle()).begin(device, write, len, submitted.as_nanos())
            });
            let ctx = lifecycle.clone();
            let done = move |result: IoResult| {
                rec.span(SPAN_COMPLETION, id, || {
                    if let Some(ctx) = &ctx {
                        ctx.end(engine.now().as_nanos(), result.is_ok());
                    }
                    if op == IoOp::Read {
                        let us = engine.now().since(submitted).as_micros_f64();
                        progress.read_latencies_us.borrow_mut().push(us);
                    }
                    if corrupt {
                        data.borrow_mut()[0] ^= 0xFF;
                    }
                    let ok = result.is_ok()
                        && (op == IoOp::Write || matches(&data.borrow(), salt, offset));
                    if !ok {
                        progress.failed.set(progress.failed.get() + 1);
                    }
                    progress.in_flight.set(progress.in_flight.get() - 1);
                });
            };
            let mut req = IoRequest::single(Bio::new(op, offset, buf, done));
            if let Some(ctx) = lifecycle {
                req.set_lifecycle(ctx);
            }
            dev.submit(req);
        });
        requests += 1;
    };

    for round in 0..params.rounds {
        let mut offset = 0;
        while offset < area {
            // Seeded sizes, so that write latencies depend on the seed too.
            let len = if rng.below(4) == 0 {
                WRITE_BYTES / 2
            } else {
                WRITE_BYTES
            };
            let len = len.min(area - offset);
            submit(IoOp::Write, round, offset, len, false);
            offset += len;
        }
        // Reads must see this round's data: let every write land first.
        wait_below(1);
        for _ in 0..params.reads_per_round {
            let len = READ_BYTES[rng.below(READ_BYTES.len() as u64) as usize];
            let offset = rng.below((area - len) / 4096 + 1) * 4096;
            let corrupt = params.corrupt_read == Some(reads_issued);
            reads_issued += 1;
            submit(IoOp::Read, round, offset, len, corrupt);
        }
        for i in 0..params.burst_reads {
            submit(IoOp::Read, round, i * 4096 % area, 4096, false);
        }
        wait_below(1);
    }

    let read_latencies_us = progress.read_latencies_us.borrow().clone();
    StreamResult {
        elapsed: engine.now() - t_start,
        requests,
        failed: progress.failed.get(),
        read_latencies_us,
    }
}
