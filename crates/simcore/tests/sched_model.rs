//! Model-based property test for the event scheduler.
//!
//! Drives an [`Engine`] and a trivially-correct sorted-vec model in
//! lockstep through a long random mix of schedule / cancel / advance /
//! step operations. After every operation the two must agree on the
//! clock, the pending-event count, the next event's timestamp, the return
//! value of `cancel`, and the execution log (which event ran, in what
//! order, at what clock reading) — including FIFO order among events
//! scheduled for the same tick, and children spawned *during* execution at
//! the parent's own timestamp.
//!
//! This model is the scheduler's only oracle: the engine's ordered map has
//! no second implementation to be compared against.

use simcore::{Engine, EventId, SimDuration, SimRng};
use std::cell::RefCell;
use std::rc::Rc;

/// A pending event in the model: fires at `time`, tie-broken by the
/// global schedule sequence number `seq`.
#[derive(Clone, Copy)]
struct ModelEvent {
    time: u64,
    seq: u64,
    id: u64,
}

/// The sorted-vec model: linear scan for the minimum `(time, seq)`.
#[derive(Default)]
struct Model {
    pending: Vec<ModelEvent>,
    next_seq: u64,
    now: u64,
    /// `(id, clock)` of every event executed so far.
    log: Vec<(u64, u64)>,
}

impl Model {
    fn schedule(&mut self, time: u64, id: u64) {
        assert!(time >= self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push(ModelEvent { time, seq, id });
    }

    /// Remove the pending event with logical id `id`; true if it was
    /// still pending (mirrors [`Engine::cancel`]).
    fn cancel(&mut self, id: u64) -> bool {
        match self.pending.iter().position(|e| e.id == id) {
            Some(i) => {
                self.pending.remove(i);
                true
            }
            None => false,
        }
    }

    /// Timestamp of the earliest pending event (mirrors
    /// [`Engine::peek_next_time`]).
    fn peek(&self) -> Option<u64> {
        self.pending.iter().map(|e| e.time).min()
    }

    /// Execute the earliest `(time, seq)` event if it is due by
    /// `deadline`; true if one ran. Events whose id is divisible by
    /// [`SPAWN_DIVISOR`] spawn one child at their own timestamp — the
    /// same rule the engine-side closures implement.
    fn step_due(&mut self, deadline: u64) -> bool {
        let due = self
            .pending
            .iter()
            .enumerate()
            .filter(|(_, e)| e.time <= deadline)
            .min_by_key(|(_, e)| (e.time, e.seq))
            .map(|(i, _)| i);
        let Some(i) = due else { return false };
        let ev = self.pending.remove(i);
        self.now = ev.time;
        self.log.push((ev.id, self.now));
        if ev.id.is_multiple_of(SPAWN_DIVISOR) {
            self.schedule(ev.time, ev.id + CHILD_OFFSET);
        }
        true
    }

    /// Mirrors [`Engine::step_one`]: the next event, whenever it is.
    fn step(&mut self) -> bool {
        self.step_due(u64::MAX)
    }

    /// Mirrors [`Engine::advance`]: everything due within `span`, then
    /// the clock rests on the deadline.
    fn advance(&mut self, span: u64) {
        let deadline = self.now + span;
        while self.step_due(deadline) {}
        self.now = deadline;
    }
}

/// Events with `id % SPAWN_DIVISOR == 0` spawn a same-tick child.
const SPAWN_DIVISOR: u64 = 7;
/// Child ids are offset far above parent ids so they never collide.
const CHILD_OFFSET: u64 = 1 << 32;

/// The window of the timing wheel that once backed the queue (65 536 ns).
/// It stays an input: delays on its edges and a run many windows long.
const WINDOW_NS: u64 = 1 << 16;

/// One operation of the random script, pre-generated so it depends on the
/// seed alone.
enum Op {
    /// Schedule event `id` at `delay` ns from the current clock.
    Schedule { id: u64, delay: u64 },
    /// Cancel the `nth` tracked cancellable event (if any remain).
    Cancel { nth: usize },
    /// Advance the clock by `span` ns, running everything due.
    Advance { span: u64 },
    /// Run the single next event, however far away it is.
    Step,
}

fn random_script(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = SimRng::new(seed);
    let mut next_id = 1u64;
    (0..len)
        .map(|_| match rng.below(12) {
            0..=6 => {
                let id = next_id;
                next_id += 1;
                Op::Schedule {
                    id,
                    // Skewed toward small delays (and often zero) so many
                    // events collide on the same tick. Two classes land
                    // beyond 65.5 µs, one of them by milliseconds (where
                    // request timeouts and the server's idle timer live), so
                    // far events stay queued while the clock moves. The last
                    // class sits on the old window's edges: whole windows
                    // apart, and one tick short of that.
                    delay: match rng.below(6) {
                        0 => 0,
                        1 => rng.below(8),
                        2 => rng.below(300),
                        3 => rng.below(200_000),
                        4 => rng.below(5_000_000),
                        _ => WINDOW_NS * (1 + rng.below(4)) - rng.below(2),
                    },
                }
            }
            7..=8 => Op::Cancel {
                nth: rng.below(1 << 20) as usize,
            },
            9..=10 => Op::Advance {
                // Mostly inside one window; sometimes across several.
                span: match rng.below(8) {
                    0 => rng.below(400_000),
                    _ => rng.below(5_000),
                },
            },
            _ => Op::Step,
        })
        .collect()
}

fn fire(engine: &Engine, log: &Rc<RefCell<Vec<(u64, u64)>>>, id: u64) {
    log.borrow_mut().push((id, engine.now().as_nanos()));
    if id.is_multiple_of(SPAWN_DIVISOR) {
        let child = id + CHILD_OFFSET;
        let engine2 = engine.clone();
        let log2 = log.clone();
        engine.schedule_at(engine.now(), move || fire(&engine2, &log2, child));
    }
}

/// Everything observable about the engine must equal the model. `seen` is
/// how much of the execution log earlier calls already compared.
fn assert_in_step(
    engine: &Engine,
    log: &RefCell<Vec<(u64, u64)>>,
    model: &Model,
    seen: &mut usize,
    at: &str,
) {
    assert_eq!(engine.now().as_nanos(), model.now, "{at}: clock");
    assert_eq!(
        engine.pending_events(),
        model.pending.len(),
        "{at}: pending_events"
    );
    assert_eq!(
        engine.peek_next_time().map(|t| t.as_nanos()),
        model.peek(),
        "{at}: peek_next_time"
    );
    let log = log.borrow();
    assert_eq!(log.len(), model.log.len(), "{at}: executed-event count");
    for i in *seen..log.len() {
        assert_eq!(
            log[i], model.log[i],
            "{at}: event #{i}: engine fired {:?}, model {:?}",
            log[i], model.log[i]
        );
    }
    *seen = log.len();
}

/// Run one random script through the engine and the model in lockstep.
///
/// Cancel bookkeeping: a cancelled handle leaves the tracking list, a
/// fired one stays, so the script cancels pending and fired handles alike;
/// the model answers each from `pending`.
fn check(seed: u64, len: usize) {
    let engine = Engine::new();
    let log: Rc<RefCell<Vec<(u64, u64)>>> = Rc::default();
    let mut model = Model::default();
    let mut cancellable: Vec<(u64, EventId)> = Vec::new();
    let mut seen = 0;
    let mut max_pending = 0;
    for (n, op) in random_script(seed, len).iter().enumerate() {
        match *op {
            Op::Schedule { id, delay } => {
                let engine2 = engine.clone();
                let log2 = log.clone();
                let handle = engine
                    .schedule_cancellable_in(SimDuration::from_nanos(delay), move || {
                        fire(&engine2, &log2, id)
                    });
                model.schedule(model.now + delay, id);
                cancellable.push((id, handle));
            }
            Op::Cancel { nth } => {
                if !cancellable.is_empty() {
                    let (id, handle) = cancellable.remove(nth % cancellable.len());
                    assert_eq!(
                        engine.cancel(handle),
                        model.cancel(id),
                        "seed {seed} op #{n}: cancel of event {id}"
                    );
                }
            }
            Op::Advance { span } => {
                engine.advance(SimDuration::from_nanos(span));
                model.advance(span);
            }
            Op::Step => {
                assert_eq!(
                    engine.step_one(),
                    model.step(),
                    "seed {seed} op #{n}: step_one"
                );
            }
        }
        assert_in_step(
            &engine,
            &log,
            &model,
            &mut seen,
            &format!("seed {seed} op #{n}"),
        );
        max_pending = max_pending.max(model.pending.len());
    }
    engine.run_until_idle();
    while model.step() {}
    assert_in_step(
        &engine,
        &log,
        &model,
        &mut seen,
        &format!("seed {seed} drain"),
    );
    assert_eq!(engine.max_pending_events(), max_pending, "seed {seed}");
    // The script must have exercised what it claims to: virtual time
    // crosses many windows with far events still queued.
    assert!(
        model.now > 20 * WINDOW_NS,
        "seed {seed}: only {}ns",
        model.now
    );
}

#[test]
fn engine_matches_sorted_vec_model() {
    for seed in [1, 2, 3, 0xDEAD_BEEF] {
        check(seed, 4_000);
    }
}

#[test]
fn engine_matches_sorted_vec_model_on_long_scripts() {
    for seed in [11, 12] {
        check(seed, 8_000);
    }
}
