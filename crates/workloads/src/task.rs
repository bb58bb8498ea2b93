//! Resumable tasks and the quantum scheduler.
//!
//! Applications are state machines whose [`Task::step`] performs up to a
//! budget of operations against paged memory and stops early when an
//! access would block (returning the fault's completion signal). The
//! [`Scheduler`] round-robins runnable tasks in fixed virtual-time quanta:
//! each quantum, every runnable task executes `quantum / ns_per_op`
//! operations *in parallel* (one CPU each, as on the paper's dual-Xeon
//! nodes), the clock advances by one quantum — draining background
//! page-out I/O — and blocked tasks wake when their signals fire.
//!
//! The quantum (default 50 µs) bounds the timing error of compute/IO
//! interleaving; it is far below the millisecond-scale phenomena the
//! figures measure.

use simcore::{Engine, MultiResource, Signal, SimDuration, SimTime};

/// Outcome of one scheduling step.
pub enum Step {
    /// Consumed the whole budget (more work remains).
    Ran,
    /// Stopped early: the next access waits on this signal.
    Blocked(Signal),
    /// The task is complete.
    Done,
}

/// A resumable application instance.
pub trait Task {
    /// Execute up to `max_ops` operations. Must be safe to call again after
    /// a `Blocked` return (accesses are idempotent at the blocking point).
    fn step(&mut self, max_ops: u64) -> Step;

    /// Modeled cost of one operation in virtual nanoseconds.
    fn ns_per_op(&self) -> u64;

    /// Name for reports.
    fn name(&self) -> &str;
}

enum TaskState {
    Runnable,
    Blocked(Signal),
    Done(SimTime),
}

/// Round-robin quantum scheduler over one engine.
pub struct Scheduler {
    engine: Engine,
    quantum: SimDuration,
    cpus: usize,
    node_cpu: Option<MultiResource>,
}

impl Scheduler {
    /// A scheduler with the default 50 µs quantum on a machine with `cpus`
    /// application CPUs.
    pub fn new(engine: Engine, cpus: usize) -> Scheduler {
        Scheduler {
            engine,
            quantum: SimDuration::from_micros(50),
            cpus,
            node_cpu: None,
        }
    }

    /// Charge application compute against this node CPU pool, so kernel
    /// work (kswapd copies, driver staging) contends with the applications
    /// for cores — the host-overhead effect the paper measures.
    pub fn with_node_cpu(mut self, cpu: MultiResource) -> Scheduler {
        self.node_cpu = Some(cpu);
        self
    }

    /// Run all tasks to completion; returns each task's completion instant
    /// (same order as `tasks`).
    ///
    /// # Panics
    /// Panics on simulation deadlock (all tasks blocked, no events
    /// pending).
    pub fn run(&self, tasks: &mut [&mut dyn Task]) -> Vec<SimTime> {
        assert!(!tasks.is_empty());
        let mut states: Vec<TaskState> = tasks.iter().map(|_| TaskState::Runnable).collect();
        let mut runnable: Vec<usize> = Vec::with_capacity(states.len());
        loop {
            // Wake tasks whose fault completed.
            for st in states.iter_mut() {
                if let TaskState::Blocked(sig) = st {
                    if sig.is_set() {
                        *st = TaskState::Runnable;
                    }
                }
            }
            runnable.clear();
            runnable.extend(
                states
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| matches!(s, TaskState::Runnable))
                    .map(|(i, _)| i),
            );

            if runnable.is_empty() {
                let waits: Vec<Signal> = states
                    .iter()
                    .filter_map(|s| match s {
                        TaskState::Blocked(sig) => Some(sig.clone()),
                        _ => None,
                    })
                    .collect();
                if waits.is_empty() {
                    // Everything done.
                    return states
                        .iter()
                        .map(|s| match s {
                            TaskState::Done(t) => *t,
                            _ => unreachable!("no runnable, no blocked, not done"),
                        })
                        .collect();
                }
                self.engine.run_until_any(&waits);
                continue;
            }

            // Each runnable task gets a quantum; more tasks than CPUs time-
            // share (wall time stretches accordingly).
            let waves = runnable.len().div_ceil(self.cpus) as u64;
            for &i in &runnable {
                let ops = (self.quantum.as_nanos() / tasks[i].ns_per_op()).max(1);
                match tasks[i].step(ops) {
                    Step::Ran => {}
                    Step::Blocked(sig) => states[i] = TaskState::Blocked(sig),
                    Step::Done => states[i] = TaskState::Done(self.engine.now() + self.quantum),
                }
            }
            // Occupy the node CPUs for the quantum so background kernel
            // work (kswapd memcpy, driver copies) contends realistically.
            if let Some(cpu) = &self.node_cpu {
                let now = self.engine.now();
                for _ in 0..runnable.len() {
                    cpu.reserve(now, self.quantum);
                }
            }
            self.engine.advance(self.quantum * waves);
        }
    }

    /// Convenience for a single task: run it, return its completion time.
    pub fn run_one(&self, task: &mut dyn Task) -> SimTime {
        let mut tasks: [&mut dyn Task; 1] = [task];
        self.run(&mut tasks)[0]
    }
}

/// Helper shared by task implementations: run the closure-expressed access,
/// mapping a would-block signal into `Step::Blocked` at the call site.
#[macro_export]
macro_rules! try_access {
    ($expr:expr) => {
        match $expr {
            Ok(v) => v,
            Err(sig) => return $crate::task::Step::Blocked(sig),
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts to `target` in increments bounded by the budget.
    struct Counter {
        count: u64,
        target: u64,
    }

    impl Task for Counter {
        fn step(&mut self, max_ops: u64) -> Step {
            let n = max_ops.min(self.target - self.count);
            self.count += n;
            if self.count == self.target {
                Step::Done
            } else {
                Step::Ran
            }
        }
        fn ns_per_op(&self) -> u64 {
            10
        }
        fn name(&self) -> &str {
            "counter"
        }
    }

    #[test]
    fn single_task_time_matches_op_cost() {
        let engine = Engine::new();
        let sched = Scheduler::new(engine.clone(), 2);
        let mut t = Counter {
            count: 0,
            target: 1_000_000,
        };
        let done = sched.run_one(&mut t);
        // 1M ops at 10ns = 10ms, within one quantum of slack.
        let expect = 10_000_000u64;
        assert!(
            done.as_nanos().abs_diff(expect) <= 100_000,
            "got {done}, expected ~10ms"
        );
    }

    #[test]
    fn two_tasks_on_two_cpus_run_in_parallel() {
        let engine = Engine::new();
        let sched = Scheduler::new(engine.clone(), 2);
        let mut a = Counter {
            count: 0,
            target: 1_000_000,
        };
        let mut b = Counter {
            count: 0,
            target: 1_000_000,
        };
        let mut tasks: [&mut dyn Task; 2] = [&mut a, &mut b];
        let done = sched.run(&mut tasks);
        // Both finish around 10ms — not 20ms (they have a CPU each).
        for d in done {
            assert!(
                d.as_nanos() < 12_000_000,
                "parallel tasks should not serialize: {d}"
            );
        }
    }

    #[test]
    fn more_tasks_than_cpus_time_share() {
        let engine = Engine::new();
        let sched = Scheduler::new(engine.clone(), 1);
        let mut a = Counter {
            count: 0,
            target: 500_000,
        };
        let mut b = Counter {
            count: 0,
            target: 500_000,
        };
        let mut tasks: [&mut dyn Task; 2] = [&mut a, &mut b];
        let done = sched.run(&mut tasks);
        // One CPU, two 5ms tasks: ~10ms wall.
        assert!(
            done.iter().any(|d| d.as_nanos() >= 9_000_000),
            "time-sharing should stretch wall time: {done:?}"
        );
    }

    /// Blocks once at the midpoint until an event fires.
    struct BlockOnce {
        count: u64,
        target: u64,
        engine: Engine,
        blocked: Option<Signal>,
    }

    impl Task for BlockOnce {
        fn step(&mut self, max_ops: u64) -> Step {
            if self.count == self.target / 2 && self.blocked.is_none() {
                let sig = Signal::new("io");
                self.blocked = Some(sig.clone());
                // Completion arrives 1ms later.
                let s2 = sig.clone();
                self.engine
                    .schedule_in(SimDuration::from_millis(1), move || s2.set());
                return Step::Blocked(sig);
            }
            let n = max_ops.min(self.target - self.count);
            self.count += n;
            if self.count == self.target {
                Step::Done
            } else {
                Step::Ran
            }
        }
        fn ns_per_op(&self) -> u64 {
            10
        }
        fn name(&self) -> &str {
            "block-once"
        }
    }

    #[test]
    fn blocked_task_waits_for_signal() {
        let engine = Engine::new();
        let sched = Scheduler::new(engine.clone(), 2);
        let mut t = BlockOnce {
            count: 0,
            target: 100_000,
            engine: engine.clone(),
            blocked: None,
        };
        let done = sched.run_one(&mut t);
        // 1ms compute + 1ms block ≈ 2ms.
        assert!(
            done.as_nanos() >= 2_000_000,
            "block time must show up: {done}"
        );
        assert!(done.as_nanos() < 2_300_000, "but not much more: {done}");
    }

    #[test]
    fn node_cpu_reservation_creates_contention() {
        use simcore::MultiResource;
        // With a node CPU attached, two running tasks book both cores each
        // quantum, so kernel work (here: a probe reservation) queues.
        let engine = Engine::new();
        let cpu = MultiResource::new("node-cpu", 2);
        let sched = Scheduler::new(engine.clone(), 2).with_node_cpu(cpu.clone());
        let mut a = Counter {
            count: 0,
            target: 200_000,
        };
        let mut b = Counter {
            count: 0,
            target: 200_000,
        };
        let mut tasks: [&mut dyn Task; 2] = [&mut a, &mut b];
        sched.run(&mut tasks);
        // ~2ms of compute per task booked on the pool.
        let busy = cpu.busy_total().as_nanos();
        assert!(
            busy >= 2 * 2_000_000,
            "both tasks' quanta must be booked: {busy}ns"
        );
    }

    #[test]
    fn other_task_progresses_while_one_blocks() {
        let engine = Engine::new();
        let sched = Scheduler::new(engine.clone(), 2);
        let mut a = BlockOnce {
            count: 0,
            target: 100_000, // 1ms compute + 1ms block
            engine: engine.clone(),
            blocked: None,
        };
        let mut b = Counter {
            count: 0,
            target: 150_000, // 1.5ms compute
        };
        let mut tasks: [&mut dyn Task; 2] = [&mut a, &mut b];
        let done = sched.run(&mut tasks);
        // b must finish before a despite starting together: it computes
        // through a's I/O stall.
        assert!(
            done[1] < done[0],
            "b {:?} should beat a {:?}",
            done[1],
            done[0]
        );
    }
}
