//! Parallel sweep runner: fan independent figure cells across OS threads.
//!
//! A figure sweep is a list of *cells* — (configuration, seed) pairs whose
//! simulations share nothing. Each cell builds its whole machine inside
//! the worker thread (`ScenarioConfig` and the `Rc`-based simulation state
//! are intentionally not `Send`), runs to completion, and returns only
//! plain data: the [`RunReport`](workloads::RunReport) and, when tracing,
//! the cell's event buffer. The caller reassembles results **in cell
//! order**, so tables, metrics and exported traces are byte-identical to a
//! sequential run regardless of thread count or completion order.
//!
//! Work is distributed by an atomic take-a-number queue rather than static
//! chunking: cells in one figure differ in cost by an order of magnitude
//! (disk paging vs local memory), and a shared counter keeps the long
//! cells from serializing behind short ones.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

fn auto_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Thread-count policy for a sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Runner {
    threads: usize,
}

impl Runner {
    /// Use exactly `threads` workers (0 means auto).
    pub fn with_threads(threads: usize) -> Runner {
        Runner {
            threads: if threads == 0 {
                auto_threads()
            } else {
                threads
            },
        }
    }

    /// Worker count this runner will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `cells` independent cells through `f`, returning results in
    /// cell order. With one thread (or one cell) this is exactly
    /// `(0..cells).map(f).collect()` — no threads are spawned.
    pub fn run_cells<T, F>(&self, cells: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.threads <= 1 || cells <= 1 {
            return (0..cells).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = (0..cells).map(|_| Mutex::new(None)).collect();
        #[expect(
            clippy::disallowed_methods,
            reason = "the one fan-out site: each worker builds and runs whole cells, and results return in cell order"
        )]
        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(cells) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= cells {
                        break;
                    }
                    let value = f(i);
                    *slots[i].lock().unwrap() = Some(value);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap()
                    .expect("every cell index below `cells` is claimed exactly once")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_runs_inline_in_order() {
        let seen = Mutex::new(Vec::new());
        let caller = std::thread::current().id();
        let out = Runner::with_threads(1).run_cells(4, |i| {
            // Running on the caller's thread proves no workers were
            // spawned.
            assert_eq!(std::thread::current().id(), caller);
            seen.lock().unwrap().push(i);
            i * 10
        });
        assert_eq!(out, vec![0, 10, 20, 30]);
        assert_eq!(*seen.lock().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn parallel_preserves_cell_order() {
        // Make early cells slow so later cells finish first; results must
        // still come back in cell order.
        let out = Runner::with_threads(4).run_cells(8, |i| {
            if i < 2 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i
        });
        assert_eq!(out, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn zero_threads_means_auto() {
        assert!(Runner::with_threads(0).threads() >= 1);
    }

    #[test]
    fn parallel_matches_sequential() {
        let f = |i: usize| (i as u64 + 1) * 7;
        let seq = Runner::with_threads(1).run_cells(13, f);
        let par = Runner::with_threads(3).run_cells(13, f);
        assert_eq!(seq, par);
    }
}
