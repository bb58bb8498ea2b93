//! Completion flags and counters for driving the engine.
//!
//! A [`Signal`] is a one-shot boolean flag shared between the code that posts
//! asynchronous work and the loop that runs the engine waiting for it — the
//! simulation analogue of a kernel completion. [`Counter`] is a shared
//! monotonically adjustable integer used for credits and statistics.

use std::cell::Cell;
use std::fmt;
use std::rc::Rc;

/// One-shot completion flag. Cloning shares the flag.
#[derive(Clone)]
pub struct Signal {
    name: &'static str,
    set: Rc<Cell<bool>>,
}

impl Signal {
    /// Create an unset signal. The name appears in deadlock diagnostics.
    pub fn new(name: &'static str) -> Signal {
        Signal {
            name,
            set: Rc::new(Cell::new(false)),
        }
    }

    /// Fire the signal. Idempotent.
    #[inline]
    pub fn set(&self) {
        self.set.set(true);
    }

    /// Has the signal fired?
    #[inline]
    pub fn is_set(&self) -> bool {
        self.set.get()
    }

    /// Diagnostic name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl fmt::Debug for Signal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Signal({}={})", self.name, self.is_set())
    }
}

/// A shared integer cell (credits, in-flight counts, statistics).
#[derive(Clone, Default)]
pub struct Counter {
    value: Rc<Cell<u64>>,
}

impl Counter {
    /// A counter starting at `initial`.
    pub fn new(initial: u64) -> Counter {
        Counter {
            value: Rc::new(Cell::new(initial)),
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.get()
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.set(self.value.get() + n);
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtract `n`, panicking on underflow.
    #[inline]
    pub fn sub(&self, n: u64) {
        let v = self.value.get();
        assert!(v >= n, "counter underflow: {v} - {n}");
        self.value.set(v - n);
    }

    /// Set an absolute value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.set(v);
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signal_clones_share_state() {
        let a = Signal::new("x");
        let b = a.clone();
        assert!(!b.is_set());
        a.set();
        assert!(b.is_set());
    }

    #[test]
    fn signal_set_is_idempotent() {
        let s = Signal::new("x");
        s.set();
        s.set();
        assert!(s.is_set());
    }

    #[test]
    fn counter_arithmetic() {
        let c = Counter::new(5);
        c.add(3);
        c.sub(2);
        c.inc();
        assert_eq!(c.get(), 7);
        let d = c.clone();
        d.set(1);
        assert_eq!(c.get(), 1);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn counter_underflow_panics() {
        Counter::new(0).sub(1);
    }
}
