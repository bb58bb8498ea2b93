//! Completion flags for driving the engine.
//!
//! A [`Signal`] is a one-shot boolean flag shared between the code that posts
//! asynchronous work and the loop that runs the engine waiting for it — the
//! simulation analogue of a kernel completion.

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
}
