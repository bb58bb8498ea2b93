//! # hpbd-suite — umbrella crate for the HPBD reproduction
//!
//! Re-exports every crate in the workspace so examples and integration tests
//! can use one dependency. See `README.md` for the tour and `DESIGN.md` for
//! the system inventory.

pub use blockdev;
pub use hpbd;
pub use ibsim;
pub use nbd;
pub use netmodel;
pub use simcore;
pub use simfault;
pub use simtrace;
pub use tcpsim;
pub use vmsim;
pub use workloads;
