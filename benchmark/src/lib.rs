#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # hpbd-benchmark — where the simulator's host time goes
//!
//! Four workloads that load different layers of the HPBD simulation suite
//! (see `README.md` for why each exists), measured end to end on both
//! clocks — host wall/CPU/RSS and the virtual-time results the paper
//! reports — and layer by layer through microbenches, deterministic
//! counters and host-clock spans recorded at the public seams.
//!
//! The package reaches the simulator only through the crates' public
//! items and is not a member of the root workspace.

pub mod assembly;
pub mod blkstream;
pub mod cells;
pub mod compare;
pub mod metrics;
pub mod micro;
pub mod passes;
pub mod spans;
pub mod stats;
pub mod suite;
