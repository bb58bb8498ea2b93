#![warn(missing_docs)]

//! # workloads — the paper's applications on the simulated machine
//!
//! Three programs drive every figure in the evaluation (paper §6.1):
//!
//! * [`testswap`] — the microbenchmark: allocate a large array and write
//!   integers into it sequentially.
//! * [`qsort`] — CLRS quicksort over randomly generated integers (the
//!   paper's 256 Mi-element / 1 GiB dataset at scale 1).
//! * [`barnes`] — the SPLASH-2 Barnes-Hut N-body simulation (the paper
//!   simulates 2,097,152 bodies with a ~516 MB peak footprint).
//!
//! A fourth workload, [`kvstore`] (a database-like transaction mix over a
//! paged hash table), goes beyond the paper's three programs to exercise
//! random single-page faults — see EXPERIMENTS.md §KV. A fifth, [`zipf`],
//! samples pages from a Zipf(s=1) popularity distribution with hot pages
//! scattered across the address range — the skewed-access variant figU
//! uses to compare the kernel-block and user-space direct swap paths.
//!
//! testswap and quicksort are written as *resumable tasks*
//! ([`task::Task`]): every paged-memory access can report "would block",
//! letting the [`task::Scheduler`] interleave several application
//! instances over the shared VM — that is how the two concurrent quicksort
//! instances of Figure 9 run on the dual-CPU client. Barnes-Hut uses the
//! blocking access path (it only appears single-instance, Figure 8).
//!
//! [`scenario`] assembles full machines — local-memory, HPBD with N
//! servers, NBD over GigE/IPoIB, or local disk — and returns uniform
//! [`scenario::RunReport`]s for the figure harnesses.

pub mod barnes;
pub mod kvstore;
pub mod qsort;
pub mod scenario;
pub mod task;
pub mod testswap;
pub mod zipf;

pub use scenario::{RunReport, Scenario, ScenarioConfig, SwapKind, SwapPath};
pub use task::{Scheduler, Step, Task};
