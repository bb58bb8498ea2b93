//! # bench — the experiment harness
//!
//! One regeneration function per table/figure of the paper's evaluation
//! (§6), each with a thin binary wrapper (`cargo run --release -p bench
//! --bin fig5`) and a row in EXPERIMENTS.md:
//!
//! | target | content |
//! |---|---|
//! | [`figures::fig1`]  | latency: memcpy / RDMA write / IPoIB / GigE, 1 B–128 KiB |
//! | [`figures::fig3`]  | memory registration vs memcpy cost |
//! | [`figures::fig5`]  | testswap execution time across swap devices |
//! | [`figures::fig6`]  | testswap request-size profile per request cluster |
//! | [`figures::fig7`]  | quicksort execution time across swap devices |
//! | [`figures::fig8`]  | Barnes execution time across swap devices |
//! | [`figures::fig9`]  | two concurrent quicksorts, multi-server HPBD |
//! | [`figures::fig10`] | quicksort vs number of memory servers (1–16) |
//! | `table1` binary    | the related-work taxonomy with HPBD's row |
//!
//! All workload figures accept a **scale divisor**: the paper's sizes
//! (1 GiB dataset, 512 MiB local memory, 2 GiB for the baseline) divided by
//! `scale`. Ratios between configurations are scale-invariant in this
//! simulation, which is what the reproduction targets — see EXPERIMENTS.md
//! for paper-vs-measured at the default scale of 16.

pub mod args;
pub mod figures;
pub mod report;
pub mod runner;

pub use args::{CommonArgs, Flag};
pub use report::{print_rows, ratio, Row};
pub use runner::Runner;
