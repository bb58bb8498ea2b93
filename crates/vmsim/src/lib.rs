#![warn(missing_docs)]

//! # vmsim — the Linux 2.4-style virtual memory and swap subsystem
//!
//! HPBD plugs in underneath the kernel VM as a swap device (paper §3.2):
//! when free pages fall below a threshold, `kswapd` pushes pages out to the
//! swap back-store; page-in requests happen on demand at fault time. This
//! crate reproduces that machinery over the workspace's discrete-event
//! engine so real applications (testswap, quicksort, Barnes-Hut) can run
//! against any swap device — HPBD, NBD, or the local disk:
//!
//! * [`Vm`] — frame pool with low/high watermarks, background `kswapd`
//!   reclaim, second-chance (CLOCK) replacement, swap-slot management with
//!   a next-fit allocator (which gives page-out bursts the sequential slot
//!   runs that merge into the ~120 KiB requests of Figure 6), 8-page
//!   swap-in readahead, and a swap-cache-like "clean page keeps its slot"
//!   rule so undirtied pages evict without I/O.
//! * [`SwapBackend`] — the storage boundary. The VM submits page-sized
//!   `store`/`load` operations and reaps completions; [`BlockBackend`]
//!   routes them through the kernel's merging request queue (the paper's
//!   path), [`DirectBackend`] is the frontswap-style user-space path: the
//!   demand page alone and busy-polled, bursts coalesced at `reap`
//!   (DESIGN.md §16).
//! * [`AddressSpace`] / [`PagedVec`] — how applications live on the
//!   simulated VM: element accesses fault pages in through the full paging
//!   path. Accesses come in a *try* flavour (returns the completion
//!   [`simcore::Signal`] when the access would block, enabling the
//!   multi-programmed runs of Figure 9) and a *blocking* flavour that runs
//!   the engine until the fault resolves.
//!
//! Simplifications vs. the real 2.4 VM (documented in DESIGN.md): one zone,
//! no file-backed page cache (swap-only workloads), CLOCK instead of the
//! two-list active/inactive scan, and swap readahead that stops at
//! unallocated slots.

pub mod backend;
pub mod config;
pub mod frames;
pub mod paged;
pub mod swap;
pub mod vm;

pub use backend::{
    BlockBackend, DirectBackend, DirectConfig, DirectStats, LoadKind, PageDone, SwapBackend,
    DIRECT_MAX_RUN_BYTES,
};
pub use config::VmConfig;
pub use frames::{FrameId, FramePool};
pub use paged::{AddressSpace, Element, Lent, PagedVec, Pinned};
pub use swap::{Slot, SwapManager};
pub use vm::{Stamps, Vm, VmStats};
