#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! # ibsim — a simulated InfiniBand verbs layer
//!
//! A from-scratch discrete-event model of the communication architecture
//! HPBD is built on (paper §3.1): Mellanox MT23108-class HCAs attached to a
//! single-switch 4x fabric, exposing a VAPI-like verbs interface:
//!
//! * [`MemoryRegion`] — registered, DMA-able buffers with local/remote keys.
//!   Registration is explicit, mirroring the real pin-and-translate cost
//!   that motivates HPBD's pre-registered buffer pool.
//! * [`QueuePair`] — reliable-connection (RC) queue pairs: `post_send` /
//!   `post_recv` with channel semantics, and one-sided `RDMA READ` /
//!   `RDMA WRITE` memory semantics. Bounds and rkey validation produce
//!   error completions just like a real HCA.
//! * [`CompletionQueue`] — shared CQs with polling *and* the solicited-event
//!   handler mechanism (`EVAPI_set_comp_eventh` analogue) that HPBD's
//!   client receiver thread and server idle-wakeup rely on.
//! * [`Hca`] — per-node adapter state: WQE processing costs and a QP-context
//!   cache whose thrashing beyond ~8 active QPs reproduces the Figure 10
//!   multi-server degradation.
//! * [`Fabric`] — the switch: creates nodes, connects QPs (standing in for
//!   the paper's socket-based QP information exchange), and owns the
//!   calibrated timing model.
//!
//! Timing model per operation (see `netmodel`): posting charges the node
//! CPU; WQE processing charges the HCA; serialisation charges the tx port of
//! the sender and the rx port of the receiver (cut-through); propagation
//! adds the calibrated one-way base latency. RDMA READ pays two propagation
//! delays (request + data). Data actually moves between the byte buffers of
//! the registered regions at the simulated completion instants, so protocol
//! stacks built on top can be tested for end-to-end integrity, not just
//! timing.

pub mod cq;
pub mod fabric;
pub mod fault;
pub mod hca;
pub mod mr;
pub mod qp;

pub use cq::{Completion, CompletionQueue, Opcode, WcStatus};
pub use fabric::{Fabric, IbNode};
pub use fault::LinkFaults;
pub use hca::Hca;
pub use mr::{MemoryRegion, MrSlice, RemoteSlice};
pub use qp::{PostError, QueuePair, WorkKind, WorkRequest};
