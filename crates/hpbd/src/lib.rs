#![warn(missing_docs)]

//! # hpbd — the High Performance network Block Device (the paper's system)
//!
//! A faithful reimplementation of HPBD (Liang, Noronha, Panda — CLUSTER
//! 2005) over the workspace's simulated InfiniBand verbs:
//!
//! * [`pool`] — the pre-registered buffer pool (paper §4.2.2): a first-fit
//!   allocator with merge-on-free over one registered region, plus an
//!   allocation wait queue: a pure allocator core
//!   ([`pool::PoolAllocator`]) inside an event-based wrapper for the
//!   simulation ([`pool::SimBufferPool`]).
//! * [`proto`] — the wire protocol: control messages carrying request id,
//!   operation, server offset and the client buffer's rkey/offset, plus
//!   acknowledgement replies; all messages carry a signature that is
//!   validated on receipt (paper §4.1, reliability).
//! * [`client`] — the block-device driver ([`client::HpbdClient`]):
//!   asynchronous sender/receiver design around a shared completion queue,
//!   water-mark credit flow control (paper §4.2.4), multi-server support
//!   with non-striped blocking distribution of the swap area and request
//!   splitting at extent boundaries (paper §4.2.5).
//! * [`server`] — the memory server daemon ([`server::HpbdServer`]):
//!   RamDisk-backed store, **server-initiated RDMA** (RDMA READ pulls
//!   swap-out data from the client, RDMA WRITE pushes swap-in data into
//!   it — paper §4.2.1, Figure 4), staging buffers allowing RDMA/memcpy
//!   overlap, solicited-event replies, and the 200 µs idle sleep.
//! * [`cluster`] — wiring: [`cluster::ClusterBuilder`] builds a client
//!   plus N servers on a fabric (the out-of-band QP exchange the paper
//!   performs over sockets) and arms an optional deterministic
//!   [`simfault::FaultPlan`] against the deployment.

mod channel;
pub mod client;
pub mod cluster;
pub mod config;
pub mod pool;
pub mod proto;
pub mod server;

pub use client::{ClientStats, HpbdClient};
pub use cluster::{ClusterBuilder, HpbdCluster};
pub use config::HpbdConfig;
pub use pool::{PoolAllocator, SimBufferPool};
pub use server::{HpbdServer, ServerStats};
