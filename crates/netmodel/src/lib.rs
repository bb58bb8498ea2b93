#![warn(missing_docs)]

//! # netmodel — calibrated cost models for the HPBD testbed
//!
//! The paper evaluates HPBD on a 2005 cluster: dual Xeon 2.66 GHz nodes,
//! PCI-X 133 MHz, Mellanox MT23108 HCAs on a 144-port IB switch, GigE NICs,
//! and ST340014A ATA disks. We have none of that hardware, so every timing
//! the simulation charges comes from the parameterised models in this crate,
//! calibrated to the latency curves the paper itself reports (Figures 1
//! and 3) and to public specs of the era's parts.
//!
//! * [`Calibration`] — one documented struct holding every constant; the
//!   [`Calibration::cluster_2005`] preset reproduces the paper's testbed.
//! * [`TransportModel`] — linear latency/bandwidth/host-overhead model used
//!   for native IB, IPoIB and GigE ([`Transport`] selects the preset).
//! * [`MemoryModel`] — memcpy and memory-registration costs (Figure 3).
//! * [`DiskParams`] — seek/rotation/transfer model for the local-disk
//!   baseline.
//!
//! The models are *shape-faithful*: RDMA latency tracks memcpy closely while
//! IPoIB and GigE sit far above it, and registration dwarfs copying across
//! the 4 KiB–127 KiB range that swap requests occupy — the two observations
//! that drive the paper's design choices (copy through a pre-registered pool,
//! native verbs instead of TCP).

pub mod calibration;
pub mod memory;
pub mod node;
pub mod transport;

pub use calibration::{Calibration, ComputeParams, DiskParams, HcaParams};
pub use memory::MemoryModel;
pub use node::Node;
pub use transport::{Transport, TransportModel};
