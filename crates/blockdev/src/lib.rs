#![warn(missing_docs)]

//! # blockdev — the block I/O layer of the simulated kernel
//!
//! HPBD is a *block device driver*: the Linux VM hands it ordinary block
//! I/O requests and the driver moves them over InfiniBand (paper §3.2–3.3).
//! This crate provides the pieces of that world:
//!
//! * [`BlockDevice`] — the driver interface: asynchronous `submit` of
//!   byte-addressed requests with completion callbacks.
//! * [`IoRequest`] / [`Bio`] — a request is one contiguous extent assembled
//!   from per-page bios, with scatter/gather helpers, mirroring how the
//!   kernel clusters swap pages into large transfers.
//! * [`RequestQueue`] — the merging front-end: adjacent bios coalesce up to
//!   the 128 KiB cap the paper reports (Figure 6's ~120 KiB average request
//!   size for testswap comes from exactly this mechanism), with a dispatch
//!   log for the Figure 6 harness.
//! * [`RamDiskDevice`] — memory-backed device (the NBD server's page store
//!   uses the same [`Storage`]).
//! * [`SimDisk`] — the ST340014A-class ATA disk baseline: seek + rotation
//!   for non-sequential accesses, serial service, calibrated transfer rate.

pub mod device;
pub mod disk;
pub mod elevator;
pub mod queue;
pub mod ramdisk;
pub mod request;
pub mod trace;

pub use device::{BlockDevice, DeviceHealth};
pub use disk::SimDisk;
pub use elevator::Elevator;
pub use queue::{
    for_each_run, DispatchRecord, RequestQueue, DEFAULT_FLUSH_BACKSTOP, MAX_REQUEST_BYTES,
};
pub use ramdisk::{RamDiskDevice, Storage};
pub use request::{new_buffer, Bio, FaultKind, IoBuffer, IoError, IoOp, IoRequest, IoResult};
pub use trace::{ReplayReport, SwapTrace, TraceEvent};
