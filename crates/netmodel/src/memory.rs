//! Memory-path cost model shared by both nodes.
//!
//! [`MemoryModel`] wraps a [`Calibration`] and a node CPU
//! [`simcore::MultiResource`], charging memcpy/registration work against the
//! CPU so that staging copies contend with application compute — the "host
//! overhead" the paper identifies as the dominant cost once the network is
//! fast.

use crate::Calibration;
use simcore::{MultiResource, SimDuration};
use std::rc::Rc;

/// Per-node memory cost model bound to that node's CPU resource.
#[derive(Clone)]
pub struct MemoryModel {
    cal: Rc<Calibration>,
    cpu: MultiResource,
}

impl MemoryModel {
    /// Bind a calibration to a node CPU pool.
    pub fn new(cal: Rc<Calibration>, cpu: MultiResource) -> MemoryModel {
        MemoryModel { cal, cpu }
    }

    /// The node CPU pool (shared with other components on the node).
    pub fn cpu(&self) -> &MultiResource {
        &self.cpu
    }

    /// The calibration in effect.
    pub fn calibration(&self) -> &Calibration {
        &self.cal
    }

    /// memcpy duration without reserving CPU (pure model query).
    pub fn memcpy_time(&self, len: u64) -> SimDuration {
        self.cal.memcpy_time(len)
    }
}
