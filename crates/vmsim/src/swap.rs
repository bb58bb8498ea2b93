//! Swap-space management: devices, slots, and the next-fit slot allocator.
//!
//! Multiple swap devices with priorities are supported, as in the kernel
//! (paper §3.2: "page-out data are placed to these devices based on their
//! priorities"). Slots are allocated next-fit from a moving hint, so a
//! burst of page-outs lands on consecutive slots — that contiguity is what
//! the block layer's merging turns into the large (~120 KiB) requests of
//! Figure 6, and what makes disk swap partially sequential for testswap.

use crate::backend::SwapBackend;
use std::rc::Rc;

/// A page-sized slot on a swap device.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Slot {
    /// Swap device id (index into the manager's device table).
    pub dev: u32,
    /// Slot index on that device; byte offset = `index * page_size`.
    pub index: u64,
}

struct SwapDevice {
    backend: Rc<dyn SwapBackend>,
    priority: i32,
    /// The page owning each slot: the allocation record, and the reverse
    /// map readahead reads its neighbours from.
    owners: Vec<Option<PageKey>>,
    free: u64,
    hint: u64,
}

/// Owner of a swap slot: (address-space id, virtual page number).
pub type PageKey = (u32, u64);

/// The swap-space manager.
pub struct SwapManager {
    page_size: u64,
    devices: Vec<SwapDevice>,
    /// Device ids in fill order: highest priority first, ties broken by
    /// registration order, which keeps allocation deterministic.
    fill_order: Vec<u32>,
}

impl SwapManager {
    /// Create an empty manager for `page_size`-byte pages.
    pub fn new(page_size: u64) -> SwapManager {
        SwapManager {
            page_size,
            devices: Vec::new(),
            fill_order: Vec::new(),
        }
    }

    /// Register a swap backend (its capacity sets the slot count).
    /// Higher `priority` devices fill first. Returns the device id.
    pub fn add_device(&mut self, backend: Rc<dyn SwapBackend>, priority: i32) -> u32 {
        let slots = backend.capacity() / self.page_size;
        assert!(slots > 0, "swap device smaller than one page");
        let id = self.devices.len() as u32;
        self.devices.push(SwapDevice {
            backend,
            priority,
            owners: vec![None; slots as usize],
            free: slots,
            hint: 0,
        });
        self.fill_order.push(id);
        let devices = &self.devices;
        self.fill_order
            .sort_by_key(|&d| (-devices[d as usize].priority, d));
        id
    }

    /// Total free slots across devices.
    pub fn free_slots(&self) -> u64 {
        self.devices.iter().map(|d| d.free).sum()
    }

    /// The swap backend of device `dev`.
    pub fn backend(&self, dev: u32) -> Rc<dyn SwapBackend> {
        self.devices[dev as usize].backend.clone()
    }

    /// Reap every device's staged submissions (after staging a batch).
    pub fn reap_all(&self) {
        for d in &self.devices {
            d.backend.reap();
        }
    }

    /// Byte offset of `slot` on its device.
    pub fn offset_of(&self, slot: Slot) -> u64 {
        slot.index * self.page_size
    }

    /// Allocate a slot for `owner`, next-fit on the highest-priority device
    /// with space. Returns `None` when swap is exhausted.
    pub fn alloc_slot(&mut self, owner: PageKey) -> Option<Slot> {
        let devices = &mut self.devices;
        let &dev = self
            .fill_order
            .iter()
            .find(|&&d| devices[d as usize].free > 0)?;
        let device = &mut devices[dev as usize];
        let n = device.owners.len() as u64;
        let index = (0..n)
            .map(|p| (device.hint + p) % n)
            .find(|&i| device.owners[i as usize].is_none())?;
        device.owners[index as usize] = Some(owner);
        device.free -= 1;
        device.hint = (index + 1) % n;
        Some(Slot { dev, index })
    }

    /// Release a slot.
    ///
    /// # Panics
    /// Panics if the slot is not allocated (double free).
    pub fn free_slot(&mut self, slot: Slot) {
        let dev = &mut self.devices[slot.dev as usize];
        assert!(
            dev.owners[slot.index as usize].take().is_some(),
            "freeing unallocated swap slot {slot:?}"
        );
        dev.free += 1;
    }

    /// The page owning `slot`, if allocated.
    pub fn owner_of(&self, slot: Slot) -> Option<PageKey> {
        self.devices[slot.dev as usize].owners[slot.index as usize]
    }

    /// Allocated slots immediately following `slot` on the same device, up
    /// to `k`, stopping at the first unallocated slot — the swap-in
    /// readahead cluster.
    pub fn readahead_neighbors(&self, slot: Slot, k: usize) -> Vec<(Slot, PageKey)> {
        let (dev, first) = (slot.dev, slot.index + 1);
        let owners = &self.devices[dev as usize].owners;
        (first..)
            .zip(owners.iter().skip(first as usize).take(k))
            .map_while(|(index, owner)| Some((Slot { dev, index }, (*owner)?)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{LoadKind, PageDone};
    use blockdev::IoBuffer;
    use simcore::OnlineStats;

    /// Slot-allocation tests need only a capacity — a stub backend keeps
    /// them free of any I/O machinery.
    struct StubBackend {
        capacity: u64,
    }

    impl SwapBackend for StubBackend {
        fn capacity(&self) -> u64 {
            self.capacity
        }
        fn device_name(&self) -> &str {
            "stub"
        }
        fn store(&self, _offset: u64, _buf: IoBuffer, _done: PageDone) {
            unreachable!("slot tests never issue I/O")
        }
        fn load(&self, _offset: u64, _kind: LoadKind, _buf: IoBuffer, _done: PageDone) {
            unreachable!("slot tests never issue I/O")
        }
        fn reap(&self) {}
        fn requests(&self) -> u64 {
            0
        }
        fn mean_request_bytes(&self) -> f64 {
            0.0
        }
        fn read_latency(&self) -> OnlineStats {
            OnlineStats::new()
        }
        fn write_latency(&self) -> OnlineStats {
            OnlineStats::new()
        }
    }

    fn stub(slots: u64) -> Rc<dyn SwapBackend> {
        Rc::new(StubBackend {
            capacity: slots * 4096,
        })
    }

    fn manager_with_dev(slots: u64) -> SwapManager {
        let mut m = SwapManager::new(4096);
        m.add_device(stub(slots), 0);
        m
    }

    #[test]
    fn burst_allocation_is_contiguous() {
        let mut m = manager_with_dev(64);
        let slots: Vec<Slot> = (0..8).map(|i| m.alloc_slot((1, i)).unwrap()).collect();
        for w in slots.windows(2) {
            assert_eq!(w[1].index, w[0].index + 1, "next-fit contiguity");
        }
    }

    #[test]
    fn free_then_realloc_wraps_via_hint() {
        let mut m = manager_with_dev(4);
        let s: Vec<Slot> = (0..4).map(|i| m.alloc_slot((1, i)).unwrap()).collect();
        assert!(m.alloc_slot((1, 99)).is_none(), "exhausted");
        m.free_slot(s[1]);
        let again = m.alloc_slot((1, 99)).unwrap();
        assert_eq!(again.index, 1, "hint wraps to the freed slot");
    }

    #[test]
    fn owner_tracking() {
        let mut m = manager_with_dev(16);
        let s = m.alloc_slot((7, 123)).unwrap();
        assert_eq!(m.owner_of(s), Some((7, 123)));
        m.free_slot(s);
        assert_eq!(m.owner_of(s), None);
    }

    #[test]
    fn readahead_stops_at_hole() {
        let mut m = manager_with_dev(16);
        let s0 = m.alloc_slot((1, 0)).unwrap();
        let s1 = m.alloc_slot((1, 1)).unwrap();
        let s2 = m.alloc_slot((1, 2)).unwrap();
        let _s3 = m.alloc_slot((1, 3)).unwrap();
        m.free_slot(s2); // hole after s1
        let ra = m.readahead_neighbors(s0, 8);
        assert_eq!(ra, vec![(s1, (1, 1))]);
    }

    #[test]
    fn priority_device_fills_first() {
        let mut m = SwapManager::new(4096);
        let low = m.add_device(stub(16), 0);
        let high = m.add_device(stub(16), 10);
        let s = m.alloc_slot((1, 0)).unwrap();
        assert_eq!(s.dev, high);
        let _ = low;
    }

    #[test]
    #[should_panic(expected = "unallocated swap slot")]
    fn double_free_slot_caught() {
        let mut m = manager_with_dev(4);
        let s = m.alloc_slot((1, 0)).unwrap();
        m.free_slot(s);
        m.free_slot(s);
    }

    #[test]
    fn exhaustion_is_reported() {
        let mut m = manager_with_dev(2);
        assert!(m.alloc_slot((1, 0)).is_some());
        assert!(m.alloc_slot((1, 1)).is_some());
        assert_eq!(m.free_slots(), 0);
        assert!(m.alloc_slot((1, 2)).is_none());
    }
}
