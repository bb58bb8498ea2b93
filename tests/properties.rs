//! Randomized invariant tests over the core data structures.
//!
//! Formerly proptest-based; now driven by the suite's own deterministic
//! [`SimRng`] so the tests build offline and every failure reproduces
//! from its printed case seed.

use hpbd_suite::hpbd::PoolAllocator;
use hpbd_suite::hpbd::SimBufferPool;
use hpbd_suite::simcore::{Engine, SimRng, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Run `f` over `cases` generated inputs, each seeded reproducibly.
fn for_cases(cases: u64, mut f: impl FnMut(u64, &mut SimRng)) {
    for case in 0..cases {
        let mut rng = SimRng::new(0x70_5E_ED ^ (case * 0x9E37_79B9));
        f(case, &mut rng);
    }
}

// ---------------------------------------------------------------------------
// Buffer pool allocator: conservation, coalescing, no overlap.
// ---------------------------------------------------------------------------

#[test]
fn pool_allocator_invariants() {
    const SIZE: u64 = 1 << 20;
    for_cases(256, |case, rng| {
        let ops = 1 + rng.below(200);
        let mut pool = PoolAllocator::new(SIZE);
        let mut live: Vec<hpbd_suite::hpbd::pool::PoolBuf> = Vec::new();
        for _ in 0..ops {
            if rng.below(2) == 0 {
                let len = 1 + rng.below(64 * 1024 - 1);
                if let Some(buf) = pool.alloc(len) {
                    for other in &live {
                        let disjoint = buf.offset + buf.len <= other.offset
                            || other.offset + other.len <= buf.offset;
                        assert!(disjoint, "case {case}: overlap {buf:?} vs {other:?}");
                    }
                    live.push(buf);
                }
            } else if !live.is_empty() {
                let i = rng.below(live.len() as u64) as usize;
                let buf = live.swap_remove(i);
                pool.free(buf);
            }
            pool.check_invariants();
            let live_bytes: u64 = live.iter().map(|b| b.len).sum();
            assert_eq!(
                pool.free_bytes() + live_bytes,
                SIZE,
                "case {case}: byte conservation"
            );
        }
        // Free everything: the pool must coalesce back to one extent.
        for buf in live.drain(..) {
            pool.free(buf);
        }
        pool.check_invariants();
        assert_eq!(pool.free_bytes(), SIZE);
        assert_eq!(pool.fragments(), 1, "case {case}: merge-on-free coalesces");
    });
}

/// After any load, a drained SimBufferPool serves queued waiters FIFO and
/// ends with all bytes back.
#[test]
fn sim_pool_serves_all_waiters() {
    for_cases(256, |case, rng| {
        let sizes: Vec<u64> = (0..1 + rng.below(63))
            .map(|_| 1 + rng.below(1023))
            .collect();
        let pool = Rc::new(SimBufferPool::new(4096));
        let served: Rc<RefCell<Vec<usize>>> = Rc::default();
        let held: Rc<RefCell<Vec<hpbd_suite::hpbd::pool::PoolBuf>>> = Rc::default();
        for (i, &len) in sizes.iter().enumerate() {
            let served = served.clone();
            let held = held.clone();
            pool.alloc(len, move |buf| {
                served.borrow_mut().push(i);
                held.borrow_mut().push(buf);
            });
        }
        // Free everything granted so far, repeatedly, until quiescent.
        let mut guard = 0;
        while pool.queued_waiters() > 0 {
            let bufs: Vec<_> = held.borrow_mut().drain(..).collect();
            assert!(
                !bufs.is_empty(),
                "case {case}: waiters but nothing to free: deadlock"
            );
            for b in bufs {
                pool.free(b);
            }
            guard += 1;
            assert!(guard < 1000, "case {case}: no forward progress");
        }
        for b in held.borrow_mut().drain(..) {
            pool.free(b);
        }
        // Everyone served exactly once, in FIFO order.
        let served = served.borrow();
        assert_eq!(served.len(), sizes.len());
        let mut sorted = served.clone();
        sorted.sort_unstable();
        assert_eq!(&*served, &sorted, "case {case}: FIFO service order");
        assert_eq!(pool.free_bytes(), 4096);
    });
}

// ---------------------------------------------------------------------------
// Engine: time never runs backwards, ties keep submission order.
// ---------------------------------------------------------------------------

#[test]
fn engine_executes_in_nondecreasing_time_order() {
    for_cases(64, |case, rng| {
        let times: Vec<u64> = (0..1 + rng.below(200)).map(|_| rng.below(10_000)).collect();
        let engine = Engine::new();
        let log: Rc<RefCell<Vec<(u64, usize)>>> = Rc::default();
        for (i, &t) in times.iter().enumerate() {
            let log = log.clone();
            let eng = engine.clone();
            engine.schedule_at(SimTime(t), move || {
                log.borrow_mut().push((eng.now().as_nanos(), i));
            });
        }
        engine.run_until_idle();
        let log = log.borrow();
        assert_eq!(log.len(), times.len());
        for w in log.windows(2) {
            assert!(w[0].0 <= w[1].0, "case {case}: time went backwards");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "case {case}: tie broke submission order");
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Wire protocol: roundtrip for arbitrary field values; corruption is
// always detected.
// ---------------------------------------------------------------------------

#[test]
fn hpbd_request_roundtrip() {
    use hpbd_suite::hpbd::proto::{PageOp, PageRequest};
    for_cases(256, |_case, rng| {
        let req = PageRequest::new(
            rng.next_u64(),
            if rng.below(2) == 0 {
                PageOp::Write
            } else {
                PageOp::Read
            },
            rng.next_u64(),
            1 + rng.below(1 << 20),
            rng.next_u32(),
            rng.next_u64(),
            rng.next_u64(),
        );
        assert_eq!(PageRequest::decode_slice(&req.encode()), Ok(req));
    });
}

#[test]
fn hpbd_request_detects_any_single_byte_corruption() {
    use hpbd_suite::hpbd::proto::PageRequest;
    let req = PageRequest::new(
        7,
        hpbd_suite::hpbd::proto::PageOp::Write,
        123456,
        4096,
        9,
        8192,
        31,
    );
    // Exhaustive: every bit of every signed header byte past the magic.
    for flip_byte in 4usize..hpbd_suite::hpbd::proto::REQUEST_WIRE_SIZE {
        for flip_bit in 0u8..8 {
            let mut raw = req.encode().to_vec();
            raw[flip_byte] ^= 1 << flip_bit;
            let decoded = PageRequest::decode_slice(&raw);
            assert!(
                decoded.is_err(),
                "byte {flip_byte} bit {flip_bit}: checksum must catch the flip"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Paged memory: random access sequences round-trip under pressure.
// ---------------------------------------------------------------------------

#[test]
fn paged_vec_matches_reference_vec() {
    use hpbd_suite::netmodel::{Calibration, Node};
    use hpbd_suite::vmsim::{AddressSpace, BlockBackend, PagedVec, Vm, VmConfig};

    for_cases(12, |case, rng| {
        let frames = 24 + rng.below(40) as usize;
        let writes: Vec<(usize, i32)> = (0..1 + rng.below(400))
            .map(|_| (rng.below(32 * 1024) as usize, rng.next_u32() as i32))
            .collect();

        let engine = Engine::new();
        let cal = Rc::new(Calibration::cluster_2005());
        let node = Node::new("n", 0, 2);
        let mut config = VmConfig::for_memory(frames as u64 * 4096);
        config.total_frames = frames;
        let vm = Vm::new(engine.clone(), cal.clone(), node.clone(), config);
        let backend = BlockBackend::over_ramdisk(&engine, &cal, &node, 64 << 20, "swap");
        vm.add_swap_backend(backend, 0);

        let space = AddressSpace::new(&vm);
        let v: PagedVec<i32> = PagedVec::new(&space, 32 * 1024);
        let mut reference = vec![0i32; 32 * 1024];
        for &(i, val) in &writes {
            v.set(i, val);
            reference[i] = val;
        }
        for &(i, _) in &writes {
            assert_eq!(v.get(i), reference[i], "case {case}: index {i}");
        }
    });
}

// ---------------------------------------------------------------------------
// Block-layer merging: no bio lost, no bio duplicated, extents exact.
// ---------------------------------------------------------------------------

#[test]
fn request_queue_completes_every_bio_exactly_once() {
    use hpbd_suite::blockdev::{new_buffer, Bio, IoOp, RamDiskDevice, RequestQueue};
    use hpbd_suite::netmodel::{Calibration, Node};
    use std::collections::BTreeSet;

    for_cases(32, |case, rng| {
        let mut pages = BTreeSet::new();
        for _ in 0..1 + rng.below(127) {
            pages.insert(rng.below(512));
        }

        let engine = Engine::new();
        let cal = Rc::new(Calibration::cluster_2005());
        let node = Node::new("n", 0, 2);
        let dev = Rc::new(RamDiskDevice::new(
            engine.clone(),
            cal.clone(),
            node.clone(),
            4 << 20,
            "ram",
        ));
        let queue = RequestQueue::new(engine.clone(), cal, node, dev);
        let completions: Rc<RefCell<Vec<u64>>> = Rc::default();
        for &p in &pages {
            let completions = completions.clone();
            queue.submit(Bio::new(
                IoOp::Write,
                p * 4096,
                new_buffer(4096),
                move |r| {
                    r.unwrap();
                    completions.borrow_mut().push(p);
                },
            ));
        }
        queue.flush();
        engine.run_until_idle();
        let mut got = completions.borrow().clone();
        got.sort_unstable();
        let want: Vec<u64> = pages.iter().copied().collect();
        assert_eq!(got, want, "case {case}: every bio completes exactly once");

        // The dispatch log covers exactly the submitted pages, merged.
        let log = queue.dispatch_log();
        let total: u64 = log.borrow().iter().map(|r| r.len).sum();
        assert_eq!(total, pages.len() as u64 * 4096);
        for rec in log.borrow().iter() {
            assert!(rec.len <= 128 * 1024, "case {case}: cap respected");
        }
    });
}

// ---------------------------------------------------------------------------
// VM invariants under random access patterns and tight memory.
// ---------------------------------------------------------------------------

#[test]
fn vm_invariants_hold_under_random_paging() {
    use hpbd_suite::netmodel::{Calibration, Node};
    use hpbd_suite::vmsim::{BlockBackend, Vm, VmConfig};

    for_cases(16, |_case, rng| {
        let frames = 24 + rng.below(24) as usize;
        let accesses: Vec<(u64, bool)> = (0..1 + rng.below(300))
            .map(|_| (rng.below(256), rng.below(2) == 0))
            .collect();

        let engine = Engine::new();
        let cal = Rc::new(Calibration::cluster_2005());
        let node = Node::new("n", 0, 2);
        let mut config = VmConfig::for_memory(frames as u64 * 4096);
        config.total_frames = frames;
        let vm = Vm::new(engine.clone(), cal.clone(), node.clone(), config);
        let backend = BlockBackend::over_ramdisk(&engine, &cal, &node, 8 << 20, "swap");
        vm.add_swap_backend(backend, 0);

        let asid = vm.new_asid();
        for (i, &(vpn, write)) in accesses.iter().enumerate() {
            let _buf = vm.page_blocking(asid, vpn, write);
            if i % 16 == 0 {
                vm.check_invariants();
            }
        }
        engine.run_until_idle();
        vm.check_invariants();
    });
}

// ---------------------------------------------------------------------------
// tcpsim: the stream is exactly the concatenation of sends, however the
// receiver chunks its reads.
// ---------------------------------------------------------------------------

#[test]
fn tcp_stream_preserves_byte_sequence() {
    use hpbd_suite::netmodel::{Calibration, Node};
    for_cases(24, |case, rng| {
        let sends: Vec<usize> = (0..1 + rng.below(19))
            .map(|_| 1 + rng.below(4999) as usize)
            .collect();
        let read_chunks: Vec<usize> = (0..1 + rng.below(39))
            .map(|_| 1 + rng.below(3999) as usize)
            .collect();

        let engine = Engine::new();
        let cal = Calibration::cluster_2005();
        let model = Rc::new(cal.ipoib.clone());
        let a = Node::new("a", 0, 2);
        let b = Node::new("b", 1, 2);
        let (ca, cb) = hpbd_suite::tcpsim::connect(&engine, model, &a, &b);

        // Send a deterministic byte pattern split into arbitrary messages.
        let total: usize = sends.iter().sum();
        let payload: Vec<u8> = (0..total).map(|i| (i % 251) as u8).collect();
        let mut at = 0;
        for &n in &sends {
            ca.send(bytes::Bytes::copy_from_slice(&payload[at..at + n]));
            at += n;
        }
        // Read it back in arbitrary chunk sizes (bounded by what was sent).
        let received: Rc<RefCell<Vec<u8>>> = Rc::default();
        let mut requested = 0usize;
        for &n in &read_chunks {
            let n = n.min(total - requested);
            if n == 0 {
                break;
            }
            requested += n;
            let received = received.clone();
            cb.recv(n, move |chunk| {
                received.borrow_mut().extend_from_slice(&chunk)
            });
        }
        engine.run_until_idle();
        let received = received.borrow();
        assert_eq!(
            &received[..],
            &payload[..requested],
            "case {case}: stream must be the exact concatenation of sends"
        );
    });
}

// ---------------------------------------------------------------------------
// ibsim: random RDMA traffic matches a plain reference buffer.
// ---------------------------------------------------------------------------

#[test]
fn rdma_ops_match_reference_model() {
    use hpbd_suite::ibsim::{Fabric, RemoteSlice, WorkKind, WorkRequest};
    use hpbd_suite::netmodel::Calibration;
    for_cases(16, |case, rng| {
        let ops: Vec<(bool, u64, u64)> = (0..1 + rng.below(39))
            .map(|_| (rng.below(2) == 0, rng.below(32), 1 + rng.below(8191)))
            .collect();

        let engine = Engine::new();
        let cal = Rc::new(Calibration::cluster_2005());
        let fabric = Fabric::new(engine.clone(), cal);
        let a = fabric.add_node("a");
        let b = fabric.add_node("b");
        let (acq, arcq, bcq, brcq) = (a.create_cq(), a.create_cq(), b.create_cq(), b.create_cq());
        let (qp, _qp_b) = fabric.connect(&a, &acq, &arcq, &b, &bcq, &brcq);

        const REGION: u64 = 64 * 1024;
        let local = a.hca().register(REGION as usize);
        let remote = b.hca().register(REGION as usize);
        let mut ref_local = vec![0u8; REGION as usize];
        let mut ref_remote = vec![0u8; REGION as usize];

        for (i, &(is_write, page, len)) in ops.iter().enumerate() {
            let offset = (page * 2048).min(REGION - 1);
            let len = len.min(REGION - offset);
            if is_write {
                // Fill local with a marker, RDMA-write to remote.
                let marker = (i % 251) as u8 + 1;
                let data = vec![marker; len as usize];
                local.write(offset as usize, &data);
                ref_local[offset as usize..(offset + len) as usize].fill(marker);
                qp.post_send(WorkRequest {
                    wr_id: i as u64,
                    kind: WorkKind::RdmaWrite {
                        local: local.slice(offset, len),
                        remote: RemoteSlice {
                            rkey: remote.rkey(),
                            offset,
                            len,
                        },
                    },
                    solicited: false,
                })
                .expect("post");
                engine.run_until_idle();
                ref_remote[offset as usize..(offset + len) as usize].fill(marker);
            } else {
                qp.post_send(WorkRequest {
                    wr_id: i as u64,
                    kind: WorkKind::RdmaRead {
                        local: local.slice(offset, len),
                        remote: RemoteSlice {
                            rkey: remote.rkey(),
                            offset,
                            len,
                        },
                    },
                    solicited: false,
                })
                .expect("post");
                engine.run_until_idle();
                let src = &ref_remote[offset as usize..(offset + len) as usize];
                ref_local[offset as usize..(offset + len) as usize].copy_from_slice(src);
            }
            // All completions must be successes.
            while let Some(c) = acq.poll() {
                assert_eq!(c.status, hpbd_suite::ibsim::WcStatus::Success);
            }
        }
        assert_eq!(
            local.to_vec(),
            ref_local,
            "case {case}: local region diverged"
        );
        assert_eq!(
            remote.to_vec(),
            ref_remote,
            "case {case}: remote region diverged"
        );
    });
}

// ---------------------------------------------------------------------------
// Quicksort over the full stack: always sorted, for random shapes.
// ---------------------------------------------------------------------------

#[test]
fn quicksort_sorts_under_any_memory_pressure() {
    use hpbd_suite::vmsim::AddressSpace;
    use hpbd_suite::workloads::qsort::QsortTask;
    use hpbd_suite::workloads::{Scenario, ScenarioConfig, Scheduler, SwapKind};

    for_cases(6, |_case, rng| {
        let elements = 1 + rng.below(40_000) as usize;
        let frames_kb = 64 + rng.below(448);
        let seed = rng.next_u64();
        let servers = 1 + rng.below(3) as usize;

        let config = ScenarioConfig::new(frames_kb * 1024, 16 << 20, SwapKind::Hpbd { servers });
        let scenario = Scenario::build(&config);
        let space = AddressSpace::new(&scenario.vm);
        let mut task = QsortTask::new(&space, elements, seed, 4, "prop-qsort");
        Scheduler::new(scenario.engine.clone(), 2).run_one(&mut task);
        assert!(
            task.is_sorted(),
            "sortedness violated: n={elements} seed={seed}"
        );
    });
}
