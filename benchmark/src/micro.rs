//! Per-layer host-time microbenches over public functions only.
//!
//! Dependency-free: `std::time::Instant`, `std::hint::black_box`, and a
//! fixed iteration count per metric, so two commits time the same work.
//! Each bench sets its layer up untimed, times the fixed loop, and yields
//! ns per operation; [`run_all`] takes the median of [`REPS`] such loops.
//! Iteration counts are sized so the whole table costs a few seconds: it
//! is printed by every traced run.

use crate::stats::median;
use blockdev::{new_buffer, Bio, BlockDevice, IoOp, IoRequest, RamDiskDevice, RequestQueue};
use bytes::Bytes;
use hpbd::proto::{MergedRequest, MergedSeg, PageOp, PageReply, PageRequest, ReplyStatus};
use hpbd::{ClusterBuilder, PoolAllocator};
use ibsim::{Fabric, RemoteSlice, WorkKind, WorkRequest};
use netmodel::{Calibration, Node, Transport};
use simcore::{Engine, SimDuration, SimRng, Tracer};
use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;
use vmsim::{AddressSpace, BlockBackend, PagedVec, Vm, VmConfig};
use workloads::{Scenario, ScenarioConfig, SwapKind};

/// Timed loops per metric; the median is reported.
pub const REPS: usize = 5;

/// One microbench: its metric name and a function that runs the fixed
/// loop once and returns ns per operation.
pub struct Micro {
    /// Metric name (`<crate>.<what>_ns`).
    pub name: &'static str,
    /// One timed loop.
    pub run: fn() -> f64,
}

/// Every microbench, in report order.
pub const ALL: [Micro; 19] = [
    Micro {
        name: "simcore.schedule_run_ns",
        run: schedule_run,
    },
    Micro {
        name: "simcore.cancel_ns",
        run: cancel,
    },
    Micro {
        name: "simcore.far_event_ns",
        run: far_event,
    },
    Micro {
        name: "hpbd.proto_encode_ns",
        run: proto_encode,
    },
    Micro {
        name: "hpbd.proto_decode_ns",
        run: proto_decode,
    },
    Micro {
        name: "hpbd.proto_merged_roundtrip_ns",
        run: proto_merged_roundtrip,
    },
    Micro {
        name: "hpbd.pool_alloc_free_ns",
        run: pool_alloc_free,
    },
    Micro {
        name: "hpbd.blk_4k_read_ns",
        run: hpbd_blk_4k_read,
    },
    Micro {
        name: "hpbd.blk_128k_write_ns",
        run: hpbd_blk_128k_write,
    },
    Micro {
        name: "ibsim.send_recv_ns",
        run: ib_send_recv,
    },
    Micro {
        name: "ibsim.rdma_write_4k_ns",
        run: ib_rdma_write_4k,
    },
    Micro {
        name: "blockdev.queue_submit_ns",
        run: queue_submit,
    },
    Micro {
        name: "vmsim.fault_ramdisk_ns",
        run: fault_ramdisk,
    },
    Micro {
        name: "vmsim.paged_hit_ns",
        run: paged_hit,
    },
    Micro {
        name: "vmsim.paged_miss_ns",
        run: paged_miss,
    },
    Micro {
        name: "workloads.qsort_local_ns_per_elem",
        run: qsort_local,
    },
    Micro {
        name: "simtrace.hist_record_ns",
        run: hist_record,
    },
    Micro {
        name: "simtrace.span_disabled_ns",
        run: span_disabled,
    },
    Micro {
        name: "nbd.blk_4k_read_ns",
        run: nbd_blk_4k_read,
    },
];

/// Run every microbench: `(name, median ns per op)`.
pub fn run_all() -> Vec<(&'static str, f64)> {
    ALL.iter()
        .map(|m| {
            let samples: Vec<f64> = (0..REPS).map(|_| (m.run)()).collect();
            (m.name, median(&samples))
        })
        .collect()
}

/// Time `iters` calls of `op`; ns per call.
fn per_op(iters: u64, mut op: impl FnMut(u64)) -> f64 {
    let t0 = Instant::now();
    for i in 0..iters {
        op(i);
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

fn cal() -> Rc<Calibration> {
    Rc::new(Calibration::cluster_2005())
}

// -- simcore ---------------------------------------------------------------

/// `schedule_in` + `run_until_idle`, delays inside the wheel window.
fn schedule_run() -> f64 {
    schedule_with_delays(|i| 1 + (i * 37) % 5_000)
}

/// Same, delays past the wheel's ~65 µs window (overflow heap, re-anchor).
fn far_event() -> f64 {
    schedule_with_delays(|i| 100_000 + (i * 7_919) % 900_000)
}

fn schedule_with_delays(delay_ns: fn(u64) -> u64) -> f64 {
    const BATCH: u64 = 1_024;
    let engine = Engine::new();
    let fired = Rc::new(Cell::new(0u64));
    let ns = per_op(1_024, |_| {
        for i in 0..BATCH {
            let fired = fired.clone();
            engine.schedule_in(SimDuration::from_nanos(delay_ns(i)), move || {
                fired.set(fired.get() + 1)
            });
        }
        engine.run_until_idle();
    });
    assert_eq!(black_box(fired.get()), 1_024 * BATCH);
    ns / BATCH as f64
}

/// `schedule_cancellable_in` + `cancel`.
fn cancel() -> f64 {
    let engine = Engine::new();
    let ns = per_op(1 << 20, |i| {
        let id = engine.schedule_cancellable_in(SimDuration::from_nanos(1 + i % 4_096), || {});
        black_box(engine.cancel(id));
        // Let the wheel recycle tombstones as a long run would.
        if i % 4_096 == 4_095 {
            engine.run_until_idle();
        }
    });
    black_box(engine.events_executed());
    ns
}

// -- hpbd ------------------------------------------------------------------

fn sample_request(i: u64) -> PageRequest {
    PageRequest::new(i, PageOp::Read, i * 4096, 4096, 7, i % 256 * 4096, i)
}

/// One `PageRequest` and one `PageReply` encoded; ns per message.
fn proto_encode() -> f64 {
    per_op(1 << 20, |i| {
        black_box(black_box(sample_request(i)).encode());
        black_box(black_box(PageReply::new(i, ReplyStatus::Ok, i, 1)).encode());
    }) / 2.0
}

/// One `PageRequest` and one `PageReply` decoded; ns per message.
fn proto_decode() -> f64 {
    let req = sample_request(9).encode();
    let reply = PageReply::new(9, ReplyStatus::Ok, 9, 1).encode();
    per_op(1 << 20, |_| {
        black_box(PageRequest::decode_slice(black_box(&req)).expect("valid request"));
        black_box(PageReply::decode_slice(black_box(&reply)).expect("valid reply"));
    }) / 2.0
}

/// An 8-segment `MergedRequest` built, encoded and decoded.
fn proto_merged_roundtrip() -> f64 {
    per_op(1 << 18, |i| {
        let segs = (0..8)
            .map(|s| MergedSeg::new((i + 2 * s) * 4096, 4096, i))
            .collect();
        let wire: Bytes = MergedRequest::new(i, PageOp::Write, 7, 0, segs).encode();
        black_box(MergedRequest::decode_slice(black_box(&wire)).expect("valid merged request"));
    })
}

/// `PoolAllocator` alloc + free, 4–128 KiB, with a dozen live buffers
/// freed out of order so the free list stays fragmented.
fn pool_alloc_free() -> f64 {
    let mut pool = PoolAllocator::new(1 << 20);
    let mut rng = SimRng::new(11);
    let mut live = Vec::with_capacity(16);
    let ns = per_op(1 << 20, |_| {
        if live.len() == 12 {
            let victim = rng.below(live.len() as u64) as usize;
            pool.free(live.swap_remove(victim));
        }
        let len = 4096 << rng.below(6);
        match pool.alloc(len) {
            Some(buf) => live.push(buf),
            // Fragmented full: release the oldest and move on.
            None => pool.free(live.remove(0)),
        }
    });
    black_box(pool.free_bytes());
    ns
}

/// Queue-depth-1 round trips of `len` bytes through `dev`.
fn blk_round_trips(
    engine: &Engine,
    dev: &dyn BlockDevice,
    op: IoOp,
    len: usize,
    iters: u64,
) -> f64 {
    let slots = dev.capacity() / len as u64;
    let done = Rc::new(Cell::new(0u64));
    let ns = per_op(iters, |i| {
        let flag = done.clone();
        let bio = Bio::new(op, (i % slots) * len as u64, new_buffer(len), move |r| {
            assert!(r.is_ok(), "microbench I/O failed");
            flag.set(flag.get() + 1);
        });
        dev.submit(IoRequest::single(bio));
        while done.get() <= i {
            assert!(
                engine.step_one(),
                "request outstanding but no event pending"
            );
        }
    });
    assert_eq!(done.get(), iters);
    ns
}

fn hpbd_round_trips(op: IoOp, len: usize, iters: u64) -> f64 {
    let engine = Engine::new();
    let cluster = ClusterBuilder::new()
        .servers(1)
        .per_server_capacity(8 << 20)
        .build(&engine, cal());
    blk_round_trips(&engine, &cluster.client, op, len, iters)
}

fn hpbd_blk_4k_read() -> f64 {
    hpbd_round_trips(IoOp::Read, 4 << 10, 20_000)
}

fn hpbd_blk_128k_write() -> f64 {
    hpbd_round_trips(IoOp::Write, 128 << 10, 2_000)
}

/// The comparator device: one 4 KiB read through NBD over IPoIB.
fn nbd_blk_4k_read() -> f64 {
    let engine = Engine::new();
    let node = Node::new("client", 0, 2);
    let dev = nbd::build_pair(&engine, cal(), Transport::IpoIb, &node, 8 << 20);
    blk_round_trips(&engine, &dev, IoOp::Read, 4 << 10, 20_000)
}

// -- ibsim -----------------------------------------------------------------

/// `post_recv` + `post_send` until both completions have been polled.
fn ib_send_recv() -> f64 {
    let engine = Engine::new();
    let fabric = Fabric::new(engine.clone(), cal());
    let (a, b) = (fabric.add_node("a"), fabric.add_node("b"));
    let (a_scq, a_rcq, b_scq, b_rcq) = (a.create_cq(), a.create_cq(), b.create_cq(), b.create_cq());
    let (qp_a, qp_b) = fabric.connect(&a, &a_scq, &a_rcq, &b, &b_scq, &b_rcq);
    let rbuf = b.hca().register(64);
    let payload = Bytes::from_static(&[0x5A; 52]);
    per_op(50_000, |i| {
        qp_b.post_recv(i, rbuf.slice(0, 64))
            .expect("recv queue has room");
        qp_a.post_send(WorkRequest {
            wr_id: i,
            kind: WorkKind::Send {
                payload: payload.clone(),
            },
            solicited: true,
        })
        .expect("send queue has room");
        engine.run_until_idle();
        black_box(a_scq.poll().expect("send completion"));
        black_box(b_rcq.poll().expect("recv completion"));
    })
}

/// A 4 KiB RDMA WRITE from post to polled completion.
fn ib_rdma_write_4k() -> f64 {
    let engine = Engine::new();
    let fabric = Fabric::new(engine.clone(), cal());
    let (a, b) = (fabric.add_node("a"), fabric.add_node("b"));
    let (a_scq, a_rcq, b_scq, b_rcq) = (a.create_cq(), a.create_cq(), b.create_cq(), b.create_cq());
    let (qp_a, _qp_b) = fabric.connect(&a, &a_scq, &a_rcq, &b, &b_scq, &b_rcq);
    let (src, dst) = (a.hca().register(4096), b.hca().register(4096));
    per_op(50_000, |i| {
        qp_a.post_send(WorkRequest {
            wr_id: i,
            kind: WorkKind::RdmaWrite {
                local: src.slice(0, 4096),
                remote: RemoteSlice {
                    rkey: dst.rkey(),
                    offset: 0,
                    len: 4096,
                },
            },
            solicited: false,
        })
        .expect("send queue has room");
        engine.run_until_idle();
        black_box(a_scq.poll().expect("write completion"));
    })
}

// -- blockdev ----------------------------------------------------------------

/// 32 adjacent page bios staged, merged, dispatched to a RAM disk and
/// completed; ns per bio.
fn queue_submit() -> f64 {
    const BIOS: u64 = 32;
    let engine = Engine::new();
    let cal = cal();
    let node = Node::new("client", 0, 2);
    let dev = Rc::new(RamDiskDevice::new(
        engine.clone(),
        cal.clone(),
        node.clone(),
        8 << 20,
        "ram",
    ));
    let queue = RequestQueue::new(engine.clone(), cal, node, dev);
    let buffers: Vec<_> = (0..BIOS).map(|_| new_buffer(4096)).collect();
    let done = Rc::new(Cell::new(0u64));
    let ns = per_op(8_192, |i| {
        let base = (i % 64) * BIOS * 4096;
        for (b, buf) in buffers.iter().enumerate() {
            let flag = done.clone();
            queue.submit(Bio::new(
                IoOp::Write,
                base + b as u64 * 4096,
                buf.clone(),
                move |_| flag.set(flag.get() + 1),
            ));
        }
        queue.flush();
        engine.run_until_idle();
    });
    assert_eq!(done.get(), 8_192 * BIOS);
    ns / BIOS as f64
}

// -- vmsim -------------------------------------------------------------------

fn vm_over_ramdisk(frames: usize, readahead_pages: usize) -> Vm {
    let engine = Engine::new();
    let cal = cal();
    let node = Node::new("client", 0, 2);
    let mut config = VmConfig::for_memory(frames as u64 * 4096);
    config.readahead_pages = readahead_pages;
    let vm = Vm::new(engine.clone(), cal.clone(), node.clone(), config);
    vm.add_swap_backend(
        BlockBackend::over_ramdisk(&engine, &cal, &node, 64 << 20, "swap"),
        0,
    );
    vm
}

const WORDS_PER_PAGE: usize = 512;

/// One major fault over `BlockBackend::over_ramdisk`: a page-stride walk
/// over an array eight times the VM's frames, readahead off.
fn fault_ramdisk() -> f64 {
    const PAGES: usize = 2_048;
    let vm = vm_over_ramdisk(256, 1);
    let data: PagedVec<u64> = PagedVec::new(&AddressSpace::new(&vm), PAGES * WORDS_PER_PAGE);
    for page in 0..PAGES {
        data.set(page * WORDS_PER_PAGE, page as u64);
    }
    let before = vm.stats().major_faults;
    let mut sum = 0u64;
    let t0 = Instant::now();
    for lap in 0..10 {
        for page in 0..PAGES {
            sum = sum.wrapping_add(data.get(page * WORDS_PER_PAGE + lap));
        }
    }
    let ns = t0.elapsed().as_nanos() as f64;
    let faults = vm.stats().major_faults - before;
    assert!(faults >= 9 * PAGES as u64, "the walk must fault: {faults}");
    black_box(sum);
    ns / faults as f64
}

/// `PagedVec::get`, sequential, everything resident.
fn paged_hit() -> f64 {
    const PAGES: usize = 1_024;
    let vm = vm_over_ramdisk(2 * PAGES, 8);
    let data: PagedVec<u64> = PagedVec::new(&AddressSpace::new(&vm), PAGES * WORDS_PER_PAGE);
    for i in (0..data.len()).step_by(WORDS_PER_PAGE) {
        data.set(i, 1);
    }
    let mut sum = 0u64;
    let ns = per_op(4 << 20, |i| {
        sum = sum.wrapping_add(data.get(i as usize % data.len()))
    });
    black_box(sum);
    ns
}

/// `PagedVec::get` at page stride, everything resident: every access
/// leaves the one-page lookaside and goes through `Vm::try_page`.
fn paged_miss() -> f64 {
    const PAGES: usize = 1_024;
    let vm = vm_over_ramdisk(2 * PAGES, 8);
    let data: PagedVec<u64> = PagedVec::new(&AddressSpace::new(&vm), PAGES * WORDS_PER_PAGE);
    for i in (0..data.len()).step_by(WORDS_PER_PAGE) {
        data.set(i, 1);
    }
    let mut sum = 0u64;
    let ns = per_op(1 << 20, |i| {
        sum = sum.wrapping_add(data.get(i as usize % PAGES * WORDS_PER_PAGE))
    });
    assert_eq!(black_box(sum), 1 << 20);
    ns
}

// -- workloads / simtrace ------------------------------------------------------

/// `run_qsort` of 1 Mi elements with enough local memory; ns per element.
fn qsort_local() -> f64 {
    const ELEMENTS: usize = 1 << 20;
    let scenario = Scenario::build(&ScenarioConfig::new(16 << 20, 0, SwapKind::LocalOnly));
    let t0 = Instant::now();
    black_box(scenario.run_qsort(ELEMENTS, 5));
    t0.elapsed().as_nanos() as f64 / ELEMENTS as f64
}

/// One histogram sample through a pre-resolved handle.
fn hist_record() -> f64 {
    let hist = Engine::new().metrics().histogram_handle("bench.samples");
    per_op(1 << 20, |i| hist.observe(black_box(i as f64)))
}

/// A span emit on a disabled tracer (the always-on early-out).
fn span_disabled() -> f64 {
    let tracer = black_box(Tracer::disabled());
    per_op(8 << 20, |i| {
        black_box(&tracer).span("bench", "span", i, i + 1, black_box(&[("bytes", 4096)]));
    })
}
