//! The benchmark's own machine assembly, with timing decorators on the
//! public seams between layers.
//!
//! [`assemble`] mirrors `workloads::Scenario::build_with` from public
//! constructors only (`Fabric`, `ClusterBuilder::build_on`,
//! `RequestQueue::with_limits`, `BlockBackend::new` / `DirectBackend::new`,
//! `Vm::new`, `add_swap_backend`). Given a [`Recorder`] it slips three
//! decorators in between the layers:
//!
//! * [`TimedTask`] around `Task::step` — span `workloads` (the KV mix uses
//!   the blocking API, so its whole run is one such span);
//! * [`TimedBackend`] around `SwapBackend::{store, load, reap}` — span
//!   `vmsim.backend`, and around each `PageDone` it hands down — span
//!   `completion`, the upward end-io path;
//! * [`TimedDevice`] around `BlockDevice::submit` — span `hpbd.submit`.
//!
//! None of them touches virtual time, the engine or the RNG, so a machine
//! built here must produce the very numbers `Scenario` produces; the
//! harness checks that on every run.

use crate::blkstream;
use crate::cells::{observe, stream_outcome, work_ops, Cell, Outcome, Parts, Stopwatch, Work};
use crate::spans::{request_id, Recorder};
use blockdev::{BlockDevice, DeviceHealth, IoBuffer, IoOp, IoRequest, RamDiskDevice, RequestQueue};
use hpbd::{ClusterBuilder, HpbdCluster};
use ibsim::Fabric;
use netmodel::{Calibration, Node};
use simcore::{Engine, LifecycleHub, SimDuration};
use std::cell::Cell as StdCell;
use std::rc::Rc;
use std::time::Instant;
use vmsim::{
    AddressSpace, BlockBackend, DirectBackend, LoadKind, PageDone, SwapBackend, Vm, VmConfig,
};
use workloads::kvstore::KvStore;
use workloads::qsort::QsortTask;
use workloads::zipf::ZipfTask;
use workloads::{ScenarioConfig, Scheduler, Step, SwapKind, SwapPath, Task};

/// Span names, indexed by the constants below.
pub const SPAN_NAMES: [&str; 4] = ["workloads", "vmsim.backend", "hpbd.submit", "completion"];
/// `Task::step` (or the whole blocking run).
pub const SPAN_WORKLOADS: usize = 0;
/// `SwapBackend::{store, load, reap}`.
pub const SPAN_BACKEND: usize = 1;
/// `BlockDevice::submit`.
pub const SPAN_SUBMIT: usize = 2;
/// A `PageDone` (or block-stream completion) callback.
pub const SPAN_COMPLETION: usize = 3;

/// A machine assembled by the benchmark.
pub struct Machine {
    /// The event engine.
    pub engine: Engine,
    /// Calibration in effect.
    pub cal: Rc<Calibration>,
    /// The client node.
    pub node: Node,
    /// The VM (None when the config has no local memory: the block stream).
    pub vm: Option<Vm>,
    /// The HPBD deployment (None for local controls).
    pub cluster: Option<HpbdCluster>,
    /// The device the swap path (or the block-stream driver) submits to,
    /// decorated when a recorder was given.
    pub device: Option<Rc<dyn BlockDevice>>,
    /// The kernel request queue (block path only).
    pub queue: Option<Rc<RequestQueue>>,
    /// The direct backend (direct path only).
    pub direct: Option<Rc<DirectBackend>>,
    /// Requests completed / failed through the device decorator.
    pub device_completions: Rc<StdCell<(u64, u64)>>,
}

impl Machine {
    /// Handles for [`observe`].
    pub fn parts(&self) -> Parts<'_> {
        Parts {
            engine: &self.engine,
            vm: self.vm.as_ref(),
            cluster: self.cluster.as_ref(),
            queue: self.queue.as_ref(),
            direct: self.direct.as_ref(),
        }
    }
}

/// Build the machine `config` describes, as `Scenario::build` would, with
/// the decorators in place when `rec` is given. Benchmark cells are HPBD
/// or local; a config with `local_mem == 0` gets no VM and, when local, a
/// RAM disk as its device (the block stream and its control).
pub fn assemble(config: &ScenarioConfig, rec: Option<&Recorder>) -> Machine {
    let cal = Rc::new(Calibration::cluster_2005());
    let engine = Engine::new();
    if config.record_lifecycle {
        engine.set_lifecycle(LifecycleHub::enabled());
    }
    let with_vm = config.local_mem > 0;

    let (node, cluster, raw): (Node, Option<HpbdCluster>, Option<Rc<dyn BlockDevice>>) =
        match &config.kind {
            SwapKind::LocalOnly => {
                let node = Node::new("client", 0, 2);
                let raw: Option<Rc<dyn BlockDevice>> = if with_vm {
                    None
                } else {
                    Some(Rc::new(RamDiskDevice::new(
                        engine.clone(),
                        cal.clone(),
                        node.clone(),
                        config.swap_capacity,
                        "ram",
                    )))
                };
                (node, None, raw)
            }
            SwapKind::Hpbd { servers } => {
                let fabric = Fabric::new(engine.clone(), cal.clone());
                let client_ibnode = fabric.add_node("hpbd-client");
                let node = client_ibnode.node().clone();
                let per_server = (config.swap_capacity / *servers as u64 / 4096).max(1) * 4096;
                let cluster = ClusterBuilder::new()
                    .config(config.hpbd.clone())
                    .servers(*servers)
                    .per_server_capacity(per_server)
                    .fault_plan(config.fault_plan.clone())
                    .build_on(&fabric, client_ibnode);
                let raw: Rc<dyn BlockDevice> = Rc::new(cluster.client.clone());
                (node, Some(cluster), Some(raw))
            }
            other => panic!("benchmark cells are HPBD or local, not {other:?}"),
        };

    let device_completions = Rc::new(StdCell::new((0, 0)));
    let device = raw.map(|inner| match rec {
        Some(rec) => Rc::new(TimedDevice {
            inner,
            rec: rec.clone(),
            completions: device_completions.clone(),
        }) as Rc<dyn BlockDevice>,
        None => inner,
    });

    let (mut queue, mut direct, mut backend) = (None, None, None);
    if let (true, Some(dev)) = (with_vm, &device) {
        let inner: Rc<dyn SwapBackend> = match config.swap_path {
            SwapPath::Block => {
                let q = Rc::new(RequestQueue::with_limits(
                    engine.clone(),
                    cal.clone(),
                    node.clone(),
                    dev.clone(),
                    config.queue_max_request_bytes,
                    config.queue_flush_backstop,
                ));
                queue = Some(q.clone());
                BlockBackend::new(q)
            }
            SwapPath::Direct => {
                let d = DirectBackend::new(
                    engine.clone(),
                    node.clone(),
                    dev.clone(),
                    config.direct.clone(),
                );
                direct = Some(d.clone());
                d
            }
        };
        backend = Some(match rec {
            Some(rec) => Rc::new(TimedBackend {
                inner,
                rec: rec.clone(),
            }) as Rc<dyn SwapBackend>,
            None => inner,
        });
    }

    let vm = with_vm.then(|| {
        let mut vm_config = VmConfig::for_memory(config.local_mem);
        if let Some(ra) = config.readahead_pages {
            vm_config.readahead_pages = ra;
        }
        let vm = Vm::new(engine.clone(), cal.clone(), node.clone(), vm_config);
        if let Some(backend) = backend {
            vm.add_swap_backend(backend, 0);
        }
        vm
    });

    Machine {
        engine,
        cal,
        node,
        vm,
        cluster,
        device,
        queue,
        direct,
        device_completions,
    }
}

/// `BlockDevice` decorator: times `submit` and counts completions and
/// errors through an `IoRequest::on_complete` hook.
struct TimedDevice {
    inner: Rc<dyn BlockDevice>,
    rec: Recorder,
    completions: Rc<StdCell<(u64, u64)>>,
}

impl BlockDevice for TimedDevice {
    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn submit(&self, req: IoRequest) {
        let id = request_id(req.op() == IoOp::Write, req.offset());
        let completions = self.completions.clone();
        let req = req.on_complete(move |result| {
            let (done, failed) = completions.get();
            completions.set((done + 1, failed + u64::from(result.is_err())));
        });
        self.rec.span(SPAN_SUBMIT, id, || self.inner.submit(req));
    }

    fn shutdown(&self) {
        self.inner.shutdown();
    }

    fn health(&self) -> DeviceHealth {
        self.inner.health()
    }
}

/// `SwapBackend` decorator: times the three submission calls and wraps
/// every `PageDone` so the upward completion path is timed too.
struct TimedBackend {
    inner: Rc<dyn SwapBackend>,
    rec: Recorder,
}

impl TimedBackend {
    fn timed_done(&self, id: u64, done: PageDone) -> PageDone {
        let rec = self.rec.clone();
        Box::new(move |result| rec.span(SPAN_COMPLETION, id, || done(result)))
    }
}

impl SwapBackend for TimedBackend {
    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }

    fn device_name(&self) -> &str {
        self.inner.device_name()
    }

    fn store(&self, offset: u64, buf: IoBuffer, done: PageDone) {
        let id = request_id(true, offset);
        let done = self.timed_done(id, done);
        self.rec
            .span(SPAN_BACKEND, id, || self.inner.store(offset, buf, done));
    }

    fn load(&self, offset: u64, kind: LoadKind, buf: IoBuffer, done: PageDone) {
        let id = request_id(false, offset);
        let done = self.timed_done(id, done);
        self.rec.span(SPAN_BACKEND, id, || {
            self.inner.load(offset, kind, buf, done)
        });
    }

    fn reap(&self) {
        self.rec.span(SPAN_BACKEND, 0, || self.inner.reap());
    }

    fn requests(&self) -> u64 {
        self.inner.requests()
    }

    fn mean_request_bytes(&self) -> f64 {
        self.inner.mean_request_bytes()
    }

    fn read_latency(&self) -> simcore::OnlineStats {
        self.inner.read_latency()
    }

    fn write_latency(&self) -> simcore::OnlineStats {
        self.inner.write_latency()
    }
}

/// `Task` decorator: one span per `step`.
struct TimedTask<'a> {
    inner: &'a mut dyn Task,
    rec: Recorder,
}

impl Task for TimedTask<'_> {
    fn step(&mut self, max_ops: u64) -> Step {
        self.rec.enter(SPAN_WORKLOADS, 0);
        let step = self.inner.step(max_ops);
        self.rec.exit();
        step
    }

    fn ns_per_op(&self) -> u64 {
        self.inner.ns_per_op()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// The body of `Scenario::run_qsort_pair` (two quicksorts of `elements`
/// i32 each, seeds `seed` and `seed + 1`, time-shared on the node's two
/// CPUs), with each task's `step` in a span when `rec` is given. Hands the
/// tasks back so the caller can prove the arrays sorted; `Scenario` drops
/// them, and proves them only under debug assertions.
pub(crate) fn qsort_pair(
    engine: &Engine,
    node: &Node,
    cal: &Calibration,
    vm: &Vm,
    (elements, seed): (usize, u64),
    rec: Option<&Recorder>,
) -> (SimDuration, [QsortTask; 2]) {
    let (s1, s2) = (AddressSpace::new(vm), AddressSpace::new(vm));
    let ns = cal.compute.qsort_ns_per_op;
    let mut a = QsortTask::new(&s1, elements, seed, ns, "qsort-a");
    let mut b = QsortTask::new(&s2, elements, seed.wrapping_add(1), ns, "qsort-b");
    let scheduler = Scheduler::new(engine.clone(), 2).with_node_cpu(node.cpu().clone());
    let t_start = engine.now();
    let done = match rec {
        Some(rec) => {
            let mut ta = TimedTask {
                inner: &mut a,
                rec: rec.clone(),
            };
            let mut tb = TimedTask {
                inner: &mut b,
                rec: rec.clone(),
            };
            scheduler.run(&mut [&mut ta, &mut tb])
        }
        None => scheduler.run(&mut [&mut a, &mut b]),
    };
    let elapsed = (done[0] - t_start).max(done[1] - t_start);
    (elapsed, [a, b])
}

/// One pass of `cell` on the benchmark's own assembly, decorated, spans
/// going to `rec` (pass a disabled recorder to keep the decorators in
/// place but silent). Output correctness — sortedness, data checksum —
/// is checked after the timed region and counted in `ops_failed`.
pub fn run_decorated(cell: &Cell, rec: &Recorder) -> Outcome {
    let t_build = Instant::now();
    let machine = assemble(&cell.config, Some(rec));
    let assembly_s = t_build.elapsed().as_secs_f64();
    let watch = Stopwatch::start();

    if let Work::BlkStream(params) = &cell.work {
        let result = blkstream::run_with(&machine, params, rec);
        let (wall_s, cpu_s) = watch.stop();
        let (done, failed) = machine.device_completions.get();
        let mut outcome = stream_outcome(&machine, result, assembly_s, wall_s, cpu_s);
        // The decorator's own count must agree with the driver's.
        if done != outcome.ops_attempted || failed > outcome.ops_failed {
            outcome.ops_failed = outcome.ops_attempted;
        }
        return outcome;
    }

    let vm = machine.vm.as_ref().expect("VM cells have local memory");
    let scheduler =
        || Scheduler::new(machine.engine.clone(), 2).with_node_cpu(machine.node.cpu().clone());
    let report = |elapsed: SimDuration| observe(&machine.parts(), elapsed, None);
    let ops = work_ops(&cell.work);
    // Each arm is the body of the matching `Scenario::run_*`, with the
    // task wrapped; the metrics are read inside the timed region because
    // `Scenario` builds its report there too.
    let (observed, fault_samples, wall_s, cpu_s, ok, checksum) = match &cell.work {
        Work::QsortPair { elements, seed } => {
            let (elapsed, [a, b]) = qsort_pair(
                &machine.engine,
                &machine.node,
                &machine.cal,
                vm,
                (*elements, *seed),
                Some(rec),
            );
            let (observed, samples) = report(elapsed);
            let (wall_s, cpu_s) = watch.stop();
            // The proof walk re-faults evicted pages: keep it out of both
            // the timed region and the numbers read above.
            let sorted = a.is_sorted() && b.is_sorted();
            (observed, samples, wall_s, cpu_s, sorted, None)
        }
        Work::Kv(params) => {
            let t_start = machine.engine.now();
            // KvStore::run checks a sample of reads against its shadow
            // model and panics on divergence.
            let result = rec.span(SPAN_WORKLOADS, 0, || KvStore::new(vm, params.clone()).run());
            let elapsed = machine.engine.now() - t_start;
            let (observed, samples) = report(elapsed);
            let (wall_s, cpu_s) = watch.stop();
            let ok =
                result.hits + result.updates == params.operations as u64 && result.verified > 0;
            (observed, samples, wall_s, cpu_s, ok, None)
        }
        Work::Zipf(params) => {
            let space = AddressSpace::new(vm);
            let mut task = ZipfTask::new(&space, params.clone());
            let t_start = machine.engine.now();
            let done = scheduler().run_one(&mut TimedTask {
                inner: &mut task,
                rec: rec.clone(),
            });
            let (observed, samples) = report(done - t_start);
            let (wall_s, cpu_s) = watch.stop();
            let ok = task.progress() == params.operations;
            (observed, samples, wall_s, cpu_s, ok, Some(task.checksum()))
        }
        Work::BlkStream(_) => unreachable!("handled above"),
    };
    Outcome {
        wall_s,
        cpu_s,
        assembly_s,
        observed,
        ops_attempted: ops,
        ops_failed: if ok { 0 } else { ops },
        fault_samples,
        checksum,
    }
}
