//! Scenario assembly: full simulated machines for every figure.
//!
//! A [`Scenario`] is one experimental configuration from the paper's §6.1
//! setup: a client node with a given amount of local memory and one swap
//! back-end — nothing (abundant local memory), HPBD with N memory servers,
//! NBD over GigE or IPoIB, or the local ATA disk. The run methods execute
//! a workload to completion on the simulated machine and return a
//! [`RunReport`] with the virtual execution time and the paging/device
//! counters the harness prints.

use crate::barnes::{Barnes, BarnesParams};
use crate::kvstore::{KvParams, KvStore};
use crate::qsort::QsortTask;
use crate::task::Scheduler;
use crate::testswap::TestswapTask;
use crate::zipf::{ZipfParams, ZipfTask};
use blockdev::{BlockDevice, DispatchRecord, RequestQueue, SimDisk};
use hpbd::{ClusterBuilder, HpbdCluster, HpbdConfig};
use ibsim::Fabric;
use netmodel::{Calibration, Node, Transport};
use simcore::{Engine, FlightSummary, LifecycleHub, MetricsSnapshot, SimDuration, Tracer};
use simfault::FaultPlan;
use std::cell::RefCell;
use std::rc::Rc;
use vmsim::{
    AddressSpace, BlockBackend, DirectBackend, DirectConfig, DirectStats, SwapBackend, Vm,
    VmConfig, VmStats,
};

/// Which swap back-end a scenario uses.
#[derive(Clone, Debug)]
pub enum SwapKind {
    /// No swap device: local memory must fit the workload ("enough local
    /// memory" baseline).
    LocalOnly,
    /// HPBD over InfiniBand with this many memory servers.
    Hpbd {
        /// Number of remote memory servers (extents split evenly).
        servers: usize,
    },
    /// NBD over the given TCP transport (single server, as in Linux 2.4).
    Nbd {
        /// GigE or IPoIB.
        transport: Transport,
    },
    /// The local ATA disk.
    Disk,
}

/// How swap I/O reaches the device: through the kernel block layer (the
/// paper's path) or the frontswap-style user-space path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SwapPath {
    /// Kernel block-device path: bio staging, elevator merging, queue
    /// plug/unplug, interrupt-style completion.
    #[default]
    Block,
    /// User-space direct path: the demand page straight to the device,
    /// alone, with busy-poll completion and adaptive event fallback;
    /// write-back bursts and readahead clusters coalesced at `reap`
    /// ([`vmsim::DirectBackend`], figU).
    Direct,
}

/// One experimental configuration.
#[derive(Clone, Debug)]
pub struct ScenarioConfig {
    /// Local memory available to the VM.
    pub local_mem: u64,
    /// Total swap capacity (split across HPBD servers if several).
    pub swap_capacity: u64,
    /// Back-end selection.
    pub kind: SwapKind,
    /// HPBD tuning (ignored by other kinds).
    pub hpbd: HpbdConfig,
    /// Override the VM's swap-in readahead window (None: the 2.4 default
    /// of 8 pages). 1 disables readahead — the right setting for
    /// random-access workloads like the KV mix.
    pub readahead_pages: Option<usize>,
    /// Tracer installed on the scenario's engine (None: tracing off).
    /// Hand out per-run tracers from one [`simcore::TraceSession`] to
    /// collect several configurations into a single Chrome trace.
    pub tracer: Option<Tracer>,
    /// Deterministic fault plan armed against the swap back-end (HPBD
    /// servers/links, or the NBD TCP connection). An empty plan — the
    /// default — installs nothing: the run is byte-identical to one built
    /// before fault injection existed.
    pub fault_plan: FaultPlan,
    /// Record per-request lifecycle phases into a flight recorder (off by
    /// default: the hot-path marks cost time, so benchmarked runs keep it
    /// disabled and attribution runs are separate passes).
    pub record_lifecycle: bool,
    /// Block-layer merge cap for the swap request queue, in bytes (the
    /// Linux 2.4 single-request bound; default 128 KiB). Ablations shrink
    /// or grow it without touching the queue code.
    pub queue_max_request_bytes: u64,
    /// Staged-bio count that forces an unplug even without an explicit
    /// flush (default 4096).
    pub queue_flush_backstop: usize,
    /// Kernel block path or user-space direct path (default: Block — every
    /// paper figure; figU sweeps both).
    pub swap_path: SwapPath,
    /// Tuning for the direct path (ignored by [`SwapPath::Block`]).
    pub direct: DirectConfig,
}

impl ScenarioConfig {
    /// A configuration with default HPBD tuning.
    pub fn new(local_mem: u64, swap_capacity: u64, kind: SwapKind) -> ScenarioConfig {
        ScenarioConfig {
            local_mem,
            swap_capacity,
            kind,
            hpbd: HpbdConfig::default(),
            readahead_pages: None,
            tracer: None,
            fault_plan: FaultPlan::new(),
            record_lifecycle: false,
            queue_max_request_bytes: blockdev::MAX_REQUEST_BYTES,
            queue_flush_backstop: blockdev::DEFAULT_FLUSH_BACKSTOP,
            swap_path: SwapPath::Block,
            direct: DirectConfig::default(),
        }
    }
}

/// Uniform result record for the figure harnesses.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Configuration label ("local", "HPBD-4", "NBD-GigE", "disk").
    pub label: String,
    /// Workload name.
    pub workload: String,
    /// Virtual execution time.
    pub elapsed: SimDuration,
    /// VM paging counters.
    pub vm: VmStats,
    /// Dispatched swap requests (count, mean size in bytes).
    pub requests: u64,
    /// Mean dispatched request size.
    pub mean_request_bytes: f64,
    /// Swap-in (read) service latency in µs: (mean, max, count).
    pub read_latency_us: (f64, f64, u64),
    /// Swap-out (write) service latency in µs: (mean, max, count).
    pub write_latency_us: (f64, f64, u64),
    /// HPBD client counters (None for non-HPBD scenarios).
    pub hpbd_client: Option<hpbd::ClientStats>,
    /// Direct-path poll counters (None on the block path). Snapshotted
    /// with the rest of the report, before any debug-only proof walk
    /// re-faults pages through the backend.
    pub direct: Option<DirectStats>,
    /// Metrics registry snapshot at report time (counters, gauges,
    /// latency histograms — see `simtrace`).
    pub metrics: MetricsSnapshot,
    /// Simulation events executed by the engine over this run
    /// (deterministic; `obsreport` prints it per cell and its golden file
    /// pins it).
    pub events: u64,
    /// Flight-recorder snapshot: per-device phase attribution over every
    /// completed swap request. None unless the scenario was built with
    /// [`ScenarioConfig::record_lifecycle`] set.
    pub lifecycle: Option<FlightSummary>,
}

/// A built machine, ready to run workloads.
pub struct Scenario {
    /// The event engine (fresh per scenario).
    pub engine: Engine,
    /// Calibration in effect.
    pub cal: Rc<Calibration>,
    /// The client node.
    pub node: Node,
    /// The VM on the client node.
    pub vm: Vm,
    /// HPBD deployment, when `kind` is HPBD.
    pub hpbd: Option<HpbdCluster>,
    /// Disk device, when `kind` is Disk.
    pub disk: Option<Rc<SimDisk>>,
    /// The swap request queue (None for LocalOnly and the direct path).
    pub swap_queue: Option<Rc<RequestQueue>>,
    /// The swap backend the VM talks to (None for LocalOnly).
    pub backend: Option<Rc<dyn SwapBackend>>,
    /// The direct backend, when `swap_path` is Direct (poll statistics).
    pub direct: Option<Rc<DirectBackend>>,
    label: String,
}

/// Raw device selection: the node it hangs off, the owning cluster /
/// disk handles kept alive for stats, the device itself, and a label.
type RawDevice = (
    Node,
    Option<HpbdCluster>,
    Option<Rc<SimDisk>>,
    Option<Rc<dyn BlockDevice>>,
    String,
);

/// Swap-path wiring over a raw device: the kernel request queue (block
/// path only), the backend handed to vmsim, the direct handle for
/// poll-stats, and the path-qualified label.
type SwapWiring = (
    Option<Rc<RequestQueue>>,
    Option<Rc<dyn SwapBackend>>,
    Option<Rc<DirectBackend>>,
    String,
);

impl Scenario {
    /// Build a machine per `config` with the 2005 calibration.
    pub fn build(config: &ScenarioConfig) -> Scenario {
        Scenario::build_with(config, Rc::new(Calibration::cluster_2005()))
    }

    /// Build with an explicit calibration (ablations).
    pub fn build_with(config: &ScenarioConfig, cal: Rc<Calibration>) -> Scenario {
        let engine = Engine::new();
        if let Some(tracer) = &config.tracer {
            engine.set_tracer(tracer.clone());
        }
        if config.record_lifecycle {
            engine.set_lifecycle(LifecycleHub::enabled());
        }
        let mut vm_config = VmConfig::for_memory(config.local_mem);
        if let Some(ra) = config.readahead_pages {
            assert!(ra >= 1, "readahead window must be at least the page itself");
            vm_config.readahead_pages = ra;
        }

        // Each kind yields its raw device; the swap *path* below decides
        // whether the kernel request queue sits in front of it.
        let (node, hpbd, disk, device, label): RawDevice = match &config.kind {
            SwapKind::LocalOnly => {
                let node = Node::new("client", 0, 2);
                (node, None, None, None, "local".to_string())
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
                let dev: Rc<dyn BlockDevice> = Rc::new(cluster.client.clone());
                let label = format!("HPBD-{servers}");
                (node, Some(cluster), None, Some(dev), label)
            }
            SwapKind::Nbd { transport } => {
                let node = Node::new("client", 0, 2);
                let dev = nbd::build_pair_with_faults(
                    &engine,
                    cal.clone(),
                    *transport,
                    &node,
                    config.swap_capacity,
                    &config.fault_plan,
                );
                let label = format!("NBD-{}", transport.label());
                (node, None, None, Some(Rc::new(dev)), label)
            }
            SwapKind::Disk => {
                let node = Node::new("client", 0, 2);
                let dev = Rc::new(SimDisk::new(
                    engine.clone(),
                    cal.disk.clone(),
                    config.swap_capacity,
                    "hda",
                ));
                (node, None, Some(dev.clone()), Some(dev), "disk".to_string())
            }
        };

        let (swap_queue, backend, direct, label): SwapWiring = match device {
            None => (None, None, None, label),
            Some(dev) => match config.swap_path {
                SwapPath::Block => {
                    let queue = Rc::new(RequestQueue::with_limits(
                        engine.clone(),
                        cal.clone(),
                        node.clone(),
                        dev,
                        config.queue_max_request_bytes,
                        config.queue_flush_backstop,
                    ));
                    let block = BlockBackend::new(queue.clone());
                    (Some(queue), Some(block as Rc<dyn SwapBackend>), None, label)
                }
                SwapPath::Direct => {
                    let direct = DirectBackend::new(
                        engine.clone(),
                        node.clone(),
                        dev,
                        config.direct.clone(),
                    );
                    (
                        None,
                        Some(direct.clone() as Rc<dyn SwapBackend>),
                        Some(direct),
                        format!("{label}-direct"),
                    )
                }
            },
        };

        let vm = Vm::new(engine.clone(), cal.clone(), node.clone(), vm_config);
        if let Some(backend) = &backend {
            vm.add_swap_backend(backend.clone(), 0);
        }
        Scenario {
            engine,
            cal,
            node,
            vm,
            hpbd,
            disk,
            swap_queue,
            backend,
            direct,
            label,
        }
    }

    /// Configuration label for reports.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The dispatch log of the swap queue, if any.
    pub fn dispatch_log(&self) -> Option<Rc<RefCell<Vec<DispatchRecord>>>> {
        self.swap_queue.as_ref().map(|q| q.dispatch_log())
    }

    fn report(&self, workload: &str, elapsed: SimDuration) -> RunReport {
        let (requests, mean) = match &self.backend {
            Some(b) => (b.requests(), b.mean_request_bytes()),
            None => (0, 0.0),
        };
        let lat = |s: simcore::OnlineStats| (s.mean(), s.max().unwrap_or(0.0), s.count());
        let (read_latency_us, write_latency_us) = match &self.backend {
            Some(b) => (lat(b.read_latency()), lat(b.write_latency())),
            None => ((0.0, 0.0, 0), (0.0, 0.0, 0)),
        };
        RunReport {
            label: self.label.clone(),
            workload: workload.to_string(),
            elapsed,
            vm: self.vm.stats(),
            requests,
            mean_request_bytes: mean,
            read_latency_us,
            write_latency_us,
            hpbd_client: self.hpbd.as_ref().map(|c| c.client.stats()),
            direct: self.direct.as_ref().map(|d| d.stats()),
            metrics: self.engine.metrics().snapshot(),
            events: self.engine.events_executed(),
            lifecycle: if self.engine.lifecycle_enabled() {
                Some(self.engine.lifecycle().summary())
            } else {
                None
            },
        }
    }

    fn scheduler(&self) -> Scheduler {
        Scheduler::new(self.engine.clone(), 2).with_node_cpu(self.node.cpu().clone())
    }

    /// Run a debug-only verification proof with tracing detached: the
    /// walk re-faults evicted pages, and that post-run traffic must not
    /// make the trace buffer differ between build profiles (the block
    /// differential test fingerprints it).
    fn untraced_proof(&self, proof: impl FnOnce() -> bool) -> bool {
        let saved = self.engine.tracer();
        self.engine.set_tracer(Tracer::disabled());
        let ok = proof();
        self.engine.set_tracer(saved);
        ok
    }

    /// Run testswap over `elements` i32s.
    pub fn run_testswap(&self, elements: usize) -> RunReport {
        let space = AddressSpace::new(&self.vm);
        let mut task = TestswapTask::new(&space, elements, self.cal.compute.testswap_ns_per_write);
        let t0 = self.engine.now();
        let done = self.scheduler().run_one(&mut task);
        self.report("testswap", done - t0)
    }

    /// Run one quicksort instance over `elements` random i32s.
    pub fn run_qsort(&self, elements: usize, seed: u64) -> RunReport {
        let space = AddressSpace::new(&self.vm);
        let mut task = QsortTask::new(
            &space,
            elements,
            seed,
            self.cal.compute.qsort_ns_per_op,
            "qsort",
        );
        let t0 = self.engine.now();
        let done = self.scheduler().run_one(&mut task);
        // Snapshot the report before the sortedness proof: the debug-only
        // verification walk re-faults evicted pages, and that traffic must
        // not make the metrics/trace differ between build profiles.
        let report = self.report("quicksort", done - t0);
        debug_assert!(self.untraced_proof(|| task.is_sorted()));
        report
    }

    /// Run two concurrent quicksort instances (Figure 9). Returns the two
    /// completion spans and a combined report (elapsed = max of the two).
    pub fn run_qsort_pair(
        &self,
        elements: usize,
        seed: u64,
    ) -> (SimDuration, SimDuration, RunReport) {
        let s1 = AddressSpace::new(&self.vm);
        let s2 = AddressSpace::new(&self.vm);
        let ns = self.cal.compute.qsort_ns_per_op;
        let mut a = QsortTask::new(&s1, elements, seed, ns, "qsort-a");
        let mut b = QsortTask::new(&s2, elements, seed.wrapping_add(1), ns, "qsort-b");
        let t0 = self.engine.now();
        let done = {
            let mut tasks: [&mut dyn crate::task::Task; 2] = [&mut a, &mut b];
            self.scheduler().run(&mut tasks)
        };
        let (da, db) = (done[0] - t0, done[1] - t0);
        // Report first, proof second — see run_qsort.
        let report = self.report("quicksort-x2", da.max(db));
        debug_assert!(self.untraced_proof(|| a.is_sorted() && b.is_sorted()));
        (da, db, report)
    }

    /// Run the database-like key-value transaction mix (extra workload
    /// beyond the paper; see EXPERIMENTS.md).
    pub fn run_kvstore(&self, params: KvParams) -> RunReport {
        let t0 = self.engine.now();
        let mut kv = KvStore::new(&self.vm, params);
        let result = kv.run();
        assert!(result.hits > 0 || result.updates > 0);
        let elapsed = self.engine.now() - t0;
        self.report("kvstore", elapsed)
    }

    /// Run the Zipf-sampled page walker (the figU skewed-access variant).
    /// Returns the report plus the task's data checksum for differential
    /// verification across swap paths.
    pub fn run_zipf(&self, params: ZipfParams) -> (RunReport, u64) {
        let space = AddressSpace::new(&self.vm);
        let mut task = ZipfTask::new(&space, params.clone());
        let t0 = self.engine.now();
        let done = self.scheduler().run_one(&mut task);
        assert_eq!(task.progress(), params.operations);
        (self.report("zipf", done - t0), task.checksum())
    }

    /// Run Barnes-Hut with the given parameters (Figure 8).
    pub fn run_barnes(&self, params: BarnesParams) -> RunReport {
        let t0 = self.engine.now();
        let mut barnes = Barnes::new(&self.vm, params);
        let result = barnes.run();
        assert!(result.kinetic_energy.is_finite());
        let elapsed = self.engine.now() - t0;
        self.report("barnes", elapsed)
    }
}

/// A finished machine frees itself. Events still queued (a timer, a
/// revoke notice) capture the components that scheduled them, and the
/// components hold the engine: without this, that cycle outlives the
/// scenario.
impl Drop for Scenario {
    fn drop(&mut self) {
        self.engine.discard_pending();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    /// Small-scale version of the Figure 5 setup: dataset 2x local memory.
    fn run_testswap_on(kind: SwapKind, local_mem: u64) -> RunReport {
        let config = ScenarioConfig::new(local_mem, 64 * MB, kind);
        let scenario = Scenario::build(&config);
        // 8M i32 = 32 MB dataset.
        scenario.run_testswap(8 << 20)
    }

    #[test]
    fn figure5_ordering_holds_at_small_scale() {
        // local < HPBD < NBD-IPoIB < NBD-GigE < disk.
        let local = run_testswap_on(SwapKind::LocalOnly, 64 * MB);
        let hpbd = run_testswap_on(SwapKind::Hpbd { servers: 1 }, 16 * MB);
        let ipoib = run_testswap_on(
            SwapKind::Nbd {
                transport: Transport::IpoIb,
            },
            16 * MB,
        );
        let gige = run_testswap_on(
            SwapKind::Nbd {
                transport: Transport::GigE,
            },
            16 * MB,
        );
        let disk = run_testswap_on(SwapKind::Disk, 16 * MB);
        assert!(
            local.elapsed < hpbd.elapsed,
            "local {} !< hpbd {}",
            local.elapsed,
            hpbd.elapsed
        );
        assert!(
            hpbd.elapsed < ipoib.elapsed,
            "hpbd {} !< ipoib {}",
            hpbd.elapsed,
            ipoib.elapsed
        );
        assert!(
            ipoib.elapsed < gige.elapsed,
            "ipoib {} !< gige {}",
            ipoib.elapsed,
            gige.elapsed
        );
        assert!(
            gige.elapsed < disk.elapsed,
            "gige {} !< disk {}",
            gige.elapsed,
            disk.elapsed
        );
    }

    #[test]
    fn hpbd_data_integrity_through_qsort() {
        let config = ScenarioConfig::new(8 * MB, 64 * MB, SwapKind::Hpbd { servers: 2 });
        let scenario = Scenario::build(&config);
        // is_sorted() is debug-asserted inside run_qsort.
        let report = scenario.run_qsort(1 << 20, 3); // 4 MB dataset, 8 MB mem... fits mostly
        assert!(report.elapsed.as_nanos() > 0);
    }

    #[test]
    fn request_sizes_cluster_near_128k_for_testswap() {
        // Figure 6: sequential page-outs merge into large requests.
        let report = run_testswap_on(SwapKind::Hpbd { servers: 1 }, 16 * MB);
        assert!(
            report.mean_request_bytes > 64.0 * 1024.0,
            "mean request {} should be large (merging works)",
            report.mean_request_bytes
        );
        assert!(report.requests > 0);
    }

    #[test]
    fn multi_server_roughly_flat_through_4() {
        let t = |servers| {
            run_testswap_on(SwapKind::Hpbd { servers }, 16 * MB)
                .elapsed
                .as_nanos() as f64
        };
        let one = t(1);
        let four = t(4);
        assert!(
            (four - one).abs() / one < 0.25,
            "1 server {one} vs 4 servers {four} should be within 25%"
        );
    }

    #[test]
    fn pair_run_completes_and_reports_both() {
        let config = ScenarioConfig::new(8 * MB, 128 * MB, SwapKind::Hpbd { servers: 2 });
        let scenario = Scenario::build(&config);
        let (da, db, report) = scenario.run_qsort_pair(1 << 20, 9);
        assert!(da.as_nanos() > 0 && db.as_nanos() > 0);
        assert_eq!(report.workload, "quicksort-x2");
        assert!(report.elapsed >= da.min(db));
    }

    #[test]
    fn barnes_runs_on_hpbd() {
        let config = ScenarioConfig::new(MB, 64 * MB, SwapKind::Hpbd { servers: 1 });
        let scenario = Scenario::build(&config);
        let report = scenario.run_barnes(BarnesParams {
            bodies: 8192,
            iterations: 1,
            ..BarnesParams::default()
        });
        assert!(report.vm.swap_outs > 0, "Barnes should page at 1MB local");
        assert!(report.elapsed.as_nanos() > 0);
    }
}
