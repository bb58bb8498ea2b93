//! Cluster wiring: one client, N memory servers.
//!
//! Stands in for HPBD's initialisation phase (paper §5): a socket
//! connection exchanges queue-pair information, after which the client
//! holds an IBA context per minor device — HCA handles, *shared completion
//! queues*, the registered pool, and a QP per server.
//!
//! Deployments are described with [`ClusterBuilder`]: an [`HpbdConfig`],
//! the server count and capacity, plus a [`ClusterBuilder::fault_plan`] hook
//! that arms a deterministic [`simfault::FaultPlan`] against the built
//! cluster — server crashes/restarts and per-link degradation, loss, and
//! completion errors, all scheduled on the virtual clock.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::client::HpbdClient;
use crate::config::HpbdConfig;
use crate::server::HpbdServer;
use ibsim::{Fabric, IbNode, LinkFaults};
use netmodel::Calibration;
use simcore::{Engine, SimTime};
use simfault::{FaultEvent, FaultPlan};
use std::rc::Rc;

/// A built HPBD deployment.
pub struct HpbdCluster {
    /// The fabric (owns calibration and node creation).
    pub fabric: Fabric,
    /// The client block device.
    pub client: HpbdClient,
    /// The memory servers, in extent order.
    pub servers: Vec<HpbdServer>,
    /// Per-server link fault handles (client↔server connection `i`).
    /// Empty unless a non-empty fault plan was armed — an unfaulted
    /// cluster carries no fault state at all.
    pub links: Vec<LinkFaults>,
}

/// Describes an HPBD deployment and builds it: one client, N memory
/// servers, optional fault plan.
///
/// ```
/// use hpbd::{ClusterBuilder, HpbdConfig};
/// use netmodel::Calibration;
/// use simcore::Engine;
/// use std::rc::Rc;
///
/// let engine = Engine::new();
/// let cal = Rc::new(Calibration::cluster_2005());
/// let cluster = ClusterBuilder::new()
///     .servers(4)
///     .per_server_capacity(8 << 20)
///     .config(HpbdConfig {
///         mirror_writes: true,
///         request_timeout_ns: Some(5_000_000),
///         ..HpbdConfig::default()
///     })
///     .build(&engine, cal);
/// assert_eq!(cluster.servers.len(), 4);
/// ```
#[derive(Clone, Debug)]
pub struct ClusterBuilder {
    config: HpbdConfig,
    n_servers: usize,
    per_server_capacity: u64,
    fault_plan: FaultPlan,
}

impl Default for ClusterBuilder {
    fn default() -> ClusterBuilder {
        ClusterBuilder::new()
    }
}

impl ClusterBuilder {
    /// A builder with the paper-default [`HpbdConfig`], two servers of
    /// 8 MiB each, and no faults.
    pub fn new() -> ClusterBuilder {
        ClusterBuilder {
            config: HpbdConfig::default(),
            n_servers: 2,
            per_server_capacity: 8 << 20,
            fault_plan: FaultPlan::new(),
        }
    }

    /// The client and server configuration (default: the paper's
    /// [`HpbdConfig::default`]).
    pub fn config(mut self, config: HpbdConfig) -> ClusterBuilder {
        self.config = config;
        self
    }

    /// Number of memory servers (extents are attached in order).
    pub fn servers(mut self, n_servers: usize) -> ClusterBuilder {
        self.n_servers = n_servers;
        self
    }

    /// Exported swap capacity per server, in bytes (page-multiple).
    pub fn per_server_capacity(mut self, bytes: u64) -> ClusterBuilder {
        self.per_server_capacity = bytes;
        self
    }

    /// Attach a deterministic fault plan. An EMPTY plan (the default) arms
    /// nothing: no link-fault handles, no scheduled events — the built
    /// cluster is bit-for-bit the unfaulted one.
    pub fn fault_plan(mut self, plan: FaultPlan) -> ClusterBuilder {
        self.fault_plan = plan;
        self
    }

    /// Build the cluster on a fresh fabric. The swap area is made of the
    /// server extents, laid out by the configured distribution.
    pub fn build(self, engine: &Engine, cal: Rc<Calibration>) -> HpbdCluster {
        let fabric = Fabric::new(engine.clone(), cal);
        let client_node = fabric.add_node("hpbd-client");
        self.build_on(&fabric, client_node)
    }

    /// Build on an existing fabric/client node (lets scenarios share the
    /// client node with the VM and applications).
    pub fn build_on(self, fabric: &Fabric, client_node: IbNode) -> HpbdCluster {
        let ClusterBuilder {
            config,
            n_servers,
            per_server_capacity,
            fault_plan,
        } = self;
        assert!(n_servers > 0, "at least one memory server");
        assert!(
            per_server_capacity.is_multiple_of(4096),
            "server capacity must be page-aligned"
        );
        let engine = fabric.engine().clone();
        let client = HpbdClient::new(engine.clone(), client_node, config.clone());
        let mut servers = Vec::with_capacity(n_servers);
        let mut links = Vec::new();
        let arm_faults = !fault_plan.is_empty();
        assert!(
            n_servers >= 2 || !config.mirror_writes,
            "mirrored writes need at least two servers"
        );
        for i in 0..n_servers {
            let server = HpbdServer::new(
                fabric,
                &format!("mem-server-{i}"),
                config.store_len(per_server_capacity),
                config.clone(),
            );
            // QP exchange: connect with queue depths sized for the credit
            // window (requests, replies, and in-flight RDMA).
            let depth = config.credits * 2 + 8;
            let (c_send, c_recv) = client.cqs();
            let (qp_c, qp_s) = fabric.connect_with_depth(
                client.ibnode(),
                c_send,
                c_recv,
                server.ibnode(),
                server.send_cq(),
                server.recv_cq(),
                depth,
                config.credits + 2,
            );
            if arm_faults {
                // One shared handle per connection, installed on both
                // directions of the link.
                let link = LinkFaults::new();
                qp_c.set_link_faults(link.clone());
                qp_s.set_link_faults(link.clone());
                links.push(link);
            }
            // The connect handshake carries the server's boot generation so
            // the client can spot an in-window amnesiac restart (§13).
            client.attach_server(qp_c, per_server_capacity, server.generation());
            server.attach_connection(qp_s);
            servers.push(server);
        }
        let cluster = HpbdCluster {
            fabric: fabric.clone(),
            client,
            servers,
            links,
        };
        if arm_faults {
            schedule_fault_plan(&engine, &cluster, &fault_plan, n_servers);
        }
        cluster
    }
}

/// Schedule every timed fault of `plan` against the built cluster on the
/// engine's virtual clock.
fn schedule_fault_plan(engine: &Engine, cluster: &HpbdCluster, plan: &FaultPlan, n_servers: usize) {
    if let Some(max) = plan.max_server_index() {
        assert!(
            max < n_servers,
            "fault plan names server {max}, but the cluster has {n_servers} servers"
        );
    }
    for timed in plan.events() {
        let at = SimTime(timed.at_ns);
        match timed.event {
            FaultEvent::ServerCrash { server } => {
                let s = cluster.servers[server].clone();
                engine.schedule_at(at, move || s.crash());
            }
            FaultEvent::ServerRestart { server } => {
                let s = cluster.servers[server].clone();
                engine.schedule_at(at, move || s.restart());
            }
            FaultEvent::Link { server, fault } => {
                let link = cluster.links[server].clone();
                engine.schedule_at(at, move || link.arm(&fault));
            }
            // TCP resets target the NBD baseline; a plan shared between
            // an HPBD and an NBD deployment simply has no HPBD-side
            // effect for them.
            FaultEvent::TcpReset => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Distribution, StagingMode};
    use blockdev::{new_buffer, Bio, BlockDevice, IoOp, IoRequest};
    use simcore::Engine;
    use std::cell::Cell;
    use std::rc::Rc;

    fn cluster(n_servers: usize, per_server: u64) -> (Engine, HpbdCluster) {
        let engine = Engine::new();
        let cal = Rc::new(Calibration::cluster_2005());
        let cluster = ClusterBuilder::new()
            .servers(n_servers)
            .per_server_capacity(per_server)
            .build(&engine, cal);
        (engine, cluster)
    }

    fn write_read_roundtrip(engine: &Engine, dev: &HpbdClient, offset: u64, len: usize, fill: u8) {
        let wbuf = new_buffer(len);
        wbuf.borrow_mut().fill(fill);
        let done = Rc::new(Cell::new(false));
        {
            let done = done.clone();
            dev.submit(IoRequest::single(Bio::new(
                IoOp::Write,
                offset,
                wbuf,
                move |r| {
                    r.unwrap();
                    done.set(true);
                },
            )));
        }
        engine.run_until_idle();
        assert!(done.get(), "write completed");
        assert_reads_back(engine, dev, offset, len, fill);
    }

    fn assert_reads_back(engine: &Engine, dev: &HpbdClient, offset: u64, len: usize, fill: u8) {
        let rbuf = new_buffer(len);
        dev.submit(IoRequest::single(Bio::new(
            IoOp::Read,
            offset,
            rbuf.clone(),
            |r| r.unwrap(),
        )));
        engine.run_until_idle();
        assert!(
            rbuf.borrow().iter().all(|&b| b == fill),
            "data must round-trip through the remote server"
        );
    }

    #[test]
    fn single_server_roundtrip() {
        let (engine, cluster) = cluster(1, 8 << 20);
        write_read_roundtrip(&engine, &cluster.client, 4096, 4096, 0xA7);
        let s = cluster.client.stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.phys_requests, 2);
        assert_eq!(s.bytes_out, 4096);
        assert_eq!(s.bytes_in, 4096);
        let srv = cluster.servers[0].stats();
        assert_eq!(
            srv.rdma_reads, 1,
            "swap-out uses server-initiated RDMA READ"
        );
        assert_eq!(srv.rdma_writes, 1, "swap-in uses RDMA WRITE");
    }

    #[test]
    fn large_request_roundtrip() {
        let (engine, cluster) = cluster(1, 8 << 20);
        write_read_roundtrip(&engine, &cluster.client, 0, 128 * 1024, 0x3E);
    }

    #[test]
    fn capacity_is_sum_of_extents() {
        let (_, cluster) = cluster(4, 1 << 20);
        assert_eq!(cluster.client.capacity(), 4 << 20);
        assert_eq!(cluster.client.server_count(), 4);
    }

    #[test]
    fn blocking_distribution_routes_by_extent() {
        let (engine, cluster) = cluster(2, 1 << 20);
        // Write into each server's extent; only that server stores bytes.
        write_read_roundtrip(&engine, &cluster.client, 0, 4096, 1);
        write_read_roundtrip(&engine, &cluster.client, 1 << 20, 4096, 2);
        assert_eq!(cluster.servers[0].stats().bytes_in, 4096);
        assert_eq!(cluster.servers[1].stats().bytes_in, 4096);
    }

    #[test]
    fn boundary_spanning_request_splits() {
        let (engine, cluster) = cluster(2, 1 << 20);
        // 8K extent-straddling write: 4K to server 0, 4K to server 1.
        write_read_roundtrip(&engine, &cluster.client, (1 << 20) - 4096, 8192, 9);
        let s = cluster.client.stats();
        assert!(s.split_requests >= 1, "boundary request must split");
        assert_eq!(cluster.servers[0].stats().bytes_in, 4096);
        assert_eq!(cluster.servers[1].stats().bytes_in, 4096);
    }

    #[test]
    fn out_of_range_rejected() {
        let (engine, cluster) = cluster(1, 1 << 20);
        let got = Rc::new(Cell::new(None));
        {
            let got = got.clone();
            cluster.client.submit(IoRequest::single(Bio::new(
                IoOp::Write,
                1 << 20,
                new_buffer(4096),
                move |r| got.set(Some(r)),
            )));
        }
        engine.run_until_idle();
        assert_eq!(got.get(), Some(Err(blockdev::IoError::OutOfRange)));
    }

    #[test]
    fn flow_control_queues_beyond_water_mark() {
        let engine = Engine::new();
        let cal = Rc::new(Calibration::cluster_2005());
        let cluster = ClusterBuilder::new()
            .config(HpbdConfig {
                credits: 2,
                ..HpbdConfig::default()
            })
            .servers(1)
            .per_server_capacity(8 << 20)
            .build(&engine, cal);
        let done = Rc::new(Cell::new(0));
        // 8 concurrent 4K writes with only 2 credits.
        for i in 0..8u64 {
            let done = done.clone();
            cluster.client.submit(IoRequest::single(Bio::new(
                IoOp::Write,
                i * 4096,
                new_buffer(4096),
                move |r| {
                    r.unwrap();
                    done.set(done.get() + 1);
                },
            )));
        }
        engine.run_until_idle();
        assert_eq!(done.get(), 8, "all writes eventually complete");
        let s = cluster.client.stats();
        assert!(s.flow_stalls > 0, "water-mark must have throttled");
    }

    #[test]
    fn pool_exhaustion_queues_requests() {
        let engine = Engine::new();
        let cal = Rc::new(Calibration::cluster_2005());
        let cluster = ClusterBuilder::new()
            .config(HpbdConfig {
                pool_size: 128 * 1024, // one max-size request
                ..HpbdConfig::default()
            })
            .servers(1)
            .per_server_capacity(8 << 20)
            .build(&engine, cal);
        let done = Rc::new(Cell::new(0));
        for i in 0..4u64 {
            let done = done.clone();
            cluster.client.submit(IoRequest::single(Bio::new(
                IoOp::Write,
                i * 128 * 1024,
                new_buffer(128 * 1024),
                move |r| {
                    r.unwrap();
                    done.set(done.get() + 1);
                },
            )));
        }
        engine.run_until_idle();
        assert_eq!(done.get(), 4);
        assert!(
            cluster.client.stats().pool_waits > 0,
            "pool must have queued"
        );
    }

    #[test]
    fn request_larger_than_the_pool_is_cut_to_fit() {
        let engine = Engine::new();
        let cal = Rc::new(Calibration::cluster_2005());
        let cluster = ClusterBuilder::new()
            .config(HpbdConfig {
                pool_size: 128 << 10,
                ..HpbdConfig::default()
            })
            .servers(1)
            .build(&engine, cal);
        write_read_roundtrip(&engine, &cluster.client, 0, 256 << 10, 0x5A);
        let s = cluster.client.stats();
        assert_eq!(s.phys_requests, 4, "each 256 KiB request goes as two parts");
        assert_eq!(s.split_requests, 2);
    }

    #[test]
    fn migration_of_a_chunk_larger_than_the_pool_is_cut_to_fit() {
        let engine = Engine::new();
        let cal = Rc::new(Calibration::cluster_2005());
        let cluster = ClusterBuilder::new()
            .config(HpbdConfig {
                chunk_bytes: 2 << 20,
                spare_chunks: 2,
                ..HpbdConfig::default()
            })
            .servers(2)
            .per_server_capacity(4 << 20)
            .build(&engine, cal);
        write_read_roundtrip(&engine, &cluster.client, 4096, 4096, 0x6B);
        // The whole-chunk read and write are 2 MiB each, twice both the
        // client pool and the server's staging pool.
        cluster.servers[0].revoke(0, 2 << 20);
        engine.run_until_idle();
        assert_eq!(cluster.client.stats().migrations, 1);
        assert_reads_back(&engine, &cluster.client, 4096, 4096, 0x6B);
    }

    #[test]
    fn concurrent_mixed_traffic_integrity() {
        let (engine, cluster) = cluster(2, 4 << 20);
        // Fill 64 pages with distinct patterns, then read back all.
        let n = 64u64;
        for i in 0..n {
            let buf = new_buffer(4096);
            buf.borrow_mut().fill((i % 251) as u8 + 1);
            cluster.client.submit(IoRequest::single(Bio::new(
                IoOp::Write,
                i * 4096,
                buf,
                |r| r.unwrap(),
            )));
        }
        engine.run_until_idle();
        let bufs: Vec<_> = (0..n)
            .map(|i| {
                let buf = new_buffer(4096);
                cluster.client.submit(IoRequest::single(Bio::new(
                    IoOp::Read,
                    i * 4096,
                    buf.clone(),
                    |r| r.unwrap(),
                )));
                buf
            })
            .collect();
        engine.run_until_idle();
        for (i, buf) in bufs.iter().enumerate() {
            let expect = (i as u64 % 251) as u8 + 1;
            assert!(
                buf.borrow().iter().all(|&b| b == expect),
                "page {i} corrupted"
            );
        }
    }

    #[test]
    fn server_sleeps_and_wakes() {
        let (engine, cluster) = cluster(1, 8 << 20);
        write_read_roundtrip(&engine, &cluster.client, 0, 4096, 1);
        // Let far more than 200us pass with no traffic.
        engine.advance(simcore::SimDuration::from_millis(5));
        write_read_roundtrip(&engine, &cluster.client, 4096, 4096, 2);
        assert!(
            cluster.servers[0].stats().wakeups >= 1,
            "server should have slept through the idle gap and woken"
        );
    }

    #[test]
    fn striped_distribution_fans_requests_across_servers() {
        let engine = Engine::new();
        let cal = Rc::new(Calibration::cluster_2005());
        let cluster = ClusterBuilder::new()
            .config(HpbdConfig {
                distribution: Distribution::Striped {
                    stripe_bytes: 8 * 4096,
                },
                ..HpbdConfig::default()
            })
            .servers(4)
            .per_server_capacity(2 << 20)
            .build(&engine, cal);
        // One 128K request spans 4 stripes of 32K: all four servers serve.
        write_read_roundtrip(&engine, &cluster.client, 0, 128 * 1024, 0x6B);
        for (i, server) in cluster.servers.iter().enumerate() {
            assert!(
                server.stats().bytes_in > 0,
                "striping should spread the write to server {i}"
            );
        }
        assert!(cluster.client.stats().split_requests >= 1);
    }

    #[test]
    fn striped_data_integrity_over_many_offsets() {
        let engine = Engine::new();
        let cal = Rc::new(Calibration::cluster_2005());
        let cluster = ClusterBuilder::new()
            .config(HpbdConfig {
                distribution: Distribution::Striped { stripe_bytes: 4096 },
                ..HpbdConfig::default()
            })
            .servers(3)
            .per_server_capacity(2 << 20)
            .build(&engine, cal);
        for i in 0..24u64 {
            let buf = new_buffer(4096);
            buf.borrow_mut().fill(i as u8 + 1);
            cluster.client.submit(IoRequest::single(Bio::new(
                IoOp::Write,
                i * 4096,
                buf,
                |r| r.unwrap(),
            )));
        }
        engine.run_until_idle();
        for i in 0..24u64 {
            let buf = new_buffer(4096);
            cluster.client.submit(IoRequest::single(Bio::new(
                IoOp::Read,
                i * 4096,
                buf.clone(),
                |r| r.unwrap(),
            )));
            engine.run_until_idle();
            assert!(
                buf.borrow().iter().all(|&b| b == i as u8 + 1),
                "page {i} corrupted under striping"
            );
        }
    }

    #[test]
    fn register_on_fly_works_but_costs_more() {
        let run = |staging: StagingMode| {
            let engine = Engine::new();
            let cal = Rc::new(Calibration::cluster_2005());
            let cluster = ClusterBuilder::new()
                .config(HpbdConfig {
                    staging,
                    ..HpbdConfig::default()
                })
                .servers(1)
                .per_server_capacity(8 << 20)
                .build(&engine, cal);
            let t0 = engine.now();
            // 16 sequential 64K writes, no two bytes of a page alike.
            let pattern = |i: u64, j: usize| (i as usize * 31 + j + j / 4096) as u8;
            for i in 0..16u64 {
                let buf = new_buffer(64 * 1024);
                for (j, b) in buf.borrow_mut().iter_mut().enumerate() {
                    *b = pattern(i, j);
                }
                cluster.client.submit(IoRequest::single(Bio::new(
                    IoOp::Write,
                    i * 64 * 1024,
                    buf,
                    |r| r.unwrap(),
                )));
            }
            engine.run_until_idle();
            // Read two back as one request of two bios: byte-exact, each
            // part scattered to its own buffer.
            let bufs = [new_buffer(64 * 1024), new_buffer(64 * 1024)];
            cluster.client.submit(IoRequest::from_bios(
                (0..2u64)
                    .map(|i| {
                        let buf = bufs[i as usize].clone();
                        Bio::new(IoOp::Read, i * 64 * 1024, buf, |r| r.unwrap())
                    })
                    .collect(),
            ));
            engine.run_until_idle();
            for (i, buf) in bufs.iter().enumerate() {
                let buf = buf.borrow();
                assert!(
                    buf.iter()
                        .enumerate()
                        .all(|(j, &b)| b == pattern(i as u64, j)),
                    "bio {i} read back other bytes than were written"
                );
            }
            (engine.now() - t0).as_nanos()
        };
        let copy = run(StagingMode::CopyToPool);
        let reg = run(StagingMode::RegisterOnFly);
        // Figure 3's verdict: for swap-sized requests, registering on the
        // fly must lose to copying through the pre-registered pool.
        assert!(
            reg > copy,
            "register-on-fly ({reg}ns) should be slower than copy ({copy}ns)"
        );
    }

    #[test]
    fn mirrored_writes_survive_primary_data_loss() {
        let engine = Engine::new();
        let cal = Rc::new(Calibration::cluster_2005());
        let cluster = ClusterBuilder::new()
            .config(HpbdConfig {
                mirror_writes: true,
                ..HpbdConfig::default()
            })
            .servers(2)
            .per_server_capacity(1 << 20)
            .build(&engine, cal);
        write_read_roundtrip(&engine, &cluster.client, 4096, 4096, 0x7C);
        // The replica landed in the next server's replica region.
        let s0 = cluster.servers[0].stats();
        let s1 = cluster.servers[1].stats();
        assert_eq!(
            s0.bytes_in + s1.bytes_in,
            2 * 4096,
            "write stored twice (primary + replica)"
        );
        assert!(s0.bytes_in > 0 && s1.bytes_in > 0);
    }

    #[test]
    fn mirrored_write_completes_only_after_both_replicas() {
        let engine = Engine::new();
        let cal = Rc::new(Calibration::cluster_2005());
        let cluster = ClusterBuilder::new()
            .config(HpbdConfig {
                mirror_writes: true,
                ..HpbdConfig::default()
            })
            .servers(2)
            .per_server_capacity(1 << 20)
            .build(&engine, cal.clone());
        let t0 = engine.now();
        let buf = new_buffer(64 * 1024);
        cluster
            .client
            .submit(IoRequest::single(Bio::new(IoOp::Write, 0, buf, |r| {
                r.unwrap()
            })));
        engine.run_until_idle();
        let mirrored = (engine.now() - t0).as_nanos();

        // Same write without mirroring.
        let engine2 = Engine::new();
        let cluster2 = ClusterBuilder::new()
            .servers(2)
            .per_server_capacity(1 << 20)
            .build(&engine2, cal);
        let buf = new_buffer(64 * 1024);
        cluster2
            .client
            .submit(IoRequest::single(Bio::new(IoOp::Write, 0, buf, |r| {
                r.unwrap()
            })));
        engine2.run_until_idle();
        let plain = (engine2.now() - t0).as_nanos();
        assert!(
            mirrored > plain,
            "mirroring must cost something: {mirrored} vs {plain}"
        );
    }

    #[test]
    fn failover_reads_replica_after_primary_crash() {
        let engine = Engine::new();
        let cal = Rc::new(Calibration::cluster_2005());
        let cluster = ClusterBuilder::new()
            .config(HpbdConfig {
                mirror_writes: true,
                request_timeout_ns: Some(5_000_000), // 5ms
                ..HpbdConfig::default()
            })
            .servers(2)
            .per_server_capacity(1 << 20)
            .build(&engine, cal);
        // Write data (mirrored to both servers).
        let wbuf = new_buffer(8192);
        wbuf.borrow_mut().fill(0x9D);
        cluster
            .client
            .submit(IoRequest::single(Bio::new(IoOp::Write, 0, wbuf, |r| {
                r.unwrap()
            })));
        engine.run_until_idle();
        // Primary of extent 0 dies.
        cluster.servers[0].crash();
        // Read must transparently come back from server 1's replica.
        let rbuf = new_buffer(8192);
        cluster.client.submit(IoRequest::single(Bio::new(
            IoOp::Read,
            0,
            rbuf.clone(),
            |r| r.unwrap(),
        )));
        engine.run_until_idle();
        assert!(
            rbuf.borrow().iter().all(|&b| b == 0x9D),
            "replica data must survive the crash"
        );
        let stats = cluster.client.stats();
        assert!(stats.timeouts >= 1, "the lost request must time out");
        assert!(stats.failovers >= 1, "and fail over to the buddy");
    }

    #[test]
    fn post_crash_traffic_routes_away_without_new_timeouts() {
        let engine = Engine::new();
        let cal = Rc::new(Calibration::cluster_2005());
        let cluster = ClusterBuilder::new()
            .config(HpbdConfig {
                mirror_writes: true,
                request_timeout_ns: Some(5_000_000),
                ..HpbdConfig::default()
            })
            .servers(2)
            .per_server_capacity(1 << 20)
            .build(&engine, cal);
        cluster.servers[0].crash();
        // First access pays the timeout and marks the server dead...
        let buf = new_buffer(4096);
        buf.borrow_mut().fill(1);
        cluster
            .client
            .submit(IoRequest::single(Bio::new(IoOp::Write, 0, buf, |r| {
                r.unwrap()
            })));
        engine.run_until_idle();
        let t_after_first = cluster.client.stats().timeouts;
        // ...subsequent writes to the dead extent go straight to the buddy.
        for i in 1..8u64 {
            let buf = new_buffer(4096);
            buf.borrow_mut().fill(i as u8);
            cluster.client.submit(IoRequest::single(Bio::new(
                IoOp::Write,
                i * 4096,
                buf,
                |r| r.unwrap(),
            )));
        }
        engine.run_until_idle();
        let stats = cluster.client.stats();
        assert_eq!(
            stats.timeouts, t_after_first,
            "dead-server traffic must not keep timing out"
        );
        assert!(stats.failovers >= 8);
        // Everything is readable from the survivor.
        for i in 0..8u64 {
            let rbuf = new_buffer(4096);
            cluster.client.submit(IoRequest::single(Bio::new(
                IoOp::Read,
                i * 4096,
                rbuf.clone(),
                |r| r.unwrap(),
            )));
            engine.run_until_idle();
            let expect = if i == 0 { 1 } else { i as u8 };
            assert!(rbuf.borrow().iter().all(|&b| b == expect), "page {i}");
        }
    }

    #[test]
    fn crash_without_mirroring_fails_the_io() {
        let engine = Engine::new();
        let cal = Rc::new(Calibration::cluster_2005());
        let cluster = ClusterBuilder::new()
            .config(HpbdConfig {
                request_timeout_ns: Some(5_000_000),
                ..HpbdConfig::default()
            })
            .servers(2)
            .per_server_capacity(1 << 20)
            .build(&engine, cal);
        cluster.servers[0].crash();
        let got = Rc::new(Cell::new(None));
        {
            let got = got.clone();
            cluster.client.submit(IoRequest::single(Bio::new(
                IoOp::Write,
                0,
                new_buffer(4096),
                move |r| got.set(Some(r)),
            )));
        }
        engine.run_until_idle();
        assert_eq!(
            got.get(),
            Some(Err(blockdev::IoError::Fault(blockdev::FaultKind::Timeout))),
            "without a replica the I/O must fail with the fault surfaced"
        );
    }

    #[test]
    fn revocation_migrates_chunks_and_preserves_data() {
        let engine = Engine::new();
        let cal = Rc::new(Calibration::cluster_2005());
        let cluster = ClusterBuilder::new()
            .config(HpbdConfig {
                chunk_bytes: 256 * 1024,
                spare_chunks: 4,
                ..HpbdConfig::default()
            })
            .servers(2)
            .per_server_capacity(1 << 20)
            .build(&engine, cal);
        // Fill server 0's extent with distinct patterns.
        for i in 0..64u64 {
            let buf = new_buffer(4096);
            buf.borrow_mut().fill((i % 250) as u8 + 1);
            cluster.client.submit(IoRequest::single(Bio::new(
                IoOp::Write,
                i * 4096,
                buf,
                |r| r.unwrap(),
            )));
        }
        engine.run_until_idle();
        // Server 0 wants its first 256K back.
        cluster.servers[0].revoke(0, 256 * 1024);
        engine.run_until_idle();
        let cs = cluster.client.stats();
        assert_eq!(cs.revocations, 1, "notice received");
        assert_eq!(cs.migrations, 1, "one chunk migrated");
        // Data must be intact — the first 256K now lives on server 1.
        let bytes_before = cluster.servers[1].stats().bytes_out;
        for i in 0..64u64 {
            let buf = new_buffer(4096);
            cluster.client.submit(IoRequest::single(Bio::new(
                IoOp::Read,
                i * 4096,
                buf.clone(),
                |r| r.unwrap(),
            )));
            engine.run_until_idle();
            assert!(
                buf.borrow().iter().all(|&b| b == (i % 250) as u8 + 1),
                "page {i} corrupted by migration"
            );
        }
        assert!(
            cluster.servers[1].stats().bytes_out > bytes_before,
            "migrated pages must be served by the new home"
        );
    }

    #[test]
    fn io_during_migration_is_deferred_not_lost() {
        let engine = Engine::new();
        let cal = Rc::new(Calibration::cluster_2005());
        let cluster = ClusterBuilder::new()
            .config(HpbdConfig {
                chunk_bytes: 256 * 1024,
                spare_chunks: 4,
                ..HpbdConfig::default()
            })
            .servers(2)
            .per_server_capacity(1 << 20)
            .build(&engine, cal);
        let buf = new_buffer(4096);
        buf.borrow_mut().fill(0x11);
        cluster
            .client
            .submit(IoRequest::single(Bio::new(IoOp::Write, 0, buf, |r| {
                r.unwrap()
            })));
        engine.run_until_idle();
        // Revoke, and immediately (same instant) write to the migrating
        // chunk: the write must defer behind the migration and then apply.
        cluster.servers[0].revoke(0, 256 * 1024);
        // Let the notice arrive and the migration start.
        engine.advance(simcore::SimDuration::from_micros(200));
        let buf = new_buffer(4096);
        buf.borrow_mut().fill(0x22);
        cluster
            .client
            .submit(IoRequest::single(Bio::new(IoOp::Write, 0, buf, |r| {
                r.unwrap()
            })));
        engine.run_until_idle();
        let cs = cluster.client.stats();
        assert!(cs.deferred_requests >= 1, "write should have deferred");
        // The deferred write must have won (it is the latest).
        let buf = new_buffer(4096);
        cluster.client.submit(IoRequest::single(Bio::new(
            IoOp::Read,
            0,
            buf.clone(),
            |r| r.unwrap(),
        )));
        engine.run_until_idle();
        assert!(buf.borrow().iter().all(|&b| b == 0x22));
    }

    /// A write to a chunk is on its way — issued, but not yet queued or
    /// posted — when the chunk's revocation lands: the migration must wait
    /// for it, or its read overtakes the write, which then lands on the old
    /// home and is lost. `blockers` 128 KiB writes to the other server fill
    /// the pool first, so 0 catches the write inside its staging copy and
    /// more catch it in the pool's wait queue.
    fn write_in_flight_when_revocation_lands(chunk: u64, pool: u64, blockers: u64) {
        const LEN: usize = 128 << 10;
        let engine = Engine::new();
        let cal = Rc::new(Calibration::cluster_2005());
        let cluster = ClusterBuilder::new()
            .config(HpbdConfig {
                chunk_bytes: chunk,
                spare_chunks: 4,
                pool_size: pool,
                ..HpbdConfig::default()
            })
            .servers(2)
            .per_server_capacity(1 << 20)
            .build(&engine, cal);
        let dev = &cluster.client;
        let write = |offset: u64, fill: u8| {
            let buf = new_buffer(LEN);
            buf.borrow_mut().fill(fill);
            dev.submit(IoRequest::single(Bio::new(IoOp::Write, offset, buf, |r| {
                r.unwrap()
            })));
        };
        write(0, 0x11);
        engine.run_until_idle();
        for i in 0..blockers {
            write((1 << 20) + i * LEN as u64, 0x33);
        }
        cluster.servers[0].revoke(0, chunk);
        write(0, 0x20);
        engine.run_until_idle();
        let cs = dev.stats();
        assert_eq!(cs.migrations, 1, "the revoked chunk moved");
        assert_eq!(
            cs.deferred_requests, 0,
            "the write was in before the notice"
        );
        assert_eq!(cs.pool_waits > 0, blockers > 0);
        // The migration must not have copied the chunk before the write in
        // flight reached it.
        assert_reads_back(&engine, dev, 0, LEN, 0x20);
    }

    #[test]
    fn migration_waits_for_a_write_inside_its_staging_copy() {
        write_in_flight_when_revocation_lands(128 << 10, 1 << 20, 0);
    }

    #[test]
    fn migration_waits_for_a_write_waiting_for_pool_space() {
        // One blocker holds all of the pool but a page; the write queues
        // for space, and the 4 KiB migration read queues right behind it —
        // granted in the same `free`, and posted 80 us ahead of the write.
        write_in_flight_when_revocation_lands(4096, (128 << 10) + 4096, 1);
    }

    #[test]
    fn read_ahead_of_a_write_in_flight_returns_the_old_bytes() {
        // The read's snapshot of the store is taken when the server serves
        // it, not when its bytes reach the bio buffer: a write of the first
        // page submitted right behind a 128 KiB read (served while the read
        // still pays its 80 us staging copy) must not show in it.
        let (engine, cluster) = cluster(1, 1 << 20);
        write_read_roundtrip(&engine, &cluster.client, 0, 128 << 10, 0x11);
        let rbuf = new_buffer(128 << 10);
        cluster.client.submit(IoRequest::single(Bio::new(
            IoOp::Read,
            0,
            rbuf.clone(),
            |r| r.unwrap(),
        )));
        let wbuf = new_buffer(4096);
        wbuf.borrow_mut().fill(0x22);
        cluster
            .client
            .submit(IoRequest::single(Bio::new(IoOp::Write, 0, wbuf, |r| {
                r.unwrap()
            })));
        engine.run_until_idle();
        assert!(rbuf.borrow().iter().all(|&b| b == 0x11));
        assert_reads_back(&engine, &cluster.client, 0, 4096, 0x22);
    }

    #[test]
    fn revocation_of_untouched_range_is_cheap() {
        let engine = Engine::new();
        let cal = Rc::new(Calibration::cluster_2005());
        let cluster = ClusterBuilder::new()
            .config(HpbdConfig {
                chunk_bytes: 256 * 1024,
                spare_chunks: 2,
                ..HpbdConfig::default()
            })
            .servers(2)
            .per_server_capacity(1 << 20)
            .build(&engine, cal);
        // Nothing was ever written; revoking still migrates the (zeroed)
        // chunk — and data reads back as zeros.
        cluster.servers[0].revoke(512 * 1024, 256 * 1024);
        engine.run_until_idle();
        assert_eq!(cluster.client.stats().migrations, 1);
        let buf = new_buffer(4096);
        cluster.client.submit(IoRequest::single(Bio::new(
            IoOp::Read,
            512 * 1024,
            buf.clone(),
            |r| r.unwrap(),
        )));
        engine.run_until_idle();
        assert!(buf.borrow().iter().all(|&b| b == 0));
    }

    #[test]
    fn empty_fault_plan_installs_no_fault_state() {
        let (_, cluster) = cluster(2, 1 << 20);
        assert!(
            cluster.links.is_empty(),
            "an unfaulted cluster must carry no link-fault handles"
        );
    }

    #[test]
    fn fault_plan_crash_fails_over_on_schedule() {
        let engine = Engine::new();
        let cal = Rc::new(Calibration::cluster_2005());
        let cluster = ClusterBuilder::new()
            .config(HpbdConfig {
                mirror_writes: true,
                request_timeout_ns: Some(5_000_000),
                ..HpbdConfig::default()
            })
            .servers(2)
            .per_server_capacity(1 << 20)
            .fault_plan(FaultPlan::new().server_crash(50_000_000, 0))
            .build(&engine, cal);
        assert_eq!(cluster.links.len(), 2, "fault handles armed per link");
        // Mirrored write before the crash instant.
        let wbuf = new_buffer(4096);
        wbuf.borrow_mut().fill(0x5A);
        cluster
            .client
            .submit(IoRequest::single(Bio::new(IoOp::Write, 0, wbuf, |r| {
                r.unwrap()
            })));
        // Draining the queue also fires the scheduled crash (virtual time
        // runs in order: the write at t≈0 completes long before t=50ms).
        engine.run_until_idle();
        assert!(cluster.servers[0].is_crashed(), "plan crashed server 0");
        let rbuf = new_buffer(4096);
        cluster.client.submit(IoRequest::single(Bio::new(
            IoOp::Read,
            0,
            rbuf.clone(),
            |r| r.unwrap(),
        )));
        engine.run_until_idle();
        assert!(rbuf.borrow().iter().all(|&b| b == 0x5A));
        assert!(cluster.client.stats().failovers >= 1);
        assert_eq!(
            cluster.client.health(),
            blockdev::DeviceHealth::Degraded { failed_servers: 1 }
        );
    }

    /// Virtual time a 128 KiB write takes on a one-server cluster armed
    /// with `plan`, whose faults all fire before the write is submitted.
    fn write_ns_under(plan: FaultPlan) -> u64 {
        let engine = Engine::new();
        let cluster = ClusterBuilder::new()
            .servers(1)
            .per_server_capacity(1 << 20)
            .fault_plan(plan)
            .build(&engine, Rc::new(Calibration::cluster_2005()));
        engine.run_until_idle();
        let start = engine.now();
        let done = Rc::new(Cell::new(None));
        {
            let (done, eng) = (done.clone(), engine.clone());
            let buf = new_buffer(128 * 1024);
            cluster
                .client
                .submit(IoRequest::single(Bio::new(IoOp::Write, 0, buf, move |r| {
                    r.unwrap();
                    done.set(Some(eng.now()));
                })));
        }
        engine.run_until_idle();
        (done.get().expect("write completed") - start).as_nanos()
    }

    #[test]
    fn a_degraded_link_slows_a_write_until_it_is_healed() {
        let healthy = write_ns_under(FaultPlan::new());
        let latency = write_ns_under(FaultPlan::new().link_degrade(0, 0, 20_000, 1.0));
        assert!(
            latency >= healthy + 20_000,
            "+20 µs per crossing: {latency} ns vs healthy {healthy} ns"
        );
        let bandwidth = write_ns_under(FaultPlan::new().link_degrade(0, 0, 0, 0.5));
        assert!(
            bandwidth > healthy,
            "half bandwidth: {bandwidth} ns vs healthy {healthy} ns"
        );
        let healed = FaultPlan::new()
            .link_degrade(0, 0, 20_000, 0.5)
            .link_degrade(0, 0, 0, 1.0);
        assert_eq!(
            write_ns_under(healed),
            healthy,
            "a degrade reverted to (0, 1.0) is the healthy link"
        );
    }

    #[test]
    fn fault_plan_validates_server_indices() {
        let engine = Engine::new();
        let cal = Rc::new(Calibration::cluster_2005());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ClusterBuilder::new()
                .servers(2)
                .per_server_capacity(1 << 20)
                .fault_plan(FaultPlan::new().server_crash(1_000, 7))
                .build(&engine, cal);
        }));
        assert!(
            result.is_err(),
            "plan naming server 7 of 2 must be rejected"
        );
    }

    #[test]
    fn restarted_server_is_detected_as_amnesiac() {
        let (engine, cluster) = cluster(1, 1 << 20);
        // Store a page, then crash + restart with no traffic in flight
        // (the client never marks the server dead, so without epochs it
        // would keep talking to the amnesiac as if nothing happened).
        write_read_roundtrip(&engine, &cluster.client, 0, 4096, 0x42);
        cluster.servers[0].crash();
        engine.advance(simcore::SimDuration::from_millis(1));
        cluster.servers[0].restart();
        engine.run_until_idle();
        assert!(!cluster.servers[0].is_crashed());
        // The daemon answers again, but its replies carry a bumped
        // generation (DESIGN.md §13): the client must refuse the
        // stale-empty read instead of handing back zeros where 0x42 used
        // to live. With no mirror to fail over to, the I/O errors out.
        let failed = Rc::new(Cell::new(false));
        let rbuf = new_buffer(4096);
        rbuf.borrow_mut().fill(0xFF);
        {
            let failed = failed.clone();
            cluster.client.submit(IoRequest::single(Bio::new(
                IoOp::Read,
                0,
                rbuf.clone(),
                move |r| {
                    assert!(r.is_err(), "a stale-empty read must not succeed");
                    failed.set(true);
                },
            )));
        }
        engine.run_until_idle();
        assert!(failed.get(), "read completed (with an error)");
        assert!(
            rbuf.borrow().iter().all(|&b| b == 0xFF),
            "the buffer must not be overwritten with stale zeros"
        );
        assert_eq!(cluster.client.stats().epoch_wipes, 1);
        assert_eq!(
            cluster.client.health(),
            blockdev::DeviceHealth::Failed,
            "the sole server is retired once its wipe is detected"
        );
    }

    #[test]
    fn retries_recover_from_brief_unreachability() {
        // Drop the next 2 requests on the link; with retries configured the
        // I/O must still complete against the SAME server — no failover,
        // no mirroring needed.
        let engine = Engine::new();
        let cal = Rc::new(Calibration::cluster_2005());
        let cluster = ClusterBuilder::new()
            .config(HpbdConfig {
                request_timeout_ns: Some(2_000_000),
                max_retries: 3,
                ..HpbdConfig::default()
            })
            .servers(1)
            .per_server_capacity(1 << 20)
            .fault_plan(FaultPlan::new().message_loss(0, 0, 2))
            .build(&engine, cal);
        let done = Rc::new(Cell::new(false));
        {
            let done = done.clone();
            let buf = new_buffer(4096);
            buf.borrow_mut().fill(0x33);
            cluster
                .client
                .submit(IoRequest::single(Bio::new(IoOp::Write, 0, buf, move |r| {
                    r.unwrap();
                    done.set(true);
                })));
        }
        engine.run_until_idle();
        assert!(done.get(), "retry must push the write through");
        let stats = cluster.client.stats();
        assert!(stats.retries >= 1, "the dropped sends must be retried");
        assert_eq!(stats.failovers, 0, "no replica involved");
        assert_eq!(
            cluster.client.health(),
            blockdev::DeviceHealth::Healthy,
            "retries kept the server alive"
        );
        write_read_roundtrip(&engine, &cluster.client, 0, 4096, 0x44);
    }

    #[test]
    fn write_latency_is_microseconds_not_milliseconds() {
        // A single 4K swap-out over HPBD should cost on the order of tens
        // of microseconds (Figure 1 scale), far below a disk access.
        let (engine, cluster) = cluster(1, 8 << 20);
        let t0 = engine.now();
        let wbuf = new_buffer(4096);
        cluster
            .client
            .submit(IoRequest::single(Bio::new(IoOp::Write, 0, wbuf, |r| {
                r.unwrap()
            })));
        engine.run_until_idle();
        let elapsed = engine.now() - t0;
        assert!(
            elapsed.as_nanos() < 200_000,
            "4K HPBD write took {elapsed}, expected tens of microseconds"
        );
        assert!(elapsed.as_nanos() > 10_000, "but not free: {elapsed}");
    }
}
