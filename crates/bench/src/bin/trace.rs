//! Swap-trace tooling: record a workload's block traffic, replay it
//! against any device.
//!
//! ```text
//! # record quicksort's swap traffic (HPBD machine) into a trace file
//! cargo run --release -p bench --bin trace -- record /tmp/qsort.trace --scale 64
//! # replay it against every device, open- and closed-loop
//! cargo run --release -p bench --bin trace -- replay /tmp/qsort.trace
//! ```
use bench::CommonArgs;
use blockdev::trace::{replay_closed_loop, replay_open_loop};
use blockdev::{SimDisk, SwapTrace};
use netmodel::{Calibration, Node, Transport};
use simcore::Engine;
use std::rc::Rc;
use workloads::{Scenario, ScenarioConfig, SwapKind};

fn record(path: &str, args: &CommonArgs) {
    let local = args.scaled_bytes(512 << 20);
    let swap = args.scaled_bytes(1 << 30);
    let elements = args.scaled_elems(256 << 20);
    let config = ScenarioConfig::new(local, swap, SwapKind::Hpbd { servers: 1 });
    let scenario = Scenario::build(&config);
    let report = scenario.run_qsort(elements, args.seed);
    let log = scenario.dispatch_log().expect("swap queue");
    let trace = SwapTrace::from_dispatch_log(&log.borrow());
    std::fs::write(path, trace.to_text()).expect("write trace file");
    let (r, w) = trace.bytes();
    println!(
        "recorded {} events ({} read MiB, {} write MiB) from a {:.3}s quicksort run -> {path}",
        trace.events.len(),
        r >> 20,
        w >> 20,
        report.elapsed.as_secs_f64()
    );
}

fn replay(path: &str, args: &CommonArgs) {
    let text = std::fs::read_to_string(path).expect("read trace file");
    let trace = SwapTrace::from_text(&text).expect("parse trace");
    println!(
        "replaying {} events against each device (closed-loop)\n",
        trace.events.len()
    );
    println!(
        "{:<12} {:>12} {:>14} {:>14}",
        "device", "makespan(s)", "mean lat(us)", "max lat(us)"
    );
    let cal = Rc::new(Calibration::cluster_2005());
    let capacity = args.scaled_bytes(1 << 30) + (128 << 20);

    // HPBD (2 servers).
    {
        let engine = Engine::new();
        let cluster = hpbd::ClusterBuilder::new()
            .servers(2)
            .per_server_capacity(capacity / 2)
            .build(&engine, cal.clone());
        let report = replay_closed_loop(&engine, Rc::new(cluster.client.clone()), &trace);
        print_row("HPBD-2", &report);
    }
    // NBD over both transports.
    for (label, transport) in [
        ("NBD-IPoIB", Transport::IpoIb),
        ("NBD-GigE", Transport::GigE),
    ] {
        let engine = Engine::new();
        let node = Node::new("client", 0, 2);
        let dev = nbd::build_pair(&engine, cal.clone(), transport, &node, capacity);
        let report = replay_closed_loop(&engine, Rc::new(dev), &trace);
        print_row(label, &report);
    }
    // Disk closed-loop, then raw-vs-elevator under open-loop arrivals
    // (open loop builds a queue, which is what the elevator exists to
    // reorder; both rows are swamped by queueing — compare them to each
    // other, not to the closed-loop rows).
    {
        let engine = Engine::new();
        let disk = Rc::new(SimDisk::new(
            engine.clone(),
            cal.disk.clone(),
            capacity,
            "hda",
        ));
        let report = replay_closed_loop(&engine, disk, &trace);
        print_row("disk", &report);
    }
    println!();
    for (label, use_elevator) in [("disk open*", false), ("disk+cscan*", true)] {
        let engine = Engine::new();
        let disk = Rc::new(SimDisk::new(
            engine.clone(),
            cal.disk.clone(),
            capacity,
            "hda",
        ));
        let report = if use_elevator {
            let elevator = Rc::new(blockdev::Elevator::new(disk, 1));
            replay_open_loop(&engine, elevator, &trace)
        } else {
            replay_open_loop(&engine, disk, &trace)
        };
        print_row(label, &report);
    }
    println!("\n(*open-loop arrivals at the recorded HPBD-speed timestamps: the disk");
    println!(" queues heavily. Note the two-edged sword: C-SCAN helps streams in");
    println!(" disjoint regions — see blockdev::elevator tests — but on a swap trace");
    println!(" whose read and write runs share a region, globally sorting by offset");
    println!(" can BREAK the bursts' natural contiguity; this is why real kernels");
    println!(" moved to anticipatory/deadline schedulers.)");
}

fn print_row(label: &str, report: &blockdev::ReplayReport) {
    println!(
        "{:<12} {:>12.3} {:>14.1} {:>14.1}",
        label,
        report.makespan.as_secs_f64(),
        report.latency_us.mean(),
        report.latency_us.max().unwrap_or(0.0)
    );
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let mode = argv.next().unwrap_or_default();
    let path = argv.next().unwrap_or_else(|| "/tmp/hpbd.trace".to_string());
    let args = CommonArgs::parse_from(argv, &[]);
    match mode.as_str() {
        "record" => record(&path, &args),
        "replay" => replay(&path, &args),
        _ => {
            eprintln!("usage: trace record|replay <file> [--scale N] [--seed N]");
            std::process::exit(2);
        }
    }
}
