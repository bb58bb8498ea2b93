//! `simlint --self-test`: runs the lexer plus every rule against embedded
//! positive/negative fixture snippets, so the analyzer checks itself
//! before it is trusted to gate CI. Each fixture is fed through the
//! exact production pipeline — including pass 1, so single-file
//! fixtures see a one-file workspace index and multi-file fixtures
//! exercise the linking pass itself.

use crate::config::Config;
use crate::index::WorkspaceIndex;
use crate::rules::{check_file, FileCtx, RULES};
use std::collections::BTreeSet;

struct Fixture {
    rule: &'static str,
    name: &'static str,
    path: &'static str,
    src: &'static str,
    /// Expected finding count for `rule` on this snippet.
    expect: usize,
}

/// A fixture whose finding depends on the linking pass seeing several
/// files at once: the expectation is the total for `rule` across all of
/// them.
struct MultiFixture {
    rule: &'static str,
    name: &'static str,
    files: &'static [(&'static str, &'static str)],
    expect: usize,
}

const FIXTURES: &[Fixture] = &[
    // ---- D001 ----
    Fixture {
        rule: "D001",
        name: "instant-import",
        path: "crates/x/src/a.rs",
        src: "use std::time::Instant;\nfn f() { let t = Instant::now(); }\n",
        expect: 2,
    },
    Fixture {
        rule: "D001",
        name: "group-import",
        path: "crates/x/src/a.rs",
        src: "use std::time::{Duration, SystemTime};\n",
        expect: 1,
    },
    Fixture {
        rule: "D001",
        name: "duration-and-eventkind-clean",
        path: "crates/x/src/a.rs",
        src: "use std::time::Duration;\nfn f(k: EventKind) -> bool { matches!(k, EventKind::Instant) }\n",
        expect: 0,
    },
    // ---- D002 ----
    Fixture {
        rule: "D002",
        name: "hashmap-field",
        path: "crates/x/src/a.rs",
        src: "use std::collections::HashMap;\nstruct S { m: HashMap<u32, u32> }\n",
        expect: 2,
    },
    Fixture {
        rule: "D002",
        name: "btreemap-clean-and-tests-exempt",
        path: "crates/x/src/a.rs",
        src: "use std::collections::BTreeMap;\n#[cfg(test)]\nmod tests { use std::collections::HashSet; }\n",
        expect: 0,
    },
    // ---- D003 ----
    Fixture {
        rule: "D003",
        name: "thread-rng",
        path: "crates/x/src/a.rs",
        src: "fn f() { let mut r = rand::thread_rng(); }\n",
        expect: 1,
    },
    Fixture {
        rule: "D003",
        name: "simrng-clean",
        path: "crates/x/src/a.rs",
        src: "fn f() { let mut r = SimRng::new(42); }\n",
        expect: 0,
    },
    // ---- D004 ----
    Fixture {
        rule: "D004",
        name: "thread-spawn",
        path: "crates/x/src/a.rs",
        src: "fn f() { std::thread::spawn(|| {}); }\n",
        expect: 1,
    },
    Fixture {
        rule: "D004",
        name: "spawn-in-tests-exempt",
        path: "crates/x/src/a.rs",
        src: "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { std::thread::scope(|s| {}); }\n}\n",
        expect: 0,
    },
    // ---- I001 ----
    Fixture {
        rule: "I001",
        name: "unwrap-and-expect",
        path: "crates/hpbd/src/client.rs",
        src: "fn f(x: Option<u32>) -> u32 { x.unwrap() + x.expect(\"set\") }\n",
        expect: 2,
    },
    Fixture {
        rule: "I001",
        name: "unwrap-or-clean",
        path: "crates/hpbd/src/client.rs",
        src: "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) + x.unwrap_or_default() }\n",
        expect: 0,
    },
    Fixture {
        rule: "I001",
        name: "string-literal-clean",
        path: "crates/hpbd/src/client.rs",
        src: "const HELP: &str = \"call .unwrap() at your peril\";\n",
        expect: 0,
    },
    // ---- I003 ----
    Fixture {
        rule: "I003",
        name: "missing-forbid",
        path: "crates/x/src/lib.rs",
        src: "//! A crate.\npub mod a;\n",
        expect: 1,
    },
    Fixture {
        rule: "I003",
        name: "forbid-present",
        path: "crates/x/src/lib.rs",
        src: "//! A crate.\n#![forbid(unsafe_code)]\npub mod a;\n",
        expect: 0,
    },
    // ---- A002 ----
    Fixture {
        rule: "A002",
        name: "pub-wire-field",
        path: "crates/hpbd/src/proto.rs",
        src: "pub struct PageRequest { pub req_id: u64, len: u32 }\n",
        expect: 1,
    },
    Fixture {
        rule: "A002",
        name: "sealed-struct-clean",
        path: "crates/hpbd/src/proto.rs",
        src: "pub struct PageRequest { req_id: u64, len: u32 }\nimpl PageRequest { pub fn req_id(&self) -> u64 { self.req_id } }\n",
        expect: 0,
    },
    // ---- A003 ----
    Fixture {
        rule: "A003",
        name: "raw-post-send",
        path: "crates/x/src/a.rs",
        src: "fn f(qp: &QueuePair, wr: WorkRequest) { qp.post_send(wr).ok(); }\n",
        expect: 1,
    },
    Fixture {
        rule: "A003",
        name: "wrchain-clean",
        path: "crates/x/src/a.rs",
        src: "fn f(qp: &Qp, wr: WorkRequest) { let mut c = qp.chain(); c.push(wr); c.post().ok(); }\n",
        expect: 0,
    },
    Fixture {
        rule: "A003",
        name: "post-recv-clean",
        path: "crates/x/src/a.rs",
        src: "fn f(qp: &Qp, s: Slice) { qp.post_recv(1, s).ok(); }\n",
        expect: 0,
    },
    // ---- A004 ----
    Fixture {
        rule: "A004",
        name: "raw-queue-in-vmsim",
        path: "crates/vmsim/src/vm.rs",
        src: "fn f(q: Rc<RequestQueue>) { q.flush(); }\n",
        expect: 1,
    },
    Fixture {
        rule: "A004",
        name: "adapter-is-exempt",
        path: "crates/vmsim/src/backend.rs",
        src: "pub struct BlockBackend { queue: Rc<RequestQueue> }\n",
        expect: 0,
    },
    Fixture {
        rule: "A004",
        name: "outside-vmsim-is-fine",
        path: "crates/workloads/src/scenario.rs",
        src: "fn f(q: Rc<RequestQueue>) { q.flush(); }\n",
        expect: 0,
    },
    Fixture {
        rule: "A004",
        name: "vmsim-tests-are-covered-too",
        path: "crates/vmsim/src/paged.rs",
        src: "#[cfg(test)]\nmod tests { fn f() { let q = RequestQueue::new(); } }\n",
        expect: 1,
    },
    // ---- W000 ----
    Fixture {
        rule: "W000",
        name: "missing-justification",
        path: "crates/x/src/a.rs",
        src: "// simlint: allow(I001)\nfn f(x: Option<u32>) { x.unwrap(); }\n",
        expect: 1,
    },
    Fixture {
        rule: "W000",
        name: "justified-clean",
        path: "crates/x/src/a.rs",
        src: "// simlint: allow(I001): init-time invariant, cannot fail\nfn f(x: Option<u32>) { x.unwrap(); }\n",
        expect: 0,
    },
    // ---- W002 ----
    Fixture {
        rule: "W002",
        name: "typoed-rule-id",
        path: "crates/x/src/a.rs",
        src: "// simlint: allow(I0O1): plausible-looking typo for I001\nfn f(x: Option<u32>) { x.unwrap(); }\n",
        expect: 1,
    },
    Fixture {
        rule: "W002",
        name: "known-rule-clean",
        path: "crates/x/src/a.rs",
        src: "// simlint: allow(I001): boot-time invariant\nfn f(x: Option<u32>) { x.unwrap(); }\n",
        expect: 0,
    },
];

/// Linked-rule fixtures: each finding (or its absence) requires the
/// pass-1 index to have seen every file in the set.
const MULTI_FIXTURES: &[MultiFixture] = &[
    // ---- D005 ----
    MultiFixture {
        rule: "D005",
        name: "duration-meets-virtual-clock",
        files: &[
            (
                "crates/x/src/wall.rs",
                "fn f(ms: u64) -> u64 { core::time::Duration::from_millis(ms).as_nanos() as u64 }\n",
            ),
            ("crates/x/src/clock.rs", "fn g(e: &Engine) { e.schedule_in(1); }\n"),
        ],
        expect: 1,
    },
    MultiFixture {
        rule: "D005",
        name: "no-virtual-clock-no-finding",
        files: &[(
            "crates/x/src/wall.rs",
            "fn f(ms: u64) -> u64 { core::time::Duration::from_millis(ms).as_nanos() as u64 }\n",
        )],
        expect: 0,
    },
    MultiFixture {
        rule: "D005",
        name: "test-code-exempt",
        files: &[
            (
                "crates/x/src/wall.rs",
                "#[cfg(test)]\nmod tests { use std::time::Duration; }\n",
            ),
            ("crates/x/src/clock.rs", "fn g(e: &Engine) { e.schedule_in(1); }\n"),
        ],
        expect: 0,
    },
    // ---- A005 ----
    MultiFixture {
        rule: "A005",
        name: "missing-debug-and-dead-knob",
        files: &[
            (
                "crates/x/src/config.rs",
                "#[derive(Clone)]\npub struct PoolConfig { depth: u32, width: u32 }\n",
            ),
            ("crates/x/src/user.rs", "fn f(c: &PoolConfig) -> u32 { c.depth }\n"),
        ],
        expect: 2,
    },
    MultiFixture {
        rule: "A005",
        name: "clean-config",
        files: &[
            (
                "crates/x/src/config.rs",
                "#[derive(Clone, Debug)]\npub struct PoolConfig { depth: u32 }\n",
            ),
            ("crates/x/src/user.rs", "fn f(c: &PoolConfig) -> u32 { c.depth }\n"),
        ],
        expect: 0,
    },
    MultiFixture {
        rule: "A005",
        name: "mutable-static-config",
        files: &[
            (
                "crates/x/src/config.rs",
                "#[derive(Clone, Debug)]\npub struct PoolConfig { depth: u32 }\nstatic mut ACTIVE: Option<PoolConfig> = None;\n",
            ),
            ("crates/x/src/user.rs", "fn f(c: &PoolConfig) -> u32 { c.depth }\n"),
        ],
        expect: 1,
    },
    // ---- X001 ----
    MultiFixture {
        rule: "X001",
        name: "encode-without-roundtrip",
        files: &[
            (
                "crates/x/src/proto.rs",
                "pub struct Frame { a: u32 }\nimpl Frame { pub fn encode(&self, out: &mut Vec<u8>) { out.push(1); } }\n",
            ),
            ("crates/x/src/other.rs", "fn noop() {}\n"),
        ],
        expect: 1,
    },
    MultiFixture {
        rule: "X001",
        name: "roundtrip-in-another-file",
        files: &[
            (
                "crates/x/src/proto.rs",
                "pub struct Frame { a: u32 }\nimpl Frame { pub fn encode(&self, out: &mut Vec<u8>) { out.push(1); } }\n",
            ),
            (
                "crates/x/src/other.rs",
                "#[cfg(test)]\nmod tests {\n    #[test]\n    fn rt() { let f = Frame::decode(&[1u8]); }\n}\n",
            ),
        ],
        expect: 0,
    },
    // ---- X002 ----
    MultiFixture {
        rule: "X002",
        name: "submission-without-reap",
        files: &[(
            "crates/x/src/vm.rs",
            "fn pump(backend: &mut dyn SwapBackend, f: Frame) { backend.store(1, 2, f); }\n",
        )],
        expect: 1,
    },
    MultiFixture {
        rule: "X002",
        name: "reap-loop-elsewhere-in-crate",
        files: &[
            (
                "crates/x/src/vm.rs",
                "fn pump(backend: &mut dyn SwapBackend, f: Frame) { backend.store(1, 2, f); }\n",
            ),
            (
                "crates/x/src/pump.rs",
                "fn drain(backend: &mut dyn SwapBackend, done: &mut Vec<PageDone>) { while backend.reap(done) > 0 {} }\n",
            ),
        ],
        expect: 0,
    },
    MultiFixture {
        rule: "X002",
        name: "chain-never-posted",
        files: &[(
            "crates/x/src/send.rs",
            "fn f(qp: &Qp, wr: Wr) { let mut c = qp.chain(); c.push(wr); }\n",
        )],
        expect: 1,
    },
    MultiFixture {
        rule: "X002",
        name: "chain-posted-locally",
        files: &[(
            "crates/x/src/send.rs",
            "fn f(qp: &Qp, wr: Wr) { let mut c = qp.chain(); c.push(wr); c.post().ok(); }\n",
        )],
        expect: 0,
    },
    MultiFixture {
        rule: "X002",
        name: "escaping-chain-no-crate-post",
        files: &[("crates/x/src/build.rs", "fn build(qp: &Qp) -> WrChain { qp.chain() }\n")],
        expect: 1,
    },
    MultiFixture {
        rule: "X002",
        name: "escaping-chain-posted-elsewhere",
        files: &[
            ("crates/x/src/build.rs", "fn build(qp: &Qp) -> WrChain { qp.chain() }\n"),
            ("crates/x/src/send.rs", "fn send(c: WrChain) { c.post().ok(); }\n"),
        ],
        expect: 0,
    },
    // ---- X003 ----
    MultiFixture {
        rule: "X003",
        name: "dead-metric",
        files: &[(
            "crates/x/src/metrics.rs",
            "fn setup(m: &Metrics) { let ctr = m.counter_handle(\"x.requests\"); }\n",
        )],
        expect: 1,
    },
    MultiFixture {
        rule: "X003",
        name: "handle-used-in-another-file",
        files: &[
            (
                "crates/x/src/metrics.rs",
                "fn setup(m: &Metrics) { let ctr = m.counter_handle(\"x.requests\"); }\n",
            ),
            ("crates/x/src/hot.rs", "fn hot(s: &State) { s.ctr.inc(1); }\n"),
        ],
        expect: 0,
    },
    MultiFixture {
        rule: "X003",
        name: "phantom-counter-read",
        files: &[(
            "crates/x/src/report.rs",
            "fn total(m: &Metrics) -> u64 { m.counter(\"x.acks\") }\n",
        )],
        expect: 1,
    },
    MultiFixture {
        rule: "X003",
        name: "read-with-direct-emit",
        files: &[
            (
                "crates/x/src/report.rs",
                "fn total(m: &Metrics) -> u64 { m.counter(\"x.acks\") }\n",
            ),
            ("crates/x/src/hot.rs", "fn tick(m: &Metrics) { m.inc(\"x.acks\", 1); }\n"),
        ],
        expect: 0,
    },
];

/// Run the embedded fixtures; returns (passed, failed, distinct rule ids
/// exercised) and prints one line per fixture.
pub fn run() -> (usize, usize, usize) {
    let config = Config::builtin();
    let mut passed = 0usize;
    let mut failed = 0usize;
    let mut rules_seen: BTreeSet<&'static str> = BTreeSet::new();
    for fx in FIXTURES {
        let ctx = FileCtx::new(fx.path, fx.src);
        let index = WorkspaceIndex::build(std::slice::from_ref(&ctx));
        let mut ctx = ctx;
        let findings = check_file(&mut ctx, &config, Some(fx.rule), Some(&index));
        let got = findings.iter().filter(|f| f.rule == fx.rule).count();
        let ok = got == fx.expect;
        if ok {
            passed += 1;
            rules_seen.insert(fx.rule);
        } else {
            failed += 1;
        }
        println!(
            "self-test {} {}/{}: expected {} finding(s), got {}",
            if ok { "ok  " } else { "FAIL" },
            fx.rule,
            fx.name,
            fx.expect,
            got
        );
    }
    // Linked-rule fixtures: index over the whole file set, then lint
    // each file against it.
    for fx in MULTI_FIXTURES {
        let ctxs: Vec<FileCtx> = fx.files.iter().map(|(p, s)| FileCtx::new(p, s)).collect();
        let index = WorkspaceIndex::build(&ctxs);
        let mut ctxs = ctxs;
        let mut got = 0usize;
        for ctx in &mut ctxs {
            got += check_file(ctx, &config, Some(fx.rule), Some(&index))
                .iter()
                .filter(|f| f.rule == fx.rule)
                .count();
        }
        let ok = got == fx.expect;
        if ok {
            passed += 1;
            rules_seen.insert(fx.rule);
        } else {
            failed += 1;
        }
        println!(
            "self-test {} {}/{} ({} files): expected {} finding(s), got {}",
            if ok { "ok  " } else { "FAIL" },
            fx.rule,
            fx.name,
            fx.files.len(),
            fx.expect,
            got
        );
    }
    // W001 exercises the full (un-restricted) pipeline, so run it directly.
    {
        let mut ctx = FileCtx::new(
            "crates/x/src/a.rs",
            "// simlint: allow(D003): nothing random here\nfn f() { ok(); }\n",
        );
        let findings = check_file(&mut ctx, &config, None, None);
        let got = findings.iter().filter(|f| f.rule == "W001").count();
        let ok = got == 1;
        if ok {
            passed += 1;
            rules_seen.insert("W001");
        } else {
            failed += 1;
        }
        println!(
            "self-test {} W001/stale-waiver: expected 1 finding(s), got {}",
            if ok { "ok  " } else { "FAIL" },
            got
        );
    }
    let known: BTreeSet<&str> = RULES.iter().map(|r| r.id).collect();
    for r in &rules_seen {
        debug_assert!(known.contains(r), "fixture references unknown rule {r}");
    }
    println!(
        "self-test: {passed} passed, {failed} failed, {} distinct rules exercised",
        rules_seen.len()
    );
    (passed, failed, rules_seen.len())
}

#[cfg(test)]
mod tests {
    #[test]
    fn all_fixtures_pass() {
        let (_, failed, rules) = super::run();
        assert_eq!(failed, 0);
        assert!(rules >= 16, "only {rules} rules exercised");
    }
}
