//! `simlint --self-test`: runs the lexer plus every rule against embedded
//! positive/negative fixture snippets, so the analyzer checks itself
//! before it is trusted to gate CI. Each fixture is fed through the
//! exact production pipeline.

use crate::config::Config;
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
    // ---- X001 ----
    Fixture {
        rule: "X001",
        name: "encode-without-roundtrip",
        path: "crates/x/src/proto.rs",
        src: "pub struct Frame { a: u32 }\nimpl Frame { pub fn encode(&self, out: &mut Vec<u8>) { out.push(1); } }\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn other() { let r = Reply::decode(&[1u8]); }\n}\n",
        expect: 1,
    },
    Fixture {
        rule: "X001",
        name: "roundtrip-in-the-same-file",
        path: "crates/x/src/proto.rs",
        src: "pub struct Frame { a: u32 }\nimpl Frame { pub fn encode(&self, out: &mut Vec<u8>) { out.push(1); } }\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn rt() { let f = Frame::decode(&[1u8]); }\n}\n",
        expect: 0,
    },
    Fixture {
        rule: "X001",
        name: "non-test-decode-does-not-count",
        path: "crates/x/src/proto.rs",
        src: "impl<T> Wire for Frame<T> where T: Copy { fn to_wire(&self) -> Vec<u8> { Vec::new() } }\nfn dispatch(b: &[u8]) { let f = Frame::from_wire(b); }\n",
        expect: 1,
    },
];

/// Run the embedded fixtures, printing one line per fixture; true when
/// all pass and every rule in the catalog was exercised by one.
pub fn run() -> bool {
    let config = Config::builtin();
    let mut passed = 0usize;
    let mut failed = 0usize;
    let mut rules_seen: BTreeSet<&'static str> = BTreeSet::new();
    for fx in FIXTURES {
        let mut ctx = FileCtx::new(fx.path, fx.src);
        let findings = check_file(&mut ctx, &config, Some(fx.rule));
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
    // W001 exercises the full (un-restricted) pipeline, so run it directly.
    {
        let mut ctx = FileCtx::new(
            "crates/x/src/a.rs",
            "// simlint: allow(D003): nothing random here\nfn f() { ok(); }\n",
        );
        let findings = check_file(&mut ctx, &config, None);
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
    println!(
        "self-test: {passed} passed, {failed} failed, {} of {} rules exercised",
        rules_seen.len(),
        RULES.len()
    );
    // A rule added to the catalog without a fixture fails here.
    failed == 0 && RULES.iter().all(|r| rules_seen.contains(r.id))
}

#[cfg(test)]
mod tests {
    #[test]
    fn all_fixtures_pass() {
        assert!(super::run());
    }
}
