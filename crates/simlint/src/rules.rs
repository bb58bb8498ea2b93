//! The rule set and the token-pattern engine that drives it.
//!
//! Every rule sees one file at a time. Four families, mirroring the
//! determinism contract the differentials depend on (DESIGN.md §12):
//!
//! * **D-rules** — determinism: no wall-clock time sources, no
//!   iteration-order-sensitive containers in simulation crates, no ambient
//!   randomness, no OS threads outside the bench fan-out.
//! * **I-rules** — invariants: no `unwrap()`/`expect()` on protocol paths,
//!   `forbid(unsafe_code)` in every crate root.
//! * **A-rules** — API hygiene: no public fields on wire structs, no raw
//!   `post_send` outside ibsim, no raw `RequestQueue` inside vmsim.
//! * **X001** — every wire type with an `encode`/`to_wire` has a decode
//!   call in a test of the same file.
//!
//! Waivers are inline comments with a mandatory justification:
//! `// simlint: allow(I001): completion invariants keep the parent alive`.
//! A waiver covers its own line and the next line that carries code. The
//! meta-rules W000 (missing justification) and W001 (unused waiver) police
//! the waivers themselves and cannot be waived.

use crate::config::{Config, RulePolicy};
use crate::lexer::{lex, Tok, TokKind};

/// One diagnostic.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Rule id, e.g. `D001`.
    pub rule: &'static str,
    /// Repo-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human message.
    pub message: String,
    /// Waiver justification when the finding is covered by an allow
    /// comment (waived findings never fail the run).
    pub waived: Option<String>,
    /// Demoted to a warning by config (`severity = "warn"`).
    pub warning: bool,
}

/// Static description of a rule, for `--list-rules` and the self-test.
pub struct RuleInfo {
    /// Rule id.
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
}

/// Every rule the engine knows, in report order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo { id: "D001", summary: "no wall-clock time sources (std::time::{Instant,SystemTime})" },
    RuleInfo { id: "D002", summary: "no HashMap/HashSet in determinism-scoped code (iteration order feeds traces/scheduling)" },
    RuleInfo { id: "D003", summary: "no ambient randomness (thread_rng/from_entropy/OsRng) — use seeded SimRng" },
    RuleInfo { id: "D004", summary: "no std::thread spawn/scope outside the sanctioned fan-out site" },
    RuleInfo { id: "I001", summary: "no unwrap()/expect() on protocol paths — surface typed IoError/ProtoError" },
    RuleInfo { id: "I003", summary: "crate roots must carry #![forbid(unsafe_code)]" },
    RuleInfo { id: "A002", summary: "no pub fields on wire/protocol structs" },
    RuleInfo { id: "A003", summary: "no raw post_send outside ibsim — submit through the typed WrChain builder" },
    RuleInfo { id: "A004", summary: "no raw RequestQueue in vmsim outside the BlockBackend adapter — go through SwapBackend" },
    RuleInfo { id: "X001", summary: "every wire type with encode/to_wire needs a decode call in a test of the same file" },
    RuleInfo { id: "W000", summary: "waiver without a justification" },
    RuleInfo { id: "W001", summary: "waiver that matched no finding (stale)" },
    RuleInfo { id: "W002", summary: "waiver naming a rule id that does not exist (typo — the allow can never match)" },
];

/// An inline waiver comment.
#[derive(Debug)]
struct Waiver {
    rule: String,
    line: u32,
    /// First line after `line` that carries code (second covered line).
    next_code_line: u32,
    justification: String,
    used: bool,
}

/// Lexed file plus the derived per-token context rules need.
pub struct FileCtx {
    /// Repo-relative path with forward slashes.
    pub rel: String,
    toks: Vec<Tok>,
    /// Indices of non-comment tokens.
    code: Vec<usize>,
    /// Per-token: inside `#[cfg(test)]` / `#[test]` items or a `tests/`
    /// file.
    in_test: Vec<bool>,
    waivers: Vec<Waiver>,
}

impl FileCtx {
    /// Lex and annotate one file.
    pub fn new(rel: &str, src: &str) -> FileCtx {
        let toks = lex(src);
        let code: Vec<usize> = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_comment())
            .map(|(i, _)| i)
            .collect();
        let mut ctx = FileCtx {
            rel: rel.replace('\\', "/"),
            in_test: vec![false; toks.len()],
            waivers: Vec::new(),
            toks,
            code,
        };
        ctx.mark_test_regions();
        if ctx.path_is_test_file() {
            ctx.in_test.iter_mut().for_each(|f| *f = true);
        }
        ctx.collect_waivers();
        ctx
    }

    fn path_is_test_file(&self) -> bool {
        self.rel.split('/').any(|seg| seg == "tests")
    }

    /// Token (not code-index) accessor.
    fn tok(&self, code_idx: usize) -> &Tok {
        &self.toks[self.code[code_idx]]
    }

    fn ident_at(&self, code_idx: usize, name: &str) -> bool {
        code_idx < self.code.len() && self.tok(code_idx).is_ident(name)
    }

    fn punct_at(&self, code_idx: usize, c: char) -> bool {
        code_idx < self.code.len() && self.tok(code_idx).is_punct(c)
    }

    /// `a :: b` path-segment test: ident `a` at k, `::`, ident `b`.
    fn path2(&self, k: usize, a: &str, b: &str) -> bool {
        self.ident_at(k, a)
            && self.punct_at(k + 1, ':')
            && self.punct_at(k + 2, ':')
            && self.ident_at(k + 3, b)
    }

    fn in_test_at(&self, code_idx: usize) -> bool {
        self.in_test[self.code[code_idx]]
    }

    /// Mark the bodies of `#[cfg(test)]` / `#[test]` items.
    fn mark_test_regions(&mut self) {
        let mut k = 0usize;
        while k < self.code.len() {
            if self.is_test_attr(k) {
                // Skip this and any further attributes.
                let mut j = k;
                while self.punct_at(j, '#') {
                    j = self.skip_attr(j);
                }
                // Find the item body: `{ ... }` before any `;`.
                let mut body = None;
                let mut scan = j;
                while scan < self.code.len() {
                    let t = self.tok(scan);
                    if t.is_punct(';') {
                        break;
                    }
                    if t.is_punct('{') {
                        body = Some(scan);
                        break;
                    }
                    scan += 1;
                }
                if let Some(open) = body {
                    let close = self.matching_brace(open);
                    let (lo, hi) = (self.code[open], self.code[close.min(self.code.len() - 1)]);
                    for flag in &mut self.in_test[lo..=hi] {
                        *flag = true;
                    }
                    k = close + 1;
                    continue;
                }
                k = scan + 1;
                continue;
            }
            k += 1;
        }
    }

    /// Does an attribute starting at code index k (`#`) mean test code?
    fn is_test_attr(&self, k: usize) -> bool {
        if !(self.punct_at(k, '#') && self.punct_at(k + 1, '[')) {
            return false;
        }
        let end = self.skip_attr(k);
        // `#[test]`
        if self.ident_at(k + 2, "test") && self.punct_at(k + 3, ']') {
            return true;
        }
        // `#[cfg(...test...)]`
        if self.ident_at(k + 2, "cfg") {
            for j in k + 3..end {
                if self.ident_at(j, "test") {
                    return true;
                }
            }
        }
        false
    }

    /// Given code index of `#`, return the code index just past the
    /// closing `]`.
    fn skip_attr(&self, k: usize) -> usize {
        let mut j = k + 1;
        if !self.punct_at(j, '[') {
            return k + 1;
        }
        let mut depth = 0i32;
        while j < self.code.len() {
            let t = self.tok(j);
            if t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        j
    }

    /// Code index of the `}` matching the `{` at `open`.
    fn matching_brace(&self, open: usize) -> usize {
        let mut depth = 0i32;
        let mut j = open;
        while j < self.code.len() {
            let t = self.tok(j);
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            j += 1;
        }
        self.code.len().saturating_sub(1)
    }

    fn collect_waivers(&mut self) {
        let mut found: Vec<(String, u32, String)> = Vec::new();
        for t in &self.toks {
            if !t.is_comment() {
                continue;
            }
            // A waiver must be the whole comment: `// simlint: allow(...)`.
            // (Prose that merely mentions the syntax does not count.)
            let body = t
                .text
                .trim_start_matches('/')
                .trim_start_matches(['*', '!'])
                .trim_start();
            let Some(rest) = body.strip_prefix("simlint:") else {
                continue;
            };
            let rest = rest.trim_start();
            let Some(rest) = rest.strip_prefix("allow(") else {
                continue;
            };
            let Some(close) = rest.find(')') else {
                continue;
            };
            let rule = rest[..close].trim().to_string();
            let after = rest[close + 1..].trim_start();
            let justification = after
                .strip_prefix(':')
                .map(|j| j.trim().trim_end_matches("*/").trim().to_string())
                .unwrap_or_default();
            found.push((rule, t.line, justification));
        }
        for (rule, line, justification) in found {
            let next_code_line = self
                .code
                .iter()
                .map(|&i| self.toks[i].line)
                .find(|&l| l > line)
                .unwrap_or(line);
            self.waivers.push(Waiver {
                rule,
                line,
                next_code_line,
                justification,
                used: false,
            });
        }
    }

    /// Try to waive a finding; returns the justification if covered.
    fn try_waive(&mut self, rule: &str, line: u32) -> Option<String> {
        for w in &mut self.waivers {
            if w.rule == rule
                && !w.justification.is_empty()
                && (w.line == line || w.next_code_line == line)
            {
                w.used = true;
                return Some(w.justification.clone());
            }
        }
        None
    }
}

/// Is `rel` under any of the given repo-relative prefixes?
fn under_any(rel: &str, prefixes: &[String]) -> bool {
    prefixes.iter().any(|p| {
        let p = p.trim_end_matches('/');
        rel == p || rel.starts_with(&format!("{p}/"))
    })
}

/// Does the rule apply to this file at all, given its policy?
fn rule_applies(rel: &str, policy: &RulePolicy) -> bool {
    if policy.enabled == Some(false) {
        return false;
    }
    if under_any(rel, &policy.allow) {
        return false;
    }
    if !policy.paths.is_empty() && !under_any(rel, &policy.paths) {
        return false;
    }
    true
}

/// A004 built-in scope: vmsim sources, minus the one adapter that is
/// *supposed* to hold the queue. Hardcoded (not config `paths`) so the
/// self-test exercises the real scope and a missing `simlint.toml`
/// section cannot silently widen or disable it.
fn a004_in_scope(rel: &str) -> bool {
    rel.starts_with("crates/vmsim/") && rel != "crates/vmsim/src/backend.rs"
}

/// Crate-root check: `src/lib.rs` at the workspace root or in a crate.
fn is_crate_root(rel: &str) -> bool {
    let segs: Vec<&str> = rel.split('/').collect();
    matches!(segs.as_slice(), ["src", "lib.rs"])
        || matches!(segs.as_slice(), ["crates", _, "src", "lib.rs"])
}

/// Run every enabled rule over one file. `only` restricts to a single rule
/// id (used by the self-test); pass `None` for all.
pub fn check_file(ctx: &mut FileCtx, config: &Config, only: Option<&str>) -> Vec<Finding> {
    let mut out: Vec<Finding> = Vec::new();
    let enabled = |id: &str| only.map(|o| o == id).unwrap_or(true);
    let rel = ctx.rel.clone();

    let mut push = |ctx: &mut FileCtx, id: &'static str, line: u32, message: String| {
        let policy = config.rule(id);
        let waived = ctx.try_waive(id, line);
        out.push(Finding {
            rule: id,
            path: rel.clone(),
            line,
            message,
            waived,
            warning: policy.warn,
        });
    };

    // ---- token-pattern rules ------------------------------------------------
    for id in ["D001", "D002", "D003", "D004", "I001", "A003", "A004"] {
        if !enabled(id) || !rule_applies(&ctx.rel, &config.rule(id)) {
            continue;
        }
        let skip_tests = matches!(id, "D002" | "D004" | "I001");
        let n = ctx.code.len();
        for k in 0..n {
            if skip_tests && ctx.in_test_at(k) {
                continue;
            }
            let line = ctx.tok(k).line;
            match id {
                "D001" => {
                    // std::time::{Instant,SystemTime} — direct path or
                    // brace-group import.
                    if ctx.path2(k, "std", "time")
                        && ctx.punct_at(k + 4, ':')
                        && ctx.punct_at(k + 5, ':')
                    {
                        if ctx.ident_at(k + 6, "Instant") || ctx.ident_at(k + 6, "SystemTime") {
                            let name = ctx.tok(k + 6).text.clone();
                            push(ctx, "D001", line, format!("wall-clock time source `std::time::{name}` breaks run determinism (virtual SimTime only)"));
                        } else if ctx.punct_at(k + 6, '{') {
                            let close = ctx.matching_brace(k + 6);
                            for j in k + 7..close {
                                if ctx.ident_at(j, "Instant") || ctx.ident_at(j, "SystemTime") {
                                    let name = ctx.tok(j).text.clone();
                                    let l = ctx.tok(j).line;
                                    push(ctx, "D001", l, format!("wall-clock time source `std::time::{name}` breaks run determinism (virtual SimTime only)"));
                                }
                            }
                        }
                    }
                    // Instant::now() / SystemTime::now() after an import.
                    if (ctx.ident_at(k, "Instant") || ctx.ident_at(k, "SystemTime"))
                        && ctx.punct_at(k + 1, ':')
                        && ctx.punct_at(k + 2, ':')
                        && ctx.ident_at(k + 3, "now")
                        && !(k >= 2 && ctx.punct_at(k - 1, ':') && ctx.punct_at(k - 2, ':'))
                    {
                        let name = ctx.tok(k).text.clone();
                        push(ctx, "D001", line, format!("wall-clock call `{name}::now()` breaks run determinism (use Engine::now)"));
                    }
                }
                "D002" => {
                    if ctx.ident_at(k, "HashMap") || ctx.ident_at(k, "HashSet") {
                        let name = ctx.tok(k).text.clone();
                        push(ctx, "D002", line, format!("`{name}` iteration order is nondeterministic and this crate feeds trace emission/scheduling — use BTreeMap/BTreeSet or a Vec"));
                    }
                }
                "D003" => {
                    for bad in ["thread_rng", "from_entropy", "OsRng"] {
                        if ctx.ident_at(k, bad) {
                            push(ctx, "D003", line, format!("ambient randomness `{bad}` breaks seeded reproducibility — use simcore::SimRng"));
                        }
                    }
                }
                "D004" => {
                    if ctx.ident_at(k, "thread")
                        && ctx.punct_at(k + 1, ':')
                        && ctx.punct_at(k + 2, ':')
                        && (ctx.ident_at(k + 3, "spawn") || ctx.ident_at(k + 3, "scope"))
                    {
                        let what = ctx.tok(k + 3).text.clone();
                        push(ctx, "D004", line, format!("`thread::{what}` outside the sanctioned fan-out site (bench::runner) — simulation code is single-threaded by contract"));
                    }
                }
                "I001" => {
                    if k >= 1
                        && ctx.punct_at(k - 1, '.')
                        && (ctx.ident_at(k, "unwrap") || ctx.ident_at(k, "expect"))
                        && ctx.punct_at(k + 1, '(')
                    {
                        let what = ctx.tok(k).text.clone();
                        push(ctx, "I001", line, format!("`.{what}()` on a protocol path — convert to a typed ProtoError/IoError (or waive with a justification)"));
                    }
                }
                "A003" => {
                    if k >= 1
                        && ctx.punct_at(k - 1, '.')
                        && ctx.ident_at(k, "post_send")
                        && ctx.punct_at(k + 1, '(')
                    {
                        push(ctx, "A003", line, "raw `.post_send(...)` bypasses the typed WrChain builder — build a chain with Qp::chain() so doorbell accounting stays uniform".to_string());
                    }
                }
                "A004" => {
                    if a004_in_scope(&ctx.rel) && ctx.ident_at(k, "RequestQueue") {
                        push(ctx, "A004", line, "raw `RequestQueue` inside vmsim bypasses the SwapBackend boundary — submit pages through a SwapBackend (BlockBackend wraps the queue)".to_string());
                    }
                }
                _ => unreachable!("pattern rule list"),
            }
        }
    }

    // ---- I003: forbid(unsafe_code) in crate roots ---------------------------
    if enabled("I003") && rule_applies(&ctx.rel, &config.rule("I003")) && is_crate_root(&ctx.rel) {
        let mut found = false;
        for k in 0..ctx.code.len() {
            if ctx.punct_at(k, '#')
                && ctx.punct_at(k + 1, '!')
                && ctx.punct_at(k + 2, '[')
                && ctx.ident_at(k + 3, "forbid")
                && ctx.punct_at(k + 4, '(')
                && ctx.ident_at(k + 5, "unsafe_code")
            {
                found = true;
                break;
            }
        }
        if !found {
            push(
                ctx,
                "I003",
                1,
                "crate root lacks `#![forbid(unsafe_code)]`".to_string(),
            );
        }
    }

    // ---- A002: pub fields on wire structs -----------------------------------
    if enabled("A002") && rule_applies(&ctx.rel, &config.rule("A002")) {
        for (line, message) in check_pub_fields(ctx) {
            push(ctx, "A002", line, message);
        }
    }

    // ---- X001: encode without a decode test in the same file ----------------
    if enabled("X001") && rule_applies(&ctx.rel, &config.rule("X001")) {
        for (line, message) in check_roundtrips(ctx) {
            push(ctx, "X001", line, message);
        }
    }

    // ---- W000 / W001 / W002: waiver police ----------------------------------
    if only.is_none() || matches!(only, Some("W000") | Some("W001") | Some("W002")) {
        let mut meta: Vec<(&'static str, u32, String)> = Vec::new();
        for w in &ctx.waivers {
            let known = RULES.iter().any(|r| r.id == w.rule);
            if !known {
                // A typo'd rule id can never match a finding — W001's
                // "stale" message would misdiagnose it, so W002 owns it.
                if only.is_none() || only == Some("W002") {
                    meta.push((
                        "W002",
                        w.line,
                        format!(
                            "waiver names unknown rule `{}` — no such rule exists, so this allow can never match (typo?)",
                            w.rule
                        ),
                    ));
                }
            } else if w.justification.is_empty() && (only.is_none() || only == Some("W000")) {
                meta.push((
                    "W000",
                    w.line,
                    format!("waiver for {} carries no justification — write `// simlint: allow({}): <why>`", w.rule, w.rule),
                ));
            } else if !w.justification.is_empty() && !w.used && only.is_none() {
                meta.push((
                    "W001",
                    w.line,
                    format!(
                        "waiver for {} matched no finding — remove the stale allow",
                        w.rule
                    ),
                ));
            }
        }
        for (id, line, message) in meta {
            // Waiver meta-findings are themselves unwaivable.
            let policy = config.rule(id);
            out.push(Finding {
                rule: id,
                path: rel.clone(),
                line,
                message,
                waived: None,
                warning: policy.warn,
            });
        }
    }

    // Deduplicate (a token can match two patterns of the same rule).
    out.sort_by(|a, b| (a.rule, a.line, &a.message).cmp(&(b.rule, b.line, &b.message)));
    out.dedup_by(|a, b| {
        a.rule == b.rule && a.line == b.line && a.path == b.path && a.message == b.message
    });
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// A002 walk: `pub` fields inside `struct Name { ... }` / `struct Name(...)`
/// bodies.
fn check_pub_fields(ctx: &FileCtx) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    let n = ctx.code.len();
    let mut k = 0usize;
    while k < n {
        if ctx.ident_at(k, "struct") && k + 1 < n && ctx.tok(k + 1).kind == TokKind::Ident {
            let name = ctx.tok(k + 1).text.clone();
            // Find the body opener, stopping at `;` (unit struct).
            let mut j = k + 2;
            let mut body: Option<(usize, char)> = None;
            while j < n {
                let t = ctx.tok(j);
                if t.is_punct(';') {
                    break;
                }
                if t.is_punct('{') {
                    body = Some((j, '}'));
                    break;
                }
                if t.is_punct('(') {
                    body = Some((j, ')'));
                    break;
                }
                j += 1;
            }
            if let Some((open, close_ch)) = body {
                let open_ch = if close_ch == '}' { '{' } else { '(' };
                let mut depth = 0i32;
                let mut m = open;
                while m < n {
                    let t = ctx.tok(m);
                    if t.is_punct(open_ch) {
                        depth += 1;
                    } else if t.is_punct(close_ch) {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    } else if depth == 1 && t.is_ident("pub") {
                        out.push((
                            t.line,
                            format!("wire struct `{name}` exposes a pub field — keep wire layouts sealed behind constructors/accessors so checksummed invariants hold"),
                        ));
                    }
                    m += 1;
                }
                k = m + 1;
                continue;
            }
        }
        k += 1;
    }
    out
}

/// X001 walk: every `impl T { fn encode | fn to_wire }` in this file needs
/// a `T::decode(` / `T::decode_slice(` / `T::from_wire(` call inside test
/// code of the same file, so the two sides of a wire format cannot drift
/// apart untested.
fn check_roundtrips(ctx: &FileCtx) -> Vec<(u32, String)> {
    let n = ctx.code.len();
    // (type, method, line) of every encode-side method.
    let mut encoders: Vec<(&str, &str, u32)> = Vec::new();
    let mut decoded: Vec<&str> = Vec::new();
    for k in 0..n {
        if ctx.in_test_at(k)
            && ctx.tok(k).kind == TokKind::Ident
            && ctx.punct_at(k + 1, ':')
            && ctx.punct_at(k + 2, ':')
            && ["decode", "decode_slice", "from_wire"]
                .iter()
                .any(|m| ctx.ident_at(k + 3, m))
            && ctx.punct_at(k + 4, '(')
        {
            decoded.push(&ctx.tok(k).text);
        }
        if !ctx.ident_at(k, "impl") {
            continue;
        }
        // Header: the implementing type is the last identifier outside
        // `<...>` before `where` or the body, so
        // `impl<T> Tr for a::Ty<T> {` names `Ty`.
        let mut ty = None;
        let mut angles = 0i32;
        let mut in_where = false;
        let mut j = k + 1;
        while j < n && !ctx.punct_at(j, '{') && !ctx.punct_at(j, ';') {
            let t = ctx.tok(j);
            if t.is_punct('<') {
                angles += 1;
            } else if t.is_punct('>') && !ctx.punct_at(j - 1, '-') {
                angles -= 1;
            } else if t.is_ident("where") {
                in_where = true;
            } else if angles == 0 && !in_where && t.kind == TokKind::Ident {
                ty = Some(t.text.as_str());
            }
            j += 1;
        }
        let (Some(ty), true) = (ty, ctx.punct_at(j, '{')) else {
            continue;
        };
        for m in j + 1..ctx.matching_brace(j) {
            if ctx.ident_at(m, "fn")
                && (ctx.ident_at(m + 1, "encode") || ctx.ident_at(m + 1, "to_wire"))
            {
                let name = ctx.tok(m + 1);
                encoders.push((ty, &name.text, name.line));
            }
        }
    }
    encoders
        .into_iter()
        .filter(|(ty, _, _)| !decoded.contains(ty))
        .map(|(ty, method, line)| {
            (
                line,
                format!("wire type `{ty}` has `{method}` but no `{ty}::decode`/`decode_slice`/`from_wire` call inside a test of this file — add a roundtrip test next to the format so the encode and decode sides cannot drift apart"),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rel: &str, src: &str, only: &str) -> Vec<Finding> {
        let mut ctx = FileCtx::new(rel, src);
        check_file(&mut ctx, &Config::builtin(), Some(only))
    }

    #[test]
    fn d001_catches_paths_imports_and_now() {
        let f = run("crates/x/src/a.rs", "use std::time::Instant;\n", "D001");
        assert_eq!(f.len(), 1);
        let f = run(
            "crates/x/src/a.rs",
            "use std::time::{Duration, SystemTime};\n",
            "D001",
        );
        assert_eq!(f.len(), 1);
        let f = run("crates/x/src/a.rs", "let t = Instant::now();\n", "D001");
        assert_eq!(f.len(), 1);
        // EventKind::Instant is not a time source.
        let f = run(
            "crates/x/src/a.rs",
            "match k { EventKind::Instant => 1 }\n",
            "D001",
        );
        assert!(f.is_empty());
        // Duration alone is fine.
        let f = run("crates/x/src/a.rs", "use std::time::Duration;\n", "D001");
        assert!(f.is_empty());
    }

    #[test]
    fn i001_skips_test_modules_and_unwrap_or() {
        let src = "fn f() { x.unwrap(); y.unwrap_or(0); }\n#[cfg(test)]\nmod tests { fn g() { z.unwrap(); } }\n";
        let f = run("crates/x/src/a.rs", src, "I001");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn i003_requires_forbid_in_crate_roots() {
        assert_eq!(run("crates/x/src/lib.rs", "//! docs\n", "I003").len(), 1);
        assert!(run("crates/x/src/lib.rs", "#![forbid(unsafe_code)]\n", "I003").is_empty());
        // Non-roots are exempt.
        assert!(run("crates/x/src/other.rs", "//! docs\n", "I003").is_empty());
    }

    #[test]
    fn a002_pub_fields_and_waivers() {
        let src = "pub struct Wire { pub a: u32, b: u64 }\n";
        let f = run("crates/x/src/proto.rs", src, "A002");
        assert_eq!(f.len(), 1);
        let waived = "pub struct Wire {\n    // simlint: allow(A002): stats snapshot, not a wire layout\n    pub a: u32,\n}\n";
        let f = run("crates/x/src/proto.rs", waived, "A002");
        assert_eq!(f.len(), 1);
        assert!(f[0].waived.is_some());
    }

    #[test]
    fn w000_flags_missing_justification() {
        let src = "// simlint: allow(I001)\nfn f() { x.unwrap(); }\n";
        let mut ctx = FileCtx::new("crates/x/src/a.rs", src);
        let f = check_file(&mut ctx, &Config::builtin(), None);
        assert!(f.iter().any(|f| f.rule == "W000"));
        // ...and the unjustified waiver does not actually waive.
        assert!(f.iter().any(|f| f.rule == "I001" && f.waived.is_none()));
    }

    #[test]
    fn w001_flags_stale_waivers() {
        let src = "// simlint: allow(I001): nothing here needs it\nfn f() { ok(); }\n";
        let mut ctx = FileCtx::new("crates/x/src/a.rs", src);
        let f = check_file(&mut ctx, &Config::builtin(), None);
        assert!(f.iter().any(|f| f.rule == "W001"));
    }

    #[test]
    fn w002_flags_unknown_rule_ids() {
        // The classic typo: I0O1 for I001. Justified or not, it can
        // never match — W002, not W000/W001.
        let src = "// simlint: allow(I0O1): looks plausible\nfn f() { x.unwrap(); }\n";
        let mut ctx = FileCtx::new("crates/x/src/a.rs", src);
        let f = check_file(&mut ctx, &Config::builtin(), None);
        assert!(f.iter().any(|f| f.rule == "W002"), "{f:?}");
        assert!(!f.iter().any(|f| f.rule == "W000" || f.rule == "W001"));
    }

    #[test]
    fn x001_is_waivable_without_tripping_w001() {
        let src = "impl Frame {\n    // simlint: allow(X001): decoded only by the peer implementation\n    pub fn encode(&self) {}\n}\n";
        let mut ctx = FileCtx::new("crates/x/src/a.rs", src);
        let f = check_file(&mut ctx, &Config::builtin(), None);
        let x001: Vec<_> = f.iter().filter(|f| f.rule == "X001").collect();
        assert_eq!(x001.len(), 1);
        assert!(x001[0].waived.is_some());
        assert!(!f.iter().any(|f| f.rule == "W001"), "{f:?}");
    }

    #[test]
    fn trailing_same_line_waiver() {
        let src = "fn f() { x.unwrap(); } // simlint: allow(I001): boot-time invariant\n";
        let mut ctx = FileCtx::new("crates/x/src/a.rs", src);
        let f = check_file(&mut ctx, &Config::builtin(), Some("I001"));
        assert_eq!(f.len(), 1);
        assert!(f[0].waived.is_some());
    }
}
