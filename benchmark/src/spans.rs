//! Host-clock spans recorded from outside the program.
//!
//! The traced pass wraps the public seams between layers (task step, swap
//! backend, block device, page completion) in decorators that open a span
//! here on entry and close it on exit. Spans nest by call stack, so each
//! carries the span that caused it, and a layer's self time is its
//! duration minus what its child spans cover. Everything stays in memory;
//! [`Recorder::chrome_json`] writes it out after the run.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// Spans kept record by record, per name; later ones only add to the
/// per-name totals.
pub const RECORDS_PER_NAME: usize = 100_000;

/// One closed span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Index into the recorder's name table.
    pub name: usize,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// The enclosing span's id (ids count every span opened, kept or not).
    pub parent: Option<u64>,
    /// This span's id.
    pub id: u64,
    /// Request identity shared by the spans of one request: device byte
    /// offset times two, plus one for a write (0 for spans that are not a
    /// request).
    pub request: u64,
}

/// Totals for one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans closed.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of self times (duration minus child spans), ns.
    pub self_ns: u64,
    /// Sum of the durations of the spans that had no parent, ns.
    pub root_ns: u64,
}

struct Open {
    name: usize,
    id: u64,
    start_ns: u64,
    children_ns: u64,
    request: u64,
}

struct Inner {
    epoch: Instant,
    names: Vec<&'static str>,
    totals: Vec<SpanTotals>,
    kept: Vec<usize>,
    records: Vec<SpanRecord>,
    stack: Vec<Open>,
    next_id: u64,
}

/// A span recorder. Clones share state; a disabled recorder makes every
/// call a no-op so the decorators can stay in place on untimed machines.
#[derive(Clone)]
pub struct Recorder {
    inner: Option<Rc<RefCell<Inner>>>,
}

/// Request identity for a span: the op and the device offset.
pub fn request_id(write: bool, offset: u64) -> u64 {
    (offset << 1) | u64::from(write)
}

impl Recorder {
    /// A recorder that records nothing.
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// A recorder for the span names in `names`; storage for the kept
    /// records is allocated here, not while spans are being timed.
    pub fn enabled(names: &[&'static str]) -> Recorder {
        Recorder {
            inner: Some(Rc::new(RefCell::new(Inner {
                epoch: Instant::now(),
                names: names.to_vec(),
                totals: vec![SpanTotals::default(); names.len()],
                kept: vec![0; names.len()],
                records: Vec::with_capacity(RECORDS_PER_NAME * names.len()),
                stack: Vec::with_capacity(16),
                next_id: 0,
            }))),
        }
    }

    /// Open a span for `name` (an index into the names given to
    /// [`Recorder::enabled`]); the span on top of the stack becomes its
    /// parent. Pair with [`Recorder::exit`].
    #[inline]
    pub fn enter(&self, name: usize, request: u64) {
        if let Some(inner) = &self.inner {
            let mut inner = inner.borrow_mut();
            let start_ns = inner.epoch.elapsed().as_nanos() as u64;
            let id = inner.next_id;
            inner.next_id += 1;
            inner.stack.push(Open {
                name,
                id,
                start_ns,
                children_ns: 0,
                request,
            });
        }
    }

    /// Close the innermost open span.
    #[inline]
    pub fn exit(&self) {
        if let Some(inner) = &self.inner {
            let mut inner = inner.borrow_mut();
            let end_ns = inner.epoch.elapsed().as_nanos() as u64;
            let open = inner.stack.pop().expect("exit without enter");
            inner.close(open, end_ns);
        }
    }

    /// Time `f` as one span.
    #[inline]
    pub fn span<T>(&self, name: usize, request: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, request);
        let out = f();
        self.exit();
        out
    }

    /// Per-name totals, in the order of the names given at creation.
    pub fn totals(&self) -> Vec<(&'static str, SpanTotals)> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => {
                let inner = inner.borrow();
                inner
                    .names
                    .iter()
                    .copied()
                    .zip(inner.totals.iter().copied())
                    .collect()
            }
        }
    }

    /// Sum of the durations of every span that had no parent, ns: the part
    /// of the wall time the decorators could see.
    pub fn root_ns(&self) -> u64 {
        self.totals().iter().map(|(_, t)| t.root_ns).sum()
    }

    /// The kept records, oldest first.
    pub fn records(&self) -> Vec<SpanRecord> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner.borrow().records.clone(),
        }
    }

    /// The kept records as a Chrome trace (`chrome://tracing`, Perfetto):
    /// one complete event per span, with id, parent and request in `args`,
    /// and the per-name totals (which also cover the spans not kept) as
    /// metadata.
    pub fn chrome_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"process_name\",\"args\":{{\"name\":\"{workload}\"}}}}"
        );
        if let Some(inner) = &self.inner {
            let inner = inner.borrow();
            for r in &inner.records {
                let parent = r.parent.map_or(-1, |p| p as i64);
                let _ = write!(
                    out,
                    ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"request\":{}}}}}",
                    inner.names[r.name],
                    r.start_ns as f64 / 1e3,
                    (r.end_ns - r.start_ns) as f64 / 1e3,
                    r.id,
                    parent,
                    r.request
                );
            }
        }
        out.push_str("\n],\"spanTotals\":{");
        for (i, (name, t)) in self.totals().iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{},\"root_ns\":{}}}",
                if i == 0 { "" } else { "," },
                t.count,
                t.total_ns,
                t.self_ns,
                t.root_ns
            );
        }
        out.push_str("}}\n");
        out
    }
}

impl Inner {
    fn close(&mut self, open: Open, end_ns: u64) {
        let dur = end_ns.saturating_sub(open.start_ns);
        let parent = self.stack.last_mut().map(|p| {
            p.children_ns += dur;
            p.id
        });
        let totals = &mut self.totals[open.name];
        totals.count += 1;
        totals.total_ns += dur;
        // Children are timed inside the parent's interval, so they cannot
        // cover more than it; saturate anyway so a clock step never turns
        // a self time negative.
        totals.self_ns += dur.saturating_sub(open.children_ns);
        if parent.is_none() {
            totals.root_ns += dur;
        }
        if self.kept[open.name] < RECORDS_PER_NAME {
            self.kept[open.name] += 1;
            self.records.push(SpanRecord {
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
                parent,
                id: open.id,
                request: open.request,
            });
        }
    }
}
