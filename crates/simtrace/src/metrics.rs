//! Named counters, gauges and sample histograms with percentile support.
//!
//! Recording is deterministic and side-effect free with respect to the
//! simulation: metrics never touch the engine, the RNG, or virtual time.
//! Iteration order is the `BTreeMap` key order, so rendered summaries
//! are byte-identical across runs.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

/// A pre-resolved counter handle: incrementing is a `Cell` bump, with no
/// registry lookup on the hot path. Obtain via
/// [`MetricsRegistry::counter_handle`]; clones share the same cell.
#[derive(Clone, Default)]
pub struct Counter(Rc<Cell<u64>>);

impl Counter {
    /// Increment by 1.
    #[inline]
    pub fn inc(&self) {
        self.0.set(self.0.get() + 1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get() + n);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// A pre-resolved histogram handle: recording pushes straight into the
/// shared sample vector. Obtain via [`MetricsRegistry::histogram_handle`].
#[derive(Clone, Default)]
pub struct Histogram(Rc<RefCell<Vec<f64>>>);

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn observe(&self, v: f64) {
        self.0.borrow_mut().push(v);
    }
}

/// A counter handle that resolves its registry slot on the **first**
/// increment rather than at construction. Hot emit sites that must not
/// create a zero-valued entry when they never fire (snapshots only show
/// counters that incremented at least once) hold one of these.
pub struct LazyCounter {
    reg: MetricsRegistry,
    name: &'static str,
    slot: RefCell<Option<Counter>>,
}

impl LazyCounter {
    /// Increment by 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`; the registry entry is created here on first use.
    #[inline]
    pub fn add(&self, n: u64) {
        self.slot
            .borrow_mut()
            .get_or_insert_with(|| self.reg.counter_handle(self.name))
            .add(n);
    }
}

#[derive(Default)]
struct Reg {
    counters: BTreeMap<&'static str, Counter>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

/// A cheap, cloneable registry of named metrics. Clones share storage.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Rc<RefCell<Reg>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Increment a counter by 1.
    #[inline]
    pub fn inc(&self, name: &'static str) {
        self.add(name, 1);
    }

    /// Increment a counter by `n`.
    #[inline]
    pub fn add(&self, name: &'static str, n: u64) {
        self.inner
            .borrow_mut()
            .counters
            .entry(name)
            .or_default()
            .add(n);
    }

    /// Resolve (creating if absent) a counter once; the returned handle
    /// increments without any registry lookup. Hot emit sites should hold
    /// one of these instead of calling [`MetricsRegistry::inc`] per event.
    pub fn counter_handle(&self, name: &'static str) -> Counter {
        self.inner
            .borrow_mut()
            .counters
            .entry(name)
            .or_default()
            .clone()
    }

    /// A counter handle that defers slot creation to its first increment,
    /// so holding one for a counter that never fires leaves the rendered
    /// metrics unchanged.
    pub fn lazy_counter(&self, name: &'static str) -> LazyCounter {
        LazyCounter {
            reg: self.clone(),
            name,
            slot: RefCell::new(None),
        }
    }

    /// Resolve (creating if absent) a histogram once, for lookup-free
    /// recording on hot paths.
    pub fn histogram_handle(&self, name: &'static str) -> Histogram {
        self.inner
            .borrow_mut()
            .histograms
            .entry(name)
            .or_default()
            .clone()
    }

    /// Set a gauge to `v` (last write wins).
    #[inline]
    pub fn set_gauge(&self, name: &'static str, v: f64) {
        self.inner.borrow_mut().gauges.insert(name, v);
    }

    /// Record one sample into a histogram.
    #[inline]
    pub fn observe(&self, name: &'static str, v: f64) {
        self.inner
            .borrow_mut()
            .histograms
            .entry(name)
            .or_default()
            .observe(v);
    }

    /// Current value of a counter (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .borrow()
            .counters
            .get(name)
            .map_or(0, Counter::get)
    }

    /// Freeze the current state into an immutable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let reg = self.inner.borrow();
        MetricsSnapshot {
            counters: reg
                .counters
                .iter()
                .map(|(&k, v)| (k.to_string(), v.get()))
                .collect(),
            gauges: reg
                .gauges
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            histograms: reg
                .histograms
                .iter()
                .map(|(&k, v)| (k.to_string(), HistogramSummary::from_samples(&v.0.borrow())))
                .collect(),
        }
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let reg = self.inner.borrow();
        f.debug_struct("MetricsRegistry")
            .field("counters", &reg.counters.len())
            .field("gauges", &reg.gauges.len())
            .field("histograms", &reg.histograms.len())
            .finish()
    }
}

/// Summary statistics of one histogram's samples.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSummary {
    /// Sample count.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// 50th percentile (nearest-rank).
    pub p50: f64,
    /// 95th percentile (nearest-rank).
    pub p95: f64,
    /// 99th percentile (nearest-rank).
    pub p99: f64,
}

impl HistogramSummary {
    fn from_samples(samples: &[f64]) -> HistogramSummary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
        let count = sorted.len() as u64;
        let sum: f64 = sorted.iter().sum();
        HistogramSummary {
            count,
            mean: if count == 0 { 0.0 } else { sum / count as f64 },
            min: sorted.first().copied().unwrap_or(0.0),
            max: sorted.last().copied().unwrap_or(0.0),
            p50: nearest_rank(&sorted, 50.0),
            p95: nearest_rank(&sorted, 95.0),
            p99: nearest_rank(&sorted, 99.0),
        }
    }
}

/// Nearest-rank `pct`th percentile of samples in ascending order; zero
/// for none.
pub(crate) fn nearest_rank<T: Copy + Default>(sorted: &[T], pct: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// An immutable, renderable copy of a registry's state.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values, sorted by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values, sorted by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries, sorted by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl MetricsSnapshot {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Plain-text summary: one metric per line, aligned for reading.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "  {name:<34} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "  {name:<34} {v:.3}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "  {name:<34} n={} mean={:.1} p50={:.1} p95={:.1} p99={:.1} max={:.1}",
                h.count, h.mean, h.p50, h.p95, h.p99, h.max
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = MetricsRegistry::new();
        m.inc("a");
        m.add("a", 4);
        m.inc("b");
        assert_eq!(m.counter("a"), 5);
        assert_eq!(m.counter("b"), 1);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn handles_share_the_registry_slot() {
        let m = MetricsRegistry::new();
        let c = m.counter_handle("hot");
        m.inc("hot");
        c.inc();
        c.add(3);
        assert_eq!(m.counter("hot"), 5);
        assert_eq!(c.get(), 5);
        let h = m.histogram_handle("lat");
        h.observe(1.0);
        m.observe("lat", 2.0);
        assert_eq!(m.snapshot().histograms["lat"].count, 2);
    }

    #[test]
    fn lazy_counter_defers_slot_creation() {
        let m = MetricsRegistry::new();
        let c = m.lazy_counter("maybe");
        assert!(
            !m.snapshot().counters.contains_key("maybe"),
            "no entry before the first increment"
        );
        c.inc();
        c.add(2);
        assert_eq!(m.counter("maybe"), 3);
    }

    #[test]
    fn clones_share_storage() {
        let m = MetricsRegistry::new();
        let n = m.clone();
        n.inc("x");
        assert_eq!(m.counter("x"), 1);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let m = MetricsRegistry::new();
        for v in 1..=100 {
            m.observe("lat", v as f64);
        }
        let h = &m.snapshot().histograms["lat"];
        assert_eq!(h.count, 100);
        assert_eq!(h.p50, 50.0);
        assert_eq!(h.p95, 95.0);
        assert_eq!(h.p99, 99.0);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 100.0);
        assert!((h.mean - 50.5).abs() < 1e-9);
    }

    #[test]
    fn single_sample_percentiles() {
        let m = MetricsRegistry::new();
        m.observe("one", 7.5);
        let h = &m.snapshot().histograms["one"];
        assert_eq!(h.p50, 7.5);
        assert_eq!(h.p99, 7.5);
    }

    #[test]
    fn render_is_deterministic_and_sorted() {
        let m = MetricsRegistry::new();
        m.inc("z.last");
        m.inc("a.first");
        m.set_gauge("g", 1.5);
        m.observe("h", 2.0);
        let a = m.snapshot().render_text();
        let b = m.snapshot().render_text();
        assert_eq!(a, b);
        let first = a.find("a.first").unwrap();
        let last = a.find("z.last").unwrap();
        assert!(first < last, "counters sorted by name");
    }
}
