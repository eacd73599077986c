//! Process-wide metrics registry: counters, gauges and monotonic
//! histograms with deterministic snapshots.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        crate::note_op();
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value (stored as `f64` bits).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Overwrites the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        crate::note_op();
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value (0.0 before the first `set`).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A histogram over fixed, strictly increasing upper bucket bounds.
///
/// A recorded value lands in the first bucket whose bound it does not
/// exceed; values above every bound land in the implicit overflow
/// bucket, so there are `bounds.len() + 1` buckets in total. The running
/// count and sum make mean and rate computations exact regardless of the
/// bucketing.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of recorded values, accumulated as `f64` bits via CAS.
    sum: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Histogram {
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "histogram bounds must be increasing");
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Records one observation.
    pub fn record(&self, v: f64) {
        crate::note_op();
        let idx = self.bounds.partition_point(|&b| b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum.load(Ordering::Relaxed))
    }

    /// The configured upper bounds (without the implicit overflow
    /// bucket).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts (`bounds.len() + 1` entries, overflow last).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }
}

/// Default duration bounds for span histograms: 1 µs to ~67 s in ×4
/// steps (14 finite buckets), wide enough for both a single capture and
/// a whole campaign batch.
pub fn duration_bounds() -> &'static [f64] {
    static BOUNDS: OnceLock<Vec<f64>> = OnceLock::new();
    BOUNDS.get_or_init(|| (0..14).map(|i| 1e-6 * 4f64.powi(i)).collect())
}

/// The registry: named metrics, created on first use and shared through
/// `Arc`s so hot sites can cache their handles.
#[derive(Debug, Default)]
pub struct Metrics {
    counters: RwLock<HashMap<String, Arc<Counter>>>,
    gauges: RwLock<HashMap<String, Arc<Gauge>>>,
    histograms: RwLock<HashMap<String, Arc<Histogram>>>,
}

fn get_or_insert<T>(
    map: &RwLock<HashMap<String, Arc<T>>>,
    name: &str,
    make: impl FnOnce() -> T,
) -> Arc<T> {
    // Lock poisoning cannot corrupt the map (values are atomics mutated
    // outside the lock), so a panic elsewhere must not cascade here.
    if let Some(v) = map.read().unwrap_or_else(|e| e.into_inner()).get(name) {
        return v.clone();
    }
    // Construct outside the write lock so a panicking constructor (e.g.
    // unsorted histogram bounds) cannot poison the registry.
    let fresh = Arc::new(make());
    let mut w = map.write().unwrap_or_else(|e| e.into_inner());
    w.entry(name.to_string()).or_insert(fresh).clone()
}

impl Metrics {
    /// The counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_insert(&self.counters, name, Counter::default)
    }

    /// The gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_insert(&self.gauges, name, Gauge::default)
    }

    /// The histogram named `name`. The bounds are fixed by the first
    /// caller; later callers receive the existing histogram regardless
    /// of the bounds they pass.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        get_or_insert(&self.histograms, name, || Histogram::new(bounds))
    }

    /// A deterministic (sorted-key) snapshot of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    HistogramSnapshot {
                        count: v.count(),
                        sum: v.sum(),
                        bounds: v.bounds().to_vec(),
                        buckets: v.bucket_counts(),
                    },
                )
            })
            .collect();
        MetricsSnapshot { counters, gauges, histograms }
    }
}

/// Point-in-time state of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Finite upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket counts (overflow bucket last).
    pub buckets: Vec<u64>,
}

/// Point-in-time state of the whole registry, with sorted keys so diffs
/// and serialisations are deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Counter increase since `earlier` (saturating).
    pub fn counter_delta(&self, earlier: &MetricsSnapshot, name: &str) -> u64 {
        self.counter(name).saturating_sub(earlier.counter(name))
    }

    /// Histogram sum increase since `earlier` (0 when absent).
    pub fn histogram_sum_delta(&self, earlier: &MetricsSnapshot, name: &str) -> f64 {
        let now = self.histograms.get(name).map(|h| h.sum).unwrap_or(0.0);
        let was = earlier.histograms.get(name).map(|h| h.sum).unwrap_or(0.0);
        (now - was).max(0.0)
    }
}

/// The process-wide registry.
pub fn metrics() -> &'static Metrics {
    static METRICS: OnceLock<Metrics> = OnceLock::new();
    METRICS.get_or_init(Metrics::default)
}

/// Shorthand for [`metrics()`]`.counter(name)`.
pub fn counter(name: &str) -> Arc<Counter> {
    metrics().counter(name)
}

/// Shorthand for [`metrics()`]`.gauge(name)`.
pub fn gauge(name: &str) -> Arc<Gauge> {
    metrics().gauge(name)
}

/// Shorthand for [`metrics()`]`.histogram(name, duration_bounds())` —
/// the common case of a duration histogram.
pub fn histogram(name: &str) -> Arc<Histogram> {
    metrics().histogram(name, duration_bounds())
}
