//! Always-on, near-zero-overhead metrics for the kacc workspace.
//!
//! Three primitives whose updates are all commutative, so that
//! concurrent recording under any thread interleaving (`repro --jobs N`)
//! produces bitwise-identical snapshots:
//!
//! * [`Counter`] — monotonic `u64` (`fetch_add`).
//! * [`Gauge`] — high-water-mark gauge (`fetch_max`); only the maximum
//!   ever observed is kept, because a "current value" gauge would be
//!   interleaving-dependent.
//! * [`Hist`] — log₂-bucketed histogram of `u64` samples (virtual-ns
//!   latencies, sizes, queue depths). Per-bucket counts, the sample sum
//!   and the sample max are all commutative, so summing shards in any
//!   order yields the same result exactly — no floating point anywhere.
//!
//! A [`Hist`] is sharded per thread: each recording thread owns one
//! shard, found by the histogram's registry index in a thread-local
//! table and registered with the histogram on first use. A record is a
//! relaxed load and a store into the caller's own shard — no
//! read-modify-write, no CAS — so the executor can record every step
//! straight into the shared histogram. A snapshot sums the live shards
//! and the cells that exited threads' shards were folded into.
//!
//! [`LocalHist`] is the plain-field value type: what a snapshot returns,
//! and a single-owner accumulator for per-run statistics that are also
//! reported on their own (folded in with [`Hist::merge_local`]).
//!
//! ## Registry and determinism contract
//!
//! Handles come from the process-global registry ([`counter`], [`gauge`],
//! [`hist`]), keyed by name, created on first use. Snapshots
//! ([`snapshot`]) iterate the registry in name order, so the rendered
//! JSON/Prometheus output is schema-stable no matter which code path
//! registered its metrics first. A snapshot is deterministic iff every
//! recorded value is deterministic — record virtual time and counts, never
//! wall-clock.
//!
//! ## Relation to `kacc-trace`
//!
//! `kacc-trace` answers "what happened, when" (opt-in, per-event); this
//! crate answers "how much, how often" (always-on, aggregated). There is
//! no switch: the aggregation is cheap enough to leave running
//! everywhere.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Number of histogram buckets: bucket 0 holds the value 0; bucket `b ≥ 1`
/// holds values in `[2^(b-1), 2^b - 1]`; bucket 64 tops out at `u64::MAX`.
pub const BUCKETS: usize = 65;

/// Bucket index for a sample value.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last bucket).
pub fn bucket_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

/// Monotonic counter handle. Cloning shares the underlying cell.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// High-water-mark gauge handle: keeps the maximum value ever observed.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Raise the high-water mark to at least `v`.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.0.fetch_max(v, Relaxed);
    }

    /// Current high-water mark.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// One shard's cells. Every cell has a single writer at a time — the
/// owning thread for a live shard, the holder of the histogram's shard
/// lock for the retired cells — so an update is a relaxed load and a
/// store, never a read-modify-write.
#[derive(Debug)]
struct HistCells {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

/// Single-writer `cell += n`.
#[inline]
fn bump(cell: &AtomicU64, n: u64) {
    cell.store(cell.load(Relaxed).wrapping_add(n), Relaxed);
}

impl HistCells {
    fn new() -> HistCells {
        HistCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    #[inline]
    fn record(&self, v: u64) {
        bump(&self.buckets[bucket_index(v)], 1);
        bump(&self.sum, v);
        if v > self.max.load(Relaxed) {
            self.max.store(v, Relaxed);
        }
    }

    fn add(&self, buckets: &[u64; BUCKETS], sum: u64, max: u64) {
        for (cell, &n) in self.buckets.iter().zip(buckets) {
            if n > 0 {
                bump(cell, n);
            }
        }
        bump(&self.sum, sum);
        if max > self.max.load(Relaxed) {
            self.max.store(max, Relaxed);
        }
    }

    fn load_into(&self, out: &mut LocalHist) {
        for (o, b) in out.buckets.iter_mut().zip(&self.buckets) {
            *o += b.load(Relaxed);
        }
        out.sum = out.sum.wrapping_add(self.sum.load(Relaxed));
        out.max = out.max.max(self.max.load(Relaxed));
    }

    fn clear(&self) {
        for b in &self.buckets {
            b.store(0, Relaxed);
        }
        self.sum.store(0, Relaxed);
        self.max.store(0, Relaxed);
    }
}

#[derive(Debug)]
struct HistInner {
    /// Registry index: this histogram's slot in every thread's shard
    /// table.
    id: usize,
    /// Samples of exited threads' shards (and of records made while a
    /// thread's shard table was being torn down). Written only under
    /// the `shards` lock.
    retired: HistCells,
    /// The live threads' shards.
    shards: Mutex<Vec<Arc<HistCells>>>,
}

impl HistInner {
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Arc<HistCells>>> {
        self.shards.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Fold an exiting thread's shard into the retired cells and drop it
    /// from the live set, atomically with respect to snapshots.
    fn retire(&self, shard: &Arc<HistCells>) {
        let mut shards = self.lock();
        let mut folded = LocalHist::default();
        shard.load_into(&mut folded);
        self.retired.add(&folded.buckets, folded.sum, folded.max);
        shards.retain(|s| !Arc::ptr_eq(s, shard));
    }
}

/// This thread's shards, indexed by histogram registry index. Dropped
/// when the thread exits, which folds every shard into its histogram.
struct ThreadShards(Vec<Option<(Arc<HistInner>, Arc<HistCells>)>>);

impl ThreadShards {
    /// This thread's shard of `hist`, registered on first use.
    #[inline]
    fn shard(&mut self, hist: &Arc<HistInner>) -> &HistCells {
        if !matches!(self.0.get(hist.id), Some(Some(_))) {
            self.register(hist);
        }
        &self.0[hist.id].as_ref().expect("registered above").1
    }

    #[cold]
    fn register(&mut self, hist: &Arc<HistInner>) {
        if self.0.len() <= hist.id {
            self.0.resize_with(hist.id + 1, || None);
        }
        let cells = Arc::new(HistCells::new());
        hist.lock().push(Arc::clone(&cells));
        self.0[hist.id] = Some((Arc::clone(hist), cells));
    }
}

impl Drop for ThreadShards {
    fn drop(&mut self) {
        for (hist, cells) in self.0.drain(..).flatten() {
            hist.retire(&cells);
        }
    }
}

thread_local! {
    static SHARDS: RefCell<ThreadShards> = const { RefCell::new(ThreadShards(Vec::new())) };
}

/// Next histogram registry index.
static NEXT_HIST_ID: AtomicUsize = AtomicUsize::new(0);

/// Shared log₂-bucketed histogram handle, sharded per recording thread.
#[derive(Debug, Clone)]
pub struct Hist(Arc<HistInner>);

impl Hist {
    fn new() -> Hist {
        Hist(Arc::new(HistInner {
            id: NEXT_HIST_ID.fetch_add(1, Relaxed),
            retired: HistCells::new(),
            shards: Mutex::new(Vec::new()),
        }))
    }

    /// Apply `write` to the calling thread's shard. While the thread's
    /// shard table is being torn down the write goes to the retired
    /// cells under the lock, exactly where the shard is being folded.
    #[inline]
    fn write(&self, write: impl FnOnce(&HistCells)) {
        let mut write = Some(write);
        let _ = SHARDS.try_with(|t| {
            if let Ok(mut t) = t.try_borrow_mut() {
                if let Some(w) = write.take() {
                    w(t.shard(&self.0));
                }
            }
        });
        if let Some(w) = write {
            let _shards = self.0.lock();
            w(&self.0.retired);
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.write(|c| c.record(v));
    }

    /// Fold a per-run [`LocalHist`] into this thread's shard.
    pub fn merge_local(&self, local: &LocalHist) {
        if local.count == 0 {
            return;
        }
        self.write(|c| c.add(&local.buckets, local.sum, local.max));
    }

    /// Snapshot this histogram's current contents: the retired cells
    /// plus every live shard.
    pub fn load(&self) -> LocalHist {
        let mut out = LocalHist::default();
        let shards = self.0.lock();
        self.0.retired.load_into(&mut out);
        for shard in shards.iter() {
            shard.load_into(&mut out);
        }
        out.count = out.buckets.iter().sum();
        out
    }

    /// Zero the retired cells and every live shard. Call it while no
    /// thread records into this histogram: a concurrent owner's
    /// load-and-store can write back a pre-reset value.
    fn reset(&self) {
        let shards = self.0.lock();
        self.0.retired.clear();
        for shard in shards.iter() {
            shard.clear();
        }
    }

    /// Live shards: threads that recorded into this histogram and have
    /// not exited.
    #[cfg(test)]
    fn live_shards(&self) -> usize {
        self.0.lock().len()
    }
}

/// Plain-field histogram: a snapshot's value, and a single-owner
/// accumulator for per-run statistics (fold it into a shared [`Hist`]
/// with [`Hist::merge_local`]). `PartialEq` compares every bucket, so
/// determinism suites can pin whole distributions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalHist {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LocalHist {
    fn default() -> LocalHist {
        LocalHist {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl LocalHist {
    /// Record one sample. The sum wraps at `u64::MAX` (matching the
    /// shared [`Hist`]'s shards), which stays exact and
    /// order-invariant modulo 2⁶⁴.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.max = self.max.max(v);
    }

    /// Fold another local histogram in (exact, order-invariant).
    pub fn merge(&mut self, other: &LocalHist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the samples; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// True when no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Per-bucket counts.
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Upper bound of the bucket containing the `q`-quantile (q in
    /// parts-per-million, e.g. 990_000 for p99), capped at [`Self::max`]
    /// so an outlier-free distribution never over-reports. Returns 0
    /// when empty. Bucket resolution (powers of two) makes this a
    /// conservative estimate, which is exactly what a liveness deadline
    /// wants: never below the true quantile, at most 2x above it.
    pub fn quantile_bound(&self, q_ppm: u64) -> u64 {
        bucket_quantile_bound(self.buckets.iter().copied(), self.count, self.max, q_ppm)
    }
}

/// [`LocalHist::quantile_bound`] over any per-bucket tally: `buckets`
/// yields the count of each bucket in index order, `count` is their sum
/// and `max` the largest sample. Lets a caller keep a narrower tally than
/// a `LocalHist` and still get the identical bound.
pub fn bucket_quantile_bound(
    buckets: impl IntoIterator<Item = u64>,
    count: u64,
    max: u64,
    q_ppm: u64,
) -> u64 {
    if count == 0 {
        return 0;
    }
    // Smallest bucket whose cumulative count covers the quantile.
    let need = (count.saturating_mul(q_ppm)).div_ceil(1_000_000);
    let mut seen = 0u64;
    for (i, c) in buckets.into_iter().enumerate() {
        seen += c;
        if seen >= need {
            return bucket_bound(i).min(max);
        }
    }
    max
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Hist(Hist),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Hist(_) => "hist",
        }
    }
}

fn registry() -> &'static Mutex<BTreeMap<String, Metric>> {
    static REG: OnceLock<Mutex<BTreeMap<String, Metric>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn get_or_create(name: &str, make: impl FnOnce() -> Metric) -> Metric {
    let mut map = registry().lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(m) = map.get(name) {
        return m.clone();
    }
    let m = make();
    map.insert(name.to_string(), m.clone());
    m
}

/// Get or create the named global counter.
pub fn counter(name: &str) -> Counter {
    match get_or_create(name, || {
        Metric::Counter(Counter(Arc::new(AtomicU64::new(0))))
    }) {
        Metric::Counter(c) => c,
        other => panic!("metric '{name}' is a {}, not a counter", other.kind()),
    }
}

/// Get or create the named global high-water gauge.
pub fn gauge(name: &str) -> Gauge {
    match get_or_create(name, || Metric::Gauge(Gauge(Arc::new(AtomicU64::new(0))))) {
        Metric::Gauge(g) => g,
        other => panic!("metric '{name}' is a {}, not a gauge", other.kind()),
    }
}

/// Get or create the named global histogram.
pub fn hist(name: &str) -> Hist {
    match get_or_create(name, || Metric::Hist(Hist::new())) {
        Metric::Hist(h) => h,
        other => panic!("metric '{name}' is a {}, not a histogram", other.kind()),
    }
}

/// Zero every registered metric (handles stay valid), every thread's
/// histogram shards included. Test support: lets a test observe only its
/// own activity in a shared process. Call it while nothing records.
pub fn reset() {
    let map = registry().lock().unwrap_or_else(PoisonError::into_inner);
    for m in map.values() {
        match m {
            Metric::Counter(c) => c.0.store(0, Relaxed),
            Metric::Gauge(g) => g.0.store(0, Relaxed),
            Metric::Hist(h) => h.reset(),
        }
    }
}

/// One metric's value at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// Monotonic counter value.
    Counter(u64),
    /// High-water-mark gauge value.
    Gauge(u64),
    /// Histogram contents (boxed: a `LocalHist` is ~540 bytes, far
    /// larger than the scalar variants).
    Hist(Box<LocalHist>),
}

/// A point-in-time copy of every registered metric, in name order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// `(name, value)` pairs sorted by name.
    pub metrics: Vec<(String, Value)>,
}

/// Snapshot the global registry. Sorted by metric name, so the rendered
/// output is schema-stable regardless of registration order.
pub fn snapshot() -> Snapshot {
    let map = registry().lock().unwrap_or_else(PoisonError::into_inner);
    let metrics = map
        .iter()
        .map(|(name, m)| {
            let v = match m {
                Metric::Counter(c) => Value::Counter(c.get()),
                Metric::Gauge(g) => Value::Gauge(g.get()),
                Metric::Hist(h) => Value::Hist(Box::new(h.load())),
            };
            (name.clone(), v)
        })
        .collect();
    Snapshot { metrics }
}

impl Snapshot {
    /// Look up a metric by name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Render as deterministic JSON: keys in name order, histogram
    /// buckets as ascending `[index, count]` pairs (non-empty only).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"metrics\": {\n");
        for (i, (name, v)) in self.metrics.iter().enumerate() {
            let sep = if i + 1 < self.metrics.len() { "," } else { "" };
            match v {
                Value::Counter(n) => {
                    s.push_str(&format!(
                        "    \"{name}\": {{\"type\": \"counter\", \"value\": {n}}}{sep}\n"
                    ));
                }
                Value::Gauge(n) => {
                    s.push_str(&format!(
                        "    \"{name}\": {{\"type\": \"gauge\", \"value\": {n}}}{sep}\n"
                    ));
                }
                Value::Hist(h) => {
                    let buckets: Vec<String> = h
                        .buckets
                        .iter()
                        .enumerate()
                        .filter(|(_, &n)| n > 0)
                        .map(|(b, n)| format!("[{b}, {n}]"))
                        .collect();
                    s.push_str(&format!(
                        "    \"{name}\": {{\"type\": \"hist\", \"count\": {}, \"sum\": {}, \"max\": {}, \"buckets\": [{}]}}{sep}\n",
                        h.count,
                        h.sum,
                        h.max,
                        buckets.join(", ")
                    ));
                }
            }
        }
        s.push_str("  }\n}\n");
        s
    }

    /// Render as Prometheus-style text exposition. Metric names are
    /// prefixed `kacc_` and sanitized; histograms emit cumulative
    /// `_bucket{le=...}` series up to the highest non-empty bucket.
    pub fn to_prometheus(&self) -> String {
        let mut s = String::new();
        for (name, v) in &self.metrics {
            let pname = prom_name(name);
            match v {
                Value::Counter(n) => {
                    s.push_str(&format!("# TYPE {pname} counter\n{pname} {n}\n"));
                }
                Value::Gauge(n) => {
                    s.push_str(&format!("# TYPE {pname} gauge\n{pname} {n}\n"));
                }
                Value::Hist(h) => {
                    s.push_str(&format!("# TYPE {pname} histogram\n"));
                    let top = h
                        .buckets
                        .iter()
                        .rposition(|&n| n > 0)
                        .map_or(0, |i| i + 1)
                        .min(BUCKETS);
                    let mut cum = 0u64;
                    for i in 0..top {
                        cum += h.buckets[i];
                        s.push_str(&format!(
                            "{pname}_bucket{{le=\"{}\"}} {cum}\n",
                            bucket_bound(i)
                        ));
                    }
                    s.push_str(&format!("{pname}_bucket{{le=\"+Inf\"}} {}\n", h.count));
                    s.push_str(&format!("{pname}_sum {}\n", h.sum));
                    s.push_str(&format!("{pname}_count {}\n", h.count));
                }
            }
        }
        s
    }
}

fn prom_name(name: &str) -> String {
    let mut out = String::from("kacc_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    /// Tests that record serialize here so the registry-wide [`reset`]
    /// in `reset_zeroes_every_shard` cannot zero another test's records.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn bucket_index_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        // Every bucket's bound lands in that bucket.
        for i in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_bound(i)), i, "bound of bucket {i}");
        }
    }

    #[test]
    fn local_hist_records_and_merges() {
        let mut a = LocalHist::default();
        let mut b = LocalHist::default();
        for v in [0u64, 1, 5, 1000] {
            a.record(v);
        }
        for v in [7u64, 7, 2] {
            b.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge is commutative");
        assert_eq!(ab.count(), 7);
        assert_eq!(ab.sum(), 1022);
        assert_eq!(ab.max(), 1000);
        assert!((ab.mean().unwrap() - 1022.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn shared_hist_matches_local() {
        let _g = guard();
        let h = hist("test.shared_hist_matches_local");
        let mut l = LocalHist::default();
        for v in [3u64, 9, 0, 1 << 40] {
            h.record(v);
            l.record(v);
        }
        assert_eq!(h.load(), l);
        let mut extra = LocalHist::default();
        extra.record(12);
        h.merge_local(&extra);
        l.merge(&extra);
        assert_eq!(h.load(), l);
    }

    /// Samples spread over N threads snapshot exactly like the same
    /// samples recorded by one thread, whichever thread ran when.
    #[test]
    fn sharded_recording_matches_one_thread() {
        let _g = guard();
        let samples: Vec<u64> = (0..4000u64).map(|i| (i * 7919) % 100_003).collect();
        let one = hist("test.shards.one");
        for &v in &samples {
            one.record(v);
        }
        let many = hist("test.shards.many");
        std::thread::scope(|s| {
            for chunk in samples.chunks(500) {
                let many = many.clone();
                s.spawn(move || {
                    for &v in chunk {
                        many.record(v);
                    }
                    let mut local = LocalHist::default();
                    local.record(chunk[0]);
                    many.merge_local(&local);
                });
            }
        });
        for chunk in samples.chunks(500) {
            one.record(chunk[0]);
        }
        assert_eq!(many.load(), one.load());
        assert_eq!(many.load().count(), 4008);
    }

    /// A thread's shard outlives the thread only as folded samples: the
    /// histogram keeps every sample and drops the shard.
    #[test]
    fn exited_thread_shard_is_folded_away() {
        let _g = guard();
        let h = hist("test.shards.exit");
        h.record(5);
        let before = h.live_shards();
        let (tx, rx) = std::sync::mpsc::channel();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let worker = {
            let h = h.clone();
            std::thread::spawn(move || {
                h.record(1 << 20);
                h.record(3);
                tx.send(()).unwrap();
                go_rx.recv().unwrap();
            })
        };
        rx.recv().unwrap();
        assert_eq!(h.live_shards(), before + 1, "worker registered a shard");
        go_tx.send(()).unwrap();
        worker.join().unwrap();
        assert_eq!(h.live_shards(), before, "worker's shard folded away");
        let mut want = LocalHist::default();
        for v in [5, 1 << 20, 3] {
            want.record(v);
        }
        assert_eq!(h.load(), want);
    }

    /// A record made by another thread-local's destructor, after this
    /// thread's shard table may already be gone, is still counted.
    #[test]
    fn record_during_thread_teardown_is_kept() {
        struct RecordOnDrop(Hist);
        impl Drop for RecordOnDrop {
            fn drop(&mut self) {
                self.0.record(77);
            }
        }
        thread_local! {
            static LATE: RefCell<Option<RecordOnDrop>> = const { RefCell::new(None) };
        }
        let _g = guard();
        let h = hist("test.shards.teardown");
        std::thread::spawn({
            let h = h.clone();
            move || {
                // Registered before the shard table, so destroyed after it.
                LATE.with(|l| *l.borrow_mut() = Some(RecordOnDrop(h.clone())));
                h.record(1);
            }
        })
        .join()
        .unwrap();
        let mut want = LocalHist::default();
        want.record(1);
        want.record(77);
        assert_eq!(h.load(), want);
        assert_eq!(h.live_shards(), 0);
    }

    /// `reset` zeroes the retired cells and every live shard, including
    /// a shard whose thread is still alive.
    #[test]
    fn reset_zeroes_every_shard() {
        let _g = guard();
        let h = hist("test.shards.reset");
        h.record(9);
        std::thread::spawn({
            let h = h.clone();
            move || h.record(70)
        })
        .join()
        .unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let live = {
            let h = h.clone();
            std::thread::spawn(move || {
                h.record(400);
                tx.send(()).unwrap();
                go_rx.recv().unwrap();
                h.record(2);
            })
        };
        rx.recv().unwrap();
        assert_eq!(h.load().count(), 3);
        reset();
        assert_eq!(h.load(), LocalHist::default());
        go_tx.send(()).unwrap();
        live.join().unwrap();
        h.record(1);
        let mut want = LocalHist::default();
        want.record(2);
        want.record(1);
        assert_eq!(h.load(), want);
    }

    #[test]
    fn registry_is_get_or_create_and_kind_checked() {
        let _g = guard();
        let c1 = counter("test.registry.ctr");
        let c2 = counter("test.registry.ctr");
        c1.inc();
        c2.add(2);
        assert_eq!(c1.get(), 3, "same underlying cell");
        let g = gauge("test.registry.gauge");
        g.observe(5);
        g.observe(3);
        assert_eq!(g.get(), 5, "high-water mark only");
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let _ = counter("test.kindmismatch");
        let _ = gauge("test.kindmismatch");
    }

    #[test]
    fn snapshot_renders_sorted_and_stable() {
        let _g = guard();
        // Register out of order; snapshot must sort.
        let _ = counter("test.render.zzz");
        let h = hist("test.render.aaa");
        h.record(3);
        h.record(300);
        let snap = snapshot();
        let names: Vec<&str> = snap
            .metrics
            .iter()
            .map(|(n, _)| n.as_str())
            .filter(|n| n.starts_with("test.render."))
            .collect();
        assert_eq!(names, ["test.render.aaa", "test.render.zzz"]);
        let json = snap.to_json();
        assert!(json.contains("\"test.render.aaa\": {\"type\": \"hist\""));
        let prom = snap.to_prometheus();
        assert!(prom.contains("kacc_test_render_aaa_bucket{le=\"+Inf\"} 2"));
        assert!(prom.contains("kacc_test_render_aaa_sum 303"));
    }

    #[test]
    fn quantile_bound_is_conservative_and_max_capped() {
        let mut h = LocalHist::default();
        assert_eq!(h.quantile_bound(990_000), 0);
        for _ in 0..99 {
            h.record(100); // bucket [64, 127]
        }
        h.record(1000); // bucket [512, 1023]
                        // p50 lands in the 100s bucket; bound >= 100 and <= 127.
        let p50 = h.quantile_bound(500_000);
        assert!((100..=127).contains(&p50), "p50 bound {p50}");
        // p99 still inside the 100s bucket (99 of 100 samples).
        assert!(h.quantile_bound(990_000) <= 127);
        // p100 hits the outlier but is capped at the true max.
        assert_eq!(h.quantile_bound(1_000_000), 1000);
        // A single sample: every quantile is that sample's bound.
        let mut one = LocalHist::default();
        one.record(7);
        assert_eq!(one.quantile_bound(990_000), 7);
    }
}
