//! Request metrics with Prometheus text exposition.
//!
//! Every metric family the daemon exposes is declared exactly once, as
//! one row of [`FAMILIES`]: its name, HELP text, kind, label set,
//! health-schema key, and the typed handle in [`Metrics`] that holds
//! its values. Everything else reads that table: [`Metrics::render`]
//! walks it to produce the standard `text/plain; version=0.0.4`
//! exposition, [`REQUIRED_SERIES`] is its name column, the health
//! sampler (`crate::health_bridge::MetricsSampler`) derives its schema
//! and its samples from the health keys, and the docs check
//! (`tests/docs_links.rs`) matches it against the metric tables in
//! `docs/`. [`lint_exposition`] validates the format and doubles as the
//! CI smoke and chaos jobs' correctness check.
//!
//! # Hot-path layout
//!
//! Recording is a direct atomic op on a public handle field — no lookup
//! by name, no dynamic dispatch, no lock. Labelled families are
//! [`PerLabel`] arrays indexed by their label enum. The per-request
//! counters are [`ShardedCounter`]s, so concurrent request threads never
//! bounce one counter's cache line between cores. Histogram lines render
//! through name prefixes built once per process, keeping the scrape path
//! to integer formatting.
//!
//! Every series is **pre-registered**: the label sets are fixed arrays,
//! so each family appears in the very first scrape at zero rather than
//! materializing on first increment (dashboards and the `increase()`
//! family of PromQL functions need the zero point). The chaos job
//! asserts this through [`REQUIRED_SERIES`] +
//! [`lint_exposition_with_required`].

use crate::batcher::FlushReason;
use crate::fault::FaultKind;
use chemcost_health::AlertState;
use chemcost_lifecycle::{LifecycleObserver, LifecycleState, PromotionOutcome, TRANSITIONS};
use chemcost_obs::{label_enum, LabelValue};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::marker::PhantomData;
use std::ops::{Deref, Index};
use std::slice::from_ref;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

label_enum! {
    /// Route label a request is accounted under. Fixed set — unknown
    /// paths all collapse into `Other` so label cardinality stays bounded.
    pub enum Route {
        /// `GET /healthz`
        Healthz => "healthz",
        /// `GET /metrics`
        Metrics => "metrics",
        /// `GET /v1/models`
        Models => "models",
        /// `POST /v1/models/{name}/reload`
        Reload => "reload",
        /// `POST /v1/predict`
        Predict => "predict",
        /// `POST /v1/advise`
        Advise => "advise",
        /// `POST /v1/observe` — ground-truth runtime reports.
        Observe => "observe",
        /// `GET /v1/quality` and `GET /v1/quality/next_experiments`.
        Quality => "quality",
        /// `GET /v1/lifecycle` and `POST /v1/lifecycle/*` operator overrides.
        Lifecycle => "lifecycle",
        /// `POST /v1/shutdown`
        Shutdown => "shutdown",
        /// `GET /debug/requests` — the flight recorder.
        Debug => "debug",
        /// `GET /v1/health` — the SLO-driven readiness verdict.
        Health => "health",
        /// Anything else (404s, bad methods, shed connections, …).
        Other => "other",
    }
}

label_enum! {
    /// One stage of the `/v1/advise` pipeline, timed separately so a slow
    /// answer can be attributed to the model sweep, the cache, or JSON
    /// encoding.
    pub enum AdviseStage {
        /// Key construction + cache probe (and hit replay).
        Cache => "cache",
        /// The candidate sweep through the flat model.
        Sweep => "sweep",
        /// Reductions + JSON rendering + cache insert.
        Encode => "encode",
        /// Shadow-candidate scoring of the primary recommendation.
        Shadow => "shadow",
    }
}

label_enum! {
    /// One deadline checkpoint in the request path: where a 504's
    /// budget ran out.
    pub enum DeadlineStage {
        /// The budget was already gone when a worker dequeued the request.
        Queue => "queue",
        /// Expired at the advise cache probe.
        Cache => "cache",
        /// Expired before the candidate sweep could start.
        Sweep => "sweep",
    }
}

label_enum! {
    /// One stage of a request's end-to-end timeline through the
    /// event-driven data plane. The six stages partition the first-byte
    /// → last-byte wall time (see `crate::timeline`).
    pub enum RequestStage {
        /// First byte read → parse complete (the deadline anchor).
        Read => "read",
        /// Parse complete → a worker dequeued the request.
        Queue => "queue",
        /// Time the worker spent blocked in the micro-batcher (window
        /// wait plus the coalesced model call).
        BatchWait => "batch_wait",
        /// Worker dequeue → handler done, minus the batch wait.
        Handler => "handler",
        /// Handler done → response encoded onto the wire buffer (waiting
        /// for its turn in the pipeline reorder).
        Reorder => "reorder",
        /// Response encoded → last byte accepted by the socket.
        Write => "write",
    }
}

impl RequestStage {
    /// The field key in `request.timeline` obs events and in the
    /// `/debug/requests` `stages` object (label + `_us`, values are
    /// microseconds).
    pub fn field_key(self) -> &'static str {
        ["read_us", "queue_us", "batch_wait_us", "handler_us", "reorder_us", "write_us"]
            [self as usize]
    }
}

label_enum! {
    /// What became of one `/v1/observe` report.
    pub enum QualityOutcome {
        /// Accepted into the rolling quality statistics.
        Accepted => "accepted",
        /// Rejected with a structured 4xx, statistics untouched.
        Rejected => "rejected",
    }
}

/// Version baked into `chemcost_build_info`.
const BUILD_VERSION: &str = env!("CARGO_PKG_VERSION");
/// Git SHA baked into `chemcost_build_info` (set `CHEMCOST_GIT_SHA` at
/// build time; CI does).
const BUILD_GIT_SHA: &str = match option_env!("CHEMCOST_GIT_SHA") {
    Some(sha) => sha,
    None => "unknown",
};
/// Working-tree dirtiness baked into `chemcost_build_info` (set
/// `CHEMCOST_GIT_DIRTY` to `"true"`/`"false"` at build time; CI does).
/// `unknown` means the build script didn't say — e.g. a plain local
/// `cargo build`.
const BUILD_DIRTY: &str = match option_env!("CHEMCOST_GIT_DIRTY") {
    Some(dirty) => dirty,
    None => "unknown",
};

/// The `(version, git_sha, dirty)` triple stamped on
/// `chemcost_build_info`, reused verbatim by `GET /v1/quality` and
/// `chemcost --version` so every surface reports the same build.
pub fn build_info() -> (&'static str, &'static str, &'static str) {
    (BUILD_VERSION, BUILD_GIT_SHA, BUILD_DIRTY)
}

/// A monotonically increasing counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Stripes per [`ShardedCounter`]. Power of two so the per-thread pick
/// is a mask.
const COUNTER_SHARDS: usize = 8;

/// One cache line's worth of counter, so neighbouring stripes never
/// false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// Per-thread stripe index, handed out round-robin on first use so a
/// steady pool of request threads spreads evenly over the stripes.
fn counter_stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
    }
    STRIPE.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            return v;
        }
        let v = NEXT.fetch_add(1, Ordering::Relaxed) & (COUNTER_SHARDS - 1);
        s.set(v);
        v
    })
}

/// A monotonically increasing counter striped across cache-line-padded
/// shards: increments touch only the calling thread's stripe, reads sum
/// all stripes. Written per request, read per scrape.
#[derive(Default)]
pub struct ShardedCounter {
    stripes: [PaddedU64; COUNTER_SHARDS],
}

impl ShardedCounter {
    /// Add one to the calling thread's stripe.
    #[inline]
    pub fn inc(&self) {
        self.stripes[counter_stripe()].0.fetch_add(1, Ordering::Relaxed);
    }

    /// Sum over all stripes.
    pub fn get(&self) -> u64 {
        self.stripes.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }
}

/// A gauge: set outright, or moved by paired `inc`/`dec`.
#[derive(Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtract one.
    #[inline]
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Replace the value.
    pub fn set(&self, v: usize) {
        self.0.store(v as i64, Ordering::Relaxed);
    }

    /// Current value, clamped at 0 — concurrent inc/dec can transiently
    /// observe a negative value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed).max(0) as u64
    }
}

/// Bucket layout and sum unit of a [`Histogram`].
pub trait Scale {
    /// Finite bucket upper bounds; `+Inf` is the implied 11th bucket.
    const BOUNDS: &'static [f64; 10];
    /// Divisor taking the raw integer sum to the family's unit.
    const SUM_DIVISOR: f64;
}

/// Durations: log-spaced buckets 100 µs – 5 s. The sum is kept in whole
/// microseconds and rendered in seconds.
pub enum Seconds {}

impl Scale for Seconds {
    const BOUNDS: &'static [f64; 10] = &[1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1.0, 5.0];
    const SUM_DIVISOR: f64 = 1e6;
}

/// Sizes (rows per batch, events per wake): powers of two up to 512.
/// The sum is a plain count.
pub enum Rows {}

impl Scale for Rows {
    const BOUNDS: &'static [f64; 10] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0];
    const SUM_DIVISOR: f64 = 1.0;
}

/// Preformatted line prefixes for one histogram's fixed series names —
/// everything up to the sample value, built once per process so a scrape
/// only formats the integers.
struct RenderSlab {
    /// `name_bucket{labels,le="…"} ` for each bucket, `+Inf` last.
    bucket_prefixes: Vec<String>,
    /// `name_sum ` / `name_sum{labels} `.
    sum_prefix: String,
    /// `name_count ` / `name_count{labels} `.
    count_prefix: String,
}

impl RenderSlab {
    fn build(name: &str, labels: &str, bounds: &[f64]) -> RenderSlab {
        let extra = if labels.is_empty() { String::new() } else { format!("{labels},") };
        let bucket_prefixes = bounds
            .iter()
            .map(|le| le.to_string())
            .chain(["+Inf".to_string()])
            .map(|le| format!("{name}_bucket{{{extra}le=\"{le}\"}} "))
            .collect();
        let (sum_prefix, count_prefix) = if labels.is_empty() {
            (format!("{name}_sum "), format!("{name}_count "))
        } else {
            (format!("{name}_sum{{{labels}}} "), format!("{name}_count{{{labels}}} "))
        };
        RenderSlab { bucket_prefixes, sum_prefix, count_prefix }
    }
}

/// Per-bucket counts (overflow last) with sum and count — one
/// Prometheus histogram series set, bucketed by its [`Scale`].
pub struct Histogram<S: Scale = Seconds> {
    buckets: [AtomicU64; 11],
    sum: AtomicU64,
    count: AtomicU64,
    /// Built on first render; each histogram instance renders under one
    /// fixed `(name, labels)` pair.
    slab: OnceLock<RenderSlab>,
    scale: PhantomData<S>,
}

impl<S: Scale> Default for Histogram<S> {
    fn default() -> Self {
        Histogram {
            buckets: Default::default(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
            slab: OnceLock::new(),
            scale: PhantomData,
        }
    }
}

impl<S: Scale> Histogram<S> {
    fn observe_at(&self, x: f64, raw: u64) {
        let bucket = S::BOUNDS.iter().position(|&b| x <= b).unwrap_or(S::BOUNDS.len());
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(raw, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Observations so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Raw sum so far: microseconds for [`Seconds`], units for [`Rows`].
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Snapshot as `(buckets, raw sum, count)`. The count is read
    /// *first*: observing bumps bucket → sum → count, so reading in the
    /// opposite order guarantees `sum(buckets) >= count` — a snapshot can
    /// under-report the very newest observation but never tear a
    /// bucket/count pair.
    pub fn snapshot(&self) -> ([u64; 11], u64, u64) {
        let count = self.count.load(Ordering::Acquire);
        let sum = self.sum.load(Ordering::Acquire);
        let mut buckets = [0u64; 11];
        for (b, a) in buckets.iter_mut().zip(&self.buckets) {
            *b = a.load(Ordering::Acquire);
        }
        (buckets, sum, count)
    }

    /// Render cumulative `name_bucket{labels,le="…"}` lines plus sum and
    /// count. `labels` (e.g. `stage="read"`, or empty) is only consulted
    /// on the first render.
    fn render(&self, out: &mut String, name: &str, labels: impl FnOnce() -> String) {
        let slab = self.slab.get_or_init(|| RenderSlab::build(name, &labels(), S::BOUNDS));
        let mut cumulative = 0u64;
        for (bucket, prefix) in self.buckets.iter().zip(&slab.bucket_prefixes) {
            cumulative += bucket.load(Ordering::Relaxed);
            out.push_str(prefix);
            let _ = writeln!(out, "{cumulative}");
        }
        out.push_str(&slab.sum_prefix);
        let _ = writeln!(out, "{}", self.sum() as f64 / S::SUM_DIVISOR);
        // `_count` is the `+Inf` total just read, not a separate load of
        // `count`: a racing observation could land between the bucket
        // and count loads and tear the pair.
        out.push_str(&slab.count_prefix);
        let _ = writeln!(out, "{cumulative}");
    }
}

impl Histogram<Seconds> {
    /// Record one duration.
    pub fn observe(&self, elapsed: Duration) {
        self.observe_at(elapsed.as_secs_f64(), elapsed.as_micros() as u64);
    }

    /// Mean recorded duration in seconds (NaN before the first
    /// observation).
    pub fn mean_seconds(&self) -> f64 {
        match self.count() {
            0 => f64::NAN,
            n => self.sum() as f64 / 1e6 / n as f64,
        }
    }
}

impl Histogram<Rows> {
    /// Record one size.
    pub fn observe(&self, n: usize) {
        self.observe_at(n as f64, n as u64);
    }
}

/// One handle per value of the label enum `L`, indexed by `L`: the
/// label's discriminant is its slot, so recording stays a plain array
/// access. Derefs to the handles in label order.
pub struct PerLabel<L, H, const N: usize> {
    handles: [H; N],
    label: PhantomData<fn() -> L>,
}

impl<L: LabelValue, H: Default, const N: usize> Default for PerLabel<L, H, N> {
    fn default() -> Self {
        const { assert!(N == L::LABELS.len(), "one handle per label value") };
        PerLabel { handles: std::array::from_fn(|_| H::default()), label: PhantomData }
    }
}

impl<L: LabelValue, H, const N: usize> Index<L> for PerLabel<L, H, N> {
    type Output = H;

    #[inline]
    fn index(&self, label: L) -> &H {
        &self.handles[label.index()]
    }
}

impl<L, H, const N: usize> Deref for PerLabel<L, H, N> {
    type Target = [H];

    fn deref(&self) -> &[H] {
        &self.handles
    }
}

/// Rolling model-quality numbers for one `(model, version, machine)`
/// serving group, as computed by the quality hub from observed runtimes
/// and pushed here for exposition. All window statistics are `NaN`
/// until the first ground-truth observation arrives — the gauges render
/// `NaN` rather than a misleading zero.
#[derive(Debug, Clone, Copy)]
pub struct QualityStats {
    /// Ground-truth observations ever accepted for this group.
    pub observations: u64,
    /// Residuals currently inside the sliding window.
    pub window: u64,
    /// Windowed mean absolute percentage error.
    pub mape: f64,
    /// Windowed signed bias in seconds (`mean(predicted − measured)`).
    pub bias_seconds: f64,
    /// Windowed absolute-residual median, in seconds.
    pub residual_p50: f64,
    /// Windowed absolute-residual 90th percentile, in seconds.
    pub residual_p90: f64,
    /// Windowed absolute-residual 99th percentile, in seconds.
    pub residual_p99: f64,
    /// Fraction of σ-carrying residuals inside the predicted ±σ band.
    pub calibration_ratio: f64,
    /// Times the Page–Hinkley drift detector tripped for this group.
    pub drift_trips: u64,
    /// Is the group currently flagged degraded (drift tripped and no
    /// successful reload since)?
    pub degraded: bool,
    /// Observations currently retained in the group's training pool.
    pub pool_size: u64,
    /// Observations silently evicted from the full training pool.
    pub pool_evictions: u64,
}

impl Default for QualityStats {
    fn default() -> QualityStats {
        QualityStats {
            observations: 0,
            window: 0,
            mape: f64::NAN,
            bias_seconds: f64::NAN,
            residual_p50: f64::NAN,
            residual_p90: f64::NAN,
            residual_p99: f64::NAN,
            calibration_ratio: f64::NAN,
            drift_trips: 0,
            degraded: false,
            pool_size: 0,
            pool_evictions: 0,
        }
    }
}

/// One registered quality group: its identifying labels plus the most
/// recently pushed stats.
#[derive(Debug, Clone)]
pub struct QualityEntry {
    /// Model name label.
    pub model: String,
    /// Model version label.
    pub version: u64,
    /// Machine label.
    pub machine: String,
    /// Latest stats snapshot.
    pub stats: QualityStats,
}

/// One lifecycle group's current state, for the per-group state gauge.
/// Keyed by (model, machine) — unlike quality groups, the lifecycle of a
/// model spans its versions.
struct LifecycleEntry {
    model: String,
    machine: String,
    /// Current state (the gauge exports [`LifecycleState::code`]).
    state: LifecycleState,
}

label_enum! {
    /// Prometheus metric type of a family; the label is the `# TYPE`
    /// keyword.
    pub enum Kind {
        /// Monotonic; the name ends in `_total`.
        Counter => "counter",
        /// Goes up and down.
        Gauge => "gauge",
        /// Bucketed observations with `_bucket`/`_sum`/`_count` series.
        Histogram => "histogram",
    }
}

/// How a family's series are labelled.
#[derive(Debug, Clone, Copy)]
pub enum Labels {
    /// One unlabelled series.
    None,
    /// One series per value of a fixed label enum: `(key, values)`.
    Enum(&'static str, &'static [&'static str]),
    /// `version`, `git_sha` and `dirty` of this build.
    Build,
    /// One series per legal lifecycle `(from, to)` pair in
    /// [`TRANSITIONS`].
    Transitions,
    /// One series per registered `(model, version, machine)` quality
    /// group — times each listed `quantile` value, when there are any.
    Quality(&'static [&'static str]),
    /// One series per `(model, machine)` lifecycle group.
    Lifecycle,
}

/// How a family feeds the health plane's self-scrape schema.
#[derive(Debug, Clone, Copy)]
pub enum HealthKey {
    /// Not sampled.
    None,
    /// One series per label value, named `key.<label>` (`key` when
    /// unlabelled), of the family's own kind.
    Each(&'static str),
    /// One counter: the sum over every label value.
    Sum(&'static str),
    /// A histogram's observation count, and optionally its raw sum, as
    /// counters: `Totals(count_name, sum_name)`.
    Totals(&'static str, Option<&'static str>),
    /// One series per `(model, machine)` quality group, named
    /// `key.<model>@<machine>`. Counters sum the group's versions;
    /// gauges become float values holding the worst (max) version with
    /// data, NaN until any has.
    Group(&'static str),
}

/// The handle(s) behind one family, borrowed from a [`Metrics`].
pub(crate) enum Source<'a> {
    /// The constant build-info series.
    Build,
    /// Plain counters, one per fixed label set.
    Counters(&'a [Counter]),
    /// Sharded counters, one per fixed label set.
    Sharded(&'a [ShardedCounter]),
    /// Gauges, one per fixed label set.
    Gauges(&'a [Gauge]),
    /// A computed float gauge.
    Value(f64),
    /// Duration histograms, one per fixed label set.
    Seconds(&'a [Histogram<Seconds>]),
    /// Size histograms, one per fixed label set.
    Rows(&'a [Histogram<Rows>]),
    /// A per-quality-group reading: `(stats, quantile index) -> value`.
    Quality(fn(&QualityStats, usize) -> f64),
    /// The per-lifecycle-group state codes.
    Lifecycle,
}

/// One metric family: the single place its name, HELP text, kind,
/// labels, health-schema key and handle are declared.
pub struct Family {
    /// Family name.
    pub name: &'static str,
    /// `# HELP` text.
    pub help: &'static str,
    /// `# TYPE`.
    pub kind: Kind,
    /// Label set of the family's series.
    pub labels: Labels,
    /// How the family feeds the health schema.
    pub health: HealthKey,
    /// The handle(s) holding the family's values.
    pub(crate) source: for<'a> fn(&'a Metrics) -> Source<'a>,
}

impl Family {
    /// `key="value"` pairs of the `i`-th fixed series (empty when
    /// unlabelled).
    fn fixed_labels(&self, i: usize) -> String {
        match self.labels {
            Labels::Enum(key, values) => format!("{key}=\"{}\"", values[i]),
            Labels::Transitions => {
                let (from, to) = TRANSITIONS[i];
                format!("from=\"{}\",to=\"{}\"", from.label(), to.label())
            }
            _ => String::new(),
        }
    }

    /// Write one `name{labels} value` line per fixed series.
    fn write_values(&self, out: &mut String, values: impl Iterator<Item = u64>) {
        for (i, v) in values.enumerate() {
            let labels = self.fixed_labels(i);
            if labels.is_empty() {
                let _ = writeln!(out, "{} {v}", self.name);
            } else {
                let _ = writeln!(out, "{}{{{labels}}} {v}", self.name);
            }
        }
    }

    fn write_histograms<S: Scale>(&self, out: &mut String, histograms: &[Histogram<S>]) {
        for (i, h) in histograms.iter().enumerate() {
            h.render(out, self.name, || self.fixed_labels(i));
        }
    }
}

/// Every metric family the service exposes, in exposition order.
#[rustfmt::skip]
pub const FAMILIES: &[Family] = &[
    Family { name: "chemcost_build_info", kind: Kind::Gauge,
        labels: Labels::Build, health: HealthKey::None,
        help: "Build metadata; constant 1.",
        source: |_| Source::Build },
    Family { name: "chemcost_requests_total", kind: Kind::Counter,
        labels: Labels::Enum("route", Route::LABELS), health: HealthKey::Each("requests"),
        help: "Requests handled, by route.",
        source: |m| Source::Sharded(&m.requests) },
    Family { name: "chemcost_request_errors_total", kind: Kind::Counter,
        labels: Labels::Enum("route", Route::LABELS), health: HealthKey::Each("errors"),
        help: "Error responses (status >= 400), by route.",
        source: |m| Source::Sharded(&m.errors) },
    Family { name: "chemcost_requests_in_flight", kind: Kind::Gauge,
        labels: Labels::None, health: HealthKey::Each("inflight"),
        help: "Requests currently being handled.",
        source: |m| Source::Gauges(from_ref(&m.in_flight)) },
    Family { name: "chemcost_pool_queue_depth", kind: Kind::Gauge,
        labels: Labels::None, health: HealthKey::Each("queue.depth"),
        help: "Connections queued for the worker pool.",
        source: |m| Source::Gauges(from_ref(&m.pool_queue_depth)) },
    Family { name: "chemcost_requests_shed_total", kind: Kind::Counter,
        labels: Labels::None, health: HealthKey::Each("shed"),
        help: "Connections answered 503 because the pool queue was full.",
        source: |m| Source::Counters(from_ref(&m.shed)) },
    Family { name: "chemcost_request_duration_seconds", kind: Kind::Histogram,
        labels: Labels::None, health: HealthKey::Each("latency"),
        help: "Request handling latency.",
        source: |m| Source::Seconds(from_ref(&m.latency)) },
    Family { name: "chemcost_advise_stage_duration_seconds", kind: Kind::Histogram,
        labels: Labels::Enum("stage", AdviseStage::LABELS), health: HealthKey::Each("advise"),
        help: "Advise pipeline latency, by stage (cache probe, model sweep, JSON encode).",
        source: |m| Source::Seconds(&m.advise_stages) },
    Family { name: "chemcost_advise_cache_hits_total", kind: Kind::Counter,
        labels: Labels::None, health: HealthKey::Each("cache.hits"),
        help: "Advise answers served from cache.",
        source: |m| Source::Sharded(from_ref(&m.cache_hits)) },
    Family { name: "chemcost_advise_cache_misses_total", kind: Kind::Counter,
        labels: Labels::None, health: HealthKey::Each("cache.misses"),
        help: "Advise answers that ran the sweep.",
        source: |m| Source::Sharded(from_ref(&m.cache_misses)) },
    Family { name: "chemcost_advise_cache_entries", kind: Kind::Gauge,
        labels: Labels::None, health: HealthKey::Each("cache.entries"),
        help: "Cached advise answers.",
        source: |m| Source::Gauges(from_ref(&m.cache_entries)) },
    Family { name: "chemcost_deadline_exceeded_total", kind: Kind::Counter,
        labels: Labels::Enum("stage", DeadlineStage::LABELS),
        health: HealthKey::Sum("deadline_exceeded"),
        help: "Requests answered 504, by the stage where the budget ran out.",
        source: |m| Source::Counters(&m.deadline_exceeded) },
    Family { name: "chemcost_model_staleness_seconds", kind: Kind::Gauge,
        labels: Labels::None, health: HealthKey::Each("staleness_seconds"),
        help: "Seconds since the serving model went stale (a reload failed); 0 when fresh.",
        source: |m| Source::Value(m.model_staleness_seconds()) },
    Family { name: "chemcost_model_reload_failures_total", kind: Kind::Counter,
        labels: Labels::None, health: HealthKey::Each("reload_failures"),
        help: "Failed model reloads (the last-good model kept serving).",
        source: |m| Source::Counters(from_ref(&m.reload_failures)) },
    Family { name: "chemcost_advise_stale_served_total", kind: Kind::Counter,
        labels: Labels::None, health: HealthKey::Each("stale_served"),
        help: "Advise answers replayed from an older model version under overload.",
        source: |m| Source::Counters(from_ref(&m.stale_served)) },
    Family { name: "chemcost_faults_injected_total", kind: Kind::Counter,
        labels: Labels::Enum("kind", FaultKind::LABELS), health: HealthKey::None,
        help: "Faults injected by the chaos plane, by kind.",
        source: |m| Source::Counters(&m.faults_injected) },
    Family { name: "chemcost_quality_observations_total", kind: Kind::Counter,
        labels: Labels::Enum("outcome", QualityOutcome::LABELS), health: HealthKey::Each("quality"),
        help: "Ground-truth runtime reports on /v1/observe, by outcome (accepted into the rolling stats, or rejected 4xx).",
        source: |m| Source::Counters(&m.quality_observations) },
    Family { name: "chemcost_model_mape", kind: Kind::Gauge,
        labels: Labels::Quality(&[]), health: HealthKey::Group("quality.mape"),
        help: "Windowed mean absolute percentage error of served predictions against observed runtimes; NaN until the first observation.",
        source: |_| Source::Quality(|s, _| s.mape) },
    Family { name: "chemcost_model_bias_seconds", kind: Kind::Gauge,
        labels: Labels::Quality(&[]), health: HealthKey::None,
        help: "Windowed signed bias mean(predicted - measured) in seconds; positive means the model over-promises runtime.",
        source: |_| Source::Quality(|s, _| s.bias_seconds) },
    Family { name: "chemcost_residual_seconds", kind: Kind::Gauge,
        labels: Labels::Quality(&["0.5", "0.9", "0.99"]), health: HealthKey::None,
        help: "Windowed absolute prediction residual quantiles, in seconds.",
        source: |_| Source::Quality(|s, q| [s.residual_p50, s.residual_p90, s.residual_p99][q]) },
    Family { name: "chemcost_calibration_ratio", kind: Kind::Gauge,
        labels: Labels::Quality(&[]), health: HealthKey::None,
        help: "Fraction of sigma-carrying residuals inside the predicted +/-sigma band (well-calibrated Gaussian: ~0.68).",
        source: |_| Source::Quality(|s, _| s.calibration_ratio) },
    Family { name: "chemcost_model_degraded", kind: Kind::Gauge,
        labels: Labels::Quality(&[]), health: HealthKey::None,
        help: "1 when the drift detector has tripped for the group and the model has not been refreshed since, else 0.",
        source: |_| Source::Quality(|s, _| f64::from(u8::from(s.degraded))) },
    Family { name: "chemcost_drift_trips_total", kind: Kind::Counter,
        labels: Labels::Quality(&[]), health: HealthKey::Group("quality.drift_trips"),
        help: "Page-Hinkley drift-detector trips over the residual stream, per serving group.",
        source: |_| Source::Quality(|s, _| s.drift_trips as f64) },
    Family { name: "chemcost_quality_pool_size", kind: Kind::Gauge,
        labels: Labels::Quality(&[]), health: HealthKey::None,
        help: "Observations currently retained in the group's training pool.",
        source: |_| Source::Quality(|s, _| s.pool_size as f64) },
    Family { name: "chemcost_quality_pool_evictions_total", kind: Kind::Counter,
        labels: Labels::Quality(&[]), health: HealthKey::None,
        help: "Observations silently evicted from the full training pool, per serving group.",
        source: |_| Source::Quality(|s, _| s.pool_evictions as f64) },
    Family { name: "chemcost_lifecycle_state", kind: Kind::Gauge,
        labels: Labels::Lifecycle, health: HealthKey::None,
        help: "Retrain/shadow/promote state per (model, machine) group: 0=idle 1=queued 2=training 3=shadow 4=promoted 5=rejected 6=rolled-back.",
        source: |_| Source::Lifecycle },
    Family { name: "chemcost_lifecycle_transitions_total", kind: Kind::Counter,
        labels: Labels::Transitions, health: HealthKey::None,
        help: "Lifecycle state-machine transitions taken, by (from, to) pair.",
        source: |m| Source::Counters(&m.lifecycle_transitions) },
    Family { name: "chemcost_lifecycle_queue_depth", kind: Kind::Gauge,
        labels: Labels::None, health: HealthKey::None,
        help: "Retrain jobs waiting in the background trainer's bounded queue.",
        source: |m| Source::Gauges(from_ref(&m.lifecycle_queue_depth)) },
    Family { name: "chemcost_lifecycle_fit_duration_seconds", kind: Kind::Histogram,
        labels: Labels::None, health: HealthKey::None,
        help: "Wall time of one background candidate fit (success or failure).",
        source: |m| Source::Seconds(from_ref(&m.lifecycle_fit_duration)) },
    Family { name: "chemcost_lifecycle_promotions_total", kind: Kind::Counter,
        labels: Labels::Enum("outcome", PromotionOutcome::LABELS), health: HealthKey::None,
        help: "Promotion decisions, by outcome (auto, operator, rejected, rolled-back).",
        source: |m| Source::Counters(&m.lifecycle_promotions) },
    Family { name: "chemcost_connections_open", kind: Kind::Gauge,
        labels: Labels::None, health: HealthKey::Each("connections.open"),
        help: "Client connections currently open in the event loop.",
        source: |m| Source::Gauges(from_ref(&m.connections_open)) },
    Family { name: "chemcost_batch_size", kind: Kind::Histogram,
        labels: Labels::None,
        health: HealthKey::Totals("batch.calls", Some("batch.rows")),
        help: "Coalesced rows per flat-model batch call made by the micro-batcher.",
        source: |m| Source::Rows(from_ref(&m.batch_size)) },
    Family { name: "chemcost_batch_flush_total", kind: Kind::Counter,
        labels: Labels::Enum("reason", FlushReason::LABELS), health: HealthKey::Each("batch.flush"),
        help: "Micro-batcher flushes, by trigger (full budget, window expiry, drain, shutdown).",
        source: |m| Source::Counters(&m.batch_flushes) },
    Family { name: "chemcost_keepalive_reuses_total", kind: Kind::Counter,
        labels: Labels::None, health: HealthKey::Each("keepalive_reuses"),
        help: "Requests served on a reused keep-alive exchange (any request after a connection's first).",
        source: |m| Source::Sharded(from_ref(&m.keepalive_reuses)) },
    Family { name: "chemcost_request_stage_duration_seconds", kind: Kind::Histogram,
        labels: Labels::Enum("stage", RequestStage::LABELS), health: HealthKey::Each("stage"),
        help: "Per-stage request-timeline latency through the event loop (read, queue, batch_wait, handler, reorder, write); the stages of one request sum to its first-byte to last-byte wall time.",
        source: |m| Source::Seconds(&m.request_stages) },
    Family { name: "chemcost_event_loop_iteration_duration_seconds", kind: Kind::Histogram,
        labels: Labels::None, health: HealthKey::Totals("loop.iterations", None),
        help: "Processing time of one event-loop pass (one epoll wake).",
        source: |m| Source::Seconds(from_ref(&m.loop_iteration)) },
    Family { name: "chemcost_event_loop_events_per_wake", kind: Kind::Histogram,
        labels: Labels::None, health: HealthKey::None,
        help: "Readiness events delivered per epoll wake.",
        source: |m| Source::Rows(from_ref(&m.loop_events_per_wake)) },
    Family { name: "chemcost_connections_read_paused", kind: Kind::Gauge,
        labels: Labels::None, health: HealthKey::Each("connections.read_paused"),
        help: "Connections whose reads are paused by backpressure (pipeline cap or write high-water mark).",
        source: |m| Source::Gauges(from_ref(&m.read_paused)) },
    Family { name: "chemcost_connections_write_stalled", kind: Kind::Gauge,
        labels: Labels::None, health: HealthKey::Each("connections.write_stalled"),
        help: "Connections holding unsent response bytes after a flush (slow consumers).",
        source: |m| Source::Gauges(from_ref(&m.write_stalled)) },
    Family { name: "chemcost_alerts_transitions_total", kind: Kind::Counter,
        labels: Labels::Enum("to", AlertState::LABELS), health: HealthKey::None,
        help: "SLO alert state transitions, by destination state.",
        source: |m| Source::Counters(&m.alert_transitions) },
    Family { name: "chemcost_alerts_firing", kind: Kind::Gauge,
        labels: Labels::None, health: HealthKey::None,
        help: "SLO alerts currently firing.",
        source: |m| Source::Gauges(from_ref(&m.alerts_firing)) },
    Family { name: "chemcost_alerts_pending", kind: Kind::Gauge,
        labels: Labels::None, health: HealthKey::None,
        help: "SLO alerts currently pending.",
        source: |m| Source::Gauges(from_ref(&m.alerts_pending)) },
    Family { name: "chemcost_slo_evaluations_total", kind: Kind::Counter,
        labels: Labels::None, health: HealthKey::None,
        help: "SLO evaluations run by the health sampler.",
        source: |m| Source::Counters(from_ref(&m.slo_evaluations)) },
    Family { name: "chemcost_slo_breaching", kind: Kind::Gauge,
        labels: Labels::None, health: HealthKey::None,
        help: "SLOs breaching both burn windows on the latest evaluation.",
        source: |m| Source::Gauges(from_ref(&m.slo_breaching)) },
    Family { name: "chemcost_slo_scrapes_total", kind: Kind::Counter,
        labels: Labels::None, health: HealthKey::None,
        help: "Self-scrape samples taken by the health sampler.",
        source: |m| Source::Counters(from_ref(&m.slo_scrapes)) },
];

/// Every metric family the service exposes, by family name: the name
/// column of [`FAMILIES`]. The smoke and chaos CI jobs pass this to
/// [`lint_exposition_with_required`] so a series silently dropped from
/// [`Metrics::render`] (or one that only materializes after its first
/// increment) fails the scrape check.
pub const REQUIRED_SERIES: &[&str] = &{
    let mut names = [""; FAMILIES.len()];
    let mut i = 0;
    while i < names.len() {
        names[i] = FAMILIES[i].name;
        i += 1;
    }
    names
};

/// Shared, thread-safe service metrics. Each public field is the handle
/// of one family of [`FAMILIES`] (whose row documents it); record into
/// it directly. The methods below are the recordings with logic of
/// their own.
#[derive(Default)]
pub struct Metrics {
    pub requests: PerLabel<Route, ShardedCounter, 13>,
    pub errors: PerLabel<Route, ShardedCounter, 13>,
    pub in_flight: Gauge,
    pub pool_queue_depth: Gauge,
    pub shed: Counter,
    pub latency: Histogram,
    pub advise_stages: PerLabel<AdviseStage, Histogram, 4>,
    pub cache_hits: ShardedCounter,
    pub cache_misses: ShardedCounter,
    pub cache_entries: Gauge,
    pub deadline_exceeded: PerLabel<DeadlineStage, Counter, 3>,
    pub reload_failures: Counter,
    pub stale_served: Counter,
    pub faults_injected: PerLabel<FaultKind, Counter, 5>,
    pub quality_observations: PerLabel<QualityOutcome, Counter, 2>,
    /// Per-`(model, version, machine)` quality gauges, upserted by the
    /// quality hub. A `Vec` behind a lock, not atomics: the label set is
    /// dynamic (it follows the model registry) but tiny and updated only
    /// on observe/reload, never on the request hot path.
    quality: parking_lot::RwLock<Vec<QualityEntry>>,
    /// Per-`(model, machine)` lifecycle state gauge, upserted by the
    /// lifecycle hub through the [`LifecycleObserver`] bridge.
    lifecycle: parking_lot::RwLock<Vec<LifecycleEntry>>,
    /// Valid lifecycle transitions taken, indexed by position in
    /// [`TRANSITIONS`] (see [`Metrics::record_lifecycle_transition`]).
    lifecycle_transitions: [Counter; TRANSITIONS.len()],
    pub lifecycle_queue_depth: Gauge,
    pub lifecycle_fit_duration: Histogram,
    pub lifecycle_promotions: PerLabel<PromotionOutcome, Counter, 4>,
    pub connections_open: Gauge,
    pub batch_size: Histogram<Rows>,
    pub batch_flushes: PerLabel<FlushReason, Counter, 4>,
    pub keepalive_reuses: ShardedCounter,
    pub request_stages: PerLabel<RequestStage, Histogram, 6>,
    pub loop_iteration: Histogram,
    pub loop_events_per_wake: Histogram<Rows>,
    pub read_paused: Gauge,
    pub write_stalled: Gauge,
    pub alert_transitions: PerLabel<AlertState, Counter, 4>,
    pub alerts_firing: Gauge,
    pub alerts_pending: Gauge,
    pub slo_evaluations: Counter,
    pub slo_breaching: Gauge,
    pub slo_scrapes: Counter,
    /// [`now_stamp`] of the moment the serving model went stale (first
    /// failed reload after a success); 0 = fresh.
    stale_since: AtomicU64,
    /// [`now_stamp`] of the most recent shed; 0 = never.
    last_shed: AtomicU64,
}

/// Micros elapsed since a process-wide monotonic anchor, offset by +1 so
/// 0 can mean "unset" in the timestamp atomics.
fn now_stamp() -> u64 {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    ANCHOR.get_or_init(Instant::now).elapsed().as_micros() as u64 + 1
}

impl Metrics {
    /// Fresh zeroed metrics.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Record one request: its route, whether the response was an error
    /// (HTTP status >= 400), and how long handling took.
    pub fn record(&self, route: Route, is_error: bool, elapsed: Duration) {
        self.requests[route].inc();
        if is_error {
            self.errors[route].inc();
        }
        self.latency.observe(elapsed);
    }

    /// Account one connection shed with 503 before it reached the
    /// router: a request *and* an error under the `other` route, plus
    /// the dedicated shed counter. Shed connections never produce a
    /// latency observation — they were refused, not handled.
    pub fn record_shed(&self) {
        self.requests[Route::Other].inc();
        self.errors[Route::Other].inc();
        self.shed.inc();
        self.last_shed.store(now_stamp(), Ordering::Relaxed);
    }

    /// Did a shed happen within the last `window`? This is the overload
    /// signal that unlocks serve-stale-on-overload in the advise path.
    pub fn shed_within(&self, window: Duration) -> bool {
        match self.last_shed.load(Ordering::Relaxed) {
            0 => false,
            // Strictly less-than: a zero window never matches, even if
            // the shed landed on this very microsecond.
            stamp => now_stamp().saturating_sub(stamp) < window.as_micros() as u64,
        }
    }

    /// Record a failed model reload and start the staleness clock (if
    /// it is not already running).
    pub fn record_reload_failure(&self) {
        self.reload_failures.inc();
        let _ =
            self.stale_since.compare_exchange(0, now_stamp(), Ordering::Relaxed, Ordering::Relaxed);
    }

    /// A reload succeeded: the serving model is fresh again.
    pub fn mark_model_fresh(&self) {
        self.stale_since.store(0, Ordering::Relaxed);
    }

    /// Seconds the serving model has been known-stale (a reload has
    /// failed and no reload has succeeded since); 0 when fresh.
    pub fn model_staleness_seconds(&self) -> f64 {
        match self.stale_since.load(Ordering::Relaxed) {
            0 => 0.0,
            stamp => now_stamp().saturating_sub(stamp) as f64 / 1e6,
        }
    }

    /// Upsert the quality gauges for one `(model, version, machine)`
    /// group. Registering a group with [`QualityStats::default`] at
    /// startup (the router does this for every registry entry) is what
    /// makes the quality series appear on the very first scrape.
    pub fn set_model_quality(&self, model: &str, version: u64, machine: &str, stats: QualityStats) {
        let mut groups = self.quality.write();
        match groups
            .iter_mut()
            .find(|e| e.model == model && e.version == version && e.machine == machine)
        {
            Some(entry) => entry.stats = stats,
            None => groups.push(QualityEntry {
                model: model.to_string(),
                version,
                machine: machine.to_string(),
                stats,
            }),
        }
    }

    /// Snapshot of every registered quality group.
    pub fn quality_entries(&self) -> Vec<QualityEntry> {
        self.quality.read().clone()
    }

    /// Upsert the lifecycle state gauge for one `(model, machine)` group.
    /// Registering every group as `Idle` at startup is what makes
    /// `chemcost_lifecycle_state` appear on the very first scrape.
    pub fn set_lifecycle_state(&self, model: &str, machine: &str, state: LifecycleState) {
        let mut groups = self.lifecycle.write();
        match groups.iter_mut().find(|e| e.model == model && e.machine == machine) {
            Some(entry) => entry.state = state,
            None => groups.push(LifecycleEntry {
                model: model.to_string(),
                machine: machine.to_string(),
                state,
            }),
        }
    }

    /// Count one valid lifecycle transition. Pairs outside the enumerated
    /// [`TRANSITIONS`] table are ignored (the hub never emits them).
    pub fn record_lifecycle_transition(&self, from: LifecycleState, to: LifecycleState) {
        if let Some(i) = TRANSITIONS.iter().position(|&(f, t)| f == from && t == to) {
            self.lifecycle_transitions[i].inc();
        }
    }

    /// Count one alert transition into state `to`.
    pub fn record_alert_transition(&self, to: AlertState) {
        self.alert_transitions[to].inc();
    }

    /// Record one batcher flush: why it closed and how many rows the
    /// resulting flat-model call carried.
    pub fn record_batch_flush(&self, reason: FlushReason, rows: usize) {
        self.batch_flushes[reason].inc();
        self.batch_size.observe(rows);
    }

    /// Render the Prometheus text exposition: every family of
    /// [`FAMILIES`], in table order.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(16 * 1024);
        let quality = self.quality.read();
        let lifecycle = self.lifecycle.read();
        for fam in FAMILIES {
            let name = fam.name;
            let _ = writeln!(out, "# HELP {name} {}", fam.help);
            let _ = writeln!(out, "# TYPE {name} {}", fam.kind.label());
            match (fam.source)(self) {
                Source::Build => {
                    let _ = writeln!(
                        out,
                        "{name}{{version=\"{BUILD_VERSION}\",git_sha=\"{BUILD_GIT_SHA}\",dirty=\"{BUILD_DIRTY}\"}} 1"
                    );
                }
                Source::Counters(h) => fam.write_values(&mut out, h.iter().map(Counter::get)),
                Source::Sharded(h) => fam.write_values(&mut out, h.iter().map(ShardedCounter::get)),
                Source::Gauges(h) => fam.write_values(&mut out, h.iter().map(Gauge::get)),
                Source::Value(v) => {
                    let _ = writeln!(out, "{name} {v}");
                }
                Source::Seconds(h) => fam.write_histograms(&mut out, h),
                Source::Rows(h) => fam.write_histograms(&mut out, h),
                Source::Quality(read) => {
                    let quantiles = match fam.labels {
                        Labels::Quality(quantiles) => quantiles,
                        _ => &[],
                    };
                    for e in quality.iter() {
                        for q in 0..quantiles.len().max(1) {
                            let _ = write!(
                                out,
                                "{name}{{model=\"{}\",version=\"{}\",machine=\"{}\"",
                                e.model, e.version, e.machine
                            );
                            if let Some(quantile) = quantiles.get(q) {
                                let _ = write!(out, ",quantile=\"{quantile}\"");
                            }
                            let _ = writeln!(out, "}} {}", read(&e.stats, q));
                        }
                    }
                }
                Source::Lifecycle => {
                    for e in lifecycle.iter() {
                        let _ = writeln!(
                            out,
                            "{name}{{model=\"{}\",machine=\"{}\"}} {}",
                            e.model,
                            e.machine,
                            e.state.code()
                        );
                    }
                }
            }
        }
        out
    }
}

/// Bridge handing [`LifecycleObserver`] callbacks from the lifecycle hub's
/// trainer thread to the shared [`Metrics`] registry.
pub struct LifecycleMetricsBridge(pub Arc<Metrics>);

impl LifecycleObserver for LifecycleMetricsBridge {
    fn on_state(&self, model: &str, machine: &str, state: LifecycleState) {
        self.0.set_lifecycle_state(model, machine, state);
    }

    fn on_transition(&self, from: LifecycleState, to: LifecycleState) {
        self.0.record_lifecycle_transition(from, to);
    }

    fn on_queue_depth(&self, depth: usize) {
        self.0.lifecycle_queue_depth.set(depth);
    }

    fn on_fit_duration(&self, seconds: f64) {
        self.0.lifecycle_fit_duration.observe(Duration::from_secs_f64(seconds.max(0.0)));
    }

    fn on_promotion(&self, outcome: PromotionOutcome) {
        self.0.lifecycle_promotions[outcome].inc();
    }
}

/// Validate a Prometheus text exposition: syntax of every sample line,
/// `# HELP`/`# TYPE` metadata for every metric family, and histogram
/// invariants (cumulative non-decreasing buckets ending in `+Inf` whose
/// total matches `_count`). Returns every problem found, so a single
/// run of the CI smoke job reports all defects at once.
pub fn lint_exposition(text: &str) -> Result<(), Vec<String>> {
    let mut problems = Vec::new();
    let mut helped = HashSet::new();
    let mut typed: HashMap<String, String> = HashMap::new();
    // (family, labels-without-le) -> cumulative bucket values in order,
    // and the matching _count value when seen.
    let mut hist_buckets: HashMap<(String, String), Vec<(String, f64)>> = HashMap::new();
    let mut hist_counts: HashMap<(String, String), f64> = HashMap::new();

    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        match chars.next() {
            Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
            _ => return false,
        }
        chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }

    /// Split `key="value",…` into pairs; returns `None` on bad syntax.
    fn parse_labels(s: &str) -> Option<Vec<(String, String)>> {
        let mut pairs = Vec::new();
        let mut rest = s;
        while !rest.is_empty() {
            let eq = rest.find('=')?;
            let key = rest[..eq].trim().to_string();
            rest = rest[eq + 1..].strip_prefix('"')?;
            // Find the closing quote, honoring backslash escapes.
            let mut end = None;
            let mut escaped = false;
            for (i, c) in rest.char_indices() {
                match c {
                    '\\' if !escaped => escaped = true,
                    '"' if !escaped => {
                        end = Some(i);
                        break;
                    }
                    _ => escaped = false,
                }
            }
            let end = end?;
            pairs.push((key, rest[..end].to_string()));
            rest = &rest[end + 1..];
            rest = rest.strip_prefix(',').unwrap_or(rest).trim_start();
        }
        Some(pairs)
    }

    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(meta) = line.strip_prefix("# HELP ") {
            match meta.split_once(' ') {
                Some((name, _)) if valid_name(name) => {
                    helped.insert(name.to_string());
                }
                _ => problems.push(format!("line {n}: malformed HELP: {line:?}")),
            }
            continue;
        }
        if let Some(meta) = line.strip_prefix("# TYPE ") {
            match meta.split_once(' ') {
                Some((name, kind)) if valid_name(name) => {
                    if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                        problems.push(format!("line {n}: unknown TYPE {kind:?} for {name}"));
                    }
                    if typed.insert(name.to_string(), kind.to_string()).is_some() {
                        problems.push(format!("line {n}: duplicate TYPE for {name}"));
                    }
                }
                _ => problems.push(format!("line {n}: malformed TYPE: {line:?}")),
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // arbitrary comment
        }

        // Sample line: name[{labels}] value
        let (name_labels, value) = match line.rsplit_once(' ') {
            Some(split) => split,
            None => {
                problems.push(format!("line {n}: no value: {line:?}"));
                continue;
            }
        };
        let value: f64 = match value.parse() {
            Ok(v) => v,
            Err(_) => {
                problems.push(format!("line {n}: unparsable value {value:?}"));
                continue;
            }
        };
        let (name, labels) = match name_labels.split_once('{') {
            None => (name_labels, Vec::new()),
            Some((name, rest)) => match rest.strip_suffix('}').and_then(parse_labels) {
                Some(pairs) => (name, pairs),
                None => {
                    problems.push(format!("line {n}: malformed labels: {line:?}"));
                    continue;
                }
            },
        };
        if !valid_name(name) {
            problems.push(format!("line {n}: invalid metric name {name:?}"));
            continue;
        }
        for (key, _) in &labels {
            if !valid_name(key) {
                problems.push(format!("line {n}: invalid label name {key:?}"));
            }
        }

        // Resolve the metric family (histogram series use suffixes).
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                let base = name.strip_suffix(suffix)?;
                (typed.get(base).map(String::as_str) == Some("histogram")).then_some(base)
            })
            .unwrap_or(name)
            .to_string();
        match typed.get(&family).map(String::as_str) {
            None => problems.push(format!("line {n}: sample {name} has no # TYPE")),
            Some("counter") => {
                if value < 0.0 {
                    problems.push(format!("line {n}: counter {name} is negative ({value})"));
                }
                if !name.ends_with("_total") {
                    problems.push(format!("line {n}: counter {name} should end in _total"));
                }
            }
            Some("histogram") => {
                let other: Vec<String> = labels
                    .iter()
                    .filter(|(k, _)| k != "le")
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect();
                let series = (family.clone(), other.join(","));
                if name.ends_with("_bucket") {
                    let le = labels
                        .iter()
                        .find(|(k, _)| k == "le")
                        .map(|(_, v)| v.clone())
                        .unwrap_or_else(|| {
                            problems.push(format!("line {n}: bucket without le label"));
                            String::new()
                        });
                    hist_buckets.entry(series).or_default().push((le, value));
                } else if name.ends_with("_count") {
                    hist_counts.insert(series, value);
                }
            }
            Some(_) => {}
        }
        if !helped.contains(&family) {
            problems.push(format!("line {n}: sample {name} has no # HELP"));
            helped.insert(family); // report once per family
        }
    }

    for ((family, labels), buckets) in &hist_buckets {
        let label_note = if labels.is_empty() { String::new() } else { format!(" ({labels})") };
        if buckets.last().map(|(le, _)| le.as_str()) != Some("+Inf") {
            problems.push(format!("histogram {family}{label_note}: missing trailing +Inf bucket"));
        }
        if buckets.windows(2).any(|w| w[1].1 < w[0].1) {
            problems.push(format!("histogram {family}{label_note}: buckets not cumulative"));
        }
        if let (Some((_, inf)), Some(count)) =
            (buckets.last(), hist_counts.get(&(family.clone(), labels.clone())))
        {
            if (inf - count).abs() > 0.0 {
                problems.push(format!(
                    "histogram {family}{label_note}: +Inf bucket {inf} != _count {count}"
                ));
            }
        }
    }

    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

/// [`lint_exposition`] plus a presence check: every family in
/// `required` must have at least one **sample line** (histograms count
/// through their `_bucket`/`_sum`/`_count` series) — `# HELP`/`# TYPE`
/// metadata alone does not count. This is how the smoke and chaos CI
/// jobs catch a series that would only materialize after its first
/// increment: scrape a fresh server and require the full
/// [`REQUIRED_SERIES`] catalog.
pub fn lint_exposition_with_required(text: &str, required: &[&str]) -> Result<(), Vec<String>> {
    let mut problems = lint_exposition(text).err().unwrap_or_default();
    for family in required {
        let present = text.lines().filter(|l| !l.starts_with('#') && !l.is_empty()).any(|l| {
            let name = l.split(['{', ' ']).next().unwrap_or("");
            name == *family
                || ["_bucket", "_sum", "_count"]
                    .iter()
                    .any(|suffix| name.strip_suffix(suffix) == Some(family))
        });
        if !present {
            problems.push(format!(
                "required series {family} has no sample line (unregistered before first increment?)"
            ));
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A registry as the router leaves it at startup: one quality group
    /// and one lifecycle group.
    fn registered() -> Metrics {
        let m = Metrics::new();
        m.set_model_quality("gb", 1, "aurora", QualityStats::default());
        m.set_lifecycle_state("gb", "aurora", LifecycleState::Idle);
        m
    }

    /// Family names are unique and every fixed label set has exactly one
    /// handle per label value.
    #[test]
    fn family_handles_match_their_labels() {
        let m = Metrics::new();
        for (i, fam) in FAMILIES.iter().enumerate() {
            assert!(FAMILIES[..i].iter().all(|f| f.name != fam.name), "duplicate {}", fam.name);
            assert_eq!(REQUIRED_SERIES[i], fam.name);
            let series = match (fam.source)(&m) {
                Source::Counters(h) => h.len(),
                Source::Sharded(h) => h.len(),
                Source::Gauges(h) => h.len(),
                Source::Seconds(h) => h.len(),
                Source::Rows(h) => h.len(),
                Source::Build | Source::Value(_) | Source::Quality(_) | Source::Lifecycle => 1,
            };
            let expected = match fam.labels {
                Labels::Enum(_, values) => values.len(),
                Labels::Transitions => TRANSITIONS.len(),
                _ => 1,
            };
            assert_eq!(series, expected, "{}", fam.name);
        }
    }

    #[test]
    fn handles_record_and_read_back() {
        let m = Metrics::new();
        m.record(Route::Predict, false, Duration::from_millis(2));
        m.record(Route::Predict, true, Duration::from_millis(2));
        m.record(Route::Advise, false, Duration::from_secs(10)); // overflow bucket
        assert_eq!(m.requests[Route::Predict].get(), 2);
        assert_eq!(m.errors[Route::Predict].get(), 1);
        assert_eq!(m.errors[Route::Advise].get(), 0);
        let (buckets, sum, count) = m.latency.snapshot();
        assert_eq!((buckets[3], buckets[10], count), (2, 1, 3), "{buckets:?}");
        assert_eq!(sum, 10_004_000, "latency sums whole microseconds");
        assert!((m.latency.mean_seconds() - 10.004 / 3.0).abs() < 1e-12);
        assert!(Metrics::new().latency.mean_seconds().is_nan());
        // Shed connections count as an `other` request and error, never
        // as a latency observation — they were refused, not handled.
        m.record_shed();
        assert_eq!(m.shed.get(), 1);
        assert_eq!((m.requests[Route::Other].get(), m.errors[Route::Other].get()), (1, 1));
        assert_eq!(m.latency.count(), 3);
        // Gauges: transient underflow reads as zero.
        m.in_flight.inc();
        m.in_flight.dec();
        m.in_flight.dec();
        assert_eq!(m.in_flight.get(), 0);
        m.cache_entries.set(7);
        assert_eq!(m.cache_entries.get(), 7);
        // Size histograms bucket by count and sum plain rows.
        m.record_batch_flush(FlushReason::Window, 7);
        m.record_batch_flush(FlushReason::Window, 600);
        assert_eq!(m.batch_flushes[FlushReason::Window].get(), 2);
        assert_eq!((m.batch_size.sum(), m.batch_size.count()), (607, 2));
        assert_eq!(m.batch_size.snapshot().0[3..].iter().sum::<u64>(), 2, "8 and +Inf buckets");
        m.record_alert_transition(AlertState::Firing);
        assert_eq!(m.alert_transitions[AlertState::Firing].get(), 1);
        assert_eq!(RequestStage::BatchWait.field_key(), "batch_wait_us");
        lint_exposition(&m.render()).expect("exposition must lint clean");
    }

    #[test]
    fn linter_rejects_malformed_expositions() {
        // Sample without TYPE.
        let errs = lint_exposition("mystery_metric 1\n").unwrap_err();
        assert!(errs.iter().any(|e| e.contains("no # TYPE")), "{errs:?}");
        // Counter not ending in _total.
        let errs = lint_exposition("# HELP x c\n# TYPE x counter\nx 3\n").unwrap_err();
        assert!(errs.iter().any(|e| e.contains("_total")), "{errs:?}");
        // Unparsable value.
        let errs = lint_exposition("# HELP y g\n# TYPE y gauge\ny banana\n").unwrap_err();
        assert!(errs.iter().any(|e| e.contains("unparsable value")), "{errs:?}");
        // Histogram without +Inf.
        let errs = lint_exposition(
            "# HELP h hist\n# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_count 2\nh_sum 1\n",
        )
        .unwrap_err();
        assert!(errs.iter().any(|e| e.contains("+Inf")), "{errs:?}");
        // Non-cumulative histogram.
        let errs = lint_exposition(
            "# HELP h hist\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_count 3\nh_sum 1\n",
        )
        .unwrap_err();
        assert!(errs.iter().any(|e| e.contains("not cumulative")), "{errs:?}");
        // +Inf bucket disagreeing with _count.
        let errs = lint_exposition(
            "# HELP h hist\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_count 4\nh_sum 1\n",
        )
        .unwrap_err();
        assert!(errs.iter().any(|e| e.contains("!= _count")), "{errs:?}");
        // Malformed labels.
        let errs = lint_exposition("# HELP z g\n# TYPE z gauge\nz{oops} 1\n").unwrap_err();
        assert!(errs.iter().any(|e| e.contains("malformed labels")), "{errs:?}");
    }

    /// Every family in [`REQUIRED_SERIES`] must have sample lines on a
    /// *fresh* registry — before any request, fault, or deadline event
    /// has incremented it (the exact bytes of that first scrape are
    /// pinned by `tests/metrics_golden.rs`). Negative, table-driven: for
    /// every family, stripping that family's sample lines while keeping
    /// its `# HELP`/`# TYPE` metadata (the unregistered-until-first-
    /// increment failure mode) must trip the required-series linter, for
    /// that family alone.
    #[test]
    fn required_linter_flags_each_missing_family() {
        let full = registered().render();
        lint_exposition_with_required(&full, REQUIRED_SERIES)
            .expect("fresh exposition must pre-register every required series");
        for fam in FAMILIES {
            let stripped: String = full
                .lines()
                .filter(|l| {
                    let name = l.split(['{', ' ']).next().unwrap_or("");
                    let family = ["_bucket", "_sum", "_count"]
                        .iter()
                        .find_map(|suffix| name.strip_suffix(suffix))
                        .filter(|_| fam.kind == Kind::Histogram)
                        .unwrap_or(name);
                    l.starts_with('#') || family != fam.name
                })
                .map(|l| format!("{l}\n"))
                .collect();
            assert!(stripped.len() < full.len(), "{} has no sample lines", fam.name);
            let errs = lint_exposition_with_required(&stripped, REQUIRED_SERIES).unwrap_err();
            assert_eq!(errs.len(), 1, "only {} should be flagged: {errs:?}", fam.name);
            assert!(errs[0].contains(fam.name) && errs[0].contains("no sample line"), "{errs:?}");
        }
        // A family that never existed is reported too.
        let errs =
            lint_exposition_with_required(&full, &["chemcost_nonexistent_total"]).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("chemcost_nonexistent_total")), "{errs:?}");
    }

    /// Negative: without a registered quality group the per-model
    /// families have metadata but no sample lines, and the required
    /// linter must say so — this is exactly the regression the router's
    /// startup pre-registration guards against. The same holds for an
    /// unregistered lifecycle group.
    #[test]
    fn required_linter_flags_unregistered_quality_groups() {
        let errs =
            lint_exposition_with_required(&Metrics::new().render(), REQUIRED_SERIES).unwrap_err();
        for family in [
            "chemcost_model_mape",
            "chemcost_residual_seconds",
            "chemcost_drift_trips_total",
            "chemcost_lifecycle_state",
        ] {
            assert!(
                errs.iter().any(|e| e.contains(family) && e.contains("no sample line")),
                "{family} should be flagged: {errs:?}"
            );
        }
    }

    #[test]
    fn quality_and_lifecycle_groups_upsert() {
        let m = registered();
        let stats = QualityStats { mape: 0.08, degraded: true, ..QualityStats::default() };
        // Same triple: upsert, not a second series.
        m.set_model_quality("gb", 1, "aurora", stats);
        // New version after a reload: its own labelled series.
        m.set_model_quality("gb", 2, "aurora", QualityStats::default());
        let entries = m.quality_entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].stats.mape, 0.08);
        // Same (model, machine): upsert, not a second series.
        m.set_lifecycle_state("gb", "aurora", LifecycleState::Shadow);
        m.set_lifecycle_state("gb2", "frontier", LifecycleState::Idle);
        let groups = m.lifecycle.read();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].state, LifecycleState::Shadow);
        drop(groups);
        let text = m.render();
        assert!(text
            .contains("chemcost_model_degraded{model=\"gb\",version=\"1\",machine=\"aurora\"} 1"));
        assert!(text.contains("chemcost_lifecycle_state{model=\"gb\",machine=\"aurora\"} 3"));
        lint_exposition_with_required(&text, REQUIRED_SERIES).expect("lint clean");
    }

    /// The observer bridge forwards every hub callback into the
    /// registry; transitions outside [`TRANSITIONS`] are never counted
    /// under a wrong label.
    #[test]
    fn lifecycle_bridge_forwards_observer_callbacks() {
        let m = Arc::new(Metrics::new());
        let bridge = LifecycleMetricsBridge(Arc::clone(&m));
        bridge.on_state("gb", "aurora", LifecycleState::Training);
        bridge.on_transition(LifecycleState::Queued, LifecycleState::Training);
        bridge.on_transition(LifecycleState::Idle, LifecycleState::Promoted); // invalid
        bridge.on_queue_depth(2);
        bridge.on_fit_duration(0.25);
        bridge.on_promotion(PromotionOutcome::Operator);
        assert_eq!(m.lifecycle.read()[0].state, LifecycleState::Training);
        assert_eq!(m.lifecycle_transitions.iter().map(Counter::get).sum::<u64>(), 1);
        assert!(m
            .render()
            .contains("chemcost_lifecycle_transitions_total{from=\"queued\",to=\"training\"} 1"));
        assert_eq!(m.lifecycle_queue_depth.get(), 2);
        assert_eq!(m.lifecycle_fit_duration.count(), 1);
        assert_eq!(m.lifecycle_promotions[PromotionOutcome::Operator].get(), 1);
    }

    #[test]
    fn staleness_gauge_follows_reload_outcomes() {
        let m = Metrics::new();
        // Fresh registry: never failed, staleness pinned to zero.
        assert_eq!(m.model_staleness_seconds(), 0.0);
        m.record_reload_failure();
        assert_eq!(m.reload_failures.get(), 1);
        std::thread::sleep(Duration::from_millis(5));
        let stale = m.model_staleness_seconds();
        assert!(stale > 0.0, "staleness should accrue after a failed reload, got {stale}");
        // A later failure does not reset the clock to a smaller value.
        m.record_reload_failure();
        assert!(m.model_staleness_seconds() >= stale);
        // A successful reload clears it.
        m.mark_model_fresh();
        assert_eq!(m.model_staleness_seconds(), 0.0);
    }

    #[test]
    fn shed_within_reports_recent_overload_only() {
        let m = Metrics::new();
        assert!(!m.shed_within(Duration::from_secs(60)), "no shed yet");
        m.record_shed();
        assert!(m.shed_within(Duration::from_secs(60)));
        assert!(!m.shed_within(Duration::ZERO), "zero window excludes the past");
    }

    /// N writer threads hammer the counter and histogram families while
    /// the main thread renders mid-flight; every intermediate exposition
    /// must stay well-formed, and the final counts must add up.
    #[test]
    fn concurrent_writers_keep_render_well_formed() {
        let m = Arc::new(Metrics::new());
        let writers = 8;
        let per_thread = 500;
        let handles: Vec<_> = (0..writers)
            .map(|t| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        let route = Route::ALL[(t + i) % Route::ALL.len()];
                        m.in_flight.inc();
                        m.pool_queue_depth.inc();
                        m.record(route, i % 3 == 0, Duration::from_micros((i * 37) as u64));
                        let stage = AdviseStage::ALL[i % 3];
                        m.advise_stages[stage].observe(Duration::from_micros((i * 11) as u64));
                        if i % 5 == 0 {
                            m.record_shed();
                        }
                        m.cache_misses.inc();
                        m.pool_queue_depth.dec();
                        m.in_flight.dec();
                    }
                })
            })
            .collect();
        // Render (and lint) while the writers are running.
        for _ in 0..50 {
            let text = m.render();
            if let Err(problems) = lint_exposition(&text) {
                panic!("mid-flight exposition malformed: {problems:?}\n{text}");
            }
            std::thread::yield_now();
        }
        for h in handles {
            h.join().unwrap();
        }
        let total: u64 = m.requests.iter().map(ShardedCounter::get).sum();
        let expected = (writers * per_thread) as u64;
        // record() calls + record_shed() calls (every 5th iteration).
        assert_eq!(total, expected + expected / 5);
        assert_eq!(m.cache_misses.get(), expected);
        assert_eq!(m.shed.get(), expected / 5);
        assert_eq!(m.in_flight.get(), 0);
        assert_eq!(m.pool_queue_depth.get(), 0);
        let stage_total: u64 = m.advise_stages.iter().map(Histogram::count).sum();
        assert_eq!(stage_total, expected);
        lint_exposition(&m.render()).expect("final exposition must lint clean");
    }
}
