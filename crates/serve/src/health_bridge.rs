//! Bridge between the serve daemon and the `chemcost-health` plane.
//!
//! `chemcost-health` is deliberately ignorant of this crate: it stores
//! and judges abstract named series. This module owns the mapping —
//! the schema is derived from the `health` keys of the metric family
//! table ([`FAMILIES`]) — plus the built-in SLOs and the background
//! sampler thread that self-scrapes the registry every
//! `--scrape-interval-ms` into the hub's bounded ring of samples.
//!
//! Schema series names are stable, dot-separated, and documented in
//! `docs/HEALTH.md`; `--slo-file` rules reference them by name or
//! prefix. Per-group quality series (`quality.mape.<model>@<machine>`)
//! are fixed at sampler start, which is complete because the
//! `(model, machine)` set is fixed at startup: models enter the
//! registry only when the daemon loads its model file, and reload,
//! promote and rollback keep a model's name and machine and only bump
//! its version. Each group series aggregates over the group's
//! versions, so a new version feeds the existing series.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use chemcost_health::{
    HealthConfig, HealthHub, HistSample, HistSchema, Sample, Schema, Signal, SloSpec,
};
use chemcost_obs::{self as obs, Level};

use crate::metrics::{HealthKey, Histogram, Kind, Labels, Metrics, Scale, Source, FAMILIES};
use crate::routes::Router;

/// The built-in objectives, evaluated out of the box (and joined by
/// any `--slo-file` rules). Thresholds are deliberately loose — they
/// flag "users can tell something is wrong", not "p99 drifted 5%".
pub fn builtin_slos() -> Vec<SloSpec> {
    vec![
        // Whole-request handler p99; advise sweeps dominate the tail.
        SloSpec::new(
            "advise_p99_latency",
            Signal::Quantile { hist: "latency".into(), q: 0.99 },
            0.5,
        )
        .critical(),
        // Errors and sheds per request (sheds count as errors under
        // the `other` route, so `errors.` covers both).
        SloSpec::new(
            "error_ratio",
            Signal::Ratio { num: vec!["errors.".into()], den: vec!["requests.".into()] },
            0.05,
        )
        .critical(),
        SloSpec::new(
            "deadline_miss_ratio",
            Signal::Ratio { num: vec!["deadline_exceeded".into()], den: vec!["requests.".into()] },
            0.02,
        ),
        // Worst windowed MAPE across serving groups: the paper's
        // "guidance you can trust" bar.
        SloSpec::new("model_mape", Signal::ValueMax { prefix: "quality.mape.".into() }, 0.35),
        // Any drift-detector trip inside the window.
        SloSpec::new(
            "drift_trips",
            Signal::DeltaPrefix { prefix: "quality.drift_trips.".into() },
            0.5,
        ),
        // Batches closing on the window timer instead of drain/full
        // means submitters keep missing each other — latency for no
        // coalescing gain.
        SloSpec::new(
            "batch_window_overrun",
            Signal::Ratio {
                num: vec!["batch.flush.window".into()],
                den: vec!["batch.flush.".into()],
            },
            0.95,
        ),
    ]
}

/// One schema series value read out of the registry.
enum Reading {
    Counter(u64),
    Gauge(i64),
    Value(f64),
    Hist(&'static [f64], HistSample),
}

/// Every schema series, in family-table order, for the quality groups
/// `groups`. The schema and every sample are built from this one walk,
/// so their series orders cannot drift apart.
fn readings(metrics: &Metrics, groups: &[(String, String)]) -> Vec<(String, Reading)> {
    let quality = metrics.quality_entries();
    let mut out = Vec::new();
    for fam in FAMILIES {
        let source = (fam.source)(metrics);
        match fam.health {
            HealthKey::None => {}
            HealthKey::Each(key) => {
                for (i, reading) in fixed_readings(&source).into_iter().enumerate() {
                    let name = match fam.labels {
                        Labels::Enum(_, values) => format!("{key}.{}", values[i]),
                        _ => key.to_string(),
                    };
                    out.push((name, reading));
                }
            }
            HealthKey::Sum(key) => {
                let total = fixed_readings(&source)
                    .iter()
                    .map(|r| if let Reading::Counter(v) = r { *v } else { 0 })
                    .sum();
                out.push((key.to_string(), Reading::Counter(total)));
            }
            HealthKey::Totals(count, sum) => {
                for reading in fixed_readings(&source) {
                    if let Reading::Hist(_, h) = reading {
                        out.push((count.to_string(), Reading::Counter(h.count)));
                        if let Some(sum) = sum {
                            out.push((sum.to_string(), Reading::Counter(h.sum_micros)));
                        }
                    }
                }
            }
            HealthKey::Group(key) => {
                let Source::Quality(read) = source else {
                    unreachable!("{}: groups need a quality reading", fam.name)
                };
                for (model, machine) in groups {
                    let versions = quality
                        .iter()
                        .filter(|e| &e.model == model && &e.machine == machine)
                        .map(|e| read(&e.stats, 0));
                    let reading = match fam.kind {
                        Kind::Counter => Reading::Counter(versions.map(|v| v as u64).sum()),
                        // Worst version with data; NaN until any has.
                        _ => Reading::Value(
                            versions.filter(|v| !v.is_nan()).fold(f64::NAN, f64::max),
                        ),
                    };
                    out.push((format!("{key}.{model}@{machine}"), reading));
                }
            }
        }
    }
    out
}

/// One reading per fixed series of a family's handles.
fn fixed_readings(source: &Source) -> Vec<Reading> {
    fn hists<S: Scale>(h: &[Histogram<S>]) -> Vec<Reading> {
        let sample = |(buckets, sum_micros, count): ([u64; 11], u64, u64)| HistSample {
            buckets: buckets.to_vec(),
            sum_micros,
            count,
        };
        h.iter().map(|h| Reading::Hist(S::BOUNDS, sample(h.snapshot()))).collect()
    }
    match source {
        Source::Counters(h) => h.iter().map(|c| Reading::Counter(c.get())).collect(),
        Source::Sharded(h) => h.iter().map(|c| Reading::Counter(c.get())).collect(),
        Source::Gauges(h) => h.iter().map(|g| Reading::Gauge(g.get() as i64)).collect(),
        Source::Value(v) => vec![Reading::Value(*v)],
        Source::Seconds(h) => hists(h),
        Source::Rows(h) => hists(h),
        Source::Build | Source::Quality(_) | Source::Lifecycle => Vec::new(),
    }
}

/// Samples one [`Metrics`] registry into [`Sample`]s with a fixed
/// schema. Construction captures the quality groups registered at that
/// moment (the startup set; see the module docs).
pub struct MetricsSampler {
    schema: Arc<Schema>,
    /// `(model, machine)` pairs feeding the per-group series.
    groups: Vec<(String, String)>,
}

impl MetricsSampler {
    /// Build the sampler and its schema from the family table and the
    /// currently registered quality groups.
    pub fn new(metrics: &Metrics) -> MetricsSampler {
        let mut groups: Vec<(String, String)> = Vec::new();
        for entry in metrics.quality_entries() {
            let key = (entry.model, entry.machine);
            if !groups.contains(&key) {
                groups.push(key);
            }
        }
        let mut schema = Schema::default();
        for (name, reading) in readings(metrics, &groups) {
            match reading {
                Reading::Counter(_) => schema.counters.push(name),
                Reading::Gauge(_) => schema.gauges.push(name),
                Reading::Value(_) => schema.values.push(name),
                Reading::Hist(bounds, _) => {
                    schema.histograms.push(HistSchema { name, bounds: bounds.to_vec() })
                }
            }
        }
        MetricsSampler { schema: Arc::new(schema), groups }
    }

    /// The schema `sample()` produces.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Read every schema series out of `metrics`, stamped `unix_us`.
    pub fn sample(&self, metrics: &Metrics, unix_us: u64) -> Sample {
        let mut sample = Sample { unix_us, ..Sample::default() };
        for (_, reading) in readings(metrics, &self.groups) {
            match reading {
                Reading::Counter(v) => sample.counters.push(v),
                Reading::Gauge(v) => sample.gauges.push(v),
                Reading::Value(v) => sample.values.push(v),
                Reading::Hist(_, h) => sample.hists.push(h),
            }
        }
        sample
    }
}

/// The running health plane: sampler thread + hub. Dropping the handle
/// does NOT stop the thread; call [`HealthHandle::stop`].
pub struct HealthHandle {
    hub: Arc<HealthHub>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl HealthHandle {
    /// The hub serving `/v1/health` and `/debug/slo`.
    pub fn hub(&self) -> &Arc<HealthHub> {
        &self.hub
    }

    /// Signal the sampler thread and join it.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn unix_us_now() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_micros() as u64).unwrap_or(0)
}

/// Build the hub for `router`, install it on the router, register the
/// metrics + obs-event transition observer, and start the background
/// sampler thread. The returned handle must be `stop()`ped during
/// drain (the `Server::run` epilogue does).
pub fn start(router: &Router, config: HealthConfig) -> HealthHandle {
    let metrics = Arc::clone(router.metrics());
    let sampler = MetricsSampler::new(&metrics);
    let hub = Arc::new(HealthHub::new(Arc::clone(sampler.schema()), &config));
    router.install_health(Arc::clone(&hub));
    let obs_metrics = Arc::clone(&metrics);
    hub.on_transition(Box::new(move |t| {
        obs_metrics.record_alert_transition(t.to);
        obs::event!(
            Level::Warn,
            "health.alert",
            slo = t.slo.as_str(),
            from = t.from.label(),
            to = t.to.label(),
            value = t.value,
            threshold = t.threshold,
            critical = t.critical,
        );
    }));
    let stop = Arc::new(AtomicBool::new(false));
    let thread = {
        let hub = Arc::clone(&hub);
        let stop = Arc::clone(&stop);
        let interval = config.scrape_interval.max(Duration::from_millis(1));
        std::thread::Builder::new()
            .name("health-sampler".into())
            .spawn(move || {
                // Poll the stop flag at most every 50 ms so drain never
                // waits a full scrape interval on this thread.
                let nap = interval.min(Duration::from_millis(50));
                let mut next = std::time::Instant::now();
                while !stop.load(Ordering::SeqCst) {
                    if std::time::Instant::now() < next {
                        std::thread::sleep(nap);
                        continue;
                    }
                    next += interval;
                    let sample = sampler.sample(&metrics, unix_us_now());
                    hub.ingest(&sample);
                    let verdict = hub.verdict();
                    metrics.alerts_firing.set(verdict.firing);
                    metrics.alerts_pending.set(verdict.pending);
                    metrics.slo_scrapes.inc();
                    metrics.slo_evaluations.add(hub.slo_count() as u64);
                    metrics.slo_breaching.set(hub.breaching_count() as usize);
                }
            })
            .expect("spawn health sampler")
    };
    HealthHandle { hub, stop, thread: Some(thread) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelRegistry;
    use chemcost_ml::gradient_boosting::GradientBoosting;
    use chemcost_ml::Regressor;

    fn tiny_model(seed: u64) -> GradientBoosting {
        let x = chemcost_linalg::Matrix::from_fn(40, 4, |i, j| (i * 4 + j) as f64);
        let y: Vec<f64> = (0..40).map(|i| 10.0 + i as f64).collect();
        let mut gb = GradientBoosting::new(10, 2, 0.3);
        gb.seed = seed;
        gb.fit(&x, &y).unwrap();
        gb
    }

    /// The `(model, machine)` set is fixed at startup and a promotion only
    /// bumps the version: a sampler built before `promote` keeps its
    /// schema, and its per-group MAPE series tracks the new version once
    /// that version is observed.
    #[test]
    fn promoted_version_feeds_the_startup_group_series() {
        let registry = Arc::new(ModelRegistry::new());
        registry.insert("gb", "aurora", tiny_model(1));
        let router = Router::new(Arc::clone(&registry));
        let (metrics, quality) = (router.metrics(), router.quality());
        let sampler = MetricsSampler::new(metrics);
        let schema = sampler.schema().as_ref().clone();
        let mape = schema.value_index("quality.mape.gb@aurora").expect("startup group series");
        assert!(sampler.sample(metrics, 1).values[mape].is_nan(), "no observations yet");

        assert_eq!(registry.promote("gb", tiny_model(2)).unwrap(), 2);
        quality.register_group("gb", 2, "aurora"); // as the router's promotion path does
        let id = quality.record_prediction("gb", 2, "aurora", (120, 900, 64, 24), 100.0);
        quality.observe(id, 125.0).expect("observation accepted");

        let sample = sampler.sample(metrics, 2);
        assert_eq!(sampler.schema().as_ref(), &schema, "schema is not rebuilt");
        assert_eq!(sample.values.len(), schema.values.len(), "sample matches the schema");
        assert!((sample.values[mape] - 0.2).abs() < 1e-12, "tracks v2: {}", sample.values[mape]);
    }
}
