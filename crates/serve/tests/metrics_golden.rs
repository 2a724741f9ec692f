//! Golden `/metrics` exposition and pinned health-schema series names.
//!
//! The exposition bytes are pinned for two registries: a fresh one with
//! one quality group and one lifecycle group (what a just-started
//! daemon serves), and one after a fixed script of recordings that
//! touches every metric family — including NaN quality gauges and
//! overflow (`+Inf`-only) histogram buckets. Any change to a family's
//! name, HELP text, TYPE, label set, series order or value formatting
//! fails here. The `chemcost_build_info` line is built from
//! [`build_info`], because CI stamps the git SHA at build time.
//!
//! The health sampler's schema series names are pinned as sorted sets
//! per kind: their order is free, their names are an interface
//! (`--slo-file` rules and the built-in SLOs reference them).

use std::sync::Arc;
use std::time::Duration;

use chemcost_health::AlertState;
use chemcost_lifecycle::{LifecycleObserver, LifecycleState, PromotionOutcome};
use chemcost_serve::batcher::FlushReason;
use chemcost_serve::fault::FaultKind;
use chemcost_serve::metrics::{
    build_info, AdviseStage, DeadlineStage, LifecycleMetricsBridge, Metrics, QualityOutcome,
    QualityStats, RequestStage, Route,
};
use chemcost_serve::MetricsSampler;

/// Golden text with the build-info placeholders filled in.
fn golden(text: &str) -> String {
    let (version, sha, dirty) = build_info();
    text.replace("@VERSION@", version).replace("@GIT_SHA@", sha).replace("@DIRTY@", dirty)
}

/// First differing line, for a readable failure.
fn first_diff(expected: &str, actual: &str) -> String {
    for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        if e != a {
            return format!("line {}:\n  expected: {e}\n  actual:   {a}", i + 1);
        }
    }
    format!(
        "line counts differ: expected {}, actual {}",
        expected.lines().count(),
        actual.lines().count()
    )
}

fn assert_golden(expected: &str, actual: &str) {
    assert!(
        expected == actual,
        "exposition drifted from the golden file: {}",
        first_diff(expected, actual)
    );
}

/// A registry as the router leaves it at startup: one quality group and
/// one lifecycle group, nothing recorded.
fn fresh() -> Metrics {
    let m = Metrics::new();
    m.set_model_quality("gb", 1, "aurora", QualityStats::default());
    m.set_lifecycle_state("gb", "aurora", LifecycleState::Idle);
    m
}

/// A fixed recording script touching every family. Durations are chosen
/// to land in the first bucket, interior buckets and the overflow bucket.
fn scripted() -> Arc<Metrics> {
    let m = Arc::new(fresh());
    m.record(Route::Predict, false, Duration::from_millis(2));
    m.record(Route::Advise, true, Duration::from_micros(40));
    m.record(Route::Other, false, Duration::from_secs(10));
    m.record(Route::Debug, false, Duration::from_micros(700));
    m.record_shed();
    m.in_flight.inc();
    m.in_flight.inc();
    m.in_flight.dec();
    m.pool_queue_depth.inc();
    m.pool_queue_depth.inc();
    m.pool_queue_depth.inc();
    m.pool_queue_depth.dec();
    m.advise_stages[AdviseStage::Cache].observe(Duration::from_micros(30));
    m.advise_stages[AdviseStage::Sweep].observe(Duration::from_millis(6));
    m.advise_stages[AdviseStage::Sweep].observe(Duration::from_secs(7));
    m.advise_stages[AdviseStage::Encode].observe(Duration::from_micros(200));
    m.advise_stages[AdviseStage::Shadow].observe(Duration::from_micros(100));
    m.cache_hits.inc();
    m.cache_hits.inc();
    m.cache_misses.inc();
    m.cache_entries.set(5);
    m.deadline_exceeded[DeadlineStage::Queue].inc();
    m.deadline_exceeded[DeadlineStage::Sweep].inc();
    m.deadline_exceeded[DeadlineStage::Sweep].inc();
    // A failed reload followed by a good one: the counter moves, the
    // (time-dependent) staleness gauge is back at zero.
    m.record_reload_failure();
    m.mark_model_fresh();
    m.stale_served.inc();
    m.faults_injected[FaultKind::SlowIo].inc();
    m.faults_injected[FaultKind::PoisonReload].inc();
    m.faults_injected[FaultKind::PoisonReload].inc();
    m.quality_observations[QualityOutcome::Accepted].inc();
    m.quality_observations[QualityOutcome::Accepted].inc();
    m.quality_observations[QualityOutcome::Rejected].inc();
    m.set_model_quality(
        "gb",
        1,
        "aurora",
        QualityStats {
            observations: 12,
            window: 12,
            mape: 0.08,
            bias_seconds: -1.5,
            residual_p50: 2.0,
            residual_p90: 6.0,
            residual_p99: 9.25,
            calibration_ratio: 0.7,
            drift_trips: 1,
            degraded: true,
            pool_size: 12,
            pool_evictions: 4,
        },
    );
    // A second version with no data yet: every windowed gauge is NaN.
    m.set_model_quality("gb", 2, "aurora", QualityStats::default());
    let bridge = LifecycleMetricsBridge(Arc::clone(&m));
    bridge.on_state("gb", "aurora", LifecycleState::Shadow);
    bridge.on_state("gb", "frontier", LifecycleState::Idle);
    bridge.on_transition(LifecycleState::Idle, LifecycleState::Queued);
    bridge.on_transition(LifecycleState::Queued, LifecycleState::Training);
    bridge.on_transition(LifecycleState::Queued, LifecycleState::Training);
    bridge.on_queue_depth(3);
    bridge.on_fit_duration(0.5);
    bridge.on_fit_duration(12.0);
    bridge.on_promotion(PromotionOutcome::Auto);
    bridge.on_promotion(PromotionOutcome::Rejected);
    bridge.on_promotion(PromotionOutcome::Rejected);
    m.connections_open.inc();
    m.connections_open.inc();
    m.connections_open.inc();
    m.connections_open.dec();
    m.record_batch_flush(FlushReason::Drain, 2);
    m.record_batch_flush(FlushReason::Window, 7);
    m.record_batch_flush(FlushReason::Window, 600);
    m.record_batch_flush(FlushReason::Full, 1024);
    m.keepalive_reuses.inc();
    m.keepalive_reuses.inc();
    m.keepalive_reuses.inc();
    for (i, stage) in RequestStage::ALL.into_iter().enumerate() {
        m.request_stages[stage].observe(Duration::from_micros(40 + 150 * i as u64));
    }
    m.request_stages[RequestStage::Handler].observe(Duration::from_secs(6));
    m.loop_iteration.observe(Duration::from_micros(120));
    m.loop_events_per_wake.observe(3);
    m.loop_iteration.observe(Duration::from_micros(80));
    m.loop_events_per_wake.observe(0);
    m.loop_iteration.observe(Duration::from_secs(6));
    m.loop_events_per_wake.observe(700);
    m.read_paused.inc();
    m.read_paused.inc();
    m.read_paused.dec();
    m.write_stalled.inc();
    m.record_alert_transition(AlertState::Pending);
    m.record_alert_transition(AlertState::Firing);
    m.record_alert_transition(AlertState::Firing);
    m.record_alert_transition(AlertState::Resolved);
    m.alerts_firing.set(1);
    m.alerts_pending.set(2);
    m.slo_scrapes.inc();
    m.slo_evaluations.add(6);
    m.slo_breaching.set(1);
    m.slo_scrapes.inc();
    m.slo_evaluations.add(6);
    m.slo_breaching.set(0);
    m
}

#[test]
fn fresh_exposition_matches_golden() {
    assert_golden(&golden(include_str!("golden/metrics_fresh.prom")), &fresh().render());
}

#[test]
fn scripted_exposition_matches_golden() {
    assert_golden(&golden(include_str!("golden/metrics_scripted.prom")), &scripted().render());
}

#[test]
fn health_schema_series_names_are_pinned() {
    let m = fresh();
    m.set_model_quality("gb", 2, "aurora", QualityStats::default());
    m.set_model_quality("gb", 1, "frontier", QualityStats::default());
    let schema = MetricsSampler::new(&m).schema().clone();
    let sorted = |names: Vec<String>| {
        let mut names = names;
        names.sort();
        names
    };
    let routes =
        "healthz metrics models reload predict advise observe quality lifecycle shutdown debug health other";
    let mut counters: Vec<String> = Vec::new();
    for prefix in ["requests", "errors"] {
        counters.extend(routes.split(' ').map(|r| format!("{prefix}.{r}")));
    }
    counters.extend(
        [
            "shed",
            "deadline_exceeded",
            "reload_failures",
            "stale_served",
            "keepalive_reuses",
            "cache.hits",
            "cache.misses",
            "quality.accepted",
            "quality.rejected",
            "batch.flush.full",
            "batch.flush.window",
            "batch.flush.drain",
            "batch.flush.shutdown",
            "batch.calls",
            "batch.rows",
            "loop.iterations",
            "quality.drift_trips.gb@aurora",
            "quality.drift_trips.gb@frontier",
        ]
        .map(String::from),
    );
    assert_eq!(sorted(schema.counters.clone()), sorted(counters));
    let gauges = [
        "inflight",
        "queue.depth",
        "connections.open",
        "connections.read_paused",
        "connections.write_stalled",
        "cache.entries",
    ];
    assert_eq!(sorted(schema.gauges.clone()), sorted(gauges.map(String::from).to_vec()));
    let values = ["staleness_seconds", "quality.mape.gb@aurora", "quality.mape.gb@frontier"];
    assert_eq!(sorted(schema.values.clone()), sorted(values.map(String::from).to_vec()));
    let mut histograms = vec!["latency".to_string()];
    histograms.extend("cache sweep encode shadow".split(' ').map(|s| format!("advise.{s}")));
    histograms.extend(
        "read queue batch_wait handler reorder write".split(' ').map(|s| format!("stage.{s}")),
    );
    let names: Vec<String> = schema.histograms.iter().map(|h| h.name.clone()).collect();
    assert_eq!(sorted(names), sorted(histograms));
    let bounds = [1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1.0, 5.0];
    assert!(schema.histograms.iter().all(|h| h.bounds == bounds), "{:?}", schema.histograms);
}
