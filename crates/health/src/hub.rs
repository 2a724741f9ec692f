//! The hub ties ring + engine + observers behind one `ingest` call and
//! renders the `/v1/health` and `/debug/slo` JSON surfaces.

use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

use crate::alert::{AlertState, Transition};
use crate::json::json_num;
use crate::ring::{Ring, RingStats};
use crate::schema::{Sample, Schema};
use crate::slo::{SloEngine, SloSpec};
use chemcost_obs::write_json_string;

/// Observer invoked on every alert transition (metrics, obs events).
pub type TransitionObserver = Box<dyn Fn(&Transition) + Send + Sync>;

/// Tunables for the health plane.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// How often the embedder samples its metric registry.
    pub scrape_interval: Duration,
    /// How much history the ring retains.
    pub retention: Duration,
    /// Byte budget for the ring's encoded history.
    pub max_bytes: usize,
    /// Objectives to evaluate on every ingest.
    pub slos: Vec<SloSpec>,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            scrape_interval: Duration::from_secs(1),
            retention: Duration::from_secs(900),
            max_bytes: 512 * 1024,
            slos: Vec::new(),
        }
    }
}

/// Overall health verdict, aggregated across SLOs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Worst alert state across all SLOs (severity: ok < resolved <
    /// pending < firing).
    pub worst: AlertState,
    /// True when any *critical* SLO is firing — the 503 condition.
    pub critical_firing: bool,
    /// SLOs currently firing.
    pub firing: usize,
    /// SLOs currently pending.
    pub pending: usize,
}

impl Verdict {
    /// HTTP status for a readiness probe: 503 only while a critical
    /// SLO is firing.
    pub fn http_status(&self) -> u16 {
        if self.critical_firing {
            503
        } else {
            200
        }
    }

    /// Stable overall label for JSON.
    pub fn label(&self) -> &'static str {
        self.worst.label()
    }
}

fn severity(state: AlertState) -> u8 {
    match state {
        AlertState::Ok => 0,
        AlertState::Resolved => 1,
        AlertState::Pending => 2,
        AlertState::Firing => 3,
    }
}

/// Point-in-time snapshot of one SLO, for rendering and for the CLI.
#[derive(Debug, Clone)]
pub struct SloStatus {
    /// SLO name.
    pub name: String,
    /// Current alert state.
    pub state: AlertState,
    /// Whether the SLO gates readiness.
    pub critical: bool,
    /// Last fast-window value (NaN = no data).
    pub value: f64,
    /// Last slow-window value (NaN = no data).
    pub value_slow: f64,
    /// Configured threshold.
    pub threshold: f64,
    /// Direction label (`">"` / `"<"`).
    pub cmp: &'static str,
    /// Fast window, seconds.
    pub fast_window_s: f64,
    /// Slow window, seconds.
    pub slow_window_s: f64,
    /// When the current state was entered (0 until first transition).
    pub since_us: u64,
}

/// The in-process health plane: ring store, SLO engine, transition
/// observers. Shared between the sampler thread and HTTP readers.
pub struct HealthHub {
    schema: Arc<Schema>,
    ring: Ring,
    engine: Mutex<SloEngine>,
    observers: RwLock<Vec<TransitionObserver>>,
    scrape_interval: Duration,
}

impl HealthHub {
    /// Build a hub for `schema` with the given config.
    pub fn new(schema: Arc<Schema>, config: &HealthConfig) -> Self {
        let ring =
            Ring::new(Arc::clone(&schema), config.max_bytes, config.retention.as_micros() as u64);
        HealthHub {
            schema,
            ring,
            engine: Mutex::new(SloEngine::new(config.slos.clone())),
            observers: RwLock::new(Vec::new()),
            scrape_interval: config.scrape_interval,
        }
    }

    /// The snapshot schema this hub ingests.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Configured scrape cadence (informational; the embedder drives
    /// the actual sampling loop).
    pub fn scrape_interval(&self) -> Duration {
        self.scrape_interval
    }

    /// Register a callback invoked (synchronously, on the ingest
    /// thread) for every alert transition.
    pub fn on_transition(&self, f: TransitionObserver) {
        self.observers.write().unwrap().push(f);
    }

    /// Store one sample, evaluate every SLO against the updated
    /// history, notify observers, and return the transitions taken.
    pub fn ingest(&self, sample: &Sample) -> Vec<Transition> {
        self.ring.push(sample);
        // The slowest SLO window bounds how much history evaluation
        // needs; replaying the whole ring is fine at ring sizes.
        let samples = self.ring.samples_since(0);
        let transitions = {
            let mut engine = self.engine.lock().unwrap();
            engine.evaluate(&self.schema, &samples)
        };
        if !transitions.is_empty() {
            let observers = self.observers.read().unwrap();
            for t in &transitions {
                for obs in observers.iter() {
                    obs(t);
                }
            }
        }
        transitions
    }

    /// Ring accounting.
    pub fn ring_stats(&self) -> RingStats {
        self.ring.stats()
    }

    /// Number of configured SLOs.
    pub fn slo_count(&self) -> usize {
        self.engine.lock().unwrap().specs().len()
    }

    /// SLOs breaching both burn windows on the latest evaluation.
    pub fn breaching_count(&self) -> u64 {
        self.engine.lock().unwrap().breaching_count()
    }

    /// Retained samples since `since_unix_us` (0 = all).
    pub fn samples_since(&self, since_unix_us: u64) -> Vec<Sample> {
        self.ring.samples_since(since_unix_us)
    }

    /// Aggregate verdict across all SLOs.
    pub fn verdict(&self) -> Verdict {
        let engine = self.engine.lock().unwrap();
        let mut worst = AlertState::Ok;
        let mut critical_firing = false;
        let mut firing = 0;
        let mut pending = 0;
        for (i, spec) in engine.specs().iter().enumerate() {
            let state = engine.state(i);
            if severity(state) > severity(worst) {
                worst = state;
            }
            match state {
                AlertState::Firing => {
                    firing += 1;
                    if spec.critical {
                        critical_firing = true;
                    }
                }
                AlertState::Pending => pending += 1,
                _ => {}
            }
        }
        Verdict { worst, critical_firing, firing, pending }
    }

    /// Per-SLO snapshots, in spec order.
    pub fn statuses(&self) -> Vec<SloStatus> {
        let engine = self.engine.lock().unwrap();
        engine
            .specs()
            .iter()
            .enumerate()
            .map(|(i, spec)| SloStatus {
                name: spec.name.clone(),
                state: engine.state(i),
                critical: spec.critical,
                value: engine.last_value(i),
                value_slow: engine.last_slow_value(i),
                threshold: spec.threshold,
                cmp: spec.cmp.label(),
                fast_window_s: spec.fast_window.as_secs_f64(),
                slow_window_s: spec.slow_window.as_secs_f64(),
                since_us: engine.since_us(i),
            })
            .collect()
    }

    /// Render the `/v1/health` body; returns `(http_status, json)`.
    pub fn health_json(&self) -> (u16, String) {
        let verdict = self.verdict();
        let stats = self.ring_stats();
        let evaluations = self.engine.lock().unwrap().evaluations();
        let mut out = String::with_capacity(1024);
        out.push('{');
        out.push_str(&format!("\"status\":\"{}\",", verdict.label()));
        out.push_str(&format!("\"critical_firing\":{},", verdict.critical_firing));
        out.push_str(&format!("\"firing\":{},", verdict.firing));
        out.push_str(&format!("\"pending\":{},", verdict.pending));
        out.push_str(&format!("\"scrape_interval_ms\":{},", self.scrape_interval.as_millis()));
        out.push_str(&format!("\"samples\":{},", stats.len));
        out.push_str(&format!("\"evaluations\":{},", evaluations));
        out.push_str("\"slos\":[");
        for (i, s) in self.statuses().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            out.push_str("\"name\":");
            write_json_string(&mut out, &s.name);
            out.push(',');
            out.push_str(&format!("\"state\":\"{}\",", s.state.label()));
            out.push_str(&format!("\"critical\":{},", s.critical));
            out.push_str(&format!("\"value\":{},", json_num(s.value)));
            out.push_str(&format!("\"value_slow\":{},", json_num(s.value_slow)));
            out.push_str(&format!("\"threshold\":{},", json_num(s.threshold)));
            out.push_str(&format!("\"cmp\":\"{}\",", s.cmp));
            out.push_str(&format!("\"fast_window_s\":{},", json_num(s.fast_window_s)));
            out.push_str(&format!("\"slow_window_s\":{},", json_num(s.slow_window_s)));
            out.push_str(&format!("\"since_us\":{}", s.since_us));
            out.push('}');
        }
        out.push_str("]}");
        (verdict.http_status(), out)
    }

    /// Render the `/debug/slo` body: ring stats plus per-SLO
    /// evaluation history (value + breach flag per point) for
    /// sparklines.
    pub fn debug_json(&self) -> String {
        let stats = self.ring_stats();
        let engine = self.engine.lock().unwrap();
        let mut out = String::with_capacity(4096);
        out.push('{');
        out.push_str(&format!(
            "\"ring\":{{\"len\":{},\"bytes\":{},\"appended\":{},\"evicted\":{},\"span_us\":{}}},",
            stats.len, stats.bytes, stats.appended, stats.evicted, stats.span_us
        ));
        out.push_str(&format!("\"evaluations\":{},", engine.evaluations()));
        out.push_str("\"slos\":[");
        for (i, spec) in engine.specs().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            out.push_str("\"name\":");
            write_json_string(&mut out, &spec.name);
            out.push(',');
            out.push_str(&format!("\"state\":\"{}\",", engine.state(i).label()));
            out.push_str(&format!("\"threshold\":{},", json_num(spec.threshold)));
            out.push_str("\"history\":[");
            for (j, p) in engine.history(i).enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"unix_us\":{},\"value\":{},\"breaching\":{}}}",
                    p.unix_us,
                    json_num(p.value),
                    p.breaching
                ));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::Signal;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn schema() -> Arc<Schema> {
        Arc::new(Schema {
            counters: vec!["requests.advise".into(), "errors.advise".into()],
            ..Schema::default()
        })
    }

    fn config() -> HealthConfig {
        let slo = SloSpec::new(
            "error_ratio",
            Signal::Ratio { num: vec!["errors.".into()], den: vec!["requests.".into()] },
            0.05,
        )
        .windows(Duration::from_secs(5), Duration::from_secs(10))
        .hysteresis(2, 2)
        .critical();
        HealthConfig { slos: vec![slo], ..HealthConfig::default() }
    }

    fn sample(t_s: u64, requests: u64, errors: u64) -> Sample {
        Sample { unix_us: t_s * 1_000_000, counters: vec![requests, errors], ..Sample::default() }
    }

    #[test]
    fn ingest_drives_alerts_and_observers_see_transitions() {
        let hub = HealthHub::new(schema(), &config());
        let seen = Arc::new(AtomicUsize::new(0));
        let seen2 = Arc::clone(&seen);
        hub.on_transition(Box::new(move |t| {
            assert_eq!(t.slo, "error_ratio");
            seen2.fetch_add(1, Ordering::SeqCst);
        }));
        hub.ingest(&sample(0, 100, 0));
        assert_eq!(hub.verdict().worst, AlertState::Ok);
        assert_eq!(hub.verdict().http_status(), 200);
        // Heavy errors: ok -> pending -> firing.
        hub.ingest(&sample(1, 200, 90));
        hub.ingest(&sample(2, 300, 180));
        let v = hub.verdict();
        assert_eq!(v.worst, AlertState::Firing);
        assert!(v.critical_firing);
        assert_eq!(v.http_status(), 503);
        // Idle recovery: ratio reads 0.0 once both windows roll past
        // the errors, then the alert resolves.
        for t in 3..30 {
            hub.ingest(&sample(t, 300, 180));
        }
        let v = hub.verdict();
        assert!(matches!(v.worst, AlertState::Resolved | AlertState::Ok), "{v:?}");
        assert_eq!(v.http_status(), 200);
        assert!(
            seen.load(Ordering::SeqCst) >= 3,
            "observer saw {} transitions",
            seen.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn health_json_shape() {
        let hub = HealthHub::new(schema(), &config());
        hub.ingest(&sample(0, 100, 0));
        hub.ingest(&sample(1, 200, 0));
        let (status, body) = hub.health_json();
        assert_eq!(status, 200);
        assert!(body.starts_with("{\"status\":\"ok\""), "{body}");
        assert!(body.contains("\"name\":\"error_ratio\""), "{body}");
        assert!(body.contains("\"critical\":true"), "{body}");
        assert!(body.contains("\"cmp\":\">\""), "{body}");
        assert!(body.contains("\"scrape_interval_ms\":1000"), "{body}");
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(body.matches('{').count(), body.matches('}').count());
        assert_eq!(body.matches('[').count(), body.matches(']').count());
    }

    #[test]
    fn debug_json_has_ring_and_history() {
        let hub = HealthHub::new(schema(), &config());
        for t in 0..5 {
            hub.ingest(&sample(t, t * 10, 0));
        }
        let body = hub.debug_json();
        assert!(body.contains("\"ring\":{\"len\":5"), "{body}");
        assert!(body.contains("\"history\":["), "{body}");
        assert!(body.contains("\"breaching\":false"), "{body}");
        assert_eq!(body.matches('{').count(), body.matches('}').count());
    }

    #[test]
    fn no_slos_means_always_ok() {
        let hub = HealthHub::new(schema(), &HealthConfig::default());
        hub.ingest(&sample(0, 1, 1));
        let (status, body) = hub.health_json();
        assert_eq!(status, 200);
        assert!(body.contains("\"slos\":[]"), "{body}");
    }
}
