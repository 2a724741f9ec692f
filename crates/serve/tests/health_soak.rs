//! Health-plane soak tests — the PR's acceptance criteria end to end:
//!
//! * under `saturate` chaos a critical error-ratio SLO walks the full
//!   ok → pending → firing lifecycle, `/v1/health` answers 503 while it
//!   fires, and once the chaos-era traffic slides out of the burn
//!   windows the alert resolves and `/v1/health` flips back to 200 —
//!   with every transition visible in BOTH
//!   `chemcost_alerts_transitions_total` and correlated `health.alert`
//!   obs events from the same run;
//! * the self-scrape snapshot path stays internally consistent under an
//!   8-thread writer stress (no torn counter/histogram pairs) and the
//!   ring never exceeds its capacity while replaying exactly what was
//!   pushed;
//! * the paired connection-state gauges return to zero after a
//!   keep-alive soak drains through forced close-on-shutdown.

use chemcost_health::{AlertState, HealthConfig, Ring, Signal, SloSpec};
use chemcost_linalg::Matrix;
use chemcost_ml::gradient_boosting::GradientBoosting;
use chemcost_ml::Regressor;
use chemcost_obs::{self as obs, Level, RingSink, Value};
use chemcost_serve::metrics::{Metrics, Route};
use chemcost_serve::{FaultKind, FaultPlaneBuilder, MetricsSampler, ModelRegistry, Router, Server};
use chemcost_sim::datagen::generate_dataset_sized;
use chemcost_sim::machine::by_name;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tiny_model() -> GradientBoosting {
    let machine = by_name("aurora").unwrap();
    let samples = generate_dataset_sized(&machine, 80, 3);
    let x = Matrix::from_fn(samples.len(), 4, |i, j| match j {
        0 => samples[i].o as f64,
        1 => samples[i].v as f64,
        2 => samples[i].nodes as f64,
        _ => samples[i].tile as f64,
    });
    let y: Vec<f64> = samples.iter().map(|s| s.seconds).collect();
    let mut gb = GradientBoosting::new(20, 3, 0.2);
    gb.seed = 9;
    gb.fit(&x, &y).unwrap();
    gb
}

/// One HTTP exchange on a fresh connection; returns (status, body).
/// Transport errors come back as status 0 — under saturate chaos the
/// daemon sheds by answering 503 and closing immediately, so writes and
/// reads on a fresh connection can legitimately hit RST mid-exchange.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let attempt = || -> std::io::Result<String> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        let raw = format!(
            "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(raw.as_bytes())?;
        let mut response = String::new();
        stream.read_to_string(&mut response)?;
        Ok(response)
    };
    let Ok(response) = attempt() else { return (0, String::new()) };
    let status: u16 = response.split_whitespace().nth(1).unwrap_or("0").parse().unwrap_or(0);
    let body = response.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

/// Retry `POST /v1/shutdown` until the daemon takes it (saturate chaos
/// may shed any individual attempt).
fn shutdown(addr: SocketAddr) {
    for _ in 0..100 {
        let (status, _) = request(addr, "POST", "/v1/shutdown", "");
        if status == 200 {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("shutdown never accepted");
}

#[test]
fn chaos_soak_walks_the_full_alert_lifecycle_with_correlated_signals() {
    obs::set_level(Some(Level::Warn));
    let ring = Arc::new(RingSink::new(4096));
    let _ring_handle = obs::add_sink(ring.clone());

    let registry = Arc::new(ModelRegistry::new());
    registry.insert("gb", "aurora", tiny_model());
    let router = Router::new(registry);
    let probe = router.clone();

    // One tight-window critical SLO so the whole cycle fits in seconds:
    // error ratio (sheds count as errors) over 800 ms / 1.6 s windows,
    // scraped every 50 ms, firing after 2 breaches, clear after 3 oks.
    let slo = SloSpec::new(
        "soak_error_ratio",
        Signal::Ratio { num: vec!["errors.".into()], den: vec!["requests.".into()] },
        0.05,
    )
    .critical()
    .windows(Duration::from_millis(800), Duration::from_millis(1600))
    .hysteresis(2, 3);
    let health = HealthConfig {
        scrape_interval: Duration::from_millis(50),
        slos: vec![slo],
        ..HealthConfig::default()
    };
    // Fixed seed: the shed pattern (and with it the test) is reproducible.
    let plane =
        Arc::new(FaultPlaneBuilder::default().seed(7).rate(FaultKind::Saturate, 0.5).build());
    let server =
        Server::bind("127.0.0.1:0", router, 2).unwrap().with_health(health).with_faults(plane);
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run());

    // -- phase A: drive traffic through the chaos until /v1/health
    //    flips to 503 with the firing verdict in the body --
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut fired = false;
    while Instant::now() < deadline {
        for _ in 0..4 {
            let _ = request(addr, "GET", "/healthz", "");
        }
        let (status, body) = request(addr, "GET", "/v1/health", "");
        // A shed also answers 503; only the real report carries the verdict.
        if status == 503 && body.contains("\"status\":\"firing\"") {
            assert!(body.contains("\"critical_firing\":true"), "{body}");
            assert!(body.contains("\"soak_error_ratio\""), "{body}");
            fired = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(40));
    }
    assert!(fired, "/v1/health never flipped to 503/firing under saturate chaos");

    // -- phase B: stop all traffic. With nothing arriving, the burn
    //    windows slide past the chaos era, the ratio decays to 0/0 = 0,
    //    and the alert resolves. Probe the hub through the shared router
    //    handle so the probe itself adds no requests. --
    let hub = Arc::clone(probe.health().expect("health hub installed"));
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut recovered = false;
    while Instant::now() < deadline {
        let (code, body) = hub.health_json();
        if code == 200 {
            assert!(
                body.contains("\"status\":\"resolved\"") || body.contains("\"status\":\"ok\""),
                "{body}"
            );
            recovered = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(recovered, "/v1/health payload never recovered to 200 after chaos traffic stopped");

    // -- the transitions are counted in the pre-registered metric family --
    let metrics = probe.metrics();
    assert!(metrics.alert_transitions[AlertState::Pending].get() >= 1, "missing ok→pending count");
    assert!(
        metrics.alert_transitions[AlertState::Firing].get() >= 1,
        "missing pending→firing count"
    );
    assert!(
        metrics.alert_transitions[AlertState::Resolved].get() >= 1,
        "missing firing→resolved count"
    );
    assert!(metrics.slo_scrapes.get() > 0);

    // -- and the same run emitted correlated health.alert obs events --
    let field_str = |e: &obs::Event, key: &str| match e.field(key) {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("health.alert field {key} missing or non-string: {other:?}"),
    };
    let hops: Vec<(String, String)> = ring
        .events_named("health.alert")
        .iter()
        .filter(|e| field_str(e, "slo") == "soak_error_ratio")
        .map(|e| (field_str(e, "from"), field_str(e, "to")))
        .collect();
    for expected in [("ok", "pending"), ("pending", "firing"), ("firing", "resolved")] {
        assert!(
            hops.iter().any(|(f, t)| (f.as_str(), t.as_str()) == expected),
            "missing {expected:?} in health.alert events: {hops:?}"
        );
    }

    shutdown(addr);
    server_thread.join().unwrap().unwrap();
}

#[test]
fn scrapes_stay_consistent_and_ring_bounded_under_writer_stress() {
    let metrics = Arc::new(Metrics::new());
    let sampler = MetricsSampler::new(&metrics);
    let schema = Arc::clone(sampler.schema());
    let capacity = 32;
    let ring = Ring::new(Arc::clone(&schema), capacity, 60_000_000);
    let mut pushed = Vec::new();

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writers: Vec<_> = (0..8)
        .map(|w| {
            let metrics = Arc::clone(&metrics);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut n: u64 = w;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let route = Route::ALL[(n % Route::ALL.len() as u64) as usize];
                    metrics.record(
                        route,
                        n.is_multiple_of(7),
                        Duration::from_micros((n % 5000) * 37),
                    );
                    if n.is_multiple_of(3) {
                        metrics.record_shed();
                    }
                    if n.is_multiple_of(5) {
                        metrics.cache_hits.inc();
                    } else {
                        metrics.cache_misses.inc();
                    }
                    n = n.wrapping_add(1);
                }
            })
        })
        .collect();

    let mut prev_counters: Option<Vec<u64>> = None;
    for i in 0..400 {
        let sample = sampler.sample(&metrics, 1_000_000 + i * 1_000);
        // Torn-pair check: `observe` bumps buckets before count, and the
        // snapshot reads count first — so a consistent snapshot always
        // has at least as many bucketed observations as counted ones.
        for (h, hist) in sample.hists.iter().enumerate() {
            assert!(
                hist.bucket_total() >= hist.count,
                "torn histogram {:?} at scrape {i}: buckets {} < count {}",
                schema.histograms[h].name,
                hist.bucket_total(),
                hist.count
            );
        }
        // Counters never step backwards between scrapes.
        if let Some(prev) = &prev_counters {
            for (c, (now, before)) in sample.counters.iter().zip(prev).enumerate() {
                assert!(
                    now >= before,
                    "counter {:?} went backwards at scrape {i}: {now} < {before}",
                    schema.counters[c]
                );
            }
        }
        prev_counters = Some(sample.counters.clone());
        ring.push(&sample);
        pushed.push(sample);
        let stats = ring.stats();
        assert!(stats.len <= capacity, "ring over capacity at scrape {i}: {}", stats.len);
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }
    let stats = ring.stats();
    assert!(stats.appended == 400);
    assert_eq!(stats.evicted, 400 - capacity as u64, "capacity must have forced evictions");
    // Replay is exact: the retained samples are the newest ones pushed.
    assert_eq!(ring.with_samples(|s| s.to_vec()), pushed[400 - capacity..]);
}

#[test]
fn connection_gauges_return_to_zero_after_keepalive_soak_drains() {
    let registry = Arc::new(ModelRegistry::new());
    registry.insert("gb", "aurora", tiny_model());
    let router = Router::new(registry);
    let probe = router.clone();
    let server = Server::bind("127.0.0.1:0", router, 2).unwrap().without_health();
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run());
    let metrics = Arc::clone(probe.metrics());

    // Eight keep-alive connections, each completing a few requests and
    // then staying open so shutdown has to force-close them.
    let mut conns: Vec<TcpStream> = Vec::new();
    for _ in 0..8 {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        for _ in 0..3 {
            stream
                .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n")
                .unwrap();
            // Read until the tiny response's body has arrived; keep-alive
            // leaves the socket open for the next round-trip.
            let mut buf = [0u8; 4096];
            let mut got = String::new();
            while !got.contains("ok") {
                let n = stream.read(&mut buf).unwrap();
                assert!(n > 0, "server closed a keep-alive connection mid-soak");
                got.push_str(&String::from_utf8_lossy(&buf[..n]));
            }
        }
        conns.push(stream);
    }
    assert!(metrics.keepalive_reuses.get() >= 16, "soak must exercise keep-alive reuse");
    assert!(metrics.connections_open.get() >= 8, "all soak connections still open");

    // Drain: the daemon force-closes every idle persistent connection.
    shutdown(addr);
    server_thread.join().unwrap().unwrap();
    assert_eq!(metrics.connections_open.get(), 0, "open-connection gauge must drain to zero");
    assert_eq!(metrics.read_paused.get(), 0, "read-paused gauge must drain to zero");
    assert_eq!(metrics.write_stalled.get(), 0, "write-stalled gauge must drain to zero");
    drop(conns);
}
