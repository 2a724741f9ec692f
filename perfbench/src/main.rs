//! chemcost benchmark: drives the shipped `chemcost serve` on a
//! paper-configuration model with seeded traffic, checks every answer
//! against an offline oracle, runs the offline reproduction pipeline, and
//! prints every metric with its unit and sample count. The last stdout
//! line is one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! bash perfbench/run.sh --workload advise_hot --seed 1 --seconds 15 --trace 0
//! bash perfbench/run.sh --compare A/result.json B/result.json
//! ```
//!
//! See `perfbench/README.md` for the metric and workload catalogue.

mod daemon;
mod load;
mod oracle;
mod pipeline;
mod prom;
mod stats;
mod trace;
mod wire;
mod workloads;

use chemcost_linalg::Matrix;
use chemcost_sim::machine::aurora;
use load::{Done, Engine, Verdict};
use oracle::Oracle;
use prom::{Delta, Scrape};
use stats::{mean, median, nearest_rank, sorted};
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;
use workloads::{Load, Source, Workload, DEPTH};

/// Keep-alive connections the generator opens (the reference host's
/// core count; the generator itself is one thread).
const CONNS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Observes in the write probe that follows the read window: a closed
/// loop with one observe in flight per connection.
const PROBE_OBSERVES: usize = 2000;
/// A p99 is reported only over at least this many samples.
const MIN_P99_SAMPLES: usize = 1000;
/// At most this many blocks go into the median-of-blocks p99.
const MAX_P99_BLOCKS: usize = 10;
/// Seed of the offline reproduction pipeline: the corpus `chemcost
/// generate` draws by default, so the accuracy figures are the paper
/// reproduction's and do not vary from run to run.
const PIPELINE_SEED: u64 = 42;
/// The run is invalid when the generator's median lateness exceeds this
/// share of the median latency.
const MAX_LATE_SHARE: f64 = 0.5;
/// Where runs keep their inputs, logs, spans and results.
const OUT_DIR: &str = ".perfbench";

struct Opts {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    chemcost: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        chemcost: PathBuf::from("target/release/chemcost"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|_| format!("{flag}: not a number: {v:?}"));
        match flag.as_str() {
            "--workload" => o.workload = value.clone(),
            "--seed" => o.seed = num(value)?,
            "--seconds" => o.seconds = num(value)?.max(1),
            "--trace" => o.trace = num(value)? != 0,
            "--chemcost" => o.chemcost = PathBuf::from(value),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(o)
}

/// The host a result was measured on. Results from different hosts are
/// never compared.
fn host_fingerprint() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let output = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    vec![
        ("nproc", nproc.to_string()),
        ("cpu_model", cpu),
        ("rustc", output("rustc", &["--version"])),
        // Only inside a git checkout of its own: git would otherwise search
        // the directories above for one.
        (
            "git_sha",
            if Path::new(".git").exists() {
                output("git", &["rev-parse", "HEAD"])
            } else {
                "unknown".into()
            },
        ),
    ]
}

/// One reported figure.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

#[derive(Default)]
struct Report {
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    attempted: usize,
    failed: usize,
    /// Wrong answers and broken invariants; any makes the run incorrect.
    problems: Vec<String>,
    /// Refused, timed-out or lost requests (counted in `failed`).
    refusals: Vec<String>,
    /// Defects the workloads' checks do not fail on, printed with the
    /// report.
    findings: Vec<String>,
}

impl Report {
    fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.end_to_end.push(Metric { name, value, unit, samples });
    }

    fn layer(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.per_layer.push(Metric { name, value, unit, samples });
    }

    /// Count a phase's finished requests. Every failure counts against
    /// `fail_ratio`; wrong answers also make the run incorrect.
    fn tally(&mut self, phase: &str, done: &[Done]) {
        self.attempted += done.len();
        for d in done {
            let (list, why) = match &d.verdict {
                Verdict::Fail(why) => (&mut self.refusals, why),
                Verdict::Wrong(why) => (&mut self.problems, why),
                _ => continue,
            };
            self.failed += 1;
            if list.len() < 10 {
                list.push(format!("{phase}: {:?} request {}: {why}", d.kind, d.tag));
            }
        }
    }
}

fn scrape(addr: SocketAddr) -> Result<(Scrape, usize), String> {
    let (status, body) =
        wire::call(addr, "GET", "/metrics", "").map_err(|e| format!("GET /metrics: {e}"))?;
    if status != 200 {
        return Err(format!("GET /metrics answered {status}"));
    }
    let text = String::from_utf8(body).map_err(|_| "non-UTF-8 /metrics".to_string())?;
    Ok((Scrape::parse(&text)?, text.len()))
}

/// Latency figures (ms) over finished requests.
struct Latency {
    p50: f64,
    /// Median of the p99s of consecutive blocks of at least
    /// `MIN_P99_SAMPLES` requests (in due-time order): a host stall moves
    /// the block it falls in, not the figure.
    p99: f64,
    /// p99 of the whole set.
    p99_all: f64,
    p90: f64,
    mean: f64,
    n: usize,
}

fn latency(done: &[Done]) -> Result<Latency, String> {
    let n = done.len();
    if n < MIN_P99_SAMPLES {
        return Err(format!("only {n} samples; a p99 needs {MIN_P99_SAMPLES}"));
    }
    let mut by_due: Vec<&Done> = done.iter().collect();
    by_due.sort_by_key(|d| d.due_ns);
    let blocks = (n / MIN_P99_SAMPLES).min(MAX_P99_BLOCKS);
    let block_p99: Vec<f64> = (0..blocks)
        .map(|b| {
            let chunk = &by_due[b * n / blocks..(b + 1) * n / blocks];
            nearest_rank(&sorted(&chunk.iter().map(|d| d.latency_ms()).collect::<Vec<_>>()), 99.0)
        })
        .collect();
    let all = sorted(&done.iter().map(Done::latency_ms).collect::<Vec<_>>());
    Ok(Latency {
        p50: nearest_rank(&all, 50.0),
        p99: median(&block_p99),
        p99_all: nearest_rank(&all, 99.0),
        p90: nearest_rank(&all, 90.0),
        mean: mean(&all),
        n,
    })
}

/// Run a closed loop from `source`, `depth` in flight per connection,
/// until the source runs dry or, with `length_ns`, that window ends.
fn closed_loop(
    engine: &mut Engine,
    load: &mut Load,
    source: Source,
    depth: usize,
    length_ns: Option<u64>,
) -> Vec<Done> {
    let start = engine.now_ns() + 1_000_000;
    let schedule = load.start_closed(source, start, CONNS, depth);
    let done = engine.run(schedule, length_ns.map_or(u64::MAX, |l| start + l), load);
    load.closed = None;
    done
}

/// Time `Advisor::sweep` and the flat model's batched predict over the
/// workload's sweep matrices. Each call runs untraced and then inside a
/// span, back to back; the median difference is the tracing overhead
/// per call.
fn layer_probes(oracle: &Oracle, problems: &[(usize, usize)], t: &mut Tracer, r: &mut Report) {
    let advisor = oracle.advisor();
    let (mut predict_ns, mut sweep_ns, mut rows) = (0.0, 0.0, 0);
    let mut overhead_ns = Vec::new();
    let timed = |f: &mut dyn FnMut()| {
        let started = Instant::now();
        f();
        started.elapsed().as_nanos() as f64
    };
    for &(o, v) in problems {
        let c = advisor.candidates(o, v);
        let m = Matrix::from_fn(c.len(), 4, |i, j| {
            [o as f64, v as f64, c[i].0 as f64, c[i].1 as f64][j]
        });
        rows += c.len();
        let plain = timed(&mut || {
            std::hint::black_box(oracle.flat.predict_batch(&m));
        });
        let traced = timed(&mut || {
            t.span("ml.flat.predict_batch", 3, |_| {
                std::hint::black_box(oracle.flat.predict_batch(&m))
            });
        });
        predict_ns += plain;
        overhead_ns.push(traced - plain);
        let plain = timed(&mut || {
            std::hint::black_box(advisor.sweep(o, v));
        });
        let traced = timed(&mut || {
            t.span("core.advisor.sweep", 3, |_| std::hint::black_box(advisor.sweep(o, v)));
        });
        sweep_ns += plain;
        overhead_ns.push(traced - plain);
    }
    let n = problems.len();
    r.layer("ml.flat.ns_per_row", predict_ns / rows as f64, "ns", rows);
    r.layer("core.sweep_us", sweep_ns / n as f64 / 1e3, "us", n);
    r.layer("core.candidates_per_sweep", rows as f64 / n as f64, "count", n);
    r.layer("trace.overhead_us_per_call", median(&overhead_ns) / 1e3, "us", overhead_ns.len());
}

/// Read-path figures from the `/metrics` difference across the window.
/// Returns the sum of the six request-stage means (µs).
fn read_layers(d: &Delta, client_mean_us: f64, r: &mut Report) -> f64 {
    let stage_fam = "chemcost_request_stage_duration_seconds";
    let mut stage_sum = 0.0;
    for (stage, name) in [
        ("read", "serve.stage.read_mean_us"),
        ("queue", "serve.stage.queue_mean_us"),
        ("batch_wait", "serve.stage.batch_wait_mean_us"),
        ("handler", "serve.stage.handler_mean_us"),
        ("reorder", "serve.stage.reorder_mean_us"),
        ("write", "serve.stage.write_mean_us"),
    ] {
        let label = format!("stage=\"{stage}\"");
        let us = d.hist_mean(stage_fam, &[&label]) * 1e6;
        stage_sum += us;
        r.layer(name, us, "us", d.hist_count(stage_fam, &[&label]) as usize);
    }
    let n = d.hist_count(stage_fam, &["stage=\"read\""]) as usize;
    r.layer("serve.unattributed_us", client_mean_us - stage_sum, "us", n);
    let iter = "chemcost_event_loop_iteration_duration_seconds";
    r.layer(
        "serve.event_loop.iter_mean_us",
        d.hist_mean(iter, &[]) * 1e6,
        "us",
        d.hist_count(iter, &[]) as usize,
    );
    let wake = "chemcost_event_loop_events_per_wake";
    r.layer(
        "serve.event_loop.events_per_wake",
        d.hist_mean(wake, &[]),
        "count",
        d.hist_count(wake, &[]) as usize,
    );
    let flushes = d.counter("chemcost_batch_flush_total", &[]);
    r.layer(
        "serve.batch.rows_per_flush",
        d.hist_mean("chemcost_batch_size", &[]),
        "rows",
        flushes as usize,
    );
    for (reason, name) in [
        ("drain", "serve.batch.flush_drain_share"),
        ("window", "serve.batch.flush_window_share"),
        ("full", "serve.batch.flush_full_share"),
    ] {
        let n = d.counter("chemcost_batch_flush_total", &[&format!("reason=\"{reason}\"")]);
        r.layer(name, if flushes > 0.0 { n / flushes } else { 0.0 }, "ratio", flushes as usize);
    }
    let adv = "chemcost_advise_stage_duration_seconds";
    for (stage, name) in [
        ("cache", "serve.advise.cache_mean_us"),
        ("sweep", "serve.advise.sweep_mean_us"),
        ("encode", "serve.advise.encode_mean_us"),
        ("shadow", "serve.advise.shadow_mean_us"),
    ] {
        let label = format!("stage=\"{stage}\"");
        r.layer(
            name,
            d.hist_mean(adv, &[&label]) * 1e6,
            "us",
            d.hist_count(adv, &[&label]) as usize,
        );
    }
    let hits = d.counter("chemcost_advise_cache_hits_total", &[]);
    let lookups = hits + d.counter("chemcost_advise_cache_misses_total", &[]);
    r.layer(
        "serve.cache.hit_ratio",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
        "ratio",
        lookups as usize,
    );
    r.layer("serve.shed", d.counter("chemcost_requests_shed_total", &[]), "count", 1);
    r.layer("health.scrapes", d.counter("chemcost_slo_scrapes_total", &[]), "count", 1);
    r.layer(
        "health.alerts_fired",
        d.counter("chemcost_alerts_transitions_total", &["to=\"firing\""]),
        "count",
        1,
    );
    stage_sum
}

/// Write-path figures from the `/metrics` difference across the probe.
fn write_layers(d: &Delta, r: &mut Report) {
    let obs = "chemcost_quality_observations_total";
    r.layer("quality.accepted", d.counter(obs, &["outcome=\"accepted\""]), "count", 1);
    r.layer("quality.rejected", d.counter(obs, &["outcome=\"rejected\""]), "count", 1);
    r.layer(
        "lifecycle.retrains",
        d.counter("chemcost_lifecycle_transitions_total", &["to=\"training\""]),
        "count",
        1,
    );
    let promo = "chemcost_lifecycle_promotions_total";
    let promotions =
        d.counter(promo, &["outcome=\"auto\""]) + d.counter(promo, &["outcome=\"operator\""]);
    r.layer("lifecycle.promotions", promotions, "count", 1);
    let fit = "chemcost_lifecycle_fit_duration_seconds";
    r.layer(
        "lifecycle.fit_mean_ms",
        d.hist_mean(fit, &[]) * 1e3,
        "ms",
        d.hist_count(fit, &[]) as usize,
    );
}

fn run(o: &Opts, w: Workload, dir: &Path, t: &mut Tracer) -> Result<Report, String> {
    let mut r = Report::default();

    // The offline pipeline, alone on the host.
    let pipe = t.span("pipeline", 1, |t| pipeline::run(PIPELINE_SEED, t));
    let pipeline_rss = daemon::peak_rss_mb(std::process::id())?;

    // Set-up: generate + train + serve until the first answer, repeated;
    // the last daemon serves the load.
    let mut setups = Vec::new();
    let mut served = None;
    for i in 0..SETUPS {
        let (d, s) = t.span("setup", 2, |_| daemon::set_up(&o.chemcost, dir, o.seed))?;
        setups.push(s);
        if i + 1 < SETUPS {
            d.shut_down()?;
        } else {
            served = Some(d);
        }
    }
    let d = served.expect("at least one set-up");
    let oracle = Oracle::load(&d.model, aurora())?;
    let mut load = Load::new(&oracle, o.seed);
    let mut engine = Engine::connect(d.addr, CONNS).map_err(|e| format!("connecting: {e}"))?;

    // Warm-up: every hot question once, checked, filling the cache.
    let asks = load.warm_up_asks();
    let warm = closed_loop(&mut engine, &mut load, Source::Backlog(asks), DEPTH, None);
    r.tally("warm-up", &warm);

    // The measured window.
    let (before, _) = scrape(d.addr)?;
    let cpu_before = daemon::cpu_us(d.pid())?;
    let source = match w {
        Workload::AdviseHot => Source::Hot,
        Workload::AdviseCold => Source::Cold,
    };
    let length = o.seconds * 1_000_000_000;
    let mut window = t.span("window", 3, |t| {
        let done = closed_loop(&mut engine, &mut load, source, DEPTH, Some(length));
        let base = t.ns(engine.epoch());
        for d in &done {
            t.record(d.kind.span_name(), base + d.start_ns(), base + d.done_ns, d.tag as u64);
        }
        done
    });
    let cpu_after = daemon::cpu_us(d.pid())?;
    let (after, _) = scrape(d.addr)?;
    let peak_rss = daemon::peak_rss_mb(d.pid())?;

    // Deferred oracle checks (cold answers need an offline sweep each).
    let mut deferred = Vec::new();
    let mut later = Vec::new();
    for (i, d) in window.iter_mut().enumerate() {
        if matches!(d.verdict, Verdict::Later(_)) {
            let Verdict::Later(body) = std::mem::replace(&mut d.verdict, Verdict::Ok) else {
                unreachable!()
            };
            deferred.push(i);
            later.push((d.tag, body));
        }
    }
    let checked = t.span("oracle.check", 4, |_| load.check_later(&later));
    for (i, result) in deferred.into_iter().zip(checked) {
        if let Err(e) = result {
            window[i].verdict = Verdict::Wrong(e);
        }
    }
    r.tally("window", &window);
    let reads = latency(&window)?;
    let (p50, p99, n_reads) = (reads.p50, reads.p99, reads.n);
    let ok = window.iter().filter(|d| matches!(d.verdict, Verdict::Ok)).count();
    let client_mean_us = mean(&window.iter().map(|d| d.latency_ms() * 1e3).collect::<Vec<_>>());
    // How late the generator sent each request: in a closed loop, the
    // time from an answer to the request it releases.
    let late = sorted(&window.iter().map(Done::late_ms).collect::<Vec<_>>());
    let (late_p50, late_p99) = (nearest_rank(&late, 50.0), nearest_rank(&late, 99.0));

    // Write probe on fresh connections (the daemon closes keep-alive
    // connections left idle through the deferred checks): fetch answers
    // to the hot questions, observe each once, then ask the hot questions
    // again to see what any promoted model answers.
    engine = Engine::connect(d.addr, CONNS).map_err(|e| format!("connecting: {e}"))?;
    let asks = load.hot_asks(PROBE_OBSERVES);
    load.collect_ids = true;
    let fetched = closed_loop(&mut engine, &mut load, Source::Backlog(asks), DEPTH, None);
    load.collect_ids = false;
    r.tally("probe advise", &fetched);
    let asks = load.observe_asks(PROBE_OBSERVES);
    let probe = t.span("write_probe", 5, |_| {
        closed_loop(&mut engine, &mut load, Source::Backlog(asks), 1, None)
    });
    r.tally("probe observe", &probe);
    let (after_probe, _) = scrape(d.addr)?;
    let asks = load.hot_asks(load.n_hot());
    let again = closed_loop(&mut engine, &mut load, Source::Backlog(asks), DEPTH, None);
    r.tally("probe re-advise", &again);
    let observes = latency(&probe)?;

    r.e2e("setup_s", median(&setups), "s", setups.len());
    r.e2e("p50_ms", p50, "ms", n_reads);
    r.e2e("achieved_rps", ok as f64 / o.seconds as f64, "1/s", ok);
    r.e2e("peak_rss_mb", peak_rss, "MiB", 1);
    r.e2e("test_mape_aurora", pipe.test_mape[0], "ratio", 1);
    r.e2e("test_mape_frontier", pipe.test_mape[1], "ratio", 1);
    r.e2e("stq_goal_mape", pipe.stq_goal_mape, "ratio", 2);
    r.e2e("bq_goal_mape", pipe.bq_goal_mape, "ratio", 2);
    r.e2e("al_final_mape", pipe.al_final_mape, "ratio", 1);

    // Per-layer attribution, and the invariants that make the run valid.
    let stage_sum = read_layers(&Delta { before: &before, after: &after }, client_mean_us, &mut r);
    write_layers(&Delta { before: &after, after: &after_probe }, &mut r);
    if stage_sum > client_mean_us {
        r.problems.push(format!(
            "stage reconciliation: server stages sum to {stage_sum:.1} us, above the client mean {client_mean_us:.1} us"
        ));
    }
    if late_p50 > MAX_LATE_SHARE * p50 {
        r.problems.push(format!(
            "generator ran late: median {late_p50:.3} ms from an answer to the next request, against a p50 latency of {p50:.3} ms; the throughput measured the generator"
        ));
    }
    let alerts = Delta { before: &before, after: &after }
        .counter("chemcost_alerts_transitions_total", &["to=\"firing\""]);
    if alerts > 0.0 {
        r.findings.push(format!(
            "{alerts} built-in SLO alert(s) fired during the read window (see GET /v1/health)"
        ));
    }
    if load.implausible_answers > 0 {
        r.findings.push(format!(
            "{} distinct answers recommended a non-positive runtime ({} answers came from lifecycle-promoted models)",
            load.implausible_answers, load.promoted_answers
        ));
    }
    if t.enabled() {
        let problems = match w {
            Workload::AdviseHot => load.hot_problems(),
            Workload::AdviseCold => load.cold_problems(load.hot_problems().len()),
        };
        layer_probes(&oracle, &problems, t, &mut r);
        let mut render = Vec::new();
        let mut bytes = 0;
        for _ in 0..20 {
            let started = Instant::now();
            bytes = scrape(d.addr)?.1;
            render.push(started.elapsed().as_secs_f64() * 1e6);
        }
        r.layer("serve.metrics.render_us", median(&render), "us", render.len());
        r.layer("serve.metrics.bytes", bytes as f64, "bytes", 1);
    }
    drop(engine);
    t.span("shutdown", 6, |_| d.shut_down())?;

    r.layer("ml.flat.compile_ms", pipe.compile_ms, "ms", 1);
    r.layer("ml.flat.nodes", pipe.flat_nodes as f64, "count", 1);
    r.layer("sim.datagen_s", pipe.datagen_s, "s", 2);
    r.layer("ml.fit_s", pipe.fit_s, "s", 2);
    r.layer("ml.fit_more_ms", pipe.fit_more_ms, "ms", 1);
    r.layer("core.stq_table_s", pipe.stq_table_s, "s", 2);
    r.layer("core.bq_table_s", pipe.bq_table_s, "s", 2);
    r.layer("active.round_s", pipe.al_round_s, "s", pipe.al_rounds);
    r.layer("proc.pipeline_rss_mb", pipeline_rss, "MiB", 1);
    r.layer("proc.server_cpu_us_per_req", (cpu_after - cpu_before) / n_reads as f64, "us", n_reads);
    // Reported but too noisy on a 2-vCPU host to bound (see README).
    r.layer("p99_ms", p99, "ms", n_reads);
    r.layer("observe_p99_ms", observes.p99, "ms", observes.n);
    r.layer("pipeline_s", pipe.pipeline_s, "s", 1);
    r.layer("loadgen.window_p99_ms", reads.p99_all, "ms", n_reads);
    r.layer("loadgen.p90_ms", reads.p90, "ms", n_reads);
    r.layer("loadgen.mean_ms", reads.mean, "ms", n_reads);
    r.layer("loadgen.observe_p50_ms", observes.p50, "ms", observes.n);
    r.layer("loadgen.observe_p90_ms", observes.p90, "ms", observes.n);
    r.layer("loadgen.observe_mean_ms", observes.mean, "ms", observes.n);
    r.layer("loadgen.observe_window_p99_ms", observes.p99_all, "ms", observes.n);
    r.layer("loadgen.late_p50_ms", late_p50, "ms", late.len());
    r.layer("loadgen.late_p99_ms", late_p99, "ms", late.len());
    r.layer("loadgen.promoted_answers", load.promoted_answers as f64, "count", 1);
    r.layer("loadgen.implausible_answers", load.implausible_answers as f64, "count", 1);
    r.layer("fail_ratio", r.failed as f64 / r.attempted as f64, "ratio", r.attempted);
    r.layer("trace.spans", t.spans().len() as f64, "count", 1);
    Ok(r)
}

fn json_metrics(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// `--compare A B`: print the metric-by-metric difference of two result
/// files, refusing when they were measured on different hosts.
fn compare(a: &str, b: &str) -> Result<(), String> {
    use chemcost_serve::json::Json;
    let load = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (ja, jb) = (load(a)?, load(b)?);
    let (ha, hb) = (ja.get("host").map(Json::encode), jb.get("host").map(Json::encode));
    if ha != hb {
        return Err(format!(
            "host mismatch; refusing to compare\n  {a}: {}\n  {b}: {}",
            ha.unwrap_or_default(),
            hb.unwrap_or_default()
        ));
    }
    let (Some(Json::Obj(ma)), Some(mb)) = (ja.get("metrics"), jb.get("metrics")) else {
        return Err("result file without metrics".into());
    };
    println!("{:<36} {:>14} {:>14} {:>9}", "metric", a, b, "delta");
    for (name, va) in ma {
        let x = va.get("value").and_then(Json::as_f64);
        let y = mb.get(name).and_then(|v| v.get("value")).and_then(Json::as_f64);
        if let (Some(x), Some(y)) = (x, y) {
            let delta = if x != 0.0 { format!("{:+.1}%", (y - x) / x * 100.0) } else { "-".into() };
            println!("{name:<36} {x:>14.4} {y:>14.4} {delta:>9}");
        }
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--compare") {
        let file = |k: usize| args.get(i + k).map_or("", String::as_str);
        if let Err(e) = compare(file(1), file(2)) {
            eprintln!("perfbench: {e}");
            std::process::exit(3);
        }
        return;
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(workload) = Workload::parse(&opts.workload) else {
        eprintln!("perfbench: --workload must be advise_hot or advise_cold");
        std::process::exit(2);
    };
    let tag = format!(
        "{}-seed{}-trace{}-{}",
        opts.workload,
        opts.seed,
        u8::from(opts.trace),
        std::process::id()
    );
    let dir = Path::new(OUT_DIR).join(&tag);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: {}: {e}", dir.display());
        std::process::exit(1);
    }
    let mut tracer = Tracer::new(opts.trace);
    let result = run(&opts, workload, &dir, &mut tracer);
    // Inputs are large and reproducible from the seed; keep logs, spans
    // and the result.
    for big in ["aurora.csv", "model.ccgb"] {
        let _ = std::fs::remove_file(dir.join(big));
    }
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    if opts.trace {
        let path = dir.join("spans.jsonl");
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("perfbench: {}: {e}", path.display());
            std::process::exit(1);
        }
    }

    let host = host_fingerprint();
    let mut text = String::new();
    let _ = writeln!(
        text,
        "chemcost perfbench: workload {} seed {} ({} s window)",
        opts.workload, opts.seed, opts.seconds
    );
    let _ = writeln!(
        text,
        "host: {}",
        host.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(", ")
    );
    for (title, set) in [("end-to-end", &report.end_to_end), ("per-layer", &report.per_layer)] {
        let _ = writeln!(text, "{title}:");
        for m in set.iter() {
            let _ =
                writeln!(text, "  {:<36} {:>14.4} {:<6} n={}", m.name, m.value, m.unit, m.samples);
        }
    }
    let _ = writeln!(text, "attempted {} failed {}", report.attempted, report.failed);
    for p in &report.problems {
        let _ = writeln!(text, "PROBLEM: {p}");
    }
    for f in &report.refusals {
        let _ = writeln!(text, "FAILED: {f}");
    }
    for f in &report.findings {
        let _ = writeln!(text, "FINDING: {f}");
    }
    let correct = report.problems.is_empty();
    let shown = if opts.trace { &report.per_layer } else { &report.end_to_end };
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted,
        report.failed,
        json_metrics(shown)
    );
    let host_json: Vec<String> =
        host.iter().map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('"', "'"))).collect();
    let all: Vec<&Metric> = report.end_to_end.iter().chain(&report.per_layer).collect();
    let all_json: Vec<String> = all
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}}}",
                m.name,
                json_num(m.value),
                m.unit,
                m.samples
            )
        })
        .collect();
    let saved = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"host\": {{{}}}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
        opts.workload,
        opts.seed,
        host_json.join(", "),
        report.attempted,
        report.failed,
        all_json.join(", ")
    );
    if let Err(e) = std::fs::write(dir.join("result.json"), saved) {
        eprintln!("perfbench: result.json: {e}");
    }
    print!("{text}");
    println!("{line}");
}
