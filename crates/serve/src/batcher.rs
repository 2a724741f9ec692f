//! Micro-batched model inference.
//!
//! The event-loop server can have many `/v1/predict` requests in flight
//! at once, and `BENCH_baseline.json` shows the flat model is ~4.5×
//! cheaper per row when rows are scored in one batched call than one
//! call per row. The [`Batcher`] exploits that: worker
//! threads hand it their evaluation matrices and block; a collector
//! thread coalesces everything that arrives within a bounded window
//! (default ≤200µs, `--batch-window-us`) or up to a row budget
//! (`--batch-max`) into **one** `FlatGbt::predict_batch` call per model,
//! then distributes the slices back.
//!
//! The window is a latency ceiling, not a floor: the collector flushes
//! early when the row budget fills (`full`), and — the common
//! low-traffic case — as soon as every pending predict request (each
//! counted once, from the moment it is queued for a worker; see
//! [`Batcher::enter_route`]) has already submitted its matrix
//! (`drain`), because waiting any longer can only add latency, never
//! batching. A request whose own matrix already meets the row budget
//! bypasses the queue entirely and scores inline.
//!
//! `/v1/advise` does not come here: its sweep is a `(nodes × tile)`
//! grid at one `(O, V)`, which `FlatGbt::predict_grid` scores inline
//! with one descent per tree — cheaper than any batch of its rows.
//!
//! Each flush increments `chemcost_batch_flush_total{reason}` and
//! records the coalesced row count in `chemcost_batch_size`
//! (see `docs/SERVING.md`), and — when `Debug` logging is enabled —
//! emits one `batch.flush` obs event carrying the reason, job and row
//! counts, how long the oldest job waited, by how much that overran the
//! configured window, and the comma-joined trace ids of every request
//! in the batch so JSONL sinks can correlate a flush back to the access
//! log. Each job also remembers its submitter's trace id and submit
//! instant, which feed the per-request `batch_wait` timeline stage (see
//! [`crate::timeline`]).

use crate::metrics::Metrics;
use crate::timeline;
use chemcost_linalg::Matrix;
use chemcost_ml::flat::FlatGbt;
use chemcost_obs::{self as obs, label_enum, Level};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default bound on how long a submitted matrix may wait for company.
pub const DEFAULT_WINDOW: Duration = Duration::from_micros(200);
/// Default row budget per coalesced batch.
pub const DEFAULT_MAX_ROWS: usize = 1024;

label_enum! {
    /// Why the collector closed a batch and called the model.
    pub enum FlushReason {
        /// The coalesced row count reached the `--batch-max` budget.
        Full => "full",
        /// The `--batch-window-us` wait expired.
        Window => "window",
        /// Every pending predict request had already submitted —
        /// nothing more could join, so waiting would only add latency.
        /// The common flush at low concurrency.
        Drain => "drain",
        /// The batcher is shutting down; leftovers are scored, never dropped.
        Shutdown => "shutdown",
    }
}

/// One submitted evaluation: a matrix, the model to score it with, and
/// the channel the caller is blocked on.
struct Job {
    flat: Arc<FlatGbt>,
    /// Shared with the submitter, which keeps its own handle so it can
    /// score inline if the collector ever drops the job unanswered.
    x: Arc<Matrix>,
    /// Answer channel: the slice plus which reason closed the batch.
    tx: SyncSender<(Vec<f64>, FlushReason)>,
    /// The submitter's trace id, captured at submit so `batch.flush`
    /// events can name the requests a flush served.
    trace: Option<Arc<str>>,
    /// When the submitter handed the matrix over; the oldest job's age
    /// at flush time is the batch's measured window overrun.
    submitted: Instant,
}

/// State shared between submitters and the collector thread.
struct Shared {
    queue: Mutex<Vec<Job>>,
    /// Signaled on submit and on shutdown.
    arrived: Condvar,
    shutdown: AtomicBool,
    /// Pending predict requests, queued or being handled (whether or
    /// not they have submitted yet), one [`RouteGuard`] each. The
    /// collector flushes early once every one of them is accounted for
    /// in the queue.
    interested: AtomicUsize,
}

/// Tuning knobs, from `--batch-window-us` / `--batch-max`.
#[derive(Debug, Clone, Copy)]
pub struct BatcherConfig {
    /// Longest a submitted matrix waits for more work.
    pub window: Duration,
    /// Row budget per coalesced batch; a flush happens at or above it.
    pub max_rows: usize,
}

impl Default for BatcherConfig {
    fn default() -> BatcherConfig {
        BatcherConfig { window: DEFAULT_WINDOW, max_rows: DEFAULT_MAX_ROWS }
    }
}

/// Coalesces concurrent flat-model evaluations into single batched
/// calls. See the module docs for the policy.
pub struct Batcher {
    shared: Arc<Shared>,
    config: BatcherConfig,
    metrics: Arc<Metrics>,
    collector: Mutex<Option<JoinHandle<()>>>,
}

impl Batcher {
    /// Start a batcher with its collector thread.
    pub fn start(config: BatcherConfig, metrics: Arc<Metrics>) -> Arc<Batcher> {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Vec::new()),
            arrived: Condvar::new(),
            shutdown: AtomicBool::new(false),
            interested: AtomicUsize::new(0),
        });
        let batcher = Arc::new(Batcher {
            shared: Arc::clone(&shared),
            config,
            metrics: Arc::clone(&metrics),
            collector: Mutex::new(None),
        });
        let handle = {
            let shared = Arc::clone(&shared);
            let metrics = Arc::clone(&metrics);
            std::thread::Builder::new()
                .name("chemcost-batcher".into())
                .spawn(move || collect_loop(&shared, config, &metrics))
                .expect("spawn batcher collector")
        };
        *batcher.collector.lock().unwrap() = Some(handle);
        batcher
    }

    /// The effective tuning knobs.
    pub fn config(&self) -> BatcherConfig {
        self.config
    }

    /// Count one pending predict request for the lifetime of the
    /// returned guard. The collector uses this count to flush as soon as
    /// no more submissions can arrive (`drain`), so each request must
    /// hold exactly one guard from the moment it is queued until its
    /// handler returns: a request counted twice keeps every flush
    /// waiting out the window.
    pub fn enter_route(self: &Arc<Self>) -> RouteGuard {
        self.shared.interested.fetch_add(1, Ordering::SeqCst);
        RouteGuard { shared: Arc::clone(&self.shared) }
    }

    /// Score `x` with `flat`, riding a coalesced batch when other
    /// submissions are in flight. Blocks the calling worker for at most
    /// roughly the batch window plus the batched model call itself.
    pub fn predict(&self, flat: &Arc<FlatGbt>, x: Matrix) -> Vec<f64> {
        let submitted = Instant::now();
        let rows = x.nrows();
        // Already a full batch on its own (a large `/v1/predict`):
        // coalescing cannot help, so score inline and skip the queue.
        if rows >= self.config.max_rows {
            self.metrics.record_batch_flush(FlushReason::Full, rows);
            let seconds = flat.predict_batch(&x);
            timeline::note_batch(submitted.elapsed(), rows, FlushReason::Full);
            return seconds;
        }
        let (tx, rx) = sync_channel(1);
        // Shared so the fallback arm below still has the inputs.
        let x = Arc::new(x);
        {
            let mut queue = self.shared.queue.lock().unwrap();
            // Check shutdown *under the queue lock*: the collector's
            // decision to exit (shutdown set + queue empty) is made
            // under this same lock, so either we observe shutdown here
            // and score inline, or the collector observes our job and
            // flushes it — a push after the collector has exited cannot
            // happen.
            if self.shared.shutdown.load(Ordering::SeqCst) {
                drop(queue);
                self.metrics.record_batch_flush(FlushReason::Shutdown, rows);
                let seconds = flat.predict_batch(&x);
                timeline::note_batch(submitted.elapsed(), rows, FlushReason::Shutdown);
                return seconds;
            }
            queue.push(Job {
                flat: Arc::clone(flat),
                x: Arc::clone(&x),
                tx,
                trace: obs::current_trace(),
                submitted,
            });
            self.shared.arrived.notify_all();
        }
        match rx.recv() {
            Ok((seconds, reason)) => {
                timeline::note_batch(submitted.elapsed(), rows, reason);
                seconds
            }
            // The collector dropped the job without answering — only
            // possible if its thread died, which is never expected.
            // Fall back to an inline call rather than failing requests.
            Err(_) => {
                self.metrics.record_batch_flush(FlushReason::Shutdown, rows);
                let seconds = flat.predict_batch(&x);
                timeline::note_batch(submitted.elapsed(), rows, FlushReason::Shutdown);
                seconds
            }
        }
    }

    /// Stop the collector: flush whatever is queued (reason `shutdown`)
    /// and join the thread. Idempotent. A `predict` racing this call is
    /// safe — it re-checks the flag under the queue lock and scores
    /// inline once set — though the server still joins its worker pool
    /// first so in-flight requests batch normally.
    pub fn shutdown(&self) {
        {
            // Store + notify under the queue lock, or a collector that
            // has checked the predicate but not yet parked misses the
            // wakeup and the join below never returns.
            let _queue = self.shared.queue.lock().unwrap();
            self.shared.shutdown.store(true, Ordering::SeqCst);
            self.shared.arrived.notify_all();
        }
        if let Some(handle) = self.collector.lock().unwrap().take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// RAII count of one pending predict request (see
/// [`Batcher::enter_route`]).
pub struct RouteGuard {
    shared: Arc<Shared>,
}

impl Drop for RouteGuard {
    fn drop(&mut self) {
        self.shared.interested.fetch_sub(1, Ordering::SeqCst);
        // A collector mid-window waiting on `interested` to drop needs a
        // nudge, or it sleeps out the full window for nothing.
        self.shared.arrived.notify_all();
    }
}

/// The collector: wait for work, coalesce under the window, flush.
///
/// The job list and the row-concatenation scratch live here, outside the
/// loop, and are recycled flush after flush: swapping the queue out
/// hands its capacity back on the next cycle, so a steady request rate
/// reaches a state where a flush allocates only the per-job result
/// vectors it must send back.
fn collect_loop(shared: &Shared, config: BatcherConfig, metrics: &Metrics) {
    let mut jobs: Vec<Job> = Vec::new();
    let mut scratch: Vec<f64> = Vec::new();
    loop {
        let reason = {
            let mut queue = shared.queue.lock().unwrap();
            while queue.is_empty() && !shared.shutdown.load(Ordering::SeqCst) {
                queue = shared.arrived.wait(queue).unwrap();
            }
            if queue.is_empty() {
                return; // shutdown with nothing left
            }
            let deadline = Instant::now() + config.window;
            let reason = loop {
                let rows: usize = queue.iter().map(|j| j.x.nrows()).sum();
                if rows >= config.max_rows {
                    break FlushReason::Full;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break FlushReason::Shutdown;
                }
                // Every pending predict request has already submitted:
                // flush now, nothing more is coming.
                if shared.interested.load(Ordering::SeqCst) <= queue.len() {
                    break FlushReason::Drain;
                }
                let now = Instant::now();
                if now >= deadline {
                    break FlushReason::Window;
                }
                let (q, _timeout) = shared.arrived.wait_timeout(queue, deadline - now).unwrap();
                queue = q;
            };
            // `jobs` comes back empty from the previous flush; the swap
            // donates its retained capacity to the queue.
            std::mem::swap(&mut *queue, &mut jobs);
            reason
        };
        flush(&mut jobs, reason, metrics, config.window, &mut scratch);
    }
}

/// Score a flushed set of jobs: group by model identity, one batched
/// call per model, and hand each caller its slice. Emits one
/// `batch.flush` obs event per flush (satellite of PR 8) before the
/// model calls, so the event's `waited_us` measures queueing, not
/// inference.
fn flush(
    jobs: &mut Vec<Job>,
    reason: FlushReason,
    metrics: &Metrics,
    window: Duration,
    scratch: &mut Vec<f64>,
) {
    if obs::enabled(Level::Debug) && !jobs.is_empty() {
        let rows: usize = jobs.iter().map(|j| j.x.nrows()).sum();
        // Age of the oldest job: how long the batch actually waited.
        let waited = jobs.iter().map(|j| j.submitted.elapsed()).max().unwrap_or_default();
        let overrun = waited.saturating_sub(window);
        let traces: Vec<&str> = jobs.iter().filter_map(|j| j.trace.as_deref()).collect();
        obs::event!(
            Level::Debug,
            "batch.flush",
            reason = reason.label(),
            jobs = jobs.len(),
            rows = rows,
            waited_us = waited.as_micros() as u64,
            window_overrun_us = overrun.as_micros() as u64,
            traces = traces.join(","),
        );
    }
    // Group by (model pointer, feature width). Vec scan, not a map: a
    // flush holds a handful of jobs, nearly always one group.
    let mut groups: Vec<(usize, usize, Vec<Job>)> = Vec::new();
    for job in jobs.drain(..) {
        let key = (Arc::as_ptr(&job.flat) as usize, job.x.ncols());
        match groups.iter_mut().find(|(p, c, _)| (*p, *c) == key) {
            Some((_, _, g)) => g.push(job),
            None => groups.push((key.0, key.1, vec![job])),
        }
    }
    for (_, cols, group) in groups {
        let total_rows: usize = group.iter().map(|j| j.x.nrows()).sum();
        metrics.record_batch_flush(reason, total_rows);
        if group.len() == 1 {
            let job = group.into_iter().next().expect("single-job group");
            let seconds = job.flat.predict_batch(&job.x);
            let _ = job.tx.send((seconds, reason));
            continue;
        }
        // Concatenate rows into the recycled scratch, lend it to the
        // Matrix for the batched call, then take it back for next time.
        scratch.clear();
        scratch.reserve(total_rows * cols);
        for job in &group {
            scratch.extend_from_slice(job.x.as_slice());
        }
        let x = Matrix::from_vec(total_rows, cols, std::mem::take(scratch));
        let seconds = group[0].flat.predict_batch(&x);
        *scratch = x.into_vec();
        let mut offset = 0;
        for job in group {
            let n = job.x.nrows();
            let _ = job.tx.send((seconds[offset..offset + n].to_vec(), reason));
            offset += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chemcost_ml::gradient_boosting::GradientBoosting;
    use chemcost_ml::Regressor;

    fn tiny_flat() -> Arc<FlatGbt> {
        let x = Matrix::from_fn(60, 4, |i, j| ((i * 7 + j * 3) % 13) as f64 + 1.0);
        let y: Vec<f64> = (0..60).map(|i| (i % 9) as f64 + 1.0).collect();
        let mut gb = GradientBoosting::new(10, 3, 0.3);
        gb.seed = 1;
        gb.fit(&x, &y).unwrap();
        Arc::new(FlatGbt::compile(&gb))
    }

    fn batcher(window_us: u64, max_rows: usize) -> (Arc<Batcher>, Arc<Metrics>) {
        let metrics = Arc::new(Metrics::new());
        let config = BatcherConfig { window: Duration::from_micros(window_us), max_rows };
        (Batcher::start(config, Arc::clone(&metrics)), metrics)
    }

    fn some_rows(n: usize, salt: u64) -> Matrix {
        Matrix::from_fn(n, 4, |i, j| ((i as u64 * 5 + j as u64 * 11 + salt) % 17) as f64 + 1.0)
    }

    #[test]
    fn batched_results_match_direct_calls() {
        let flat = tiny_flat();
        let (batcher, _metrics) = batcher(200, 1024);
        let mut threads = Vec::new();
        for t in 0..8u64 {
            let flat = Arc::clone(&flat);
            let batcher = Arc::clone(&batcher);
            threads.push(std::thread::spawn(move || {
                let _guard = batcher.enter_route();
                let x = some_rows(3 + t as usize, t);
                let expect = flat.predict_batch(&x);
                let got = batcher.predict(&flat, x);
                assert_eq!(got, expect, "thread {t}: batched != direct");
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        batcher.shutdown();
    }

    #[test]
    fn distinct_models_in_one_flush_stay_separate() {
        let flat_a = tiny_flat();
        let flat_b = {
            let x = Matrix::from_fn(60, 4, |i, j| ((i * 3 + j * 7) % 11) as f64 + 2.0);
            let y: Vec<f64> = (0..60).map(|i| (i % 5) as f64 * 3.0 + 1.0).collect();
            let mut gb = GradientBoosting::new(10, 3, 0.3);
            gb.seed = 2;
            gb.fit(&x, &y).unwrap();
            Arc::new(FlatGbt::compile(&gb))
        };
        // A long window so both jobs land in the same flush.
        let (batcher, _metrics) = batcher(20_000, 1024);
        let mut threads = Vec::new();
        for (i, flat) in [flat_a, flat_b].into_iter().enumerate() {
            let batcher = Arc::clone(&batcher);
            threads.push(std::thread::spawn(move || {
                let _guard = batcher.enter_route();
                let x = some_rows(4, i as u64);
                let expect = flat.predict_batch(&x);
                assert_eq!(batcher.predict(&flat, x), expect, "model {i}");
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        batcher.shutdown();
    }

    #[test]
    fn oversized_submission_bypasses_the_queue() {
        let flat = tiny_flat();
        let (batcher, metrics) = batcher(200, 8);
        let _guard = batcher.enter_route();
        let x = some_rows(32, 9);
        let expect = flat.predict_batch(&x);
        assert_eq!(batcher.predict(&flat, x), expect);
        assert_eq!(metrics.batch_flushes[FlushReason::Full].get(), 1);
        batcher.shutdown();
    }

    #[test]
    fn solo_submission_flushes_as_drain_without_waiting_the_window() {
        let flat = tiny_flat();
        // A pathologically long window: if the drain fast path broke,
        // this test would take half a second instead of microseconds.
        let (batcher, metrics) = batcher(500_000, 1024);
        let _guard = batcher.enter_route();
        let started = Instant::now();
        let _ = batcher.predict(&flat, some_rows(2, 1));
        assert!(
            started.elapsed() < Duration::from_millis(200),
            "solo predict waited the window: {:?}",
            started.elapsed()
        );
        assert_eq!(metrics.batch_flushes[FlushReason::Drain].get(), 1);
        batcher.shutdown();
    }

    #[test]
    fn predict_after_shutdown_scores_inline_as_shutdown_flush() {
        let flat = tiny_flat();
        let (batcher, metrics) = batcher(200, 1024);
        batcher.shutdown();
        // The collector is gone; a late submitter must not hang or
        // panic — it scores inline and labels the flush `shutdown`.
        let x = some_rows(3, 5);
        let expect = flat.predict_batch(&x);
        assert_eq!(batcher.predict(&flat, x), expect);
        assert_eq!(metrics.batch_flushes[FlushReason::Shutdown].get(), 1);
        assert_eq!(metrics.batch_flushes[FlushReason::Full].get(), 0);
    }

    /// Satellite (PR 8): a flush emits one `batch.flush` obs event with
    /// the reason, size, window overrun, and the submitting request's
    /// trace id.
    #[test]
    fn flush_emits_a_batch_flush_event_with_traces() {
        let flat = tiny_flat();
        let (batcher, _metrics) = batcher(200, 1024);
        obs::set_level(Some(Level::Debug));
        let ring = Arc::new(obs::RingSink::new(64));
        let handle = obs::add_sink(ring.clone());
        {
            let _scope = obs::TraceScope::enter("batch-trace-1");
            let _guard = batcher.enter_route();
            let _ = batcher.predict(&flat, some_rows(3, 7));
        }
        // The collector emits from its own thread; wait for the record.
        let deadline = Instant::now() + Duration::from_secs(2);
        let event = loop {
            if let Some(e) = ring.events_named("batch.flush").into_iter().next() {
                break e;
            }
            assert!(Instant::now() < deadline, "no batch.flush event arrived");
            std::thread::sleep(Duration::from_millis(5));
        };
        obs::remove_sink(handle);
        assert_eq!(event.field("reason"), Some(&obs::Value::Str("drain".into())));
        assert_eq!(event.field("jobs"), Some(&obs::Value::U64(1)));
        assert_eq!(event.field("rows"), Some(&obs::Value::U64(3)));
        assert!(event.field("waited_us").is_some());
        assert!(event.field("window_overrun_us").is_some());
        match event.field("traces") {
            Some(obs::Value::Str(t)) => assert!(t.contains("batch-trace-1"), "traces: {t}"),
            other => panic!("traces field missing or mistyped: {other:?}"),
        }
        batcher.shutdown();
    }

    #[test]
    fn shutdown_flushes_leftovers_and_is_idempotent() {
        let flat = tiny_flat();
        let (batcher, _metrics) = batcher(1_000_000, 1024);
        // Two interested threads, one submits: the collector waits for
        // the second... which never submits. Shutdown must flush.
        let guard_a = batcher.enter_route();
        let _guard_b = batcher.enter_route();
        let b2 = Arc::clone(&batcher);
        let flat2 = Arc::clone(&flat);
        let t = std::thread::spawn(move || {
            let x = some_rows(2, 3);
            let expect = flat2.predict_batch(&x);
            assert_eq!(b2.predict(&flat2, x), expect);
        });
        std::thread::sleep(Duration::from_millis(50));
        batcher.shutdown();
        t.join().unwrap();
        batcher.shutdown(); // second call is a no-op
        drop(guard_a);
    }
}
