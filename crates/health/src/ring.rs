//! Bounded sample history: a plain ring of [`Sample`]s.
//!
//! The ring holds at most `capacity` samples and drops any sample older
//! than the retention window, evicting from the front. Samples are kept
//! as they were pushed, so SLO evaluation reads them in place.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::schema::{Sample, Schema};

/// Ring of [`Sample`]s bounded by a sample count and a retention
/// window. All methods take `&self`; the ring is shared between the
/// sampler thread and HTTP readers.
pub struct Ring {
    schema: Arc<Schema>,
    capacity: usize,
    retention_us: u64,
    inner: Mutex<RingInner>,
}

struct RingInner {
    samples: VecDeque<Sample>,
    appended: u64,
    evicted: u64,
}

/// Point-in-time accounting for `/debug/slo` and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingStats {
    /// Samples currently retained.
    pub len: usize,
    /// Size of the retained series values: `len × schema width × 8`.
    pub bytes: usize,
    /// Samples pushed over the ring's lifetime.
    pub appended: u64,
    /// Samples evicted over the ring's lifetime.
    pub evicted: u64,
    /// Microseconds between oldest and newest retained sample.
    pub span_us: u64,
}

impl Ring {
    /// Create a ring for `schema` holding at most `capacity` samples and
    /// `retention_us` worth of history (whichever bites first). At least
    /// one sample is always retained.
    pub fn new(schema: Arc<Schema>, capacity: usize, retention_us: u64) -> Self {
        let capacity = capacity.max(1);
        Ring {
            schema,
            capacity,
            retention_us,
            inner: Mutex::new(RingInner {
                samples: VecDeque::with_capacity(capacity),
                appended: 0,
                evicted: 0,
            }),
        }
    }

    /// Append one sample, evicting from the front as needed to stay
    /// within the capacity and retention window.
    pub fn push(&self, sample: &Sample) {
        let mut inner = self.inner.lock().unwrap();
        // Make room first so the deque never grows past `capacity`.
        while inner.samples.len() >= self.capacity {
            inner.samples.pop_front();
            inner.evicted += 1;
        }
        inner.samples.push_back(sample.clone());
        inner.appended += 1;
        let newest = sample.unix_us;
        while inner.samples.len() > 1
            && newest.saturating_sub(inner.samples[0].unix_us) > self.retention_us
        {
            inner.samples.pop_front();
            inner.evicted += 1;
        }
    }

    /// Run `f` over every retained sample, oldest first, without
    /// copying them. The ring stays locked while `f` runs.
    pub fn with_samples<R>(&self, f: impl FnOnce(&[Sample]) -> R) -> R {
        let mut inner = self.inner.lock().unwrap();
        f(inner.samples.make_contiguous())
    }

    /// Current accounting.
    pub fn stats(&self) -> RingStats {
        let inner = self.inner.lock().unwrap();
        let span_us = match (inner.samples.front(), inner.samples.back()) {
            (Some(f), Some(b)) => b.unix_us.saturating_sub(f.unix_us),
            _ => 0,
        };
        RingStats {
            len: inner.samples.len(),
            bytes: inner.samples.len() * self.schema.width() * 8,
            appended: inner.appended,
            evicted: inner.evicted,
            span_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{HistSample, HistSchema};

    fn schema() -> Arc<Schema> {
        Arc::new(Schema {
            counters: vec!["requests".into(), "errors".into()],
            gauges: vec!["in_flight".into()],
            values: vec!["mape".into()],
            histograms: vec![HistSchema { name: "latency".into(), bounds: vec![0.001, 0.01] }],
        })
    }

    fn sample(t: u64, requests: u64) -> Sample {
        Sample {
            unix_us: t,
            counters: vec![requests, requests / 10],
            gauges: vec![(requests % 5) as i64 - 2],
            values: vec![requests as f64 * 0.001],
            hists: vec![HistSample {
                buckets: vec![requests, requests / 2, 0],
                sum_micros: requests * 100,
                count: requests + requests / 2,
            }],
        }
    }

    #[test]
    fn replay_round_trips_exactly() {
        let ring = Ring::new(schema(), 1024, u64::MAX);
        let samples: Vec<Sample> = (0..50).map(|i| sample(i * 1_000_000, i * 7)).collect();
        for s in &samples {
            ring.push(s);
        }
        assert_eq!(ring.with_samples(|s| s.to_vec()), samples);
    }

    #[test]
    fn capacity_evicts_but_replay_stays_exact() {
        let ring = Ring::new(schema(), 16, u64::MAX);
        for i in 0..200u64 {
            ring.push(&sample(i * 1_000_000, i * 3));
            // The contiguous view stays exact after every wrap.
            let oldest = i.saturating_sub(15);
            ring.with_samples(|s| {
                assert_eq!(s.len() as u64, i - oldest + 1);
                assert_eq!(s[0], sample(oldest * 1_000_000, oldest * 3));
            });
        }
        let stats = ring.stats();
        assert_eq!(stats.len, 16);
        assert_eq!(stats.bytes, 16 * schema().width() * 8);
        assert_eq!(stats.appended, 200);
        assert_eq!(stats.evicted, 184);
        // Retained samples are exactly the newest 16 that were pushed.
        let expected: Vec<Sample> = (184..200u64).map(|i| sample(i * 1_000_000, i * 3)).collect();
        assert_eq!(ring.with_samples(|s| s.to_vec()), expected);
    }

    #[test]
    fn retention_window_evicts_old_entries() {
        // 5-second retention with 1-second samples keeps ~6 entries.
        let ring = Ring::new(schema(), 1024, 5_000_000);
        for i in 0..60u64 {
            ring.push(&sample(i * 1_000_000, i));
        }
        let stats = ring.stats();
        assert!(stats.len <= 6, "kept {} entries", stats.len);
        assert!(stats.span_us <= 5_000_000);
        let replay = ring.with_samples(|s| s.to_vec());
        assert_eq!(replay.last().unwrap().unix_us, 59_000_000);
    }

    #[test]
    fn at_least_one_sample_is_retained() {
        let ring = Ring::new(schema(), 0, 0);
        ring.push(&sample(0, 1));
        ring.push(&sample(10_000_000, 2));
        assert_eq!(ring.with_samples(|s| s.to_vec()), vec![sample(10_000_000, 2)]);
    }
}
