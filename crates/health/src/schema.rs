//! The serve-agnostic snapshot schema: what one self-scrape looks like.
//!
//! A [`Schema`] fixes the series names and histogram bucket bounds once,
//! at sampler start; every [`Sample`] then carries only values, in
//! schema order, so readers resolve a series to a position once and
//! index every sample with it.

/// Bucket bounds for one histogram series (upper bounds in seconds,
/// `+Inf` implied as a final overflow bucket).
#[derive(Debug, Clone, PartialEq)]
pub struct HistSchema {
    /// Series name, e.g. `latency` or `stage.read`.
    pub name: String,
    /// Finite bucket upper bounds; samples carry `bounds.len() + 1`
    /// bucket counts (the last is the overflow bucket).
    pub bounds: Vec<f64>,
}

/// The fixed set of series one sampler produces. Built once; every
/// sample indexes into these name vectors positionally.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Schema {
    /// Monotonic counters (`u64`).
    pub counters: Vec<String>,
    /// Integer gauges (`i64`, may go negative transiently).
    pub gauges: Vec<String>,
    /// Float gauges (`f64`; `NaN` allowed, e.g. MAPE before data).
    pub values: Vec<String>,
    /// Histograms (cumulative-free bucket counts + sum + count).
    pub histograms: Vec<HistSchema>,
}

impl Schema {
    /// Number of 8-byte values one sample carries (excluding the
    /// timestamp): every counter, gauge and float value, plus each
    /// histogram's buckets, sum and count.
    pub fn width(&self) -> usize {
        self.counters.len()
            + self.gauges.len()
            + self.values.len()
            + self.histograms.iter().map(|h| h.bounds.len() + 1 + 2).sum::<usize>()
    }

    /// Position of a counter by name.
    pub fn counter_index(&self, name: &str) -> Option<usize> {
        self.counters.iter().position(|n| n == name)
    }

    /// Position of a gauge by name.
    pub fn gauge_index(&self, name: &str) -> Option<usize> {
        self.gauges.iter().position(|n| n == name)
    }

    /// Position of a float value by name.
    pub fn value_index(&self, name: &str) -> Option<usize> {
        self.values.iter().position(|n| n == name)
    }

    /// Position of a histogram by name.
    pub fn histogram_index(&self, name: &str) -> Option<usize> {
        self.histograms.iter().position(|h| h.name == name)
    }
}

/// One histogram's worth of a snapshot: per-bucket counts (not
/// cumulative), total observed micros, and observation count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistSample {
    /// Per-bucket counts, overflow bucket last (`bounds.len() + 1`).
    pub buckets: Vec<u64>,
    /// Sum of observed durations, in microseconds.
    pub sum_micros: u64,
    /// Total observations.
    pub count: u64,
}

impl HistSample {
    /// Total observations according to the bucket counts (used by the
    /// consistency checks: must be >= `count` when the producer reads
    /// `count` before the buckets).
    pub fn bucket_total(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

/// One self-scrape snapshot: every schema series, read at (close to)
/// one instant, stamped with wall-clock microseconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sample {
    /// Wall-clock timestamp, microseconds since the Unix epoch.
    pub unix_us: u64,
    /// Counter values, in [`Schema::counters`] order.
    pub counters: Vec<u64>,
    /// Gauge values, in [`Schema::gauges`] order.
    pub gauges: Vec<i64>,
    /// Float values, in [`Schema::values`] order.
    pub values: Vec<f64>,
    /// Histogram snapshots, in [`Schema::histograms`] order.
    pub hists: Vec<HistSample>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_schema() -> Schema {
        Schema {
            counters: vec!["requests".into(), "errors".into()],
            gauges: vec!["in_flight".into()],
            values: vec!["mape".into()],
            histograms: vec![HistSchema { name: "latency".into(), bounds: vec![0.001, 0.01] }],
        }
    }

    #[test]
    fn width_counts_every_value_word() {
        // 2 counters + 1 gauge + 1 value + (3 buckets + sum + count).
        assert_eq!(demo_schema().width(), 9);
    }

    #[test]
    fn indices_resolve_by_name() {
        let schema = demo_schema();
        assert_eq!(schema.counter_index("errors"), Some(1));
        assert_eq!(schema.counter_index("nope"), None);
        assert_eq!(schema.gauge_index("in_flight"), Some(0));
        assert_eq!(schema.value_index("mape"), Some(0));
        assert_eq!(schema.histogram_index("latency"), Some(0));
    }
}
