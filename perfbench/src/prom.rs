//! Parser for the daemon's Prometheus text exposition and the
//! before/after deltas the per-layer report is built from.

use std::collections::BTreeMap;

/// One `/metrics` scrape: every sample keyed by its full series name,
/// labels included exactly as rendered (`family{k="v",...}`).
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    series: BTreeMap<String, f64>,
}

impl Scrape {
    /// Parse the text format. Comment and blank lines are skipped; a
    /// sample line is `<series> <value>` where the series may carry
    /// labels whose values contain spaces, so the value is the text after
    /// the last space.
    pub fn parse(text: &str) -> Result<Scrape, String> {
        let mut series = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (name, value) =
                line.rsplit_once(' ').ok_or_else(|| format!("line {}: no value", n + 1))?;
            let value = match value {
                "NaN" => f64::NAN,
                "+Inf" => f64::INFINITY,
                "-Inf" => f64::NEG_INFINITY,
                v => v.parse().map_err(|_| format!("line {}: bad value {v:?}", n + 1))?,
            };
            series.insert(name.trim_end().to_string(), value);
        }
        Ok(Scrape { series })
    }

    /// The value of one exact series, if present.
    #[cfg(test)]
    pub fn get(&self, series: &str) -> Option<f64> {
        self.series.get(series).copied()
    }

    /// Sum of every series of `family` whose label set contains each of
    /// the `label="value"` pairs in `labels` (an empty list sums the
    /// whole family). `family` must match the metric name exactly, so
    /// `x_count` is not mistaken for part of family `x`.
    pub fn sum(&self, family: &str, labels: &[&str]) -> f64 {
        self.series
            .iter()
            .filter(|(name, _)| {
                let (fam, rest) = match name.find('{') {
                    Some(i) => (&name[..i], &name[i..]),
                    None => (name.as_str(), ""),
                };
                fam == family && labels.iter().all(|l| has_label(rest, l))
            })
            .map(|(_, v)| *v)
            .sum()
    }
}

/// Whether a rendered label block `{a="1",b="2"}` contains the pair `l`
/// (given as `b="2"`) as a whole label, not as a substring of another.
fn has_label(block: &str, l: &str) -> bool {
    let inner = block.trim_start_matches('{').trim_end_matches('}');
    inner.split(',').any(|pair| pair == l)
}

/// The change between two scrapes of the same process.
pub struct Delta<'a> {
    /// Scrape taken before the measured window.
    pub before: &'a Scrape,
    /// Scrape taken after it.
    pub after: &'a Scrape,
}

impl Delta<'_> {
    /// Increase of a (possibly labelled) counter family.
    pub fn counter(&self, family: &str, labels: &[&str]) -> f64 {
        self.after.sum(family, labels) - self.before.sum(family, labels)
    }

    /// Mean of the observations a histogram received between the scrapes
    /// (Δ`_sum` / Δ`_count`), in the histogram's unit; 0 when it received
    /// none.
    pub fn hist_mean(&self, family: &str, labels: &[&str]) -> f64 {
        let count = self.counter(&format!("{family}_count"), labels);
        if count <= 0.0 {
            return 0.0;
        }
        self.counter(&format!("{family}_sum"), labels) / count
    }

    /// Observations a histogram received between the scrapes.
    pub fn hist_count(&self, family: &str, labels: &[&str]) -> f64 {
        self.counter(&format!("{family}_count"), labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "\
# HELP chemcost_request_stage_duration_seconds Per-stage latency.
# TYPE chemcost_request_stage_duration_seconds histogram
chemcost_request_stage_duration_seconds_bucket{stage=\"read\",le=\"0.0001\"} 2
chemcost_request_stage_duration_seconds_sum{stage=\"read\"} 0.000021
chemcost_request_stage_duration_seconds_count{stage=\"read\"} 2
chemcost_request_stage_duration_seconds_sum{stage=\"write\"} 0.001
chemcost_request_stage_duration_seconds_count{stage=\"write\"} 2
chemcost_batch_flush_total{reason=\"window\"} 4
chemcost_batch_flush_total{reason=\"drain\"} 0
chemcost_lifecycle_transitions_total{from=\"queued\",to=\"training\"} 1
chemcost_lifecycle_transitions_total{from=\"training\",to=\"shadow\"} 1
chemcost_model_mape{model=\"m\",version=\"1\",machine=\"aurora\"} NaN
chemcost_requests_shed_total 0
";

    const AFTER: &str = "\
chemcost_request_stage_duration_seconds_sum{stage=\"read\"} 0.000121
chemcost_request_stage_duration_seconds_count{stage=\"read\"} 12
chemcost_request_stage_duration_seconds_sum{stage=\"write\"} 0.001
chemcost_request_stage_duration_seconds_count{stage=\"write\"} 2
chemcost_batch_flush_total{reason=\"window\"} 10
chemcost_batch_flush_total{reason=\"drain\"} 2
chemcost_lifecycle_transitions_total{from=\"queued\",to=\"training\"} 4
chemcost_lifecycle_transitions_total{from=\"training\",to=\"shadow\"} 3
chemcost_requests_shed_total 5
";

    #[test]
    fn parses_labelled_and_bare_series() {
        let s = Scrape::parse(BEFORE).unwrap();
        assert_eq!(s.get("chemcost_requests_shed_total"), Some(0.0));
        assert_eq!(s.get("chemcost_batch_flush_total{reason=\"window\"}"), Some(4.0));
        assert!(s
            .get("chemcost_model_mape{model=\"m\",version=\"1\",machine=\"aurora\"}")
            .unwrap()
            .is_nan());
        assert_eq!(s.sum("chemcost_batch_flush_total", &[]), 4.0);
        assert!(Scrape::parse("no_value_here").is_err());
        assert!(Scrape::parse("x{a=\"1\"} twelve").is_err());
    }

    #[test]
    fn label_filters_match_whole_pairs_only() {
        let s = Scrape::parse(BEFORE).unwrap();
        let fam = "chemcost_lifecycle_transitions_total";
        assert_eq!(s.sum(fam, &["to=\"training\""]), 1.0);
        assert_eq!(s.sum(fam, &["from=\"queued\"", "to=\"training\""]), 1.0);
        assert_eq!(s.sum(fam, &["to=\"train\""]), 0.0);
        // A family name is matched exactly, not as a prefix.
        assert_eq!(s.sum("chemcost_request_stage_duration_seconds", &[]), 0.0);
    }

    #[test]
    fn deltas_of_counters_and_histogram_means() {
        let (b, a) = (Scrape::parse(BEFORE).unwrap(), Scrape::parse(AFTER).unwrap());
        let d = Delta { before: &b, after: &a };
        assert_eq!(d.counter("chemcost_requests_shed_total", &[]), 5.0);
        assert_eq!(d.counter("chemcost_batch_flush_total", &["reason=\"drain\""]), 2.0);
        assert_eq!(d.counter("chemcost_batch_flush_total", &[]), 8.0);
        let fam = "chemcost_request_stage_duration_seconds";
        assert_eq!(d.hist_count(fam, &["stage=\"read\""]), 10.0);
        // (0.000121 - 0.000021) / 10 = 10 µs.
        assert!((d.hist_mean(fam, &["stage=\"read\""]) - 1e-5).abs() < 1e-12);
        // No new observations: mean is 0, not NaN.
        assert_eq!(d.hist_mean(fam, &["stage=\"write\""]), 0.0);
    }
}
