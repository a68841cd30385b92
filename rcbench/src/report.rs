//! What a run reports: operation counts, metric values and the result
//! line, plus the `name value` lines a workload's child process hands
//! back to its parent.

/// Seconds since the first call, which `main` makes on entry.
pub fn since_start() -> f64 {
    static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    START
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_secs_f64()
}

/// End-to-end metrics, printed by every untraced run, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("open_ms", "ms"),
    ("snapshot_mb", "MiB"),
    ("rss_peak_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run, with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.read_request_us", "us"),
    ("serve.write_response_us", "us"),
    ("client.round_trip_us", "us"),
    ("client.reconnects", "count"),
    ("transport.residual_us", "us"),
    ("trace.overhead_frac", "fraction"),
    ("core.analyze_query_us", "us"),
    ("text.process_us", "us"),
    ("annotate.tokens_us", "us"),
    ("index.score_top_k_us", "us"),
    ("index.score_top_k_p99_us", "us"),
    ("index.postings_traversed", "count"),
    ("index.blocks_skipped_frac", "fraction"),
    ("index.maxscore_admitted_frac", "fraction"),
    ("core.rank_scored_us", "us"),
    ("trace.sum_vs_total", "ratio"),
    ("query.terms_mean", "count"),
    ("query.entities_mean", "count"),
    ("query.long_frac", "fraction"),
    ("query.repeat_frac", "fraction"),
    ("core.attribution_ms", "ms"),
    ("synth.generate_ms", "ms"),
    ("langid.detect_ms", "ms"),
    ("text.process_ms", "ms"),
    ("annotate.tokens_ms", "ms"),
    ("index.build_ms", "ms"),
    ("core.par_efficiency", "ratio"),
    ("store.save_ms", "ms"),
    ("store.save_peak_mb", "MiB"),
    ("store.bytes_written", "bytes"),
    ("store.load_ms", "ms"),
];

/// Operations attempted and failed, and the metric values measured.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.retain(|(n, _)| n != name);
        self.metrics.push((name.to_owned(), value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Counts one checked operation, and its failure with the reason.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            note!("check failed: {why}");
        }
    }

    /// The line protocol a child process prints on stdout.
    pub fn to_lines(&self) -> String {
        let mut out = format!("attempted {}\nfailed {}\n", self.attempted, self.failed);
        for (name, value) in &self.metrics {
            out.push_str(&format!("metric {name} {value}\n"));
        }
        out
    }

    pub fn from_lines(text: &str) -> Result<Outcome, String> {
        let mut outcome = Outcome::default();
        for line in text.lines() {
            let parts: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("bad result line {line:?}");
            match parts.as_slice() {
                ["attempted", n] => outcome.attempted = n.parse().map_err(|_| bad())?,
                ["failed", n] => outcome.failed = n.parse().map_err(|_| bad())?,
                ["metric", name, v] => outcome.set(name, v.parse().map_err(|_| bad())?),
                _ => return Err(bad()),
            }
        }
        Ok(outcome)
    }

    /// The result line: every metric of `table` with its unit, in table
    /// order. A metric the run did not measure is a bug in the run.
    pub fn result_json(&self, table: &[(&str, &str)]) -> Result<String, String> {
        let mut metrics = Vec::new();
        for &(name, unit) in table {
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_lines_round_trip_and_the_result_line_has_every_metric() {
        let mut outcome = Outcome {
            attempted: 5,
            failed: 0,
            metrics: Vec::new(),
        };
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            outcome.set(name, 0.1 + i as f64 / 3.0);
        }
        assert_eq!(Outcome::from_lines(&outcome.to_lines()).unwrap(), outcome);
        let line = outcome.result_json(END_TO_END).unwrap();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 5, \"failed\": 0"),
            "{line}"
        );
        assert!(
            line.contains("\"setup_s\": {\"value\": 0.1, \"unit\": \"s\"}"),
            "{line}"
        );
        assert!(outcome.result_json(PER_LAYER).is_err());
    }
}
