//! The result a run hands back: named metrics with units, the operation
//! counts, and the one-line JSON object the driver reads.

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value, all digits.
    pub value: f64,
}

/// An insertion-ordered metric list with unique names.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// An empty list.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Appends a metric.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate name — every metric is reported once.
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        assert!(self.get(name).is_none(), "metric `{name}` reported twice");
        self.0.push(Metric { name, unit, value });
    }

    /// The value of `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// All metrics in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }

    /// Number of metrics.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no metric was reported.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// What one benchmark run produced.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations (repetitions) attempted.
    pub attempted: u64,
    /// Operations whose outputs failed a check.
    pub failed: u64,
    /// The metrics of this pass.
    pub metrics: Metrics,
}

impl RunResult {
    /// The single-line JSON object printed as the last line of stdout.
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(m.name),
                    json_number(m.value),
                    json_string(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON string literal.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit the `f64` holds; non-finite values have
/// no JSON spelling and become `null` (the run is then marked incorrect by
/// its caller, which checks finiteness before emitting).
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut metrics = Metrics::new();
        metrics.push("wall_s_per_sim_s", "s/s", 0.002_813_4);
        metrics.push("setup_s", "s", 1.25e-5);
        let line = RunResult { correct: true, attempted: 18, failed: 0, metrics }.to_json_line();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 18, \"failed\": 0, \"metrics\": \
             {\"wall_s_per_sim_s\": {\"value\": 0.0028134, \"unit\": \"s/s\"}, \
             \"setup_s\": {\"value\": 0.0000125, \"unit\": \"s\"}}}"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn strings_are_escaped_and_non_finite_numbers_are_null() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(3.0), "3");
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn duplicate_metric_names_are_rejected() {
        let mut metrics = Metrics::new();
        metrics.push("setup_s", "s", 1.0);
        metrics.push("setup_s", "s", 2.0);
    }
}
