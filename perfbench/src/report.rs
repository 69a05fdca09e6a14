//! What one run reports: metrics with units, per-phase operation counts,
//! output checks and provenance, rendered as JSON lines on stdout.

use std::fmt::Write as _;

/// Operations of one phase, by outcome. Every operation attempted ends
/// in exactly one bucket.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    pub name: String,
    pub attempted: u64,
    pub ok: u64,
    /// Typed error responses other than backpressure.
    pub typed: u64,
    pub backpressure: u64,
    /// Transport faults mid-request.
    pub io: u64,
    pub connect: u64,
    /// Answers that arrived but differ from the offline reference.
    pub wrong: u64,
}

impl Phase {
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            ..Self::default()
        }
    }

    pub fn failed(&self) -> u64 {
        self.typed + self.backpressure + self.io + self.connect + self.wrong
    }

    /// Fold another tally of the same phase in (per-thread tallies).
    pub fn absorb(&mut self, other: &Phase) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.typed += other.typed;
        self.backpressure += other.backpressure;
        self.io += other.io;
        self.connect += other.connect;
        self.wrong += other.wrong;
    }

    /// Classify one wire response line; `ok` lines are counted by the
    /// caller once their bytes have been checked.
    pub fn classify_error_line(&mut self, line: &str) -> bool {
        if !line.starts_with("{\"error\"") {
            return false;
        }
        if line.contains("\"backpressure\"") {
            self.backpressure += 1;
        } else {
            self.typed += 1;
        }
        true
    }
}

/// Everything a run reports.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, String)>,
    phases: Vec<Phase>,
    checks: Vec<(String, bool, String)>,
    info: Vec<(String, String)>,
}

impl Report {
    /// Record a metric; names are unique per run.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        assert!(
            !self.metrics.iter().any(|(n, _, _)| n == name),
            "metric {name} reported twice"
        );
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    pub fn phase(&mut self, phase: Phase) {
        self.phases.push(phase);
    }

    /// Record an output check; any failed check makes the run incorrect.
    pub fn check(&mut self, name: &str, pass: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), pass, detail.into()));
    }

    /// Record a provenance or context value (rendered verbatim as JSON).
    pub fn info(&mut self, key: &str, json_value: String) {
        self.info.push((key.to_string(), json_value));
    }

    pub fn info_str(&mut self, key: &str, value: &str) {
        self.info(key, json_str(value));
    }

    /// `Ok` when the reported metrics are exactly `expected`, each with
    /// its unit; otherwise what is missing, extra or mislabelled.
    pub fn names_exactly(&self, expected: &[(&str, &str)]) -> Result<(), String> {
        let mut problems = Vec::new();
        for (name, unit) in expected {
            match self.metrics.iter().find(|(n, _, _)| n == name) {
                None => problems.push(format!("missing {name}")),
                Some((_, _, u)) if u != unit => problems.push(format!("{name} in {u}, not {unit}")),
                Some(_) => {}
            }
        }
        for (name, _, _) in &self.metrics {
            if !expected.iter().any(|(n, _)| n == name) {
                problems.push(format!("undeclared {name}"));
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }

    /// A run is correct when every check passed, no operation failed and
    /// every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, pass, _)| *pass)
            && self.phases.iter().all(|p| p.failed() == 0)
            && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.attempted).sum::<u64>().max(1)
    }

    pub fn failed(&self) -> u64 {
        self.phases.iter().map(Phase::failed).sum()
    }

    /// The detail line: provenance, phases and checks.
    pub fn detail_json(&self) -> String {
        let mut out = String::from("{\"detail\": {");
        for (key, value) in &self.info {
            let _ = write!(out, "{}: {value}, ", json_str(key));
        }
        out.push_str("\"phases\": [");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"name\": {}, \"attempted\": {}, \"ok\": {}, \"failed\": {}, \
                 \"typed\": {}, \"backpressure\": {}, \"io\": {}, \"connect\": {}, \
                 \"wrong\": {}}}",
                json_str(&p.name),
                p.attempted,
                p.ok,
                p.failed(),
                p.typed,
                p.backpressure,
                p.io,
                p.connect,
                p.wrong
            );
        }
        out.push_str("], \"checks\": [");
        for (i, (name, pass, detail)) in self.checks.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"name\": {}, \"pass\": {pass}, \"detail\": {}}}",
                json_str(name),
                json_str(detail)
            );
        }
        out.push_str("]}}");
        out
    }

    /// The result line the contract asks for (always the last line).
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted(),
            self.failed()
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            );
        }
        out.push_str("}}");
        out
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
