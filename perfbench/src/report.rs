//! Metric names, the result of one run, and its printing.
//!
//! Every run reports the same end-to-end metrics (untraced runs) or the same
//! per-layer metrics (traced runs), whatever its workload; what each one
//! measures on each workload is listed in `perfbench/README.md`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;

/// The benchmark's declaration: the one list of metric names and units.
const DECLARATION: &str = include_str!("../../BENCHMARK.json");

/// The `(name, unit)` pairs of one metric array of `BENCHMARK.json`
/// (`"end_to_end"` or `"per_layer"`), in file order.  The file is this
/// package's own, so a malformed one is a bug and panics.
fn declared(key: &str) -> Vec<(String, String)> {
    let at = DECLARATION
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let rest = &DECLARATION[at..];
    let open = rest.find('[').expect("metric array");
    let close = rest.find(']').expect("metric array end");
    let field = |obj: &str, k: &str| -> String {
        let v = obj.split(&format!("\"{k}\"")).nth(1).unwrap_or_else(|| panic!("{key}: no {k}"));
        v.split('"').nth(1).unwrap_or_else(|| panic!("{key}: bad {k}")).to_string()
    };
    rest[open + 1..close]
        .split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

/// End-to-end metrics, `(name, unit)`, as `BENCHMARK.json` declares them.
pub fn e2e_metrics() -> &'static [(String, String)] {
    static E2E: OnceLock<Vec<(String, String)>> = OnceLock::new();
    E2E.get_or_init(|| declared("end_to_end"))
}

/// Per-layer metrics, `(name, unit)`, as `BENCHMARK.json` declares them.
pub fn per_layer_metrics() -> &'static [(String, String)] {
    static PER_LAYER: OnceLock<Vec<(String, String)>> = OnceLock::new();
    PER_LAYER.get_or_init(|| declared("per_layer"))
}

fn assert_declared(list: &[(String, String)], name: &str) {
    assert!(list.iter().any(|(n, _)| n == name), "{name} is not declared in BENCHMARK.json");
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    pub e2e: BTreeMap<String, f64>,
    pub per_layer: BTreeMap<String, f64>,
    /// The workload's own name for an end-to-end metric (`ops_per_s` is
    /// `live_msgs_s` on `live_small`), printed next to it.
    pub alias: BTreeMap<String, &'static str>,
    /// Workload-named figures printed for people (per-workload metric
    /// names, sample counts, spreads); not part of the machine-read result.
    pub named: Vec<(String, f64, String)>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// The traced window's records, written out when the run ends.
    pub spans: Vec<crate::spans::Rec>,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64) {
        assert_declared(e2e_metrics(), name);
        self.e2e.insert(name.to_string(), value);
    }

    /// An end-to-end metric with the name the workload gives it.
    pub fn e2e_as(&mut self, name: &str, alias: &'static str, value: f64) {
        self.e2e(name, value);
        self.alias.insert(name.to_string(), alias);
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        assert_declared(per_layer_metrics(), name);
        self.per_layer.insert(name.to_string(), value);
    }

    /// Per-layer metrics this workload does not exercise: reported as 0.
    pub fn not_exercised(&mut self, names: &[&str]) {
        for n in names {
            self.layer(n, 0.0);
        }
    }

    pub fn named(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.named.push((name.into(), value, unit.to_string()));
    }

    /// Records a failed correctness check; the run then exits non-zero.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    /// The metric set this run must report, with values, or `None` when
    /// one was not measured (the run failed before it got there).
    fn result_metrics(&mut self, traced: bool) -> Option<Vec<(&'static str, f64, &'static str)>> {
        let expected = if traced { per_layer_metrics() } else { e2e_metrics() };
        let got = if traced { &self.per_layer } else { &self.e2e };
        let mut out = Vec::new();
        for (n, u) in expected {
            let v = *got.get(n)?;
            out.push((n.as_str(), v, u.as_str()));
        }
        for (n, v, _) in &out {
            if !v.is_finite() {
                self.failures.push(format!("metric {n} is not a finite number"));
            }
        }
        Some(out)
    }

    /// Prints every figure by name with its unit and returns the one-line
    /// JSON result (`None` when the run ended before measuring everything).
    pub fn render(&mut self, workload: &str, traced: bool) -> Option<String> {
        let metrics = self.result_metrics(traced);
        for (n, v, u) in &self.named {
            println!("{workload:<12} {n:<34} {v:>16.4} {u}");
        }
        for (n, v, u) in metrics.iter().flatten() {
            let n = match self.alias.get(*n) {
                Some(a) => format!("{n} ({a})"),
                None => n.to_string(),
            };
            println!("{workload:<12} {n:<34} {v:>16.4} {u}");
        }
        for f in &self.failures {
            println!("{workload:<12} FAILED: {f}");
        }
        let metrics = metrics?;
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (n, v, u)) in metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if v.is_finite() { *v } else { 0.0 };
            let _ = write!(json, "{sep}\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}");
        }
        json.push_str("}}");
        Some(json)
    }
}

/// Escapes a string for a JSON literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declaration_lists_unique_metrics() {
        let e2e = e2e_metrics();
        assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
        let mut names: Vec<&String> =
            e2e.iter().chain(per_layer_metrics()).map(|(n, _)| n).collect();
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "a metric is declared twice");
        assert!(per_layer_metrics().iter().all(|(n, u)| !n.is_empty() && !u.is_empty()));
    }
}
