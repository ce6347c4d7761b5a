//! The metric list, read from `BENCHMARK.json` at compile time, and the
//! result line built from it.

use crate::{Metrics, Outcome, Result};
use std::fmt::Write as _;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Metric names and units, in `BENCHMARK.json` order.
#[derive(Debug)]
pub struct Spec {
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
}

impl Spec {
    /// Parses the compiled-in `BENCHMARK.json`.
    ///
    /// # Errors
    /// Returns an error when the file is not the expected shape.
    pub fn load() -> Result<Spec> {
        let doc = serde_json::parse(BENCHMARK_JSON)?;
        let list = |key: &str| -> Result<Vec<(String, String)>> {
            let entries = doc.get(key).and_then(|v| v.as_array()).ok_or(format!("no {key}"))?;
            entries
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(|v| v.as_str())
                            .map(str::to_string)
                            .ok_or(format!("a {key} entry has no {f}"))
                    };
                    Ok((field("name")?, field("unit")?))
                })
                .collect()
        };
        Ok(Spec { end_to_end: list("end_to_end")?, per_layer: list("per_layer")? })
    }

    /// The final JSON line. End-to-end runs must have measured every
    /// end-to-end metric; traced runs report 0 for a layer the workload
    /// does not run. A measured metric missing from `BENCHMARK.json` is an
    /// error, so the file and the code cannot drift apart.
    ///
    /// # Errors
    /// Returns an error for a missing, undeclared or non-finite metric.
    pub fn result_line(&self, trace: bool, outcome: &Outcome) -> Result<String> {
        let declared = if trace { &self.per_layer } else { &self.end_to_end };
        check_declared(declared, &outcome.metrics)?;
        let (attempted, failed) = (outcome.tally.attempted, outcome.tally.failed);
        if attempted == 0 {
            return Err("no operation was attempted".into());
        }
        let correct = failed == 0;
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, unit)) in declared.iter().enumerate() {
            let value = match outcome.metrics.get(name) {
                Some(&v) => v,
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured").into()),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}").into());
            }
            let sep = if i == 0 { "" } else { ", " };
            write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")?;
        }
        out.push_str("}}");
        Ok(out)
    }
}

fn check_declared(declared: &[(String, String)], metrics: &Metrics) -> Result<()> {
    match metrics.keys().find(|k| !declared.iter().any(|(n, _)| n == *k)) {
        Some(name) => Err(format!("metric {name} is not declared in BENCHMARK.json").into()),
        None => Ok(()),
    }
}
