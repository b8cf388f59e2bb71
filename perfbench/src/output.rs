//! The runner's output: one JSON line per result with its provenance, and
//! the closing contract line.

use crate::env::Provenance;
use crate::workloads::{Outcome, Run};

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A finite value as JSON (non-finite values cannot be measured results
/// and are written as 0; [`crate::workloads::run`] fails such runs).
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// One JSON line: `fields` (already formatted, without braces) between
/// the run's identity and its provenance.
fn line(run: &Run, provenance: &Provenance, fields: &str) -> String {
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, {fields}, \"commit\": \"{}\", \"nproc\": {}, \"cpu\": \"{}\"}}",
        run.workload.name(),
        run.seed,
        u8::from(run.trace),
        escape(&provenance.commit),
        provenance.nproc,
        escape(&provenance.cpu),
    )
}

/// One result line per reported value, and one for the artifact digest,
/// each carrying its provenance.
pub fn result_lines(run: &Run, outcome: &Outcome, provenance: &Provenance) -> Vec<String> {
    let kind = if run.trace { "per_layer" } else { "end_to_end" };
    let contract = outcome.metrics.entries.iter().map(|e| (kind, e));
    let own = outcome.report.entries.iter().map(|e| ("workload", e));
    let values = contract.chain(own).map(|(kind, (name, value, unit))| {
        let fields = format!(
            "\"kind\": \"{kind}\", \"metric\": \"{}\", \"value\": {}, \"unit\": \"{unit}\"",
            escape(name),
            number(*value)
        );
        line(run, provenance, &fields)
    });
    let digest = outcome.digest.iter().map(|digest| {
        line(
            run,
            provenance,
            &format!("\"kind\": \"digest\", \"digest\": \"{digest}\""),
        )
    });
    values.chain(digest).collect()
}

/// The closing line: `correct`, `attempted`, `failed` and the contract
/// metrics with their units.
pub fn contract_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .entries
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                escape(name),
                number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.checks.passed(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}
