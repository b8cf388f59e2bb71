//! The findings baseline ratchet and the machine-readable JSON report.
//!
//! `lint-baseline.json` (workspace root) pins the accepted findings by
//! `(rule, file, line)`. The gate then enforces a ratchet:
//!
//! * a finding **not** in the baseline fails the build (new violation),
//! * a baseline entry that no longer fires **also** fails the build (the
//!   debt was paid — the entry must be deleted so it cannot hide a future
//!   regression at the same location).
//!
//! `cargo run -p xtask -- lint --update-baseline` regenerates the file,
//! mirroring the vendor-manifest flow. `--json <path>` writes the full
//! findings report in the same schema (plus messages) for CI artifacts.
//!
//! Both documents are built as a `serde_json::Value` and printed by the
//! vendored shim's pretty printer; the parser is the shim's too, with the
//! baseline schema checked on top.

use serde_json::Value;

use crate::rules::{Finding, Rule};

/// The baseline file name, resolved against the workspace root.
pub const BASELINE_FILE: &str = "lint-baseline.json";

/// One accepted finding: the ratchet key.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct BaselineEntry {
    /// Rule name (stable, as in allow comments).
    pub rule: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-indexed line.
    pub line: u32,
}

/// The ratchet verdict from [`apply`].
#[derive(Debug, Default)]
pub struct BaselineOutcome {
    /// Findings not covered by the baseline — new violations.
    pub unbaselined: Vec<Finding>,
    /// Baseline entries that no longer fire — stale debt to delete.
    pub stale: Vec<BaselineEntry>,
}

impl BaselineOutcome {
    /// Whether the ratchet passes.
    pub fn is_clean(&self) -> bool {
        self.unbaselined.is_empty() && self.stale.is_empty()
    }
}

/// Splits `findings` against a parsed baseline.
pub fn apply(findings: &[Finding], baseline: &[BaselineEntry]) -> BaselineOutcome {
    let mut outcome = BaselineOutcome::default();
    for f in findings {
        let covered = baseline
            .iter()
            .any(|b| b.rule == f.rule.name() && b.file == f.file && b.line == f.line);
        if !covered {
            outcome.unbaselined.push(f.clone());
        }
    }
    for b in baseline {
        let fires = findings
            .iter()
            .any(|f| b.rule == f.rule.name() && b.file == f.file && b.line == f.line);
        if !fires {
            outcome.stale.push(b.clone());
        }
    }
    outcome
}

/// Renders the baseline for `findings` (sorted, deduplicated).
pub fn generate(findings: &[Finding]) -> String {
    let mut entries: Vec<BaselineEntry> = findings
        .iter()
        .map(|f| BaselineEntry {
            rule: f.rule.name().to_string(),
            file: f.file.clone(),
            line: f.line,
        })
        .collect();
    entries.sort();
    entries.dedup();
    let items = entries
        .iter()
        .map(|e| {
            object([
                ("rule", string(&e.rule)),
                ("file", string(&e.file)),
                ("line", Value::Number(f64::from(e.line))),
            ])
        })
        .collect();
    pretty(&document(items))
}

/// Renders the full findings report (baseline schema plus messages) for
/// the CI artifact.
pub fn report_json(findings: &[Finding]) -> String {
    let items = findings
        .iter()
        .map(|f| {
            object([
                ("rule", string(f.rule.name())),
                ("file", string(&f.file)),
                ("line", Value::Number(f64::from(f.line))),
                ("message", string(&f.message)),
            ])
        })
        .collect();
    pretty(&document(items))
}

/// The versioned envelope both the baseline and the report share.
fn document(findings: Vec<Value>) -> Value {
    object([
        ("version", Value::Number(1.0)),
        ("findings", Value::Array(findings)),
    ])
}

/// Parses a baseline file. Unknown keys are ignored; entries naming a rule
/// lintkit no longer defines are rejected so the baseline cannot rot.
pub fn parse(text: &str) -> Result<Vec<BaselineEntry>, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| format!("baseline: {e}"))?;
    let Some(items) = doc.get("findings").and_then(Value::as_array) else {
        return Err("baseline: missing `findings` array".to_string());
    };
    items.iter().map(parse_entry).collect()
}

/// Checks one `findings` item against the baseline schema.
fn parse_entry(item: &Value) -> Result<BaselineEntry, String> {
    let rule = item
        .get("rule")
        .and_then(Value::as_str)
        .ok_or("baseline: finding missing string `rule`")?;
    let file = item
        .get("file")
        .and_then(Value::as_str)
        .ok_or("baseline: finding missing string `file`")?;
    let line = item
        .get("line")
        .and_then(Value::as_u64)
        .and_then(|l| u32::try_from(l).ok())
        .ok_or("baseline: finding missing integer `line`")?;
    if Rule::from_name(rule).is_none() {
        return Err(format!("baseline: unknown rule `{rule}`"));
    }
    Ok(BaselineEntry {
        rule: rule.to_string(),
        file: file.to_string(),
        line,
    })
}

/// A JSON string value.
pub(crate) fn string(s: &str) -> Value {
    Value::String(s.to_string())
}

/// A JSON object with `fields` in the given order.
pub(crate) fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

/// The shim's pretty printer plus a final newline — how every lint
/// report and the baseline file are written.
pub(crate) fn pretty(doc: &Value) -> String {
    let mut text = serde_json::to_string_pretty(doc).unwrap_or_default();
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: Rule, file: &str, line: u32) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line,
            message: "msg with \"quotes\" and \\slash".to_string(),
        }
    }

    #[test]
    fn generate_parse_round_trip() {
        let findings = vec![
            finding(Rule::PanicReachability, "crates/a/src/lib.rs", 12),
            finding(Rule::LockOrder, "crates/b/src/lib.rs", 3),
        ];
        let text = generate(&findings);
        let parsed = parse(&text).expect("round trip");
        assert_eq!(parsed.len(), 2);
        // generate() sorts by (rule, file, line) — BaselineEntry ordering.
        assert_eq!(parsed[0].rule, "lock-order");
        assert_eq!(parsed[1].rule, "panic-reachability");
        assert_eq!(parsed[1].line, 12);
    }

    #[test]
    fn empty_baseline_round_trips() {
        let text = generate(&[]);
        assert!(parse(&text).expect("empty").is_empty());
    }

    #[test]
    fn ratchet_splits_new_and_stale() {
        let baseline = vec![
            BaselineEntry {
                rule: "panic-reachability".to_string(),
                file: "a.rs".to_string(),
                line: 1,
            },
            BaselineEntry {
                rule: "panic-reachability".to_string(),
                file: "paid.rs".to_string(),
                line: 9,
            },
        ];
        let findings = vec![
            finding(Rule::PanicReachability, "a.rs", 1),
            finding(Rule::PanicReachability, "new.rs", 5),
        ];
        let outcome = apply(&findings, &baseline);
        assert!(!outcome.is_clean());
        assert_eq!(outcome.unbaselined.len(), 1);
        assert_eq!(outcome.unbaselined[0].file, "new.rs");
        assert_eq!(outcome.stale.len(), 1);
        assert_eq!(outcome.stale[0].file, "paid.rs");
    }

    #[test]
    fn clean_when_baseline_matches_exactly() {
        let findings = vec![finding(Rule::DeterminismTaint, "a.rs", 2)];
        let baseline = parse(&generate(&findings)).expect("parse");
        assert!(apply(&findings, &baseline).is_clean());
    }

    #[test]
    fn unknown_rule_in_baseline_rejected() {
        let text =
            "{\"version\":1,\"findings\":[{\"rule\":\"no-such\",\"file\":\"a\",\"line\":1}]}";
        assert!(parse(text).is_err());
    }

    #[test]
    fn report_json_escapes_messages() {
        let tricky = "say \"hi\" \\ then\nnext \u{1} end";
        let mut f = finding(Rule::NoPanic, "a.rs", 1);
        f.message = tricky.to_string();
        let text = report_json(&[f]);
        assert!(text.contains("\\\"hi\\\""));
        assert!(text.contains("\\\\ then\\nnext \\u0001 end"));
        let doc: Value = serde_json::from_str(&text).expect("report is valid JSON");
        assert_eq!(doc["findings"][0]["message"], tricky);
        // The report also reads back as a baseline (message key ignored).
        let entries = parse(&text).expect("report parses as baseline schema");
        assert_eq!(entries.len(), 1);
    }

    #[test]
    fn malformed_json_is_an_error_not_a_panic() {
        for bad in [
            "",
            "{",
            "[1,2",
            "[]",
            "{\"findings\": 3}",
            "{\"findings\":[3]}",
            "{\"findings\":[{\"rule\":3}]}",
            "{\"findings\":[{\"rule\":\"no-panic\",\"line\":1}]}",
            "{\"findings\":[{\"rule\":\"no-panic\",\"file\":\"a\",\"line\":\"1\"}]}",
            "{\"findings\":[{\"rule\":\"no-panic\",\"file\":\"a\",\"line\":-1}]}",
            "{\"findings\":[]} trailing",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }
}
