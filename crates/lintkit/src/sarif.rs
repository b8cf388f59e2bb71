//! SARIF v2.1.0 export of the lint findings.
//!
//! SARIF (Static Analysis Results Interchange Format) is the
//! OASIS-standard envelope that code-hosting CI surfaces ingest to
//! annotate pull requests with analyzer findings. The export mirrors the
//! `--json` report in [`crate::baseline::report_json`]: one `result` per
//! finding, anchored to the workspace-relative file and 1-indexed line.
//!
//! The document is built as a `serde_json::Value` and printed by the
//! vendored shim, like the baseline and the `--json` report. Shape kept to
//! the minimal valid core of §3 of the spec:
//!
//! * `runs[0].tool.driver` names the analyzer and carries the full rule
//!   table (every [`Rule`] with its one-line description), so viewers can
//!   render rule help without out-of-band metadata,
//! * each `result` carries `ruleId`, `ruleIndex` (into that table),
//!   `level: "error"` (the gate treats every unbaselined finding as
//!   fatal), `message.text`, and one `physicalLocation` with
//!   `artifactLocation.uri` + `region.startLine`.
//!
//! `startLine` is clamped to ≥ 1: SARIF regions are 1-indexed, and a few
//! whole-file findings (vendor-manifest drift) anchor at line 0
//! internally.

use serde_json::Value;

use crate::baseline::{object, pretty, string};
use crate::rules::{Finding, Rule};

/// Every rule lintkit defines, in the stable order used for
/// `runs[0].tool.driver.rules` (and therefore for `ruleIndex`).
pub const RULES: [Rule; 15] = Rule::ALL;

/// One-line rule help shown by SARIF viewers next to each result.
fn description(rule: Rule) -> &'static str {
    match rule {
        Rule::NoPanic => "no unwrap/expect/panic in library code",
        Rule::NoIndex => "no slice indexing on hostile-input parse paths",
        Rule::NoPrint => "no stdout/stderr printing in library code",
        Rule::ForbidUnsafe => "crate roots must carry #![forbid(unsafe_code)]",
        Rule::AllowNeedsReason => "lint suppressions must carry a justification",
        Rule::VendorManifest => "vendored shims must match the public-API manifest",
        Rule::PanicReachability => "no panic site reachable from a hostile-input entry point",
        Rule::LockOrder => "the lock acquisition-order graph must be acyclic",
        Rule::DeterminismTaint => "wall-clock and OS randomness unreachable from simulated code",
        Rule::MapIterOrder => {
            "unordered-container iteration must pass a sorting boundary before \
             escaping a function's output"
        }
        Rule::RngForkOrder => {
            "engine-reachable code must use fork_indexed, not order-dependent \
             SimRng::fork"
        }
        Rule::ShardStateEscape => {
            "ShardModel impls must not touch shared mutable state — cross-shard \
             effects go through ShardCtx sends"
        }
        Rule::AllocInHotPath => {
            "no heap allocation reachable from a steady-state hot entry point \
             outside declared warm-path boundaries"
        }
        Rule::NarrowingCast => {
            "no lossy `as` cast in strict-arithmetic files — use try_from or a \
             checked narrowing"
        }
        Rule::UncheckedArith => {
            "no unguarded +/-/*/<< on size/index-typed operands in \
             strict-arithmetic files"
        }
    }
}

/// Renders the findings as a complete SARIF v2.1.0 log (one run).
pub fn report_sarif(findings: &[Finding]) -> String {
    let rules = RULES
        .iter()
        .map(|rule| {
            object([
                ("id", string(rule.name())),
                (
                    "shortDescription",
                    object([("text", string(description(*rule)))]),
                ),
            ])
        })
        .collect();
    let results = findings.iter().map(result).collect();
    let driver = object([
        ("name", string("lintkit")),
        ("informationUri", string("https://example.invalid/lintkit")),
        ("rules", Value::Array(rules)),
    ]);
    let run = object([
        ("tool", object([("driver", driver)])),
        ("results", Value::Array(results)),
    ]);
    pretty(&object([
        (
            "$schema",
            string("https://json.schemastore.org/sarif-2.1.0.json"),
        ),
        ("version", string("2.1.0")),
        ("runs", Value::Array(vec![run])),
    ]))
}

/// One SARIF `result`: the finding anchored to its file and line.
fn result(f: &Finding) -> Value {
    let rule_index = RULES.iter().position(|r| *r == f.rule).unwrap_or(0);
    let location = object([(
        "physicalLocation",
        object([
            ("artifactLocation", object([("uri", string(&f.file))])),
            (
                "region",
                object([("startLine", Value::Number(f64::from(f.line.max(1))))]),
            ),
        ]),
    )]);
    object([
        ("ruleId", string(f.rule.name())),
        ("ruleIndex", Value::Number(rule_index as f64)),
        ("level", string("error")),
        ("message", object([("text", string(&f.message))])),
        ("locations", Value::Array(vec![location])),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: Rule, file: &str, line: u32) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line,
            message: "a \"quoted\" message".to_string(),
        }
    }

    #[test]
    fn empty_log_is_well_formed() {
        let text = report_sarif(&[]);
        assert!(text.contains("\"version\": \"2.1.0\""));
        assert!(text.contains("\"results\": []"));
        // Every rule is declared even when nothing fired.
        for rule in RULES {
            assert!(text.contains(&format!("\"id\": \"{}\"", rule.name())));
        }
    }

    #[test]
    fn one_result_per_finding_with_stable_rule_index() {
        let findings = vec![
            finding(Rule::MapIterOrder, "crates/a/src/lib.rs", 7),
            finding(Rule::ShardStateEscape, "crates/b/src/lib.rs", 3),
        ];
        let text = report_sarif(&findings);
        assert_eq!(text.matches("\"ruleId\"").count(), 2);
        assert!(text.contains("\"ruleId\": \"map-iter-order\""));
        assert!(text.contains(&format!(
            "\"ruleIndex\": {}",
            RULES
                .iter()
                .position(|r| *r == Rule::MapIterOrder)
                .unwrap_or(0)
        )));
        assert!(text.contains("\"uri\": \"crates/a/src/lib.rs\""));
        assert!(text.contains("\"startLine\": 7"));
        assert!(text.contains("\\\"quoted\\\""));
    }

    #[test]
    fn line_zero_clamps_to_one() {
        let text = report_sarif(&[finding(Rule::VendorManifest, "vendor/x.rs", 0)]);
        assert!(text.contains("\"startLine\": 1"));
    }
}
