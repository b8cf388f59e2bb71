//! Output checks: invariants that hold for any seed, and golden artifact
//! digests for the seeds the benchmark ships.

use std::path::Path;

use tectonic::core::masque_load::StormReport;
use tectonic::core::rotation::RotationReport;
use tectonic::net::Asn;
use tectonic::relay::{DeploymentConfig, Domain};

use crate::paper::Table1Row;

/// The §4 band the storm's consecutive-rotation rate and parallel
/// divergence must fall in (three-address cell pools give ~2/3).
pub const ROTATION_BAND: (f64, f64) = (0.60, 0.74);

/// Failed checks, each with a one-line reason.
#[derive(Debug, Default)]
pub struct Checks {
    /// Reasons of the checks that failed.
    pub failures: Vec<String>,
    /// Number of checks made.
    pub made: u64,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.made += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// 64-bit FNV-1a over every artifact's name and bytes, as 16 hex digits.
pub fn digest<'a>(parts: impl IntoIterator<Item = (&'a str, &'a str)>) -> String {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for (name, content) in parts {
        for b in name.bytes().chain([0]).chain(content.bytes()).chain([0]) {
            h = (h ^ u64::from(b)).wrapping_mul(0x1_0000_01B3);
        }
    }
    format!("{h:016x}")
}

/// Digest of a pass's artifacts.
pub fn artifacts_digest(artifacts: &[(String, String)]) -> String {
    digest(artifacts.iter().map(|(n, c)| (n.as_str(), c.as_str())))
}

/// Digest of a storm report.
pub fn storm_digest(report: &StormReport) -> String {
    let json = serde_json::to_string(report).unwrap_or_default();
    digest([("storm_report.json", json.as_str())])
}

/// Table 1: every operator's count within its configured fleet, every
/// default scan non-empty, and the drop ledger balanced.
pub fn table1(rows: &[Table1Row], config: &DeploymentConfig, checks: &mut Checks) {
    checks.check(rows.len() == 4, || {
        format!("table 1 has {} rows", rows.len())
    });
    for (epoch, default, fallback) in rows {
        checks.check(default.total() > 0, || {
            format!("{epoch:?}: empty default scan")
        });
        let scans = [
            (Domain::MaskQuic, Some(default)),
            (Domain::MaskH2, fallback.as_ref()),
        ];
        for (domain, report) in scans {
            let Some(report) = report else { continue };
            for asn in [Asn::APPLE, Asn::AKAMAI_PR] {
                let fleet = config
                    .plan_for(domain, asn)
                    .map(|p| p.size_at(*epoch, false))
                    .unwrap_or(0);
                let seen = report.count_for(asn);
                checks.check(seen <= fleet, || {
                    format!("{epoch:?} {domain:?} {asn}: {seen} addresses > fleet {fleet}")
                });
            }
            checks.check(
                report.rate_limited == report.retries + report.exhausted,
                || format!("{epoch:?} {domain:?}: rate_limited != retries + exhausted"),
            );
        }
    }
}

fn in_band(rate: f64) -> bool {
    (ROTATION_BAND.0..=ROTATION_BAND.1).contains(&rate)
}

/// R4 (§4.3): the through-relay rotation series changes address on more
/// than 66 % of consecutive requests, and parallel requests diverge on
/// most rounds.
pub fn rotation(report: &RotationReport, checks: &mut Checks) {
    checks.check(report.change_rate > 0.66, || {
        format!("R4 change rate {:.3} not above 0.66", report.change_rate)
    });
    checks.check(report.parallel_divergence > 0.5, || {
        format!(
            "R4 parallel divergence {:.3} not above 0.5",
            report.parallel_divergence
        )
    });
}

/// The storm's datagram ledger against the channel's counters, and the
/// §4 rotation statistics.
pub fn storm(report: &StormReport, channel: (u64, u64, u64), checks: &mut Checks) {
    let (transfers, dropped, corrupted) = channel;
    checks.check(report.datagrams_sent == transfers, || {
        format!(
            "storm sent {} != channel transfers {transfers}",
            report.datagrams_sent
        )
    });
    checks.check(
        report.datagrams_sent == report.datagrams_forwarded + dropped,
        || {
            format!(
                "storm sent {} != forwarded {} + dropped {dropped}",
                report.datagrams_sent, report.datagrams_forwarded
            )
        },
    );
    checks.check(
        report.datagrams_forwarded
            == report.datagrams_delivered + report.session_drops + report.strays,
        || {
            format!(
                "storm forwarded {} != delivered {} + session drops {} + strays {}",
                report.datagrams_forwarded,
                report.datagrams_delivered,
                report.session_drops,
                report.strays
            )
        },
    );
    checks.check(report.session_drops == corrupted, || {
        format!(
            "storm detected {} damaged datagrams, channel damaged {corrupted}",
            report.session_drops
        )
    });
    checks.check(
        report.replies_received == report.datagrams_delivered,
        || {
            format!(
                "storm replies {} != delivered {}",
                report.replies_received, report.datagrams_delivered
            )
        },
    );
    checks.check(report.sessions.len() as u64 == report.tokens_issued, || {
        format!(
            "storm closed {} sessions for {} tokens",
            report.sessions.len(),
            report.tokens_issued
        )
    });
    let stats = report.rotation_stats();
    checks.check(in_band(stats.consecutive_rate()), || {
        format!(
            "storm rotation {:.3} outside {ROTATION_BAND:?}",
            stats.consecutive_rate()
        )
    });
    checks.check(in_band(stats.parallel_rate()), || {
        format!(
            "storm divergence {:.3} outside {ROTATION_BAND:?}",
            stats.parallel_rate()
        )
    });
}

/// Golden digests keyed by workload and seed, read from `golden.json`:
/// `{"<workload>": {"<seed>": "<digest>", ...}, ...}`.
#[derive(Debug, Default)]
pub struct Golden {
    entries: Vec<(String, u64, String)>,
}

impl Golden {
    /// Loads the digests file.
    pub fn load(path: &Path) -> Result<Golden, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let value: serde_json::Value = serde_json::from_str(&text)
            .map_err(|e| format!("cannot parse {}: {e:?}", path.display()))?;
        let serde_json::Value::Object(workloads) = value else {
            return Err(format!("{}: expected an object", path.display()));
        };
        let mut entries = Vec::new();
        for (workload, seeds) in workloads {
            let serde_json::Value::Object(seeds) = seeds else {
                return Err(format!("{}: {workload} is not an object", path.display()));
            };
            for (seed, digest) in seeds {
                let seed = seed
                    .parse()
                    .map_err(|_| format!("{}: bad seed {seed}", path.display()))?;
                let digest = digest.as_str().ok_or_else(|| {
                    format!("{}: digest of {seed} is not a string", path.display())
                })?;
                entries.push((workload.clone(), seed, digest.to_string()));
            }
        }
        Ok(Golden { entries })
    }

    /// The shipped digest for `(workload, seed)`, if any.
    pub fn get(&self, workload: &str, seed: u64) -> Option<&str> {
        self.entries
            .iter()
            .find(|(w, s, _)| w == workload && *s == seed)
            .map(|(_, _, d)| d.as_str())
    }
}

/// Compares a pass's digest with the shipped one, when there is one.
pub fn golden(golden: &Golden, workload: &str, seed: u64, digest: &str, checks: &mut Checks) {
    if let Some(want) = golden.get(workload, seed) {
        checks.check(want == digest, || {
            format!("{workload} seed {seed}: artifact digest {digest}, golden {want}")
        });
    }
}
