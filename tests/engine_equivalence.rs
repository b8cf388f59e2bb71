//! The engine's hard invariant, end to end: the sharded discrete-event
//! scan engine must be unobservable in every pipeline output. A golden
//! (fault-free) chaos run reproduces the digest frozen from the serial
//! pipeline it replaced, and any run — golden or kitchen-sink faulted —
//! produces the same `ChaosRun` for every worker count.
//!
//! Engine outputs are pinned to frozen golden digests (the golden chaos
//! runs, a lossy storm, the kitchen-sink chaos run, the relay-scan
//! series), so the oracle outlives the serial twins and catches any
//! scheduler rewrite that reorders events.
//!
//! Unit-level equivalence (per-report field equality, per-stage shard
//! alignment) lives next to each stage; this file is the integration
//! surface the CI `scan-bench` job runs.

use std::net::IpAddr;

use tectonic::chaos::{run_pipeline, ChaosConfig, ChaosRun};
use tectonic::core::masque_load::{
    run_engine, run_serial, DatagramChannel, PerfectChannel, StormConfig,
};
use tectonic::core::relay_scan::{RelayScanConfig, RelayScanSeries};
use tectonic::engine::EngineConfig;
use tectonic::geo::country::CountryCode;
use tectonic::net::{Epoch, SimTime};
use tectonic::relay::{Deployment, DeploymentConfig, DnsMode};
use tectonic::simnet::scenarios;

/// 64-bit FNV-1a over `parts`, each part NUL-terminated.
fn fnv1a<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for part in parts {
        for &b in part.iter().chain([&0]) {
            h = (h ^ u64::from(b)).wrapping_mul(0x1_0000_01B3);
        }
    }
    h
}

/// [`fnv1a`] over strings, as 16 hex digits.
fn digest<'a>(parts: impl IntoIterator<Item = &'a str>) -> String {
    format!("{:016x}", fnv1a(parts.into_iter().map(str::as_bytes)))
}

/// Digest of everything a [`ChaosRun`] carries.
fn run_digest(run: &ChaosRun) -> String {
    let metrics = format!("{:?}", run.metrics);
    let stats = format!("{:?}", run.stats);
    let atlas = format!("{:?}", run.atlas_a_stats);
    digest([run.artifacts.as_str(), &metrics, &stats, &atlas])
}

/// Digest of a relay-scan series' JSON form.
fn series_digest(series: &RelayScanSeries) -> String {
    let json = serde_json::to_string(series).expect("serialise relay series");
    digest([json.as_str()])
}

/// Reduced sizing so the full pipeline stays affordable per run: the
/// matrix here executes it several times.
fn config(engine: EngineConfig) -> ChaosConfig {
    ChaosConfig {
        scale: 8192,
        probes: 200,
        quic_sample: 20,
        storm_clients: 48,
        engine,
    }
}

/// The golden pipeline reproduces the serial pipeline's frozen digest for
/// one and for many workers. This is the acceptance invariant: the engine
/// must change nothing but wall-clock time.
#[test]
fn golden_engine_run_matches_serial_pipeline() {
    for workers in [1, 4] {
        let run = run_pipeline(5, None, &config(EngineConfig::new(8, workers)));
        assert_eq!(
            run_digest(&run),
            GOLDEN_CHAOS_DIGEST,
            "golden engine run, {workers} workers, moved off its frozen digest"
        );
    }
}

/// Frozen digest of the seed-5 golden chaos run, computed on the serial
/// pipeline.
const GOLDEN_CHAOS_DIGEST: &str = "118e56a21c3ef267";

/// The kitchen-sink scenario — every fault family at once — through the
/// engine: same seed, same report, for every worker count.
#[test]
fn kitchen_sink_engine_run_is_worker_invariant() {
    let plan = scenarios::by_name("kitchen-sink").expect("scenario registered");
    let base = run_pipeline(7, Some(&plan), &config(EngineConfig::new(8, 1)));
    for workers in [2, 4] {
        let run = run_pipeline(7, Some(&plan), &config(EngineConfig::new(8, workers)));
        assert_eq!(
            run_digest(&run),
            run_digest(&base),
            "kitchen-sink, {workers} workers"
        );
    }
    // The run injected faults (the matrix in chaos_matrix.rs checks the
    // full invariants; here we only need the engine path to have actually
    // exercised the fault machinery).
    let injected: u64 = base
        .stats
        .values()
        .map(|s| s.all_dropped() + s.undecodable() + s.rcode_rewritten)
        .sum();
    assert!(injected > 0, "kitchen-sink run injected nothing");
    assert_eq!(
        run_digest(&base),
        KITCHEN_SINK_DIGEST,
        "kitchen-sink engine run moved off its frozen digest"
    );
}

/// Frozen digest of the seed-7 kitchen-sink engine run (8 shards).
const KITCHEN_SINK_DIGEST: &str = "a986a573e6aec72d";

/// A channel that drops about 1 % of datagrams and flips one trailing bit
/// in another 1 %. The verdict is a pure function of `(src, now, bytes)`,
/// so it does not depend on the order shards call it in.
struct LossyTestChannel;

impl DatagramChannel for LossyTestChannel {
    fn transfer(&self, _shard: usize, src: IpAddr, now: SimTime, wire: &[u8]) -> Option<Vec<u8>> {
        let addr = match src {
            IpAddr::V4(a) => a.octets().to_vec(),
            IpAddr::V6(a) => a.octets().to_vec(),
        };
        let h = fnv1a([addr.as_slice(), &now.as_millis().to_be_bytes(), wire]);
        let h = h ^ (h >> 29);
        let mut out = wire.to_vec();
        match h % 100 {
            0 => return None,
            1 => {
                if let Some(last) = out.last_mut() {
                    *last ^= 1 << ((h >> 8) % 8);
                }
            }
            _ => {}
        }
        Some(out)
    }
}

/// A lossy CONNECT-UDP storm through the engine at one and four workers
/// reproduces its frozen digest: drops, detected corruption, replies and
/// every per-session counter are pinned, not just compared across worker
/// counts.
#[test]
fn lossy_storm_matches_frozen_digest() {
    let deployment = Deployment::build(13, DeploymentConfig::scaled(2048));
    let cfg = StormConfig::sized(96, 3, 41);
    for workers in [1, 4] {
        let report = run_engine(&deployment, &cfg, &LossyTestChannel, workers);
        assert!(report.session_drops > 0, "the channel damaged nothing");
        assert!(report.datagrams_forwarded < report.datagrams_sent);
        let json = serde_json::to_string(&report).expect("serialise storm report");
        assert_eq!(
            digest([json.as_str()]),
            LOSSY_STORM_DIGEST,
            "{workers} workers: lossy storm moved off its frozen digest"
        );
    }
}

/// Frozen digest of the lossy storm above.
const LOSSY_STORM_DIGEST: &str = "fa67fa62e4d9c8b2";

/// The relay-scan series through the engine (operator and rotation
/// schedules, several shard/worker geometries) reproduces its frozen
/// digests.
#[test]
fn relay_scan_engine_series_match_frozen_digests() {
    let d = Deployment::build(66, DeploymentConfig::scaled(512));
    let auth = d.auth_server_unlimited();
    let schedules = [
        (RelayScanConfig::operator_series(), RELAY_OPERATOR_DIGEST),
        (RelayScanConfig::rotation_series(), RELAY_ROTATION_DIGEST),
    ];
    for (config, golden) in schedules {
        for (shards, workers) in [(1, 1), (6, 1), (6, 3), (6, 8)] {
            let device = d.device_in_country(CountryCode::DE, DnsMode::Open);
            let series = RelayScanSeries::run_engine(
                &device,
                &[&auth],
                &config,
                Epoch::May2022.start(),
                0,
                &EngineConfig::new(shards, workers),
            );
            assert_eq!(
                series_digest(&series),
                golden,
                "{} rounds, {shards} shards, {workers} workers: relay series moved off its frozen digest",
                config.rounds()
            );
        }
    }
}

/// Frozen digests of the relay-scan engine series above.
const RELAY_OPERATOR_DIGEST: &str = "b606f389c9a942d9";
const RELAY_ROTATION_DIGEST: &str = "1ed5c16d45d29925";

/// A device continued into a second series (connection ids starting at
/// the first series' two per round) reproduces the frozen digest of the
/// serial run that made both series on one device counter.
#[test]
fn engine_series_connection_id_base_continues_a_device() {
    let d = Deployment::build(66, DeploymentConfig::scaled(512));
    let auth = d.auth_server_unlimited();
    let config = RelayScanConfig::operator_series();
    let start = Epoch::May2022.start();
    let device = d.device_in_country(CountryCode::DE, DnsMode::Open);
    let engine = EngineConfig::new(4, 2);
    let first = RelayScanSeries::run_engine(&device, &[&auth], &config, start, 0, &engine);
    let second = RelayScanSeries::run_engine(
        &device,
        &[&auth],
        &config,
        start + config.duration,
        2 * config.rounds(),
        &engine,
    );
    assert_eq!(series_digest(&first), RELAY_OPERATOR_DIGEST);
    assert_eq!(
        series_digest(&second),
        RELAY_CONTINUED_DIGEST,
        "continued relay series moved off its frozen digest"
    );
}

/// Frozen digest of the second operator series above.
const RELAY_CONTINUED_DIGEST: &str = "483a0577da97f810";

/// The session layer's own equivalence surface, below the chaos pipeline:
/// a CONNECT-UDP storm driven serially and through the engine at one and
/// many workers must serialise to identical bytes — per-session counters,
/// addresses, rotation flags and all.
#[test]
fn session_storm_reports_are_worker_invariant() {
    let deployment = Deployment::build(13, DeploymentConfig::scaled(2048));
    for seed in [2, 17] {
        let cfg = StormConfig::sized(64, 3, seed);
        let serial = run_serial(&deployment, &cfg, &PerfectChannel);
        let serial_json = serde_json::to_string(&serial).expect("serialise serial report");
        for workers in [1, 3] {
            let engine = run_engine(&deployment, &cfg, &PerfectChannel, workers);
            let engine_json = serde_json::to_string(&engine).expect("serialise engine report");
            assert_eq!(
                serial_json, engine_json,
                "seed {seed}, {workers} workers: session reports diverged"
            );
        }
        assert_eq!(serial.sessions.len() as u64, cfg.attempted_sessions());
    }
}

/// The quick cell the CI `scan-bench` job runs on its own: a three-worker
/// engine at small scale against the serial pipeline's frozen digest.
#[test]
fn quick_three_worker_equivalence() {
    let small = ChaosConfig {
        scale: 16384,
        probes: 100,
        quic_sample: 10,
        storm_clients: 24,
        engine: EngineConfig::new(6, 3),
    };
    let run = run_pipeline(11, None, &small);
    assert_eq!(
        run_digest(&run),
        QUICK_DIGEST,
        "quick three-worker cell moved off its frozen digest"
    );
}

/// Frozen digest of the seed-11 quick cell, computed on the serial
/// pipeline.
const QUICK_DIGEST: &str = "6d23feb364c3ee0c";
