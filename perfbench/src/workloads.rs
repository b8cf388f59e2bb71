//! The three workloads, each with a plain run (end-to-end metrics, nothing
//! instrumented) and a traced run (per-layer metrics).

use std::time::Duration;

use tectonic::core::masque_load::{run_engine, StormConfig, StormReport};
use tectonic::relay::{Deployment, DeploymentConfig};

use crate::checks::{self, Checks, Golden};
use crate::env::peak_rss_mb;
use crate::paper::{self, Mode, PassInput, PassOut};
use crate::reference::Calibrated;
use crate::scan::{ComposedScan, ServerTrace};
use crate::storm::{self, LossyChannel};
use crate::timing::{median, quantile, timed, Metrics, Span, Stopwatch};

/// The end-to-end metrics every plain run prints, with their units.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB")];

/// The per-layer metrics every traced run prints, with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("deploy.build_s", "s"),
    ("host.kernel_s", "s"),
    ("server.handle_s", "s"),
    ("server.handle_ns_p50", "ns"),
    ("server.handle_ns_p99", "ns"),
    ("server.parse_s", "s"),
    ("zone.resolve_s", "s"),
    ("server.encode_s", "s"),
    ("server.queries", "count"),
    ("wire.reply_decode_s", "s"),
    ("wire.reply_bytes", "bytes"),
    ("ecs_scan.bookkeeping_s", "s"),
    ("rib.attribution_s", "s"),
    ("template.encode_s", "s"),
    ("trie.scope_check_s", "s"),
    ("ecs_scan.candidates_s", "s"),
    ("ecs_scan.queries", "count"),
    ("ecs_scan.skipped_by_scope", "count"),
    ("ecs_scan.answered_ratio", "ratio"),
    ("report.render_s", "s"),
    ("egress_analysis.s", "s"),
    ("atlas_campaign.s", "s"),
    ("blocking.survey_s", "s"),
    ("relay_scan.s", "s"),
    ("correlation.audit_s", "s"),
    ("quic_probe.s", "s"),
    ("engine.run_s", "s"),
    ("engine.run_w1_s", "s"),
    ("engine.scaling", "ratio"),
    ("engine.shard_imbalance", "ratio"),
    ("engine.overhead_s", "s"),
    ("session.admit_ns", "ns"),
    ("session.open_ns", "ns"),
    ("session.datagram_ns", "ns"),
    ("session.close_ns", "ns"),
    ("session.frame_ns", "ns"),
    ("egress.operator_for_ns", "ns"),
    ("egress.select_ns", "ns"),
    ("channel.transfers", "count"),
    ("channel.dropped", "count"),
    ("channel.corrupted", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// Layer shares of the ECS scan time measured on a scratch prototype at
/// 1/16, the expected starting split: `(layer, share)`.
pub const SCRATCH_SPLIT: &[(&str, f64)] = &[
    ("server.handle_s", 0.42),
    ("wire.reply_decode_s", 0.19),
    ("ecs_scan.bookkeeping_s", 0.17),
    ("rib.attribution_s", 0.03),
    ("template.encode_s", 0.01),
    ("trie.scope_check_s", 0.01),
];

/// Fewest set-up builds per run; `setup_s` is the median build.
pub const SETUP_MIN_BUILDS: usize = 3;

/// Summed build time a run's set-up repeats for, so that `setup_s` is the
/// median of many builds when one build is short.
pub const SETUP_MIN_SECS: f64 = 1.0;

/// Upper bound on set-up builds per run.
pub const SETUP_MAX_BUILDS: usize = 200;

/// How often set-up runs the reference kernel between builds.
pub const KERNEL_EVERY_SECS: f64 = 0.25;

/// Engine workers of the plain `masque-storm` run. One: at two workers
/// the engine's per-window thread spawns make the storm's wall time vary
/// by more than 2× between identical runs; the traced run measures both
/// one and `nproc` workers (`engine.run_w1_s`, `engine.run_s`).
pub const STORM_WORKERS: usize = 1;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Every artifact of the full paper run, Table-1 ECS scans included.
    PaperPipeline,
    /// Every artifact except Tables 1–2, at paper-scale egress list.
    PaperAnalyses,
    /// The §4 CONNECT-UDP storm through the engine.
    MasqueStorm,
}

impl Workload {
    /// All workloads.
    pub const ALL: [Workload; 3] = [
        Workload::PaperPipeline,
        Workload::PaperAnalyses,
        Workload::MasqueStorm,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperPipeline => "paper-pipeline",
            Workload::PaperAnalyses => "paper-analyses",
            Workload::MasqueStorm => "masque-storm",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes of the workloads and of the probes a traced run uses for
/// layers its own workload does not reach.
#[derive(Clone, Debug)]
pub struct Sizes {
    /// Deployment scale divisor of `paper-pipeline` and `masque-storm`.
    pub scale: u64,
    /// `paper-analyses` client-world divisor.
    pub analyses_world_div: u64,
    /// Atlas probes.
    pub atlas_probes: usize,
    /// `masque-storm` clients.
    pub storm_clients: u32,
    /// `masque-storm` rounds per client.
    pub storm_rounds: u32,
    /// Probe deployment scale divisor.
    pub probe_scale: u64,
    /// Probe Atlas probes.
    pub probe_atlas_probes: usize,
    /// Probe storm clients.
    pub probe_storm_clients: u32,
    /// Check the R4 rotation thresholds, which hold at the benchmark's
    /// sizes but not at the tests' and probes' tiny egress pools.
    pub paper_bands: bool,
}

impl Sizes {
    /// The benchmark's sizes.
    pub fn benchmark() -> Sizes {
        Sizes {
            scale: 128,
            analyses_world_div: 16,
            atlas_probes: 11_700,
            storm_clients: storm::STORM_CLIENTS,
            storm_rounds: storm::STORM_ROUNDS,
            probe_scale: 512,
            probe_atlas_probes: 1_000,
            probe_storm_clients: 2_000,
            paper_bands: true,
        }
    }

    /// Small sizes for the benchmark's own tests.
    pub fn smoke() -> Sizes {
        Sizes {
            scale: 2048,
            analyses_world_div: 2048,
            atlas_probes: 300,
            storm_clients: 400,
            storm_rounds: 2,
            probe_scale: 2048,
            probe_atlas_probes: 200,
            probe_storm_clients: 200,
            paper_bands: false,
        }
    }
}

/// One invocation.
#[derive(Clone, Debug)]
pub struct Run {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget of a plain run.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of a plain one.
    pub trace: bool,
    /// Worker threads for engine stages.
    pub workers: usize,
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The contract metrics: [`END_TO_END`] or [`PER_LAYER`].
    pub metrics: Metrics,
    /// Workload-specific results printed beside them.
    pub report: Metrics,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed although the workload expects them to
    /// succeed.
    pub failed: u64,
    /// Output and equivalence checks.
    pub checks: Checks,
    /// Digest of the run's artifacts (the first pass's; later passes must
    /// match it).
    pub digest: Option<String>,
}

impl Outcome {
    /// Checks a pass's artifact digest against the run's first pass and,
    /// for the first, against the shipped golden.
    fn record_digest(&mut self, name: &str, seed: u64, golden: &Golden, digest: String) {
        match &self.digest {
            Some(first) => self.checks.check(*first == digest, || {
                format!("{name}: pass digest {digest} differs from the run's first {first}")
            }),
            None => {
                checks::golden(golden, name, seed, &digest, &mut self.checks);
                self.digest = Some(digest);
            }
        }
    }

    /// Records the end-to-end metrics of a plain run from its calibrated
    /// set-up builds and passes; `pass_name` is the workload's own name
    /// for the pass's raw wall time.
    fn finish_plain(&mut self, setup: &Calibrated, passes: &Calibrated, pass_name: &str) {
        self.metrics
            .set("setup_s", median(&setup.calibrated()), "s");
        self.metrics
            .set("pass_s", median(&passes.calibrated()), "s");
        self.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
        let walls = passes.raw();
        self.report.set("setup_wall_s", median(&setup.raw()), "s");
        self.report.set(pass_name, median(&walls), "s");
        self.report.count("passes", walls.len() as u64);
        let (fastest, slowest) = walls.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &w| {
            (lo.min(w), hi.max(w))
        });
        self.report.set("pass_min_s", fastest, "s");
        self.report.set("pass_max_s", slowest, "s");
        self.report.set("kernel_s", passes.kernel_median(), "s");
    }
}

/// Builds at least [`SETUP_MIN_BUILDS`] times and until the builds took
/// [`SETUP_MIN_SECS`] together (at most [`SETUP_MAX_BUILDS`]), running the
/// reference kernel every [`KERNEL_EVERY_SECS`]; keeps the last result.
/// Each earlier result is dropped before the next build.
fn setup<T>(build: impl Fn() -> T) -> (T, Calibrated) {
    let mut timeline = Calibrated::new();
    timeline.kernel();
    let mut since_kernel = Stopwatch::start();
    let (mut builds, mut total) = (0, 0.0);
    let mut built = None;
    while builds < SETUP_MIN_BUILDS || (total < SETUP_MIN_SECS && builds < SETUP_MAX_BUILDS) {
        drop(built.take());
        let (value, wall) = timed(&build);
        timeline.unit(wall);
        (builds, total) = (builds + 1, total + wall.as_secs_f64());
        built = Some(value);
        if since_kernel.elapsed().as_secs_f64() >= KERNEL_EVERY_SECS {
            timeline.kernel();
            since_kernel = Stopwatch::start();
        }
    }
    timeline.kernel();
    (built.expect("at least one build"), timeline)
}

/// Runs `pass` until `seconds` have passed (so at least once, and the
/// last pass may end past the budget), with a kernel run before the first
/// pass and after each.
fn passes(seconds: f64, mut pass: impl FnMut() -> Duration) -> Calibrated {
    let start = Stopwatch::start();
    let mut timeline = Calibrated::new();
    timeline.kernel();
    while timeline.raw().is_empty() || start.elapsed().as_secs_f64() < seconds {
        timeline.unit(pass());
        timeline.kernel();
    }
    timeline
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        return 0.0;
    }
    num as f64 / den as f64
}

/// Runs one invocation.
pub fn run(run: &Run, sizes: &Sizes, golden: &Golden) -> Outcome {
    let mut out = Outcome::default();
    match (run.workload, run.trace) {
        (Workload::PaperPipeline, false) => pipeline_plain(run, sizes, golden, &mut out),
        (Workload::PaperAnalyses, false) => analyses_plain(run, sizes, golden, &mut out),
        (Workload::MasqueStorm, false) => storm_plain(run, sizes, golden, &mut out),
        (workload, true) => traced(workload, run, sizes, golden, &mut out),
    }
    let names = if run.trace { PER_LAYER } else { END_TO_END };
    let mut ordered = Metrics::default();
    for (name, unit) in names {
        let Some((_, value, got)) = out.metrics.entries.iter().find(|(n, _, _)| n == name) else {
            out.checks
                .check(false, || format!("metric {name} not measured"));
            continue;
        };
        out.checks.check(got == unit, || {
            format!("metric {name} measured in {got}, not {unit}")
        });
        out.checks
            .check(value.is_finite(), || format!("metric {name} is {value}"));
        ordered.set(name, *value, unit);
    }
    out.metrics = ordered;
    out.checks
        .check(out.attempted > 0, || "no operation attempted".to_string());
    out
}

fn pipeline_input<'a>(deployment: &'a Deployment, run: &Run, sizes: &Sizes) -> PassInput<'a> {
    PassInput {
        deployment,
        atlas: None,
        atlas_probes: sizes.atlas_probes,
        seed: run.seed,
        workers: run.workers,
        with_scans: true,
    }
}

/// Checks a plain paper pass: invariants, and its digest unless the pass
/// is a probe (`golden` is `None`).
fn check_paper_pass(
    pass: &PassOut,
    input: &PassInput<'_>,
    name: &str,
    bands: bool,
    golden: Option<&Golden>,
    out: &mut Outcome,
) {
    if !pass.rows.is_empty() {
        checks::table1(&pass.rows, &input.deployment.config, &mut out.checks);
    }
    if bands {
        checks::rotation(&pass.rotation, &mut out.checks);
    }
    if let Some(golden) = golden {
        out.record_digest(
            name,
            input.seed,
            golden,
            checks::artifacts_digest(&pass.artifacts),
        );
    }
}

fn pipeline_plain(run: &Run, sizes: &Sizes, golden: &Golden, out: &mut Outcome) {
    let (deployment, setup) = scaled_setup(run, sizes.scale);
    let input = pipeline_input(&deployment, run, sizes);
    let (mut table1, mut qps, mut failed_share) = (Vec::new(), Vec::new(), Vec::new());
    let timeline = passes(run.seconds, || {
        let pass = paper::run_pass(&input, &Mode::Plain);
        check_paper_pass(
            &pass,
            &input,
            run.workload.name(),
            sizes.paper_bands,
            Some(golden),
            out,
        );
        let reports = pass
            .rows
            .iter()
            .flat_map(|(_, d, f)| std::iter::once(d).chain(f));
        let (mut queries, mut failed) = (0, 0);
        for report in reports {
            queries += report.queries_sent;
            failed += report.exhausted + report.decode_errors;
        }
        out.attempted += queries;
        out.failed += failed;
        let scan_wall: f64 = pass.scan_walls.iter().map(Duration::as_secs_f64).sum();
        table1.push(pass.table1_at.unwrap_or_default().as_secs_f64());
        qps.push(queries as f64 / scan_wall);
        failed_share.push(ratio(failed, queries));
        pass.wall
    });
    out.finish_plain(&setup, &timeline, "pipeline_s");
    out.report.set("table1_s", median(&table1), "s");
    out.report.set("scan_qps", median(&qps), "1/s");
    out.report
        .set("failed_share", median(&failed_share), "ratio");
}

fn analyses_setup(
    run: &Run,
    sizes: &Sizes,
) -> ((Deployment, tectonic::core::AtlasSetup), Calibrated) {
    setup(|| {
        let deployment =
            Deployment::build(run.seed, paper::analyses_config(sizes.analyses_world_div));
        let atlas = paper::build_atlas(&deployment, sizes.atlas_probes, run.seed);
        (deployment, atlas)
    })
}

fn analyses_plain(run: &Run, sizes: &Sizes, golden: &Golden, out: &mut Outcome) {
    let ((deployment, atlas), setup) = analyses_setup(run, sizes);
    let input = PassInput {
        atlas: Some(&atlas),
        with_scans: false,
        ..pipeline_input(&deployment, run, sizes)
    };
    let mut failed_share = Vec::new();
    let timeline = passes(run.seconds, || {
        let pass = paper::run_pass(&input, &Mode::Plain);
        check_paper_pass(
            &pass,
            &input,
            run.workload.name(),
            sizes.paper_bands,
            Some(golden),
            out,
        );
        let (rounds, round_failures) = pass.relay_rounds;
        let (measurements, timeouts) = pass.atlas_measurements;
        out.attempted += rounds + measurements;
        out.failed += round_failures;
        failed_share.push(ratio(round_failures + timeouts, rounds + measurements));
        pass.wall
    });
    out.finish_plain(&setup, &timeline, "analyses_s");
    out.report
        .set("failed_share", median(&failed_share), "ratio");
}

/// The run's storm with `clients` clients.
fn storm_cfg(run: &Run, clients: u32, sizes: &Sizes) -> StormConfig {
    StormConfig::sized(clients, sizes.storm_rounds, run.seed)
}

/// Builds the run's deployment at `scale` as set-up.
fn scaled_setup(run: &Run, scale: u64) -> (Deployment, Calibrated) {
    setup(|| Deployment::build(run.seed, DeploymentConfig::scaled(scale)))
}

/// Datagrams that crossed the channel intact (not dropped, not damaged)
/// but got no echo: the storm's failures.
fn unanswered_intact(report: &StormReport, damaged: u64) -> u64 {
    (report.datagrams_forwarded - damaged).saturating_sub(report.replies_received)
}

fn storm_plain(run: &Run, sizes: &Sizes, golden: &Golden, out: &mut Outcome) {
    let (deployment, setup) = scaled_setup(run, sizes.scale);
    let cfg = storm_cfg(run, sizes.storm_clients, sizes);
    let (mut rates, mut failed_share, mut peak) = (Vec::new(), Vec::new(), 0);
    let timeline = passes(run.seconds, || {
        let channel = LossyChannel::new(storm::channel_seed(run.seed), cfg.shards);
        let (report, wall) = timed(|| run_engine(&deployment, &cfg, &channel, STORM_WORKERS));
        let totals = channel.totals();
        checks::storm(&report, totals, &mut out.checks);
        out.record_digest(
            run.workload.name(),
            run.seed,
            golden,
            checks::storm_digest(&report),
        );
        out.attempted += report.datagrams_sent;
        out.failed += unanswered_intact(&report, totals.2);
        rates.push(report.sessions.len() as f64 / wall.as_secs_f64());
        peak = report.peak_concurrent;
        failed_share.push(ratio(
            report.datagrams_sent - report.replies_received,
            report.datagrams_sent,
        ));
        wall
    });
    out.finish_plain(&setup, &timeline, "storm_s");
    out.report
        .set("storm_sessions_per_s", median(&rates), "1/s");
    out.report.count("peak_concurrent_sessions", peak);
    out.report
        .set("failed_share", median(&failed_share), "ratio");
}

/// Server-side metrics of a traced pass.
fn server_metrics(trace: &ServerTrace, m: &mut Metrics) {
    let mut ns = trace.handle_ns.clone();
    ns.sort_unstable();
    m.secs("server.handle_s", &trace.handle);
    m.set("server.handle_ns_p50", quantile(&ns, 0.50), "ns");
    m.set("server.handle_ns_p99", quantile(&ns, 0.99), "ns");
    m.secs("server.parse_s", &trace.parse);
    m.secs("zone.resolve_s", &trace.resolve);
    m.secs("server.encode_s", &trace.encode);
    m.count("server.queries", trace.handle.calls);
}

/// Traced passes with the clock off and on repeat in pairs until this
/// much traced time was spent, so short passes report medians.
const TRACE_PAIR_SECS: f64 = 3.0;

/// Plain pass, then traced passes with the clock off and on, on the same
/// inputs: the per-layer metrics of the paper pass, and its equivalence
/// checks against the plain pass. The clock-on pass of the last pair
/// gives the layer times; the overhead ratio compares the medians.
fn trace_paper(
    input: &PassInput<'_>,
    name: &str,
    golden: Option<&Golden>,
    bands: bool,
    out: &mut Outcome,
) -> Metrics {
    let plain = paper::run_pass(input, &Mode::Plain);
    check_paper_pass(&plain, input, name, bands, golden, out);
    let want = checks::artifacts_digest(&plain.artifacts);
    let (mut on_walls, mut off_walls) = (Vec::new(), Vec::new());
    let started = Stopwatch::start();
    let on = loop {
        let off = paper::run_pass(
            input,
            &Mode::Traced {
                clock: false,
                rows: &plain.rows,
            },
        );
        let on = paper::run_pass(
            input,
            &Mode::Traced {
                clock: true,
                rows: &plain.rows,
            },
        );
        for (label, pass) in [("untimed traced", &off), ("traced", &on)] {
            let got = checks::artifacts_digest(&pass.artifacts);
            out.checks.check(got == want, || {
                format!("{name}: {label} pass digest {got} != plain {want}")
            });
        }
        off_walls.push(off.wall.as_secs_f64());
        on_walls.push(on.wall.as_secs_f64());
        if started.elapsed().as_secs_f64() >= TRACE_PAIR_SECS {
            break on;
        }
    };
    let library: Vec<ComposedScan> = plain
        .rows
        .iter()
        .flat_map(|(_, d, f)| std::iter::once(d).chain(f))
        .map(ComposedScan::of_report)
        .collect();
    out.checks.check(on.composed == library, || {
        format!("{name}: composed scans differ from EcsScanner::scan (set, queries or skips)")
    });
    let mut server = on.stage_server.expect("traced pass has a server trace");
    let scan_server = on.scan_server;
    let mut m = Metrics::default();
    if let Some(scan_server) = &scan_server {
        let t = &on.scan_trace;
        let library_wall: f64 = plain.scan_walls.iter().map(Duration::as_secs_f64).sum();
        let bookkeeping =
            library_wall - t.candidates.secs() - t.scanner_side_secs() - scan_server.handle.secs();
        m.secs("wire.reply_decode_s", &t.reply_decode);
        m.set("wire.reply_bytes", t.reply_bytes as f64, "bytes");
        m.set("ecs_scan.bookkeeping_s", bookkeeping, "s");
        m.secs("rib.attribution_s", &t.rib);
        m.secs("template.encode_s", &t.template);
        m.secs("trie.scope_check_s", &t.trie);
        m.secs("ecs_scan.candidates_s", &t.candidates);
        m.count("ecs_scan.queries", t.queries);
        m.count("ecs_scan.skipped_by_scope", t.skipped_by_scope);
        m.set(
            "ecs_scan.answered_ratio",
            ratio(t.answered, t.queries),
            "ratio",
        );
        for (layer, scratch) in SCRATCH_SPLIT {
            let secs = match *layer {
                "server.handle_s" => scan_server.handle.secs(),
                other => m.get(other).unwrap_or(0.0),
            };
            out.report
                .set(&format!("share.{layer}"), secs / library_wall, "ratio");
            out.report
                .set(&format!("scratch_share.{layer}"), *scratch, "ratio");
        }
    }
    let mismatches =
        scan_server.as_ref().map_or(0, |s| s.split_mismatches) + server.split_mismatches;
    out.checks.check(mismatches == 0, || {
        format!("{name}: {mismatches} composed server replies differ from handle_query_into")
    });
    if let Some(scan_server) = scan_server {
        server.absorb(scan_server);
    }
    server_metrics(&server, &mut m);
    let stages = &on.stages;
    for (metric, span) in [
        ("report.render_s", &stages.render),
        ("egress_analysis.s", &stages.egress),
        ("atlas_campaign.s", &stages.atlas),
        ("blocking.survey_s", &stages.blocking),
        ("relay_scan.s", &stages.relay_scan),
        ("correlation.audit_s", &stages.correlation),
        ("quic_probe.s", &stages.quic),
    ] {
        m.secs(metric, span);
    }
    let (traced, untimed) = (median(&on_walls), median(&off_walls));
    m.set("trace.overhead_ratio", traced / untimed, "ratio");
    out.report.set("traced_pass_s", traced, "s");
    out.report.set("untimed_traced_pass_s", untimed, "s");
    out.report
        .set("plain_pass_s", plain.wall.as_secs_f64(), "s");
    m
}

/// Storm at w1 and w=`workers` through the lossy channel, and its serial
/// replay with the clock on and off: the engine and session metrics.
fn trace_storm(
    deployment: &Deployment,
    cfg: &StormConfig,
    seed: u64,
    workers: usize,
    golden: Option<&Golden>,
    out: &mut Outcome,
) -> Metrics {
    let channel_seed = storm::channel_seed(seed);
    let w1_channel = LossyChannel::new(channel_seed, cfg.shards);
    let (w1, w1_wall) = timed(|| run_engine(deployment, cfg, &w1_channel, 1));
    let wn_channel = LossyChannel::new(channel_seed, cfg.shards);
    let (wn, wn_wall) = timed(|| run_engine(deployment, cfg, &wn_channel, workers));
    checks::storm(&wn, wn_channel.totals(), &mut out.checks);
    if let Some(golden) = golden {
        out.record_digest(
            Workload::MasqueStorm.name(),
            seed,
            golden,
            checks::storm_digest(&wn),
        );
    }
    out.failed += unanswered_intact(&wn, wn_channel.totals().2);
    out.checks.check(
        checks::storm_digest(&w1) == checks::storm_digest(&wn)
            && w1_channel.totals() == wn_channel.totals(),
        || format!("storm report at w1 differs from w{workers}"),
    );
    let replay_channel = LossyChannel::new(channel_seed, cfg.shards);
    let ((replay, trace), on_wall) =
        timed(|| storm::replay(deployment, cfg, &replay_channel, true));
    let off_channel = LossyChannel::new(channel_seed, cfg.shards);
    let ((replay_off, _), off_wall) = timed(|| storm::replay(deployment, cfg, &off_channel, false));
    out.checks
        .check(replay.matches(&wn) && replay_off == replay, || {
            "serial replay of the storm differs from the engine report".to_string()
        });
    let mut m = Metrics::default();
    let (transfers, dropped, corrupted) = wn_channel.totals();
    m.set("engine.run_s", wn_wall.as_secs_f64(), "s");
    m.set("engine.run_w1_s", w1_wall.as_secs_f64(), "s");
    m.set(
        "engine.scaling",
        w1_wall.as_secs_f64() / wn_wall.as_secs_f64(),
        "ratio",
    );
    m.set("engine.shard_imbalance", replay.shard_imbalance(), "ratio");
    m.set(
        "engine.overhead_s",
        w1_wall.as_secs_f64() - trace.session_work_secs(),
        "s",
    );
    let spans: [(&str, &Span); 7] = [
        ("session.admit_ns", &trace.admit),
        ("session.open_ns", &trace.open),
        ("session.datagram_ns", &trace.datagram),
        ("session.close_ns", &trace.close),
        ("session.frame_ns", &trace.frame),
        ("egress.operator_for_ns", &trace.operator_for),
        ("egress.select_ns", &trace.select),
    ];
    for (metric, span) in spans {
        m.ns(metric, span);
    }
    m.count("channel.transfers", transfers);
    m.count("channel.dropped", dropped);
    m.count("channel.corrupted", corrupted);
    m.set(
        "trace.overhead_ratio",
        on_wall.as_secs_f64() / off_wall.as_secs_f64(),
        "ratio",
    );
    out.report.set("replay_s", on_wall.as_secs_f64(), "s");
    out.report
        .set("untimed_replay_s", off_wall.as_secs_f64(), "s");
    out.report
        .set("session_work_s", trace.session_work_secs(), "s");
    m
}

/// A traced run: the workload's own layers at full size, then probes at
/// small size for the layers the workload does not reach, so that every
/// per-layer metric is measured on every workload.
fn traced(workload: Workload, run: &Run, sizes: &Sizes, golden: &Golden, out: &mut Outcome) {
    let name = workload.name();
    let probe_storm = storm_cfg(run, sizes.probe_storm_clients, sizes);
    let mut own = match workload {
        Workload::PaperPipeline => {
            let (deployment, setup) = scaled_setup(run, sizes.scale);
            let input = pipeline_input(&deployment, run, sizes);
            let mut m = trace_paper(&input, name, Some(golden), sizes.paper_bands, out);
            m.set("deploy.build_s", median(&setup.raw()), "s");
            m.set("host.kernel_s", setup.kernel_median(), "s");
            let probe = trace_storm(&deployment, &probe_storm, run.seed, run.workers, None, out);
            m.fill_from(&probe);
            m
        }
        Workload::PaperAnalyses => {
            let ((deployment, atlas), setup) = analyses_setup(run, sizes);
            let input = PassInput {
                atlas: Some(&atlas),
                with_scans: false,
                ..pipeline_input(&deployment, run, sizes)
            };
            let mut m = trace_paper(&input, name, Some(golden), sizes.paper_bands, out);
            m.set("deploy.build_s", median(&setup.raw()), "s");
            m.set("host.kernel_s", setup.kernel_median(), "s");
            m
        }
        Workload::MasqueStorm => {
            let (deployment, setup) = scaled_setup(run, sizes.scale);
            let cfg = storm_cfg(run, sizes.storm_clients, sizes);
            let mut m = trace_storm(&deployment, &cfg, run.seed, run.workers, Some(golden), out);
            m.set("deploy.build_s", median(&setup.raw()), "s");
            m.set("host.kernel_s", setup.kernel_median(), "s");
            m
        }
    };
    if workload != Workload::PaperPipeline {
        let probe_deployment =
            Deployment::build(run.seed, DeploymentConfig::scaled(sizes.probe_scale));
        let input = PassInput {
            atlas_probes: sizes.probe_atlas_probes,
            ..pipeline_input(&probe_deployment, run, sizes)
        };
        let probe = trace_paper(&input, "probe", None, false, out);
        own.fill_from(&probe);
        if workload == Workload::PaperAnalyses {
            let probe = trace_storm(
                &probe_deployment,
                &probe_storm,
                run.seed,
                run.workers,
                None,
                out,
            );
            own.fill_from(&probe);
        }
    }
    out.attempted = ["server.queries", "ecs_scan.queries", "channel.transfers"]
        .iter()
        .filter_map(|name| own.get(name))
        .sum::<f64>() as u64;
    out.metrics = own;
}
