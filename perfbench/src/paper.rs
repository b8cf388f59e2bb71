//! One pass of the paper's artifact pipeline, in the order
//! `examples/full_paper_run.rs` produces them, with the stages whose serial
//! twins are slated for removal driven through their engine variants.
//!
//! The same pass serves both paper workloads: `paper-pipeline` runs it with
//! the seven Table-1 ECS scans, `paper-analyses` without Tables 1–2.

use std::net::IpAddr;
use std::time::Duration;

use tectonic::atlas::measurement::{MeasurementOutcome, ProbeResult};
use tectonic::atlas::population::PopulationConfig;
use tectonic::core::atlas_campaign::{AtlasCampaignReport, AtlasSetup};
use tectonic::core::attribution::Table2;
use tectonic::core::blocking::survey;
use tectonic::core::correlation::CorrelationReport;
use tectonic::core::ecs_scan::{EcsScanReport, EcsScanner};
use tectonic::core::egress_analysis::EgressAnalysis;
use tectonic::core::quic_probe::QuicProbeReport;
use tectonic::core::relay_scan::{RelayScanConfig, RelayScanSeries};
use tectonic::core::report;
use tectonic::core::rotation::RotationReport;
use tectonic::dns::server::AuthoritativeServer;
use tectonic::dns::{NameServer, QType, RData, Record, Zone};
use tectonic::engine::EngineConfig;
use tectonic::geo::country::CountryCode;
use tectonic::net::{Asn, Epoch, SimClock};
use tectonic::relay::{Deployment, DeploymentConfig, DnsMode, Domain};

use crate::scan::{composed_scan, ComposedScan, ScanTrace, ServerTrace, TimedServer};
use crate::timing::{Span, Stopwatch};

/// One Table-1 row: the default-domain scan and, from February on, the
/// fallback-domain scan.
pub type Table1Row = (Epoch, EcsScanReport, Option<EcsScanReport>);

/// Engine shards for the Atlas and relay-scan stages. Fixed, so the
/// workload is the same on every machine; only the worker count follows
/// the core count.
pub const ENGINE_SHARDS: usize = 8;

/// Seed of the Atlas probe population, derived from the workload seed.
fn atlas_seed(seed: u64) -> u64 {
    seed ^ 0xA71A_5000
}

/// The `paper-analyses` deployment: the paper-scale egress list with the
/// client world cut by `world_div`.
pub fn analyses_config(world_div: u64) -> DeploymentConfig {
    let mut config = DeploymentConfig::paper();
    config.client_world = config.client_world.scaled_down(world_div);
    config
}

/// The Atlas population `paper-analyses` builds in its set-up.
pub fn build_atlas(deployment: &Deployment, probes: usize, seed: u64) -> AtlasSetup {
    let config = PopulationConfig::paper().with_probes(probes);
    AtlasSetup::build(deployment, &config, atlas_seed(seed))
}

/// Fixed inputs of one pass.
pub struct PassInput<'a> {
    /// The deployment the pass measures.
    pub deployment: &'a Deployment,
    /// A probe population built in set-up, or `None` to build it inside
    /// the pass (as the full paper run does).
    pub atlas: Option<&'a AtlasSetup>,
    /// Atlas probe count when the pass builds the population.
    pub atlas_probes: usize,
    /// Workload seed.
    pub seed: u64,
    /// Engine worker threads.
    pub workers: usize,
    /// Run Tables 1–2 (the ECS scans).
    pub with_scans: bool,
}

/// How a pass reaches the ECS-scan and DNS-server layers.
pub enum Mode<'a> {
    /// The library as a user calls it: `EcsScanner::scan` and the server
    /// handed to every stage directly.
    Plain,
    /// Scans composed from per-layer calls and every DNS stage behind a
    /// [`TimedServer`]. `clock` off runs the same calls without reading the
    /// clock, the baseline for the tracing overhead. Table 1 and later
    /// stages render `rows`, the plain pass's scan reports.
    Traced { clock: bool, rows: &'a [Table1Row] },
}

/// Busy time of each stage.
#[derive(Debug, Clone, Copy)]
pub struct Stages {
    /// `EgressAnalysis` (Tables 3–4, Figures 2/4/5).
    pub egress: Span,
    /// Atlas campaigns and their aggregation (R1/R2).
    pub atlas: Span,
    /// Control campaign and blocking survey (R3).
    pub blocking: Span,
    /// The three relay-scan series (Figure 3, R4).
    pub relay_scan: Span,
    /// Correlation audit (R5/R6).
    pub correlation: Span,
    /// QUIC probing (R7).
    pub quic: Span,
    /// Rendering and archive serialisation of every artifact.
    pub render: Span,
}

impl Stages {
    fn new() -> Stages {
        Stages {
            egress: Span::on(),
            atlas: Span::on(),
            blocking: Span::on(),
            relay_scan: Span::on(),
            correlation: Span::on(),
            quic: Span::on(),
            render: Span::on(),
        }
    }
}

/// Everything one pass produced.
pub struct PassOut {
    /// `(name, content)` of every rendered table and archive file.
    pub artifacts: Vec<(String, String)>,
    /// Wall time from the built deployment to the last artifact.
    pub wall: Duration,
    /// Wall time until Table 1 was rendered.
    pub table1_at: Option<Duration>,
    /// Wall time of each library scan, in Table-1 order.
    pub scan_walls: Vec<Duration>,
    /// The Table-1 scan reports (plain passes).
    pub rows: Vec<Table1Row>,
    /// The composed scans, in Table-1 order (traced passes).
    pub composed: Vec<ComposedScan>,
    /// Scanner-side layer spans (traced passes).
    pub scan_trace: ScanTrace,
    /// Server-side spans of the scans' queries (traced passes).
    pub scan_server: Option<ServerTrace>,
    /// Server-side spans of every other stage's queries, mask and control
    /// servers together (traced passes).
    pub stage_server: Option<ServerTrace>,
    /// Per-stage busy time.
    pub stages: Stages,
    /// The R4 rotation report.
    pub rotation: RotationReport,
    /// Relay-scan rounds attempted and failed.
    pub relay_rounds: (u64, u64),
    /// Atlas measurements made and those that timed out.
    pub atlas_measurements: (u64, u64),
}

fn timeouts(results: &[ProbeResult]) -> u64 {
    results
        .iter()
        .filter(|r| matches!(r.outcome, MeasurementOutcome::Timeout))
        .count() as u64
}

fn control_zone() -> Zone {
    let mut zone = Zone::new("atlas-measurements.net".parse().expect("zone apex"));
    zone.add_record(Record::new(
        "control.atlas-measurements.net"
            .parse()
            .expect("control name"),
        300,
        RData::A("93.184.216.34".parse().expect("control address")),
    ));
    zone
}

/// The seven Table-1 scans through the library.
fn library_scans(
    scanner: &EcsScanner,
    deployment: &Deployment,
    auth: &AuthoritativeServer,
    walls: &mut Vec<Duration>,
) -> Vec<Table1Row> {
    let mut scan = |domain: Domain, epoch: Epoch| {
        let mut clock = SimClock::new(epoch.start());
        let start = Stopwatch::start();
        let report = scanner.scan(domain.name(), auth, &deployment.rib, &mut clock);
        walls.push(start.elapsed());
        report
    };
    Epoch::SCANS
        .into_iter()
        .map(|epoch| {
            let default = scan(Domain::MaskQuic, epoch);
            let fallback = (epoch != Epoch::Jan2022).then(|| scan(Domain::MaskH2, epoch));
            (epoch, default, fallback)
        })
        .collect()
}

/// The same seven scans composed from per-layer calls.
fn composed_scans(
    scanner: &EcsScanner,
    deployment: &Deployment,
    server: &dyn NameServer,
    trace: &mut ScanTrace,
) -> Vec<ComposedScan> {
    let mut out = Vec::new();
    for epoch in Epoch::SCANS {
        let mut domains = vec![Domain::MaskQuic];
        if epoch != Epoch::Jan2022 {
            domains.push(Domain::MaskH2);
        }
        for domain in domains {
            let subnets = trace
                .candidates
                .time(|| scanner.candidate_subnets(&deployment.rib));
            let mut clock = SimClock::new(epoch.start());
            out.push(composed_scan(
                scanner.config(),
                &domain.name(),
                &subnets,
                server,
                &deployment.rib,
                &mut clock,
                trace,
            ));
        }
    }
    out
}

/// Runs one pass. Artifacts come out in the full paper run's order.
pub fn run_pass(input: &PassInput<'_>, mode: &Mode<'_>) -> PassOut {
    let start = Stopwatch::start();
    let deployment = input.deployment;
    let traced_clock = match mode {
        Mode::Plain => None,
        Mode::Traced { clock, .. } => Some(*clock),
    };
    let auth = deployment.auth_server_unlimited();
    let control_auth = AuthoritativeServer::new().with_zone(control_zone());
    let timed = traced_clock.map(|clock| TimedServer::new(&auth, clock));
    let timed_control = traced_clock.map(|clock| TimedServer::new(&control_auth, clock));
    let server: &(dyn NameServer + Sync) = match &timed {
        Some(t) => t,
        None => &auth,
    };
    let control: &(dyn NameServer + Sync) = match &timed_control {
        Some(t) => t,
        None => &control_auth,
    };
    let engine = EngineConfig::new(ENGINE_SHARDS, input.workers);
    let scanner = EcsScanner::default();
    let mut stages = Stages::new();
    let mut artifacts: Vec<(String, String)> = Vec::new();
    let mut save = |name: &str, content: String| artifacts.push((name.to_string(), content));
    let mut scan_walls = Vec::new();
    let mut scan_trace = ScanTrace::new(traced_clock.unwrap_or(true));
    let mut composed = Vec::new();
    let mut scan_server = None;
    let mut table1_at = None;

    // ---------------------------------------------------- Tables 1–2
    let rows: Vec<Table1Row> = match (input.with_scans, mode) {
        (false, _) => Vec::new(),
        (true, Mode::Plain) => library_scans(&scanner, deployment, &auth, &mut scan_walls),
        (true, Mode::Traced { clock, rows }) => {
            let timed = TimedServer::new(&auth, *clock);
            composed = composed_scans(&scanner, deployment, &timed, &mut scan_trace);
            scan_server = Some(timed.into_trace());
            rows.to_vec()
        }
    };
    let april = rows.get(3).map(|row| &row.1);
    if let Some(april) = april {
        let (table, json) = stages
            .render
            .time(|| (report::render_table1(&rows), report::to_archive_json(&rows)));
        save("table1.txt", table);
        save("table1_scans.json", json);
        table1_at = Some(start.elapsed());
        let table2 = Table2::build(april, &deployment.aspop);
        let rendered = stages.render.time(|| {
            [
                report::render_table2(&table2),
                report::to_archive_json(&table2),
                report::to_archive_json(&april.discovered),
            ]
        });
        for (name, content) in [
            "table2.txt",
            "table2_attribution.json",
            "ingress_addresses_v4.json",
        ]
        .into_iter()
        .zip(rendered)
        {
            save(name, content);
        }
    }

    // ------------------------------------------------------- Tables 3–4
    let (table3, table4, shares, below, points, cdfs) = stages.egress.time(|| {
        let analysis = EgressAnalysis::new(&deployment.egress_list, &deployment.rib);
        (
            analysis.table3(),
            analysis.table4(),
            analysis.country_shares(),
            analysis.countries_below(50),
            analysis.geo_points(&deployment.universe),
            [
                analysis.cdf(true, true),
                analysis.cdf(true, false),
                analysis.cdf(false, true),
                analysis.cdf(false, false),
            ],
        )
    });
    let rendered = stages.render.time(|| {
        [
            report::render_table3(&table3),
            report::render_table4(&table4),
            report::to_archive_json(&table3),
            report::to_archive_json(&table4),
            report::to_archive_json(&points),
            report::render_fig4(&cdfs[1], "IPv6 cities"),
            report::to_archive_json(&cdfs),
        ]
    });
    for (name, content) in [
        "table3.txt",
        "table4.txt",
        "table3_egress.json",
        "table4_cities.json",
        "fig2_fig5_geo_points.json",
        "fig4.txt",
        "fig4_cdfs.json",
    ]
    .into_iter()
    .zip(rendered)
    {
        save(name, content);
    }
    let top = |i: usize| {
        shares
            .get(i)
            .map(|(cc, share)| format!("{cc} {:.1}%", share * 100.0))
            .unwrap_or_default()
    };
    save(
        "country_shares.txt",
        format!(
            "top countries: {}, {}; {below} countries under 50 subnets",
            top(0),
            top(1)
        ),
    );

    // ------------------------------------------------------------ Atlas
    let built;
    let atlas = match input.atlas {
        Some(atlas) => atlas,
        None => {
            built = stages
                .atlas
                .time(|| build_atlas(deployment, input.atlas_probes, input.seed));
            &built
        }
    };
    let (a_results, a_report, aaaa_report) = stages.atlas.time(|| {
        let a_results = atlas.run_mask_campaign_engine(
            &[server],
            Domain::MaskQuic,
            QType::A,
            Epoch::Apr2022,
            1,
            &engine,
        );
        let a_report = AtlasCampaignReport::aggregate(deployment, &a_results);
        let aaaa_results = atlas.run_mask_campaign_engine(
            &[server],
            Domain::MaskQuic,
            QType::AAAA,
            Epoch::Apr2022,
            2,
            &engine,
        );
        let aaaa_report = AtlasCampaignReport::aggregate(deployment, &aaaa_results);
        let aaaa = (aaaa_results.len() as u64, timeouts(&aaaa_results));
        ((a_results, aaaa), a_report, aaaa_report)
    });
    let (a_results, (aaaa_measurements, aaaa_timeouts)) = a_results;
    let mut atlas_line = format!("Atlas A: {} addresses", a_report.v4_addresses.len());
    if let Some(april) = april {
        let in_ecs = a_report
            .v4_addresses
            .iter()
            .filter(|a| april.discovered.contains(a))
            .count();
        atlas_line += &format!(
            ", {in_ecs} also in the ECS scan; ECS total {}",
            april.total()
        );
    }
    save("atlas_a.txt", atlas_line);
    save(
        "atlas_aaaa.txt",
        format!(
            "Atlas AAAA: {} addresses (Apple {}, AkamaiPR {})",
            aaaa_report.v6_addresses.len(),
            aaaa_report.v6_count_for(Asn::APPLE),
            aaaa_report.v6_count_for(Asn::AKAMAI_PR),
        ),
    );
    let json = stages
        .render
        .time(|| report::to_archive_json(&aaaa_report.v6_addresses));
    save("r2_ipv6_ingress.json", json);

    // --------------------------------------------------------- Blocking
    let (control_results, blocking) = stages.blocking.time(|| {
        let control_results =
            atlas.run_control_campaign_engine(&[control], Epoch::Apr2022, 3, &engine);
        let is_ingress = |addr: IpAddr| deployment.fleets.is_ingress(addr);
        let blocking = survey(&a_results, &control_results, &is_ingress);
        (control_results, blocking)
    });
    let rendered = stages.render.time(|| {
        [
            report::render_blocking(&blocking),
            report::to_archive_json(&blocking),
        ]
    });
    for (name, content) in ["r3.txt", "r3_blocking.json"].into_iter().zip(rendered) {
        save(name, content);
    }

    // --------------------------------------------------- Figure 3 + R4
    let (open, fixed, rotation_series) = stages.relay_scan.time(|| {
        let vantage_ops = vec![Asn::CLOUDFLARE, Asn::AKAMAI_PR];
        let open_device =
            deployment.vantage_device(CountryCode::DE, DnsMode::Open, vantage_ops.clone());
        let forced = deployment
            .fleets
            .fleet_v4(Epoch::Apr2022, Domain::MaskQuic, Asn::AKAMAI_PR)[0];
        let fixed_device =
            deployment.vantage_device(CountryCode::DE, DnsMode::Fixed(forced), vantage_ops);
        let start = Epoch::May2022.start();
        let operator = RelayScanConfig::operator_series();
        let open =
            RelayScanSeries::run_engine(&open_device, &[server], &operator, start, 0, &engine);
        let fixed =
            RelayScanSeries::run_engine(&fixed_device, &[server], &operator, start, 0, &engine);
        let rotation = RelayScanSeries::run_engine(
            &open_device,
            &[server],
            &RelayScanConfig::rotation_series(),
            start,
            2 * operator.rounds(),
            &engine,
        );
        (open, fixed, rotation)
    });
    let rotation = RotationReport::from_series(&rotation_series);
    let rendered = stages.render.time(|| {
        [
            report::render_fig3(&open, &fixed),
            report::to_archive_json(&open),
            report::render_rotation(&rotation),
            report::to_archive_json(&rotation),
        ]
    });
    for (name, content) in [
        "fig3.txt",
        "fig3_operator_series.json",
        "r4.txt",
        "r4_rotation.json",
    ]
    .into_iter()
    .zip(rendered)
    {
        save(name, content);
    }

    // ------------------------------------------------------ Correlation
    let correlation = stages
        .correlation
        .time(|| CorrelationReport::audit(deployment, Epoch::Apr2022));
    let rendered = stages.render.time(|| {
        [
            report::render_correlation(&correlation),
            report::to_archive_json(&correlation),
        ]
    });
    for (name, content) in ["r5_r6.txt", "r5_r6_correlation.json"]
        .into_iter()
        .zip(rendered)
    {
        save(name, content);
    }

    // ------------------------------------------------------------- QUIC
    let quic = stages.quic.time(|| QuicProbeReport::probe(deployment, 100));
    let rendered = stages
        .render
        .time(|| [report::render_quic(&quic), report::to_archive_json(&quic)]);
    for (name, content) in ["r7.txt", "r7_quic.json"].into_iter().zip(rendered) {
        save(name, content);
    }

    // -------------------------------------------------------- Egress CSV
    let csv = stages.render.time(|| deployment.egress_list.to_csv());
    save("egress-ip-ranges.csv", csv);
    let wall = start.elapsed();

    let stage_server = timed.map(|t| {
        let mut trace = t.into_trace();
        if let Some(control) = timed_control {
            trace.absorb(control.into_trace());
        }
        trace
    });
    let relay_rounds = open.rounds.len() + fixed.rounds.len() + rotation_series.rounds.len();
    let relay_failed = open.failures + fixed.failures + rotation_series.failures;
    let measurements = (a_results.len() + control_results.len()) as u64 + aaaa_measurements;
    let timed_out = timeouts(&a_results) + aaaa_timeouts + timeouts(&control_results);
    PassOut {
        artifacts,
        wall,
        table1_at,
        scan_walls,
        rows: match mode {
            Mode::Plain => rows,
            Mode::Traced { .. } => Vec::new(),
        },
        composed,
        scan_trace,
        scan_server,
        stage_server,
        stages,
        rotation,
        relay_rounds: (relay_rounds as u64 + relay_failed, relay_failed),
        atlas_measurements: (measurements, timed_out),
    }
}
