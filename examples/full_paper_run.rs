//! Regenerates every table, figure and inline result of the paper in one
//! run and writes the research-archive JSON files, mirroring the authors'
//! published data artefact.
//!
//! ```text
//! cargo run --release --example full_paper_run [scale] [out_dir]
//! ```
//!
//! `scale` divides the client world and egress list (default 16;
//! 1 = full paper scale — expect a long run and several GB of memory).

use std::fs;
use std::path::PathBuf;

use tectonic::atlas::population::PopulationConfig;
use tectonic::core::atlas_campaign::{AtlasCampaignReport, AtlasSetup};
use tectonic::core::attribution::Table2;
use tectonic::core::blocking::survey;
use tectonic::core::correlation::CorrelationReport;
use tectonic::core::ecs_scan::EcsScanner;
use tectonic::core::egress_analysis::EgressAnalysis;
use tectonic::core::quic_probe::QuicProbeReport;
use tectonic::core::relay_scan::{RelayScanConfig, RelayScanSeries};
use tectonic::core::report;
use tectonic::core::rotation::RotationReport;
use tectonic::dns::server::AuthoritativeServer;
use tectonic::dns::{QType, RData, Record, Zone};
use tectonic::engine::EngineConfig;
use tectonic::geo::country::CountryCode;
use tectonic::net::{Asn, Epoch, SimClock};
use tectonic::relay::{Deployment, DeploymentConfig, DnsMode, Domain};

fn main() {
    let scale: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(16);
    let out_dir = PathBuf::from(
        std::env::args()
            .nth(2)
            .unwrap_or_else(|| "target/paper-archive".into()),
    );
    fs::create_dir_all(&out_dir).expect("create archive dir");
    let save = |name: &str, json: String| {
        let path = out_dir.join(name);
        fs::write(&path, json).expect("write archive file");
        println!("  archived {}", path.display());
    };

    println!("=== building deployment (scale 1/{scale}, seed 2022) ===");
    let deployment = Deployment::build(2022, DeploymentConfig::scaled(scale));
    let auth = deployment.auth_server_unlimited();
    let scanner = EcsScanner::default();

    // ---------------------------------------------------------- Table 1
    println!("\n=== Table 1: ingress evolution ===");
    let mut rows = Vec::new();
    for epoch in Epoch::SCANS {
        let mut clock = SimClock::new(epoch.start());
        let default = scanner.scan(Domain::MaskQuic.name(), &auth, &deployment.rib, &mut clock);
        let fallback = (epoch != Epoch::Jan2022).then(|| {
            let mut clock = SimClock::new(epoch.start());
            scanner.scan(Domain::MaskH2.name(), &auth, &deployment.rib, &mut clock)
        });
        rows.push((epoch, default, fallback));
    }
    print!("{}", report::render_table1(&rows));
    save("table1_scans.json", report::to_archive_json(&rows));

    // ---------------------------------------------------------- Table 2
    println!("\n=== Table 2: client attribution ===");
    let april = &rows[3].1;
    let table2 = Table2::build(april, &deployment.aspop);
    print!("{}", report::render_table2(&table2));
    save("table2_attribution.json", report::to_archive_json(&table2));
    save(
        "ingress_addresses_v4.json",
        report::to_archive_json(&april.discovered),
    );

    // ------------------------------------------------------- Tables 3–4
    println!("\n=== Tables 3–4 + Figures 2/4/5: egress analysis ===");
    let analysis = EgressAnalysis::new(&deployment.egress_list, &deployment.rib);
    let table3 = analysis.table3();
    let table4 = analysis.table4();
    print!("{}", report::render_table3(&table3));
    print!("{}", report::render_table4(&table4));
    let shares = analysis.country_shares();
    println!(
        "top countries: {} {:.1}%, {} {:.1}%; {} countries under 50 subnets",
        shares[0].0,
        shares[0].1 * 100.0,
        shares[1].0,
        shares[1].1 * 100.0,
        analysis.countries_below(50),
    );
    save("table3_egress.json", report::to_archive_json(&table3));
    save("table4_cities.json", report::to_archive_json(&table4));
    let points = analysis.geo_points(&deployment.universe);
    save(
        "fig2_fig5_geo_points.json",
        report::to_archive_json(&points),
    );
    let cdfs = [
        analysis.cdf(true, true),
        analysis.cdf(true, false),
        analysis.cdf(false, true),
        analysis.cdf(false, false),
    ];
    print!("{}", report::render_fig4(&cdfs[1], "IPv6 cities"));
    save("fig4_cdfs.json", report::to_archive_json(&cdfs));

    // ------------------------------------------------------------ Atlas
    println!("\n=== R1/R2: Atlas validation and IPv6 enumeration ===");
    let atlas = AtlasSetup::build(&deployment, &PopulationConfig::paper(), 99);
    let engine = EngineConfig::default();
    let mask_campaign = |qtype, seed| {
        atlas.run_mask_campaign_engine(
            &[&auth],
            Domain::MaskQuic,
            qtype,
            Epoch::Apr2022,
            seed,
            &engine,
        )
    };
    let a_results = mask_campaign(QType::A, 1);
    let a_report = AtlasCampaignReport::aggregate(&deployment, &a_results);
    let atlas_in_ecs = a_report
        .v4_addresses
        .iter()
        .filter(|a| april.discovered.contains(a))
        .count();
    println!(
        "Atlas A: {} addresses, {} also in the ECS scan; ECS total {}",
        a_report.v4_addresses.len(),
        atlas_in_ecs,
        april.total(),
    );
    let aaaa_results = mask_campaign(QType::AAAA, 2);
    let aaaa_report = AtlasCampaignReport::aggregate(&deployment, &aaaa_results);
    println!(
        "Atlas AAAA: {} addresses (Apple {}, AkamaiPR {})",
        aaaa_report.v6_addresses.len(),
        aaaa_report.v6_count_for(Asn::APPLE),
        aaaa_report.v6_count_for(Asn::AKAMAI_PR),
    );
    save(
        "r2_ipv6_ingress.json",
        report::to_archive_json(&aaaa_report.v6_addresses),
    );

    // --------------------------------------------------------- Blocking
    println!("\n=== R3: blocking survey ===");
    let mut control_zone = Zone::new("atlas-measurements.net".parse().unwrap());
    control_zone.add_record(Record::new(
        "control.atlas-measurements.net".parse().unwrap(),
        300,
        RData::A("93.184.216.34".parse().unwrap()),
    ));
    let control_auth = AuthoritativeServer::new().with_zone(control_zone);
    let control_results =
        atlas.run_control_campaign_engine(&[&control_auth], Epoch::Apr2022, 3, &engine);
    let is_ingress = |addr: std::net::IpAddr| deployment.fleets.is_ingress(addr);
    let blocking = survey(&a_results, &control_results, &is_ingress);
    print!("{}", report::render_blocking(&blocking));
    save("r3_blocking.json", report::to_archive_json(&blocking));

    // --------------------------------------------------- Figure 3 + R4
    println!("\n=== Figure 3 + R4: through-relay scans ===");
    let vantage_ops = vec![Asn::CLOUDFLARE, Asn::AKAMAI_PR];
    let open_device =
        deployment.vantage_device(CountryCode::DE, DnsMode::Open, vantage_ops.clone());
    let forced = deployment
        .fleets
        .fleet_v4(Epoch::Apr2022, Domain::MaskQuic, Asn::AKAMAI_PR)[0];
    let fixed_device =
        deployment.vantage_device(CountryCode::DE, DnsMode::Fixed(forced), vantage_ops);
    let start = Epoch::May2022.start();
    let series = |device, schedule: &RelayScanConfig, first_connection_id| {
        RelayScanSeries::run_engine(
            device,
            &[&auth],
            schedule,
            start,
            first_connection_id,
            &engine,
        )
    };
    let operator_schedule = RelayScanConfig::operator_series();
    let open = series(&open_device, &operator_schedule, 0);
    let fixed = series(&fixed_device, &operator_schedule, 0);
    print!("{}", report::render_fig3(&open, &fixed));
    save("fig3_operator_series.json", report::to_archive_json(&open));
    // The open device continues past the ids its operator series used.
    let rotation_series = series(
        &open_device,
        &RelayScanConfig::rotation_series(),
        2 * operator_schedule.rounds(),
    );
    let rotation = RotationReport::from_series(&rotation_series);
    print!("{}", report::render_rotation(&rotation));
    save("r4_rotation.json", report::to_archive_json(&rotation));

    // ------------------------------------------------------ Correlation
    println!("\n=== R5/R6: correlation audit ===");
    let correlation = CorrelationReport::audit(&deployment, Epoch::Apr2022);
    print!("{}", report::render_correlation(&correlation));
    save(
        "r5_r6_correlation.json",
        report::to_archive_json(&correlation),
    );

    // ------------------------------------------------------------- QUIC
    println!("\n=== R7: QUIC probing ===");
    let quic = QuicProbeReport::probe(&deployment, 100);
    print!("{}", report::render_quic(&quic));
    save("r7_quic.json", report::to_archive_json(&quic));

    // -------------------------------------------------------- Egress CSV
    let csv = deployment.egress_list.to_csv();
    fs::write(out_dir.join("egress-ip-ranges.csv"), &csv).expect("write csv");
    println!(
        "\narchived egress-ip-ranges.csv ({} rows) — the Apple-format list",
        deployment.egress_list.len()
    );
    println!("\nresearch archive written to {}", out_dir.display());
}
