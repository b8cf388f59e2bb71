//! R3 — the service-blocking survey (§4.1): share of probes behind
//! resolvers that block the relay domains, with the RCODE breakdown.

use criterion::{criterion_group, criterion_main, Criterion};
use tectonic_atlas::population::PopulationConfig;
use tectonic_bench::{banner, bench_deployment};
use tectonic_core::atlas_campaign::AtlasSetup;
use tectonic_core::blocking::survey;
use tectonic_core::report::render_blocking;
use tectonic_dns::server::AuthoritativeServer;
use tectonic_dns::{QType, RData, Record, Zone};
use tectonic_engine::EngineConfig;
use tectonic_net::Epoch;
use tectonic_relay::Domain;

fn control_server() -> AuthoritativeServer {
    let mut zone = Zone::new("atlas-measurements.net".parse().unwrap());
    zone.add_record(Record::new(
        "control.atlas-measurements.net".parse().unwrap(),
        300,
        RData::A("93.184.216.34".parse().unwrap()),
    ));
    AuthoritativeServer::new().with_zone(zone)
}

fn bench(c: &mut Criterion) {
    let d = bench_deployment();
    let atlas = AtlasSetup::build(d, &PopulationConfig::paper().with_probes(11_700), 3);
    let auth = d.auth_server_unlimited();
    let engine = EngineConfig::default();
    let mask_results = atlas.run_mask_campaign_engine(
        &[&auth],
        Domain::MaskQuic,
        QType::A,
        Epoch::Apr2022,
        3,
        &engine,
    );
    let control = control_server();
    let control_results =
        atlas.run_control_campaign_engine(&[&control], Epoch::Apr2022, 4, &engine);
    let is_ingress = |addr: std::net::IpAddr| d.fleets.is_ingress(addr);
    let report = survey(&mask_results, &control_results, &is_ingress);
    banner("R3: service-blocking survey (11,700 probes)");
    print!("{}", render_blocking(&report));
    println!(
        "(paper: 10% timeouts, 7% failing responses — 72% NXDOMAIN / 13% NOERROR / 5% REFUSED, \
         645 probes = 5.5% blocked, one hijack)"
    );

    let mut group = c.benchmark_group("r3");
    group.sample_size(10);
    group.bench_function("blocking_classification", |b| {
        b.iter(|| survey(&mask_results, &control_results, &is_ingress))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
