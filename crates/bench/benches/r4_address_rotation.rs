//! R4 — egress address rotation (§4.3): 48 h of 30-second request rounds;
//! the paper saw six addresses from four subnets with a >66 % change rate
//! and diverging parallel requests.

use criterion::{criterion_group, criterion_main, Criterion};
use tectonic_bench::{banner, bench_deployment};
use tectonic_core::relay_scan::{RelayScanConfig, RelayScanSeries};
use tectonic_core::report::render_rotation;
use tectonic_core::rotation::RotationReport;
use tectonic_engine::EngineConfig;
use tectonic_geo::country::CountryCode;
use tectonic_net::{Asn, Epoch};
use tectonic_relay::DnsMode;

fn bench(c: &mut Criterion) {
    let d = bench_deployment();
    let auth = d.auth_server_unlimited();
    let device = d.vantage_device(
        CountryCode::DE,
        DnsMode::Open,
        vec![Asn::CLOUDFLARE, Asn::AKAMAI_PR],
    );
    let config = RelayScanConfig::rotation_series();
    let engine = EngineConfig::default();
    let rotation = || {
        let series = RelayScanSeries::run_engine(
            &device,
            &[&auth],
            &config,
            Epoch::May2022.start(),
            0,
            &engine,
        );
        RotationReport::from_series(&series)
    };
    let report = rotation();
    banner("R4: egress address rotation (48 h, 30 s rounds)");
    print!("{}", render_rotation(&report));
    println!("(paper: 6 addresses / 4 subnets, >66% change rate, parallel requests diverge)");

    let mut group = c.benchmark_group("r4");
    group.sample_size(10);
    group.bench_function("rotation_scan_48h", |b| b.iter(rotation));
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
