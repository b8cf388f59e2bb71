//! Figure 3 — egress operator changes over a scan day, open vs fixed DNS.
//!
//! The device sits at a DE vantage point where (as at the authors'
//! location) only Cloudflare and Akamai PR appear as egress operators.

use criterion::{criterion_group, criterion_main, Criterion};
use tectonic_bench::{banner, bench_deployment};
use tectonic_core::relay_scan::{RelayScanConfig, RelayScanSeries};
use tectonic_core::report::render_fig3;
use tectonic_engine::EngineConfig;
use tectonic_geo::country::CountryCode;
use tectonic_net::{Asn, Epoch};
use tectonic_relay::{DnsMode, Domain};

fn bench(c: &mut Criterion) {
    let d = bench_deployment();
    let auth = d.auth_server_unlimited();
    let vantage_ops = vec![Asn::CLOUDFLARE, Asn::AKAMAI_PR];
    let open_device = d.vantage_device(CountryCode::DE, DnsMode::Open, vantage_ops.clone());
    let forced = d
        .fleets
        .fleet_v4(Epoch::Apr2022, Domain::MaskQuic, Asn::AKAMAI_PR)[0];
    let fixed_device = d.vantage_device(CountryCode::DE, DnsMode::Fixed(forced), vantage_ops);
    let config = RelayScanConfig::operator_series();
    let start = Epoch::May2022.start();
    let engine = EngineConfig::default();
    let series = |device| RelayScanSeries::run_engine(device, &[&auth], &config, start, 0, &engine);
    let open = series(&open_device);
    let fixed = series(&fixed_device);
    banner("Figure 3: egress operator changes over the scan day");
    print!("{}", render_fig3(&open, &fixed));
    println!(
        "(paper: only Cloudflare and AkamaiPR visible; a handful of changes, no regular pattern)"
    );

    let mut group = c.benchmark_group("fig3");
    group.sample_size(10);
    group.bench_function("relay_scan_day", |b| b.iter(|| series(&open_device)));
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
