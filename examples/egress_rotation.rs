//! Through-relay scanning (§4.3): Figure 3's operator series and the
//! egress-address rotation statistics, from a DE vantage point where only
//! Cloudflare and Akamai PR have presence (as at the authors' location).
//!
//! ```text
//! cargo run --release --example egress_rotation
//! ```

use tectonic::core::relay_scan::{RelayScanConfig, RelayScanSeries};
use tectonic::core::report::{render_fig3, render_rotation};
use tectonic::core::rotation::RotationReport;
use tectonic::engine::EngineConfig;
use tectonic::geo::country::CountryCode;
use tectonic::net::{Asn, Epoch};
use tectonic::relay::{Deployment, DeploymentConfig, DnsMode, Domain};

fn main() {
    let deployment = Deployment::build(66, DeploymentConfig::scaled(64));
    let auth = deployment.auth_server_unlimited();
    let vantage_operators = vec![Asn::CLOUDFLARE, Asn::AKAMAI_PR];

    // Figure 3: 5-minute rounds over a day, open vs fixed DNS.
    let open_device =
        deployment.vantage_device(CountryCode::DE, DnsMode::Open, vantage_operators.clone());
    let forced = deployment
        .fleets
        .fleet_v4(Epoch::Apr2022, Domain::MaskQuic, Asn::AKAMAI_PR)[0];
    let fixed_device =
        deployment.vantage_device(CountryCode::DE, DnsMode::Fixed(forced), vantage_operators);
    let config = RelayScanConfig::operator_series();
    let start = Epoch::May2022.start();
    let engine = EngineConfig::default();
    let open = RelayScanSeries::run_engine(&open_device, &[&auth], &config, start, 0, &engine);
    let fixed = RelayScanSeries::run_engine(&fixed_device, &[&auth], &config, start, 0, &engine);
    print!("{}", render_fig3(&open, &fixed));

    // The fine-grained rotation run: 30-second rounds over 48 hours. Each
    // device continues past the connection ids its operator series used.
    let rotation_of = |device| {
        RelayScanSeries::run_engine(
            device,
            &[&auth],
            &RelayScanConfig::rotation_series(),
            start,
            2 * config.rounds(),
            &engine,
        )
    };
    let rotation_series = rotation_of(&open_device);
    let rotation = RotationReport::from_series(&rotation_series);
    println!();
    print!("{}", render_rotation(&rotation));
    println!(
        "\npaper reference: six egress addresses from four subnets over 48 h; \
         >66% of consecutive requests changed address; parallel Safari/curl \
         requests frequently observed different egress addresses"
    );

    // §4.3's closing check: forcing a specific ingress does not change the
    // egress behaviour.
    let fixed_rotation = RotationReport::from_series(&rotation_of(&fixed_device));
    println!(
        "\nforced-ingress scan: {} addresses, change rate {:.1}% \
         (open scan: {} addresses, {:.1}%) — behaviour unchanged",
        fixed_rotation.distinct_addresses,
        fixed_rotation.change_rate * 100.0,
        rotation.distinct_addresses,
        rotation.change_rate * 100.0,
    );
}
