//! Integration: the Atlas-style measurement pipeline against the relay
//! deployment — validation subset, IPv6 enumeration, blocking survey.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use tectonic::atlas::population::PopulationConfig;
use tectonic::atlas::ProbeResult;
use tectonic::core::atlas_campaign::{AtlasCampaignReport, AtlasSetup};
use tectonic::core::blocking::{survey, ProbeVerdict};
use tectonic::core::ecs_scan::EcsScanner;
use tectonic::dns::server::AuthoritativeServer;
use tectonic::dns::{QType, RData, Record, Zone};
use tectonic::engine::EngineConfig;
use tectonic::net::{Asn, Epoch, SimClock};
use tectonic::relay::{Deployment, DeploymentConfig, Domain};

fn setup() -> (Deployment, AtlasSetup) {
    let d = Deployment::build(77, DeploymentConfig::scaled(256));
    let atlas = AtlasSetup::build(&d, &PopulationConfig::paper().with_probes(6_000), 5);
    (d, atlas)
}

fn mask_campaign(d: &Deployment, atlas: &AtlasSetup, qtype: QType, seed: u64) -> Vec<ProbeResult> {
    let auth = d.auth_server_unlimited();
    atlas.run_mask_campaign_engine(
        &[&auth],
        Domain::MaskQuic,
        qtype,
        Epoch::Apr2022,
        seed,
        &EngineConfig::default(),
    )
}

fn control_campaign(atlas: &AtlasSetup, seed: u64) -> Vec<ProbeResult> {
    let mut zone = Zone::new("atlas-measurements.net".parse().unwrap());
    zone.add_record(Record::new(
        "control.atlas-measurements.net".parse().unwrap(),
        300,
        RData::A("93.184.216.34".parse().unwrap()),
    ));
    let auth = AuthoritativeServer::new().with_zone(zone);
    atlas.run_control_campaign_engine(&[&auth], Epoch::Apr2022, seed, &EngineConfig::default())
}

#[test]
fn atlas_addresses_are_a_subset_of_the_ecs_scan() {
    let (d, atlas) = setup();
    let auth = d.auth_server_unlimited();
    let scanner = EcsScanner::default();
    let mut clock = SimClock::new(Epoch::Apr2022.start());
    let ecs = scanner.scan(Domain::MaskQuic.name(), &auth, &d.rib, &mut clock);

    let results = mask_campaign(&d, &atlas, QType::A, 1);
    let report = AtlasCampaignReport::aggregate(&d, &results);
    let atlas_ingress: BTreeSet<Ipv4Addr> = report
        .v4_addresses
        .iter()
        .filter(|a| d.fleets.is_ingress(std::net::IpAddr::V4(**a)))
        .copied()
        .collect();
    assert!(
        atlas_ingress.is_subset(&ecs.discovered),
        "Atlas view must be contained in the ECS enumeration"
    );
    assert!(!atlas_ingress.is_empty());
}

#[test]
fn ipv6_enumeration_shape() {
    let (d, atlas) = setup();
    let results = mask_campaign(&d, &atlas, QType::AAAA, 2);
    let report = AtlasCampaignReport::aggregate(&d, &results);
    // The AS split mirrors the paper: Akamai PR hosts the lion's share.
    let apple = report.v6_count_for(Asn::APPLE);
    let akamai = report.v6_count_for(Asn::AKAMAI_PR);
    // 6 k probes cover Apple's small fleet almost fully but only part of
    // AkamaiPR's; the full 11.7 k population (see the r2 bench) recovers
    // the paper's ≈3.5× ratio. The ordering must hold regardless.
    assert!(
        akamai as f64 > apple as f64 * 1.5,
        "AkamaiPR {akamai} vs Apple {apple}"
    );
    // Both operators' addresses are inside their v6 ingress prefixes.
    for (asn, addrs) in &report.v6_by_as {
        for a in addrs {
            assert_eq!(d.fleets.asn_of(std::net::IpAddr::V6(*a)), Some(*asn));
        }
    }
}

#[test]
fn blocking_survey_matches_configured_population() {
    let (d, atlas) = setup();
    let mask = mask_campaign(&d, &atlas, QType::A, 3);
    let control = control_campaign(&atlas, 4);
    let is_ingress = |addr: std::net::IpAddr| d.fleets.is_ingress(addr);
    let report = survey(&mask, &control, &is_ingress);
    // Shares within the paper's neighbourhood.
    assert!(
        (0.07..0.14).contains(&report.timeout_share),
        "timeout share {:.3}",
        report.timeout_share
    );
    assert!(
        (0.035..0.075).contains(&report.blocked_share),
        "blocked share {:.3}",
        report.blocked_share
    );
    assert_eq!(report.hijacks, 1, "exactly one hijack configured");
    // NXDOMAIN dominates the failing responses.
    let nx = report
        .rcode_breakdown
        .get("NXDOMAIN")
        .copied()
        .unwrap_or(0.0);
    assert!(nx > 0.5, "NXDOMAIN share {nx:.3}");
}

#[test]
fn classification_consistency_with_probe_policies() {
    let (d, atlas) = setup();
    let mask = mask_campaign(&d, &atlas, QType::A, 6);
    let control = control_campaign(&atlas, 7);
    let is_ingress = |addr: std::net::IpAddr| d.fleets.is_ingress(addr);
    // Re-classify each probe and compare against its configured policy.
    let control_by_id: std::collections::HashMap<u32, _> = control
        .iter()
        .map(|r| (r.probe_id, r.outcome.clone()))
        .collect();
    for (probe, result) in atlas.probes.iter().zip(&mask) {
        let verdict = tectonic::core::blocking::classify(
            &result.outcome,
            control_by_id.get(&result.probe_id).unwrap(),
            &is_ingress,
        );
        use tectonic::dns::resolver::ResolverPolicy as P;
        match probe.policy {
            P::Normal => assert!(
                matches!(verdict, ProbeVerdict::Working | ProbeVerdict::Timeout),
                "normal probe {} classified {verdict:?}",
                probe.id
            ),
            P::BlockNxDomain => assert!(matches!(
                verdict,
                ProbeVerdict::BlockedNxDomain | ProbeVerdict::Timeout
            )),
            P::BlockNoData => assert!(matches!(
                verdict,
                ProbeVerdict::BlockedNoData | ProbeVerdict::Timeout
            )),
            P::Hijack(_) => assert!(matches!(
                verdict,
                ProbeVerdict::Hijacked | ProbeVerdict::Timeout
            )),
            _ => {}
        }
    }
}

#[test]
fn whoami_reveals_resolver_identity() {
    use tectonic::atlas::whoami::whoami_server;
    use tectonic::dns::server::{NameServer, QueryContext, ServerReply};
    use tectonic::dns::{decode_message, encode_message, Message};
    let (_, atlas) = setup();
    let auth = whoami_server();
    // For each public-resolver probe, the whoami answer must be the
    // resolver's (anycast) address, not the probe's.
    for probe in atlas
        .probes
        .iter()
        .filter(|p| p.resolver_kind.is_public())
        .take(50)
    {
        let q = Message::query(1, "whoami.akamai.net".parse().unwrap(), QType::A);
        let ctx = QueryContext {
            src: probe.resolver_addr,
            now: Epoch::Apr2022.start(),
        };
        match auth.handle_query(&encode_message(&q), &ctx) {
            ServerReply::Response(bytes) => {
                let r = decode_message(&bytes).unwrap();
                assert_eq!(
                    r.a_answers().first().map(|a| std::net::IpAddr::V4(*a)),
                    Some(probe.resolver_addr)
                );
            }
            ServerReply::Dropped => panic!("whoami dropped"),
        }
    }
}
