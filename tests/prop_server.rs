//! Never-panic properties for the authoritative server.
//!
//! The server decodes whatever bytes arrive, so `handle_query_into` must
//! survive random bytes and every truncation or bit flip of a valid ECS
//! query, and each reply it writes must itself decode. Both server shapes
//! are covered: a static zone, and the deployment's `MaskZone` answerer.

use std::net::{IpAddr, Ipv4Addr};
use std::sync::OnceLock;

use bytes::BytesMut;
use proptest::prelude::*;
use tectonic::dns::server::{QueryContext, ReplyOutcome};
use tectonic::dns::{
    decode_message, encode_message, AuthoritativeServer, DomainName, EcsOption, Message,
    NameServer, QType, RData, Record, Zone,
};
use tectonic::net::{Epoch, Ipv4Net};
use tectonic::relay::{Deployment, DeploymentConfig};

fn static_server() -> &'static AuthoritativeServer {
    static SERVER: OnceLock<AuthoritativeServer> = OnceLock::new();
    SERVER.get_or_init(|| {
        let mut zone = Zone::new(DomainName::literal("icloud.com"));
        zone.add_record(Record::new(
            DomainName::literal("mask.icloud.com"),
            60,
            RData::A(Ipv4Addr::new(17, 7, 8, 9)),
        ));
        zone.add_record(Record::new(
            DomainName::literal("www.icloud.com"),
            300,
            RData::Cname(DomainName::literal("mask.icloud.com")),
        ));
        AuthoritativeServer::new().with_zone(zone)
    })
}

fn mask_server() -> &'static AuthoritativeServer {
    static SERVER: OnceLock<AuthoritativeServer> = OnceLock::new();
    SERVER.get_or_init(|| {
        Deployment::build(7, DeploymentConfig::scaled(1024)).auth_server_unlimited()
    })
}

/// A well-formed ECS A query for `name` from the /24 holding `client`.
fn ecs_query(id: u16, name: &str, client: u32) -> Vec<u8> {
    let mut q = Message::query(id, DomainName::literal(name), QType::A);
    let subnet = Ipv4Net::slash24_of(Ipv4Addr::from(client));
    q.ensure_edns().set_ecs(EcsOption::for_v4_net(subnet));
    encode_message(&q)
}

fn arb_query() -> impl Strategy<Value = Vec<u8>> {
    (
        any::<u16>(),
        prop_oneof![
            Just("mask.icloud.com"),
            Just("MASK-H2.iCloud.com"),
            Just("www.icloud.com"),
            Just("icloud.com"),
            Just("example.org"),
        ],
        any::<u32>(),
    )
        .prop_map(|(id, name, client)| ecs_query(id, name, client))
}

/// Sends `wire` to both servers; a reply must decode, a drop is fine.
fn check(wire: &[u8]) -> Result<(), TestCaseError> {
    let ctx = QueryContext {
        src: IpAddr::V4(Ipv4Addr::new(198, 51, 100, 7)),
        now: Epoch::Apr2022.start(),
    };
    let mut out = BytesMut::new();
    for server in [static_server(), mask_server()] {
        if server.handle_query_into(wire, &ctx, &mut out) == ReplyOutcome::Written {
            prop_assert!(
                decode_message(&out).is_ok(),
                "undecodable reply {:?} to {:?}",
                &out[..],
                wire
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn server_survives_random_bytes(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        check(&bytes)?;
    }

    #[test]
    fn server_survives_truncated_queries(wire in arb_query(), cut in any::<u16>()) {
        let cut = usize::from(cut) % (wire.len() + 1);
        check(&wire[..cut])?;
    }

    #[test]
    fn server_survives_bit_flips(
        wire in arb_query(),
        flips in prop::collection::vec((any::<u16>(), 0u8..8), 1..8),
    ) {
        let mut wire = wire;
        for (pos, bit) in flips {
            let idx = usize::from(pos) % wire.len();
            wire[idx] ^= 1 << bit;
        }
        check(&wire)?;
    }

    /// The unmutated queries are answered, not just survived.
    #[test]
    fn server_answers_valid_queries(wire in arb_query()) {
        let ctx = QueryContext {
            src: IpAddr::V4(Ipv4Addr::new(198, 51, 100, 7)),
            now: Epoch::Apr2022.start(),
        };
        let mut out = BytesMut::new();
        for server in [static_server(), mask_server()] {
            prop_assert_eq!(server.handle_query_into(&wire, &ctx, &mut out), ReplyOutcome::Written);
            let reply = decode_message(&out).unwrap();
            let query = decode_message(&wire).unwrap();
            prop_assert_eq!(reply.id, query.id);
            prop_assert_eq!(&reply.questions, &query.questions);
        }
    }
}
