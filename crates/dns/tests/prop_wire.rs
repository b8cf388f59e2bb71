//! Property tests for the DNS wire codec and the name representation.
//!
//! Round-trips arbitrary messages (names, record mixes, ECS options) through
//! encode/decode, checks the decoder never panics on mutated bytes, and
//! compares `DomainName` with a plain label-vector reference model.

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::net::{Ipv4Addr, Ipv6Addr};

use bytes::BytesMut;
use proptest::prelude::*;
use tectonic_dns::{
    decode_message, encode_message, DomainName, EcsOption, Message, MessageEncoder, QType,
    QueryTemplate, RData, Rcode, Record,
};

/// Labels drawn from a DNS-plausible alphabet (the codec is 8-bit safe, but
/// printable labels keep failures readable).
fn arb_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9_-]{1,12}").unwrap()
}

fn arb_name() -> impl Strategy<Value = DomainName> {
    prop::collection::vec(arb_label(), 0..6)
        .prop_map(|labels| DomainName::from_labels(labels).unwrap())
}

/// Mixed-case labels over a tiny alphabet, so equal names (up to case),
/// shared suffixes and zone containment all come up often.
fn arb_model() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(
        proptest::string::string_regex("[abAB-]{1,3}").unwrap(),
        0..4,
    )
}

// ---- the reference model: a name is its label vector -------------------

fn model_eq(a: &[String], b: &[String]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.eq_ignore_ascii_case(y))
}

/// The stream the label-vector representation hashed: each label's
/// lower-cased bytes, then a 0 byte.
fn model_hash(labels: &[String]) -> u64 {
    let mut h = DefaultHasher::new();
    for l in labels {
        for b in l.bytes() {
            h.write_u8(b.to_ascii_lowercase());
        }
        h.write_u8(0);
    }
    h.finish()
}

fn name_hash(n: &DomainName) -> u64 {
    let mut h = DefaultHasher::new();
    n.hash(&mut h);
    h.finish()
}

fn model_display(labels: &[String]) -> String {
    if labels.is_empty() {
        ".".to_string()
    } else {
        labels.join(".")
    }
}

fn model_cmp(a: &[String], b: &[String]) -> Ordering {
    model_display(a)
        .to_ascii_lowercase()
        .cmp(&model_display(b).to_ascii_lowercase())
}

fn model_encoded_len(labels: &[String]) -> usize {
    1 + labels.iter().map(|l| 1 + l.len()).sum::<usize>()
}

fn model_within(name: &[String], zone: &[String]) -> bool {
    zone.len() <= name.len()
        && name
            .iter()
            .rev()
            .zip(zone.iter().rev())
            .all(|(a, b)| a.eq_ignore_ascii_case(b))
}

// ---- uncompressed wire encoding, written independently of the codec -----

fn put_flat_name(out: &mut Vec<u8>, labels: &[Vec<u8>]) {
    for l in labels {
        out.push(u8::try_from(l.len()).unwrap());
        out.extend_from_slice(l);
    }
    out.push(0);
}

fn name_bytes(n: &DomainName) -> Vec<Vec<u8>> {
    n.labels().map(|l| l.as_bytes().to_vec()).collect()
}

/// A NOERROR reply to an A query for `question` with one A record per
/// `(owner, addr)` and an empty OPT record, every name written in full.
fn flat_reply(id: u16, question: &[Vec<u8>], answers: &[(Vec<Vec<u8>>, Ipv4Addr)]) -> Vec<u8> {
    let mut b = id.to_be_bytes().to_vec();
    b.extend_from_slice(&[0x81, 0x00, 0, 1]);
    b.extend_from_slice(&u16::try_from(answers.len()).unwrap().to_be_bytes());
    b.extend_from_slice(&[0, 0, 0, 1]);
    put_flat_name(&mut b, question);
    b.extend_from_slice(&[0, 1, 0, 1]);
    for (owner, addr) in answers {
        put_flat_name(&mut b, owner);
        b.extend_from_slice(&[0, 1, 0, 1, 0, 0, 0, 60, 0, 4]);
        b.extend_from_slice(&addr.octets());
    }
    b.extend_from_slice(&[0, 0, 41, 0x04, 0xD0, 0, 0, 0, 0, 0, 0]);
    b
}

/// Raw wire label bytes: mostly letters, with `.`, NUL and non-UTF-8
/// bytes mixed in.
fn arb_wire_label() -> impl Strategy<Value = Vec<u8>> {
    let byte = any::<u8>().prop_map(|b| match b % 16 {
        0 => b'.',
        1 => 0,
        2..=4 => 0x80 | b,
        _ => b'a' + b % 26,
    });
    prop::collection::vec(byte, 1..64)
}

fn arb_rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        any::<u32>().prop_map(|b| RData::A(Ipv4Addr::from(b))),
        any::<u128>().prop_map(|b| RData::Aaaa(Ipv6Addr::from(b))),
        arb_name().prop_map(RData::Cname),
        arb_name().prop_map(RData::Ns),
        arb_name().prop_map(RData::Ptr),
        proptest::string::string_regex("[ -~]{0,80}")
            .unwrap()
            .prop_map(RData::Txt),
        (arb_name(), arb_name(), any::<u32>()).prop_map(|(mname, rname, serial)| RData::Soa {
            mname,
            rname,
            serial
        }),
    ]
}

fn arb_record() -> impl Strategy<Value = Record> {
    (arb_name(), any::<u32>(), arb_rdata()).prop_map(|(name, ttl, rdata)| Record {
        name,
        ttl,
        class: tectonic_dns::QClass::IN,
        rdata,
    })
}

fn arb_qtype() -> impl Strategy<Value = QType> {
    prop_oneof![
        Just(QType::A),
        Just(QType::AAAA),
        Just(QType::CNAME),
        Just(QType::NS),
        Just(QType::TXT),
        Just(QType::SOA),
        Just(QType::PTR),
        (0u16..=4096).prop_map(QType::from_number),
    ]
    .prop_filter("OPT is not a question type", |t| *t != QType::OPT)
}

fn arb_ecs() -> impl Strategy<Value = EcsOption> {
    prop_oneof![
        (any::<u32>(), 0u8..=32).prop_map(|(bits, len)| {
            EcsOption::for_v4_net(tectonic_net::Ipv4Net::new(Ipv4Addr::from(bits), len).unwrap())
        }),
        (any::<u128>(), 0u8..=128).prop_map(|(bits, len)| {
            EcsOption::for_v6_net(tectonic_net::Ipv6Net::new(Ipv6Addr::from(bits), len).unwrap())
        }),
    ]
}

fn arb_message() -> impl Strategy<Value = Message> {
    (
        any::<u16>(),
        arb_name(),
        arb_qtype(),
        prop::collection::vec(arb_record(), 0..6),
        prop::collection::vec(arb_record(), 0..3),
        prop::option::of(arb_ecs()),
        0u8..=5,
        any::<bool>(),
    )
        .prop_map(|(id, name, qtype, answers, additional, ecs, rcode, qr)| {
            let mut m = Message::query(id, name, qtype);
            m.flags.qr = qr;
            m.rcode = Rcode::from_number(rcode);
            m.answers = answers;
            m.additional = additional;
            if let Some(e) = ecs {
                m.edns.as_mut().unwrap().set_ecs(e);
            }
            m
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn message_round_trips(m in arb_message()) {
        let bytes = encode_message(&m);
        let back = decode_message(&bytes).expect("decode own encoding");
        prop_assert_eq!(back, m);
    }

    #[test]
    fn ecs_payload_round_trips(e in arb_ecs()) {
        let bytes = e.encode();
        let back = EcsOption::decode(&bytes).expect("decode own encoding");
        prop_assert_eq!(back, e);
    }

    #[test]
    fn decoder_never_panics_on_truncation(m in arb_message(), cut in 0usize..2048) {
        let bytes = encode_message(&m);
        let cut = cut % (bytes.len() + 1);
        let _ = decode_message(&bytes[..cut]); // may Err, must not panic
    }

    #[test]
    fn decoder_never_panics_on_bitflips(
        m in arb_message(),
        flips in prop::collection::vec((any::<u16>(), 0u8..8), 1..8),
    ) {
        let mut bytes = encode_message(&m);
        for (pos, bit) in flips {
            let idx = pos as usize % bytes.len();
            bytes[idx] ^= 1 << bit;
        }
        let _ = decode_message(&bytes); // may Err or decode junk, must not panic
    }

    #[test]
    fn decoder_never_panics_on_random_bytes(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = decode_message(&bytes);
    }

    #[test]
    fn reencoding_decoded_is_stable(m in arb_message()) {
        let bytes = encode_message(&m);
        let decoded = decode_message(&bytes).unwrap();
        let bytes2 = encode_message(&decoded);
        let decoded2 = decode_message(&bytes2).unwrap();
        prop_assert_eq!(decoded, decoded2);
    }

    /// A `MessageEncoder` reused across arbitrary messages must emit exactly
    /// what a fresh `encode_message` emits for each of them — stale
    /// compression state leaking between messages would corrupt replies on
    /// the scanner's scratch-buffer path.
    #[test]
    fn reused_encoder_is_byte_identical(ms in prop::collection::vec(arb_message(), 1..8)) {
        let mut encoder = MessageEncoder::new();
        let mut buf = BytesMut::new();
        for m in &ms {
            encoder.encode_into(m, &mut buf);
            prop_assert_eq!(&buf[..], &encode_message(m)[..]);
        }
    }

    /// Template patching must be byte-identical to encoding the equivalent
    /// query from scratch, for any domain, ID and /24 subnet — this is the
    /// fast path the ECS scanner rides for every query it sends.
    #[test]
    fn template_patching_matches_general_encoder(
        name in arb_name(),
        ids in prop::collection::vec(any::<u16>(), 1..6),
        nets in prop::collection::vec(any::<u32>(), 1..6),
    ) {
        let template = QueryTemplate::new_v4_24(&name, QType::A)
            .expect("template construction must succeed for valid names");
        let mut patched = template.instantiate();
        for (&id, &bits) in ids.iter().zip(nets.iter().cycle()) {
            let subnet =
                tectonic_net::Ipv4Net::new(Ipv4Addr::from(bits), 24).unwrap();
            let mut want = Message::query(id, name.clone(), QType::A);
            want.edns
                .as_mut()
                .unwrap()
                .set_ecs(EcsOption::for_v4_net(subnet));
            prop_assert_eq!(patched.patch(id, subnet), &encode_message(&want)[..]);
        }
    }

    /// `DomainName` agrees with the label-vector model on equality, hash
    /// stream, order, display, wire length, label count, zone containment,
    /// parent, label iteration and serde.
    #[test]
    fn name_matches_label_vector_model(a in arb_model(), b in arb_model()) {
        let na = DomainName::from_labels(&a).unwrap();
        let nb = DomainName::from_labels(&b).unwrap();
        prop_assert_eq!(na == nb, model_eq(&a, &b));
        prop_assert_eq!(name_hash(&na), model_hash(&a));
        if na == nb {
            prop_assert_eq!(name_hash(&na), name_hash(&nb));
        }
        prop_assert_eq!(na.cmp(&nb), model_cmp(&a, &b));
        prop_assert_eq!(na.to_string(), model_display(&a));
        prop_assert_eq!(na.encoded_len(), model_encoded_len(&a));
        prop_assert_eq!(na.label_count(), a.len());
        prop_assert_eq!(na.is_root(), a.is_empty());
        prop_assert_eq!(na.is_within(&nb), model_within(&a, &b));
        prop_assert_eq!(na.labels().collect::<Vec<_>>(), a.iter().map(String::as_str).collect::<Vec<_>>());
        prop_assert_eq!(na.labels().rev().count(), a.len());
        match na.parent() {
            None => prop_assert!(a.is_empty()),
            Some(p) => prop_assert_eq!(p.to_string(), model_display(&a[1..])),
        }
        let json = serde_json::to_string(&na).unwrap();
        prop_assert_eq!(&json, &format!("\"{}\"", model_display(&a)));
        let back: DomainName = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back.to_string(), na.to_string());
        prop_assert_eq!(back, na);
    }

    /// Decoding a reply whose answer names are compression pointers yields
    /// the same message, with the same spelling, as decoding the reply
    /// written without compression.
    #[test]
    fn compressed_answers_decode_like_uncompressed(
        question in arb_model().prop_filter("non-root", |l| !l.is_empty()),
        sub in arb_label(),
        owners in prop::collection::vec((any::<bool>(), any::<u32>()), 1..9),
    ) {
        let name = DomainName::from_labels(&question).unwrap();
        let child = name.prepend(&sub).unwrap();
        let q = Message::query(7, name.clone(), QType::A);
        let mut r = q.response_to(Rcode::NoError);
        let mut flat_answers = Vec::new();
        for (nested, bits) in &owners {
            let owner = if *nested { child.clone() } else { name.clone() };
            flat_answers.push((name_bytes(&owner), Ipv4Addr::from(*bits)));
            r.answers.push(Record::new(owner, 60, RData::A(Ipv4Addr::from(*bits))));
        }
        let compressed = encode_message(&r);
        let flat = flat_reply(7, &name_bytes(&name), &flat_answers);
        prop_assert!(compressed.len() < flat.len());
        let from_compressed = decode_message(&compressed).unwrap();
        let from_flat = decode_message(&flat).unwrap();
        prop_assert_eq!(&from_compressed, &from_flat);
        prop_assert_eq!(&from_compressed, &r);
        for (got, want) in from_compressed.answers.iter().zip(&r.answers) {
            prop_assert_eq!(got.name.to_string(), want.name.to_string());
        }
        prop_assert_eq!(
            from_compressed.question().unwrap().name.to_string(),
            name.to_string()
        );
    }

    /// Wire labels are decoded lossily as UTF-8 and then validated like
    /// any other label: a `.` or NUL, an over-long lossy label or an
    /// over-long name is `BadName`; everything else decodes to the lossy
    /// spelling — also when answers point back at the name.
    #[test]
    fn odd_wire_labels_keep_their_outcome(
        labels in prop::collection::vec(arb_wire_label(), 0..6),
    ) {
        let lossy: Vec<String> = labels
            .iter()
            .map(|l| String::from_utf8_lossy(l).into_owned())
            .collect();
        let valid_labels = lossy
            .iter()
            .all(|l| l.len() <= 63 && !l.bytes().any(|b| b == b'.' || b == 0));
        let expect_ok = valid_labels && model_encoded_len(&lossy) <= 255;
        let mut wire = flat_reply(9, &labels, &[]);
        // One answer that is a pointer to the question name.
        wire[7] = 1;
        let opt = wire.split_off(wire.len() - 11);
        wire.extend_from_slice(&[0xC0, 12, 0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 10, 0, 0, 1]);
        wire.extend_from_slice(&opt);
        match decode_message(&wire) {
            Ok(m) => {
                prop_assert!(expect_ok, "decoded {:?}", lossy);
                let q = &m.question().unwrap().name;
                prop_assert_eq!(q.to_string(), model_display(&lossy));
                prop_assert_eq!(m.answers[0].name.to_string(), model_display(&lossy));
            }
            Err(e) => {
                prop_assert!(!expect_ok, "rejected {:?}: {}", lossy, e);
                prop_assert_eq!(e, tectonic_dns::DnsWireError::BadName);
            }
        }
    }
}
