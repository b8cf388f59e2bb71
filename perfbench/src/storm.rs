//! The §4 CONNECT-UDP data plane under load: a lossy datagram channel
//! owned by the benchmark, and a serial replay of the storm composed from
//! the relay crate's public session calls, so each call's cost can be timed.

use std::net::IpAddr;
use std::sync::atomic::{AtomicU64, Ordering};

use tectonic::core::masque_load::{DatagramChannel, StormConfig, StormReport};
use tectonic::geo::country::{country_info, CountryCode};
use tectonic::geo::geohash;
use tectonic::net::{Asn, SimRng, SimTime};
use tectonic::relay::masque::build_connect;
use tectonic::relay::session::{
    frame_datagram, open_payload, seal_payload, unframe_datagram, DatagramOutcome, EgressNode,
    IngressNode, SessionReport, CELL_POOL_SIZE,
};
use tectonic::relay::{Deployment, Transport};

use crate::timing::Span;

/// Datagrams lost in flight, per thousand.
pub const DROP_PER_MILLE: u64 = 8;
/// Datagrams damaged in flight, per thousand.
pub const CORRUPT_PER_MILLE: u64 = 6;

/// Clients in the `masque-storm` workload (each runs two agents).
pub const STORM_CLIENTS: u32 = 20_000;
/// Request rounds per client.
pub const STORM_ROUNDS: u32 = 4;

/// Per-shard channel counters.
#[derive(Debug, Default)]
pub struct ShardLedger {
    /// Datagrams offered to the channel.
    pub transfers: AtomicU64,
    /// Datagrams lost.
    pub dropped: AtomicU64,
    /// Datagrams delivered with a flipped bit.
    pub corrupted: AtomicU64,
}

/// A channel that drops and corrupts a small share of datagrams.
///
/// Whether a datagram is lost or damaged is a pure function of
/// `(seed, shard, src, time, bytes)`, so the storm report does not depend
/// on the order in which worker threads drain the shards. Damage flips one
/// bit in the trailing session-id bytes of the sealed payload, which the
/// egress always detects.
pub struct LossyChannel {
    seed: u64,
    shards: Vec<ShardLedger>,
}

/// 64-bit FNV-1a, finished with a SplitMix64 round for well-mixed low bits.
fn hash(seed: u64, parts: &[&[u8]]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64 ^ seed;
    for part in parts {
        for b in *part {
            h = (h ^ u64::from(*b)).wrapping_mul(0x1_0000_01B3);
        }
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

fn addr_bytes(addr: IpAddr) -> Vec<u8> {
    match addr {
        IpAddr::V4(a) => a.octets().to_vec(),
        IpAddr::V6(a) => a.octets().to_vec(),
    }
}

impl LossyChannel {
    /// A channel for `shards` sending shards.
    pub fn new(seed: u64, shards: usize) -> LossyChannel {
        LossyChannel {
            seed,
            shards: (0..shards.max(1)).map(|_| ShardLedger::default()).collect(),
        }
    }

    /// Totals over all shards: `(transfers, dropped, corrupted)`.
    pub fn totals(&self) -> (u64, u64, u64) {
        self.shards.iter().fold((0, 0, 0), |(t, d, c), s| {
            (
                t + s.transfers.load(Ordering::Relaxed),
                d + s.dropped.load(Ordering::Relaxed),
                c + s.corrupted.load(Ordering::Relaxed),
            )
        })
    }
}

impl DatagramChannel for LossyChannel {
    fn transfer(&self, shard: usize, src: IpAddr, now: SimTime, wire: &[u8]) -> Option<Vec<u8>> {
        let ledger = &self.shards[shard % self.shards.len()];
        ledger.transfers.fetch_add(1, Ordering::Relaxed);
        let h = hash(
            self.seed,
            &[
                &(shard as u64).to_be_bytes(),
                &addr_bytes(src),
                &now.as_millis().to_be_bytes(),
                wire,
            ],
        );
        let roll = h % 1000;
        if roll < DROP_PER_MILLE {
            ledger.dropped.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut out = wire.to_vec();
        let tail = out.len().min(8);
        if roll < DROP_PER_MILLE + CORRUPT_PER_MILLE && tail > 0 {
            ledger.corrupted.fetch_add(1, Ordering::Relaxed);
            let i = out.len() - 1 - (h >> 20) as usize % tail;
            out[i] ^= 1 << ((h >> 40) % 8);
        }
        Some(out)
    }
}

/// Channel seed derived from the workload seed.
pub fn channel_seed(seed: u64) -> u64 {
    seed ^ 0xC4A7_7E15
}

/// Per-call busy time of the session-level operations.
#[derive(Debug, Clone, Copy)]
pub struct StormTrace {
    /// `EgressSelector::operator_for`.
    pub operator_for: Span,
    /// `EgressSelector::geohash_pool`, the cell pool `EgressNode::open`
    /// draws from (timed as an extra call beside each open).
    pub select: Span,
    /// `IngressNode::admit`.
    pub admit: Span,
    /// `masque::build_connect`.
    pub connect: Span,
    /// `EgressNode::open`.
    pub open: Span,
    /// `frame_datagram(seal_payload(..))` for each datagram sent, and
    /// `unframe_datagram` + `open_payload` for each reply checked.
    pub frame: Span,
    /// The benchmark channel.
    pub channel: Span,
    /// `EgressNode::datagram`.
    pub datagram: Span,
    /// `EgressNode::close`.
    pub close: Span,
}

impl StormTrace {
    fn new(clock: bool) -> StormTrace {
        StormTrace {
            operator_for: Span::new(clock),
            select: Span::new(clock),
            admit: Span::new(clock),
            connect: Span::new(clock),
            open: Span::new(clock),
            frame: Span::new(clock),
            channel: Span::new(clock),
            datagram: Span::new(clock),
            close: Span::new(clock),
        }
    }

    /// Summed busy time of the calls the storm itself makes (the extra
    /// `geohash_pool` call is excluded: `open` already contains it).
    pub fn session_work_secs(&self) -> f64 {
        [
            self.operator_for,
            self.admit,
            self.connect,
            self.open,
            self.frame,
            self.channel,
            self.datagram,
            self.close,
        ]
        .iter()
        .map(Span::secs)
        .sum()
    }
}

/// What the replay produced, in the shape of the engine report's ledger.
#[derive(Debug, PartialEq)]
pub struct Replay {
    /// Closed sessions, sorted by id.
    pub sessions: Vec<SessionReport>,
    /// Admissions accepted.
    pub tokens_issued: u64,
    /// Datagrams sent into the channel.
    pub datagrams_sent: u64,
    /// Datagrams that left the channel.
    pub datagrams_forwarded: u64,
    /// Valid echo replies.
    pub replies_received: u64,
    /// Datagrams for unknown sessions.
    pub strays: u64,
    /// Datagrams delivered to each egress shard.
    pub egress_shard_datagrams: Vec<u64>,
}

impl Replay {
    /// Whether the engine report carries the same sessions and ledger.
    pub fn matches(&self, report: &StormReport) -> bool {
        self.sessions == report.sessions
            && self.tokens_issued == report.tokens_issued
            && self.datagrams_sent == report.datagrams_sent
            && self.datagrams_forwarded == report.datagrams_forwarded
            && self.replies_received == report.replies_received
            && self.strays == report.strays
    }

    /// Max over mean of the per-egress-shard datagram counts.
    pub fn shard_imbalance(&self) -> f64 {
        let n = self.egress_shard_datagrams.len().max(1) as f64;
        let total: u64 = self.egress_shard_datagrams.iter().sum();
        let max = self
            .egress_shard_datagrams
            .iter()
            .copied()
            .max()
            .unwrap_or(0);
        if total == 0 {
            return 0.0;
        }
        max as f64 / (total as f64 / n)
    }
}

/// The egress shard of `(operator, cell)`, as the storm partitions it.
fn egress_shard(operator: Asn, cell: &str, shards: usize) -> usize {
    let fnv = |seed: u64, bytes: &[u8]| {
        let mut h = seed ^ 0xCBF2_9CE4_8422_2325;
        for b in bytes {
            h = (h ^ u64::from(*b)).wrapping_mul(0x1_0000_01B3);
        }
        h
    };
    let h = fnv(fnv(0, &operator.value().to_be_bytes()), cell.as_bytes());
    (h % shards.max(1) as u64) as usize
}

/// Replays the storm serially through the public session calls, in the
/// order `masque_load::run_engine` applies them per shard. `clock` off
/// runs the same calls without reading the clock.
pub fn replay(
    deployment: &Deployment,
    cfg: &StormConfig,
    channel: &dyn DatagramChannel,
    clock: bool,
) -> (Replay, StormTrace) {
    let mut t = StormTrace::new(clock);
    let selector = deployment.egress_selector();
    let shards = cfg.shards.max(1);
    let mut ingress: Vec<IngressNode> = (0..shards)
        .map(|s| {
            let addr = IpAddr::V4(std::net::Ipv4Addr::new(172, 64, (s >> 8) as u8, s as u8));
            IngressNode::new(addr, cfg.per_day_tokens)
        })
        .collect();
    let mut egress: Vec<EgressNode> = (0..shards)
        .map(|_| EgressNode::new(selector.clone(), cfg.seed ^ 0xE6E5_5010))
        .collect();
    let mut out = Replay {
        sessions: Vec::new(),
        tokens_issued: 0,
        datagrams_sent: 0,
        datagrams_forwarded: 0,
        replies_received: 0,
        strays: 0,
        egress_shard_datagrams: vec![0; shards],
    };
    let ases = deployment.world.ases();
    let spread = ases.len().max(1);
    for client in 0..cfg.clients {
        let c = client as usize;
        let ase = &ases[c % spread];
        let key = SimRng::new(cfg.seed)
            .fork_indexed("storm-client", u64::from(client))
            .next_u64_raw();
        let src = IpAddr::V4(ase.host_addr(u64::from(client) / spread as u64));
        let cc: CountryCode = ase.cc;
        let (lat, lon) = country_info(cc)
            .map(|i| (i.lat, i.lon))
            .unwrap_or((0.0, 0.0));
        let cell = geohash::encode(lat, lon, 4);
        let transport = if client % 16 == 15 {
            Transport::TcpFallback
        } else {
            Transport::Quic
        };
        let shard = c % shards;
        let kick = cfg.start + cfg.stagger.times(u64::from(client));
        for round in 0..cfg.rounds {
            let t_open = kick + cfg.round_spacing.times(u64::from(round));
            let Some(operator) = t
                .operator_for
                .time(|| selector.operator_for(key, cc, t_open))
            else {
                continue;
            };
            let dest = egress_shard(operator, &cell, shards);
            for agent in 0..2u32 {
                if t.admit
                    .time(|| ingress[shard].admit(u64::from(client), t_open))
                    .is_err()
                {
                    continue;
                }
                let sid = (u64::from(client) * u64::from(cfg.rounds) + u64::from(round)) * 2
                    + u64::from(agent)
                    + 1;
                let chain = u64::from(client) * 2 + u64::from(agent) + 1;
                let target = if agent == 0 {
                    "observer.scan.example:443"
                } else {
                    "ipecho.net:80"
                };
                let connect = t.connect.time(|| build_connect(target, &cell));
                let node = &mut egress[dest];
                let accept = t.open.time(|| {
                    node.open(sid, chain, operator, &connect, transport, t_open + cfg.hop)
                });
                if let Ok(accept) = accept {
                    t.select
                        .time(|| selector.geohash_pool(operator, accept.cc, &cell, CELL_POOL_SIZE));
                }
                for k in 0..cfg.datagrams_per_session {
                    let t_send = t_open + cfg.datagram_gap.times(u64::from(k) + 1);
                    let wire = t
                        .frame
                        .time(|| frame_datagram(&seal_payload(sid, k), transport));
                    out.datagrams_sent += 1;
                    let Some(wire) = t
                        .channel
                        .time(|| channel.transfer(shard, src, t_send, &wire))
                    else {
                        continue;
                    };
                    out.datagrams_forwarded += 1;
                    out.egress_shard_datagrams[dest] += 1;
                    if let DatagramOutcome::Reply(reply) =
                        t.datagram.time(|| node.datagram(sid, &wire))
                    {
                        let ok = t.frame.time(|| {
                            unframe_datagram(&reply, transport)
                                .and_then(|p| open_payload(&p))
                                .is_some_and(|(echo, _)| echo == sid)
                        });
                        out.replies_received += u64::from(ok);
                    }
                }
                let t_close = t_open
                    + cfg
                        .datagram_gap
                        .times(u64::from(cfg.datagrams_per_session) + 1);
                t.close.time(|| node.close(sid, t_close + cfg.hop));
            }
        }
    }
    for (ing, eg) in ingress.into_iter().zip(egress) {
        out.tokens_issued += ing.accepted;
        out.strays += eg.strays;
        out.sessions.extend(eg.into_reports());
    }
    out.sessions.sort_by_key(|s| s.session_id);
    (out, t)
}
