//! The traced view of the ECS scan (§3): a timing wrapper around the
//! authoritative server, and a scan composed from the library's public
//! per-layer calls so each layer's busy time can be read off separately.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::net::{IpAddr, Ipv4Addr};
use std::sync::Mutex;
use std::time::Duration;

use bytes::BytesMut;
use tectonic::bgp::{LookupMemo, Rib};
use tectonic::core::{EcsScanConfig, EcsScanReport};
use tectonic::dns::server::{QueryContext, ReplyOutcome, ServerReply};
use tectonic::dns::{
    decode_message, AuthoritativeServer, DomainName, MessageEncoder, NameServer, QType,
    QueryTemplate, Rcode,
};
use tectonic::net::{BatchScratch, Ipv4Net, PrefixTrie, SimClock};

use crate::timing::{Span, Stopwatch};

/// What the timing wrapper saw, summed over every call.
#[derive(Debug)]
pub struct ServerTrace {
    /// `handle_query_into` / `handle_query` on the wrapped server.
    pub handle: Span,
    /// Per-call handle time, nanoseconds.
    pub handle_ns: Vec<u64>,
    /// Re-execution of each call, step by step: wire decode of the query…
    pub parse: Span,
    /// …`AuthoritativeServer::handle_message` (zone lookup, `MaskZone`)…
    pub resolve: Span,
    /// …and the response encode.
    pub encode: Span,
    /// Calls whose composed reply differed from the server's bytes.
    pub split_mismatches: u64,
}

impl ServerTrace {
    fn empty() -> ServerTrace {
        ServerTrace {
            handle: Span::on(),
            handle_ns: Vec::new(),
            parse: Span::on(),
            resolve: Span::on(),
            encode: Span::on(),
            split_mismatches: 0,
        }
    }

    /// Folds another server's trace into this one.
    pub fn absorb(&mut self, other: ServerTrace) {
        self.handle.absorb(&other.handle);
        self.handle_ns.extend(other.handle_ns);
        self.parse.absorb(&other.parse);
        self.resolve.absorb(&other.resolve);
        self.encode.absorb(&other.encode);
        self.split_mismatches += other.split_mismatches;
    }
}

thread_local! {
    static SPLIT_BUFFERS: RefCell<(MessageEncoder, BytesMut)> =
        RefCell::new((MessageEncoder::new(), BytesMut::new()));
}

/// A [`NameServer`] that times every call into an [`AuthoritativeServer`]
/// and re-executes it as `decode_message → handle_message → encode_into`,
/// checking that the composed reply has the server's exact bytes.
///
/// The wrapper only delegates, so a scan or campaign run through it sees
/// the same answers as one run against the server directly. With `clock`
/// off it delegates and records nothing: the untraced baseline of a
/// traced pass.
pub struct TimedServer<'a> {
    inner: &'a AuthoritativeServer,
    clock: bool,
    trace: Mutex<ServerTrace>,
}

impl<'a> TimedServer<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a AuthoritativeServer, clock: bool) -> TimedServer<'a> {
        TimedServer {
            inner,
            clock,
            trace: Mutex::new(ServerTrace::empty()),
        }
    }

    /// Everything recorded so far.
    pub fn into_trace(self) -> ServerTrace {
        self.trace
            .into_inner()
            .expect("no query panicked while recording its timing")
    }

    /// Records one handled call and re-executes it step by step.
    fn record(&self, wire: &[u8], ctx: &QueryContext, handle: Duration, reply: Option<&[u8]>) {
        let mut parse = Duration::ZERO;
        let mut resolve = Duration::ZERO;
        let mut encode = Duration::ZERO;
        let mut mismatch = false;
        if let Some(reply) = reply {
            let t = Stopwatch::start();
            let query = decode_message(wire);
            parse = t.elapsed();
            if let Ok(query) = query {
                let t = Stopwatch::start();
                let response = self.inner.handle_message(&query, ctx);
                resolve = t.elapsed();
                SPLIT_BUFFERS.with(|cell| {
                    let (encoder, buf) = &mut *cell.borrow_mut();
                    let t = Stopwatch::start();
                    encoder.encode_into(&response, buf);
                    encode = t.elapsed();
                    mismatch = &buf[..] != reply;
                });
            }
        }
        let mut trace = self
            .trace
            .lock()
            .expect("no query panicked while recording its timing");
        trace.handle.add(handle);
        trace.handle_ns.push(handle.as_nanos() as u64);
        if reply.is_some() {
            trace.parse.add(parse);
            trace.resolve.add(resolve);
            trace.encode.add(encode);
        }
        trace.split_mismatches += u64::from(mismatch);
    }
}

impl NameServer for TimedServer<'_> {
    fn handle_query(&self, wire: &[u8], ctx: &QueryContext) -> ServerReply {
        if !self.clock {
            return self.inner.handle_query(wire, ctx);
        }
        let start = Stopwatch::start();
        let reply = self.inner.handle_query(wire, ctx);
        let handle = start.elapsed();
        let bytes = match &reply {
            ServerReply::Response(bytes) => Some(&bytes[..]),
            ServerReply::Dropped => None,
        };
        self.record(wire, ctx, handle, bytes);
        reply
    }

    fn handle_query_into(
        &self,
        wire: &[u8],
        ctx: &QueryContext,
        out: &mut BytesMut,
    ) -> ReplyOutcome {
        if !self.clock {
            return self.inner.handle_query_into(wire, ctx, out);
        }
        let start = Stopwatch::start();
        let outcome = self.inner.handle_query_into(wire, ctx, out);
        let handle = start.elapsed();
        let bytes = (outcome == ReplyOutcome::Written).then_some(&out[..]);
        self.record(wire, ctx, handle, bytes);
        outcome
    }
}

/// Busy time per scan-side layer of the composed scans.
#[derive(Debug)]
pub struct ScanTrace {
    /// `EcsScanner::candidate_subnets`, once per scan.
    pub candidates: Span,
    /// `PatchedQuery::patch`.
    pub template: Span,
    /// `decode_message` on each reply.
    pub reply_decode: Span,
    /// `Rib::lookup_batch_in` and `Rib::lookup_memoized`.
    pub rib: Span,
    /// `PrefixTrie::longest_match` and `PrefixTrie::insert` on known scopes.
    pub trie: Span,
    /// Reply bytes received.
    pub reply_bytes: u64,
    /// Queries sent.
    pub queries: u64,
    /// Subnets skipped because a known scope covered them.
    pub skipped_by_scope: u64,
    /// Replies carrying at least one A record.
    pub answered: u64,
}

impl ScanTrace {
    /// An empty trace; `clock` off only counts calls.
    pub fn new(clock: bool) -> ScanTrace {
        ScanTrace {
            candidates: Span::new(clock),
            template: Span::new(clock),
            reply_decode: Span::new(clock),
            rib: Span::new(clock),
            trie: Span::new(clock),
            reply_bytes: 0,
            queries: 0,
            skipped_by_scope: 0,
            answered: 0,
        }
    }

    /// Summed busy time of the per-query layers on the scanner side.
    pub fn scanner_side_secs(&self) -> f64 {
        self.template.secs() + self.reply_decode.secs() + self.rib.secs() + self.trie.secs()
    }
}

/// The scan outputs the composed scan must reproduce.
#[derive(Debug, PartialEq, Eq)]
pub struct ComposedScan {
    /// Every ingress address uncovered.
    pub discovered: BTreeSet<Ipv4Addr>,
    /// Queries sent, retries included.
    pub queries_sent: u64,
    /// Subnets skipped by scope honouring.
    pub skipped_by_scope: u64,
}

impl ComposedScan {
    /// The same three fields of a library scan report.
    pub fn of_report(report: &EcsScanReport) -> ComposedScan {
        ComposedScan {
            discovered: report.discovered.clone(),
            queries_sent: report.queries_sent,
            skipped_by_scope: report.skipped_by_scope,
        }
    }
}

/// One ECS scan of `domain`, made of the calls `EcsScanner::scan` makes:
/// the same candidate list, query IDs, pacing, retries, scope skips and
/// attribution lookups, each timed at its layer. The report bookkeeping
/// the library does on top (per-AS maps, prefix strings, serving credit)
/// is left out; its cost is what the library scan takes beyond this one.
pub fn composed_scan(
    config: &EcsScanConfig,
    domain: &DomainName,
    subnets: &[Ipv4Net],
    server: &dyn NameServer,
    rib: &Rib,
    clock: &mut SimClock,
    trace: &mut ScanTrace,
) -> ComposedScan {
    let mut out = ComposedScan {
        discovered: BTreeSet::new(),
        queries_sent: 0,
        skipped_by_scope: 0,
    };
    let Some(template) = QueryTemplate::new_v4_24(domain, QType::A) else {
        return out;
    };
    let mut patched = template.instantiate();
    let mut query_id: u16 = 1;
    let mut known_scopes: PrefixTrie<()> = PrefixTrie::new();
    let mut reply = BytesMut::new();
    let mut batch: Vec<IpAddr> = Vec::new();
    let mut batch_out = Vec::new();
    let mut lpm_scratch = BatchScratch::new();
    let mut client_memo = LookupMemo::new();
    let src = IpAddr::V4(config.source);
    for subnet in subnets {
        let key = IpAddr::V4(subnet.network());
        if config.respect_scopes
            && trace
                .trie
                .time(|| known_scopes.longest_match(key).is_some())
        {
            out.skipped_by_scope += 1;
            continue;
        }
        let mut attempts = 0;
        let response = loop {
            let now = clock.now();
            out.queries_sent += 1;
            clock.advance(config.query_pacing);
            query_id = query_id.wrapping_add(1);
            let id = query_id;
            let wire = trace.template.time(|| patched.patch(id, *subnet));
            let ctx = QueryContext { src, now };
            match server.handle_query_into(wire, &ctx, &mut reply) {
                ReplyOutcome::Written => {
                    trace.reply_bytes += reply.len() as u64;
                    break trace.reply_decode.time(|| decode_message(&reply)).ok();
                }
                ReplyOutcome::Dropped => {
                    attempts += 1;
                    if attempts > config.max_retries {
                        break None;
                    }
                    clock.advance(config.retry_backoff);
                }
            }
        };
        let Some(response) = response else {
            continue;
        };
        if response.rcode != Rcode::NoError {
            continue;
        }
        let scope = response
            .edns
            .as_ref()
            .and_then(|o| o.ecs())
            .map(|e| e.scope_len);
        if let Some(scope) = scope {
            if config.respect_scopes && scope < 24 {
                if let Ok(scope_net) = Ipv4Net::new(subnet.network(), scope) {
                    trace.trie.time(|| known_scopes.insert(scope_net, ()));
                }
            }
        }
        let answers = response.a_answers();
        if !answers.is_empty() {
            trace.answered += 1;
        }
        batch.clear();
        batch.extend(answers.iter().map(|a| IpAddr::V4(*a)));
        trace
            .rib
            .time(|| rib.lookup_batch_in(&mut lpm_scratch, &batch, &mut batch_out));
        out.discovered.extend(answers);
        trace
            .rib
            .time(|| rib.lookup_memoized(key, &mut client_memo));
    }
    trace.queries += out.queries_sent;
    trace.skipped_by_scope += out.skipped_by_scope;
    out
}
