//! The sharded scheduler.
//!
//! # Determinism model
//!
//! The world is split into `S` shards. Every event lives on exactly one
//! shard and is keyed by `(SimTime, shard, seq)`: time first, then the
//! owning shard, then a per-shard sequence number that captures insertion
//! order. Within one shard, events execute strictly in `(time, seq)`
//! order; across shards the execution interleaving is unobservable because
//! shards share no mutable state — the only cross-shard channel is
//! [`ShardCtx::send`], and a sent event is always delivered at least one
//! *lookahead* after the sender's current time.
//!
//! The run loop is a conservative (YAWNS-style) window scheme:
//!
//! 1. compute `floor` = the earliest pending event time across all shards;
//! 2. let every shard independently drain its queue through
//!    `last = floor + lookahead - 1` (this is the parallel part — shards are
//!    chunked contiguously over scoped worker threads);
//! 3. at the barrier, deliver each shard's outbox in **shard-index order**,
//!    assigning receiver-side sequence numbers in that order.
//!
//! Because a send is clamped to `send_time ≥ now + lookahead > last`, no
//! event delivered in step 3 could have executed inside the window it was
//! sent from; every shard therefore saw a complete, identical event set
//! for the window regardless of how many threads ran step 2 or how they
//! were scheduled. Worker count changes wall-clock time only. Time
//! arithmetic saturates at `u64::MAX` ms: the window is written with an
//! inclusive `last` so that it saturates instead of overflowing.
//!
//! Per-shard randomness comes from [`SimRng::fork_indexed`] on the engine's
//! base generator, so a shard's stream depends only on `(seed, shard)` —
//! never on sibling shards or execution order.
//!
//! # The calendar queue
//!
//! A shard's pending events live in a two-level calendar queue
//! (`Calendar`). Time is cut into buckets one lookahead wide (at least
//! 2 ms), bucket `b` holding the events with `time / width == b`. The queue
//! keeps a **horizon**, a bucket index, under one invariant:
//!
//! > every pending event below the horizon is in the *near* queue — a
//! > binary heap ordered by `(time, seq)` — and every other event is in
//! > its bucket.
//!
//! Buckets from the horizon up to `RING` buckets ahead sit in a ring (a
//! `VecDeque` indexed by distance from the horizon, grown only as far as
//! events reach); later ones wait in an ordered overflow map until the
//! ring spans them. A bucket is a `Vec` in insertion order plus its earliest
//! time, so inserting an event is an append. At the start of each window
//! the shard moves the horizon to the first bucket boundary past `last`,
//! merging the buckets it passes into the near queue, then pops the near
//! queue through `last`. Every event due in the window is below the
//! horizon, so the near queue yields exactly the sequence a single
//! `(time, seq)` heap over all pending events would; `seq` is assigned
//! once, at first insertion, and moving an event between levels keeps it.
//! The near queue holds one or two buckets, so each event costs a few
//! cache-warm heap levels instead of a sift through every pending event,
//! and a shard's head time is the near head or else the earliest bucket's
//! recorded minimum. Drained bucket buffers go to a spare list that the
//! next bucket to fill draws from, so buffers track the pending events
//! and a steady-state window allocates nothing.
//!
//! This module is audited index-free (lintkit strict no-index): slices are
//! traversed with iterators, `get`, and `chunks_mut`, never `a[i]`.

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

use tectonic_net::{SimDuration, SimRng, SimTime};

/// Shard/worker geometry and the conservative lookahead window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Number of world shards. Results depend on this (it fixes the event
    /// partition), so equivalence tests hold it constant while varying
    /// `workers`.
    pub shards: usize,
    /// Number of OS threads draining shards. **Never affects results** —
    /// only wall-clock time. `1` runs inline on the calling thread.
    pub workers: usize,
    /// Conservative window width: a cross-shard send is delivered no
    /// earlier than `sender_now + lookahead`. Larger lookahead = fewer
    /// barriers; must be an upper bound on how far ahead a shard may
    /// safely run without seeing its neighbours' sends.
    pub lookahead: SimDuration,
}

impl EngineConfig {
    /// A config with the default 60 s lookahead (suits query-paced scans).
    pub fn new(shards: usize, workers: usize) -> EngineConfig {
        EngineConfig {
            shards: shards.max(1),
            workers: workers.max(1),
            lookahead: SimDuration::from_secs(60),
        }
    }

    /// Overrides the lookahead window.
    pub fn with_lookahead(mut self, lookahead: SimDuration) -> EngineConfig {
        self.lookahead = lookahead;
        self
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::new(8, 4)
    }
}

/// One shard's state machine.
///
/// Implementations own all state they touch (their "stat sled"); the
/// engine guarantees `handle` is never called concurrently for the same
/// shard and that the event order seen is a pure function of the seeded
/// inputs.
pub trait ShardModel: Send {
    /// The event payload routed through the queues.
    type Event: Send;
    /// The shard-local result arena returned by [`ShardModel::finish`].
    type Out: Send;

    /// Processes one event at simulated time `now`.
    fn handle(&mut self, now: SimTime, event: Self::Event, ctx: &mut ShardCtx<Self::Event>);

    /// Consumes the shard into its local result once all queues are empty.
    fn finish(self) -> Self::Out;
}

/// Handler-side view of the scheduler: schedule locally, send cross-shard,
/// draw shard-scoped randomness.
pub struct ShardCtx<E> {
    shard: usize,
    shards: usize,
    now: SimTime,
    lookahead: SimDuration,
    rng: SimRng,
    local: Vec<(SimTime, E)>,
    outbox: Vec<(usize, SimTime, E)>,
}

impl<E> ShardCtx<E> {
    /// This shard's index in `[0, shard_count)`.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Total number of shards in the engine.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The time of the event currently being handled.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The shard's private generator, forked from the engine seed by shard
    /// index.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Schedules a follow-up event on this shard. Times in the past are
    /// clamped to `now` (the queue never travels backwards).
    pub fn schedule(&mut self, at: SimTime, event: E) {
        self.local.push((at.max(self.now), event));
    }

    /// Sends an event to shard `dest` (out-of-range destinations are
    /// clamped to the last shard). Delivery is clamped to
    /// `now + lookahead` or later, which is what makes the window scheme
    /// conservative: the receiver can never have already run past the
    /// delivery time.
    pub fn send(&mut self, dest: usize, at: SimTime, event: E) {
        let dest = dest.min(self.shards.saturating_sub(1));
        self.outbox
            .push((dest, at.max(later(self.now, self.lookahead)), event));
    }

    /// Sends a clone of `event` to every *other* shard.
    pub fn broadcast(&mut self, at: SimTime, event: E)
    where
        E: Clone,
    {
        for dest in 0..self.shards {
            if dest != self.shard {
                self.send(dest, at, event.clone());
            }
        }
    }
}

/// A queued event; ordering compares `(time, seq)` only, reversed so the
/// std max-heap pops the earliest event first.
struct Queued<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Queued<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Queued<E> {}

impl<E> PartialOrd for Queued<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Queued<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// `t + d`, saturating at the end of time.
fn later(t: SimTime, d: SimDuration) -> SimTime {
    SimTime(t.as_millis().saturating_add(d.as_millis()))
}

/// The most buckets the ring spans past the horizon; later buckets wait in
/// the calendar's overflow map. The ring grows only as far as events
/// reach, so an engine whose events sit in a few buckets pays for a few.
const RING: u64 = 4096;

/// One calendar bucket: its events in insertion (hence `seq`) order and
/// the earliest of their times (stale while empty).
struct Bucket<E> {
    min: SimTime,
    items: Vec<Queued<E>>,
}

impl<E> Default for Bucket<E> {
    fn default() -> Bucket<E> {
        Bucket {
            min: SimTime::EPOCH,
            items: Vec::new(),
        }
    }
}

impl<E> Bucket<E> {
    fn add(&mut self, q: Queued<E>) {
        if self.items.is_empty() || q.time < self.min {
            self.min = q.time;
        }
        self.items.push(q);
    }
}

/// The ring index of bucket `b` when the horizon is `horizon`, if the
/// ring spans it.
fn ring_index(horizon: u64, b: u64) -> Option<usize> {
    let offset = b.checked_sub(horizon).filter(|&i| i < RING)?;
    usize::try_from(offset).ok()
}

/// Ring bucket `i`, growing the ring to reach it.
fn ring_bucket<E>(ring: &mut VecDeque<Bucket<E>>, i: usize) -> Option<&mut Bucket<E>> {
    if i >= ring.len() {
        ring.resize_with(i.saturating_add(1), Bucket::default);
    }
    ring.get_mut(i)
}

/// A shard's pending events: the near heap below the horizon, a ring of
/// buckets from the horizon on, and an overflow map past the ring (see
/// the module docs).
struct Calendar<E> {
    /// Bucket width in ms: the lookahead, at least 2 so that bucket
    /// indices stay below `u64::MAX` and `b + 1` cannot overflow.
    width: u64,
    /// The first bucket not yet merged into `near`.
    horizon: u64,
    /// Every ring bucket in `[horizon, cursor)` is empty.
    cursor: u64,
    /// Events below the horizon, popped in `(time, seq)` order.
    near: BinaryHeap<Queued<E>>,
    /// Bucket `horizon + i` at index `i`, for `i < RING`.
    ring: VecDeque<Bucket<E>>,
    /// Events held in `ring`.
    ring_len: usize,
    /// Buckets at or past `horizon + RING`, keyed by index.
    far: BTreeMap<u64, Bucket<E>>,
    /// Emptied bucket buffers, reused by the next bucket to fill, so
    /// buffers track the pending events rather than every bucket ever
    /// used.
    spare: Vec<Vec<Queued<E>>>,
}

impl<E> Calendar<E> {
    fn new(lookahead: SimDuration) -> Calendar<E> {
        Calendar {
            width: lookahead.as_millis().max(2),
            horizon: 0,
            cursor: 0,
            near: BinaryHeap::new(),
            ring: VecDeque::new(),
            ring_len: 0,
            far: BTreeMap::new(),
            spare: Vec::new(),
        }
    }

    fn push(&mut self, q: Queued<E>) {
        let b = q.time.as_millis() / self.width;
        if b < self.horizon {
            self.near.push(q);
            return;
        }
        let spare = &mut self.spare;
        if let Some(bucket) =
            ring_index(self.horizon, b).and_then(|i| ring_bucket(&mut self.ring, i))
        {
            if bucket.items.capacity() == 0 {
                bucket.items = spare.pop().unwrap_or_default();
            }
            bucket.add(q);
            self.ring_len += 1;
            self.cursor = self.cursor.min(b);
            return;
        }
        self.far
            .entry(b)
            .or_insert_with(|| Bucket {
                min: q.time,
                items: spare.pop().unwrap_or_default(),
            })
            .add(q);
    }

    /// The earliest pending time. Near events all precede the horizon and
    /// bucketed ones all follow it, so a near head is the answer.
    fn head_time(&mut self) -> Option<SimTime> {
        if let Some(q) = self.near.peek() {
            return Some(q.time);
        }
        let far = self.far.first_key_value().map(|(_, bucket)| bucket.min);
        self.ring_head().into_iter().chain(far).min()
    }

    /// The minimum of the first non-empty ring bucket, moving `cursor` up
    /// to it.
    fn ring_head(&mut self) -> Option<SimTime> {
        if self.ring_len == 0 {
            return None;
        }
        let skip = usize::try_from(self.cursor.saturating_sub(self.horizon)).ok()?;
        for bucket in self.ring.iter().skip(skip) {
            if !bucket.items.is_empty() {
                return Some(bucket.min);
            }
            self.cursor += 1;
        }
        None
    }

    /// Moves the horizon past the bucket holding `last`, merging every
    /// bucket it passes into the near queue and pulling overflow buckets
    /// the ring now spans into it.
    fn advance(&mut self, last: SimTime) {
        let target = (last.as_millis() / self.width).saturating_add(1);
        let passed = target.saturating_sub(self.horizon);
        if passed == 0 {
            return;
        }
        for _ in 0..passed.min(RING) {
            let Some(bucket) = self.ring.pop_front() else {
                break;
            };
            self.ring_len = self.ring_len.saturating_sub(bucket.items.len());
            self.merge(bucket.items);
        }
        while let Some(entry) = self.far.first_entry() {
            if *entry.key() >= target {
                break;
            }
            let items = entry.remove().items;
            self.merge(items);
        }
        self.horizon = target;
        self.cursor = target;
        while let Some(entry) = self.far.first_entry() {
            let Some(bucket) =
                ring_index(target, *entry.key()).and_then(|i| ring_bucket(&mut self.ring, i))
            else {
                break;
            };
            let mut far = entry.remove();
            self.ring_len += far.items.len();
            if bucket.items.is_empty() {
                bucket.min = far.min;
                std::mem::swap(&mut bucket.items, &mut far.items);
            } else {
                bucket.min = bucket.min.min(far.min);
                bucket.items.append(&mut far.items);
            }
            self.recycle(far.items);
        }
    }

    /// Moves a drained bucket's events into the near queue and keeps the
    /// spare buffer for the next bucket. Into an empty near queue the
    /// bucket's buffer itself becomes the heap (heapified in place), so a
    /// large bucket is never held in two buffers at once.
    fn merge(&mut self, mut items: Vec<Queued<E>>) {
        if self.near.is_empty() {
            let old = std::mem::replace(&mut self.near, items.into());
            self.recycle(old.into_vec());
        } else {
            self.near.extend(items.drain(..));
            self.recycle(items);
        }
    }

    /// Keeps an emptied buffer's allocation for reuse.
    fn recycle(&mut self, items: Vec<Queued<E>>) {
        if items.capacity() > 0 {
            self.spare.push(items);
        }
    }

    /// Pops the earliest event if it is due at or before `last`.
    fn pop_due(&mut self, last: SimTime) -> Option<Queued<E>> {
        let head = self.near.peek_mut()?;
        if head.time > last {
            return None;
        }
        Some(PeekMut::pop(head))
    }
}

/// One shard: its model, queue, context, and sequence counter.
struct Slot<M: ShardModel> {
    model: M,
    queue: Calendar<M::Event>,
    ctx: ShardCtx<M::Event>,
    next_seq: u64,
}

impl<M: ShardModel> Slot<M> {
    fn push(&mut self, at: SimTime, event: M::Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Queued {
            time: at,
            seq,
            event,
        });
    }

    /// Drains this shard's queue through `last`, in `(time, seq)` order.
    /// Locally scheduled follow-ups may land inside the window and are
    /// then processed in the same pass; cross-shard sends accumulate in
    /// the outbox for the barrier.
    fn run_window(&mut self, last: SimTime) {
        self.queue.advance(last);
        while let Some(q) = self.queue.pop_due(last) {
            self.ctx.now = q.time;
            self.model.handle(q.time, q.event, &mut self.ctx);
            // Re-queue follow-ups outside the handler borrow, reusing the
            // buffer's capacity.
            let mut pending = std::mem::take(&mut self.ctx.local);
            for (at, event) in pending.drain(..) {
                self.push(at, event);
            }
            self.ctx.local = pending;
        }
    }
}

/// The sharded discrete-event engine.
pub struct Engine<M: ShardModel> {
    slots: Vec<Slot<M>>,
    workers: usize,
    lookahead: SimDuration,
}

impl<M: ShardModel> Engine<M> {
    /// Builds an engine over `models` (one per shard; the shard count is
    /// `models.len()`, which callers derive from `config.shards`). Each
    /// shard's RNG is forked from `base_rng` by shard index.
    pub fn new(config: &EngineConfig, models: Vec<M>, base_rng: &SimRng) -> Engine<M> {
        let shards = models.len();
        // A zero lookahead would stall the window loop (a window would
        // drain nothing); clamp to one tick.
        let lookahead = config.lookahead.max(SimDuration::from_millis(1));
        let slots = models
            .into_iter()
            .enumerate()
            .map(|(i, model)| Slot {
                model,
                queue: Calendar::new(lookahead),
                ctx: ShardCtx {
                    shard: i,
                    shards,
                    now: SimTime::EPOCH,
                    lookahead,
                    // Lossless on every supported platform (usize ≤ 64
                    // bits); the fallback can only fire on a >64-bit
                    // target and still yields a distinct stream per shard.
                    rng: base_rng
                        .fork_indexed("engine-shard", u64::try_from(i).unwrap_or(u64::MAX)),
                    local: Vec::new(),
                    outbox: Vec::new(),
                },
                next_seq: 0,
            })
            .collect();
        Engine {
            slots,
            workers: config.workers.max(1),
            lookahead,
        }
    }

    /// Enqueues an initial event on `shard` (clamped to the last shard if
    /// out of range) before the run starts.
    pub fn seed(&mut self, shard: usize, at: SimTime, event: M::Event) {
        let last = self.slots.len().saturating_sub(1);
        if let Some(slot) = self.slots.get_mut(shard.min(last)) {
            slot.push(at, event);
        }
    }

    /// Runs every shard to queue exhaustion and returns the per-shard
    /// results **in shard-index order**. Callers merge them with their own
    /// deterministic fold.
    pub fn run(mut self) -> Vec<M::Out> {
        let workers = self.workers.min(self.slots.len()).max(1);
        loop {
            let floor = self
                .slots
                .iter_mut()
                .filter_map(|s| s.queue.head_time())
                .min();
            let Some(floor) = floor else { break };
            // The window is `[floor, floor + lookahead)`; `lookahead >= 1`.
            let last = later(
                floor,
                SimDuration(self.lookahead.as_millis().saturating_sub(1)),
            );

            if workers == 1 {
                for slot in &mut self.slots {
                    slot.run_window(last);
                }
            } else {
                // Contiguous chunks over scoped threads; the spawning
                // thread works the first chunk itself. Threads are spawned
                // per window, which is cheap only when windows are few: a
                // query-paced scan at 60 s lookahead runs a handful, but
                // the MASQUE storm runs one per 10 ms hop (3,751 at 20,000
                // clients) and pays the spawns on each.
                let chunk = self.slots.len().div_ceil(workers);
                std::thread::scope(|scope| {
                    let mut chunks = self.slots.chunks_mut(chunk);
                    let first = chunks.next();
                    for rest in chunks {
                        scope.spawn(move || {
                            for slot in rest {
                                slot.run_window(last);
                            }
                        });
                    }
                    if let Some(first) = first {
                        for slot in first {
                            slot.run_window(last);
                        }
                    }
                });
            }

            // Barrier: deliver outboxes in shard-index order so receiver
            // sequence numbers are a pure function of the event history.
            // Each outbox buffer goes back to its shard, capacity intact.
            let last_shard = self.slots.len().saturating_sub(1);
            for src in 0..self.slots.len() {
                let mut outbox = match self.slots.get_mut(src) {
                    Some(slot) => std::mem::take(&mut slot.ctx.outbox),
                    None => continue,
                };
                for (dest, at, event) in outbox.drain(..) {
                    if let Some(slot) = self.slots.get_mut(dest.min(last_shard)) {
                        slot.push(at, event);
                    }
                }
                if let Some(slot) = self.slots.get_mut(src) {
                    slot.ctx.outbox = outbox;
                }
            }
        }
        self.slots.into_iter().map(|s| s.model.finish()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every event it sees, forwards "ping" events to the next
    /// shard, and draws from the shard RNG so tests can pin RNG stability.
    struct Recorder {
        log: Vec<(u64, u32)>,
        draws: Vec<u64>,
        forward: bool,
    }

    /// What one [`Recorder`] shard hands back: its event log and RNG draws.
    type RecorderOut = (Vec<(u64, u32)>, Vec<u64>);

    impl ShardModel for Recorder {
        type Event = u32;
        type Out = RecorderOut;

        fn handle(&mut self, now: SimTime, event: u32, ctx: &mut ShardCtx<u32>) {
            self.log.push((now.as_millis(), event));
            self.draws.push(ctx.rng().next_u64_raw());
            if self.forward && event > 0 {
                let dest = (ctx.shard() + 1) % ctx.shard_count();
                ctx.send(dest, now, event - 1);
            }
        }

        fn finish(self) -> Self::Out {
            (self.log, self.draws)
        }
    }

    fn run_ring(shards: usize, workers: usize) -> Vec<RecorderOut> {
        let config = EngineConfig::new(shards, workers).with_lookahead(SimDuration::from_secs(1));
        let models = (0..config.shards)
            .map(|_| Recorder {
                log: Vec::new(),
                draws: Vec::new(),
                forward: true,
            })
            .collect();
        let mut engine = Engine::new(&config, models, &SimRng::new(99));
        engine.seed(0, SimTime(1000), 5);
        engine.seed(shards / 2, SimTime(1500), 3);
        engine.run()
    }

    #[test]
    fn worker_count_is_unobservable() {
        let one = run_ring(4, 1);
        for workers in [2, 3, 4, 8] {
            assert_eq!(one, run_ring(4, workers), "workers={workers}");
        }
    }

    #[test]
    fn cross_shard_sends_respect_lookahead() {
        let out = run_ring(4, 2);
        // The ping chain starts at t=1000 on shard 0 with ttl 5; each hop
        // is clamped one lookahead (1s) later on the next shard.
        let times: Vec<u64> = out
            .iter()
            .flat_map(|(log, _)| log.iter())
            .map(|(t, _)| *t)
            .collect();
        assert!(times.contains(&1000) && times.contains(&2000) && times.contains(&6000));
        // Five hops from the first seed + three from the second.
        assert_eq!(times.len(), 2 + 5 + 3);
    }

    #[test]
    fn shard_order_within_time_is_seq_order() {
        struct Local(Vec<u32>);
        impl ShardModel for Local {
            type Event = u32;
            type Out = Vec<u32>;
            fn handle(&mut self, _now: SimTime, event: u32, ctx: &mut ShardCtx<u32>) {
                self.0.push(event);
                if event == 1 {
                    // Same-time follow-ups keep insertion order.
                    ctx.schedule(ctx.now(), 10);
                    ctx.schedule(ctx.now(), 11);
                }
            }
            fn finish(self) -> Vec<u32> {
                self.0
            }
        }
        let config = EngineConfig::new(1, 1);
        let mut engine = Engine::new(&config, vec![Local(Vec::new())], &SimRng::new(1));
        engine.seed(0, SimTime(5), 1);
        engine.seed(0, SimTime(5), 2);
        let out = engine.run();
        assert_eq!(out, vec![vec![1, 2, 10, 11]]);
    }

    #[test]
    fn shard_rngs_depend_only_on_seed_and_index() {
        let a = run_ring(4, 1);
        let b = run_ring(4, 4);
        let draws_a: Vec<_> = a.iter().map(|(_, d)| d.clone()).collect();
        let draws_b: Vec<_> = b.iter().map(|(_, d)| d.clone()).collect();
        assert_eq!(draws_a, draws_b);
        // Distinct shards draw distinct streams.
        let flat: Vec<u64> = draws_a.into_iter().flatten().collect();
        let mut dedup = flat.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(flat.len(), dedup.len());
    }

    #[test]
    fn empty_engine_and_empty_shards_terminate() {
        let config = EngineConfig::new(3, 2);
        let models = (0..3)
            .map(|_| Recorder {
                log: Vec::new(),
                draws: Vec::new(),
                forward: false,
            })
            .collect();
        let engine = Engine::new(&config, models, &SimRng::new(0));
        // No seeded events at all: run returns immediately.
        let out = engine.run();
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|(log, _)| log.is_empty()));
    }

    #[test]
    fn zero_lookahead_is_clamped_and_terminates() {
        let config = EngineConfig::new(2, 2).with_lookahead(SimDuration::ZERO);
        let models = (0..2)
            .map(|_| Recorder {
                log: Vec::new(),
                draws: Vec::new(),
                forward: true,
            })
            .collect();
        let mut engine = Engine::new(&config, models, &SimRng::new(7));
        engine.seed(0, SimTime(10), 2);
        let out = engine.run();
        let events: usize = out.iter().map(|(log, _)| log.len()).sum();
        assert_eq!(events, 3);
    }

    /// The calendar queue against a reference model: the binary-heap
    /// scheduler it replaced, kept here as a plain `(time, seq)` heap per
    /// shard. Random scripts of local schedules and cross-shard sends —
    /// same-time ties, times in the past, times many buckets (and past the
    /// ring) ahead, zero lookahead, times at the end of `u64` — must make
    /// every shard execute the same events in the same order under both.
    mod queue_model {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        use proptest::prelude::*;

        use super::super::*;

        /// A scripted event: an id that seeds its follow-ups, and how many
        /// generations of follow-ups it still spawns.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
        struct Ev {
            id: u64,
            ttl: u8,
        }

        fn mix(x: u64) -> u64 {
            let x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        }

        /// A time relative to `now`, picked by `h`: a tie, the past, a few
        /// buckets ahead, thousands of buckets ahead, or the end of time.
        fn pick_time(h: u64, now: u64, lookahead: u64) -> u64 {
            let wide = lookahead.max(1);
            match h % 6 {
                0 => now,
                1 => now.saturating_sub(h >> 8 & 0xFFF),
                2 => now.saturating_add((h >> 8) % (3 * wide)),
                3 => now.saturating_add(wide.saturating_mul(4_000 + (h >> 8) % 8_000)),
                4 => u64::MAX - (h >> 8) % (2 * wide),
                _ => u64::MAX,
            }
        }

        /// An event's follow-ups: `(None, t, e)` schedules locally,
        /// `(Some(dest), t, e)` sends.
        fn reactions(
            ev: Ev,
            now: u64,
            shards: usize,
            lookahead: u64,
        ) -> Vec<(Option<usize>, u64, Ev)> {
            if ev.ttl == 0 {
                return Vec::new();
            }
            let fan_out = mix(ev.id) % 4;
            (0..fan_out)
                .map(|j| {
                    let h = mix(ev.id ^ (j + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    let child = Ev {
                        id: h,
                        ttl: ev.ttl - 1,
                    };
                    let dest = (h >> 32) as usize % (shards + 1);
                    let route = (dest < shards).then_some(dest);
                    (route, pick_time(h >> 3, now, lookahead), child)
                })
                .collect()
        }

        struct Scripted {
            shards: usize,
            lookahead: u64,
            log: Vec<(u64, Ev)>,
        }

        impl ShardModel for Scripted {
            type Event = Ev;
            type Out = Vec<(u64, Ev)>;

            fn handle(&mut self, now: SimTime, event: Ev, ctx: &mut ShardCtx<Ev>) {
                self.log.push((now.as_millis(), event));
                for (route, at, child) in
                    reactions(event, now.as_millis(), self.shards, self.lookahead)
                {
                    match route {
                        Some(dest) => ctx.send(dest, SimTime(at), child),
                        None => ctx.schedule(SimTime(at), child),
                    }
                }
            }

            fn finish(self) -> Vec<(u64, Ev)> {
                self.log
            }
        }

        /// The reference scheduler: one `(time, seq)` min-heap per shard,
        /// the same conservative windows and barrier order.
        fn reference(
            shards: usize,
            lookahead: u64,
            seeds: &[(usize, u64, Ev)],
        ) -> Vec<Vec<(u64, Ev)>> {
            let lookahead = lookahead.max(1);
            let mut heaps: Vec<BinaryHeap<Reverse<(u64, u64, Ev)>>> =
                (0..shards).map(|_| BinaryHeap::new()).collect();
            let mut seqs = vec![0u64; shards];
            let mut logs = vec![Vec::new(); shards];
            let mut push = |heaps: &mut Vec<BinaryHeap<_>>, shard: usize, at: u64, ev: Ev| {
                let shard = shard.min(shards - 1);
                heaps[shard].push(Reverse((at, seqs[shard], ev)));
                seqs[shard] += 1;
            };
            for &(shard, at, ev) in seeds {
                push(&mut heaps, shard, at, ev);
            }
            while let Some(floor) = heaps.iter().filter_map(|h| h.peek().map(|r| r.0 .0)).min() {
                let last = floor.saturating_add(lookahead - 1);
                let mut outboxes = vec![Vec::new(); shards];
                for shard in 0..shards {
                    while heaps[shard].peek().is_some_and(|r| r.0 .0 <= last) {
                        let Some(Reverse((now, _, ev))) = heaps[shard].pop() else {
                            break;
                        };
                        logs[shard].push((now, ev));
                        for (route, at, child) in reactions(ev, now, shards, lookahead) {
                            match route {
                                Some(dest) => outboxes[shard].push((
                                    dest,
                                    at.max(now.saturating_add(lookahead)),
                                    child,
                                )),
                                None => push(&mut heaps, shard, at.max(now), child),
                            }
                        }
                    }
                }
                for (dest, at, ev) in outboxes.into_iter().flatten() {
                    push(&mut heaps, dest, at, ev);
                }
            }
            logs
        }

        fn engine(
            shards: usize,
            workers: usize,
            lookahead: u64,
            seeds: &[(usize, u64, Ev)],
        ) -> Vec<Vec<(u64, Ev)>> {
            let config = EngineConfig::new(shards, workers)
                .with_lookahead(SimDuration::from_millis(lookahead));
            let models = (0..shards)
                .map(|_| Scripted {
                    shards,
                    lookahead: lookahead.max(1),
                    log: Vec::new(),
                })
                .collect();
            let mut engine = Engine::new(&config, models, &SimRng::new(3));
            for &(shard, at, ev) in seeds {
                engine.seed(shard, SimTime(at), ev);
            }
            engine.run()
        }

        /// A seed time: early, mid-range, far ahead, or at the end of time.
        fn seed_time(choice: u8, x: u64) -> u64 {
            match choice {
                0 => x % 100,
                1 => 1_000_000 + x % 100_000,
                2 => 1_000_000_000 + x % 1_000_000_000,
                3 => u64::MAX - x % 100,
                _ => u64::MAX,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1000))]

            #[test]
            fn calendar_order_matches_reference_heap(
                shards in 1usize..5,
                workers in 1usize..4,
                lookahead in prop_oneof![Just(0u64), Just(1u64), Just(2u64), 3u64..40, Just(60_000u64)],
                raw in proptest::collection::vec((0usize..6, 0u8..5, any::<u64>(), 0u8..7), 1..12),
            ) {
                let seeds: Vec<(usize, u64, Ev)> = raw
                    .iter()
                    .map(|&(shard, choice, x, ttl)| (shard, seed_time(choice, x), Ev { id: x, ttl }))
                    .collect();
                let want = reference(shards, lookahead, &seeds);
                let got = engine(shards, workers, lookahead, &seeds);
                prop_assert_eq!(got.len(), want.len());
                for (shard, (got, want)) in got.iter().zip(&want).enumerate() {
                    let at = got.iter().zip(want).take_while(|(g, w)| g == w).count();
                    prop_assert!(
                        got == want,
                        "shard {shard} diverges at event {at} of {}: got {:?}, want {:?}",
                        want.len(),
                        got.get(at),
                        want.get(at)
                    );
                }
            }
        }
    }
}
