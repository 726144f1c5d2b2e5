//! The sharded event engine: the node space partitioned across shards,
//! each with its own event queue, node state and RNG streams.
//!
//! [`ShardedDriver`] hosts one [`Handler`] per node — per-node state plus
//! `on_start` / `on_message` / `on_timer` callbacks — and dispatches them
//! from discrete events: no barrier, the clock advances from event to
//! event, a node's send schedules a delivery at `now + latency`, a node's
//! timer schedules a timer event. A rejoined node comes back with **fresh
//! handler state** (built by the factory) and a bumped incarnation;
//! `on_start` runs again, and timers armed by the previous life are dropped
//! as stale instead of firing into the new one — the "churned-and-rejoined
//! node knows nothing" gap the anti-entropy layer (`gossip-ae`) exists to
//! close.
//!
//! To scale to n ≥ 10⁷, the node space is split into `S` contiguous
//! shards (`S = 1` is the serial host), and each shard owns
//!
//! * its nodes' state — handler instances in their own slab, the scalar
//!   per-node fields packed into the dense parallel arrays of a
//!   `NodeTable` (liveness, incarnations, bandwidth tallies, cancel
//!   watermarks — see the `soa` module docs),
//! * a **per-shard event queue** holding exactly the events addressed to
//!   its nodes, with message payloads parked in a per-shard
//!   [`PayloadArena`] and referenced by `u32` slot key from the event
//!   (events are plain-old-data; steady-state traffic allocates nothing
//!   per event), and
//! * its nodes' **private RNG streams** ([`gossip_net::node_rng`]).
//!
//! # Why per-node RNG streams
//!
//! One global RNG would make the stream each node sees depend on the
//! global interleaving of all events — reproducible on one thread, but
//! impossible to preserve once two shards draw concurrently. The driver
//! therefore derives the determinism contract *per node*: every
//! protocol-visible draw (peer sampling, loss, latency) comes from the
//! acting node's own stream, which advances only through that node's own
//! callbacks. A node's behaviour is
//! then a pure function of the seed and its own event history — identical
//! whatever the shard count, worker count or event-loop slicing.
//!
//! # Deterministic cross-shard batching
//!
//! Events are globally ordered by the key `(timestamp, origin node,
//! per-origin sequence)` — a total order every shard can compute locally,
//! unlike a single global submission counter.
//! Time advances in **bounded-lag epochs** of at most the latency model's
//! minimum ([`LatencyModel::min_us`](crate::LatencyModel::min_us), scaled
//! down by the link spread): a
//! message sent at `t` can never arrive before `t + lookahead`, so while a
//! shard processes the epoch `[E, E + lookahead)` every cross-shard message
//! it emits lands at or beyond the epoch end. Shards therefore run each
//! epoch completely independently (in parallel when the host has cores to
//! spare — results are bit-identical either way), buffer cross-shard sends
//! in per-destination outboxes (the payload travels next to the event and
//! is re-homed into the destination shard's arena at the exchange), and
//! swap the batches at the epoch barrier. **Window barriers** (the churn
//! cadence, default one latency median) are global synchronization points
//! layered on the same loop: churn coins are drawn serially from a
//! dedicated driver-level stream in node-id order, rejoiners reboot with
//! fresh handlers and bumped epochs, per-window bandwidth budgets reset,
//! and burst memory decays (arena slabs and calendar slots hand back
//! capacity they no longer need).
//!
//! # The order fingerprint
//!
//! Each dispatched event folds into its *destination node's* hash; the
//! driver's [`DriverMetrics::order_hash`] folds the per-node hashes in
//! node-id order. Because each node's event sequence is shard-count
//! invariant, the combined hash is too — the determinism suite pins it
//! across shard counts {1, 2, 8}, re-runs, slicing, and the parallel vs
//! sequential execution paths. Arena keys and slab layout never feed the
//! hash, so the memory layout is free to differ where the event order may
//! not.
//!
//! Delivery semantics follow [`AsyncConfig`], cut along ownership lines:
//! the *sender's* shard draws loss and latency and enforces the bandwidth
//! budget and deadline; the *receiver's* shard rules on receiver liveness
//! at the arrival instant (crashes are events in the same total order) and
//! records the attempt in its metrics.

use crate::arena::{PayloadArena, NO_PAYLOAD};
use crate::config::{draw_initial_liveness, AsyncConfig, RoundPolicy};
use crate::metrics::{AsyncMetrics, DriverMetrics, FNV_PRIME};
use crate::soa::{NodeTable, NO_CRASH};
use gossip_net::{node_rng, Handler, Mailbox, Metrics, NodeId, Phase, TimerId};
use gossip_obs::{TraceCtx, TraceKind, TraceReason, TraceRing, NO_PEER};
use rand::rngs::SmallRng;
use rand::Rng;

/// Word-level FNV-style fold for the per-node dispatch hashes, on the same
/// FNV constants as [`DriverMetrics`]. Three words per event keep the hot
/// path cheap (a byte-level FNV would cost 32 multiplies per event; this
/// costs 3).
#[inline]
fn fold3(h: &mut u64, a: u64, b: u64, c: u64) {
    *h = (*h ^ a).wrapping_mul(FNV_PRIME);
    *h = (*h ^ b).wrapping_mul(FNV_PRIME);
    *h = (*h ^ c).wrapping_mul(FNV_PRIME);
}

/// What happens when a scheduled event reaches its destination node.
/// Plain old data: message payloads live in the owning shard's
/// [`PayloadArena`] and are referenced by slot key.
#[derive(Clone, Copy, Debug)]
pub(crate) enum EventKind {
    /// A message arrives (sender-side checks already passed; receiver
    /// liveness is ruled on here, at the owner).
    Deliver {
        /// Protocol phase of the message.
        phase: Phase,
        /// Message size in bits.
        bits: u32,
        /// End-to-end latency (µs), recorded at dispatch.
        latency_us: u64,
        /// Arena key of the payload in the destination shard's arena
        /// ([`NO_PAYLOAD`] for payload-free traffic, e.g. the round-barrier
        /// facade's deliveries).
        payload: u32,
        /// Causal chain id carried by the message
        /// ([`gossip_obs::NO_TRACE`] untraced). Passive: rides the event
        /// for the trace ring, never feeds ordering, RNG or the node hash.
        trace_id: u64,
        /// Message hops from the chain's origin.
        hop: u8,
    },
    /// A timer armed by incarnation `incarnation` of the node fires.
    Timer {
        /// The handler-chosen timer label.
        timer: TimerId,
        /// Incarnation that armed the timer.
        incarnation: u32,
    },
    /// The node crashes.
    Crash,
}

impl EventKind {
    /// Kind tag folded into the order hash (1 = message, 2 = crash,
    /// 3 = timer).
    fn tag(&self) -> u64 {
        match self {
            EventKind::Deliver { .. } => 1,
            EventKind::Crash => 2,
            EventKind::Timer { .. } => 3,
        }
    }
}

/// An event addressed to `to`, globally ordered by
/// `(at_us, origin, oseq)` — a key every shard computes locally, so the
/// total order is independent of the shard count.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ShardEvent {
    pub(crate) at_us: u64,
    /// The node whose action scheduled this event (sender of a message,
    /// owner of a timer, the crashing node itself).
    pub(crate) origin: u32,
    /// The origin's private, monotone event-scheduling counter.
    pub(crate) oseq: u64,
    /// Destination node (the shard that owns it dispatches the event).
    pub(crate) to: u32,
    pub(crate) kind: EventKind,
}

/// A cross-shard send parked in an outbox: the event plus its payload,
/// which is re-homed into the destination shard's arena at the exchange
/// (the event's `payload` key is filled in there).
struct Outbound<M> {
    ev: ShardEvent,
    msg: M,
}

/// Wheel size (µs, power of two). Events further than this ahead of the
/// cursor wait in the overflow list and are folded into the wheel at
/// revolution boundaries.
const WHEEL_US: u64 = 4096;
const WHEEL_MASK: u64 = WHEEL_US - 1;

/// Slots (and the overflow list) whose capacity is at or below this never
/// decay — the floor keeps steady traffic from thrashing tiny
/// reallocations.
const SLOT_DECAY_MIN: usize = 32;

/// Epochs shorter than this run the shards sequentially even when the
/// parallel path is enabled: below it, the per-epoch `thread::scope`
/// setup outweighs the dispatch work an epoch can possibly contain.
const MIN_PARALLEL_EPOCH_US: u64 = 32;

/// A calendar queue (timing wheel): one bucket per virtual microsecond,
/// modulo [`WHEEL_US`].
///
/// A binary heap's `O(log k)` pops walk `k`-sized cold memory — at
/// n = 10⁶ that walk, not the protocol, is the simulation's hot loop. The
/// sharded driver's time only moves forward in bounded-lag epochs, which
/// is exactly the access pattern a calendar
/// queue rewards: `O(1)` pushes into the bucket `at_us & WHEEL_MASK`, and
/// a cursor that sweeps the buckets in virtual-time order. Determinism is
/// preserved because every bucket holds events of a single instant (any
/// two in-wheel events in one slot are equal mod `WHEEL_US` and less than
/// `WHEEL_US` apart, hence simultaneous) and drains in `(origin, oseq)`
/// order — the same global `(timestamp, origin, origin-sequence)` total
/// order a heap would produce.
pub(crate) struct CalendarQueue {
    wheel: Vec<Vec<ShardEvent>>,
    /// Events at or beyond `cursor + WHEEL_US`, parked until their
    /// revolution comes around.
    overflow: Vec<ShardEvent>,
    /// All events strictly below the cursor have been drained.
    cursor: u64,
}

impl CalendarQueue {
    pub(crate) fn new() -> Self {
        CalendarQueue {
            wheel: (0..WHEEL_US).map(|_| Vec::new()).collect(),
            overflow: Vec::new(),
            cursor: 0,
        }
    }

    /// Schedule an event. Its instant must not lie in the past (the
    /// mailbox floors delays at 1 µs and cross-shard arrivals carry at
    /// least the lookahead, so this holds by construction).
    #[inline]
    pub(crate) fn push(&mut self, ev: ShardEvent) {
        debug_assert!(ev.at_us >= self.cursor, "event scheduled in the past");
        if ev.at_us >= self.cursor + WHEEL_US {
            self.overflow.push(ev);
        } else {
            self.wheel[(ev.at_us & WHEEL_MASK) as usize].push(ev);
        }
    }

    /// Fold every overflow event whose revolution has arrived into the
    /// wheel, and decay slot capacities that ballooned during a burst.
    /// Called whenever the cursor crosses a multiple of [`WHEEL_US`]; an
    /// overflow event's instant is always at or beyond the *next*
    /// boundary, so it is re-filed before the cursor can pass it.
    fn redistribute(&mut self) {
        let horizon = self.cursor + WHEEL_US;
        let mut i = 0;
        while i < self.overflow.len() {
            if self.overflow[i].at_us < horizon {
                let ev = self.overflow.swap_remove(i);
                self.wheel[(ev.at_us & WHEEL_MASK) as usize].push(ev);
            } else {
                i += 1;
            }
        }
        // Hand burst memory back: a slot that ballooned keeps its capacity
        // only until its next revolution (it used to keep it forever — the
        // memory-drift bug). The floor avoids thrashing small slots.
        for slot in &mut self.wheel {
            if slot.capacity() > SLOT_DECAY_MIN && slot.capacity() > 4 * slot.len() {
                slot.shrink_to(SLOT_DECAY_MIN.max(2 * slot.len()));
            }
        }
        if self.overflow.capacity() > SLOT_DECAY_MIN
            && self.overflow.capacity() > 4 * self.overflow.len()
        {
            self.overflow
                .shrink_to(SLOT_DECAY_MIN.max(2 * self.overflow.len()));
        }
    }

    /// Drain every event due strictly before `end_us` into `f`, advancing
    /// the cursor. Events of one instant come out in push order, *not*
    /// sorted by the global key — callers whose handling is order-sensitive
    /// (the shard dispatch loop) sweep the wheel themselves and sort each
    /// slot batch; this is for order-insensitive drains (the round-barrier
    /// facade, which only tallies per-event metrics).
    pub(crate) fn drain_until(&mut self, end_us: u64, mut f: impl FnMut(ShardEvent)) {
        while self.cursor < end_us {
            if self.cursor & WHEEL_MASK == 0 {
                self.redistribute();
            }
            let slot = (self.cursor & WHEEL_MASK) as usize;
            for ev in self.wheel[slot].drain(..) {
                debug_assert_eq!(ev.at_us, self.cursor, "slot holds one instant");
                f(ev);
            }
            self.cursor += 1;
        }
    }

    /// Whether any event is still queued (wheel or overflow).
    pub(crate) fn is_empty(&self) -> bool {
        self.overflow.is_empty() && self.wheel.iter().all(Vec::is_empty)
    }

    /// Total event slots this queue holds memory for (wheel slot
    /// capacities plus the overflow list) — the flat-memory regression
    /// probe.
    pub(crate) fn capacity_events(&self) -> usize {
        self.wheel.iter().map(Vec::capacity).sum::<usize>() + self.overflow.capacity()
    }
}

/// Per-shard slice of the driver counters (summed on demand).
#[derive(Clone, Copy, Debug, Default)]
struct ShardCounters {
    messages_dispatched: u64,
    timer_fires: u64,
    stale_timer_skips: u64,
    cancelled_timer_skips: u64,
    dead_receiver_drops: u64,
}

/// One shard: the owner of a contiguous block of nodes. Scalar per-node
/// state lives in the `NodeTable`'s parallel arrays; handlers and RNG
/// streams keep their own slabs (they are lent out individually by `&mut`).
struct Shard<H: Handler> {
    /// First global node id owned by this shard.
    start: usize,
    // Per owned node, indexed by `global id - start`:
    handlers: Vec<H>,
    rng: Vec<SmallRng>,
    /// Liveness, incarnations, sequence counters, bandwidth tallies,
    /// dispatch hashes and cancel watermarks, as dense parallel arrays.
    nodes: NodeTable,
    queue: CalendarQueue,
    /// In-flight payloads of events queued at this shard.
    arena: PayloadArena<H::Msg>,
    /// Cross-shard sends buffered per destination shard, exchanged at
    /// epoch barriers.
    outbox: Vec<Vec<Outbound<H::Msg>>>,
    metrics: Metrics,
    async_metrics: AsyncMetrics,
    counters: ShardCounters,
    /// Per-shard slice of the protocol-event trace; drained into the
    /// driver's base ring at window barriers (in shard order), mirroring
    /// the shard-metrics drain. Passive: recording is a plain store into
    /// shard-local state, so the node hashes are trace-invariant.
    trace: Option<TraceRing>,
    /// Scheduled-vs-dispatched delta of timer fires (µs) — identically
    /// zero in virtual time; merged across shards at scrape.
    timer_lag: gossip_obs::Histogram,
}

/// The geometry and engine parameters a dispatching shard needs; shared
/// read-only across worker threads.
struct Topology {
    config: AsyncConfig,
    /// Nodes per shard (`ceil(n / shards)`); node `i` lives in shard
    /// `i / chunk`.
    chunk: usize,
    num_shards: usize,
    /// Host-injected timer jitter ceiling (µs); `0` disables it. Jitter is
    /// drawn from the acting node's private stream, so it is shard-count
    /// invariant like every other protocol draw.
    timer_jitter_us: u64,
}

/// Split-borrow helper: carves a [`Shard`] into the handler at `local`
/// plus a [`ShardMailbox`] lending every *other* per-node field — the one
/// place the mailbox's field wiring is written down. A macro rather than a
/// method because a method returning the pair would borrow all of `self`,
/// hiding the field-level disjointness the borrow checker needs.
/// `$incarnation` must be a pre-evaluated value, not a borrow of the
/// shard.
macro_rules! handler_and_mailbox {
    ($shard:expr, $topo:expr, $local:expr, $now_us:expr, $incarnation:expr, $ctx:expr) => {{
        let shard = &mut *$shard;
        (
            &mut shard.handlers[$local],
            ShardMailbox {
                me: NodeId::new(shard.start + $local),
                local: $local,
                now_us: $now_us,
                incarnation: $incarnation,
                ctx: $ctx,
                topo: $topo,
                rng: &mut shard.rng[$local],
                nodes: &mut shard.nodes,
                shard_start: shard.start,
                queue: &mut shard.queue,
                arena: &mut shard.arena,
                outbox: &mut shard.outbox,
                metrics: &mut shard.metrics,
                async_metrics: &mut shard.async_metrics,
                trace: &mut shard.trace,
            },
        )
    }};
}

impl<H: Handler> Shard<H> {
    /// Dispatch every queued event due strictly before `end_us`, in global
    /// key order. The bounded-lag contract guarantees no event below
    /// `end_us` can still be in another shard's outbox.
    ///
    /// The cursor sweeps the calendar one microsecond at a time; a slot's
    /// batch is detached, sorted by `(origin, oseq)` — timestamps within a
    /// slot are all the cursor instant — and dispatched. Dispatches only
    /// ever schedule *future* events (delays floor at 1 µs), so the
    /// detached batch is complete when it is sorted.
    fn run_epoch(&mut self, end_us: u64, topo: &Topology) {
        while self.queue.cursor < end_us {
            if self.queue.cursor & WHEEL_MASK == 0 {
                self.queue.redistribute();
            }
            let slot = (self.queue.cursor & WHEEL_MASK) as usize;
            if !self.queue.wheel[slot].is_empty() {
                let mut batch = std::mem::take(&mut self.queue.wheel[slot]);
                batch.sort_unstable_by_key(|ev| (ev.origin, ev.oseq));
                for ev in batch.drain(..) {
                    debug_assert_eq!(ev.at_us, self.queue.cursor, "slot holds one instant");
                    self.dispatch(ev, topo);
                }
                // Hand the allocation back for the slot's next revolution
                // (redistribute decays it if the burst that filled it has
                // passed).
                self.queue.wheel[slot] = batch;
            }
            self.queue.cursor += 1;
        }
    }

    /// Record into the shard's trace ring, if tracing is on (passive).
    #[inline]
    fn trace_event(
        &mut self,
        at_us: u64,
        node: u64,
        peer: u64,
        kind: TraceKind,
        reason: TraceReason,
        ctx: TraceCtx,
    ) {
        if let Some(ring) = &mut self.trace {
            ring.record_ctx(at_us, node, peer, kind, reason, ctx);
        }
    }

    /// Mint a root causal context for a locally-originated event — only
    /// when tracing is on (untraced runs carry no ids). Derived from
    /// `(node, seq)`, both shard-count invariant; never an RNG draw.
    #[inline]
    fn root_ctx(&self, node: u64, seq: u64) -> TraceCtx {
        if self.trace.is_some() {
            TraceCtx::derive(node, seq)
        } else {
            TraceCtx::NONE
        }
    }

    fn dispatch(&mut self, ev: ShardEvent, topo: &Topology) {
        let local = ev.to as usize - self.start;
        let tagged = ev.kind.tag() << 60 | u64::from(ev.origin) << 28;
        match ev.kind {
            EventKind::Crash => {
                if self.nodes.alive[local] {
                    self.nodes.alive[local] = false;
                    self.nodes.alive_count -= 1;
                    self.async_metrics.churn_crashes += 1;
                }
                if self.nodes.crash_at[local] != NO_CRASH {
                    self.nodes.crash_at[local] = NO_CRASH;
                    self.nodes.pending_crashes -= 1;
                }
                fold3(&mut self.nodes.node_hash[local], ev.at_us, tagged, ev.oseq);
                self.trace_event(
                    ev.at_us,
                    u64::from(ev.to),
                    NO_PEER,
                    TraceKind::Crash,
                    TraceReason::None,
                    TraceCtx::NONE,
                );
            }
            EventKind::Deliver {
                phase,
                bits,
                latency_us,
                payload,
                trace_id,
                hop,
            } => {
                let ctx = TraceCtx { trace_id, hop };
                // Reclaim the payload first: a dead receiver must still
                // free the slot, or burst memory would leak.
                let msg = self.arena.take(payload);
                // The receiver-side verdict: alive at the arrival instant.
                // Crashes are events in the same total order, so "at the
                // arrival instant" is exact, not a window approximation.
                let ok = self.nodes.alive[local];
                self.metrics.record_send(phase, bits, ok);
                if !ok {
                    self.counters.dead_receiver_drops += 1;
                    self.trace_event(
                        ev.at_us,
                        u64::from(ev.to),
                        u64::from(ev.origin),
                        TraceKind::Drop,
                        TraceReason::DeadEndpoint,
                        ctx,
                    );
                    return;
                }
                self.async_metrics.latency.record(latency_us);
                self.counters.messages_dispatched += 1;
                fold3(&mut self.nodes.node_hash[local], ev.at_us, tagged, ev.oseq);
                self.trace_event(
                    ev.at_us,
                    u64::from(ev.to),
                    u64::from(ev.origin),
                    TraceKind::Recv,
                    TraceReason::None,
                    ctx,
                );
                let msg = msg.expect("a queued delivery always carries a payload");
                let incarnation = self.nodes.incarnation[local];
                let (handler, mut mailbox) =
                    handler_and_mailbox!(self, topo, local, ev.at_us, incarnation, ctx);
                handler.on_message(NodeId::new(ev.origin as usize), msg, &mut mailbox);
            }
            EventKind::Timer { timer, incarnation } => {
                if !self.nodes.alive[local] || self.nodes.incarnation[local] != incarnation {
                    self.counters.stale_timer_skips += 1;
                    self.trace_event(
                        ev.at_us,
                        u64::from(ev.to),
                        NO_PEER,
                        TraceKind::Drop,
                        TraceReason::Stale,
                        TraceCtx::NONE,
                    );
                    return;
                }
                if self
                    .nodes
                    .cancels
                    .get(&(local as u32, timer.0))
                    .is_some_and(|&watermark| ev.oseq < watermark)
                {
                    // Suppressed by cancel_timer; not folded into the node
                    // hash — a cancelled timer is a non-event, so runs that
                    // never cancel keep their golden fingerprints.
                    self.counters.cancelled_timer_skips += 1;
                    self.trace_event(
                        ev.at_us,
                        u64::from(ev.to),
                        NO_PEER,
                        TraceKind::Drop,
                        TraceReason::CancelledTimer,
                        TraceCtx::NONE,
                    );
                    return;
                }
                self.counters.timer_fires += 1;
                // Cursor == due instant in virtual time: the lag pins at
                // zero, recorded so the family exists on every backend.
                self.timer_lag.record(0);
                // Root of a new causal chain, keyed by the owner's private
                // oseq — shard-count invariant like the dispatch order.
                let ctx = self.root_ctx(u64::from(ev.to), ev.oseq);
                self.trace_event(
                    ev.at_us,
                    u64::from(ev.to),
                    NO_PEER,
                    TraceKind::TimerFire,
                    TraceReason::None,
                    ctx,
                );
                fold3(
                    &mut self.nodes.node_hash[local],
                    ev.at_us,
                    tagged | u64::from(timer.0),
                    ev.oseq,
                );
                let (handler, mut mailbox) =
                    handler_and_mailbox!(self, topo, local, ev.at_us, incarnation, ctx);
                handler.on_timer(timer, &mut mailbox);
            }
        }
    }

    /// Run `on_start` for the (fresh) handler at local index `local`, with
    /// the clock at `now_us`. Used for initial boots and rejoin restarts.
    fn boot(&mut self, local: usize, now_us: u64, topo: &Topology) {
        let incarnation = self.nodes.incarnation[local];
        // Boot roots live in their own id space (high bit set) so a boot
        // chain can never collide with a timer chain of the same node.
        let ctx = self.root_ctx(
            (self.start + local) as u64,
            (1 << 63) | u64::from(incarnation),
        );
        let (handler, mut mailbox) =
            handler_and_mailbox!(self, topo, local, now_us, incarnation, ctx);
        handler.on_start(&mut mailbox);
    }
}

/// The mailbox a sharded dispatch hands to handler callbacks: a view of
/// one node's slice of its shard.
struct ShardMailbox<'a, M> {
    me: NodeId,
    local: usize,
    now_us: u64,
    incarnation: u32,
    /// Causal context of the event being dispatched ([`TraceCtx::NONE`]
    /// when tracing is off). Sends inherit it at `hop + 1`; passive.
    ctx: TraceCtx,
    topo: &'a Topology,
    rng: &'a mut SmallRng,
    nodes: &'a mut NodeTable,
    shard_start: usize,
    queue: &'a mut CalendarQueue,
    arena: &'a mut PayloadArena<M>,
    outbox: &'a mut Vec<Vec<Outbound<M>>>,
    metrics: &'a mut Metrics,
    async_metrics: &'a mut AsyncMetrics,
    trace: &'a mut Option<TraceRing>,
}

impl<M> ShardMailbox<'_, M> {
    #[inline]
    fn next_oseq(&mut self) -> u64 {
        self.nodes.next_oseq(self.local)
    }

    /// Record into the shard's trace ring, if tracing is on (passive).
    #[inline]
    fn trace_event(&mut self, peer: u64, kind: TraceKind, reason: TraceReason, ctx: TraceCtx) {
        if let Some(ring) = self.trace.as_mut() {
            ring.record_ctx(self.now_us, self.me.index() as u64, peer, kind, reason, ctx);
        }
    }
}

impl<M> Mailbox<M> for ShardMailbox<'_, M> {
    fn me(&self) -> NodeId {
        self.me
    }

    fn n(&self) -> usize {
        self.topo.config.sim.n
    }

    fn now_us(&self) -> u64 {
        self.now_us
    }

    fn send(&mut self, to: NodeId, phase: Phase, bits: u32, msg: M) {
        let config = &self.topo.config;
        // Sender-side verdicts, all drawn from the sender's own stream in a
        // fixed order (the callback only runs on a live node, so the sender
        // is alive by construction — and its attempt accrues against its
        // bandwidth budget, delivered or not).
        let lost = config.sim.loss_prob > 0.0 && self.rng.gen_bool(config.sim.loss_prob);
        let mut latency_us = config.latency.sample(self.rng);
        if config.link_spread > 0.0 {
            let bias = crate::latency::LatencyModel::link_bias(
                config.sim.seed,
                self.me,
                to,
                config.link_spread,
            );
            latency_us = ((latency_us as f64) * bias).round().max(1.0) as u64;
        }
        let over_budget = match config.bandwidth_bits_per_round {
            Some(budget) => self.nodes.bits_window[self.local] + u64::from(bits) > budget,
            None => false,
        };
        self.nodes.bits_window[self.local] += u64::from(bits);
        // The outgoing message inherits this callback's causal context one
        // hop downstream; drop records carry the same ctx so a chain ends
        // with its reason.
        let ctx = self.ctx.next_hop();
        if lost {
            self.metrics.record_send(phase, bits, false);
            self.trace_event(to.index() as u64, TraceKind::Drop, TraceReason::Loss, ctx);
            return;
        }
        if over_budget {
            self.async_metrics.bandwidth_drops += 1;
            self.metrics.record_send(phase, bits, false);
            self.trace_event(
                to.index() as u64,
                TraceKind::Drop,
                TraceReason::Bandwidth,
                ctx,
            );
            return;
        }
        if let RoundPolicy::FixedDeadline(deadline) = config.round_policy {
            if latency_us > deadline {
                self.async_metrics.late_drops += 1;
                self.metrics.record_send(phase, bits, false);
                self.trace_event(to.index() as u64, TraceKind::Drop, TraceReason::Late, ctx);
                return;
            }
        }
        self.trace_event(to.index() as u64, TraceKind::Send, TraceReason::None, ctx);
        // In flight: the receiver's shard rules on liveness at arrival and
        // records the attempt with the final verdict. A local delivery
        // parks its payload in the shard's own arena; a cross-shard one
        // travels next to the event and is re-homed at the exchange.
        let oseq = self.next_oseq();
        let mut ev = ShardEvent {
            at_us: self.now_us + latency_us,
            origin: self.me.index() as u32,
            oseq,
            to: to.index() as u32,
            kind: EventKind::Deliver {
                phase,
                bits,
                latency_us,
                payload: NO_PAYLOAD,
                trace_id: ctx.trace_id,
                hop: ctx.hop,
            },
        };
        let to_idx = to.index();
        if to_idx >= self.shard_start && to_idx < self.shard_start + self.topo.chunk {
            if let EventKind::Deliver { payload, .. } = &mut ev.kind {
                *payload = self.arena.insert(msg);
            }
            self.queue.push(ev);
        } else {
            self.outbox[to_idx / self.topo.chunk].push(Outbound { ev, msg });
        }
    }

    fn set_timer(&mut self, delay_us: u64, timer: TimerId) {
        // Host-injected jitter from the node's own stream (shard-count
        // invariant); disabled it draws nothing, preserving the stream.
        let jitter = if self.topo.timer_jitter_us > 0 {
            self.rng.gen_range(0..=self.topo.timer_jitter_us)
        } else {
            0
        };
        let at_us = self
            .now_us
            .saturating_add(delay_us.max(1))
            .saturating_add(jitter);
        let oseq = self.next_oseq();
        // Timers stay with their owner: always the shard's own queue.
        self.queue.push(ShardEvent {
            at_us,
            origin: self.me.index() as u32,
            oseq,
            to: self.me.index() as u32,
            kind: EventKind::Timer {
                timer,
                incarnation: self.incarnation,
            },
        });
    }

    fn cancel_timer(&mut self, timer: TimerId) {
        // Watermark = the node's next oseq: every pending timer with this
        // label was scheduled with a smaller oseq and is suppressed at
        // dispatch; a later set_timer draws a larger one and fires.
        self.nodes
            .cancels
            .insert((self.local as u32, timer.0), self.nodes.oseq[self.local]);
    }

    fn rng_mut(&mut self) -> &mut SmallRng {
        self.rng
    }

    fn note(&mut self, peer: Option<NodeId>, reason: TraceReason) {
        // Passive: a ring store only. Per-shard rings merge at barriers,
        // so notes are shard-count invariant like every other trace event.
        let ctx = self.ctx;
        self.trace_event(
            peer.map_or(NO_PEER, |p| p.index() as u64),
            TraceKind::State,
            reason,
            ctx,
        );
    }

    fn trace_ctx(&self) -> TraceCtx {
        self.ctx
    }
}

/// Hosts one [`Handler`] per node across `S` shards. See the module docs
/// for the determinism contract and the cross-shard batching protocol.
pub struct ShardedDriver<H: Handler> {
    topo: Topology,
    shards: Vec<Shard<H>>,
    factory: Box<dyn Fn(NodeId) -> H + Send>,
    /// Driver-level stream for initial crashes and churn coins (drawn
    /// serially at barriers in node-id order; seeded exactly like the
    /// setup stream of `Network`, so initial alive sets match every other
    /// backend's for the same `SimConfig`).
    churn_rng: SmallRng,
    /// Churn-window length (µs).
    window_us: u64,
    /// Bounded-lag epoch length (µs), ≤ the cross-shard lookahead.
    epoch_us: u64,
    /// Next window boundary.
    next_window: u64,
    /// Exclusive frontier: every event strictly below this has dispatched.
    frontier: u64,
    /// User-facing clock: the largest `run_until` target reached.
    clock: u64,
    started: bool,
    parallel: bool,
    /// Metrics drained from the shards at barriers (owns the round count:
    /// one round per window, with per-window message totals).
    base_metrics: Metrics,
    base_async: AsyncMetrics,
    /// Trace events drained from the per-shard rings at window barriers
    /// (`None` unless [`with_trace`](ShardedDriver::with_trace) was used).
    base_trace: Option<TraceRing>,
    handler_starts: u64,
    rejoin_log: Vec<(u64, NodeId)>,
}

impl<H: Handler + Send> ShardedDriver<H>
where
    H::Msg: Send,
{
    /// Build a driver hosting `factory(node)` for every node, partitioned
    /// into `shards` contiguous shards. The factory runs once per node up
    /// front and again at every rejoin.
    pub fn new(
        config: AsyncConfig,
        shards: usize,
        factory: impl Fn(NodeId) -> H + Send + 'static,
    ) -> Self {
        assert!(shards >= 1, "need at least one shard");
        let config = config.validated();
        let n = config.sim.n;
        let num_shards = shards.min(n);
        let chunk = n.div_ceil(num_shards);
        let num_shards = n.div_ceil(chunk); // trailing empty shards dropped

        // Initial crashes: the shared setup stream, drawn in node order —
        // the identical alive set every backend starts from.
        let (alive, _, churn_rng) = draw_initial_liveness(&config.sim);

        let lookahead = Self::lookahead_us(&config);
        let window_us = config.latency.median_us().max(1);
        let mut shard_vec = Vec::with_capacity(num_shards);
        for s in 0..num_shards {
            let start = s * chunk;
            let end = ((s + 1) * chunk).min(n);
            let ids = start..end;
            shard_vec.push(Shard {
                start,
                handlers: ids.clone().map(|i| factory(NodeId::new(i))).collect(),
                rng: ids
                    .clone()
                    .map(|i| node_rng(config.sim.seed, NodeId::new(i)))
                    .collect(),
                nodes: NodeTable::new(&alive[start..end]),
                queue: CalendarQueue::new(),
                arena: PayloadArena::new(),
                outbox: (0..num_shards).map(|_| Vec::new()).collect(),
                metrics: Metrics::new(),
                async_metrics: AsyncMetrics::default(),
                counters: ShardCounters::default(),
                trace: None,
                timer_lag: gossip_obs::Histogram::new(),
            });
        }
        let parallel = num_shards > 1
            && std::thread::available_parallelism()
                .map(|v| v.get())
                .unwrap_or(1)
                > 1;
        ShardedDriver {
            topo: Topology {
                config,
                chunk,
                num_shards,
                timer_jitter_us: 0,
            },
            shards: shard_vec,
            factory: Box::new(factory),
            churn_rng,
            window_us,
            epoch_us: lookahead,
            next_window: window_us,
            frontier: 0,
            clock: 0,
            started: false,
            parallel,
            base_metrics: Metrics::new(),
            base_async: AsyncMetrics::default(),
            base_trace: None,
            handler_starts: 0,
            rejoin_log: Vec::new(),
        }
    }

    /// Attach protocol-event tracing: each shard keeps a ring of the most
    /// recent `capacity` events, drained into a driver-level ring (also of
    /// `capacity`) at every window barrier — the same merge cadence as the
    /// shard metrics. Passive: the determinism suite pins that enabling it
    /// leaves the order hash untouched. Must precede the first run.
    pub fn with_trace(mut self, capacity: usize) -> Self {
        assert!(!self.started, "the trace ring is fixed once the run starts");
        self.base_trace = Some(TraceRing::new(capacity));
        for shard in &mut self.shards {
            shard.trace = Some(TraceRing::new(capacity));
        }
        self
    }

    /// A merged view of the trace: the barrier-drained base ring plus
    /// whatever the shards recorded since the last barrier, in shard
    /// order. `None` unless [`with_trace`](ShardedDriver::with_trace) was
    /// used.
    pub fn trace(&self) -> Option<TraceRing> {
        let mut merged = self.base_trace.clone()?;
        for shard in &self.shards {
            if let Some(ring) = &shard.trace {
                ring.clone().drain_into(&mut merged);
            }
        }
        Some(merged)
    }

    /// Route the full backend state — merged protocol/engine metrics,
    /// driver counters, liveness/allocation gauges and every handler's
    /// protocol counters — into an observability registry. Purely a read.
    pub fn fill_registry(&self, registry: &mut gossip_obs::Registry) {
        self.net_metrics().fill_registry(registry);
        self.async_metrics().fill_registry(registry);
        self.metrics().fill_registry(registry);
        registry.set_gauge(
            "engine_nodes",
            "Nodes in the simulated network (crashed included)",
            &[],
            self.topo.config.sim.n as f64,
        );
        registry.set_gauge(
            "engine_alive_nodes",
            "Currently alive nodes",
            &[],
            self.alive_count() as f64,
        );
        registry.set_gauge(
            "engine_virtual_time_us",
            "Current virtual time (us)",
            &[],
            self.clock as f64,
        );
        registry.set_gauge(
            "engine_shards",
            "Shards hosting the node space",
            &[],
            self.topo.num_shards as f64,
        );
        registry.set_gauge(
            "engine_arena_live",
            "Message payloads live in the slab arenas",
            &[],
            self.arena_live() as f64,
        );
        registry.set_gauge(
            "engine_arena_capacity",
            "Payload slots the slab arenas hold memory for",
            &[],
            self.arena_capacity() as f64,
        );
        registry.add_counter(
            "engine_slot_reuse_total",
            "Arena inserts that reused a freed slot instead of allocating",
            &[],
            self.arena_reuse_total(),
        );
        registry.set_gauge(
            "engine_queue_capacity_events",
            "Event slots the calendar queues hold memory for",
            &[],
            self.queue_capacity_events() as f64,
        );
        let mut timer_lag = gossip_obs::Histogram::new();
        for shard in &self.shards {
            timer_lag.merge(&shard.timer_lag);
        }
        registry.merge_histogram(
            "driver_timer_lag_us",
            "Scheduled-vs-dispatched delta of timer fires (µs)",
            &[],
            &timer_lag,
        );
        if let Some(ring) = self.trace() {
            registry.add_counter(
                "trace_events_total",
                "Protocol events recorded into the trace ring",
                &[],
                ring.total(),
            );
            registry.add_counter(
                "trace_ring_overwrites_total",
                "Trace events lost to ring capacity",
                &[],
                ring.overwritten(),
            );
            gossip_obs::reconstruct(&ring).fill_registry(registry);
        }
        for (_, handler) in self.iter_handlers() {
            handler.fill_registry(registry);
        }
    }

    /// The cross-shard lookahead: the smallest possible effective latency
    /// (model minimum scaled by the worst-case slow-link bias).
    fn lookahead_us(config: &AsyncConfig) -> u64 {
        let min = config.latency.min_us();
        (((min as f64) * (1.0 - config.link_spread)).floor() as u64).max(1)
    }

    /// Set the churn-window length (µs). Must precede the first
    /// [`run_until`](ShardedDriver::run_until).
    pub fn with_window_us(mut self, window_us: u64) -> Self {
        assert!(window_us >= 1, "window length must be at least 1µs");
        assert!(!self.started, "window length is fixed once the run starts");
        self.window_us = window_us;
        self.next_window = window_us;
        self
    }

    /// Set the bounded-lag epoch length (µs). Shorter epochs exchange
    /// cross-shard batches more often; longer ones amortize the barrier.
    ///
    /// # Panics
    /// Panics if `epoch_us` exceeds the cross-shard lookahead (the latency
    /// model's minimum scaled by the link spread) — events would arrive in
    /// a shard's past and the run would no longer be shard-count invariant
    /// — or if the run has already started (a mid-run epoch change would
    /// break the slicing-invariance contract).
    pub fn with_epoch_us(mut self, epoch_us: u64) -> Self {
        assert!(!self.started, "epoch length is fixed once the run starts");
        let lookahead = Self::lookahead_us(&self.topo.config);
        assert!(
            (1..=lookahead).contains(&epoch_us),
            "epoch must lie in [1, {lookahead}] (the cross-shard lookahead), got {epoch_us}"
        );
        self.epoch_us = epoch_us;
        self
    }

    /// Add host-injected jitter to every [`Mailbox::set_timer`]: a uniform
    /// draw in `[0, jitter_us]` on top of the requested delay, taken from
    /// the **acting node's** private stream — so jittered runs stay
    /// shard-count, slicing and thread-path invariant like everything
    /// else. Enabling it changes each node's RNG stream relative to a
    /// jitter-free run. Must precede the first
    /// [`run_until`](ShardedDriver::run_until).
    pub fn with_timer_jitter_us(mut self, jitter_us: u64) -> Self {
        assert!(!self.started, "timer jitter is fixed once the run starts");
        self.topo.timer_jitter_us = jitter_us;
        self
    }

    /// Force the parallel (scoped worker threads) or sequential execution
    /// path. Results are bit-identical either way; the default uses threads
    /// whenever the host has more than one core and there is more than one
    /// shard.
    pub fn with_parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel && self.topo.num_shards > 1;
        self
    }

    /// Number of shards actually in use (`min(requested, n)`).
    pub fn num_shards(&self) -> usize {
        self.topo.num_shards
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.topo.config.sim.n
    }

    /// Current virtual time (µs): the largest instant run so far.
    pub fn now_us(&self) -> u64 {
        self.clock
    }

    /// Whether `node` is currently alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        let (s, local) = self.locate(node.index());
        self.shards[s].nodes.alive[local]
    }

    /// Number of currently alive nodes.
    pub fn alive_count(&self) -> usize {
        self.shards.iter().map(|s| s.nodes.alive_count).sum()
    }

    /// The currently alive nodes, in node-id order.
    pub fn alive_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.shards.iter().flat_map(|shard| {
            shard
                .nodes
                .alive
                .iter()
                .enumerate()
                .filter(|&(_, &alive)| alive)
                .map(move |(local, _)| NodeId::new(shard.start + local))
        })
    }

    /// Payloads currently live across the per-shard slab arenas.
    pub fn arena_live(&self) -> usize {
        self.shards.iter().map(|s| s.arena.live()).sum()
    }

    /// Total payload slots the per-shard arenas hold memory for.
    pub fn arena_capacity(&self) -> usize {
        self.shards.iter().map(|s| s.arena.capacity()).sum()
    }

    /// Arena inserts that reused a freed slot instead of allocating.
    pub fn arena_reuse_total(&self) -> u64 {
        self.shards.iter().map(|s| s.arena.reuse_total()).sum()
    }

    /// Total event slots the calendar queues hold memory for (wheel slot
    /// capacities plus overflow lists) — the flat-memory regression probe.
    pub fn queue_capacity_events(&self) -> usize {
        self.shards.iter().map(|s| s.queue.capacity_events()).sum()
    }

    /// The handler currently installed at `node` (the live incarnation).
    pub fn handler(&self, node: NodeId) -> &H {
        let (s, local) = self.locate(node.index());
        &self.shards[s].handlers[local]
    }

    /// All handlers with their node ids, in node-id order.
    pub fn iter_handlers(&self) -> impl Iterator<Item = (NodeId, &H)> {
        self.shards.iter().flat_map(|shard| {
            shard
                .handlers
                .iter()
                .enumerate()
                .map(move |(local, h)| (NodeId::new(shard.start + local), h))
        })
    }

    /// Merged protocol metrics: message/bit/drop counts summed across
    /// shards; one round per crossed window, with per-window message
    /// totals.
    pub fn net_metrics(&self) -> Metrics {
        let mut merged = self.base_metrics.clone();
        for shard in &self.shards {
            merged.merge(&shard.metrics);
        }
        merged
    }

    /// Merged engine-level metrics (drop causes, churn counts, latency).
    pub fn async_metrics(&self) -> AsyncMetrics {
        let mut merged = self.base_async.clone();
        for shard in &self.shards {
            merged.merge(&shard.async_metrics);
        }
        merged
    }

    /// Merged driver counters and the shard-count-invariant order hash.
    pub fn metrics(&self) -> DriverMetrics {
        let mut m = DriverMetrics::new();
        m.handler_starts = self.handler_starts;
        m.rejoin_log = self.rejoin_log.clone();
        for shard in &self.shards {
            m.messages_dispatched += shard.counters.messages_dispatched;
            m.timer_fires += shard.counters.timer_fires;
            m.stale_timer_skips += shard.counters.stale_timer_skips;
            m.cancelled_timer_skips += shard.counters.cancelled_timer_skips;
            m.dead_receiver_drops += shard.counters.dead_receiver_drops;
        }
        for shard in &self.shards {
            for &h in &shard.nodes.node_hash {
                m.fold_word(h);
            }
        }
        m
    }

    /// Every rejoin restart so far, as `(boundary instant µs, node)` in
    /// dispatch order (the same log [`metrics`](ShardedDriver::metrics)
    /// copies out, without the per-node hash fold).
    pub fn rejoin_log(&self) -> &[(u64, NodeId)] {
        &self.rejoin_log
    }

    /// The shard-count-invariant dispatch-order fingerprint (shorthand for
    /// [`metrics`](ShardedDriver::metrics)`().order_hash`).
    pub fn order_hash(&self) -> u64 {
        self.metrics().order_hash
    }

    /// Total events dispatched (messages + timers + crashes + drops) — the
    /// throughput numerator of the `engine_scaling` experiment.
    pub fn events_dispatched(&self) -> u64 {
        let m = self.metrics();
        let a = self.async_metrics();
        m.messages_dispatched
            + m.timer_fires
            + m.stale_timer_skips
            + m.dead_receiver_drops
            + a.churn_crashes
    }

    #[inline]
    fn locate(&self, node: usize) -> (usize, usize) {
        let s = node / self.topo.chunk;
        (s, node - self.shards[s].start)
    }

    /// Advance virtual time to `t_end_us`, dispatching every event due on
    /// the way in the global `(timestamp, origin, origin-sequence)` order.
    /// The first call boots all initially-alive handlers (`on_start` at
    /// t = 0, in node-id order). Resumable: in-flight batches and armed
    /// timers survive between calls, and slicing a run never changes it.
    pub fn run_until(&mut self, t_end_us: u64) {
        if !self.started {
            self.started = true;
            for i in 0..self.topo.config.sim.n {
                let (s, local) = self.locate(i);
                if self.shards[s].nodes.alive[local] {
                    self.handler_starts += 1;
                    self.shards[s].boot(local, 0, &self.topo);
                }
            }
            self.exchange();
        }
        let target = t_end_us.saturating_add(1);
        while self.frontier < target {
            if self.frontier == self.next_window {
                let boundary = self.next_window;
                self.cross_barrier(boundary);
                self.next_window += self.window_us;
                self.exchange();
                continue;
            }
            let end = (self.frontier + self.epoch_us)
                .min(self.next_window)
                .min(target);
            self.run_epoch(end);
            self.exchange();
            self.frontier = end;
        }
        self.clock = self.clock.max(t_end_us);
    }

    /// [`run_until`](ShardedDriver::run_until) relative to the current
    /// clock.
    pub fn run_for(&mut self, delta_us: u64) {
        self.run_until(self.clock.saturating_add(delta_us));
    }

    /// Dispatch one epoch on every shard — on scoped worker threads when
    /// enabled, sequentially otherwise. Shards touch only their own state,
    /// so the two paths are bit-identical.
    fn run_epoch(&mut self, end_us: u64) {
        let topo = &self.topo;
        // Worker threads only pay for themselves when an epoch carries
        // real work. A model whose lookahead collapses to a few µs (log-
        // normal's floor is 1) would otherwise spawn a thread scope per
        // virtual microsecond — strictly slower than just sweeping the
        // shards in place. Results are bit-identical on either path.
        if self.parallel && self.epoch_us >= MIN_PARALLEL_EPOCH_US {
            std::thread::scope(|scope| {
                for shard in self.shards.iter_mut() {
                    scope.spawn(move || shard.run_epoch(end_us, topo));
                }
            });
        } else {
            for shard in self.shards.iter_mut() {
                shard.run_epoch(end_us, topo);
            }
        }
    }

    /// Move every buffered cross-shard batch into its destination queue,
    /// re-homing each payload into the destination shard's arena. Order of
    /// insertion is irrelevant — the queues order by the global key — so
    /// the batches need no sorting.
    fn exchange(&mut self) {
        if self.topo.num_shards == 1 {
            return;
        }
        for s in 0..self.shards.len() {
            let mut outbox = std::mem::take(&mut self.shards[s].outbox);
            for (d, events) in outbox.iter_mut().enumerate() {
                if events.is_empty() {
                    continue;
                }
                let dest = &mut self.shards[d];
                for Outbound { mut ev, msg } in events.drain(..) {
                    if let EventKind::Deliver { payload, .. } = &mut ev.kind {
                        *payload = dest.arena.insert(msg);
                    }
                    dest.queue.push(ev);
                }
            }
            self.shards[s].outbox = outbox;
        }
    }

    /// A window barrier: drain shard metrics into the base (one round per
    /// window), decay burst memory, reset bandwidth budgets, and draw
    /// churn serially in node-id order from the driver-level stream.
    /// Rejoiners restart with fresh handlers, a bumped incarnation and an
    /// `on_start` at the boundary.
    fn cross_barrier(&mut self, boundary: u64) {
        for shard in &mut self.shards {
            self.base_metrics
                .merge(&std::mem::replace(&mut shard.metrics, Metrics::new()));
            self.base_async
                .merge(&std::mem::take(&mut shard.async_metrics));
            if let (Some(ring), Some(base)) = (&mut shard.trace, &mut self.base_trace) {
                ring.drain_into(base);
            }
            shard.arena.decay();
        }
        self.base_metrics.advance_round();
        if self.topo.config.bandwidth_bits_per_round.is_some() {
            for shard in &mut self.shards {
                shard.nodes.bits_window.iter_mut().for_each(|b| *b = 0);
            }
        }
        let churn = self.topo.config.churn;
        if !churn.is_enabled() {
            return;
        }
        let mut alive_total: usize = self.shards.iter().map(|s| s.nodes.alive_count).sum();
        let mut pending_total: usize = self.shards.iter().map(|s| s.nodes.pending_crashes).sum();
        for i in 0..self.topo.config.sim.n {
            let (s, local) = self.locate(i);
            if self.shards[s].nodes.alive[local] {
                let can_crash = alive_total - pending_total > churn.min_alive;
                if can_crash
                    && churn.crash_prob > 0.0
                    && self.shards[s].nodes.crash_at[local] == NO_CRASH
                    && self.churn_rng.gen_bool(churn.crash_prob)
                {
                    // Uniform instant strictly inside the window, ordered
                    // against deliveries by the event queue.
                    let at = boundary + 1 + self.churn_rng.gen_range(0..self.window_us.max(1));
                    let shard = &mut self.shards[s];
                    shard.nodes.crash_at[local] = at;
                    shard.nodes.pending_crashes += 1;
                    pending_total += 1;
                    let oseq = shard.nodes.next_oseq(local);
                    shard.queue.push(ShardEvent {
                        at_us: at,
                        origin: i as u32,
                        oseq,
                        to: i as u32,
                        kind: EventKind::Crash,
                    });
                }
            } else if churn.rejoin_prob > 0.0 && self.churn_rng.gen_bool(churn.rejoin_prob) {
                let node = NodeId::new(i);
                let shard = &mut self.shards[s];
                shard.nodes.alive[local] = true;
                shard.nodes.alive_count += 1;
                alive_total += 1;
                shard.nodes.incarnation[local] = shard.nodes.incarnation[local].wrapping_add(1);
                shard.handlers[local] = (self.factory)(node);
                self.base_async.churn_rejoins += 1;
                self.rejoin_log.push((boundary, node));
                self.handler_starts += 1;
                self.shards[s].boot(local, boundary, &self.topo);
            }
        }
    }
}

impl<H: Handler> std::fmt::Debug for ShardedDriver<H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedDriver")
            .field("n", &self.topo.config.sim.n)
            .field("shards", &self.topo.num_shards)
            .field("now_us", &self.clock)
            .field("window_us", &self.window_us)
            .field("epoch_us", &self.epoch_us)
            .field("parallel", &self.parallel)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::ChurnModel;
    use crate::latency::LatencyModel;
    use gossip_net::SimConfig;

    /// Interval-driven rumor flooding (the ciruela emulator shape): every
    /// tick each node pushes its token set to one random peer.
    #[derive(Debug, Clone)]
    struct Rumor {
        me: NodeId,
        tokens: Vec<u32>,
        tick_us: u64,
    }

    const TICK: TimerId = TimerId(7);

    impl Handler for Rumor {
        type Msg = Vec<u32>;

        fn on_start(&mut self, mailbox: &mut dyn Mailbox<Vec<u32>>) {
            if self.me.index() == 0 {
                self.tokens.push(42);
            }
            let offset = 1 + (self.me.index() as u64 * 97) % self.tick_us;
            mailbox.set_timer(offset, TICK);
        }

        fn on_message(
            &mut self,
            _from: NodeId,
            msg: Vec<u32>,
            _mailbox: &mut dyn Mailbox<Vec<u32>>,
        ) {
            for t in msg {
                if !self.tokens.contains(&t) {
                    self.tokens.push(t);
                }
            }
        }

        fn on_timer(&mut self, timer: TimerId, mailbox: &mut dyn Mailbox<Vec<u32>>) {
            assert_eq!(timer, TICK);
            if !self.tokens.is_empty() {
                let peer = mailbox.sample_peer();
                let bits = 32 * self.tokens.len() as u32;
                mailbox.send(peer, Phase::Other, bits, self.tokens.clone());
            }
            mailbox.set_timer(self.tick_us, TICK);
        }
    }

    fn rumor_driver(n: usize, seed: u64, shards: usize, churn: ChurnModel) -> ShardedDriver<Rumor> {
        let config = AsyncConfig::new(SimConfig::new(n).with_seed(seed).with_loss_prob(0.05))
            .with_latency(LatencyModel::Uniform {
                lo_us: 200,
                hi_us: 1_500,
            })
            .with_churn(churn);
        ShardedDriver::new(config, shards, move |me| Rumor {
            me,
            tokens: Vec::new(),
            tick_us: 1_000,
        })
    }

    fn fingerprint(driver: &ShardedDriver<Rumor>) -> (u64, u64, u64, Vec<usize>) {
        (
            driver.order_hash(),
            driver.metrics().timer_fires,
            driver.net_metrics().total_messages(),
            driver
                .iter_handlers()
                .map(|(_, h)| h.tokens.len())
                .collect(),
        )
    }

    #[test]
    fn sharded_gossip_floods_every_node() {
        let mut driver = rumor_driver(64, 11, 4, ChurnModel::none());
        driver.run_until(40_000);
        let informed = driver
            .iter_handlers()
            .filter(|(_, h)| h.tokens.contains(&42))
            .count();
        assert_eq!(informed, 64, "40 ticks flood a 64-node network");
        assert_eq!(driver.metrics().handler_starts, 64);
        assert!(driver.metrics().messages_dispatched > 0);
        assert_eq!(driver.now_us(), 40_000);
        assert_eq!(driver.net_metrics().rounds(), 47, "one round per window");
        // Live arena slots are exactly the messages still in flight at the
        // cutoff — a bounded number, not an accreting one.
        assert!(driver.arena_live() < 200, "got {}", driver.arena_live());
        assert!(driver.arena_reuse_total() > 0, "steady state reuses slots");
    }

    #[test]
    fn shard_count_does_not_change_the_run() {
        let run = |shards| {
            let mut d = rumor_driver(96, 3, shards, ChurnModel::per_round(0.02, 0.1));
            d.run_until(60_000);
            fingerprint(&d)
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(8));
        // And the whole thing reproduces.
        assert_eq!(one, run(1));
    }

    #[test]
    fn parallel_and_sequential_paths_agree() {
        let run = |parallel| {
            let mut d =
                rumor_driver(80, 9, 8, ChurnModel::per_round(0.02, 0.2)).with_parallel(parallel);
            d.run_until(50_000);
            fingerprint(&d)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn slicing_the_run_does_not_change_it() {
        let mut one_shot = rumor_driver(48, 9, 4, ChurnModel::per_round(0.01, 0.2));
        one_shot.run_until(50_000);
        let mut stepped = rumor_driver(48, 9, 4, ChurnModel::per_round(0.01, 0.2));
        for k in 1..=10 {
            stepped.run_until(k * 5_000);
        }
        // Uneven slices too (epoch boundaries land differently).
        let mut uneven = rumor_driver(48, 9, 4, ChurnModel::per_round(0.01, 0.2));
        for t in [137, 4_200, 17_771, 17_772, 39_999, 50_000] {
            uneven.run_until(t);
        }
        assert_eq!(fingerprint(&one_shot), fingerprint(&stepped));
        assert_eq!(fingerprint(&one_shot), fingerprint(&uneven));
    }

    #[test]
    fn rejoiners_restart_fresh_and_stale_timers_die() {
        let mut driver = rumor_driver(128, 21, 8, ChurnModel::per_round(0.05, 0.3));
        driver.run_until(100_000);
        let m = driver.metrics();
        let rejoins = m.rejoin_log.len();
        assert!(rejoins > 0, "churn produced rejoins");
        assert_eq!(
            m.handler_starts,
            128 + rejoins as u64,
            "every rejoin reboots exactly one handler"
        );
        assert!(
            m.stale_timer_skips > 0,
            "pre-crash timers must not fire into the new incarnation"
        );
        for &(t, _) in &m.rejoin_log {
            assert_eq!(t % 850, 0, "rejoins happen at window boundaries");
        }
        let a = driver.async_metrics();
        assert!(a.churn_crashes > 0);
        assert_eq!(a.churn_rejoins, rejoins as u64);
    }

    #[test]
    fn bandwidth_and_deadline_verdicts_apply_sender_side() {
        let config = AsyncConfig::new(SimConfig::new(16).with_seed(5))
            .with_latency(LatencyModel::Uniform {
                lo_us: 500,
                hi_us: 4_000,
            })
            .with_bandwidth_bits_per_round(300)
            .with_round_policy(RoundPolicy::FixedDeadline(2_000));
        let mut driver = ShardedDriver::new(config, 4, |me| Rumor {
            me,
            tokens: (0..8).map(|t| t + me.index() as u32).collect(),
            tick_us: 1_000,
        });
        driver.run_until(60_000);
        let a = driver.async_metrics();
        assert!(
            a.bandwidth_drops > 0,
            "a second 256-bit push in one window blows the 300-bit cap"
        );
        assert!(a.late_drops > 0, "latencies beyond 2ms miss the deadline");
        let m = driver.net_metrics();
        assert!(m.total_dropped() >= a.bandwidth_drops + a.late_drops);
    }

    /// The cancel-then-re-arm idiom: T0 at 10 cancels the boot-armed T1
    /// due 20 and re-arms it for 40.
    #[derive(Debug, Default)]
    struct Canceller {
        fired: Vec<(u64, TimerId)>,
    }

    impl Handler for Canceller {
        type Msg = ();
        fn on_start(&mut self, mailbox: &mut dyn Mailbox<()>) {
            mailbox.set_timer(10, TimerId(0));
            mailbox.set_timer(20, TimerId(1));
        }
        fn on_message(&mut self, _from: NodeId, _msg: (), _mailbox: &mut dyn Mailbox<()>) {}
        fn on_timer(&mut self, timer: TimerId, mailbox: &mut dyn Mailbox<()>) {
            self.fired.push((mailbox.now_us(), timer));
            if timer == TimerId(0) {
                mailbox.cancel_timer(TimerId(1));
                mailbox.set_timer(30, TimerId(1));
            }
        }
    }

    #[test]
    fn cancelled_timers_are_suppressed_and_rearmed_ones_fire() {
        let config = AsyncConfig::new(SimConfig::new(3).with_seed(3));
        let mut driver = ShardedDriver::new(config, 3, |_| Canceller::default());
        driver.run_until(100);
        for (node, h) in driver.iter_handlers() {
            assert_eq!(
                h.fired,
                vec![(10, TimerId(0)), (40, TimerId(1))],
                "node {node:?}"
            );
        }
        let m = driver.metrics();
        assert_eq!(m.cancelled_timer_skips, 3);
        assert_eq!(m.timer_fires, 6);
    }

    #[test]
    fn jittered_runs_are_shard_count_invariant() {
        let run = |shards| {
            let config = AsyncConfig::new(SimConfig::new(64).with_seed(21).with_loss_prob(0.05))
                .with_latency(LatencyModel::Uniform {
                    lo_us: 200,
                    hi_us: 1_500,
                });
            let mut d = ShardedDriver::new(config, shards, |me| Rumor {
                me,
                tokens: Vec::new(),
                tick_us: 1_000,
            })
            .with_timer_jitter_us(400);
            d.run_until(30_000);
            fingerprint(&d)
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(8));
    }

    #[test]
    fn more_shards_than_nodes_is_fine() {
        let mut driver = rumor_driver(3, 2, 64, ChurnModel::none());
        assert_eq!(driver.num_shards(), 3);
        driver.run_until(20_000);
        let informed = driver
            .iter_handlers()
            .filter(|(_, h)| h.tokens.contains(&42))
            .count();
        assert_eq!(informed, 3);
    }

    #[test]
    fn initial_crashes_match_the_network_stream() {
        let sim = SimConfig::new(256)
            .with_seed(17)
            .with_initial_crash_prob(0.2);
        let net = gossip_net::Network::new(sim.clone());
        let driver = ShardedDriver::new(AsyncConfig::new(sim), 8, |me| Rumor {
            me,
            tokens: Vec::new(),
            tick_us: 1_000,
        });
        for i in 0..256 {
            assert_eq!(
                net.is_alive(NodeId::new(i)),
                driver.is_alive(NodeId::new(i)),
                "node {i}"
            );
        }
        assert_eq!(net.alive_count(), driver.alive_count());
        assert!(driver
            .alive_nodes()
            .eq((0..256).map(NodeId::new).filter(|&v| net.is_alive(v))));
    }

    #[test]
    fn timer_jitter_delays_but_never_advances_and_reproduces() {
        let run = |jitter| {
            let config = AsyncConfig::new(SimConfig::new(4).with_seed(9));
            let mut d = ShardedDriver::new(config, 1, |me| Rumor {
                me,
                tokens: Vec::new(),
                tick_us: 1_000,
            })
            .with_timer_jitter_us(jitter);
            d.run_until(20_000);
            (d.metrics(), d.net_metrics().total_messages())
        };
        // Jittered runs are as reproducible as plain ones.
        assert_eq!(run(300), run(300));
        // And jitter actually perturbs the schedule.
        assert_ne!(run(0).0.order_hash, run(300).0.order_hash);
        // Ticks still fire at the expected rate (jitter delays, it does
        // not drop): ~20 intervals per node, give or take the drift the
        // jitter accumulates.
        assert!(run(300).0.timer_fires >= 4 * 15);
    }

    #[test]
    fn window_length_is_configurable_and_counts_rounds() {
        let config = AsyncConfig::new(SimConfig::new(8).with_seed(5));
        let mut d = ShardedDriver::new(config, 2, |me| Rumor {
            me,
            tokens: Vec::new(),
            tick_us: 1_000,
        })
        .with_window_us(2_000);
        d.run_until(20_000);
        // Boundaries at 2k, 4k, ..., 20k → 10 windows counted as rounds.
        assert_eq!(d.net_metrics().rounds(), 10);
    }

    #[test]
    #[should_panic(expected = "cross-shard lookahead")]
    fn epochs_beyond_the_lookahead_are_rejected() {
        let config = AsyncConfig::new(SimConfig::new(8)).with_latency(LatencyModel::Uniform {
            lo_us: 300,
            hi_us: 900,
        });
        let _ = ShardedDriver::new(config, 2, |me| Rumor {
            me,
            tokens: Vec::new(),
            tick_us: 1_000,
        })
        .with_epoch_us(301);
    }

    /// Sends one huge burst at boot time and tiny trickles afterwards —
    /// the workload that used to pin slot and arena capacity at the
    /// burst's high-water mark forever.
    #[derive(Debug)]
    struct Burst {
        me: NodeId,
        bursts: u32,
    }

    impl Handler for Burst {
        type Msg = u64;
        fn on_start(&mut self, mailbox: &mut dyn Mailbox<u64>) {
            if self.me.index() == 0 {
                mailbox.set_timer(1, TICK);
            }
        }
        fn on_message(&mut self, _from: NodeId, _msg: u64, _mailbox: &mut dyn Mailbox<u64>) {}
        fn on_timer(&mut self, _timer: TimerId, mailbox: &mut dyn Mailbox<u64>) {
            let k: u64 = if self.bursts == 0 { 10_000 } else { 10 };
            self.bursts += 1;
            for i in 0..k {
                mailbox.send(NodeId::new(1), Phase::Other, 32, i);
            }
            mailbox.set_timer(4_096, TICK);
        }
    }

    #[test]
    fn burst_memory_decays_instead_of_sticking() {
        // Constant latency funnels the whole burst into a single calendar
        // slot of the receiver's shard and a matching block of arena
        // slots; two shards force the cross-shard (outbox + re-homing)
        // path. Before capacity decay, the ballooned slot and slab kept
        // their 10⁴-event capacity for the rest of the run.
        let config = AsyncConfig::new(SimConfig::new(2).with_seed(5))
            .with_latency(LatencyModel::Constant(500));
        let mut driver = ShardedDriver::new(config, 2, |me| Burst { me, bursts: 0 });
        driver.run_until(60_000);
        assert!(
            driver.metrics().messages_dispatched > 10_000,
            "the burst and the trickles were all delivered"
        );
        assert_eq!(driver.arena_live(), 0, "no payload outlives its dispatch");
        assert!(
            driver.arena_capacity() < 1_000,
            "arena decayed after the burst, still holds {} slots",
            driver.arena_capacity()
        );
        assert!(
            driver.queue_capacity_events() < 1_000,
            "calendar slots decayed after the burst, still hold {} events",
            driver.queue_capacity_events()
        );
        assert!(
            driver.arena_reuse_total() > 0,
            "trickle traffic reuses freed slots"
        );
    }
}
