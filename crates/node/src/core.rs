//! The per-node protocol engine, independent of any socket.
//!
//! [`NodeCore`] is everything about one node that is *not* I/O: the
//! hosted [`Handler`], the monotonic timer queue with its cancellation
//! watermarks, the peer address book, the RNG stream, the wire counters
//! and the passive trace ring. It speaks to the outside world through two
//! narrow seams:
//!
//! * **Inbound** — [`NodeCore::on_datagram`] takes the raw bytes of one
//!   received datagram (plus the kernel-reported source address) and runs
//!   the full accept pipeline: frame decode, authentication, sender
//!   validation, handler dispatch.
//! * **Outbound** — every send a callback makes goes through a
//!   [`FrameSink`], the one-method trait a host implements to put frame
//!   bytes on its transport.
//!
//! This split is what makes the core host-agnostic: the socket host
//! ([`NodeHost`](crate::NodeHost)) in its blocking and non-blocking
//! loops, the loopback cluster's single-thread and per-core passes and
//! any test harness (the `Vec` [`FrameSink`] captures frames with no
//! socket at all) drive the *same* engine, so dispatch order, stats and
//! authentication policy cannot drift between deployment shapes.

use gossip_net::{
    decode_frame_sealed, node_rng, seal_frame, AuthKey, Handler, Mailbox, Metrics, NodeId, Phase,
    TimerId, WireError, WireMsg, MAX_PAYLOAD_BYTES,
};
use gossip_obs::{
    Histogram, Registry, Request, Response, TraceCtx, TraceFilter, TraceKind, TraceReason,
    TraceRing, NO_PEER,
};
use rand::rngs::SmallRng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Where a [`NodeCore`]'s outbound frames go: the one seam between the
/// protocol engine and a host's transport. `NodeHost` sends through a
/// `&UdpSocket` (`send_to`); tests capture frames in a `Vec`.
pub trait FrameSink {
    /// Put one encoded frame on the wire towards `addr`. Fire-and-forget
    /// semantics: an `Err` is counted by the core as a send error, never
    /// surfaced to the handler.
    fn send_frame(&mut self, addr: SocketAddr, frame: &[u8]) -> io::Result<usize>;
}

impl FrameSink for &std::net::UdpSocket {
    fn send_frame(&mut self, addr: SocketAddr, frame: &[u8]) -> io::Result<usize> {
        self.send_to(frame, addr)
    }
}

/// Frames recorded instead of sent — the [`FrameSink`] test harnesses use
/// to drive a core with no socket at all.
impl FrameSink for Vec<(SocketAddr, Vec<u8>)> {
    fn send_frame(&mut self, addr: SocketAddr, frame: &[u8]) -> io::Result<usize> {
        self.push((addr, frame.to_vec()));
        Ok(frame.len())
    }
}

/// Wire- and dispatch-level counters of one host. Where the simulators
/// count *modelled* events, these count what actually happened on the
/// socket.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// `on_start` invocations (1 after the host starts).
    pub handler_starts: u64,
    /// Timer callbacks dispatched.
    pub timer_fires: u64,
    /// Timers suppressed by [`Mailbox::cancel_timer`].
    pub cancelled_timer_skips: u64,
    /// Messages dispatched into `on_message`.
    pub messages_dispatched: u64,
    /// Datagrams handed to the kernel.
    pub datagrams_sent: u64,
    /// Bytes handed to the kernel (frame bytes, headers included).
    pub bytes_sent: u64,
    /// Sends that failed locally (kernel error or an out-of-range peer).
    pub send_errors: u64,
    /// Sends whose encoded payload exceeded one datagram
    /// ([`MAX_PAYLOAD_BYTES`]): detected
    /// *before* `send_to`, counted, and dropped — the kernel would reject
    /// the datagram with a raw OS error that is easy to mistake for loss.
    /// A non-zero count means the protocol's messages outgrew the
    /// transport (e.g. a dense anti-entropy digest at n ≳ 5,500); the fix
    /// is a protocol that fragments, such as Merkle-mode `gossip-ae`.
    pub send_oversize: u64,
    /// Datagrams received.
    pub datagrams_received: u64,
    /// Bytes received.
    pub bytes_received: u64,
    /// Socket-level receive failures other than "nothing there" (the
    /// symmetric twin of [`send_errors`](NodeStats::send_errors)).
    pub recv_errors: u64,
    /// Datagrams rejected by the frame decoder (truncated, oversized,
    /// version-mismatched, malformed payload) — counted, never fatal.
    pub decode_errors: u64,
    /// Frames rejected by authentication at an auth-required host: a tag
    /// that failed to verify (tampered, truncated, or wrong key) or a
    /// bare frame where a tag was required. Counted separately from
    /// [`decode_errors`](NodeStats::decode_errors) so "someone is forging
    /// frames" has its own signal — and, like every rejection, never
    /// fatal.
    pub auth_reject: u64,
    /// Frames whose sender id is outside `0..n`.
    pub unknown_sender_drops: u64,
    /// Frames whose kernel-reported source address differs from the
    /// address book's entry for the claimed sender. Delivered anyway
    /// (NATs rewrite sources; the frame already passed authentication if
    /// the host requires it) but counted so a test can assert zero on
    /// loopback.
    pub addr_mismatches: u64,
}

impl NodeStats {
    /// Route every counter into an observability registry as the `node_*`
    /// families. Purely a read; `add_*` semantics, so a cluster can fold
    /// many hosts onto one page.
    pub fn fill_registry(&self, registry: &mut Registry) {
        registry.add_counter(
            "node_handler_starts_total",
            "on_start invocations",
            &[],
            self.handler_starts,
        );
        registry.add_counter(
            "node_timer_fires_total",
            "Timer callbacks dispatched",
            &[],
            self.timer_fires,
        );
        registry.add_counter(
            "node_cancelled_timer_skips_total",
            "Timers suppressed by cancel_timer",
            &[],
            self.cancelled_timer_skips,
        );
        registry.add_counter(
            "node_messages_dispatched_total",
            "Messages dispatched into on_message",
            &[],
            self.messages_dispatched,
        );
        registry.add_counter(
            "node_datagrams_sent_total",
            "Datagrams handed to the kernel",
            &[],
            self.datagrams_sent,
        );
        registry.add_counter(
            "node_bytes_sent_total",
            "Bytes handed to the kernel (frame headers included)",
            &[],
            self.bytes_sent,
        );
        registry.add_counter(
            "node_send_errors_total",
            "Sends that failed locally (kernel error or out-of-range peer)",
            &[],
            self.send_errors,
        );
        registry.add_counter(
            "node_send_oversize_total",
            "Sends dropped for exceeding one datagram",
            &[],
            self.send_oversize,
        );
        registry.add_counter(
            "node_datagrams_received_total",
            "Datagrams received",
            &[],
            self.datagrams_received,
        );
        registry.add_counter(
            "node_bytes_received_total",
            "Bytes received",
            &[],
            self.bytes_received,
        );
        registry.add_counter(
            "node_recv_errors_total",
            "Socket-level receive failures",
            &[],
            self.recv_errors,
        );
        registry.add_counter(
            "node_decode_errors_total",
            "Datagrams rejected by the frame decoder",
            &[],
            self.decode_errors,
        );
        registry.add_counter(
            "node_auth_reject_total",
            "Frames rejected by authentication (bad tag or missing tag)",
            &[],
            self.auth_reject,
        );
        registry.add_counter(
            "node_unknown_sender_drops_total",
            "Frames whose sender id is outside the address book",
            &[],
            self.unknown_sender_drops,
        );
        registry.add_counter(
            "node_addr_mismatches_total",
            "Frames whose source address differs from the address book",
            &[],
            self.addr_mismatches,
        );
    }

    /// Append the `sent:` and `received:` lines of a `/status` page —
    /// every send and receive counter, rejects by cause included. Node
    /// and cluster pages both render their wire counters through this.
    pub fn write_wire_lines(&self, page: &mut String) {
        use std::fmt::Write;
        let _ = writeln!(
            page,
            "sent: {} datagrams / {} bytes ({} errors, {} oversize)",
            self.datagrams_sent, self.bytes_sent, self.send_errors, self.send_oversize
        );
        let _ = writeln!(
            page,
            "received: {} datagrams / {} bytes ({} recv errors, {} decode errors, \
             {} auth rejects, {} unknown senders, {} addr mismatches)",
            self.datagrams_received,
            self.bytes_received,
            self.recv_errors,
            self.decode_errors,
            self.auth_reject,
            self.unknown_sender_drops,
            self.addr_mismatches
        );
    }

    /// Field-wise sum (cluster-level totals).
    pub fn merge(&mut self, other: &NodeStats) {
        self.handler_starts += other.handler_starts;
        self.timer_fires += other.timer_fires;
        self.cancelled_timer_skips += other.cancelled_timer_skips;
        self.messages_dispatched += other.messages_dispatched;
        self.datagrams_sent += other.datagrams_sent;
        self.bytes_sent += other.bytes_sent;
        self.send_errors += other.send_errors;
        self.send_oversize += other.send_oversize;
        self.datagrams_received += other.datagrams_received;
        self.bytes_received += other.bytes_received;
        self.recv_errors += other.recv_errors;
        self.decode_errors += other.decode_errors;
        self.auth_reject += other.auth_reject;
        self.unknown_sender_drops += other.unknown_sender_drops;
        self.addr_mismatches += other.addr_mismatches;
    }
}

/// A pending timer: `(due µs, arm sequence, label)` — the heap pops in
/// exactly the simulators' `(timestamp, seq)` order.
type PendingTimer = Reverse<(u64, u64, u32)>;

/// Outcome of delivering one datagram (or trying to receive one).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Recv {
    /// Nothing available (empty socket, or the read timeout elapsed).
    Idle,
    /// A message was dispatched into the handler.
    Dispatched,
    /// A datagram arrived but was rejected (counted in the stats).
    Rejected,
    /// The socket itself errored (counted; callers back off — an erroring
    /// socket returns instantly instead of sleeping on its timeout).
    Error,
}

/// One node's protocol engine: a [`Handler`] plus every piece of per-node
/// state — timers, address book, RNG, stats, trace ring, auth key — with
/// no socket. See the module docs for the seams ([`FrameSink`] out,
/// [`on_datagram`](NodeCore::on_datagram) in) that a host drives.
pub struct NodeCore<H: Handler> {
    me: NodeId,
    /// Address book: `peers[i]` is where frames for node `i` go. Indexed
    /// by [`NodeId`]; `peers[me]` is this node's own bind address.
    peers: Vec<SocketAddr>,
    handler: H,
    rng: SmallRng,
    /// Real-clock origin: `now_us` is the time since this instant, so a
    /// cluster sharing one epoch gets comparable timestamps.
    epoch: Instant,
    timers: BinaryHeap<PendingTimer>,
    timer_seq: u64,
    /// Cancellation watermarks (label → arm-sequence): pending timers with
    /// a smaller sequence are suppressed at dispatch.
    cancels: HashMap<u32, u64>,
    timer_jitter_us: u64,
    started: bool,
    /// Cluster authentication key. `Some` makes this node *require*
    /// authenticated frames inbound and seal every frame outbound.
    auth_key: Option<AuthKey>,
    metrics: Metrics,
    stats: NodeStats,
    /// How late timers fire relative to their due instant (real-clock µs).
    timer_lag: Histogram,
    /// Protocol event log (`None` until [`NodeCore::with_trace`]).
    trace: Option<TraceRing>,
}

impl<H: Handler> NodeCore<H> {
    /// A core for node `me` of the cluster described by `peers`.
    /// `peers.len()` is the network size `n`; `me` must index into it.
    pub fn new(me: NodeId, peers: Vec<SocketAddr>, seed: u64, handler: H) -> Self {
        assert!(
            me.index() < peers.len(),
            "node {me} outside the {}-entry address book",
            peers.len()
        );
        NodeCore {
            me,
            peers,
            handler,
            // The same per-node stream derivation the sharded driver uses:
            // protocol draws depend on (seed, me), not on global order.
            rng: node_rng(seed, me),
            epoch: Instant::now(),
            timers: BinaryHeap::new(),
            timer_seq: 0,
            cancels: HashMap::new(),
            timer_jitter_us: 0,
            started: false,
            auth_key: None,
            metrics: Metrics::new(),
            stats: NodeStats::default(),
            timer_lag: Histogram::new(),
            trace: None,
        }
    }

    /// Share a clock origin with other nodes (a cluster passes one
    /// `Instant` to all members so their `now_us` values are comparable).
    /// Must precede the first dispatch.
    pub fn with_epoch(mut self, epoch: Instant) -> Self {
        assert!(!self.started, "the epoch is fixed once the node starts");
        self.epoch = epoch;
        self
    }

    /// Add host-injected jitter to every [`Mailbox::set_timer`]: a uniform
    /// draw in `[0, jitter_us]` from this node's stream, exactly like the
    /// simulated hosts' `with_timer_jitter_us`.
    pub fn with_timer_jitter_us(mut self, jitter_us: u64) -> Self {
        self.timer_jitter_us = jitter_us;
        self
    }

    /// Authenticate this node's traffic with the cluster key: every
    /// outbound frame is sealed ([`FLAG_AUTH`](gossip_net::FLAG_AUTH) +
    /// truncated HMAC tag) and every inbound frame must carry a tag that
    /// verifies — bare or forged frames are counted in
    /// [`NodeStats::auth_reject`] and dropped, never fatal.
    pub fn with_auth_key(mut self, key: AuthKey) -> Self {
        self.auth_key = Some(key);
        self
    }

    /// Keep the last `capacity` protocol events (sends, receives, timer
    /// fires, drops with reasons) in a bounded ring, inspectable via
    /// [`trace`](NodeCore::trace) and the `/trace` endpoint. Purely
    /// passive: recording never touches the RNG, the timers or the socket.
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.trace = Some(TraceRing::new(capacity));
        self
    }

    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Network size (address-book length).
    pub fn n(&self) -> usize {
        self.peers.len()
    }

    /// Microseconds since the node's epoch — what handler callbacks see as
    /// [`Mailbox::now_us`].
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// The hosted handler.
    pub fn handler(&self) -> &H {
        &self.handler
    }

    /// Wire-level counters.
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// Modelled protocol metrics (the `bits` accounting every backend
    /// keeps). `delivered` here means "handed to the sink" — a datagram's
    /// real fate is unknowable at the sender, exactly like the fire-and-
    /// forget contract of [`Mailbox::send`].
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The protocol event log (`None` unless
    /// [`with_trace`](NodeCore::with_trace) enabled it).
    pub fn trace(&self) -> Option<&TraceRing> {
        self.trace.as_ref()
    }

    /// How late timer callbacks ran relative to their due instant
    /// (real-clock µs): the host's scheduling-quality signal.
    pub fn timer_lag(&self) -> &Histogram {
        &self.timer_lag
    }

    /// Whether this node requires (and produces) authenticated frames.
    pub fn auth_required(&self) -> bool {
        self.auth_key.is_some()
    }

    /// Run `on_start` once. Idempotent; the hosts call it implicitly on
    /// their first pump.
    pub fn start(&mut self, sink: &mut dyn FrameSink)
    where
        H::Msg: WireMsg,
    {
        if self.started {
            return;
        }
        self.started = true;
        self.stats.handler_starts += 1;
        let now = self.now_us();
        // Boot roots live in their own id space (high bit set), matching
        // the simulated hosts' convention.
        let ctx = self.root_ctx(1 << 63);
        self.with_mailbox(now, ctx, sink, |handler, mailbox| handler.on_start(mailbox));
    }

    /// Run `f` against the handler with a live mailbox, outside the event
    /// loop — for host-initiated protocol actions such as announcing a
    /// graceful departure (`--leave`) just before shutdown. Sends go to
    /// the sink immediately; timers and RNG draws behave exactly as in a
    /// callback. Starts the node if it has not started yet, so the
    /// handler is never observed pre-`on_start`.
    pub fn with_handler(
        &mut self,
        sink: &mut dyn FrameSink,
        f: impl FnOnce(&mut H, &mut dyn Mailbox<H::Msg>),
    ) where
        H::Msg: WireMsg,
    {
        self.start(sink);
        let now = self.now_us();
        // A host-initiated action is a root of its own chain, in a distinct
        // id space from boots and timers.
        let seq = (1 << 62) | self.trace.as_ref().map_or(0, TraceRing::total);
        let ctx = self.root_ctx(seq);
        self.with_mailbox(now, ctx, sink, f);
    }

    /// Fire every timer due at the current clock, in `(due, seq)` order.
    /// Returns the number of callbacks dispatched.
    pub fn fire_due_timers(&mut self, sink: &mut dyn FrameSink) -> usize
    where
        H::Msg: WireMsg,
    {
        let mut fired = 0;
        loop {
            let now = self.now_us();
            match self.timers.peek() {
                Some(Reverse((at, _, _))) if *at <= now => {}
                _ => return fired,
            }
            let Reverse((at, seq, label)) = self.timers.pop().expect("peeked");
            if self
                .cancels
                .get(&label)
                .is_some_and(|&watermark| seq < watermark)
            {
                self.stats.cancelled_timer_skips += 1;
                self.trace_event(
                    now,
                    NO_PEER,
                    TraceKind::Drop,
                    TraceReason::CancelledTimer,
                    TraceCtx::NONE,
                );
                continue;
            }
            self.stats.timer_fires += 1;
            self.timer_lag.record(now.saturating_sub(at));
            fired += 1;
            // The callback's clock never runs behind the timer's instant.
            let cb_now = now.max(at);
            // Each timer fire roots a causal chain, keyed by its arm seq.
            let ctx = self.root_ctx(seq);
            self.trace_event(
                cb_now,
                NO_PEER,
                TraceKind::TimerFire,
                TraceReason::None,
                ctx,
            );
            self.with_mailbox(cb_now, ctx, sink, |handler, mailbox| {
                handler.on_timer(TimerId(label), mailbox)
            });
        }
    }

    /// How long until the next pending timer is due (`None` when the
    /// queue is empty, `Some(ZERO)` when one is already overdue). The
    /// bound every host wait must respect: sleeping longer than this
    /// trades timer punctuality for nothing.
    pub fn until_next_timer(&self) -> Option<Duration> {
        self.timers.peek().map(|Reverse((at, _, _))| {
            (self.epoch + Duration::from_micros(*at)).saturating_duration_since(Instant::now())
        })
    }

    /// Count one socket-level receive failure (the host saw the error;
    /// the core keeps the books).
    pub fn note_recv_error(&mut self) {
        self.stats.recv_errors += 1;
        let now = self.now_us();
        self.trace_event(
            now,
            NO_PEER,
            TraceKind::Drop,
            TraceReason::RecvError,
            TraceCtx::NONE,
        );
    }

    /// Deliver one received datagram: decode (authenticating if this node
    /// holds a key), validate the sender, dispatch into the handler.
    /// Total: every malformed, forged or misaddressed input is a counted
    /// rejection.
    pub fn on_datagram(&mut self, buf: &[u8], src: SocketAddr, sink: &mut dyn FrameSink) -> Recv
    where
        H::Msg: WireMsg,
    {
        self.stats.datagrams_received += 1;
        self.stats.bytes_received += buf.len() as u64;
        let (from, ctx, msg) = match decode_frame_sealed::<H::Msg>(buf, self.auth_key.as_ref()) {
            Ok(decoded) => decoded,
            Err(WireError::BadAuthTag | WireError::AuthRequired) => {
                self.stats.auth_reject += 1;
                let now = self.now_us();
                self.trace_event(
                    now,
                    NO_PEER,
                    TraceKind::Drop,
                    TraceReason::AuthReject,
                    TraceCtx::NONE,
                );
                return Recv::Rejected;
            }
            Err(_) => {
                self.stats.decode_errors += 1;
                let now = self.now_us();
                self.trace_event(
                    now,
                    NO_PEER,
                    TraceKind::Drop,
                    TraceReason::DecodeError,
                    TraceCtx::NONE,
                );
                return Recv::Rejected;
            }
        };
        if from.index() >= self.peers.len() {
            self.stats.unknown_sender_drops += 1;
            let now = self.now_us();
            self.trace_event(
                now,
                from.index() as u64,
                TraceKind::Drop,
                TraceReason::UnknownSender,
                ctx,
            );
            return Recv::Rejected;
        }
        let mut recv_reason = TraceReason::None;
        if self.peers[from.index()] != src {
            // Deliverable but odd: a NAT rewrite, or something spoofing a
            // member id. Counted; the payload still carries the header id,
            // which is what the protocols key on — and under auth the
            // frame has already proven key possession.
            self.stats.addr_mismatches += 1;
            recv_reason = TraceReason::AddrMismatch;
        }
        self.stats.messages_dispatched += 1;
        let now = self.now_us();
        self.trace_event(now, from.index() as u64, TraceKind::Recv, recv_reason, ctx);
        self.with_mailbox(now, ctx, sink, |handler, mailbox| {
            handler.on_message(from, msg, mailbox)
        });
        Recv::Dispatched
    }

    /// Route everything this node knows into one registry: wire counters,
    /// modelled protocol metrics, the timer-lag histogram, the trace
    /// ring's totals, host gauges and whatever the handler exports.
    pub fn fill_registry(&self, registry: &mut Registry) {
        self.stats.fill_registry(registry);
        self.metrics.fill_registry(registry);
        registry.merge_histogram(
            "node_timer_lag_us",
            "How late timer callbacks fired relative to their due instant",
            &[],
            &self.timer_lag,
        );
        registry.set_gauge(
            "node_id",
            "This host's node id",
            &[],
            self.me.index() as f64,
        );
        registry.set_gauge(
            "node_peers",
            "Network size (address-book length)",
            &[],
            self.peers.len() as f64,
        );
        registry.set_gauge(
            "node_uptime_us",
            "Microseconds since the host's epoch",
            &[],
            self.now_us() as f64,
        );
        registry.set_gauge(
            "node_auth_required",
            "1 when this host requires authenticated frames",
            &[],
            if self.auth_key.is_some() { 1.0 } else { 0.0 },
        );
        if let Some(ring) = &self.trace {
            registry.add_counter(
                "trace_events_total",
                "Protocol events recorded in the trace ring",
                &[],
                ring.total(),
            );
            registry.add_counter(
                "trace_ring_overwrites_total",
                "Trace events evicted from the ring to make room",
                &[],
                ring.overwritten(),
            );
            // Causal chains reconstructed from the ring snapshot: counts,
            // depth/span distributions and the latency breakdown. A pure
            // read of the ring — reconstruction happens at scrape time.
            gossip_obs::reconstruct(ring).fill_registry(registry);
        }
        self.handler.fill_registry(registry);
    }

    /// The `/status` page: identity, uptime, the address book, wire
    /// counters and the handler's own lines. `udp_addr` is the host's
    /// bound transport address, which the core does not know itself.
    pub fn status_page(&self, udp_addr: Option<SocketAddr>) -> String {
        use std::fmt::Write;
        let now = self.now_us();
        let mut page = String::new();
        let _ = writeln!(page, "node {} of {}", self.me.index(), self.peers.len());
        let _ = writeln!(page, "uptime_us: {now}");
        if let Some(addr) = udp_addr {
            let _ = writeln!(page, "udp_addr: {addr}");
        }
        let _ = writeln!(
            page,
            "auth: {}",
            if self.auth_key.is_some() {
                "required"
            } else {
                "off"
            }
        );
        self.stats.write_wire_lines(&mut page);
        let _ = writeln!(
            page,
            "timers: {} fired, {} cancelled, lag p99 {} us",
            self.stats.timer_fires,
            self.stats.cancelled_timer_skips,
            self.timer_lag.quantile(0.99)
        );
        if let Some(ring) = &self.trace {
            let _ = writeln!(page, "causal: {}", gossip_obs::reconstruct(ring).summary());
        }
        for (key, value) in self.handler.status_lines(now) {
            let _ = writeln!(page, "{key}: {value}");
        }
        let _ = writeln!(page, "peers:");
        for (i, addr) in self.peers.iter().enumerate() {
            let marker = if i == self.me.index() { " (me)" } else { "" };
            let _ = writeln!(page, "  {i:>6}  {addr}{marker}");
        }
        page
    }

    /// Answer one status-endpoint request (`/metrics`, `/status`,
    /// `/trace`). The seam the hosts' HTTP pumps route through.
    pub fn respond(&self, req: &Request, udp_addr: Option<SocketAddr>) -> Response {
        // Query strings are meaningful on /trace and tolerated elsewhere
        // (Prometheus appends none, humans might): route on the path.
        let mut parts = req.path.splitn(2, '?');
        let path = parts.next().unwrap_or("");
        let query = parts.next().unwrap_or("");
        match path {
            "/metrics" => {
                let mut registry = Registry::new();
                self.fill_registry(&mut registry);
                Response::metrics(registry.render())
            }
            "/status" => Response::ok("text/plain", self.status_page(udp_addr)),
            "/trace" => match &self.trace {
                Some(ring) => match parse_trace_query(query) {
                    Ok(filter) => Response::ok("text/plain", ring.render_filtered(&filter)),
                    Err(detail) => Response::bad_request(&detail),
                },
                None => Response::not_found(),
            },
            _ => Response::not_found(),
        }
    }

    /// Record one trace event (no-op without a ring; never touches
    /// protocol state).
    fn trace_event(
        &mut self,
        at_us: u64,
        peer: u64,
        kind: TraceKind,
        reason: TraceReason,
        ctx: TraceCtx,
    ) {
        if let Some(ring) = &mut self.trace {
            ring.record_ctx(at_us, self.me.index() as u64, peer, kind, reason, ctx);
        }
    }

    /// Mint a root causal context for a locally-originated event — only
    /// when tracing is on. `seq` distinguishes roots of one node; never an
    /// RNG draw (passivity).
    fn root_ctx(&self, seq: u64) -> TraceCtx {
        if self.trace.is_some() {
            TraceCtx::derive(self.me.index() as u64, seq)
        } else {
            TraceCtx::NONE
        }
    }

    /// Split-borrow the core into its handler plus a mailbox over every
    /// other field, and run `f` — the socket-host analogue of the drivers'
    /// `handler_and_mailbox!`.
    fn with_mailbox(
        &mut self,
        now_us: u64,
        ctx: TraceCtx,
        sink: &mut dyn FrameSink,
        f: impl FnOnce(&mut H, &mut dyn Mailbox<H::Msg>),
    ) where
        H::Msg: WireMsg,
    {
        let NodeCore {
            me,
            peers,
            handler,
            rng,
            timers,
            timer_seq,
            cancels,
            timer_jitter_us,
            auth_key,
            metrics,
            stats,
            trace,
            ..
        } = self;
        let mut mailbox = CoreMailbox {
            me: *me,
            now_us,
            ctx,
            sink,
            peers,
            rng,
            timers,
            timer_seq,
            cancels,
            jitter_us: *timer_jitter_us,
            auth_key: auth_key.as_ref(),
            metrics,
            stats,
            trace,
            _msg: std::marker::PhantomData,
        };
        f(handler, &mut mailbox);
    }
}

impl<H: Handler + std::fmt::Debug> std::fmt::Debug for NodeCore<H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeCore")
            .field("me", &self.me)
            .field("n", &self.peers.len())
            .field("now_us", &self.now_us())
            .field("started", &self.started)
            .field("auth", &self.auth_key.is_some())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

/// Parse a `/trace` query string into a [`TraceFilter`]. Strict: unknown
/// keys, out-of-range numbers or malformed pairs are errors (a hostile
/// query gets a 400, never a partial answer).
fn parse_trace_query(query: &str) -> Result<TraceFilter, String> {
    let mut filter = TraceFilter::default();
    for pair in query.split('&') {
        if pair.is_empty() {
            continue;
        }
        let (key, value) = pair
            .split_once('=')
            .ok_or_else(|| format!("query parameter {pair:?} is not a key=value pair"))?;
        match key {
            "n" => {
                let n: usize = value
                    .parse()
                    .map_err(|_| format!("n={value:?} is not a count"))?;
                filter.last_n = Some(n);
            }
            "kind" => {
                let kind = TraceKind::parse(value)
                    .ok_or_else(|| format!("kind={value:?} is not a trace kind"))?;
                filter.kind = Some(kind);
            }
            "trace" => {
                let id = u64::from_str_radix(value.trim_start_matches("0x"), 16)
                    .map_err(|_| format!("trace={value:?} is not a hex chain id"))?;
                filter.trace_id = Some(id);
            }
            _ => return Err(format!("unknown query parameter {key:?}")),
        }
    }
    Ok(filter)
}

/// The endpoint view handed to handler callbacks: sends seal frames to
/// the address book through the [`FrameSink`], timers go to the core's
/// monotonic queue.
struct CoreMailbox<'a, M> {
    me: NodeId,
    now_us: u64,
    /// Causal context of the event being dispatched ([`TraceCtx::NONE`]
    /// when tracing is off). Sends inherit it at `hop + 1` on the wire.
    ctx: TraceCtx,
    sink: &'a mut dyn FrameSink,
    peers: &'a [SocketAddr],
    rng: &'a mut SmallRng,
    timers: &'a mut BinaryHeap<PendingTimer>,
    timer_seq: &'a mut u64,
    cancels: &'a mut HashMap<u32, u64>,
    jitter_us: u64,
    auth_key: Option<&'a AuthKey>,
    metrics: &'a mut Metrics,
    stats: &'a mut NodeStats,
    trace: &'a mut Option<TraceRing>,
    _msg: std::marker::PhantomData<fn(M)>,
}

impl<M> CoreMailbox<'_, M> {
    /// Record one trace event against this node at the callback's clock.
    #[inline]
    fn trace_event(&mut self, peer: u64, kind: TraceKind, reason: TraceReason, ctx: TraceCtx) {
        if let Some(ring) = self.trace.as_mut() {
            ring.record_ctx(self.now_us, self.me.index() as u64, peer, kind, reason, ctx);
        }
    }
}

impl<M: WireMsg> Mailbox<M> for CoreMailbox<'_, M> {
    fn me(&self) -> NodeId {
        self.me
    }

    fn n(&self) -> usize {
        self.peers.len()
    }

    fn now_us(&self) -> u64 {
        self.now_us
    }

    fn send(&mut self, to: NodeId, phase: Phase, bits: u32, msg: M) {
        let peer = to.index() as u64;
        // The outgoing frame carries this callback's causal context one
        // hop downstream (a NONE ctx encodes the exact pre-tracing frame,
        // so untraced hosts stay wire-compatible with old builds).
        let ctx = self.ctx.next_hop();
        let ok = if let Some(&addr) = self.peers.get(to.index()) {
            let payload = msg.to_wire_bytes();
            if payload.len() > MAX_PAYLOAD_BYTES {
                // Caught before the kernel sees it: an oversize datagram
                // would fail with a raw OS error indistinguishable from
                // loss at a glance. Counted separately from send_errors so
                // "your message outgrew the transport" has its own signal.
                self.stats.send_oversize += 1;
                self.trace_event(peer, TraceKind::Drop, TraceReason::Oversize, ctx);
                false
            } else {
                let frame = seal_frame(self.me, ctx, self.auth_key, &payload);
                match self.sink.send_frame(addr, &frame) {
                    Ok(_) => {
                        self.stats.datagrams_sent += 1;
                        self.stats.bytes_sent += frame.len() as u64;
                        self.trace_event(peer, TraceKind::Send, TraceReason::None, ctx);
                        true
                    }
                    Err(_) => {
                        self.stats.send_errors += 1;
                        self.trace_event(peer, TraceKind::Drop, TraceReason::SendError, ctx);
                        false
                    }
                }
            }
        } else {
            self.stats.send_errors += 1;
            self.trace_event(peer, TraceKind::Drop, TraceReason::SendError, ctx);
            false
        };
        // The modelled accounting the Mailbox contract requires:
        // `delivered` means "handed to the kernel" — real delivery is as
        // unknowable as the fire-and-forget contract says.
        self.metrics.record_send(phase, bits, ok);
    }

    fn set_timer(&mut self, delay_us: u64, timer: TimerId) {
        use rand::Rng;
        let jitter = if self.jitter_us > 0 {
            self.rng.gen_range(0..=self.jitter_us)
        } else {
            0
        };
        let at = self
            .now_us
            .saturating_add(delay_us.max(1))
            .saturating_add(jitter);
        let seq = *self.timer_seq;
        *self.timer_seq += 1;
        self.timers.push(Reverse((at, seq, timer.0)));
    }

    fn cancel_timer(&mut self, timer: TimerId) {
        // The same watermark scheme as the simulated hosts: everything
        // armed before now (seq < watermark) is suppressed at dispatch.
        self.cancels.insert(timer.0, *self.timer_seq);
    }

    fn rng_mut(&mut self) -> &mut SmallRng {
        self.rng
    }

    fn note(&mut self, peer: Option<NodeId>, reason: TraceReason) {
        // Passive: a ring store visible on `/trace`, nothing else.
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
