//! Outside-in tracing: wrappers around each layer's public seam.
//!
//! Nothing here reaches inside the crates. Every wrapper forwards every
//! method of the trait it wraps — including the provided methods a backend
//! overrides — and only reads the clock around the calls, so a wrapped run
//! makes the same RNG draws, schedules the same events and returns the same
//! results as an unwrapped one. `main` checks that bit for bit on every
//! traced run.
//!
//! * [`TimedTransport`] wraps a [`Transport`] (the round-barrier facade).
//! * [`TimedHandler`] wraps a [`Handler`]; each callback gets a
//!   [`TimedMailbox`] around the host's [`Mailbox`].
//! * [`TimedSink`] wraps a socket host's [`FrameSink`].

use gossip_net::{
    Handler, Mailbox, Metrics, NodeId, PeerView, Phase, SimConfig, TimerId, Transport,
};
use gossip_node::FrameSink;
use gossip_obs::{TraceCtx, TraceReason};
use rand::rngs::SmallRng;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Calls into one seam and the wall time spent inside them.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Span {
    pub calls: u64,
    pub ns: u64,
}

impl Span {
    /// Close one call that began at `started`; returns its duration (ns).
    #[inline]
    pub fn close(&mut self, started: Instant) -> u64 {
        let ns = started.elapsed().as_nanos() as u64;
        self.calls += 1;
        self.ns += ns;
        ns
    }

    pub fn merge(&mut self, other: &Span) {
        self.calls += other.calls;
        self.ns += other.ns;
    }

    /// Mean nanoseconds per call (0 when never called).
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// A [`Transport`] that times `send` (with `send_with_retries`) and
/// `advance_round`, and notes when each round closed.
pub struct TimedTransport<T> {
    inner: T,
    pub send: Span,
    pub advance_round: Span,
    /// Duration of every `advance_round` call (µs), in call order.
    pub advance_round_us: Vec<f64>,
    /// When each round closed, in ns since the wrapper was made.
    pub round_end_ns: Vec<u64>,
    origin: Instant,
}

impl<T: Transport> TimedTransport<T> {
    pub fn new(inner: T) -> Self {
        TimedTransport {
            inner,
            send: Span::default(),
            advance_round: Span::default(),
            advance_round_us: Vec::new(),
            round_end_ns: Vec::new(),
            origin: Instant::now(),
        }
    }

    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn config(&self) -> &SimConfig {
        self.inner.config()
    }

    fn metrics(&self) -> &Metrics {
        self.inner.metrics()
    }

    fn is_alive(&self, node: NodeId) -> bool {
        self.inner.is_alive(node)
    }

    fn alive_count(&self) -> usize {
        self.inner.alive_count()
    }

    fn rng_mut(&mut self) -> &mut SmallRng {
        self.inner.rng_mut()
    }

    fn send(&mut self, from: NodeId, to: NodeId, phase: Phase, bits: u32) -> bool {
        let started = Instant::now();
        let delivered = self.inner.send(from, to, phase, bits);
        self.send.close(started);
        delivered
    }

    fn send_with_retries(
        &mut self,
        from: NodeId,
        to: NodeId,
        phase: Phase,
        bits: u32,
        max_attempts: u32,
    ) -> (u32, bool) {
        let started = Instant::now();
        let outcome = self
            .inner
            .send_with_retries(from, to, phase, bits, max_attempts);
        self.send.close(started);
        outcome
    }

    fn advance_round(&mut self) {
        let started = Instant::now();
        self.inner.advance_round();
        let ns = self.advance_round.close(started);
        self.advance_round_us.push(ns as f64 / 1_000.0);
        self.round_end_ns
            .push(self.origin.elapsed().as_nanos() as u64);
    }

    fn reset_metrics(&mut self) {
        self.inner.reset_metrics();
    }

    fn deadline_budget_us(&self) -> Option<u64> {
        self.inner.deadline_budget_us()
    }

    fn rtt_estimate_us(&self) -> Option<u64> {
        self.inner.rtt_estimate_us()
    }
}

/// What the handler wrapper needs to know about a protocol to label its
/// callbacks. Implemented here, in the benchmark, for the handlers the
/// workloads run.
pub trait Probe: Handler {
    /// Labels of the message kinds, indexed by [`Probe::msg_kind`].
    const MSG_KINDS: &'static [&'static str];
    /// Labels of the timers, indexed by [`Probe::timer_kind`].
    const TIMER_KINDS: &'static [&'static str];
    fn msg_kind(msg: &Self::Msg) -> usize;
    fn timer_kind(timer: TimerId) -> usize;
    /// A monotone count of useful outcomes (entries adopted, ...); the
    /// wrapper charges its growth to the callback that caused it.
    fn useful(&self) -> u64 {
        0
    }
}

/// Per-callback spans of the handlers of one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HandlerStats {
    /// `on_message` spans per [`Probe::MSG_KINDS`] entry.
    pub msg: Vec<Span>,
    /// `on_timer` spans per [`Probe::TIMER_KINDS`] entry.
    pub timer: Vec<Span>,
    pub start: Span,
    /// `Mailbox::send` spans inside the callbacks.
    pub mailbox_send: Span,
    /// `Mailbox::set_timer` / `cancel_timer` spans inside the callbacks.
    pub mailbox_timer: Span,
    /// Growth of [`Probe::useful`] during `on_message`.
    pub useful: u64,
}

impl HandlerStats {
    /// Empty spans for every message and timer kind of `H`.
    pub fn for_probe<H: Probe>() -> Self {
        HandlerStats {
            msg: vec![Span::default(); H::MSG_KINDS.len()],
            timer: vec![Span::default(); H::TIMER_KINDS.len()],
            ..HandlerStats::default()
        }
    }

    /// Fold in the spans of another wrapper of the same protocol.
    pub fn merge(&mut self, other: &HandlerStats) {
        let pairs = self.msg.iter_mut().zip(&other.msg);
        for (mine, theirs) in pairs.chain(self.timer.iter_mut().zip(&other.timer)) {
            mine.merge(theirs);
        }
        self.start.merge(&other.start);
        self.mailbox_send.merge(&other.mailbox_send);
        self.mailbox_timer.merge(&other.mailbox_timer);
        self.useful += other.useful;
    }

    /// Every callback span together (mailbox time included).
    pub fn callbacks(&self) -> Span {
        let mut total = self.start;
        self.msg
            .iter()
            .chain(&self.timer)
            .for_each(|s| total.merge(s));
        total
    }

    /// The handlers' own time: callback spans minus the mailbox calls
    /// they made (ns).
    pub fn self_ns(&self) -> u64 {
        self.callbacks()
            .ns
            .saturating_sub(self.mailbox_send.ns + self.mailbox_timer.ns)
    }
}

/// A [`Handler`] that times each callback and the mailbox calls made from
/// it. Hosts replace a handler at every rejoin, so each wrapper folds its
/// spans into the shared `sink` when dropped; `stats` holds the live
/// incarnation's own.
pub struct TimedHandler<H> {
    inner: H,
    pub stats: HandlerStats,
    sink: Option<Arc<Mutex<HandlerStats>>>,
}

impl<H: Probe> TimedHandler<H> {
    pub fn new(inner: H, sink: Option<Arc<Mutex<HandlerStats>>>) -> Self {
        TimedHandler {
            inner,
            stats: HandlerStats::for_probe::<H>(),
            sink,
        }
    }

    pub fn inner(&self) -> &H {
        &self.inner
    }
}

impl<H> Drop for TimedHandler<H> {
    fn drop(&mut self) {
        if let Some(sink) = &self.sink {
            sink.lock()
                .expect("a handler panicked while folding its spans")
                .merge(&self.stats);
        }
    }
}

impl<H: Probe> Handler for TimedHandler<H> {
    type Msg = H::Msg;

    fn on_start(&mut self, mailbox: &mut dyn Mailbox<H::Msg>) {
        let started = Instant::now();
        let mut timed = TimedMailbox::new(mailbox, &mut self.stats);
        self.inner.on_start(&mut timed);
        self.stats.start.close(started);
    }

    fn on_message(&mut self, from: NodeId, msg: H::Msg, mailbox: &mut dyn Mailbox<H::Msg>) {
        let kind = H::msg_kind(&msg);
        let before = self.inner.useful();
        let started = Instant::now();
        let mut timed = TimedMailbox::new(mailbox, &mut self.stats);
        self.inner.on_message(from, msg, &mut timed);
        self.stats.msg[kind].close(started);
        self.stats.useful += self.inner.useful() - before;
    }

    fn on_timer(&mut self, timer: TimerId, mailbox: &mut dyn Mailbox<H::Msg>) {
        let kind = H::timer_kind(timer);
        let started = Instant::now();
        let mut timed = TimedMailbox::new(mailbox, &mut self.stats);
        self.inner.on_timer(timer, &mut timed);
        self.stats.timer[kind].close(started);
    }

    fn fill_registry(&self, registry: &mut gossip_obs::Registry) {
        self.inner.fill_registry(registry);
    }

    fn status_lines(&self, now_us: u64) -> Vec<(String, String)> {
        self.inner.status_lines(now_us)
    }
}

/// The host's [`Mailbox`] with `send` and the timer calls timed.
pub struct TimedMailbox<'a, M> {
    inner: &'a mut dyn Mailbox<M>,
    send: &'a mut Span,
    timer: &'a mut Span,
}

impl<'a, M> TimedMailbox<'a, M> {
    fn new(inner: &'a mut dyn Mailbox<M>, stats: &'a mut HandlerStats) -> Self {
        TimedMailbox {
            inner,
            send: &mut stats.mailbox_send,
            timer: &mut stats.mailbox_timer,
        }
    }
}

impl<M> Mailbox<M> for TimedMailbox<'_, M> {
    fn me(&self) -> NodeId {
        self.inner.me()
    }

    fn n(&self) -> usize {
        self.inner.n()
    }

    fn now_us(&self) -> u64 {
        self.inner.now_us()
    }

    fn send(&mut self, to: NodeId, phase: Phase, bits: u32, msg: M) {
        let started = Instant::now();
        self.inner.send(to, phase, bits, msg);
        self.send.close(started);
    }

    fn set_timer(&mut self, delay_us: u64, timer: TimerId) {
        let started = Instant::now();
        self.inner.set_timer(delay_us, timer);
        self.timer.close(started);
    }

    fn cancel_timer(&mut self, timer: TimerId) {
        let started = Instant::now();
        self.inner.cancel_timer(timer);
        self.timer.close(started);
    }

    fn rng_mut(&mut self) -> &mut SmallRng {
        self.inner.rng_mut()
    }

    fn sample_peer(&mut self) -> NodeId {
        self.inner.sample_peer()
    }

    fn sample_peer_from(&mut self, view: &dyn PeerView) -> NodeId {
        self.inner.sample_peer_from(view)
    }

    fn note(&mut self, peer: Option<NodeId>, reason: TraceReason) {
        self.inner.note(peer, reason);
    }

    fn trace_ctx(&self) -> TraceCtx {
        self.inner.trace_ctx()
    }
}

/// A [`FrameSink`] that times every `send_frame` and keeps a copy of the
/// first frame it carried (the replay sample for the codec table).
pub struct TimedSink<S> {
    inner: S,
    pub span: Span,
    pub first_frame: Option<Vec<u8>>,
}

impl<S: FrameSink> TimedSink<S> {
    pub fn new(inner: S) -> Self {
        TimedSink {
            inner,
            span: Span::default(),
            first_frame: None,
        }
    }
}

impl<S: FrameSink> FrameSink for TimedSink<S> {
    fn send_frame(&mut self, addr: SocketAddr, frame: &[u8]) -> std::io::Result<usize> {
        let started = Instant::now();
        let sent = self.inner.send_frame(addr, frame);
        self.span.close(started);
        if self.first_frame.is_none() {
            self.first_frame = Some(frame.to_vec());
        }
        sent
    }
}
