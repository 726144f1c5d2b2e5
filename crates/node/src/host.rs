//! The socket host: one [`Handler`] on one UDP socket.
//!
//! [`NodeHost`] is the deployable counterpart of the simulator's
//! `ShardedDriver`: the same callbacks, the same [`Mailbox`] surface, but
//! `send` writes a [wire frame](gossip_net::wire) to a real
//! [`UdpSocket`] and `now_us` reads a real clock.
//!
//! A host owns everything the OS hands out — the bound socket, the receive
//! buffer, the socket's cached blocking mode and read timeout, and the
//! optional non-blocking [`HttpServer`] — and hands all protocol state to
//! a [`NodeCore`] (handler, timer queue, address book, RNG, stats, trace
//! ring, authentication key; no I/O). One private readiness pass drives
//! the core, with two entry points:
//!
//! * [`poll`](NodeHost::poll) — non-blocking: fire due timers, drain up
//!   to a batch of waiting datagrams (re-checking timers between
//!   packets), answer status scrapes, return. The loopback cluster's
//!   round-robin passes use this, on one thread or on one worker per core.
//! * [`run_until_deadline`](NodeHost::run_until_deadline) — blocking: the
//!   same pass, but the socket wait sleeps in the kernel, bounded by the
//!   next due timer and [`MAX_BLOCK_WAIT`] so timers and scrapes stay
//!   punctual. Deployed single-node loops use this.
//!
//! The event loop keeps the driver's dispatch discipline where reality
//! permits it:
//!
//! * **Timers** fire in exact `(due instant, arm order)` order — the
//!   `(timestamp, seq)` key of the simulators — from a monotonic queue
//!   that survives between loop iterations. [`Mailbox::cancel_timer`] and
//!   host-injected jitter work exactly as on the simulated hosts.
//! * **Messages** dispatch in kernel arrival order with the receive
//!   instant as their timestamp. Due timers are drained before the socket
//!   is read, so a timer is never starved by a packet burst.
//!
//! What real time *breaks* relative to virtual time is documented in
//! `DESIGN.md` §6: there is no global barrier, no replayable total order
//! across nodes, and loss/latency are whatever the network does —
//! protocols built for the simulators' failure models (idempotent merges,
//! stateless exchanges, re-arming timers) carry over; protocols that
//! secretly relied on determinism do not. Frame authentication
//! ([`NodeHost::with_auth_key`]) closes the "trusts sender ids verbatim"
//! gap: a keyed host seals every outbound frame with a truncated
//! HMAC-SHA256 tag and drops (counts, never panics) every inbound frame
//! that does not verify.

use crate::core::{NodeCore, Recv};

pub use crate::core::NodeStats;
use gossip_net::{AuthKey, Handler, Mailbox, Metrics, NodeId, WireMsg};
use gossip_obs::{Histogram, HttpServer, TraceRing};
use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::time::{Duration, Instant};

/// Largest datagram a host will accept (header + max payload).
const RECV_BUF_BYTES: usize = 1 << 16;

/// Datagrams drained per pump pass before yielding, so a flood cannot
/// starve the timer queue or the caller's loop.
const MAX_RECV_BATCH: usize = 64;

/// Ceiling on one blocking wait in
/// [`run_until_deadline`](NodeHost::run_until_deadline): the loop wakes at
/// least this often to re-check timers, deadlines and status scrapes.
/// This is the host's *poll quantum* — the worst-case lag a timer or a
/// scrape can see from the host sleeping in the kernel.
pub const MAX_BLOCK_WAIT: Duration = Duration::from_millis(10);

/// One node of a real deployment: a [`Handler`] driven by a UDP socket.
/// See the module docs for the dispatch discipline.
pub struct NodeHost<H: Handler> {
    core: NodeCore<H>,
    socket: UdpSocket,
    recv_buf: Vec<u8>,
    /// Cached blocking mode, so pump passes flip the socket option only
    /// on an actual change.
    nonblocking: bool,
    read_timeout: Option<Duration>,
    /// The `/metrics` + `/status` endpoint (`None` until
    /// [`serve_status`](NodeHost::serve_status)).
    status: Option<HttpServer>,
}

impl<H: Handler> NodeHost<H>
where
    H::Msg: WireMsg,
{
    /// Bind a fresh UDP socket at `bind_addr` (e.g. `"127.0.0.1:7000"`,
    /// port 0 for ephemeral) and host `handler` as node `me` of the
    /// cluster described by `peers`.
    pub fn bind(
        bind_addr: impl ToSocketAddrs,
        me: NodeId,
        peers: Vec<SocketAddr>,
        seed: u64,
        handler: H,
    ) -> io::Result<Self> {
        let socket = UdpSocket::bind(bind_addr)?;
        Ok(Self::from_socket(socket, me, peers, seed, handler))
    }

    /// Host `handler` on an already-bound socket. `peers.len()` is the
    /// network size `n`; `me` must index into it.
    pub fn from_socket(
        socket: UdpSocket,
        me: NodeId,
        peers: Vec<SocketAddr>,
        seed: u64,
        handler: H,
    ) -> Self {
        NodeHost {
            core: NodeCore::new(me, peers, seed, handler),
            socket,
            recv_buf: vec![0; RECV_BUF_BYTES],
            nonblocking: false,
            read_timeout: None,
            status: None,
        }
    }

    /// Share a clock origin with other hosts (a cluster passes one
    /// `Instant` to all members so their `now_us` values are comparable).
    /// Must precede [`start`](NodeHost::start).
    pub fn with_epoch(mut self, epoch: Instant) -> Self {
        self.core = self.core.with_epoch(epoch);
        self
    }

    /// Add host-injected jitter to every [`Mailbox::set_timer`]: a uniform
    /// draw in `[0, jitter_us]` from this node's stream, exactly like the
    /// simulated hosts' `with_timer_jitter_us`.
    pub fn with_timer_jitter_us(mut self, jitter_us: u64) -> Self {
        self.core = self.core.with_timer_jitter_us(jitter_us);
        self
    }

    /// Authenticate this host's traffic with the cluster key: every
    /// outbound frame is sealed with a truncated HMAC-SHA256 tag and
    /// every inbound frame must carry a tag that verifies. Bare or
    /// forged frames are counted in [`NodeStats::auth_reject`] and
    /// dropped — never fatal, never dispatched.
    pub fn with_auth_key(mut self, key: AuthKey) -> Self {
        self.core = self.core.with_auth_key(key);
        self
    }

    /// Run `on_start` once. Idempotent; [`poll`](NodeHost::poll) and the
    /// blocking loops call it implicitly.
    pub fn start(&mut self) {
        self.core.start(&mut &self.socket);
    }

    /// Run `f` against the handler with a live mailbox, outside the event
    /// loop — for host-initiated protocol actions such as announcing a
    /// graceful departure (`--leave`) just before shutdown. Sends go to
    /// the socket immediately; timers and RNG draws behave exactly as in
    /// a callback. Starts the host if it has not started yet, so the
    /// handler is never observed pre-`on_start`.
    pub fn with_handler(&mut self, f: impl FnOnce(&mut H, &mut dyn Mailbox<H::Msg>)) {
        self.core.with_handler(&mut &self.socket, f);
    }

    /// One non-blocking pump: fire every due timer, then drain up to a
    /// batch of waiting datagrams (re-checking timers between packets).
    /// Returns the number of callbacks dispatched; `0` means idle. Never
    /// blocks — the loopback cluster round-robins this across hosts.
    pub fn poll(&mut self) -> usize {
        self.pump(None)
    }

    /// Blocking event loop until `deadline`: sleeps in the kernel on the
    /// socket (bounded by the next timer's due instant), wakes for
    /// datagrams and timers, returns when the deadline passes.
    pub fn run_until_deadline(&mut self, deadline: Instant) {
        loop {
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            self.pump(Some(deadline - now));
        }
    }

    /// [`run_until_deadline`](NodeHost::run_until_deadline) for a duration.
    pub fn run_for(&mut self, wall: Duration) {
        self.run_until_deadline(Instant::now() + wall);
    }

    /// Answer any pending status-endpoint requests. Called by the event
    /// loops; callable directly when the host is otherwise paused (a test
    /// scraping `/metrics` mid-run against frozen stats does exactly
    /// this). Returns the number of requests served.
    ///
    /// The socket address for `/status` is looked up per request served,
    /// so a pass with no server, or no pending request, makes no syscall.
    pub fn pump_status(&mut self) -> usize {
        let (core, socket) = (&self.core, &self.socket);
        match &mut self.status {
            Some(server) => server.poll(|req| core.respond(req, socket.local_addr().ok())),
            None => 0,
        }
    }

    /// One readiness pass over the core — the single event loop behind
    /// both entry points (see the module docs). `wait` is the largest
    /// time this call may spend blocked in the kernel: `None` never
    /// blocks; `Some(budget)` sleeps on the socket for up to
    /// `budget.min(`[`MAX_BLOCK_WAIT`]`)`, additionally bounded by the
    /// next due timer so timers never lag more than one poll quantum
    /// behind a sleeping socket. Returns the number of callbacks
    /// dispatched; `0` means the pass was idle.
    fn pump(&mut self, wait: Option<Duration>) -> usize {
        self.core.start(&mut &self.socket);
        let mut dispatched = self.core.fire_due_timers(&mut &self.socket);
        match wait {
            None => {
                self.set_nonblocking(true);
                for _ in 0..MAX_RECV_BATCH {
                    match self.recv_one() {
                        Recv::Dispatched => dispatched += 1,
                        Recv::Rejected | Recv::Error => {} // counted, not dispatched
                        Recv::Idle => break,               // nothing waiting
                    }
                    dispatched += self.core.fire_due_timers(&mut &self.socket);
                }
            }
            Some(budget) => {
                self.set_nonblocking(false);
                let mut wait = budget.min(MAX_BLOCK_WAIT);
                if let Some(until_due) = self.core.until_next_timer() {
                    wait = wait.min(until_due);
                }
                // set_read_timeout(Some(0)) is an error; anything due
                // fires on the next pump anyway.
                self.set_read_timeout(wait.max(Duration::from_micros(100)));
                if let Recv::Error = self.recv_one() {
                    // A socket in a persistent error state returns
                    // instantly instead of sleeping on its timeout; back
                    // off so the loop cannot busy-spin a core — but never
                    // past the next due timer (or the caller's budget),
                    // so an erroring socket cannot add timer lag.
                    let mut backoff = Duration::from_millis(1).min(budget);
                    if let Some(until_due) = self.core.until_next_timer() {
                        backoff = backoff.min(until_due);
                    }
                    std::thread::sleep(backoff);
                } else {
                    dispatched += self.core.fire_due_timers(&mut &self.socket);
                }
            }
        }
        self.pump_status();
        dispatched
    }

    /// Receive and deliver one datagram into the core.
    fn recv_one(&mut self) -> Recv {
        let (len, src) = match self.socket.recv_from(&mut self.recv_buf) {
            Ok(got) => got,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Recv::Idle,
            Err(e) if e.kind() == io::ErrorKind::TimedOut => return Recv::Idle,
            // Other kernel-level errors (e.g. a previous send's ICMP
            // port-unreachable surfacing on Linux) are not fatal to the
            // loop, but they are counted — and the blocking pump backs off
            // on them, since an erroring socket returns without sleeping.
            Err(_) => {
                self.core.note_recv_error();
                return Recv::Error;
            }
        };
        self.core
            .on_datagram(&self.recv_buf[..len], src, &mut &self.socket)
    }

    fn set_nonblocking(&mut self, nonblocking: bool) {
        if self.nonblocking != nonblocking {
            // Failing to flip the mode would hang the loop; this is the
            // one socket option the host cannot run without.
            self.socket
                .set_nonblocking(nonblocking)
                .expect("set_nonblocking is supported on every UDP target");
            self.nonblocking = nonblocking;
        }
    }

    /// Bound one blocking receive, so the blocking pump wakes for timers,
    /// deadlines and status scrapes.
    fn set_read_timeout(&mut self, timeout: Duration) {
        if self.read_timeout != Some(timeout) {
            self.socket
                .set_read_timeout(Some(timeout))
                .expect("set_read_timeout accepts any positive duration");
            self.read_timeout = Some(timeout);
        }
    }
}

impl<H: Handler> NodeHost<H> {
    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.core.me()
    }

    /// Network size (address-book length).
    pub fn n(&self) -> usize {
        self.core.n()
    }

    /// The socket's actual bound address (useful after binding port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Microseconds since the host's epoch — what handler callbacks see as
    /// [`Mailbox::now_us`].
    pub fn now_us(&self) -> u64 {
        self.core.now_us()
    }

    /// The hosted handler.
    pub fn handler(&self) -> &H {
        self.core.handler()
    }

    /// Wire-level counters.
    pub fn stats(&self) -> &NodeStats {
        self.core.stats()
    }

    /// Modelled protocol metrics (the `bits` accounting every backend
    /// keeps). `delivered` here means "handed to the kernel" — a datagram's
    /// real fate is unknowable at the sender, exactly like the fire-and-
    /// forget contract of [`Mailbox::send`].
    pub fn metrics(&self) -> &Metrics {
        self.core.metrics()
    }

    /// The per-node protocol engine (everything that is not I/O).
    pub fn core(&self) -> &NodeCore<H> {
        &self.core
    }

    /// Keep the last `capacity` protocol events (sends, receives, timer
    /// fires, drops with reasons) in a bounded ring, inspectable via
    /// [`trace`](NodeHost::trace) and the `/trace` endpoint. Purely
    /// passive: recording never touches the RNG, the timers or the socket.
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.core = self.core.with_trace(capacity);
        self
    }

    /// The protocol event log (`None` unless
    /// [`with_trace`](NodeHost::with_trace) enabled it).
    pub fn trace(&self) -> Option<&TraceRing> {
        self.core.trace()
    }

    /// How late timer callbacks ran relative to their due instant
    /// (real-clock µs): the host's scheduling-quality signal.
    pub fn timer_lag(&self) -> &Histogram {
        self.core.timer_lag()
    }

    /// Serve `/metrics` (Prometheus text exposition), `/status` (human-
    /// readable node summary) and `/trace` (the event ring, if enabled) on
    /// a TCP listener at `addr` (port 0 for ephemeral). Returns the bound
    /// address. The server is non-blocking and is pumped from the host's
    /// own event loops ([`poll`](NodeHost::poll),
    /// [`run_until_deadline`](NodeHost::run_until_deadline)) — no thread,
    /// no executor. Scrapes observe the host between callbacks, never
    /// during one.
    pub fn serve_status(&mut self, addr: impl ToSocketAddrs) -> io::Result<SocketAddr> {
        let server = HttpServer::bind(addr)?;
        let bound = server.local_addr()?;
        self.status = Some(server);
        Ok(bound)
    }

    /// The status endpoint's bound address, if serving.
    pub fn status_addr(&self) -> Option<SocketAddr> {
        self.status.as_ref().and_then(|s| s.local_addr().ok())
    }

    /// Route everything this host knows into one registry: wire counters,
    /// modelled protocol metrics, the timer-lag histogram, the trace
    /// ring's totals, host gauges and whatever the handler exports.
    pub fn fill_registry(&self, registry: &mut gossip_obs::Registry) {
        self.core.fill_registry(registry);
    }
}

impl<H: Handler + std::fmt::Debug> std::fmt::Debug for NodeHost<H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeHost")
            .field("core", &self.core)
            .field("local_addr", &self.socket.local_addr().ok())
            .field("nonblocking", &self.nonblocking)
            .field("status", &self.status_addr())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_net::TimerId;

    /// A handler that never sends: the host's I/O is all this test drives.
    struct Silent;

    impl Handler for Silent {
        type Msg = u64;
        fn on_start(&mut self, _: &mut dyn Mailbox<u64>) {}
        fn on_message(&mut self, _: NodeId, _: u64, _: &mut dyn Mailbox<u64>) {}
        fn on_timer(&mut self, _: TimerId, _: &mut dyn Mailbox<u64>) {}
    }

    #[test]
    fn pump_status_without_a_server_serves_nothing() {
        let socket = match UdpSocket::bind(("127.0.0.1", 0)) {
            Ok(socket) => socket,
            Err(e) if cfg!(feature = "sockets-required") => {
                panic!("sockets-required is on but loopback binding failed: {e}")
            }
            Err(_) => return, // the sandbox forbids binds
        };
        let me = socket.local_addr().expect("bound socket has an address");
        let mut host = NodeHost::from_socket(socket, NodeId::new(0), vec![me], 1, Silent);
        assert_eq!(host.status_addr(), None);
        assert_eq!(host.pump_status(), 0);
    }
}
