//! The in-process loopback harness: N socket hosts on 127.0.0.1.
//!
//! [`LoopbackCluster`] binds `n` UDP sockets on ephemeral loopback ports,
//! builds the shared address book, and round-robins the hosts'
//! non-blocking [`poll`](crate::NodeHost::poll) loops. The datagrams are
//! real: they leave through the kernel and come back through it, socket
//! buffers and all. Two pump disciplines share one pass over the hosts:
//!
//! * [`poll`](LoopbackCluster::poll), [`run_for`](LoopbackCluster::run_for)
//!   and [`run_until`](LoopbackCluster::run_until) round-robin every host
//!   on the calling thread. A convergence predicate looks at every
//!   handler between passes, which is what the integration tests, the
//!   E19 experiment and the `udp_sealed` benchmark need.
//! * [`run_parallel_until`](LoopbackCluster::run_parallel_until) runs the
//!   same pass on one worker per core: in slices of about 5 ms, each worker
//!   round-robins a contiguous chunk of the hosts on its own scoped
//!   thread. Between slices the calling thread owns every host again: it
//!   checks the predicate and the timeout and answers status scrapes.
//!   Callbacks run truly concurrently, so state that leaks across nodes or
//!   code that only works single-threaded shows up, yet the cluster needs
//!   no locks, no lifecycle and no second metrics format.

use crate::host::{NodeHost, NodeStats};
use gossip_net::{Handler, Metrics, NodeId, WireMsg};
use gossip_obs::{HttpServer, Registry, Request, Response, TraceRing};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

/// How long an idle pump pass sleeps before re-polling, to keep a waiting
/// cluster from spinning a core flat out.
const IDLE_BACKOFF: Duration = Duration::from_micros(200);

/// How long the workers of [`LoopbackCluster::run_parallel_until`] pump
/// before the calling thread checks the predicate and the status
/// endpoint again.
const SLICE: Duration = Duration::from_millis(5);

/// `n` [`NodeHost`]s on loopback sockets, pumped from the calling thread
/// or from one worker per core. See the module docs.
pub struct LoopbackCluster<H: Handler> {
    hosts: Vec<NodeHost<H>>,
    /// A cluster-wide `/metrics` + `/status` endpoint (`None` until
    /// [`serve_status`](LoopbackCluster::serve_status)).
    status: Option<HttpServer>,
}

impl<H: Handler> LoopbackCluster<H>
where
    H::Msg: WireMsg,
{
    /// Bind `n` ephemeral sockets on 127.0.0.1 and host `factory(node)` on
    /// each, all sharing one clock epoch. Fails with the socket error if
    /// the environment forbids loopback binds (sandboxed test runners do;
    /// callers skip gracefully — see the integration tests).
    pub fn bind(n: usize, seed: u64, factory: impl Fn(NodeId) -> H) -> io::Result<Self> {
        assert!(n >= 1, "a cluster needs at least one node");
        let sockets: Vec<UdpSocket> = (0..n)
            .map(|_| UdpSocket::bind(("127.0.0.1", 0)))
            .collect::<io::Result<_>>()?;
        let peers: Vec<SocketAddr> = sockets
            .iter()
            .map(UdpSocket::local_addr)
            .collect::<io::Result<_>>()?;
        let epoch = Instant::now();
        let hosts = sockets
            .into_iter()
            .enumerate()
            .map(|(i, socket)| {
                let me = NodeId::new(i);
                NodeHost::from_socket(socket, me, peers.clone(), seed, factory(me))
                    .with_epoch(epoch)
            })
            .collect();
        Ok(LoopbackCluster {
            hosts,
            status: None,
        })
    }

    /// Authenticate the whole cluster with one key: every member seals
    /// its outbound frames and rejects (counts, never panics) inbound
    /// frames that are bare or fail to verify — see
    /// [`NodeHost::with_auth_key`].
    pub fn with_auth_key(mut self, key: gossip_net::AuthKey) -> Self {
        self.hosts = self
            .hosts
            .into_iter()
            .map(|h| h.with_auth_key(key.clone()))
            .collect();
        self
    }

    /// Attach a passive trace ring of `capacity` events to every member.
    /// Each host records into its own ring; [`trace`](Self::trace) merges
    /// them for cross-node causal reconstruction.
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.hosts = self
            .hosts
            .into_iter()
            .map(|h| h.with_trace(capacity))
            .collect();
        self
    }

    /// The cluster's causal trace: every member's ring drained into one,
    /// in node-id order (`None` unless built [`with_trace`](Self::with_trace)).
    /// Causal chains span rings — a `Send` on one host and its `Recv` on
    /// another share a `trace_id` — so the merge is what the
    /// reconstructor wants.
    pub fn trace(&self) -> Option<TraceRing> {
        let capacity: usize = self
            .hosts
            .iter()
            .map(|h| h.trace().map_or(0, TraceRing::capacity))
            .sum();
        if capacity == 0 {
            return None;
        }
        let mut merged = TraceRing::new(capacity);
        for host in &self.hosts {
            if let Some(ring) = host.trace() {
                ring.clone().drain_into(&mut merged);
            }
        }
        Some(merged)
    }

    /// Serve one cluster-wide `/metrics` + `/status` endpoint at `addr`
    /// (port 0 for ephemeral); returns the bound address. Counters are the
    /// field-wise sum over every member — stats and metrics structs are
    /// merged *first* and routed through one registry, so max-style gauges
    /// stay maxima instead of summing. Pumped by
    /// [`poll`](LoopbackCluster::poll) like the member sockets, and by
    /// [`run_parallel_until`](LoopbackCluster::run_parallel_until)
    /// between slices.
    pub fn serve_status(&mut self, addr: impl std::net::ToSocketAddrs) -> io::Result<SocketAddr> {
        let server = HttpServer::bind(addr)?;
        let bound = server.local_addr()?;
        self.status = Some(server);
        Ok(bound)
    }

    /// The cluster status endpoint's bound address, if serving.
    pub fn status_addr(&self) -> Option<SocketAddr> {
        self.status.as_ref().and_then(|s| s.local_addr().ok())
    }

    /// Answer pending status-endpoint requests without pumping the member
    /// sockets (scrape-while-frozen, exactly like `NodeHost::pump_status`).
    pub fn pump_status(&mut self) -> usize {
        let Some(mut server) = self.status.take() else {
            return 0;
        };
        let served = server.poll(|req| self.respond(req));
        self.status = Some(server);
        served
    }

    /// Route the whole cluster into one registry: merged wire stats,
    /// merged modelled metrics, merged timer-lag histograms, cluster
    /// gauges, every handler's exports.
    pub fn fill_registry(&self, registry: &mut Registry) {
        // Merge the underlying structs first, then fill once: `Registry`
        // addition is right for counters but would also sum max-style
        // gauges (e.g. `gossip_max_message_bits`), which `Metrics::merge`
        // maximises correctly.
        self.total_stats().fill_registry(registry);
        let mut metrics = Metrics::new();
        let mut lag = gossip_obs::Histogram::new();
        for host in &self.hosts {
            metrics.merge(host.metrics());
            lag.merge(host.timer_lag());
        }
        metrics.fill_registry(registry);
        registry.merge_histogram(
            "node_timer_lag_us",
            "How late timer callbacks fired relative to their due instant",
            &[],
            &lag,
        );
        registry.set_gauge(
            "node_peers",
            "Network size (cluster membership)",
            &[],
            self.hosts.len() as f64,
        );
        if let Some(host) = self.hosts.first() {
            registry.set_gauge(
                "node_uptime_us",
                "Microseconds since the cluster's shared epoch",
                &[],
                host.now_us() as f64,
            );
        }
        if let Some(ring) = self.trace() {
            registry.add_counter(
                "trace_events_total",
                "Protocol events recorded into the trace rings",
                &[],
                ring.total(),
            );
            registry.add_counter(
                "trace_ring_overwrites_total",
                "Trace events lost to ring capacity",
                &[],
                self.hosts
                    .iter()
                    .filter_map(NodeHost::trace)
                    .map(TraceRing::overwritten)
                    .sum(),
            );
            gossip_obs::reconstruct(&ring).fill_registry(registry);
        }
        for host in &self.hosts {
            host.handler().fill_registry(registry);
        }
    }

    fn respond(&self, req: &Request) -> Response {
        let path = req.path.split('?').next().unwrap_or("");
        match path {
            "/metrics" => {
                let mut registry = Registry::new();
                self.fill_registry(&mut registry);
                Response::metrics(registry.render())
            }
            "/status" => Response::ok("text/plain", self.status_page()),
            _ => Response::not_found(),
        }
    }

    /// The cluster `/status` page: membership, totals, and each member's
    /// handler lines.
    fn status_page(&self) -> String {
        use std::fmt::Write;
        let mut page = String::new();
        let _ = writeln!(page, "loopback cluster of {}", self.hosts.len());
        if let Some(host) = self.hosts.first() {
            let _ = writeln!(page, "uptime_us: {}", host.now_us());
        }
        self.total_stats().write_wire_lines(&mut page);
        for host in &self.hosts {
            let now = host.now_us();
            for (key, value) in host.handler().status_lines(now) {
                let _ = writeln!(page, "node {}  {key}: {value}", host.me().index());
            }
        }
        page
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.hosts.len()
    }

    /// One member host.
    pub fn host(&self, node: NodeId) -> &NodeHost<H> {
        &self.hosts[node.index()]
    }

    /// One member host, mutably — for host-initiated protocol actions
    /// such as a graceful leave (`NodeHost::with_handler`) before the
    /// member stops being polled.
    pub fn host_mut(&mut self, node: NodeId) -> &mut NodeHost<H> {
        &mut self.hosts[node.index()]
    }

    /// All hosts, in node-id order.
    pub fn hosts(&self) -> &[NodeHost<H>] {
        &self.hosts
    }

    /// Iterate every handler with its node id.
    pub fn iter_handlers(&self) -> impl Iterator<Item = (NodeId, &H)> {
        self.hosts
            .iter()
            .enumerate()
            .map(|(i, h)| (NodeId::new(i), h.handler()))
    }

    /// Cluster-wide wire totals (field-wise sum of every host's stats).
    /// `bytes_sent` over all hosts is "bytes on the wire" for a loopback
    /// run — what E19 reports.
    pub fn total_stats(&self) -> NodeStats {
        let mut total = NodeStats::default();
        for host in &self.hosts {
            total.merge(host.stats());
        }
        total
    }

    /// One pump pass: poll every host once, in node-id order. Returns the
    /// number of callbacks dispatched across the cluster; `0` = idle.
    pub fn poll(&mut self) -> usize {
        let dispatched = pass(&mut self.hosts);
        self.pump_status();
        dispatched
    }

    /// Pump a single member, leaving the rest idle — their sockets still
    /// receive (the kernel buffers), but nothing dispatches. The handle
    /// for churn-shaped tests: a host never polled is a node that is down,
    /// and polling it later is the rejoin.
    pub fn poll_node(&mut self, node: NodeId) -> usize {
        self.hosts[node.index()].poll()
    }

    /// Pump for a wall-clock duration.
    pub fn run_for(&mut self, wall: Duration) {
        let deadline = Instant::now() + wall;
        while Instant::now() < deadline {
            if self.poll() == 0 {
                std::thread::sleep(IDLE_BACKOFF);
            }
        }
    }

    /// Pump until `done(hosts)` holds, checking between passes. Returns
    /// the elapsed wall time on success, `None` if `timeout` passed first
    /// (the cluster is left in whatever state it reached).
    pub fn run_until(
        &mut self,
        timeout: Duration,
        mut done: impl FnMut(&[NodeHost<H>]) -> bool,
    ) -> Option<Duration> {
        let started = Instant::now();
        loop {
            if done(&self.hosts) {
                return Some(started.elapsed());
            }
            if started.elapsed() >= timeout {
                return None;
            }
            if self.poll() == 0 {
                std::thread::sleep(IDLE_BACKOFF);
            }
        }
    }

    /// [`run_until`](Self::run_until) on one worker per core: in slices of
    /// about 5 ms, `W = min(n, max(2, available_parallelism()))` scoped
    /// threads each round-robin a contiguous chunk of the hosts (the floor
    /// of 2 keeps the run concurrent on a 1-CPU machine). Between slices
    /// the calling thread owns every host: it checks `done(hosts)` and the
    /// timeout and answers the status endpoint. Same return value as
    /// `run_until`, with the elapsed time read at a slice boundary; the
    /// final state is in [`hosts`](Self::hosts).
    pub fn run_parallel_until(
        &mut self,
        timeout: Duration,
        mut done: impl FnMut(&[NodeHost<H>]) -> bool,
    ) -> Option<Duration>
    where
        H: Send,
    {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let workers = self.hosts.len().min(cores.max(2));
        let chunk = self.hosts.len().div_ceil(workers);
        let started = Instant::now();
        loop {
            if done(&self.hosts) {
                return Some(started.elapsed());
            }
            let elapsed = started.elapsed();
            if elapsed >= timeout {
                return None;
            }
            let slice_end = Instant::now() + (timeout - elapsed).min(SLICE);
            std::thread::scope(|scope| {
                for hosts in self.hosts.chunks_mut(chunk) {
                    scope.spawn(move || {
                        while Instant::now() < slice_end {
                            if pass(hosts) == 0 {
                                std::thread::sleep(IDLE_BACKOFF);
                            }
                        }
                    });
                }
            });
            self.pump_status();
        }
    }
}

/// One pump pass: poll every host once, in order. Returns the number of
/// callbacks dispatched; `0` = idle. The single-thread loops run it over
/// the whole cluster, each parallel worker over its chunk.
fn pass<H: Handler>(hosts: &mut [NodeHost<H>]) -> usize
where
    H::Msg: WireMsg,
{
    hosts.iter_mut().map(NodeHost::poll).sum()
}

impl<H: Handler> std::fmt::Debug for LoopbackCluster<H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoopbackCluster")
            .field("n", &self.hosts.len())
            .finish_non_exhaustive()
    }
}
