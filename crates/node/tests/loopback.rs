//! Socket-host integration tests: real datagrams on 127.0.0.1.
//!
//! Every test begins with [`sockets_available`] and skips gracefully when
//! the environment forbids loopback binds (sandboxed runners). CI runs
//! these twice: once in the ordinary suite (skip allowed) and once in the
//! dedicated loopback job with `--features sockets-required`, where a
//! skip is a failure.

use gossip_net::{
    seal_frame, Handler, Mailbox, NodeId, Phase, TimerId, WireError, WireMsg, WireReader,
    WireWriter,
};
use gossip_node::LoopbackCluster;
use gossip_obs::TraceCtx;
use std::time::Duration;

/// Probe for loopback UDP. Under `--features sockets-required` a failed
/// probe panics instead of skipping.
fn sockets_available() -> bool {
    match std::net::UdpSocket::bind(("127.0.0.1", 0)) {
        Ok(_) => true,
        Err(e) if cfg!(feature = "sockets-required") => {
            panic!("sockets-required is on but loopback UDP binding failed: {e}")
        }
        Err(e) => {
            eprintln!("skipping loopback test: UDP bind unavailable ({e})");
            false
        }
    }
}

const GENEROUS: Duration = Duration::from_secs(20);

/// Interval-driven rumor flooding — the same shape the driver test suites
/// use, now over real sockets.
#[derive(Debug, Clone)]
struct Rumor {
    tokens: Vec<u32>,
    tick_us: u64,
}

const TICK: TimerId = TimerId(7);

impl Handler for Rumor {
    type Msg = Vec<u32>;

    fn on_start(&mut self, mailbox: &mut dyn Mailbox<Vec<u32>>) {
        if mailbox.me().index() == 0 {
            self.tokens.push(42);
        }
        mailbox.set_timer(gossip_net::stagger_us(mailbox.me(), self.tick_us, 0), TICK);
    }

    fn on_message(&mut self, _from: NodeId, msg: Vec<u32>, _mailbox: &mut dyn Mailbox<Vec<u32>>) {
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
            mailbox.send(peer, Phase::Rumor, bits, self.tokens.clone());
        }
        mailbox.set_timer(self.tick_us, TICK);
    }
}

#[test]
fn rumor_floods_a_loopback_cluster() {
    if !sockets_available() {
        return;
    }
    let mut cluster = LoopbackCluster::bind(12, 0xFEED, |_| Rumor {
        tokens: Vec::new(),
        tick_us: 1_000,
    })
    .expect("bind 12 loopback sockets");
    let converged = cluster.run_until(GENEROUS, |hosts| {
        hosts.iter().all(|h| h.handler().tokens.contains(&42))
    });
    assert!(converged.is_some(), "rumor must flood all 12 nodes");
    let totals = cluster.total_stats();
    assert!(totals.datagrams_sent > 0);
    assert!(totals.messages_dispatched > 0);
    assert_eq!(totals.handler_starts, 12);
    assert_eq!(totals.decode_errors, 0, "our own frames always decode");
    assert_eq!(totals.addr_mismatches, 0, "loopback sources match the book");
}

/// A failure-detector shape: each node arms a long "suspect" timer and a
/// short heartbeat tick; receiving any message cancels and re-arms the
/// suspect timer. With everyone heartbeating, suspicion must never fire —
/// the cancel path, exercised over real sockets.
#[derive(Debug, Clone, Default)]
struct Suspecting {
    suspicions: u32,
    heartbeats_seen: u32,
}

const HEARTBEAT: TimerId = TimerId(0);
const SUSPECT: TimerId = TimerId(1);
const HEARTBEAT_US: u64 = 1_000;
const SUSPECT_US: u64 = 500_000; // far beyond the test horizon

impl Handler for Suspecting {
    type Msg = u32;

    fn on_start(&mut self, mailbox: &mut dyn Mailbox<u32>) {
        mailbox.set_timer(
            gossip_net::stagger_us(mailbox.me(), HEARTBEAT_US, 1),
            HEARTBEAT,
        );
        mailbox.set_timer(SUSPECT_US, SUSPECT);
    }

    fn on_message(&mut self, _from: NodeId, _msg: u32, mailbox: &mut dyn Mailbox<u32>) {
        self.heartbeats_seen += 1;
        mailbox.cancel_timer(SUSPECT);
        mailbox.set_timer(SUSPECT_US, SUSPECT);
    }

    fn on_timer(&mut self, timer: TimerId, mailbox: &mut dyn Mailbox<u32>) {
        match timer {
            HEARTBEAT => {
                let peer = mailbox.sample_peer();
                mailbox.send(peer, Phase::Other, 32, 1);
                mailbox.set_timer(HEARTBEAT_US, HEARTBEAT);
            }
            SUSPECT => self.suspicions += 1,
            other => panic!("unexpected timer {other}"),
        }
    }
}

#[test]
fn cancel_timer_works_over_real_sockets() {
    if !sockets_available() {
        return;
    }
    let mut cluster = LoopbackCluster::bind(8, 0xCA9CE1, |_| Suspecting::default())
        .expect("bind 8 loopback sockets");
    let enough = cluster.run_until(GENEROUS, |hosts| {
        hosts.iter().all(|h| h.handler().heartbeats_seen >= 5)
    });
    assert!(enough.is_some(), "heartbeats flow on loopback");
    for (node, h) in cluster.iter_handlers() {
        assert_eq!(h.suspicions, 0, "node {node:?} raised a false suspicion");
    }
    // Cancels actually suppressed pending timers (each heartbeat received
    // leaves one dead SUSPECT entry behind; none may fire, and the skip
    // counter proves the queue was actually exercised, not just empty).
    cluster.run_for(Duration::from_millis(5));
    let stats = cluster.total_stats();
    assert_eq!(
        stats.cancelled_timer_skips, 0,
        "suppressed suspect timers are not due yet — they sit half a second out"
    );
}

/// Hand-rolled one-way message so a raw socket can talk to a host.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Ping(u64);

impl WireMsg for Ping {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(self.0);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Ping(r.take_u64()?))
    }
}

#[derive(Debug, Default)]
struct PingCount {
    received: Vec<u64>,
}

impl Handler for PingCount {
    type Msg = Ping;
    fn on_start(&mut self, _mailbox: &mut dyn Mailbox<Ping>) {}
    fn on_message(&mut self, _from: NodeId, msg: Ping, _mailbox: &mut dyn Mailbox<Ping>) {
        self.received.push(msg.0);
    }
    fn on_timer(&mut self, _timer: TimerId, _mailbox: &mut dyn Mailbox<Ping>) {}
}

#[test]
fn hostile_datagrams_are_counted_never_fatal() {
    if !sockets_available() {
        return;
    }
    let mut cluster =
        LoopbackCluster::bind(2, 1, |_| PingCount::default()).expect("bind 2 sockets");
    cluster.poll(); // boot
    let target = cluster.host(NodeId::new(0)).local_addr().unwrap();
    let attacker = std::net::UdpSocket::bind(("127.0.0.1", 0)).unwrap();

    // Garbage, a truncated frame, a version-skewed frame, and a frame from
    // a sender id outside the cluster.
    attacker.send_to(b"not a frame at all", target).unwrap();
    let good = seal_frame(
        NodeId::new(1),
        TraceCtx::NONE,
        None,
        &Ping(7).to_wire_bytes(),
    );
    attacker.send_to(&good[..good.len() / 2], target).unwrap();
    let mut skewed = good.clone();
    skewed[2] ^= 0x40;
    attacker.send_to(&skewed, target).unwrap();
    let foreign = seal_frame(
        NodeId::new(99),
        TraceCtx::NONE,
        None,
        &Ping(13).to_wire_bytes(),
    );
    attacker.send_to(&foreign, target).unwrap();
    // And one well-formed frame claiming to be node 1 (source mismatch:
    // the attacker's port, not node 1's).
    attacker.send_to(&good, target).unwrap();

    // Give the kernel a moment, then pump.
    std::thread::sleep(Duration::from_millis(20));
    for _ in 0..50 {
        cluster.poll();
    }
    let stats = *cluster.host(NodeId::new(0)).stats();
    assert_eq!(stats.decode_errors, 3, "garbage + truncated + skewed");
    assert_eq!(stats.unknown_sender_drops, 1, "sender id 99 rejected");
    assert_eq!(stats.addr_mismatches, 1, "spoofed source counted");
    assert_eq!(
        cluster.host(NodeId::new(0)).handler().received,
        vec![7],
        "the well-formed spoof still delivers (simulation-grade trust)"
    );
}

#[test]
fn timer_jitter_still_fires_and_spreads_arming() {
    if !sockets_available() {
        return;
    }
    // Jittered hosts must keep working; jitter itself is probabilistic, so
    // the assertion is liveness (ticks fire) not spacing.
    let sockets: Vec<std::net::UdpSocket> = (0..2)
        .map(|_| std::net::UdpSocket::bind(("127.0.0.1", 0)).unwrap())
        .collect();
    let peers: Vec<std::net::SocketAddr> =
        sockets.iter().map(|s| s.local_addr().unwrap()).collect();
    let mut hosts: Vec<_> = sockets
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            gossip_node::NodeHost::from_socket(
                s,
                NodeId::new(i),
                peers.clone(),
                9,
                Rumor {
                    tokens: Vec::new(),
                    tick_us: 500,
                },
            )
            .with_timer_jitter_us(400)
        })
        .collect();
    let deadline = std::time::Instant::now() + Duration::from_millis(50);
    while std::time::Instant::now() < deadline {
        for h in &mut hosts {
            h.poll();
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    for h in &hosts {
        assert!(h.stats().timer_fires >= 10, "jittered ticks keep firing");
    }
}

/// A handler whose first send is deliberately larger than one datagram
/// (a `Vec<u64>` beyond `MAX_PAYLOAD_BYTES`), followed by a normal-sized
/// send — the oversize-send path in isolation.
#[derive(Debug, Clone, Default)]
struct Oversender {
    replies_seen: u32,
}

impl Handler for Oversender {
    type Msg = Vec<u64>;

    fn on_start(&mut self, mailbox: &mut dyn Mailbox<Vec<u64>>) {
        if mailbox.me().index() == 0 {
            // 4 + 9_000 × 8 bytes of payload: beyond the 65,000-byte frame
            // ceiling. Detected before the kernel; counted, not sent, and
            // emphatically not a panic.
            mailbox.send(NodeId::new(1), Phase::Other, 32, vec![7u64; 9_000]);
            // A sane message right after: the socket must still work.
            mailbox.send(NodeId::new(1), Phase::Other, 32, vec![42u64]);
        }
    }

    fn on_message(&mut self, _from: NodeId, msg: Vec<u64>, _mailbox: &mut dyn Mailbox<Vec<u64>>) {
        assert_eq!(msg, vec![42u64], "the oversize datagram never arrives");
        self.replies_seen += 1;
    }

    fn on_timer(&mut self, _timer: TimerId, _mailbox: &mut dyn Mailbox<Vec<u64>>) {}
}

#[test]
fn oversize_sends_are_counted_and_dropped_before_the_kernel() {
    if !sockets_available() {
        return;
    }
    let mut cluster =
        LoopbackCluster::bind(2, 0xB16, |_| Oversender::default()).expect("bind 2 sockets");
    let got_it = cluster.run_until(GENEROUS, |hosts| hosts[1].handler().replies_seen >= 1);
    assert!(got_it.is_some(), "the normal-sized follow-up send arrives");
    let sender = cluster.host(NodeId::new(0)).stats();
    assert_eq!(sender.send_oversize, 1, "the oversize send was counted");
    assert_eq!(sender.datagrams_sent, 1, "only the sane datagram left");
    assert_eq!(
        sender.send_errors, 0,
        "oversize is its own signal, not a kernel error"
    );
    // The modelled ledger saw both attempts; the oversize one as undelivered.
    let metrics = cluster.host(NodeId::new(0)).metrics();
    assert_eq!(metrics.total_messages(), 2);
    assert_eq!(metrics.total_dropped(), 1);
}

/// A bucket brigade: node 0 launches a token at boot; every node that
/// receives it forwards to the next id. One logical cause — the boot —
/// crosses the whole cluster through real sockets, which is exactly what
/// the causal trace must reconstruct as ONE chain.
#[derive(Debug, Clone, Default)]
struct Relay {
    saw_token: bool,
}

impl Handler for Relay {
    type Msg = u32;

    fn on_start(&mut self, mailbox: &mut dyn Mailbox<u32>) {
        if mailbox.me().index() == 0 {
            mailbox.send(NodeId::new(1), Phase::Other, 32, 7);
        }
    }

    fn on_message(&mut self, _from: NodeId, msg: u32, mailbox: &mut dyn Mailbox<u32>) {
        self.saw_token = true;
        let next = mailbox.me().index() + 1;
        if next < mailbox.n() {
            mailbox.send(NodeId::new(next), Phase::Other, 32, msg);
        }
    }

    fn on_timer(&mut self, _timer: TimerId, _mailbox: &mut dyn Mailbox<u32>) {}
}

#[test]
fn one_causal_chain_crosses_four_real_hosts() {
    if !sockets_available() {
        return;
    }
    use gossip_obs::TraceKind;

    let n = 4;
    let mut cluster =
        LoopbackCluster::bind(n, 0xCA5A, |_| Relay::default()).expect("bind 4 sockets");
    cluster = cluster.with_trace(256);
    let relayed = cluster.run_until(GENEROUS, |hosts| {
        hosts.iter().skip(1).all(|h| h.handler().saw_token)
    });
    assert!(relayed.is_some(), "the token must reach every host");

    // The whole brigade hangs off node 0's boot: every hop of the relay
    // — Send at node i, Recv at node i+1, across real kernel sockets —
    // must carry the SAME chain id, with the hop counter ticking up by
    // one per wire crossing.
    let ring = cluster.trace().expect("tracing enabled");
    let chain_id = ring
        .iter()
        .find(|e| e.kind == TraceKind::Send && e.node == 0 && e.peer == 1)
        .expect("node 0's boot send is in the ring")
        .trace_id;
    assert_ne!(chain_id, 0, "the boot send was minted a chain id");

    let mut chain: Vec<_> = ring.iter().filter(|e| e.trace_id == chain_id).collect();
    chain.sort_by_key(|e| (e.hop, e.kind != TraceKind::Send));
    // Send 0→1 at hop 1, Recv at 1; Send 1→2 at hop 2, Recv at 2; ...
    for step in 1..n as u64 {
        let hop = step as u8;
        assert!(
            chain
                .iter()
                .any(|e| e.kind == TraceKind::Send && e.node == step - 1 && e.hop == hop),
            "missing Send node {} hop {hop} on chain {chain_id:016x}",
            step - 1
        );
        assert!(
            chain
                .iter()
                .any(|e| e.kind == TraceKind::Recv && e.node == step && e.hop == hop),
            "missing Recv node {step} hop {hop} on chain {chain_id:016x}"
        );
    }
    // Three distinct hosts (beyond the origin) took part in this one chain.
    let hosts_on_chain: std::collections::HashSet<u64> = chain.iter().map(|e| e.node).collect();
    assert!(
        hosts_on_chain.len() >= n,
        "chain covered only {hosts_on_chain:?}"
    );

    // And the chain id is exactly what a `/trace?trace=` query would
    // match — the ring renders it in the same hex the filter parses.
    let rendered = ring.render_filtered(&gossip_obs::TraceFilter {
        trace_id: Some(chain_id),
        ..Default::default()
    });
    assert!(rendered.contains(&format!("trace {chain_id:016x}/1")));
}

/// Regression for the blocking loop's backoff: timer lag under bursty
/// traffic must stay within one poll quantum ([`MAX_BLOCK_WAIT`]). The
/// old loop slept a hard-coded 1 ms on socket errors regardless of what
/// was due; the host bounds every wait — including the error backoff —
/// by the next due timer.
#[test]
fn timer_lag_stays_within_one_poll_quantum_under_bursts() {
    use gossip_node::MAX_BLOCK_WAIT;

    if !sockets_available() {
        return;
    }
    let socket = std::net::UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    let target = socket.local_addr().unwrap();
    let mut host =
        gossip_node::NodeHost::from_socket(socket, NodeId::new(0), vec![target], 3, Tick);

    // A background flood: bursts of garbage and well-formed frames, far
    // faster than the 2 ms tick, for the whole run.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let flooder = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let gun = std::net::UdpSocket::bind(("127.0.0.1", 0)).unwrap();
            let frame = seal_frame(NodeId::new(0), TraceCtx::NONE, None, &0u64.to_wire_bytes());
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                for _ in 0..64 {
                    let _ = gun.send_to(&frame, target);
                    let _ = gun.send_to(b"burst garbage", target);
                }
                std::thread::sleep(Duration::from_micros(500));
            }
        })
    };

    host.run_for(Duration::from_millis(300));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    flooder.join().unwrap();

    let fires = host.stats().timer_fires;
    assert!(fires >= 50, "ticks kept firing under the burst ({fires})");
    assert!(
        host.stats().messages_dispatched > 0,
        "the burst actually reached the host"
    );
    let p99 = host.timer_lag().quantile(0.99);
    let quantum = MAX_BLOCK_WAIT.as_micros() as u64;
    assert!(
        p99 <= quantum,
        "timer lag p99 {p99} us exceeds the {quantum} us poll quantum"
    );
}

/// A 2 ms self-re-arming tick that ignores all messages — the probe
/// handler for the timer-lag regression above.
#[derive(Debug, Clone, Default)]
struct Tick;

impl Handler for Tick {
    type Msg = u64;
    fn on_start(&mut self, mailbox: &mut dyn Mailbox<u64>) {
        mailbox.set_timer(2_000, TICK);
    }
    fn on_message(&mut self, _from: NodeId, _msg: u64, _mailbox: &mut dyn Mailbox<u64>) {}
    fn on_timer(&mut self, _timer: TimerId, mailbox: &mut dyn Mailbox<u64>) {
        mailbox.set_timer(2_000, TICK);
    }
}

#[test]
fn authenticated_cluster_converges_and_rejects_hostile_frames() {
    use gossip_net::AuthKey;

    if !sockets_available() {
        return;
    }
    let key = AuthKey::from_passphrase("loopback-cluster-key");
    let mut cluster = LoopbackCluster::bind(8, 0x5EA1, |_| Rumor {
        tokens: Vec::new(),
        tick_us: 1_000,
    })
    .expect("bind 8 loopback sockets")
    .with_auth_key(key.clone());

    // Hostile traffic against member 0 throughout: a bare (legacy) frame,
    // a tampered sealed frame, and a frame sealed under the wrong key.
    cluster.poll(); // boot so local_addr is live
    let target = cluster.host(NodeId::new(0)).local_addr().unwrap();
    let attacker = std::net::UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    let payload = vec![666u32].to_wire_bytes();
    let bare = seal_frame(NodeId::new(1), TraceCtx::NONE, None, &payload);
    attacker.send_to(&bare, target).unwrap();
    let mut tampered = seal_frame(NodeId::new(1), TraceCtx::NONE, Some(&key), &payload);
    let last = tampered.len() - 1;
    tampered[last] ^= 0x01;
    attacker.send_to(&tampered, target).unwrap();
    let wrong_key = AuthKey::from_passphrase("not-the-cluster-key");
    let forged = seal_frame(NodeId::new(1), TraceCtx::NONE, Some(&wrong_key), &payload);
    attacker.send_to(&forged, target).unwrap();

    // The protocol still converges around the hostile traffic.
    let converged = cluster.run_until(GENEROUS, |hosts| {
        hosts.iter().all(|h| h.handler().tokens.contains(&42))
    });
    assert!(converged.is_some(), "auth cluster still floods the rumor");

    let stats = *cluster.host(NodeId::new(0)).stats();
    assert_eq!(stats.auth_reject, 3, "bare + tampered + wrong key");
    assert_eq!(stats.decode_errors, 0, "auth rejects are their own count");
    for (node, h) in cluster.iter_handlers() {
        assert!(
            !h.tokens.contains(&666),
            "node {node:?} accepted a forged token"
        );
    }
}
