//! [`LoopbackCluster::run_parallel_until`] integration: real parallelism,
//! one process.
//!
//! The headline test runs **64 nodes on one worker thread per core** —
//! SWIM membership discovering the cluster from one seed, Merkle-digest
//! anti-entropy reconciling over the discovered view, every frame sealed
//! with a cluster auth key — while an attacker thread floods members with
//! bare, tampered, and wrong-key frames. Convergence is asserted on every
//! node (order-independent, bit-for-bit equal stores), forgeries must be
//! counted in `auth_reject` and never adopted, and the reject rate must
//! stay flat across soak windows (the E22 discipline: a reject path that
//! leaks or stalls shows up as a rate trend, not a crash).
//!
//! Skips gracefully where loopback binds are forbidden; under
//! `--features sockets-required` a skip is a failure.

use gossip_ae::protocol::{AeConfig, AeNode, DigestMode};
use gossip_ae::signal::SignalModel;
use gossip_member::{Member, MemberConfig};
use gossip_net::{seal_frame, AuthKey, NodeId};
use gossip_node::{LoopbackCluster, NodeHost};
use gossip_obs::{Registry, TraceCtx};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

const GENEROUS: Duration = Duration::from_secs(30);

fn ae_config() -> AeConfig {
    // Static signal, no expiry: converged stores are bit-identical across
    // nodes, so cross-node equality is exact, not approximate.
    AeConfig::default()
        .with_tick_us(2_000)
        .with_update_us(0)
        .with_expiry_us(0)
        .with_signal(SignalModel::uniform(0.0, 10_000.0))
        .with_digest_mode(DigestMode::Merkle)
}

fn ae_cluster(n: usize, seed: u64) -> LoopbackCluster<AeNode> {
    let ae = ae_config();
    LoopbackCluster::bind(n, seed, move |me| {
        let sim = gossip_net::SimConfig::new(n);
        AeNode::new(me, n, sim.id_bits(), sim.value_bits(), ae)
    })
    .expect("bind loopback cluster")
}

fn reconciled(hosts: &[NodeHost<AeNode>]) -> bool {
    hosts
        .iter()
        .all(|h| h.handler().store().known() == hosts.len())
}

/// Scrape `path` from the cluster endpoint while `run_parallel_until`
/// runs. The request goes out before the run; the run answers it between
/// two slices, and the predicate, which runs right after that answer and
/// before any further slice, reads the response to its end and stops the
/// run. So the page shows exactly the state the cluster holds when the
/// call returns. Returns the body.
fn scrape_mid_run(cluster: &mut LoopbackCluster<AeNode>, path: &str) -> String {
    let addr = cluster.status_addr().expect("the cluster serves status");
    let mut stream = TcpStream::connect(addr).expect("connect to status endpoint");
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").expect("send request");
    stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .expect("read timeout");
    let mut raw = Vec::new();
    let answered = cluster.run_parallel_until(GENEROUS, |_| {
        let mut buf = [0u8; 4096];
        loop {
            match stream.read(&mut buf) {
                Ok(0) => return true, // Connection: close — the response is complete
                Ok(k) => raw.extend_from_slice(&buf[..k]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return false
                }
                Err(e) => panic!("read failed: {e}"),
            }
        }
    });
    assert!(
        answered.is_some(),
        "the scrape of {path} was never answered"
    );
    let text = String::from_utf8(raw).expect("responses are UTF-8");
    let (head, body) = text
        .split_once("\r\n\r\n")
        .expect("response has a blank line");
    assert_eq!(head.split_whitespace().nth(1), Some("200"), "{head}");
    body.to_string()
}

/// Drop the one real-clock gauge so scrapes compare byte-exact.
fn strip_uptime(metrics: &str) -> String {
    metrics
        .lines()
        .filter(|l| !l.contains("node_uptime_us"))
        .fold(String::new(), |mut s, l| {
            s.push_str(l);
            s.push('\n');
            s
        })
}

#[test]
fn sixty_four_nodes_on_per_core_workers_converge_under_auth_and_hostile_traffic() {
    if !sockets_available() {
        return;
    }
    let n = 64;
    let key = AuthKey::from_passphrase("parallel-cluster-integration");
    let member_config =
        MemberConfig::with_seeds(vec![NodeId::new(0)]).with_probe_interval_us(50_000);
    let ae = ae_config();
    let mut cluster = LoopbackCluster::bind(n, 0x64, move |me| {
        let sim = gossip_net::SimConfig::new(n);
        Member::new(
            member_config.clone(),
            AeNode::new(me, n, sim.id_bits(), sim.value_bits(), ae),
        )
    })
    .expect("bind loopback cluster")
    .with_auth_key(key.clone());

    // The attacker: a thread hammering the first four members with bare,
    // tampered, and wrong-key frames for the whole run. All three fail
    // authentication before any payload ever decodes, so junk payloads
    // are fine — rejection must not depend on what the forgery claims.
    let stop_attack = Arc::new(AtomicBool::new(false));
    let targets: Vec<std::net::SocketAddr> = cluster.hosts()[..4]
        .iter()
        .map(|h| h.local_addr().expect("bound socket has an address"))
        .collect();
    let wrong_key = AuthKey::from_passphrase("not-the-cluster-key");
    let bare = seal_frame(NodeId::new(1), TraceCtx::NONE, None, b"forged");
    let mut tampered = seal_frame(NodeId::new(1), TraceCtx::NONE, Some(&key), b"forged");
    *tampered.last_mut().unwrap() ^= 0x01;
    let sealed_wrong = seal_frame(NodeId::new(1), TraceCtx::NONE, Some(&wrong_key), b"forged");
    let attack_stop = Arc::clone(&stop_attack);
    let attacker = std::thread::spawn(move || {
        let socket = std::net::UdpSocket::bind(("127.0.0.1", 0)).expect("attacker socket");
        let mut volleys: u64 = 0;
        while !attack_stop.load(Ordering::Relaxed) {
            for addr in &targets {
                let _ = socket.send_to(&bare, addr);
                let _ = socket.send_to(&tampered, addr);
                let _ = socket.send_to(&sealed_wrong, addr);
            }
            volleys += 1;
            std::thread::sleep(Duration::from_millis(2));
        }
        volleys
    });

    // Full convergence: every node joined via SWIM and reconciled every
    // origin's entry. Both conditions are monotone — `known()` is
    // grow-only — so the predicate cannot flap the way a momentary false
    // suspicion would make `live_view` flap.
    let converged = cluster.run_parallel_until(Duration::from_secs(60), |hosts| {
        hosts
            .iter()
            .all(|h| h.handler().is_joined() && h.handler().inner().store().known() == n)
    });
    assert!(
        converged.is_some(),
        "64 nodes on per-core workers under hostile traffic never converged"
    );

    // E22-style soak: keep the attack and the workers running and read the
    // cluster registry across windows. The summed auth-reject counter must
    // keep rising (the attack is live and counted) and its per-window rate
    // must stay flat — a generous 6× band on both sides, because these
    // are wall-clock windows on a loaded machine.
    let mut rejects_at = Vec::new();
    for _ in 0..6 {
        assert!(cluster
            .run_parallel_until(Duration::from_millis(200), |_| false)
            .is_none());
        let mut registry = Registry::new();
        cluster.fill_registry(&mut registry);
        rejects_at.push(
            registry
                .counter_value("node_auth_reject_total", &[])
                .expect("the wire counters are always exported"),
        );
    }
    let deltas: Vec<u64> = rejects_at.windows(2).map(|w| w[1] - w[0]).collect();
    assert!(
        deltas.iter().all(|&d| d > 0),
        "auth rejects stalled mid-attack: {rejects_at:?}"
    );
    let (lo, hi) = (
        *deltas.iter().min().unwrap() as f64,
        *deltas.iter().max().unwrap() as f64,
    );
    assert!(
        hi <= 6.0 * lo,
        "auth-reject rate drifted across soak windows: deltas {deltas:?}"
    );

    stop_attack.store(true, Ordering::Relaxed);
    let volleys = attacker.join().expect("attacker thread");
    assert!(volleys > 0, "the attacker never fired");
    let hosts = cluster.hosts();
    assert_eq!(hosts.len(), n);

    // Zero cross-node state bleed: every host kept its own identity, its
    // own self-entry, and the stores agree bit for bit on every origin —
    // order-independent equality, which only holds if no worker ever
    // wrote into another node's state.
    let reference = hosts[0].handler().inner().store();
    let reference_estimate = hosts[0]
        .handler()
        .inner()
        .estimate(u64::MAX)
        .expect("reconciled node estimates");
    for (i, host) in hosts.iter().enumerate() {
        assert_eq!(host.me(), NodeId::new(i), "host {i} lost its identity");
        let member = host.handler();
        assert!(member.is_joined(), "node {i} regressed out of the cluster");
        assert!(
            !member.live_view().is_empty(),
            "node {i} ended with an empty membership view"
        );
        let store = member.inner().store();
        assert_eq!(store.known(), n, "node {i} lost entries after convergence");
        for origin in 0..n {
            let own = store.get(NodeId::new(origin)).expect("known entry");
            let theirs = reference.get(NodeId::new(origin)).expect("known entry");
            assert_eq!(
                own.value.to_bits(),
                theirs.value.to_bits(),
                "node {i} disagrees with node 0 about origin {origin}"
            );
            assert!(
                (0.0..=10_000.0).contains(&own.value),
                "node {i} adopted an out-of-model value for origin {origin}: {}",
                own.value
            );
        }
        let estimate = member.inner().estimate(u64::MAX).expect("estimate");
        assert_eq!(
            estimate.to_bits(),
            reference_estimate.to_bits(),
            "node {i} estimate diverged"
        );
    }

    // Every forgery that reached a socket was rejected by authentication
    // — before sender validation, so none of the hostile counters that
    // sit *behind* the auth check ever moved, and none decoded.
    for (i, host) in hosts.iter().enumerate() {
        let stats = host.stats();
        assert_eq!(stats.decode_errors, 0, "node {i} let a forgery decode");
        assert_eq!(
            stats.addr_mismatches, 0,
            "node {i} saw a forgery pass authentication"
        );
    }
    assert!(
        cluster.total_stats().auth_reject > 0,
        "an attacked, auth-required cluster counted no rejects"
    );
}

#[test]
fn a_scrape_during_a_parallel_run_is_the_in_process_render() {
    if !sockets_available() {
        return;
    }
    let n = 4;
    let mut cluster = ae_cluster(n, 7);
    cluster
        .serve_status(("127.0.0.1", 0))
        .expect("bind cluster status endpoint");
    assert!(
        cluster.run_parallel_until(GENEROUS, reconciled).is_some(),
        "parallel anti-entropy never reconciled"
    );

    // The scrape is answered between two slices of a live parallel run,
    // and the run stops right after it: the page is the same render the
    // in-process registry produces, byte for byte (modulo the wall-clock
    // uptime gauge). One page, one format, whichever way the cluster is
    // pumped.
    let scraped = scrape_mid_run(&mut cluster, "/metrics");
    let mut registry = Registry::new();
    cluster.fill_registry(&mut registry);
    assert_eq!(strip_uptime(&scraped), strip_uptime(&registry.render()));
    assert!(
        scraped.contains(&format!("ae_store_known {}", n * n)),
        "metrics page lost the reconciled stores:\n{scraped}"
    );

    let status = scrape_mid_run(&mut cluster, "/status");
    assert!(
        status.contains(&format!("loopback cluster of {n}")),
        "status page lost the summary:\n{status}"
    );
    let reconciled_lines = status
        .lines()
        .filter(|l| l.ends_with(&format!("ae.store: {n}/{n} origins known")))
        .count();
    assert_eq!(reconciled_lines, n, "one store line per node:\n{status}");

    for (i, host) in cluster.hosts().iter().enumerate() {
        assert_eq!(host.me(), NodeId::new(i));
        assert_eq!(host.handler().store().known(), n);
        assert_eq!(host.stats().auth_reject, 0, "auth is off in this cluster");
    }
}

#[test]
fn parallel_and_single_thread_runs_carry_on_with_the_same_hosts() {
    if !sockets_available() {
        return;
    }
    let n = 6;
    let mut cluster = ae_cluster(n, 9);
    assert!(cluster.run_parallel_until(GENEROUS, reconciled).is_some());
    let after_parallel: Vec<_> = cluster.hosts().iter().map(|h| *h.stats()).collect();

    // The single-thread loop picks up where the workers left off: no
    // restart (`on_start` ran once per host), no lost state, and every
    // counter only grows.
    let sent = cluster.total_stats().datagrams_sent;
    let carried_on = cluster.run_until(GENEROUS, |hosts| {
        hosts.iter().map(|h| h.stats().datagrams_sent).sum::<u64>() > sent + n as u64
    });
    assert!(carried_on.is_some(), "the single-thread loop stalled");
    for (i, host) in cluster.hosts().iter().enumerate() {
        let (now, then) = (host.stats(), &after_parallel[i]);
        assert_eq!(host.me(), NodeId::new(i));
        assert_eq!(now.handler_starts, 1, "node {i} restarted");
        assert!(now.datagrams_sent >= then.datagrams_sent);
        assert!(now.timer_fires >= then.timer_fires);
        assert!(now.messages_dispatched >= then.messages_dispatched);
        assert_eq!(host.handler().store().known(), n);
    }

    // One member alone: only its timers fire.
    let fires: Vec<u64> = cluster
        .hosts()
        .iter()
        .map(|h| h.stats().timer_fires)
        .collect();
    let deadline = Instant::now() + GENEROUS;
    while cluster.host(NodeId::new(0)).stats().timer_fires == fires[0] {
        cluster.poll_node(NodeId::new(0));
        assert!(Instant::now() < deadline, "node 0 never fired a timer");
    }
    for (i, host) in cluster.hosts().iter().enumerate().skip(1) {
        assert_eq!(host.stats().timer_fires, fires[i], "node {i} was polled");
    }

    // And back to the workers, which pump every member again.
    let resumed = cluster.run_parallel_until(GENEROUS, |hosts| {
        hosts
            .iter()
            .zip(&fires)
            .all(|(h, &f)| h.stats().timer_fires > f)
    });
    assert!(resumed.is_some(), "the workers did not resume every host");
    assert!(cluster
        .hosts()
        .iter()
        .all(|h| h.stats().handler_starts == 1));
}
