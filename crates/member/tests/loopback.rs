//! Membership over real UDP: the same [`Member`] wrapper the simulator
//! suites pin, hosted by `gossip-node` on 127.0.0.1 datagrams.
//!
//! Covered here: join-via-seed discovery of a 16-host cluster, the
//! wrapped gossip-max converging over the *discovered* view, failure
//! detection of a killed member within the probe-period bound, graceful
//! leave, the `/status` peer table, and forged membership updates
//! arriving through a real socket — rejected, counted, and harmless.
//!
//! Every test begins with [`sockets_available`] and skips gracefully
//! where loopback binds are forbidden; CI's loopback job probes bind
//! capability first, so a skip there means the runner genuinely has no
//! sockets.

use gossip_drr::handler::{MaxGossipConfig, MaxGossipHandler};
use gossip_member::{Liveness, Member, MemberConfig, MemberMsg, Update};
use gossip_net::{seal_frame, Handler, NodeId, SimConfig, WireMsg};
use gossip_node::LoopbackCluster;
use gossip_obs::{Registry, TraceCtx};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn sockets_available() -> bool {
    match std::net::UdpSocket::bind(("127.0.0.1", 0)) {
        Ok(_) => true,
        Err(e) => {
            eprintln!("skipping loopback test: UDP bind unavailable ({e})");
            false
        }
    }
}

fn values(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 37) % 1009) as f64).collect()
}

fn max_handler(n: usize, me: NodeId, vals: &[f64]) -> MaxGossipHandler {
    let sim = SimConfig::new(n);
    let config = MaxGossipConfig {
        bits: sim.id_bits() + sim.value_bits(),
        push_interval_us: 1_000,
        fanout: 1,
    };
    MaxGossipHandler::new(me, vals[me.index()], config)
}

type Wrapped = Member<MaxGossipHandler>;

/// Pump every host except `down` (a host never polled is a dead node —
/// its socket still receives, nothing dispatches) until `done` holds.
fn pump_survivors(
    cluster: &mut LoopbackCluster<Wrapped>,
    down: NodeId,
    timeout: Duration,
    mut done: impl FnMut(&LoopbackCluster<Wrapped>) -> bool,
) -> Option<Duration> {
    let started = Instant::now();
    loop {
        if done(cluster) {
            return Some(started.elapsed());
        }
        if started.elapsed() >= timeout {
            return None;
        }
        let mut dispatched = 0;
        for i in 0..cluster.n() {
            let node = NodeId::new(i);
            if node != down {
                dispatched += cluster.poll_node(node);
            }
        }
        dispatched += cluster.pump_status();
        if dispatched == 0 {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

#[test]
fn sixteen_hosts_discover_the_cluster_from_one_seed_and_converge() {
    if !sockets_available() {
        return;
    }
    // Only node 0 is known at boot; everyone else joins through it and
    // learns the rest from piggybacked rumors. The wrapped gossip-max,
    // sampling only the discovered view, must still land every node on
    // the exact maximum — the tentpole's acceptance run, on real frames.
    let n = 16;
    let vals = values(n);
    let exact = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let member_config =
        MemberConfig::with_seeds(vec![NodeId::new(0)]).with_probe_interval_us(50_000);
    let vals_for_cluster = vals.clone();
    let mut cluster = LoopbackCluster::bind(n, 0x16D, move |me| {
        Member::new(member_config.clone(), max_handler(n, me, &vals_for_cluster))
    })
    .expect("bind loopback cluster");

    let discovered = cluster.run_until(Duration::from_secs(30), |hosts| {
        hosts
            .iter()
            .all(|h| h.handler().is_joined() && h.handler().live_view().len() == n - 1)
    });
    assert!(
        discovered.is_some(),
        "the cluster never fully discovered itself from one seed"
    );

    let converged = cluster.run_until(Duration::from_secs(30), |hosts| {
        hosts
            .iter()
            .all(|h| h.handler().inner().current_max() == exact)
    });
    assert!(
        converged.is_some(),
        "gossip-max over the discovered view never converged"
    );

    // Loss-free loopback: nothing may have been falsely suspected.
    let mut false_suspicions = 0;
    for (_, h) in cluster.iter_handlers() {
        false_suspicions += h.stats().false_suspicions;
    }
    assert_eq!(false_suspicions, 0, "false suspicion on a loss-free wire");
    let totals = cluster.total_stats();
    assert_eq!(totals.decode_errors, 0);
    assert_eq!(
        totals.send_oversize, 0,
        "piggybacking overflowed the datagram budget"
    );
}

#[test]
fn a_killed_member_is_declared_dead_within_three_probe_periods() {
    if !sockets_available() {
        return;
    }
    // Kill one member (stop polling it) and require every survivor to
    // hold a Dead record within the detection bound: one period for the
    // unanswered probe to be judged, one suspect period to expire, one
    // for the sweep — three probe periods, plus scheduling slop.
    let n = 8;
    let vals = values(n);
    let period = Duration::from_millis(150);
    let member_config = MemberConfig {
        suspect_periods: 1,
        probe_fanout: n - 1, // probe everyone every period: tightest tail
        proxies: 2,
        ..MemberConfig::static_full().with_probe_interval_us(period.as_micros() as u64)
    };
    let vals_for_cluster = vals.clone();
    let mut cluster = LoopbackCluster::bind(n, 0xDEAD, move |me| {
        Member::new(member_config.clone(), max_handler(n, me, &vals_for_cluster))
    })
    .expect("bind loopback cluster");

    // Two warmup periods: everyone probing, nobody suspected.
    cluster.run_for(2 * period);
    for (node, h) in cluster.iter_handlers() {
        assert_eq!(
            h.stats().suspicions_local,
            0,
            "node {node:?} suspected someone before the kill"
        );
    }

    let victim = NodeId::new(5);
    let detected = pump_survivors(&mut cluster, victim, 3 * period + period / 2, |c| {
        c.iter_handlers()
            .all(|(node, h)| node == victim || h.state_of(victim) == Some(Liveness::Dead))
    });
    assert!(
        detected.is_some(),
        "the killed member was not declared Dead within three probe periods"
    );

    // The death came from detection, not rumor forgery, and the live
    // views dropped the victim everywhere.
    let mut deaths = 0;
    for (node, h) in cluster.iter_handlers() {
        if node == victim {
            continue;
        }
        deaths += h.stats().deaths_declared + h.stats().deaths_learned;
        assert!(
            !h.live_view().contains(&victim),
            "node {node:?} still samples the dead member"
        );
    }
    assert!(deaths > 0, "nobody recorded the death");
}

#[test]
fn a_graceful_leave_spreads_as_dead_without_any_suspicion() {
    if !sockets_available() {
        return;
    }
    // `--leave` semantics: the departing node announces its own death at
    // a final incarnation; survivors record Dead via the Leave channel —
    // no suspicion, no detection delay, and (per the forgery rules) no
    // piggybacked self-Dead involved.
    let n = 4;
    let vals = values(n);
    let period = Duration::from_millis(150);
    let member_config = MemberConfig {
        probe_fanout: n - 1,
        ..MemberConfig::static_full().with_probe_interval_us(period.as_micros() as u64)
    };
    let vals_for_cluster = vals.clone();
    let mut cluster = LoopbackCluster::bind(n, 0x1EA, move |me| {
        Member::new(member_config.clone(), max_handler(n, me, &vals_for_cluster))
    })
    .expect("bind loopback cluster");
    cluster.run_for(2 * period);

    let leaver = NodeId::new(3);
    // The host-initiated action `examples/node.rs --leave` performs,
    // then the leaver goes silent (no more polling).
    cluster
        .host_mut(leaver)
        .with_handler(|h, mailbox| h.initiate_leave(mailbox));
    let spread = pump_survivors(&mut cluster, leaver, 2 * period, |c| {
        c.iter_handlers()
            .all(|(node, h)| node == leaver || h.state_of(leaver) == Some(Liveness::Dead))
    });
    assert!(
        spread.is_some(),
        "the graceful leave did not reach every survivor"
    );
    let mut leaves = 0;
    for (node, h) in cluster.iter_handlers() {
        if node == leaver {
            continue;
        }
        let s = h.stats();
        leaves += s.leaves_rx;
        assert_eq!(
            s.suspicions_local, 0,
            "node {node:?} suspected the graceful leaver"
        );
        assert_eq!(
            s.forged_self_dead, 0,
            "the Leave channel was mistaken for a forged self-death"
        );
        assert!(
            !h.live_view().contains(&leaver),
            "node {node:?} still samples the leaver"
        );
    }
    assert!(leaves > 0, "nobody received the Leave announcement");
}

#[test]
fn forged_membership_updates_are_rejected_counted_and_harmless() {
    if !sockets_available() {
        return;
    }
    // A hostile peer with real frame-encoding powers tries three forgery
    // shapes against node 0, each riding a well-formed envelope claiming
    // to be node 1: a subject outside the universe, a stale re-assertion,
    // and a self-referential death claim. All three are rejected and
    // counted; none may evict the live node they target.
    let n = 3;
    let vals = values(n);
    let member_config = MemberConfig::static_full().with_probe_interval_us(100_000);
    let vals_for_cluster = vals.clone();
    let mut cluster = LoopbackCluster::bind(n, 0xF06, move |me| {
        Member::new(member_config.clone(), max_handler(n, me, &vals_for_cluster))
    })
    .expect("bind loopback cluster");
    cluster.poll(); // boot
    let target = cluster.host(NodeId::new(0)).local_addr().unwrap();
    let attacker = std::net::UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    let from = NodeId::new(1);

    // An Ack nobody asked for is the quietest carrier: its updates are
    // folded in, its payload matches no pending probe.
    let forge = |updates: Vec<Update>| MemberMsg::<f64>::Ack {
        seq: 0xFFFF,
        origin: NodeId::new(0),
        updates,
    };
    let unknown_subject = forge(vec![Update {
        node: NodeId::new(77),
        incarnation: 3,
        state: Liveness::Alive,
    }]);
    let stale = forge(vec![Update {
        node: NodeId::new(2),
        incarnation: 0,
        state: Liveness::Alive, // already known Alive at 0: no news
    }]);
    let self_dead = forge(vec![Update {
        node: from, // claims *its own sender* is dead — forged by contract
        incarnation: 99,
        state: Liveness::Dead,
    }]);
    for msg in [&unknown_subject, &stale, &self_dead] {
        attacker
            .send_to(
                &seal_frame(from, TraceCtx::NONE, None, &msg.to_wire_bytes()),
                target,
            )
            .expect("send forged frame");
    }

    std::thread::sleep(Duration::from_millis(20));
    for _ in 0..50 {
        cluster.poll();
    }

    let handler = cluster.host(NodeId::new(0)).handler();
    let stats = handler.stats();
    assert_eq!(stats.forged_unknown_subject, 1, "subject 77 not rejected");
    assert!(stats.stale_updates >= 1, "stale re-assertion not counted");
    assert_eq!(stats.forged_self_dead, 1, "self-death claim not rejected");
    assert_eq!(
        handler.state_of(from),
        Some(Liveness::Alive),
        "a forged rumor evicted a live node"
    );
    assert_eq!(
        handler.state_of(NodeId::new(2)),
        Some(Liveness::Alive),
        "the stale forgery moved a record"
    );

    // The rejections are visible in the scraped registry, not just the
    // struct — the observability contract of the satellite.
    let mut registry = Registry::new();
    handler.fill_registry(&mut registry);
    assert_eq!(
        registry.counter_value("member_forged_unknown_subject_total", &[]),
        Some(1)
    );
    assert_eq!(
        registry.counter_value("member_forged_self_dead_total", &[]),
        Some(1)
    );
    assert_eq!(registry.gauge_value("member_dead", &[]), Some(0.0));
}

/// Minimal HTTP GET against the cluster status endpoint, pumping the
/// cluster between reads so the single-threaded server makes progress.
fn http_get(cluster: &mut LoopbackCluster<Wrapped>, down: Option<NodeId>, path: &str) -> String {
    let addr = cluster.status_addr().expect("status endpoint bound");
    let stream = TcpStream::connect(addr).expect("connect to status endpoint");
    stream
        .set_read_timeout(Some(Duration::from_millis(5)))
        .expect("read timeout");
    (&stream)
        .write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
        .expect("send request");
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        for i in 0..cluster.n() {
            let node = NodeId::new(i);
            if Some(node) != down {
                cluster.poll_node(node);
            }
        }
        cluster.pump_status();
        match (&stream).read(&mut buf) {
            Ok(0) => break,
            Ok(k) => raw.extend_from_slice(&buf[..k]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => panic!("read failed: {e}"),
        }
        assert!(Instant::now() < deadline, "status response timed out");
    }
    let text = String::from_utf8(raw).expect("status pages are UTF-8");
    let (_, body) = text.split_once("\r\n\r\n").expect("response has a body");
    body.to_string()
}

#[test]
fn the_status_peer_table_tracks_join_and_death_of_a_member() {
    if !sockets_available() {
        return;
    }
    // The CI smoke in test form: a 3-node cluster where node 2 must *join*
    // (only the seed is known to it), then dies; the `/status` peer table
    // must show it alive after the join and dead within the detection
    // bound after the kill.
    let n = 3;
    let vals = values(n);
    let period = Duration::from_millis(150);
    let seed_node = NodeId::new(0);
    let vals_for_cluster = vals.clone();
    let mut cluster = LoopbackCluster::bind(n, 0x57A7, move |me| {
        // The seed and node 1 know the full universe; node 2 starts knowing
        // only the seed and discovers the rest through Join/JoinAck.
        let base = MemberConfig {
            suspect_periods: 1,
            probe_fanout: n - 1,
            ..MemberConfig::default().with_probe_interval_us(period.as_micros() as u64)
        };
        let config = if me == NodeId::new(2) {
            MemberConfig {
                seeds: vec![seed_node],
                ..base
            }
        } else {
            MemberConfig {
                static_bootstrap: true,
                ..base
            }
        };
        Member::new(config, max_handler(n, me, &vals_for_cluster))
    })
    .expect("bind loopback cluster");
    cluster
        .serve_status(("127.0.0.1", 0))
        .expect("bind status endpoint");

    // Phase 1: the joiner completes the handshake and shows up alive.
    let joined = cluster.run_until(Duration::from_secs(15), |hosts| {
        hosts[2].handler().is_joined() && hosts[2].handler().live_view().len() == n - 1
    });
    assert!(joined.is_some(), "node 2 never joined via the seed");
    let page = http_get(&mut cluster, None, "/status");
    assert!(
        page.contains("member.view: 0:alive 1:alive 2:self"),
        "joiner's own view missing from the page:\n{page}"
    );

    // Phase 2: kill the joiner; the survivors' peer tables must flip its
    // row to dead within the detection bound.
    let victim = NodeId::new(2);
    let detected = pump_survivors(&mut cluster, victim, 3 * period + period / 2, |c| {
        c.iter_handlers()
            .all(|(node, h)| node == victim || h.state_of(victim) == Some(Liveness::Dead))
    });
    assert!(detected.is_some(), "the kill was not detected in time");
    let page = http_get(&mut cluster, Some(victim), "/status");
    for survivor in ["node 0", "node 1"] {
        let row = page
            .lines()
            .find(|l| l.starts_with(survivor) && l.contains("member.view"))
            .unwrap_or_else(|| panic!("{survivor} has no member.view row:\n{page}"));
        assert!(
            row.contains("2:dead"),
            "{survivor}'s peer table does not show the death: {row}"
        );
    }
}

#[test]
fn auth_required_members_reject_forged_frames_at_the_wire_and_still_converge() {
    if !sockets_available() {
        return;
    }
    // The same attacker as the forged-updates suite, against a cluster
    // that requires authentication. The forgeries now die at the frame
    // layer — counted in `auth_reject`, invisible to the membership
    // protocol (its own forgery counters stay at zero) — whichever shape
    // they take: a replayed bare frame that a keyless cluster would have
    // accepted, a tampered tag, a tag cut short, a wrong key. The
    // protocol itself keeps running: the wrapped gossip-max still lands
    // on the exact maximum.
    let n = 3;
    let vals = values(n);
    let exact = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let key = gossip_net::AuthKey::from_passphrase("member-hostile-suite");
    let wrong_key = gossip_net::AuthKey::from_passphrase("member-hostile-wrong");
    let member_config = MemberConfig::static_full().with_probe_interval_us(100_000);
    let vals_for_cluster = vals.clone();
    let mut cluster = LoopbackCluster::bind(n, 0xA07, move |me| {
        Member::new(member_config.clone(), max_handler(n, me, &vals_for_cluster))
    })
    .expect("bind loopback cluster")
    .with_auth_key(key.clone());
    cluster.poll(); // boot
    let target = cluster.host(NodeId::new(0)).local_addr().unwrap();
    let attacker = std::net::UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    let from = NodeId::new(1);

    // A self-death forgery: the nastiest row of the keyless suite — here
    // it must not even reach the protocol's forgery counters.
    let forged = MemberMsg::<f64>::Ack {
        seq: 0xFFFF,
        origin: NodeId::new(0),
        updates: vec![Update {
            node: from,
            incarnation: 99,
            state: Liveness::Dead,
        }],
    };
    use gossip_net::FRAME_HEADER_BYTES;
    let payload = forged.to_wire_bytes();
    let bare = seal_frame(from, TraceCtx::NONE, None, &payload);
    let sealed = seal_frame(from, TraceCtx::NONE, Some(&key), &payload);
    let mut tampered = sealed.clone();
    *tampered.last_mut().unwrap() ^= 0x01;
    let truncated = sealed[..FRAME_HEADER_BYTES + gossip_net::AUTH_TAG_BYTES / 2].to_vec();
    let foreign = seal_frame(from, TraceCtx::NONE, Some(&wrong_key), &payload);
    for frame in [&bare, &tampered, &truncated, &foreign] {
        attacker.send_to(frame, target).expect("send forged frame");
    }

    std::thread::sleep(Duration::from_millis(20));
    for _ in 0..50 {
        cluster.poll();
    }

    let host = cluster.host(NodeId::new(0));
    assert_eq!(
        host.stats().auth_reject,
        4,
        "every forgery shape counted at the wire"
    );
    assert_eq!(host.stats().decode_errors, 0);
    let handler = host.handler();
    assert_eq!(handler.stats().forged_self_dead, 0, "never reached SWIM");
    assert_eq!(handler.stats().forged_unknown_subject, 0);
    assert_eq!(
        handler.state_of(from),
        Some(Liveness::Alive),
        "a rejected forgery must not move a record"
    );

    // And the authenticated cluster still does its job.
    let converged = cluster.run_until(Duration::from_secs(30), |hosts| {
        hosts
            .iter()
            .all(|h| h.handler().inner().current_max() == exact)
    });
    assert!(
        converged.is_some(),
        "the authenticated cluster failed to converge"
    );
    let total = cluster.total_stats();
    assert_eq!(total.decode_errors, 0, "honest sealed traffic all decoded");
    assert_eq!(
        total.auth_reject, 4,
        "no honest frame was mistaken for a forgery"
    );
}
