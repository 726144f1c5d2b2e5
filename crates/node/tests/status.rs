//! Status-endpoint integration tests: scraping `/metrics` and `/status`
//! over real TCP against a live loopback cluster, plus hostile-input
//! coverage for the HTTP front end.
//!
//! Same environment discipline as `loopback.rs`: every test probes for
//! socket availability first and skips gracefully where the sandbox
//! forbids binds (a skip is a failure under `--features sockets-required`).

use gossip_ae::protocol::{AeConfig, AeNode};
use gossip_ae::signal::SignalModel;
use gossip_net::{seal_frame, AuthKey, NodeId, SimConfig};
use gossip_node::{LoopbackCluster, NodeHost};
use gossip_obs::{Registry, TraceCtx};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const GENEROUS: Duration = Duration::from_secs(20);

/// Probe for loopback UDP + TCP. Under `--features sockets-required` a
/// failed probe panics instead of skipping.
fn sockets_available() -> bool {
    let probe = std::net::UdpSocket::bind(("127.0.0.1", 0))
        .map(|_| ())
        .and_then(|()| std::net::TcpListener::bind(("127.0.0.1", 0)).map(|_| ()));
    match probe {
        Ok(()) => true,
        Err(e) if cfg!(feature = "sockets-required") => {
            panic!("sockets-required is on but loopback binding failed: {e}")
        }
        Err(e) => {
            eprintln!("skipping status test: loopback bind unavailable ({e})");
            false
        }
    }
}

fn ae_factory(n: usize) -> impl Fn(NodeId) -> AeNode {
    let sim = SimConfig::new(n).with_value_range(10_000.0);
    let config = AeConfig::default()
        .with_tick_us(2_000)
        .with_update_us(0)
        .with_expiry_us(0)
        .with_signal(SignalModel::uniform(0.0, 10_000.0));
    move |me| AeNode::new(me, n, sim.id_bits(), sim.value_bits(), config)
}

/// Issue one raw request and collect the full response, driving `pump`
/// while waiting (the server is non-blocking and single-threaded, so the
/// client must keep pumping it). Returns `(status code, body)`.
fn exchange(addr: SocketAddr, request: &[u8], mut pump: impl FnMut()) -> (u16, String) {
    let stream = TcpStream::connect(addr).expect("connect to status endpoint");
    stream
        .set_read_timeout(Some(Duration::from_millis(5)))
        .expect("read timeout");
    (&stream).write_all(request).expect("send request");
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    let deadline = Instant::now() + GENEROUS;
    loop {
        pump();
        match (&stream).read(&mut buf) {
            Ok(0) => break, // Connection: close — the response is complete
            Ok(k) => raw.extend_from_slice(&buf[..k]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => panic!("read failed: {e}"),
        }
        assert!(Instant::now() < deadline, "response timed out");
    }
    let text = String::from_utf8(raw).expect("responses are UTF-8");
    let (head, body) = text
        .split_once("\r\n\r\n")
        .expect("response has a blank line");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status line has a code")
        .parse()
        .expect("numeric status");
    (status, body.to_string())
}

fn get(addr: SocketAddr, path: &str, pump: impl FnMut()) -> (u16, String) {
    let request = format!("GET {path} HTTP/1.0\r\n\r\n");
    exchange(addr, request.as_bytes(), pump)
}

/// The value of an unlabelled counter/gauge in a metrics page.
fn sample(metrics: &str, name: &str) -> u64 {
    let prefix = format!("{name} ");
    metrics
        .lines()
        .find(|l| l.starts_with(&prefix))
        .unwrap_or_else(|| panic!("metric {name} missing from scrape"))
        .split_whitespace()
        .nth(1)
        .expect("metric line has a value")
        .parse()
        .unwrap_or_else(|_| panic!("metric {name} is not an integer"))
}

/// Drop the one real-clock gauge so frozen scrapes compare byte-exact.
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
fn scraped_metrics_agree_byte_exactly_with_in_process_stats() {
    if !sockets_available() {
        return;
    }
    let n = 6;
    let mut cluster = LoopbackCluster::bind(n, 0x0B5, ae_factory(n)).expect("bind cluster");
    let status = cluster.serve_status(("127.0.0.1", 0)).expect("bind status");

    // Run the protocol to full reconciliation...
    let converged = cluster.run_until(GENEROUS, |hosts| {
        hosts.iter().all(|h| h.handler().store().known() == n)
    });
    assert!(converged.is_some(), "cluster reconciles");

    // ...then freeze it: only the HTTP server is pumped from here on, so
    // every counter the scrape can see is immutable during the scrape.
    let (code, scraped) = get(status, "/metrics", || {
        cluster.pump_status();
    });
    assert_eq!(code, 200);

    // The scrape is the same render the in-process registry produces,
    // byte for byte (modulo the wall-clock uptime gauge).
    let mut registry = Registry::new();
    cluster.fill_registry(&mut registry);
    assert_eq!(strip_uptime(&scraped), strip_uptime(&registry.render()));

    // And the counters are the in-process structs' exact values — wire
    // stats and protocol stats alike.
    let totals = cluster.total_stats();
    assert_eq!(
        sample(&scraped, "node_datagrams_sent_total"),
        totals.datagrams_sent
    );
    assert_eq!(sample(&scraped, "node_bytes_sent_total"), totals.bytes_sent);
    assert_eq!(
        sample(&scraped, "node_messages_dispatched_total"),
        totals.messages_dispatched
    );
    assert_eq!(
        sample(&scraped, "node_timer_fires_total"),
        totals.timer_fires
    );
    let ticks: u64 = cluster.iter_handlers().map(|(_, h)| h.stats.ticks).sum();
    let syns: u64 = cluster.iter_handlers().map(|(_, h)| h.stats.syn_sent).sum();
    let adopted: u64 = cluster
        .iter_handlers()
        .map(|(_, h)| h.stats.entries_adopted)
        .sum();
    assert_eq!(sample(&scraped, "ae_ticks_total"), ticks);
    assert_eq!(sample(&scraped, "ae_syn_sent_total"), syns);
    assert_eq!(sample(&scraped, "ae_entries_adopted_total"), adopted);
    assert_eq!(sample(&scraped, "ae_store_known"), (n * n) as u64);

    // The status page reflects the same frozen run.
    let (code, page) = get(status, "/status", || {
        cluster.pump_status();
    });
    assert_eq!(code, 200);
    assert!(page.contains(&format!("loopback cluster of {n}")));
    assert!(page.contains(&format!("ae.store: {n}/{n} origins known")));
}

/// The cluster `/status` page shows every reject cause, like a node's
/// page: one bare frame at a keyed cluster reads as one auth reject.
#[test]
fn keyed_cluster_status_page_counts_auth_rejects() {
    if !sockets_available() {
        return;
    }
    let n = 2;
    let mut cluster = LoopbackCluster::bind(n, 0xA17, ae_factory(n))
        .expect("bind cluster")
        .with_auth_key(AuthKey::from_passphrase("cluster-status-key"));
    let status = cluster.serve_status(("127.0.0.1", 0)).expect("bind status");
    cluster.poll(); // boot
    let target = cluster.host(NodeId::new(0)).local_addr().unwrap();
    let attacker = std::net::UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    let bare = seal_frame(NodeId::new(1), TraceCtx::NONE, None, b"forged");
    attacker.send_to(&bare, target).unwrap();
    let counted = cluster.run_until(GENEROUS, |hosts| {
        hosts.iter().map(|h| h.stats().auth_reject).sum::<u64>() == 1
    });
    assert!(counted.is_some(), "the bare frame reaches node 0");

    let (code, page) = get(status, "/status", || {
        cluster.pump_status();
    });
    assert_eq!(code, 200);
    let received = page
        .lines()
        .find(|l| l.starts_with("received: "))
        .expect("status page has a received line");
    assert!(
        received.contains(" 0 decode errors, 1 auth rejects, 0 unknown senders,"),
        "{received}"
    );
}

#[test]
fn member_host_serves_metrics_status_and_trace() {
    if !sockets_available() {
        return;
    }
    // Two real member hosts (no cluster harness): the deployment shape.
    let sockets: Vec<std::net::UdpSocket> = (0..2)
        .map(|_| std::net::UdpSocket::bind(("127.0.0.1", 0)).expect("bind"))
        .collect();
    let peers: Vec<SocketAddr> = sockets
        .iter()
        .map(|s| s.local_addr().expect("bound"))
        .collect();
    let factory = ae_factory(2);
    let mut hosts: Vec<NodeHost<AeNode>> = sockets
        .into_iter()
        .enumerate()
        .map(|(i, socket)| {
            let me = NodeId::new(i);
            NodeHost::from_socket(socket, me, peers.clone(), 0xFACE, factory(me)).with_trace(128)
        })
        .collect();
    let status = hosts[0]
        .serve_status(("127.0.0.1", 0))
        .expect("bind status");
    assert_eq!(hosts[0].status_addr(), Some(status));

    // Pump both members until they reconcile (poll() pumps the endpoint).
    let deadline = Instant::now() + GENEROUS;
    while hosts.iter().any(|h| h.handler().store().known() < 2) {
        for h in hosts.iter_mut() {
            h.poll();
        }
        assert!(Instant::now() < deadline, "members never reconciled");
    }

    let mut pump = {
        let hosts = &mut hosts;
        move || {
            for h in hosts.iter_mut() {
                h.poll();
            }
        }
    };
    let (code, metrics) = get(status, "/metrics", &mut pump);
    assert_eq!(code, 200);
    assert!(metrics.contains("# TYPE node_datagrams_sent_total counter"));
    assert!(metrics.contains("# TYPE node_timer_lag_us histogram"));
    assert!(sample(&metrics, "trace_events_total") > 0);

    let (code, page) = get(status, "/status", &mut pump);
    assert_eq!(code, 200);
    assert!(page.contains("node 0 of 2"));
    // The host's actual bound UDP address, not merely the label.
    assert!(
        page.contains(&format!("udp_addr: {}\n", peers[0])),
        "status page lacks the bound address {}:\n{page}",
        peers[0]
    );
    assert!(page.contains("(me)"));
    assert!(page.contains("ae.store: 2/2 origins known"));

    let (code, trace) = get(status, "/trace", &mut pump);
    assert_eq!(code, 200);
    assert!(!trace.is_empty(), "the event ring rendered something");

    let (code, _) = get(status, "/no-such-page", &mut pump);
    assert_eq!(code, 404);
}

#[test]
fn trace_query_filters_narrow_the_page_and_hostile_queries_get_400() {
    if !sockets_available() {
        return;
    }
    // Two traced member hosts; host 0 serves the endpoints.
    let sockets: Vec<std::net::UdpSocket> = (0..2)
        .map(|_| std::net::UdpSocket::bind(("127.0.0.1", 0)).expect("bind"))
        .collect();
    let peers: Vec<SocketAddr> = sockets
        .iter()
        .map(|s| s.local_addr().expect("bound"))
        .collect();
    let factory = ae_factory(2);
    let mut hosts: Vec<NodeHost<AeNode>> = sockets
        .into_iter()
        .enumerate()
        .map(|(i, socket)| {
            let me = NodeId::new(i);
            NodeHost::from_socket(socket, me, peers.clone(), 0x7F17, factory(me)).with_trace(256)
        })
        .collect();
    let status = hosts[0]
        .serve_status(("127.0.0.1", 0))
        .expect("bind status");

    let deadline = Instant::now() + GENEROUS;
    while hosts.iter().any(|h| h.handler().store().known() < 2) {
        for h in hosts.iter_mut() {
            h.poll();
        }
        assert!(Instant::now() < deadline, "members never reconciled");
    }
    let mut pump = {
        let hosts = &mut hosts;
        move || {
            for h in hosts.iter_mut() {
                h.poll();
            }
        }
    };

    // ?n= caps the page at the newest n lines.
    let (code, page) = get(status, "/trace?n=3", &mut pump);
    assert_eq!(code, 200);
    assert!(page.lines().count() <= 3, "n=3 returned more than 3 lines");
    assert!(!page.is_empty(), "a busy ring renders something");

    // ?kind= keeps only that kind; filters compose with ?n=.
    let (code, page) = get(status, "/trace?kind=send", &mut pump);
    assert_eq!(code, 200);
    assert!(
        page.lines().all(|l| l.contains(" send ")),
        "kind=send leaked other kinds:\n{page}"
    );
    let (code, page) = get(status, "/trace?kind=recv&n=2", &mut pump);
    assert_eq!(code, 200);
    assert!(page.lines().count() <= 2);
    assert!(page.lines().all(|l| l.contains(" recv ")));

    // ?trace= follows one causal chain, by the hex id the page prints.
    let (code, full) = get(status, "/trace", &mut pump);
    assert_eq!(code, 200);
    let chain_id = full
        .lines()
        .filter_map(|l| l.split("trace ").nth(1))
        .filter_map(|rest| rest.split('/').next())
        .next()
        .expect("a traced run prints at least one chain id")
        .to_string();
    let (code, chain) = get(status, &format!("/trace?trace={chain_id}"), &mut pump);
    assert_eq!(code, 200);
    assert!(!chain.is_empty(), "the chain filter matched nothing");
    assert!(
        chain
            .lines()
            .all(|l| l.contains(&format!("trace {chain_id}"))),
        "trace={chain_id} leaked other chains:\n{chain}"
    );

    // Hostile queries: malformed values, unknown keys, keys without
    // values, overflowing counts — all a 400 with a reason, never a
    // panic or a 200 that silently ignored the filter.
    for hostile in [
        "/trace?n=abc",
        "/trace?n=-1",
        "/trace?n=99999999999999999999999999",
        "/trace?kind=bogus",
        "/trace?kind=",
        "/trace?trace=not-hex",
        "/trace?wat=1",
        "/trace?n",
        "/trace?=3",
    ] {
        let (code, body) = get(status, hostile, &mut pump);
        assert_eq!(code, 400, "{hostile} was not rejected: {body}");
        assert!(
            body.starts_with("bad request:"),
            "{hostile} gave no reason: {body}"
        );
    }

    // And after all the hostility, the legitimate page still works.
    let (code, _) = get(status, "/trace?n=5", &mut pump);
    assert_eq!(code, 200);
}

#[test]
fn hostile_http_input_cannot_wedge_the_node() {
    if !sockets_available() {
        return;
    }
    let n = 4;
    let mut cluster = LoopbackCluster::bind(n, 0xBAD, ae_factory(n)).expect("bind cluster");
    let status = cluster.serve_status(("127.0.0.1", 0)).expect("bind status");

    // A half-open connection: opened, nothing sent, never closed. Held
    // across everything below — it must not block other clients.
    let _half_open = TcpStream::connect(status).expect("connect");

    // A garbage request line gets a 400, not a hang or a crash.
    let (code, _) = exchange(status, b"GARBAGE\r\n\r\n", || {
        cluster.poll();
    });
    assert_eq!(code, 400);

    // Not-even-close-to-HTTP bytes: also a 400 once the head terminates.
    let (code, _) = exchange(status, b"\x00\x01\x02\x03 \xff\xfe\r\n\r\n", || {
        cluster.poll();
    });
    assert_eq!(code, 400);

    // Oversized headers: rejected with 431 before the head ever completes.
    let mut big = Vec::from(&b"GET /metrics HTTP/1.0\r\n"[..]);
    while big.len() <= 9 * 1024 {
        big.extend_from_slice(b"X-Padding: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
    }
    let (code, _) = exchange(status, &big, || {
        cluster.poll();
    });
    assert_eq!(code, 431);

    // After all of that — half-open socket still dangling — a legitimate
    // scrape works and the gossip protocol underneath kept running.
    let (code, metrics) = get(status, "/metrics", || {
        cluster.poll();
    });
    assert_eq!(code, 200);
    assert!(metrics.contains("node_datagrams_sent_total"));
    let converged = cluster.run_until(GENEROUS, |hosts| {
        hosts.iter().all(|h| h.handler().store().known() == n)
    });
    assert!(
        converged.is_some(),
        "protocol survived hostile HTTP traffic"
    );
}
