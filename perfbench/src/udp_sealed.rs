//! `udp_sealed`: 32 socket hosts on 127.0.0.1 sharing one `AuthKey`,
//! running event-driven gossip-max (8-byte pushes every 100 µs, fanout 1).
//! A closed loop of cold-start trials: each binds fresh sockets, runs
//! until every node holds that trial's exact maximum, and tears down.
//!
//! Untraced trials run on `LoopbackCluster`. Traced trials drive the same
//! `NodeCore`s directly, with a pump pass that mirrors the cluster's
//! (`Reactor::pump` without blocking, round-robin over the hosts, a
//! 200 µs back-off on an idle pass), so the `node`, `net.wire` and
//! `net.auth` seams can be timed from outside.

use crate::report::{fold_hash, guard, median, quantile, ratio, Counters, Metrics};
use crate::timed::{Span, TimedHandler, TimedSink};
use crate::{bench_key, input_values, Layers, Outcome};
use gossip_drr::handler::{MaxGossipConfig, MaxGossipHandler};
use gossip_net::{mix64, AuthKey, NodeId, AUTH_TAG_BYTES, FRAME_HEADER_BYTES};
use gossip_node::{LoopbackCluster, NodeCore, NodeStats, Recv};
use gossip_obs::Histogram;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

const N: usize = 32;
/// A trial that has not converged after this long has failed.
const TIMEOUT: Duration = Duration::from_secs(5);
/// Receive batch per host per pass (the reactor's).
const RECV_BATCH: usize = 64;
/// Sleep after a pass that dispatched nothing (the cluster's).
const IDLE_BACKOFF: Duration = Duration::from_micros(200);
/// Trials whose answers make up the output fingerprint.
const HASHED_TRIALS: usize = 16;
/// Frame header, truncated HMAC tag and an 8-byte `f64` payload.
const SEALED_PUSH_BYTES: u64 = (FRAME_HEADER_BYTES + AUTH_TAG_BYTES + 8) as u64;

fn handler_config() -> MaxGossipConfig {
    MaxGossipConfig {
        push_interval_us: 100,
        fanout: 1,
        bits: 64,
    }
}

/// Trial `k`'s seed and input values.
fn trial_inputs(seed: u64, k: usize) -> (u64, Vec<f64>, f64) {
    let trial_seed = mix64(seed.wrapping_add(k as u64));
    let values = input_values(trial_seed, N);
    let exact = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (trial_seed, values, exact)
}

/// One finished trial.
struct Trial {
    setup_s: f64,
    /// Cold start to every node holding the exact maximum (`None`: timed out).
    converge_s: Option<f64>,
    /// Fingerprint of every node's final maximum, in node order.
    answers: u64,
    stats: NodeStats,
}

impl Trial {
    fn rejects(&self) -> u64 {
        let s = &self.stats;
        s.auth_reject + s.decode_errors + s.send_errors + s.recv_errors
    }
}

fn answers<'a>(handlers: impl Iterator<Item = &'a MaxGossipHandler>) -> u64 {
    handlers.fold(0, |hash, h| fold_hash(hash, h.current_max().to_bits()))
}

fn untraced(seed: u64, k: usize, key: &AuthKey) -> io::Result<Trial> {
    let (trial_seed, values, exact) = trial_inputs(seed, k);
    let config = handler_config();
    let started = Instant::now();
    let mut cluster = LoopbackCluster::bind(N, trial_seed, move |me| {
        MaxGossipHandler::new(me, values[me.index()], config)
    })?
    .with_auth_key(key.clone());
    let setup_s = started.elapsed().as_secs_f64();
    let converge = cluster.run_until(TIMEOUT, |hosts| {
        hosts.iter().all(|h| h.handler().current_max() == exact)
    });
    Ok(Trial {
        setup_s,
        converge_s: converge.map(|d| d.as_secs_f64()),
        answers: answers(cluster.iter_handlers().map(|(_, h)| h)),
        stats: cluster.total_stats(),
    })
}

/// Spans of one traced trial.
#[derive(Default)]
struct NodeSpans {
    on_datagram: Span,
    /// Handler time inside `on_datagram` (ns).
    on_datagram_handler_ns: u64,
    fire_timers: Span,
    fire_timers_handler_ns: u64,
    recv_from: Span,
    recv_hits: u64,
    handler_self_ns: u64,
    mailbox_send: Span,
    send_to: Span,
    pass_us: Vec<f64>,
    timer_lag: Histogram,
    frame: Option<Vec<u8>>,
}

struct TracedTrial {
    trial: Trial,
    spans: NodeSpans,
}

fn handler_ns(core: &NodeCore<TimedHandler<MaxGossipHandler>>) -> u64 {
    core.handler().stats.callbacks().ns
}

fn traced(seed: u64, k: usize, key: &AuthKey) -> io::Result<TracedTrial> {
    let (trial_seed, values, exact) = trial_inputs(seed, k);
    let config = handler_config();
    let started = Instant::now();
    let sockets: Vec<UdpSocket> = (0..N)
        .map(|_| UdpSocket::bind(("127.0.0.1", 0)))
        .collect::<io::Result<_>>()?;
    for socket in &sockets {
        socket.set_nonblocking(true)?;
    }
    let peers: Vec<SocketAddr> = sockets
        .iter()
        .map(UdpSocket::local_addr)
        .collect::<io::Result<_>>()?;
    let epoch = Instant::now();
    let mut cores: Vec<NodeCore<TimedHandler<MaxGossipHandler>>> = (0..N)
        .map(|i| {
            let me = NodeId::new(i);
            let handler = TimedHandler::new(MaxGossipHandler::new(me, values[i], config), None);
            NodeCore::new(me, peers.clone(), trial_seed, handler)
                .with_epoch(epoch)
                .with_auth_key(key.clone())
        })
        .collect();
    let mut sinks: Vec<TimedSink<&UdpSocket>> = sockets.iter().map(TimedSink::new).collect();
    let mut buf = vec![0u8; 1 << 16];
    let setup_s = started.elapsed().as_secs_f64();

    let mut s = NodeSpans::default();
    let run_started = Instant::now();
    let converge_s = loop {
        if cores
            .iter()
            .all(|c| c.handler().inner().current_max() == exact)
        {
            break Some(run_started.elapsed().as_secs_f64());
        }
        if run_started.elapsed() >= TIMEOUT {
            break None;
        }
        let pass = Instant::now();
        let mut dispatched = 0;
        for ((core, sink), socket) in cores.iter_mut().zip(&mut sinks).zip(&sockets) {
            core.start(sink);
            dispatched += fire_timers(core, sink, &mut s);
            for _ in 0..RECV_BATCH {
                let started = Instant::now();
                let got = socket.recv_from(&mut buf);
                s.recv_from.close(started);
                match got {
                    Ok((len, src)) => {
                        s.recv_hits += 1;
                        let before = handler_ns(core);
                        let started = Instant::now();
                        let verdict = core.on_datagram(&buf[..len], src, sink);
                        s.on_datagram.close(started);
                        s.on_datagram_handler_ns += handler_ns(core) - before;
                        dispatched += usize::from(matches!(verdict, Recv::Dispatched));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => core.note_recv_error(),
                }
                dispatched += fire_timers(core, sink, &mut s);
            }
        }
        s.pass_us.push(pass.elapsed().as_secs_f64() * 1e6);
        if dispatched == 0 {
            std::thread::sleep(IDLE_BACKOFF);
        }
    };

    let mut stats = NodeStats::default();
    for (core, sink) in cores.iter().zip(&sinks) {
        stats.merge(core.stats());
        s.timer_lag.merge(core.timer_lag());
        let h = &core.handler().stats;
        s.handler_self_ns += h.self_ns();
        s.mailbox_send.merge(&h.mailbox_send);
        s.send_to.merge(&sink.span);
        if s.frame.is_none() {
            s.frame = sink.first_frame.clone();
        }
    }
    Ok(TracedTrial {
        trial: Trial {
            setup_s,
            converge_s,
            answers: answers(cores.iter().map(|c| c.handler().inner())),
            stats,
        },
        spans: s,
    })
}

fn fire_timers(
    core: &mut NodeCore<TimedHandler<MaxGossipHandler>>,
    sink: &mut TimedSink<&UdpSocket>,
    s: &mut NodeSpans,
) -> usize {
    let before = handler_ns(core);
    let started = Instant::now();
    let fired = core.fire_due_timers(sink);
    s.fire_timers.close(started);
    s.fire_timers_handler_ns += handler_ns(core) - before;
    fired
}

/// Bytes per datagram and the fingerprint of the first trials' answers
/// (every node's final maximum): the figures that repeat exactly for a seed.
fn counters(trials: &[&Trial]) -> Counters {
    let mut total = NodeStats::default();
    let mut hash = 0;
    for (k, trial) in trials.iter().enumerate() {
        total.merge(&trial.stats);
        if k < HASHED_TRIALS {
            hash = fold_hash(hash, trial.answers);
        }
    }
    Counters {
        rounds: total.timer_fires,
        messages: total.datagrams_sent,
        events: total.messages_dispatched,
        order_hash: hash,
        bytes_per_msg: ratio(total.bytes_sent as f64, total.datagrams_sent as f64),
        error_frac: ratio(
            trials.iter().filter(|t| t.converge_s.is_none()).count() as f64,
            trials.len() as f64,
        ),
        useful: 0,
        rejects: trials.iter().map(|t| t.rejects()).sum(),
    }
}

/// The counters that repeat for a seed: rounds, messages and events follow
/// the real clock.
fn repeatable(c: Counters) -> Counters {
    Counters {
        rounds: 0,
        messages: 0,
        events: 0,
        ..c
    }
}

/// Every trial converged, nothing was rejected, and every datagram was one
/// sealed 8-byte push. Returns the number of failed trials.
fn check(trials: &[&Trial], problems: &mut Vec<String>) -> u64 {
    let mut failed = 0;
    for (k, trial) in trials.iter().enumerate() {
        let s = &trial.stats;
        let sized = s.bytes_sent == s.datagrams_sent * SEALED_PUSH_BYTES;
        if trial.converge_s.is_none() || trial.rejects() > 0 || !sized {
            failed += 1;
            problems.push(format!(
                "trial {k}: converged {:?}, {} datagrams in {} bytes, auth_reject {}, \
                 decode_errors {}, send_errors {}, recv_errors {}",
                trial.converge_s,
                s.datagrams_sent,
                s.bytes_sent,
                s.auth_reject,
                s.decode_errors,
                s.send_errors,
                s.recv_errors
            ));
        }
    }
    failed
}

/// Datagrams dispatched per second of trial wall time.
fn datagrams_per_s(trials: &[&Trial]) -> f64 {
    let dispatched: u64 = trials.iter().map(|t| t.stats.messages_dispatched).sum();
    let wall: f64 = trials.iter().filter_map(|t| t.converge_s).sum();
    ratio(dispatched as f64, wall)
}

fn converge_ms(trials: &[&Trial]) -> Vec<f64> {
    trials
        .iter()
        .filter_map(|t| t.converge_s)
        .map(|s| s * 1e3)
        .collect()
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let key = bench_key();
    let mut out = Outcome::default();
    let mut problems = Vec::new();
    let bind_error = |e: io::Error| format!("cannot bind loopback UDP sockets: {e}");
    if !trace {
        let started = Instant::now();
        let mut trials = Vec::new();
        while trials.len() < 20 || started.elapsed().as_secs_f64() < seconds {
            trials.push(untraced(seed, trials.len(), &key).map_err(bind_error)?);
        }
        let all: Vec<&Trial> = trials.iter().collect();
        out.failed = check(&all, &mut problems);
        out.attempted = trials.len() as u64;
        out.setup_s = trials.iter().map(|t| t.setup_s).collect();
        out.run_s = trials.iter().filter_map(|t| t.converge_s).collect();
        out.events_per_s = datagrams_per_s(&all);
        out.layers.counters = counters(&all);
        let ms = converge_ms(&all);
        println!(
            "udp_sealed: {} trials, converge ms p50 {} p90 {}",
            trials.len(),
            median(&ms),
            quantile(&ms, 0.9)
        );
    } else {
        // Trial k runs untraced and traced on the same inputs, alternately;
        // `check` holds both to the same answers and frame sizes.
        let started = Instant::now();
        let mut pairs = Vec::new();
        while pairs.len() < 20 || started.elapsed().as_secs_f64() < seconds {
            let k = pairs.len();
            let plain = untraced(seed, k, &key).map_err(bind_error)?;
            let timed = traced(seed, k, &key).map_err(bind_error)?;
            pairs.push((plain, timed));
        }
        let plain: Vec<&Trial> = pairs.iter().map(|p| &p.0).collect();
        let timed: Vec<&Trial> = pairs.iter().map(|p| &p.1.trial).collect();
        out.failed = check(&plain, &mut problems) + check(&timed, &mut problems);
        out.attempted = 2 * pairs.len() as u64;
        let reference = counters(&plain);
        guard(
            &mut problems,
            &repeatable(reference),
            &repeatable(counters(&timed)),
            "the traced trials",
        );
        let spans: Vec<&NodeSpans> = pairs.iter().map(|p| &p.1.spans).collect();
        out.captured_frame = spans.iter().find_map(|s| s.frame.clone());
        out.layers = layers(reference, &plain, &timed, &spans);
        out.detail = detail(&plain, &timed, &spans);
    }
    out.problems = problems;
    Ok(out)
}

fn total(spans: &[&NodeSpans], f: impl Fn(&NodeSpans) -> Span) -> Span {
    let mut sum = Span::default();
    spans.iter().for_each(|s| sum.merge(&f(s)));
    sum
}

fn sum_ns(spans: &[&NodeSpans], f: impl Fn(&NodeSpans) -> u64) -> f64 {
    spans.iter().map(|s| f(s)).sum::<u64>() as f64
}

/// Dispatches (datagrams + timer fires) over the traced trials.
fn traced_events(timed: &[&Trial]) -> f64 {
    timed
        .iter()
        .map(|t| t.stats.messages_dispatched + t.stats.timer_fires)
        .sum::<u64>() as f64
}

fn layers(counters: Counters, plain: &[&Trial], timed: &[&Trial], spans: &[&NodeSpans]) -> Layers {
    let events = traced_events(timed);
    let pass_us: Vec<f64> = spans
        .iter()
        .flat_map(|s| s.pass_us.iter().copied())
        .collect();
    let pass_ns = pass_us.iter().sum::<f64>() * 1e3;
    let handler_self = sum_ns(spans, |s| s.handler_self_ns);
    let syscalls = (total(spans, |s| s.send_to).ns + total(spans, |s| s.recv_from).ns) as f64;
    let send = total(spans, |s| s.mailbox_send);
    let p50 = |ts: &[&Trial]| median(&converge_ms(ts));
    Layers {
        counters,
        proto_self_ns_per_event: ratio(handler_self, events),
        send_calls: send.calls as f64,
        send_ns_per_call: send.ns_per_call(),
        runtime_self_ns_per_event: ratio(pass_ns - handler_self - syscalls, events),
        loop_iters: pass_us.len() as f64,
        loop_p50_us: median(&pass_us),
        loop_p99_us: quantile(&pass_us, 0.99),
        queue_capacity_events: 0.0,
        trace_overhead_frac: ratio(p50(timed) - p50(plain), p50(plain)),
    }
}

fn detail(plain: &[&Trial], timed: &[&Trial], spans: &[&NodeSpans]) -> Metrics {
    let mut m = Metrics::default();
    let on_datagram = total(spans, |s| s.on_datagram);
    let fire = total(spans, |s| s.fire_timers);
    let send = total(spans, |s| s.mailbox_send);
    let send_to = total(spans, |s| s.send_to);
    let recv = total(spans, |s| s.recv_from);
    let hits = spans.iter().map(|s| s.recv_hits).sum::<u64>() as f64;
    let mut lag = Histogram::new();
    spans.iter().for_each(|s| lag.merge(&s.timer_lag));
    let plain_ms = converge_ms(plain);
    let timed_ms = converge_ms(timed);
    m.push("udp.trials", plain.len() as f64, "count");
    m.push("udp.converge_ms_p50", median(&plain_ms), "ms");
    m.push("udp.converge_ms_p90", quantile(&plain_ms, 0.9), "ms");
    m.push("udp.converge_ms_p50.traced", median(&timed_ms), "ms");
    m.push("udp.datagrams_per_s", datagrams_per_s(plain), "1/s");
    m.push("udp.datagrams_per_s.traced", datagrams_per_s(timed), "1/s");
    m.push("node.on_datagram.calls", on_datagram.calls as f64, "count");
    m.push(
        "node.on_datagram.self_ns",
        ratio(
            on_datagram.ns as f64 - sum_ns(spans, |s| s.on_datagram_handler_ns),
            on_datagram.calls as f64,
        ),
        "ns",
    );
    m.push("node.fire_timers.calls", fire.calls as f64, "count");
    m.push(
        "node.fire_timers.self_ns",
        ratio(
            fire.ns as f64 - sum_ns(spans, |s| s.fire_timers_handler_ns),
            fire.calls as f64,
        ),
        "ns",
    );
    m.push("node.timer_lag_us_p99", lag.quantile(0.99) as f64, "us");
    m.push(
        "node.bytes_per_datagram",
        counters(timed).bytes_per_msg,
        "B",
    );
    m.push(
        "net.encode_seal.ns",
        ratio((send.ns - send_to.ns) as f64, send.calls as f64),
        "ns",
    );
    m.push("udp.send_to.ns", send_to.ns_per_call(), "ns");
    m.push("udp.recv_from.ns", recv.ns_per_call(), "ns");
    m.push("udp.poll_hit_ratio", ratio(hits, recv.calls as f64), "frac");
    m
}
