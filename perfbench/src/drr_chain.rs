//! `drr_chain`: the paper's Algorithm 7/8 chain (`drr_gossip_ave`) on the
//! round-barrier facade — DRR forest, convergecast, root gossip,
//! data spread, dissemination — at n = 10⁵ over 2 shards. It is left out
//! of `BENCHMARK.json` while [`check`] fails on the 0.0 estimates
//! `gossip_ave` reports for roots holding no weight (see README.md).

use crate::report::{fold_hash, median, quantile, ratio, Counters, Metrics};
use crate::timed::TimedTransport;
use crate::{e18_engine, input_values, measure, Layers, Outcome, Rep};
use gossip_drr::protocol::{drr_gossip_ave, DrrGossipConfig, DrrGossipReport};
use gossip_net::Transport;
use gossip_runtime::ShardedTransport;
use std::time::Instant;

const N: usize = 100_000;
const SHARDS: usize = 2;
/// The correctness gate: at most this share of alive nodes may hold an
/// estimate more than 1% off the exact alive average.
const MAX_ERROR_FRAC: f64 = 0.05;

/// What is wrong with the chain's answer, if anything. An alive node holds
/// either no estimate (NaN: a stale rejoiner or a tree the spread missed)
/// or one inside the range of the inputs, and at most [`MAX_ERROR_FRAC`]
/// of them may be stale or more than 1% off the exact average of the alive
/// inputs.
fn check(report: &DrrGossipReport, values: &[f64], counters: &Counters) -> Option<String> {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let alive: Vec<f64> = report
        .estimates
        .iter()
        .zip(&report.alive)
        .filter(|(_, &alive)| alive)
        .map(|(&e, _)| e)
        .collect();
    let outside = alive
        .iter()
        .filter(|e| !e.is_nan() && !(lo..=hi).contains(*e))
        .count();
    let problem = if outside > 0 {
        format!(
            "{outside} of {} alive estimates lie outside the inputs' range [{lo}, {hi}]",
            alive.len()
        )
    } else if counters.error_frac > MAX_ERROR_FRAC {
        format!(
            "{:.4} of alive nodes are stale or more than 1% off the exact average {} (gate {MAX_ERROR_FRAC})",
            counters.error_frac, report.exact
        )
    } else {
        return None;
    };
    let zeros = alive.iter().filter(|&&e| e == 0.0).count();
    let cause = if zeros > 0 {
        format!(
            "; {zeros} estimates are exactly 0.0, the value `gossip_ave` \
             (crates/drr/src/gossip_ave.rs) gives a tree root that holds no weight \
             in place of no estimate; under churn data spread can carry it to every tree"
        )
    } else {
        String::new()
    };
    Some(problem + &cause)
}

fn counters(report: &DrrGossipReport) -> Counters {
    let mut hash = fold_hash(report.total_rounds, report.total_messages);
    let (mut alive, mut off) = (0u64, 0u64);
    for (&estimate, &is_alive) in report.estimates.iter().zip(&report.alive) {
        hash = fold_hash(hash, estimate.to_bits() ^ u64::from(is_alive));
        if is_alive {
            alive += 1;
            // NaN (a stale node) compares false and counts as off.
            let close = ((estimate - report.exact) / report.exact).abs() <= 0.01;
            off += u64::from(!close);
        }
    }
    Counters {
        rounds: report.total_rounds,
        messages: report.total_messages,
        events: report.total_messages,
        order_hash: hash,
        bytes_per_msg: ratio(
            report.metrics.total_bits() as f64 / 8.0,
            report.total_messages as f64,
        ),
        error_frac: ratio(off as f64, alive as f64),
        useful: 0,
        rejects: 0,
    }
}

fn run_once<T: Transport>(net: &mut T, values: &[f64]) -> (DrrGossipReport, f64) {
    let started = Instant::now();
    let report = drr_gossip_ave(net, values, &DrrGossipConfig::paper());
    (report, started.elapsed().as_secs_f64())
}

fn rep(report: &DrrGossipReport, run_s: f64, values: &[f64]) -> Rep {
    let counters = counters(report);
    Rep {
        run_s,
        problem: check(report, values, &counters),
        counters,
    }
}

fn untraced(seed: u64, values: &[f64]) -> Rep {
    let mut facade = ShardedTransport::new(e18_engine(N, seed), SHARDS);
    let (report, run_s) = run_once(&mut facade, values);
    rep(&report, run_s, values)
}

/// One traced chain: the same run through [`TimedTransport`].
struct Traced {
    rep: Rep,
    net: TimedTransport<ShardedTransport>,
    report: DrrGossipReport,
}

fn traced(seed: u64, values: &[f64]) -> Traced {
    let mut net = TimedTransport::new(ShardedTransport::new(e18_engine(N, seed), SHARDS));
    let (report, run_s) = run_once(&mut net, values);
    Traced {
        rep: rep(&report, run_s, values),
        net,
        report,
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let values = input_values(seed, N);
    let (mut out, traced) = measure(
        seconds,
        trace,
        || ShardedTransport::new(e18_engine(N, seed), SHARDS),
        || untraced(seed, &values),
        || traced(seed, &values),
        |t| &t.rep,
    );
    if trace {
        out.layers = layers(&traced, &out.layers);
        out.detail = detail(&traced, &out.run_s);
    }
    Ok(out)
}

fn per_run(traced: &[Traced], f: impl Fn(&Traced) -> f64) -> f64 {
    median(&traced.iter().map(f).collect::<Vec<_>>())
}

/// Nanoseconds the chain spent outside the transport: the protocol's own.
fn drr_self_ns(t: &Traced) -> f64 {
    t.rep.run_s * 1e9 - (t.net.send.ns + t.net.advance_round.ns) as f64
}

/// Wall time of each phase the report lists. The phases run one after
/// another and each closes its own rounds, so phase `k` spans from the
/// close of the previous phase's last round to the close of its own last
/// round (the last phase runs to the end of the chain).
fn phase_ns(t: &Traced) -> Vec<f64> {
    let ends = &t.net.round_end_ns;
    let mut out = Vec::new();
    let (mut rounds, mut from) = (0usize, 0u64);
    for (k, phase) in t.report.phases.iter().enumerate() {
        rounds += phase.rounds as usize;
        let to = if k + 1 == t.report.phases.len() {
            (t.rep.run_s * 1e9) as u64
        } else if rounds == 0 {
            0
        } else {
            ends[rounds - 1]
        };
        out.push(to.saturating_sub(from) as f64);
        from = from.max(to);
    }
    out
}

fn layers(traced: &[Traced], shared: &Layers) -> Layers {
    let events = |t: &Traced| t.rep.counters.events as f64;
    Layers {
        proto_self_ns_per_event: per_run(traced, |t| drr_self_ns(t) / events(t)),
        send_calls: per_run(traced, |t| t.net.send.calls as f64),
        send_ns_per_call: per_run(traced, |t| t.net.send.ns_per_call()),
        runtime_self_ns_per_event: per_run(traced, |t| {
            (t.net.send.ns + t.net.advance_round.ns) as f64 / events(t)
        }),
        loop_iters: per_run(traced, |t| t.net.advance_round.calls as f64),
        loop_p50_us: per_run(traced, |t| median(&t.net.advance_round_us)),
        loop_p99_us: per_run(traced, |t| quantile(&t.net.advance_round_us, 0.99)),
        queue_capacity_events: per_run(traced, |t| t.net.inner().queue_capacity_events() as f64),
        ..shared.clone()
    }
}

fn detail(traced: &[Traced], untraced_run_s: &[f64]) -> Metrics {
    let mut m = Metrics::default();
    m.push(
        "facade.send.calls",
        per_run(traced, |t| t.net.send.calls as f64),
        "count",
    );
    m.push(
        "facade.send.ns",
        per_run(traced, |t| t.net.send.ns as f64),
        "ns",
    );
    m.push(
        "facade.advance_round.calls",
        per_run(traced, |t| t.net.advance_round.calls as f64),
        "count",
    );
    m.push(
        "facade.advance_round.ns",
        per_run(traced, |t| t.net.advance_round.ns as f64),
        "ns",
    );
    m.push(
        "facade.advance_round.p99_us",
        per_run(traced, |t| quantile(&t.net.advance_round_us, 0.99)),
        "us",
    );
    m.push(
        "facade.queue_capacity_events",
        per_run(traced, |t| t.net.inner().queue_capacity_events() as f64),
        "count",
    );
    m.push("drr.self_ns", per_run(traced, drr_self_ns), "ns");
    for (i, phase) in traced[0].report.phases.iter().enumerate() {
        m.push(
            format!("drr.phase.{}.ns", phase.name),
            per_run(traced, |t| phase_ns(t)[i]),
            "ns",
        );
        m.push(
            format!("drr.phase.{}.messages", phase.name),
            phase.messages as f64,
            "count",
        );
        m.push(
            format!("drr.phase.{}.rounds", phase.name),
            phase.rounds as f64,
            "count",
        );
    }
    m.push("drr.chain_s.traced", per_run(traced, |t| t.rep.run_s), "s");
    m.push("drr.chain_s.untraced", median(untraced_run_s), "s");
    m
}
