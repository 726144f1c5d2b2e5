//! The workspace benchmark: one process runs one workload for a fixed
//! wall-clock budget and prints its metrics as one JSON line.
//!
//! ```text
//! perfbench --workload <drr_chain|churn_push|ae_drift|udp_sealed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of untraced runs.
//! `--trace 1` reports per-layer metrics from runs whose layer seams are
//! wrapped from outside (see `timed`), alternating with untraced runs
//! that give the tracing overhead and that every traced run must match.
//! See `README.md` next to this crate for the workloads and metrics.

mod ae_drift;
mod churn_push;
mod codec;
mod drr_chain;
mod report;
mod sharded;
mod timed;
mod udp_sealed;

use gossip_net::{mix64, AuthKey, SimConfig};
use gossip_runtime::{AsyncConfig, ChurnModel, LatencyModel};
use report::{guard, json_metrics, json_str, median, peak_rss_mib, Counters, Metrics};
use std::process::ExitCode;
use std::time::Instant;

type Workload = fn(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String>;

const WORKLOADS: [(&str, Workload); 4] = [
    ("drr_chain", drr_chain::run),
    ("churn_push", churn_push::run),
    ("ae_drift", ae_drift::run),
    ("udp_sealed", udp_sealed::run),
];

/// Input values are whole numbers in `[1, VALUE_RANGE)`.
pub const VALUE_RANGE: f64 = 100_000.0;

/// The cluster key of every sealed frame the benchmark makes.
pub fn bench_key() -> AuthKey {
    AuthKey::from_passphrase("perfbench cluster key")
}

/// The engine configuration of the E18 scaling experiment: 1% loss,
/// uniform 500–1500 µs latency, 0.2% crashes per round with 5% rejoin,
/// at least n/2 alive.
pub fn e18_engine(n: usize, seed: u64) -> AsyncConfig {
    AsyncConfig::new(
        SimConfig::new(n)
            .with_seed(seed)
            .with_loss_prob(0.01)
            .with_value_range(VALUE_RANGE),
    )
    .with_latency(LatencyModel::Uniform {
        lo_us: 500,
        hi_us: 1_500,
    })
    .with_churn(ChurnModel::per_round(0.002, 0.05).with_min_alive(n / 2))
}

/// `n` input values in `[1, VALUE_RANGE)`, a pure function of `seed`. No
/// input is 0, so a 0.0 that no input could produce is out of range.
pub fn input_values(seed: u64, n: usize) -> Vec<f64> {
    let base = mix64(seed ^ 0x05EE_D0F1_A9E7);
    let span = VALUE_RANGE as u64 - 1;
    (0..n)
        .map(|i| (1 + mix64(base.wrapping_add(i as u64)) % span) as f64)
        .collect()
}

/// Run `rep` while another repetition, as long as the last one, still
/// fits in `seconds`, and at least `min_reps` times.
pub fn repeat<R>(seconds: f64, min_reps: usize, mut rep: impl FnMut(usize) -> R) -> Vec<R> {
    let started = Instant::now();
    let mut out = Vec::new();
    let mut last = 0.0;
    while out.len() < min_reps || started.elapsed().as_secs_f64() + last <= seconds {
        let one = Instant::now();
        out.push(rep(out.len()));
        last = one.elapsed().as_secs_f64();
    }
    out
}

/// Time `build` repeatedly (each result is dropped outside the timing):
/// at least 15 times, then until 200 samples or half a second, so
/// `setup_s` is a median of many set-ups.
pub fn setup_samples<R>(mut build: impl FnMut() -> R) -> Vec<f64> {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 15 || (samples.len() < 200 && started.elapsed().as_secs_f64() < 0.5) {
        let one = Instant::now();
        let built = build();
        samples.push(one.elapsed().as_secs_f64());
        drop(built);
    }
    samples
}

/// One repetition of a simulated workload.
pub struct Rep {
    /// Wall time of the measured phase (s).
    pub run_s: f64,
    pub counters: Counters,
    /// What is wrong with the repetition's output, if anything.
    pub problem: Option<String>,
}

/// Hold `rep` to the first repetition's counters and to its own output check.
fn check_rep(problems: &mut Vec<String>, reference: &Counters, rep: &Rep, what: &str) {
    guard(problems, reference, &rep.counters, what);
    problems.extend(rep.problem.clone());
}

/// The repetition loop of the simulated workloads. Untraced, `setup` is
/// sampled first, while no worker thread has touched the allocator yet,
/// then `plain` repeats for the end-to-end figures. Traced, `plain` and
/// `traced` alternate: the pairs give the tracing overhead, and every
/// repetition of either kind must reproduce the first one's counters.
///
/// Returns the outcome with the figures every simulated workload shares
/// filled in (the per-layer ones are left to the caller) and the traced
/// repetitions (none when untraced).
pub fn measure<S, T>(
    seconds: f64,
    trace: bool,
    setup: impl FnMut() -> S,
    mut plain: impl FnMut() -> Rep,
    mut traced: impl FnMut() -> T,
    rep_of: impl Fn(&T) -> &Rep,
) -> (Outcome, Vec<T>) {
    let mut out = Outcome::default();
    let mut problems = Vec::new();
    let traced_reps = if !trace {
        out.setup_s = setup_samples(setup);
        let reps = repeat(seconds, 3, |_| plain());
        let reference = reps[0].counters;
        for rep in &reps {
            check_rep(&mut problems, &reference, rep, "a repeated run");
        }
        out.run_s = reps.iter().map(|r| r.run_s).collect();
        out.events_per_s = median(
            &reps
                .iter()
                .map(|r| r.counters.events as f64 / r.run_s)
                .collect::<Vec<_>>(),
        );
        out.layers.counters = reference;
        out.attempted = reps.len() as u64;
        Vec::new()
    } else {
        let pairs = repeat(seconds, 2, |_| (plain(), traced()));
        let reference = pairs[0].0.counters;
        for (untraced, timed) in &pairs {
            check_rep(&mut problems, &reference, untraced, "a repeated run");
            check_rep(&mut problems, &reference, rep_of(timed), "a traced run");
        }
        let overhead: Vec<f64> = pairs
            .iter()
            .map(|(untraced, timed)| (rep_of(timed).run_s - untraced.run_s) / untraced.run_s)
            .collect();
        out.run_s = pairs.iter().map(|(untraced, _)| untraced.run_s).collect();
        out.layers.counters = reference;
        out.layers.trace_overhead_frac = median(&overhead);
        out.attempted = 2 * pairs.len() as u64;
        pairs.into_iter().map(|(_, timed)| timed).collect()
    };
    out.failed = (problems.len() as u64).min(out.attempted);
    out.problems = problems;
    (out, traced_reps)
}

/// The per-layer figures every workload reports, each measured at the
/// seams that workload has (README.md maps them per workload).
#[derive(Clone, Debug, Default)]
pub struct Layers {
    pub counters: Counters,
    pub proto_self_ns_per_event: f64,
    pub send_calls: f64,
    pub send_ns_per_call: f64,
    pub runtime_self_ns_per_event: f64,
    pub loop_iters: f64,
    pub loop_p50_us: f64,
    pub loop_p99_us: f64,
    pub queue_capacity_events: f64,
    pub trace_overhead_frac: f64,
}

/// What one workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness or counter checks; empty means correct.
    pub problems: Vec<String>,
    /// Set-up time samples (s).
    pub setup_s: Vec<f64>,
    /// Measured-phase wall time of every untraced repetition (s).
    pub run_s: Vec<f64>,
    pub events_per_s: f64,
    pub layers: Layers,
    /// Workload-specific per-layer figures, by the names README.md gives.
    pub detail: Metrics,
    /// A frame the run put on the wire, replayed by the codec table.
    pub captured_frame: Option<Vec<u8>>,
}

struct Args {
    workload: &'static str,
    run: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    let trace = trace.ok_or("--trace is required")?;
    let names = WORKLOADS.map(|(name, _)| name);
    let (workload, run) = WORKLOADS
        .into_iter()
        .find(|(name, _)| *name == workload)
        .ok_or(format!("unknown workload {workload}; one of {names:?}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must lie in (0, 120]".to_string());
    }
    Ok(Args {
        workload,
        run,
        seed,
        seconds,
        trace,
    })
}

/// Facts about the host every result is read against.
fn host_facts(workload: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::process::Command::new(std::env::var("RUSTC").unwrap_or("rustc".into()))
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    let link = if workload == "udp_sealed" {
        "loopback, not a real link"
    } else {
        "simulated"
    };
    format!(
        "{{\"nproc\": {nproc}, \"rustc\": {}, \"kernel\": {}, \"network\": {}, \"build\": {}}}",
        json_str(&rustc),
        json_str(&kernel),
        json_str(link),
        json_str(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
    )
}

fn layer_metrics(outcome: &Outcome) -> Metrics {
    let l = &outcome.layers;
    let c = &l.counters;
    let mut m = Metrics::default();
    m.push("rounds", c.rounds as f64, "count");
    m.push("messages", c.messages as f64, "count");
    m.push("events", c.events as f64, "count");
    // The top 53 bits: exactly representable as a JSON number.
    m.push("order_hash", (c.order_hash >> 11) as f64, "hash");
    m.push("bytes_per_msg", c.bytes_per_msg, "B");
    m.push("error_frac", c.error_frac, "frac");
    m.push("rejects", c.rejects as f64, "count");
    m.push("proto.self_ns_per_event", l.proto_self_ns_per_event, "ns");
    m.push("send.calls", l.send_calls, "count");
    m.push("send.ns_per_call", l.send_ns_per_call, "ns");
    m.push(
        "runtime.self_ns_per_event",
        l.runtime_self_ns_per_event,
        "ns",
    );
    m.push("loop.iters", l.loop_iters, "count");
    m.push("loop.p50_us", l.loop_p50_us, "us");
    m.push("loop.p99_us", l.loop_p99_us, "us");
    m.push("queue_capacity_events", l.queue_capacity_events, "count");
    m.push("trace.overhead_frac", l.trace_overhead_frac, "frac");
    m.0.extend(codec::table(&bench_key(), outcome.captured_frame.as_deref()).0);
    m
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (args.run)(args.seed, args.seconds, args.trace) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let metrics = if args.trace {
        layer_metrics(&outcome)
    } else {
        let rss = match peak_rss_mib() {
            Ok(rss) => rss,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(1);
            }
        };
        let mut m = Metrics::default();
        m.push("setup_s", median(&outcome.setup_s), "s");
        m.push("run_s", median(&outcome.run_s), "s");
        m.push("events_per_s", outcome.events_per_s, "1/s");
        m.push("peak_rss_mib", rss, "MiB");
        m
    };
    let correct = outcome.problems.is_empty();
    for problem in &outcome.problems {
        eprintln!("perfbench: {}: FAILED: {problem}", args.workload);
    }
    println!("host {}", host_facts(args.workload));
    if !outcome.detail.0.is_empty() {
        println!("layers {}", json_metrics(&outcome.detail));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        json_metrics(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
