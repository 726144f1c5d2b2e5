//! The repetitions of the two `ShardedDriver` workloads (`churn_push`,
//! `ae_drift`) for [`measure`]: untraced runs for the end-to-end figures,
//! traced runs — every handler wrapped in [`TimedHandler`], `run_until`
//! sliced per churn window — for the per-layer ones.

use crate::report::{median, quantile, ratio, Counters, Metrics};
use crate::timed::{HandlerStats, Probe, TimedHandler};
use crate::{measure, Layers, Outcome, Rep};
use gossip_net::Handler;
use gossip_runtime::ShardedDriver;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One event-driven workload on the sharded engine.
pub trait ShardWorkload {
    type H: Probe + Send + 'static;

    /// The `ShardedDriver` of an untraced run.
    fn build(&self) -> ShardedDriver<Self::H>;
    /// The same driver with every handler wrapped; wrappers fold their
    /// spans into `sink` when the host drops them.
    fn build_traced(&self, sink: Arc<Mutex<HandlerStats>>) -> ShardedDriver<TimedHandler<Self::H>>;
    /// Virtual time one repetition runs to (µs).
    fn horizon_us(&self) -> u64;
    /// The churn-window length (µs): the traced slicing.
    fn window_us(&self) -> u64;
    /// Worker threads the engine dispatches on.
    fn threads(&self) -> usize;
    /// The deterministic outcome of a finished run; `inner` unwraps the
    /// hosted handler type.
    fn counters<X>(&self, driver: &ShardedDriver<X>, inner: impl Fn(&X) -> &Self::H) -> Counters
    where
        X: Handler + Send,
        X::Msg: Send;
    /// What is wrong with the outcome of a finished run, if anything.
    fn check<X>(
        &self,
        driver: &ShardedDriver<X>,
        inner: impl Fn(&X) -> &Self::H,
        counters: &Counters,
    ) -> Option<String>
    where
        X: Handler + Send,
        X::Msg: Send;
    /// Workload-specific per-layer figures from the traced runs.
    fn detail(&self, traced: &[Traced], m: &mut Metrics);
}

pub struct Traced {
    pub rep: Rep,
    /// Wall time of each churn-window slice of `run_until` (µs).
    pub windows_us: Vec<f64>,
    pub stats: HandlerStats,
    pub arena_capacity: usize,
    pub arena_reuse_total: u64,
    pub queue_capacity_events: usize,
}

fn untraced<W: ShardWorkload>(w: &W) -> Rep
where
    <W::H as Handler>::Msg: Send,
{
    let mut driver = w.build();
    let started = Instant::now();
    driver.run_until(w.horizon_us());
    let run_s = started.elapsed().as_secs_f64();
    let counters = w.counters(&driver, |h| h);
    Rep {
        run_s,
        problem: w.check(&driver, |h| h, &counters),
        counters,
    }
}

fn traced<W: ShardWorkload>(w: &W) -> Traced
where
    <W::H as Handler>::Msg: Send,
{
    let sink = Arc::new(Mutex::new(HandlerStats::for_probe::<W::H>()));
    let mut driver = w.build_traced(sink.clone());
    // Slicing at window boundaries leaves the run bit-identical.
    let mut windows_us = Vec::new();
    let started = Instant::now();
    let mut at = 0;
    while at < w.horizon_us() {
        at = (at + w.window_us()).min(w.horizon_us());
        let slice = Instant::now();
        driver.run_until(at);
        windows_us.push(slice.elapsed().as_secs_f64() * 1e6);
    }
    let run_s = started.elapsed().as_secs_f64();
    let counters = w.counters(&driver, TimedHandler::inner);
    let problem = w.check(&driver, TimedHandler::inner, &counters);
    let arena_capacity = driver.arena_capacity();
    let arena_reuse_total = driver.arena_reuse_total();
    let queue_capacity_events = driver.queue_capacity_events();
    // Dropping the `ShardedDriver` folds the live handlers' spans into the sink.
    drop(driver);
    let stats = std::mem::take(&mut *sink.lock().expect("no handler panicked"));
    Traced {
        rep: Rep {
            run_s,
            counters,
            problem,
        },
        windows_us,
        stats,
        arena_capacity,
        arena_reuse_total,
        queue_capacity_events,
    }
}

pub fn run<W: ShardWorkload>(w: &W, seconds: f64, trace: bool) -> Outcome
where
    <W::H as Handler>::Msg: Send,
{
    let (mut out, traced) = measure(
        seconds,
        trace,
        || w.build(),
        || untraced(w),
        || traced(w),
        |t| &t.rep,
    );
    if trace {
        out.layers = layers(w, &traced, &out.layers);
        out.detail = shard_detail(w, &traced);
        w.detail(&traced, &mut out.detail);
    }
    out
}

pub fn per_run(traced: &[Traced], f: impl Fn(&Traced) -> f64) -> f64 {
    median(&traced.iter().map(f).collect::<Vec<_>>())
}

/// Thread-nanoseconds the engine spent outside handler code: every worker
/// thread's share of `run_until` wall time, minus the handlers' own time.
/// Barrier waits count as engine time.
fn dispatch_self_ns<W: ShardWorkload>(w: &W, t: &Traced) -> f64 {
    t.rep.run_s * 1e9 * w.threads() as f64 - t.stats.self_ns() as f64
}

fn layers<W: ShardWorkload>(w: &W, traced: &[Traced], shared: &Layers) -> Layers {
    let events = |t: &Traced| t.rep.counters.events as f64;
    Layers {
        proto_self_ns_per_event: per_run(traced, |t| t.stats.self_ns() as f64 / events(t)),
        send_calls: per_run(traced, |t| t.stats.mailbox_send.calls as f64),
        send_ns_per_call: per_run(traced, |t| t.stats.mailbox_send.ns_per_call()),
        runtime_self_ns_per_event: per_run(traced, |t| dispatch_self_ns(w, t) / events(t)),
        loop_iters: per_run(traced, |t| t.windows_us.len() as f64),
        loop_p50_us: per_run(traced, |t| median(&t.windows_us)),
        loop_p99_us: per_run(traced, |t| quantile(&t.windows_us, 0.99)),
        queue_capacity_events: per_run(traced, |t| t.queue_capacity_events as f64),
        ..shared.clone()
    }
}

fn shard_detail<W: ShardWorkload>(w: &W, traced: &[Traced]) -> Metrics {
    let mut m = Metrics::default();
    m.push(
        "shard.window.p50_us",
        per_run(traced, |t| median(&t.windows_us)),
        "us",
    );
    m.push(
        "shard.window.p99_us",
        per_run(traced, |t| quantile(&t.windows_us, 0.99)),
        "us",
    );
    m.push(
        "shard.run_until.ns",
        per_run(traced, |t| t.rep.run_s * 1e9),
        "ns",
    );
    m.push(
        "mailbox.send.calls",
        per_run(traced, |t| t.stats.mailbox_send.calls as f64),
        "count",
    );
    m.push(
        "mailbox.send.ns",
        per_run(traced, |t| t.stats.mailbox_send.ns as f64),
        "ns",
    );
    m.push(
        "mailbox.set_timer.calls",
        per_run(traced, |t| t.stats.mailbox_timer.calls as f64),
        "count",
    );
    m.push(
        "mailbox.set_timer.ns",
        per_run(traced, |t| t.stats.mailbox_timer.ns as f64),
        "ns",
    );
    m.push(
        "handler.calls",
        per_run(traced, |t| t.stats.callbacks().calls as f64),
        "count",
    );
    m.push(
        "handler.ns",
        per_run(traced, |t| t.stats.callbacks().ns as f64),
        "ns",
    );
    m.push(
        "handler.self_ns",
        per_run(traced, |t| t.stats.self_ns() as f64),
        "ns",
    );
    m.push(
        "shard.dispatch_self_ns",
        per_run(traced, |t| dispatch_self_ns(w, t)),
        "ns",
    );
    m.push(
        "shard.arena_capacity",
        per_run(traced, |t| t.arena_capacity as f64),
        "count",
    );
    m.push(
        "shard.arena_reuse_total",
        per_run(traced, |t| t.arena_reuse_total as f64),
        "count",
    );
    m.push(
        "shard.queue_capacity_events",
        per_run(traced, |t| t.queue_capacity_events as f64),
        "count",
    );
    m.push(
        "shard.events_per_s.traced",
        per_run(traced, |t| ratio(t.rep.counters.events as f64, t.rep.run_s)),
        "1/s",
    );
    m
}
