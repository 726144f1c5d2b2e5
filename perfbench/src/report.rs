//! What one benchmark run reports, and the statistics behind it.

use gossip_net::mix64;

/// One named figure with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects metrics in insertion order.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// The deterministic outcome of one simulated repetition. Two repetitions
/// of one seed must agree on every field, bit for bit; anything else means
/// the program stopped being a pure function of its seed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counters {
    /// Synchronous rounds (the chain) or churn windows crossed (the
    /// event-driven engine) or push rounds (the socket cluster).
    pub rounds: u64,
    /// Messages sent, as the protocol metrics count them.
    pub messages: u64,
    /// Units of work the runtime dispatched (see each workload).
    pub events: u64,
    /// Fingerprint of the run: the engine's dispatch-order hash where it
    /// has one, else a hash of the outputs.
    pub order_hash: u64,
    /// Modelled (simulators) or actual (sockets) bytes per message.
    pub bytes_per_msg: f64,
    /// Share of alive nodes whose final estimate is off by more than 1%.
    pub error_frac: f64,
    /// Useful outcomes counted by the protocol (entries adopted, ...).
    pub useful: u64,
    /// Inputs the receiving layer rejected (digest mismatches, frames
    /// failing authentication or decoding).
    pub rejects: u64,
}

/// The counter guard: a repetition of a seed must reproduce the first one.
pub fn guard(problems: &mut Vec<String>, reference: &Counters, got: &Counters, what: &str) {
    if got != reference {
        problems.push(format!(
            "counter guard: {what} disagrees with the first run of this seed: \
             {got:?} vs {reference:?}"
        ));
    }
}

/// Fold words into a 64-bit fingerprint.
pub fn fold_hash(acc: u64, word: u64) -> u64 {
    mix64(acc ^ word.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Median of a sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` (0 for an empty sample).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip printing
/// gives (non-finite values, which JSON cannot hold, become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}`.
pub fn json_metrics(metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn json_is_escaped_and_exact() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_num(0.1), "0.1");
        assert_eq!(json_num(3.0), "3.0");
        assert_eq!(json_num(f64::NAN), "0");
    }
}
