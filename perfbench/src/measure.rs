//! Timing helpers and the public-API wrappers the workloads measure through.
//!
//! Every layer is timed from outside: a wrapper implements the same public
//! trait as the layer ([`Strategy`], [`RequestSource`]) and forwards to it,
//! so the program itself carries no benchmark instrumentation.

use crate::calib::Calibration;
use paba_core::{Assignment, CacheNetwork, Request, RequestSource, Strategy};
use paba_topology::Topology;
use rand::Rng;
use std::time::{Duration, Instant};

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The result of one benchmark run on one workload.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Requests attempted over the whole run.
    pub attempted: u64,
    /// Requests served degraded, plus every request of a repetition that
    /// failed its output check.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result (check failures).
    pub notes: Vec<String>,
    /// The machine-speed factor the run's timings were scaled by.
    pub speed: f64,
}

impl Outcome {
    /// A correct outcome with nothing measured yet.
    pub fn new() -> Self {
        Self {
            correct: true,
            ..Self::default()
        }
    }

    /// Value of metric `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Record a failed output check: the run is no longer correct and all
    /// `requests` of the offending repetition count as failed.
    pub fn fail(&mut self, requests: u64, why: String) {
        self.correct = false;
        self.failed += requests;
        self.notes.push(why);
    }

    /// The single-line JSON result object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit of the `f64` (non-finite values,
/// which a broken measurement could produce, are written as 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Repetitions made however short the measurement time is.
const MIN_REPS: usize = 3;

/// Run `rep(i)` for `i = 0, 1, …` until at least [`MIN_REPS`] repetitions
/// are done and `seconds` have passed. The first `first_cycle`
/// repetitions (one pass over the workload's inputs) run back to back;
/// after them, machine-speed probes on `cal` bracket every repetition.
///
/// Also returns the peak resident set after the first cycle, read before
/// any probe allocates: the memory one pass over the inputs needs,
/// unaffected by how many repetitions the run fits in.
pub fn repeat_for<T>(
    cal: &Calibration,
    seconds: f64,
    first_cycle: usize,
    mut rep: impl FnMut(usize) -> T,
) -> (Vec<T>, f64) {
    let start = Instant::now();
    let mut out: Vec<T> = (0..first_cycle.max(1)).map(&mut rep).collect();
    let rss = peak_rss_mb();
    cal.probe();
    while out.len() < MIN_REPS || secs(start) < seconds {
        out.push(rep(out.len()));
        cal.probe();
    }
    (out, rss)
}

/// `metrics` at machine speed factor `speed`: times (unit `s` or `ns`)
/// multiplied by it, rates (unit `1/s`) divided by it.
pub fn scaled(metrics: Vec<Metric>, speed: f64) -> Vec<Metric> {
    metrics
        .into_iter()
        .map(|m| match m.unit {
            "s" | "ns" => Metric::new(m.name, m.value * speed, m.unit),
            "1/s" => Metric::new(m.name, m.value / speed, m.unit),
            _ => m,
        })
        .collect()
}

/// Median of `samples` timed calls of `op`, each returning how many
/// operations it performed; the result is nanoseconds per operation.
pub fn ns_per_op(samples: usize, mut op: impl FnMut() -> u64) -> f64 {
    let per: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            let ops = op().max(1);
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&per)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The 99th percentile of the response time of requests that joined
/// their server's FIFO queue at position `p` with frequency `hist[p]`,
/// when every service takes an independent Exp(1) time.
///
/// A request at position `p` waits for `p` services (the one in progress
/// restarts its clock by memorylessness), so its response time is
/// Erlang(p, 1) and the distribution is the mixture of those; its 99th
/// percentile is found by bisection on the tail
/// `P(S > t) = Σ_p w_p · e^(−t) · Σ_{i<p} t^i / i!`.
pub fn sojourn_p99(hist: &[u64]) -> f64 {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let tail = |t: f64| {
        let (mut term, mut below, mut acc) = ((-t).exp(), 0.0, 0.0);
        for (p, &c) in hist.iter().enumerate().skip(1) {
            below += term;
            term *= t / p as f64;
            acc += c as f64 * below;
        }
        acc / total as f64
    };
    let mut hi = 1.0;
    while tail(hi) > 0.01 {
        hi *= 2.0;
    }
    let mut lo = 0.0;
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if tail(mid) > 0.01 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Checks and counts every assignment, and optionally busy-waits before
/// each one (the negative control's injected slowdown).
///
/// * `violations`: non-fallback assignments farther than the radius;
/// * `positions[p]`: assignments after the first `skip` that made the
///   chosen server's load `p`, i.e. the request's position in that
///   server's FIFO queue.
pub struct Audited<S> {
    inner: S,
    radius: Option<u32>,
    spin: Duration,
    skip: u64,
    pub calls: u64,
    pub violations: u64,
    pub positions: Vec<u64>,
}

impl<S> Audited<S> {
    pub fn new(inner: S, radius: Option<u32>, spin_ns: u64) -> Self {
        Self {
            inner,
            radius,
            spin: Duration::from_nanos(spin_ns),
            skip: 0,
            calls: 0,
            violations: 0,
            positions: Vec::new(),
        }
    }

    /// Leave the first `skip` assignments out of `positions`.
    pub fn skip_positions(mut self, skip: u64) -> Self {
        self.skip = skip;
        self
    }
}

impl<T: Topology, S: Strategy<T>> Strategy<T> for Audited<S> {
    #[inline]
    fn assign<R: Rng + ?Sized>(
        &mut self,
        net: &CacheNetwork<T>,
        loads: &[u32],
        req: Request,
        rng: &mut R,
    ) -> Assignment {
        if !self.spin.is_zero() {
            let t = Instant::now();
            while t.elapsed() < self.spin {
                std::hint::spin_loop();
            }
        }
        let a = self.inner.assign(net, loads, req, rng);
        self.calls += 1;
        if a.fallback.is_none() && self.radius.is_some_and(|r| a.hops > r) {
            self.violations += 1;
        }
        if self.calls > self.skip {
            let p = loads[a.server as usize] as usize + 1;
            if p >= self.positions.len() {
                self.positions.resize(p + 1, 0);
            }
            self.positions[p] += 1;
        }
        a
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Accumulates the wall time spent inside the wrapped strategy's
/// `assign` or the wrapped source's `next_request`.
pub struct Timed<X> {
    inner: X,
    pub ns: u64,
    pub calls: u64,
}

impl<X> Timed<X> {
    pub fn new(inner: X) -> Self {
        Self {
            inner,
            ns: 0,
            calls: 0,
        }
    }

    pub fn into_inner(self) -> X {
        self.inner
    }
}

impl<T: Topology, S: Strategy<T>> Strategy<T> for Timed<S> {
    #[inline]
    fn assign<R: Rng + ?Sized>(
        &mut self,
        net: &CacheNetwork<T>,
        loads: &[u32],
        req: Request,
        rng: &mut R,
    ) -> Assignment {
        let t = Instant::now();
        let a = self.inner.assign(net, loads, req, rng);
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        a
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl<T: Topology, W: RequestSource<T>> RequestSource<T> for Timed<W> {
    #[inline]
    fn next_request<R: Rng + ?Sized>(&mut self, net: &CacheNetwork<T>, rng: &mut R) -> Request {
        let t = Instant::now();
        let req = self.inner.next_request(net, rng);
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        req
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn sojourn_p99_matches_closed_forms() {
        // Everyone at position 1: Exp(1), p99 = ln 100.
        assert!((sojourn_p99(&[0, 7]) - 100f64.ln()).abs() < 1e-9);
        // Everyone at position 2: Erlang(2), P(S > t) = e^(−t)(1 + t).
        let t = sojourn_p99(&[0, 0, 3]);
        assert!(((-t).exp() * (1.0 + t) - 0.01).abs() < 1e-9);
        assert_eq!(sojourn_p99(&[]), 0.0);
    }

    #[test]
    fn json_has_the_contract_keys_and_finite_numbers() {
        let o = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![
                Metric::new("wall_s", 1.25, "s"),
                Metric::new("bad", f64::NAN, "s"),
            ],
            notes: vec![],
            speed: 1.0,
        };
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"bad\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
    }
}
