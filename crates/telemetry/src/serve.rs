//! Live `/metrics` exposition — std-only Prometheus text format 0.0.4.
//!
//! Long runs (ROADMAP item 3 targets 10⁷–10⁸-node simulations) should be
//! observable *while they run*, not only from the artifact written at the
//! end. [`MetricsServer`] binds a `std::net::TcpListener` on a scrape
//! thread and answers `GET /metrics` by calling a render closure the
//! caller composes (typically from a shared [`crate::AtomicRecorder`]
//! snapshot plus runner progress); `GET /healthz` answers `ok`.
//!
//! The server is strictly additive: nothing in the hot path knows it
//! exists. When `--serve-metrics` is absent no listener is bound and the
//! [`crate::NullRecorder`] monomorphizations are untouched; those are
//! what the repo benchmark (`perfbench/`) times.
//!
//! [`render_metrics`] is the shared renderer: one pass over a
//! [`TelemetrySnapshot`] (sampler-path counters, auxiliary counters,
//! pool sizes, span histograms), an optional [`ProgressView`], and
//! optional allocator stats ([`crate::alloc`]), emitted as conformant
//! metric families — every family gets `# HELP`/`# TYPE`, counters end
//! in `_total`, histograms emit cumulative `_bucket{le=…}`/`_sum`/
//! `_count` series.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::alloc::AllocSnapshot;
use crate::events::{Counter, SamplerPath};
use crate::snapshot::TelemetrySnapshot;

/// Plain-data view of runner progress for the metrics page.
///
/// `paba-telemetry` sits below the Monte-Carlo runner in the dependency
/// graph, so the runner's `Progress` converts itself into this struct
/// (see `paba_mcrunner::LiveRun`) rather than being referenced here.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProgressView {
    /// Work units completed so far.
    pub completed: u64,
    /// Total work units.
    pub total: u64,
    /// Wall seconds since the run started.
    pub elapsed_s: f64,
    /// Completion rate in units/s (0.0 until known).
    pub rate: f64,
    /// Estimated seconds to completion, when a rate is known.
    pub eta_s: Option<f64>,
}

/// Escape a `# HELP` text: `\` → `\\`, newline → `\n`.
fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escape a label value: `\` → `\\`, `"` → `\"`, newline → `\n`.
fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn fmt_f64(x: f64) -> String {
    if x.is_nan() {
        "NaN".to_string()
    } else if x == f64::INFINITY {
        "+Inf".to_string()
    } else if x == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{x}")
    }
}

struct Page {
    out: String,
}

impl Page {
    fn new() -> Self {
        Self { out: String::new() }
    }

    fn family(&mut self, name: &str, kind: &str, help: &str) {
        debug_assert!(valid_metric_name(name), "bad metric name {name}");
        self.out
            .push_str(&format!("# HELP {name} {}\n", escape_help(help)));
        self.out.push_str(&format!("# TYPE {name} {kind}\n"));
    }

    fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: &str) {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                self.out.push_str(&format!("{k}=\"{}\"", escape_label(v)));
            }
            self.out.push('}');
        }
        self.out.push(' ');
        self.out.push_str(value);
        self.out.push('\n');
    }
}

/// `[a-zA-Z_:][a-zA-Z0-9_:]*` — the Prometheus metric-name charset.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Render one Prometheus text-format page from a telemetry snapshot plus
/// optional progress and allocator state.
///
/// Every series is emitted on every render (zeros included), so a scraper
/// sees stable series identities and monotone counters across scrapes.
pub fn render_metrics(
    snap: &TelemetrySnapshot,
    progress: Option<&ProgressView>,
    alloc: Option<&AllocSnapshot>,
) -> String {
    let mut p = Page::new();

    p.family(
        "paba_build_info",
        "gauge",
        "Build metadata of the serving process (value is always 1).",
    );
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    p.sample(
        "paba_build_info",
        &[("version", env!("CARGO_PKG_VERSION")), ("profile", profile)],
        "1",
    );

    p.family(
        "paba_requests_total",
        "counter",
        "Assign requests recorded, summed over sampler paths.",
    );
    p.sample(
        "paba_requests_total",
        &[],
        &snap.total_requests().to_string(),
    );

    p.family(
        "paba_sampler_path_requests_total",
        "counter",
        "Assign requests served, by candidate-materialization path.",
    );
    for path in SamplerPath::ALL {
        p.sample(
            "paba_sampler_path_requests_total",
            &[("path", path.label())],
            &snap.path_count(path).to_string(),
        );
    }

    p.family(
        "paba_events_total",
        "counter",
        "Auxiliary hot-path events (budget exhaustions, index fallbacks).",
    );
    for c in Counter::ALL {
        p.sample(
            "paba_events_total",
            &[("counter", c.label())],
            &snap.counter(c).to_string(),
        );
    }

    p.family(
        "paba_candidate_pools_total",
        "counter",
        "Materialized candidate pools observed.",
    );
    p.sample(
        "paba_candidate_pools_total",
        &[],
        &snap.pool_sizes.total().to_string(),
    );

    p.family(
        "paba_stage_duration_seconds",
        "histogram",
        "Stage span durations (log2-bucketed nanoseconds, upper bounds in seconds).",
    );
    for span in &snap.spans {
        let stage = span.stage.label();
        let mut cumulative = 0u64;
        for (bucket, count) in span.buckets.iter() {
            cumulative += count;
            // Bucket 0 holds the value 0 ns; bucket b >= 1 covers
            // [2^(b-1), 2^b) ns, so 2^b ns is its inclusive-enough upper
            // bound once converted to seconds.
            let le = if bucket == 0 {
                0.0
            } else {
                (1u64 << bucket.min(63)) as f64 / 1e9
            };
            p.sample(
                "paba_stage_duration_seconds_bucket",
                &[("stage", stage), ("le", &fmt_f64(le))],
                &cumulative.to_string(),
            );
        }
        p.sample(
            "paba_stage_duration_seconds_bucket",
            &[("stage", stage), ("le", "+Inf")],
            &span.count.to_string(),
        );
        p.sample(
            "paba_stage_duration_seconds_sum",
            &[("stage", stage)],
            &fmt_f64(span.sum_ns as f64 / 1e9),
        );
        p.sample(
            "paba_stage_duration_seconds_count",
            &[("stage", stage)],
            &span.count.to_string(),
        );
    }

    if let Some(pr) = progress {
        p.family(
            "paba_progress_completed_runs",
            "gauge",
            "Work units (runs or grid points) completed so far.",
        );
        p.sample(
            "paba_progress_completed_runs",
            &[],
            &pr.completed.to_string(),
        );
        p.family(
            "paba_progress_total_runs",
            "gauge",
            "Total work units in this invocation.",
        );
        p.sample("paba_progress_total_runs", &[], &pr.total.to_string());
        p.family(
            "paba_progress_elapsed_seconds",
            "gauge",
            "Wall seconds since the run started.",
        );
        p.sample("paba_progress_elapsed_seconds", &[], &fmt_f64(pr.elapsed_s));
        p.family(
            "paba_progress_rate_runs_per_second",
            "gauge",
            "Completion rate in work units per second.",
        );
        p.sample("paba_progress_rate_runs_per_second", &[], &fmt_f64(pr.rate));
        if let Some(eta) = pr.eta_s {
            p.family(
                "paba_progress_eta_seconds",
                "gauge",
                "Estimated seconds until completion.",
            );
            p.sample("paba_progress_eta_seconds", &[], &fmt_f64(eta));
        }
    }

    if let Some(a) = alloc {
        p.family(
            "paba_alloc_allocations_total",
            "counter",
            "Heap allocations observed by the counting global allocator.",
        );
        p.sample(
            "paba_alloc_allocations_total",
            &[],
            &a.allocations.to_string(),
        );
        p.family(
            "paba_alloc_allocated_bytes_total",
            "counter",
            "Cumulative bytes handed out by the counting global allocator.",
        );
        p.sample(
            "paba_alloc_allocated_bytes_total",
            &[],
            &a.allocated_bytes.to_string(),
        );
        p.family(
            "paba_alloc_live_bytes",
            "gauge",
            "Currently live heap bytes.",
        );
        p.sample("paba_alloc_live_bytes", &[], &a.live_bytes.to_string());
        p.family(
            "paba_alloc_peak_bytes",
            "gauge",
            "High-water mark of live heap bytes.",
        );
        p.sample("paba_alloc_peak_bytes", &[], &a.peak_bytes.to_string());
    }

    p.out
}

/// A background scrape endpoint serving `GET /metrics` and
/// `GET /healthz` until shut down.
///
/// The render closure runs on the scrape thread per request, so it must
/// be cheap-ish and must only read shared state (an atomic snapshot).
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` (e.g. `127.0.0.1:9184`; port 0 picks a free port) and
    /// start the scrape thread.
    pub fn spawn<F>(addr: &str, render: F) -> Result<Self, String>
    where
        F: Fn() -> String + Send + 'static,
    {
        let listener = TcpListener::bind(addr)
            .map_err(|e| format!("cannot bind metrics address {addr}: {e}"))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("metrics listener: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("metrics listener: {e}"))?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_thread = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("paba-metrics".into())
            .spawn(move || {
                // Accept-error backoff: WouldBlock is the idle poll tick and
                // stays at the base interval, but hard accept errors (EMFILE,
                // ENFILE, ECONNABORTED storms) double the sleep up to a 1 s
                // cap so a persistent fault cannot spin the thread, then
                // reset as soon as an accept succeeds.
                const BASE: Duration = Duration::from_millis(25);
                const CAP: Duration = Duration::from_millis(1000);
                let mut backoff = BASE;
                while !stop_thread.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            backoff = BASE;
                            // A broken scrape must not kill the endpoint.
                            let _ = serve_connection(stream, &render);
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            backoff = BASE;
                            std::thread::sleep(BASE);
                        }
                        Err(_) => {
                            std::thread::sleep(backoff);
                            backoff = (backoff * 2).min(CAP);
                        }
                    }
                }
            })
            .map_err(|e| format!("cannot spawn metrics thread: {e}"))?;
        Ok(Self {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the scrape thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn serve_connection<F: Fn() -> String>(mut stream: TcpStream, render: &F) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut buf = [0u8; 4096];
    let mut req = Vec::new();
    // Read until the end of the request head (we ignore any body).
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        req.extend_from_slice(&buf[..n]);
        if req.windows(4).any(|w| w == b"\r\n\r\n") || req.len() > 16 * 1024 {
            break;
        }
    }
    let head = String::from_utf8_lossy(&req);
    let mut parts = head.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain",
            "method not allowed\n".to_string(),
        )
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                render(),
            ),
            "/healthz" => ("200 OK", "text/plain", "ok\n".to_string()),
            _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
        }
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::Stage;
    use crate::recorder::{AtomicRecorder, Recorder};

    fn busy_recorder() -> AtomicRecorder {
        let rec = AtomicRecorder::new();
        rec.path(SamplerPath::RejectionReplica);
        rec.path(SamplerPath::RejectionReplica);
        rec.path(SamplerPath::Windowed);
        rec.count(Counter::RejectionBudgetExhausted, 5);
        rec.pool_size(12);
        rec.span_ns(Stage::AssignLoop, 1_500);
        rec.span_ns(Stage::AssignLoop, 0);
        rec
    }

    /// Parse one exposition line into (name, labels, value); None for
    /// comments/blanks.
    fn parse_line(line: &str) -> Option<(String, String, String)> {
        if line.is_empty() || line.starts_with('#') {
            return None;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample has a value");
        let (name, labels) = match series.split_once('{') {
            Some((n, rest)) => (n.to_string(), rest.trim_end_matches('}').to_string()),
            None => (series.to_string(), String::new()),
        };
        Some((name, labels, value.to_string()))
    }

    #[test]
    fn every_sample_line_is_well_formed() {
        let snap = busy_recorder().snapshot();
        let progress = ProgressView {
            completed: 3,
            total: 10,
            elapsed_s: 1.5,
            rate: 2.0,
            eta_s: Some(3.5),
        };
        let alloc = AllocSnapshot {
            allocations: 10,
            allocated_bytes: 4096,
            live_bytes: 1024,
            peak_bytes: 2048,
        };
        let page = render_metrics(&snap, Some(&progress), Some(&alloc));
        let mut samples = 0;
        for line in page.lines() {
            let Some((name, labels, value)) = parse_line(line) else {
                continue;
            };
            samples += 1;
            assert!(valid_metric_name(&name), "bad name in {line:?}");
            if !labels.is_empty() {
                for pair in labels.split("\",") {
                    let (k, v) = pair.split_once("=\"").expect("label k=\"v\"");
                    assert!(valid_metric_name(k), "bad label name in {line:?}");
                    assert!(!v.contains('\n'), "unescaped newline in {line:?}");
                }
            }
            let v = value.trim_end_matches('"');
            assert!(
                v == "+Inf" || v.parse::<f64>().is_ok(),
                "bad value in {line:?}"
            );
        }
        assert!(samples > 20, "page has substance ({samples} samples)");
        // Counters end in _total per convention; gauges don't.
        assert!(page.contains("paba_requests_total 3"));
        assert!(page.contains("paba_sampler_path_requests_total{path=\"rejection-replica\"} 2"));
        assert!(page.contains("paba_events_total{counter=\"rejection-budget-exhausted\"} 5"));
        assert!(page.contains("paba_progress_completed_runs 3"));
        assert!(page.contains("paba_alloc_peak_bytes 2048"));
    }

    #[test]
    fn every_family_has_help_and_type() {
        let snap = busy_recorder().snapshot();
        let page = render_metrics(&snap, None, None);
        let mut declared = std::collections::HashSet::new();
        for line in page.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                declared.insert(rest.split(' ').next().unwrap().to_string());
            }
        }
        for line in page.lines() {
            let Some((name, _, _)) = parse_line(line) else {
                continue;
            };
            let family = name
                .strip_suffix("_bucket")
                .or_else(|| name.strip_suffix("_sum"))
                .or_else(|| name.strip_suffix("_count"))
                .unwrap_or(&name);
            assert!(
                declared.contains(family) || declared.contains(&name),
                "sample {name} has no TYPE declaration"
            );
        }
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_capped_by_inf() {
        let rec = AtomicRecorder::new();
        for ns in [0u64, 100, 1_000, 1_000_000, 1_000_000] {
            rec.span_ns(Stage::AssignLoop, ns);
        }
        let page = render_metrics(&rec.snapshot(), None, None);
        let mut last = 0u64;
        let mut saw_inf = false;
        for line in page.lines() {
            if line.starts_with("paba_stage_duration_seconds_bucket{stage=\"assign-loop\"") {
                let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
                assert!(v >= last, "buckets must be cumulative: {line}");
                last = v;
                if line.contains("le=\"+Inf\"") {
                    saw_inf = true;
                    assert_eq!(v, 5);
                }
            }
        }
        assert!(saw_inf, "+Inf bucket present");
        assert!(page.contains("paba_stage_duration_seconds_count{stage=\"assign-loop\"} 5"));
    }

    #[test]
    fn help_and_label_escaping() {
        assert_eq!(escape_help("a\\b\nc"), "a\\\\b\\nc");
        assert_eq!(escape_label("say \"hi\"\\\n"), "say \\\"hi\\\"\\\\\\n");
        // Label values in a rendered page never contain raw quotes beyond
        // the delimiters.
        let mut p = Page::new();
        p.family("x_total", "counter", "line1\nline2 \\ backslash");
        p.sample("x_total", &[("k", "v\"w\n")], "1");
        assert!(p
            .out
            .contains("# HELP x_total line1\\nline2 \\\\ backslash\n"));
        assert!(p.out.contains("x_total{k=\"v\\\"w\\n\"} 1\n"));
    }

    #[test]
    fn counters_are_monotone_across_scrapes_mid_run() {
        let rec = AtomicRecorder::new();
        rec.path(SamplerPath::Windowed);
        rec.count(Counter::CachesBitmap, 2);
        let first = render_metrics(&rec.snapshot(), None, None);
        // "Mid-run": more events land between the two scrapes.
        rec.path(SamplerPath::Windowed);
        rec.path(SamplerPath::ExactScan);
        rec.count(Counter::CachesBitmap, 3);
        rec.span_ns(Stage::AssignLoop, 10);
        let second = render_metrics(&rec.snapshot(), None, None);

        let counters = |page: &str| -> std::collections::HashMap<String, f64> {
            page.lines()
                .filter_map(parse_line)
                .filter(|(n, _, _)| n.ends_with("_total") || n.ends_with("_count"))
                .map(|(n, l, v)| (format!("{n}{{{l}}}"), v.parse::<f64>().unwrap()))
                .collect()
        };
        let a = counters(&first);
        let b = counters(&second);
        assert_eq!(a.len(), b.len(), "series identities are stable");
        for (series, &v1) in &a {
            let v2 = b[series];
            assert!(v2 >= v1, "{series} regressed: {v1} -> {v2}");
        }
        assert!(b["paba_requests_total{}"] > a["paba_requests_total{}"]);
    }

    #[test]
    fn http_server_round_trip() {
        let rec = std::sync::Arc::new(busy_recorder());
        let rec2 = std::sync::Arc::clone(&rec);
        let server = MetricsServer::spawn("127.0.0.1:0", move || {
            render_metrics(&rec2.snapshot(), None, None)
        })
        .expect("bind");
        let addr = server.local_addr();

        let get = |path: &str| -> String {
            let mut s = TcpStream::connect(addr).expect("connect");
            write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let mut out = String::new();
            s.read_to_string(&mut out).unwrap();
            out
        };

        let metrics = get("/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"));
        assert!(metrics.contains("text/plain; version=0.0.4"));
        assert!(metrics.contains("paba_requests_total 3"));

        let health = get("/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK"));
        assert!(health.ends_with("ok\n"));

        assert!(get("/nope").starts_with("HTTP/1.1 404"));

        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 405"));

        server.shutdown();
    }
}
