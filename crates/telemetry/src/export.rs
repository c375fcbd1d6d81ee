//! Trace exporters — hand-rolled JSON, no new dependencies.
//!
//! Three formats:
//!
//! * [`events_jsonl`] — one JSON object per line per sampled event;
//!   greppable and `jq`-friendly.
//! * [`series_json`] — the `paba-trace-series/1` artifact: per-run load
//!   trajectories plus their pointwise mean.
//! * [`chrome_trace`] — Chrome Trace Format (`trace_event` complete
//!   events, `"ph": "X"`), loadable in Perfetto / `chrome://tracing`.
//!
//! The writers only use `format!` and the `paba_util::json` emission
//! helpers; the matching reader is `paba_util::json::parse`.

use paba_util::json::escape;
use paba_util::Provenance;

use crate::timeseries::LoadSeries;
use crate::trace::{RunTrace, SpanEvent, TraceEvent, TraceReport};

/// One event as a single-line JSON object.
pub fn event_json(e: &TraceEvent) -> String {
    let path = match e.path {
        Some(p) => format!("\"{}\"", escape(p.label())),
        None => "null".into(),
    };
    let pool = match e.pool_size {
        Some(s) => s.to_string(),
        None => "null".into(),
    };
    let cands: Vec<String> = e
        .candidates
        .iter()
        .map(|&(node, load)| format!("[{node}, {load}]"))
        .collect();
    format!(
        "{{\"run\": {}, \"request\": {}, \"file\": {}, \"origin\": {}, \"server\": {}, \"hops\": {}, \"path\": {}, \"pool_size\": {}, \"candidates\": [{}]}}",
        e.run,
        e.request,
        e.file,
        e.origin,
        e.server,
        e.hops,
        path,
        pool,
        cands.join(", ")
    )
}

/// JSONL dump: one event per line, `(run, request)` order, trailing
/// newline when nonempty.
pub fn events_jsonl<'a>(events: impl Iterator<Item = &'a TraceEvent>) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&event_json(e));
        out.push('\n');
    }
    out
}

/// The `paba-trace-series/1` artifact: per-run series plus their mean,
/// stamped with the run's [`Provenance`].
pub fn series_json(runs: &[RunTrace], mean: &LoadSeries, provenance: &Provenance) -> String {
    let per_run: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "{{\"run\": {}, \"requests\": {}, \"series\": {}}}",
                r.run,
                r.requests,
                r.series.to_json()
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"{}\",\n  \"provenance\": {},\n  \"runs\": [{}],\n  \"mean\": {}\n}}\n",
        paba_util::schema::TRACE_SERIES,
        provenance.to_json(),
        per_run.join(", "),
        mean.to_json()
    )
}

/// Chrome Trace Format document for the stage spans.
///
/// Complete events (`"ph": "X"`) with microsecond `ts`/`dur`; each run
/// gets its own `tid` lane (spans outside any run land on `tid` 0).
pub fn chrome_trace(spans: &[SpanEvent]) -> String {
    let events: Vec<String> = spans
        .iter()
        .map(|s| {
            let tid = s.run.map(|r| r + 1).unwrap_or(0);
            format!(
                "    {{\"name\": \"{}\", \"cat\": \"stage\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \"tid\": {}}}",
                escape(s.stage.label()),
                s.ts_ns as f64 / 1_000.0,
                s.dur_ns as f64 / 1_000.0,
                tid
            )
        })
        .collect();
    format!(
        "{{\n  \"traceEvents\": [\n{}\n  ],\n  \"displayTimeUnit\": \"ms\"\n}}\n",
        events.join(",\n")
    )
}

impl TraceReport {
    /// JSONL dump of all retained events (see [`events_jsonl`]).
    pub fn events_jsonl(&self) -> String {
        events_jsonl(self.events())
    }

    /// `paba-trace-series/1` artifact (see [`series_json`]).
    pub fn series_json(&self, provenance: &Provenance) -> String {
        series_json(&self.runs, &self.mean_series(), provenance)
    }

    /// Chrome Trace Format document (see [`chrome_trace`]).
    pub fn chrome_json(&self) -> String {
        chrome_trace(&self.spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{SamplerPath, Stage};

    fn event() -> TraceEvent {
        TraceEvent {
            run: 1,
            request: 7,
            file: 3,
            origin: 2,
            server: 9,
            hops: 2,
            path: Some(SamplerPath::Windowed),
            pool_size: Some(4),
            candidates: vec![(9, 0), (5, 3)],
        }
    }

    #[test]
    fn event_line_shape() {
        let line = event_json(&event());
        assert!(line.contains("\"path\": \"windowed\""));
        assert!(line.contains("\"candidates\": [[9, 0], [5, 3]]"));
        let none = TraceEvent {
            path: None,
            pool_size: None,
            candidates: vec![],
            ..event()
        };
        let line = event_json(&none);
        assert!(line.contains("\"path\": null"));
        assert!(line.contains("\"pool_size\": null"));
    }

    #[test]
    fn jsonl_is_one_line_per_event() {
        let evs = [event(), event()];
        let out = events_jsonl(evs.iter());
        assert_eq!(out.lines().count(), 2);
        assert!(out.ends_with('\n'));
    }

    #[test]
    fn series_json_carries_schema_and_provenance() {
        let prov = Provenance::capture(paba_util::schema::TRACE_SERIES, 9, "quick", "trace cfg");
        let doc = series_json(&[], &LoadSeries::new(0), &prov);
        assert!(doc.contains("\"schema\": \"paba-trace-series/1\""));
        assert!(doc.contains("\"provenance\": {\"schema\": \"paba-trace-series/1\""));
        assert!(doc.contains("\"seed\": 9"));
    }

    #[test]
    fn chrome_trace_has_complete_events() {
        let spans = [SpanEvent {
            stage: Stage::AssignLoop,
            run: Some(0),
            ts_ns: 2_500,
            dur_ns: 1_000,
        }];
        let doc = chrome_trace(&spans);
        assert!(doc.contains("\"traceEvents\""));
        assert!(doc.contains("\"ph\": \"X\""));
        assert!(doc.contains("\"name\": \"assign-loop\""));
        assert!(doc.contains("\"ts\": 2.500"));
        assert!(doc.contains("\"dur\": 1.000"));
        assert!(doc.contains("\"tid\": 1"));
    }

    #[test]
    fn empty_chrome_trace_is_still_a_document() {
        let doc = chrome_trace(&[]);
        assert!(doc.contains("\"traceEvents\": [\n\n  ]"));
    }
}
