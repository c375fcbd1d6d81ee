//! The metric tables of `BENCHMARK.json`, mirrored here so the benchmark
//! emits exactly the declared names and units (a test keeps the two in
//! step).

use crate::measure::Metric;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: `bound` is the share of the baseline median by
/// which it may worsen before a change counts as a regression.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// End-to-end metrics, reported with tracing off on every workload.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "requests_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "events_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "max_load",
        unit: "requests",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "comm_cost",
        unit: "hops",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "sojourn_p99",
        unit: "mean_svc",
        better: Better::Lower,
        bound: 0.05,
    },
];

/// Per-layer metrics, reported by the traced run: `(name, unit, better)`.
///
/// A workload that does not exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str, Better); 31] = [
    ("dispatch.assign_ns", "ns", Better::Lower),
    ("source.next_request_ns", "ns", Better::Lower),
    ("sampler.share.rejection-replica", "share", Better::Higher),
    ("sampler.share.rejection-ball", "share", Better::Higher),
    ("sampler.share.windowed", "share", Better::Lower),
    ("sampler.share.index-sample", "share", Better::Higher),
    ("sampler.share.uncached", "share", Better::Lower),
    ("sampler.budget_exhausted_per_req", "ratio", Better::Lower),
    ("placement.caches_bitmap_share", "share", Better::Higher),
    ("topology.dist_ns", "ns", Better::Lower),
    ("topology.ball_sample_ns", "ns", Better::Lower),
    ("placement.build_s", "s", Better::Lower),
    ("mcrunner.imbalance", "share", Better::Lower),
    ("queue.event_ns", "ns", Better::Lower),
    ("queue.dispatch_share", "share", Better::Lower),
    ("churn.apply_ns.crash", "ns", Better::Lower),
    ("churn.apply_ns.leave", "ns", Better::Lower),
    ("churn.apply_ns.join", "ns", Better::Lower),
    ("churn.apply_ns.insert", "ns", Better::Lower),
    ("churn.apply_share", "share", Better::Lower),
    ("churn.failover_ns", "ns", Better::Lower),
    ("churn.migrations_per_event", "ratio", Better::Lower),
    ("placement.mutate_ns", "ns", Better::Lower),
    ("dht.ring_rebuild_ns", "ns", Better::Lower),
    ("dht.lookup_replicas_ns", "ns", Better::Lower),
    ("dispatch.assign_ns.slope", "slope", Better::Lower),
    ("queue.event_ns.slope", "slope", Better::Lower),
    ("churn.apply_ns.slope", "slope", Better::Lower),
    ("telemetry.atomic_overhead", "ratio", Better::Lower),
    ("trace.overhead_s", "s", Better::Lower),
    ("trace.overhead_share", "share", Better::Lower),
];

/// Order `measured` by `table` and give every missing name the value 0
/// (a layer the workload does not exercise).
fn complete<'a>(
    table: impl IntoIterator<Item = (&'a str, &'static str)>,
    measured: &[Metric],
) -> Vec<Metric> {
    table
        .into_iter()
        .map(|(name, unit)| {
            let value = measured
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            Metric::new(name, value, unit)
        })
        .collect()
}

/// [`complete`] over the end-to-end table.
pub fn end_to_end(measured: &[Metric]) -> Vec<Metric> {
    complete(END_TO_END.iter().map(|m| (m.name, m.unit)), measured)
}

/// [`complete`] over the per-layer table.
pub fn per_layer(measured: &[Metric]) -> Vec<Metric> {
    complete(PER_LAYER.iter().map(|&(n, u, _)| (n, u)), measured)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists each metric on one line as
    /// `{"name": …, "unit": …, "better": …[, "bound": …]}`; rebuild those
    /// lines from the tables and require each to appear verbatim.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        for m in END_TO_END {
            let line = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.label(),
                m.bound
            );
            assert!(json.contains(&line), "BENCHMARK.json lacks {line}");
        }
        for (name, unit, better) in PER_LAYER {
            let line = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better.label()
            );
            assert!(json.contains(&line), "BENCHMARK.json lacks {line}");
        }
        let declared = json.matches("\"name\": ").count();
        let workloads = crate::WORKLOADS.len();
        assert_eq!(
            declared,
            END_TO_END.len() + PER_LAYER.len() + workloads,
            "BENCHMARK.json declares names the tables do not know"
        );
    }

    #[test]
    fn complete_fills_missing_layers_with_zero() {
        let got = per_layer(&[Metric::new("queue.event_ns", 7.5, "ns")]);
        assert_eq!(got.len(), PER_LAYER.len());
        assert_eq!(got[13], Metric::new("queue.event_ns", 7.5, "ns"));
        assert!(got
            .iter()
            .filter(|m| m.name != "queue.event_ns")
            .all(|m| m.value == 0.0));
    }
}
