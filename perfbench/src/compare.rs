//! The comparison rule for two sets of runs of one workload: an end-to-end
//! metric regresses when its median got worse than the baseline median by
//! more than the metric's bound.

use crate::measure::{median, Outcome};
use crate::spec::{Better, END_TO_END};

/// How much worse `cand` is than `base`, as a share of `base` (negative
/// when it improved).
pub fn worsening(better: Better, base: f64, cand: f64) -> f64 {
    let delta = match better {
        Better::Lower => cand - base,
        Better::Higher => base - cand,
    };
    delta / base.abs().max(f64::MIN_POSITIVE)
}

/// End-to-end metrics whose median over `cand` is worse than the median
/// over `base` by more than their bound.
pub fn regressions(base: &[Outcome], cand: &[Outcome]) -> Vec<&'static str> {
    let med = |runs: &[Outcome], name: &str| {
        median(&runs.iter().filter_map(|o| o.get(name)).collect::<Vec<_>>())
    };
    END_TO_END
        .iter()
        .filter(|m| worsening(m.better, med(base, m.name), med(cand, m.name)) > m.bound)
        .map(|m| m.name)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Metric;

    fn run(wall: f64, rate: f64) -> Outcome {
        Outcome {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![
                Metric::new("wall_s", wall, "s"),
                Metric::new("requests_per_s", rate, "1/s"),
            ],
            notes: vec![],
            speed: 1.0,
        }
    }

    #[test]
    fn flags_only_metrics_worse_than_their_bound() {
        let base = [run(1.0, 100.0), run(1.02, 98.0), run(0.98, 102.0)];
        // Slower wall time beyond the bound, rate within it.
        let cand = [run(1.5, 97.0), run(1.6, 96.0), run(1.4, 95.0)];
        assert_eq!(regressions(&base, &cand), vec!["wall_s"]);
        // Improvements never count.
        let faster = [run(0.5, 200.0)];
        assert!(regressions(&base, &faster).is_empty());
        assert!(regressions(&base, &base).is_empty());
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(Better::Lower, 2.0, 3.0) - 0.5).abs() < 1e-12);
        assert!((worsening(Better::Higher, 2.0, 1.0) - 0.5).abs() < 1e-12);
        assert!(worsening(Better::Higher, 2.0, 3.0) < 0.0);
    }
}
