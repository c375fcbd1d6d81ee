//! The workspace's shared run defaults: the master seed, the experiment
//! [`Scale`], and the seed-count knob of the statistical integration
//! tests.
//!
//! * [`DEFAULT_SEED`] — master seed of every suite and CLI run (20170529,
//!   the IPDPS 2017 opening date, because every reproduction deserves a
//!   memorable seed).
//! * [`Scale`] — `quick` (CI-sized), `default`, or `full` (paper-sized)
//!   suite grids; `paba <suite>` reads it from `--scale` or `PABA_SCALE`.
//! * `PABA_TEST_RUNS` (see [`test_runs`]) — CI's quick tier can shrink the
//!   statistical tests' seed counts while nightly runs the full tier,
//!   without editing tests.

use std::str::FromStr;

/// Default master seed used across the workspace.
#[allow(clippy::inconsistent_digit_grouping)] // 2017-05-29: IPDPS 2017 opening day
pub const DEFAULT_SEED: u64 = 2017_05_29;

/// Experiment grid scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Scale {
    /// CI-sized grids (about a second per suite).
    Quick,
    /// Grids that show every qualitative effect in minutes.
    #[default]
    Default,
    /// The paper's exact parameter grids and replication counts.
    Full,
}

impl FromStr for Scale {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "quick" | "smoke" | "ci" => Ok(Scale::Quick),
            "default" | "" => Ok(Scale::Default),
            "full" | "paper" => Ok(Scale::Full),
            other => Err(format!(
                "unknown scale '{other}' (expected quick|default|full)"
            )),
        }
    }
}

/// Seed count for a statistical integration test: `PABA_TEST_RUNS` when
/// set to a positive integer, otherwise the test's built-in `default`.
///
/// The statistical tests average a qualitative ordering over enough seeds
/// that a correct implementation fails with negligible probability; this
/// knob lets CI's quick tier trade confidence for wall-clock (and nightly
/// crank it the other way) without touching the defaults.
pub fn test_runs(default: u64) -> u64 {
    test_runs_from(default, |k| std::env::var(k).ok())
}

/// Testable core of [`test_runs`].
pub fn test_runs_from<F: Fn(&str) -> Option<String>>(default: u64, lookup: F) -> u64 {
    match lookup("PABA_TEST_RUNS") {
        None => default,
        Some(v) => match v.parse::<u64>() {
            Ok(r) if r > 0 => r,
            _ => {
                eprintln!("paba: ignoring malformed PABA_TEST_RUNS='{v}'");
                default
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lookup_from<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |k| {
            pairs
                .iter()
                .find(|(key, _)| *key == k)
                .map(|(_, v)| v.to_string())
        }
    }

    #[test]
    fn scale_aliases() {
        assert_eq!("ci".parse::<Scale>().unwrap(), Scale::Quick);
        assert_eq!("paper".parse::<Scale>().unwrap(), Scale::Full);
        assert!("nope".parse::<Scale>().is_err());
    }

    #[test]
    fn test_runs_override_and_fallback() {
        assert_eq!(test_runs_from(24, |_| None), 24);
        assert_eq!(
            test_runs_from(24, lookup_from(&[("PABA_TEST_RUNS", "6")])),
            6
        );
        assert_eq!(
            test_runs_from(24, lookup_from(&[("PABA_TEST_RUNS", "0")])),
            24
        );
        assert_eq!(
            test_runs_from(24, lookup_from(&[("PABA_TEST_RUNS", "lots")])),
            24
        );
    }
}
