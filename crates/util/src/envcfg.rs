//! The workspace's shared run defaults: the master seed and the
//! experiment [`Scale`].
//!
//! * [`DEFAULT_SEED`] — master seed of every suite and CLI run (20170529,
//!   the IPDPS 2017 opening date, because every reproduction deserves a
//!   memorable seed).
//! * [`Scale`] — `quick` (CI-sized), `default`, or `full` (paper-sized)
//!   suite grids; `paba <suite>` reads it from `--scale` or `PABA_SCALE`.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_aliases() {
        assert_eq!("ci".parse::<Scale>().unwrap(), Scale::Quick);
        assert_eq!("paper".parse::<Scale>().unwrap(), Scale::Full);
        assert!("nope".parse::<Scale>().is_err());
    }
}
