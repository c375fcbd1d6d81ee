//! Declarative workload selection: a plain-data [`WorkloadSpec`] that the
//! CLI, sweep drivers, and benches can build per run, and a
//! [`WorkloadSource`] enum dispatching every source behind one type.

use crate::sources::{FlashCrowd, HotspotOrigins, ShiftingPopularity, ZipfOrigins};
use crate::trace::{Trace, TraceReplay};
use paba_core::{CacheNetwork, IidUniform, Request, RequestSource};
use paba_popularity::FileId;
use paba_topology::Topology;
use rand::Rng;
use std::path::PathBuf;
use std::sync::Arc;

/// Plain-data description of a workload, cheap to clone into every
/// Monte-Carlo run (trace files are loaded once at build time via
/// [`WorkloadSpec::load`]).
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadSpec {
    /// The paper's baseline: uniform origins, IID popularity draws.
    Iid,
    /// Clustered client geography: `hotspots` seeded centers, requests
    /// near a center with probability `fraction`.
    Hotspot {
        /// Number of hotspot centers.
        hotspots: u32,
        /// Ball radius around each center.
        radius: u32,
        /// Probability a request originates near a center.
        fraction: f64,
        /// Seed for center selection (independent of the request RNG).
        seed: u64,
    },
    /// Zipf-skewed origins with exponent `gamma`.
    ZipfOrigins {
        /// Origin skew exponent (`0` = uniform).
        gamma: f64,
    },
    /// One file spikes for a request-window then decays.
    FlashCrowd {
        /// The boosted file.
        file: FileId,
        /// First boosted request index.
        start: u64,
        /// Window length in requests.
        duration: u64,
        /// Weight multiplier during the window (`≥ 1`).
        boost: f64,
        /// Post-window exponential decay constant in requests.
        tau: f64,
    },
    /// Popularity rank→file mapping rotates by `step` every `epoch`
    /// requests.
    Shifting {
        /// Epoch length in requests.
        epoch: u64,
        /// Rotation per epoch.
        step: u32,
    },
    /// Replay a recorded trace (loaded once, shared by reference across
    /// runs).
    Replay {
        /// The preloaded trace (behind an [`Arc`], so per-run builds
        /// share the records instead of copying them).
        trace: Arc<Trace>,
        /// Wrap around at the end instead of panicking.
        cycle: bool,
    },
}

impl WorkloadSpec {
    /// Load a trace file into a replay spec.
    pub fn load(path: impl Into<PathBuf>, cycle: bool) -> Result<Self, String> {
        Ok(WorkloadSpec::Replay {
            trace: Arc::new(Trace::load(path.into())?),
            cycle,
        })
    }

    /// Short machine name (matches the CLI `--workload` values).
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadSpec::Iid => "iid",
            WorkloadSpec::Hotspot { .. } => "hotspot",
            WorkloadSpec::ZipfOrigins { .. } => "zipf-origins",
            WorkloadSpec::FlashCrowd { .. } => "flash-crowd",
            WorkloadSpec::Shifting { .. } => "shifting",
            WorkloadSpec::Replay { .. } => "trace",
        }
    }

    /// Validate parameters against a network shape without building
    /// anything — lets drivers fail fast before spawning parallel runs.
    pub fn validate(&self, n: u32, k: u32) -> Result<(), String> {
        match *self {
            WorkloadSpec::Iid => {}
            WorkloadSpec::Hotspot {
                hotspots, fraction, ..
            } => {
                if hotspots == 0 || hotspots > n {
                    return Err(format!("hotspot count {hotspots} out of range 1..={n}"));
                }
                if !(0.0..=1.0).contains(&fraction) {
                    return Err(format!("hotspot fraction {fraction} not in [0,1]"));
                }
            }
            WorkloadSpec::ZipfOrigins { gamma } => {
                if !gamma.is_finite() || gamma < 0.0 {
                    return Err(format!("origin gamma {gamma} must be ≥ 0"));
                }
            }
            WorkloadSpec::FlashCrowd {
                file, boost, tau, ..
            } => {
                if file >= k {
                    return Err(format!("flash file {file} ≥ K={k}"));
                }
                if boost < 1.0 || !boost.is_finite() {
                    return Err(format!("flash boost {boost} must be ≥ 1"));
                }
                if tau < 0.0 || !tau.is_finite() {
                    return Err(format!("flash tau {tau} must be ≥ 0"));
                }
            }
            WorkloadSpec::Shifting { epoch, .. } => {
                if epoch == 0 {
                    return Err("shifting epoch must be positive".into());
                }
            }
            WorkloadSpec::Replay { ref trace, cycle } => {
                if trace.n != n || trace.k != k {
                    return Err(format!(
                        "trace shape (n={}, k={}) does not match network (n={n}, k={k})",
                        trace.n, trace.k
                    ));
                }
                if cycle && trace.is_empty() {
                    return Err("cannot cycle a trace with no records".into());
                }
            }
        }
        Ok(())
    }

    /// Instantiate a fresh source for one run against `net`. Synthetic
    /// sources redraw uncached files from the cached sub-library; trace
    /// replay hands over its recorded files as they are.
    pub fn build<T: Topology>(&self, net: &CacheNetwork<T>) -> Result<WorkloadSource, String> {
        self.validate(net.n(), net.k())?;
        Ok(match *self {
            WorkloadSpec::Iid => WorkloadSource::Iid(IidUniform::new()),
            WorkloadSpec::Hotspot {
                hotspots,
                radius,
                fraction,
                seed,
            } => WorkloadSource::Hotspot(HotspotOrigins::seeded(
                hotspots,
                radius,
                fraction,
                net.n(),
                seed,
            )),
            WorkloadSpec::ZipfOrigins { gamma } => {
                WorkloadSource::ZipfOrigins(ZipfOrigins::new(gamma))
            }
            WorkloadSpec::FlashCrowd {
                file,
                start,
                duration,
                boost,
                tau,
            } => WorkloadSource::FlashCrowd(FlashCrowd::new(file, start, duration, boost, tau)),
            WorkloadSpec::Shifting { epoch, step } => {
                WorkloadSource::Shifting(ShiftingPopularity::new(epoch, step))
            }
            WorkloadSpec::Replay { ref trace, cycle } => WorkloadSource::Replay(if cycle {
                TraceReplay::cycling(trace.clone())
            } else {
                TraceReplay::new(trace.clone())
            }),
        })
    }
}

/// Every workload source behind one concrete type, so run loops that pick
/// a workload at runtime stay monomorphic.
#[derive(Clone, Debug)]
pub enum WorkloadSource {
    /// Paper baseline.
    Iid(IidUniform),
    /// Clustered origins.
    Hotspot(HotspotOrigins),
    /// Zipf-skewed origins.
    ZipfOrigins(ZipfOrigins),
    /// Popularity spike.
    FlashCrowd(FlashCrowd),
    /// Rotating popularity ranks.
    Shifting(ShiftingPopularity),
    /// Recorded-trace replay.
    Replay(TraceReplay),
}

impl<T: Topology> RequestSource<T> for WorkloadSource {
    fn next_request<R: Rng + ?Sized>(&mut self, net: &CacheNetwork<T>, rng: &mut R) -> Request {
        match self {
            WorkloadSource::Iid(s) => s.next_request(net, rng),
            WorkloadSource::Hotspot(s) => s.next_request(net, rng),
            WorkloadSource::ZipfOrigins(s) => s.next_request(net, rng),
            WorkloadSource::FlashCrowd(s) => s.next_request(net, rng),
            WorkloadSource::Shifting(s) => s.next_request(net, rng),
            WorkloadSource::Replay(s) => s.next_request(net, rng),
        }
    }

    fn size_hint(&self) -> Option<u64> {
        match self {
            WorkloadSource::Iid(s) => RequestSource::<T>::size_hint(s),
            WorkloadSource::Hotspot(s) => RequestSource::<T>::size_hint(s),
            WorkloadSource::ZipfOrigins(s) => RequestSource::<T>::size_hint(s),
            WorkloadSource::FlashCrowd(s) => RequestSource::<T>::size_hint(s),
            WorkloadSource::Shifting(s) => RequestSource::<T>::size_hint(s),
            WorkloadSource::Replay(s) => RequestSource::<T>::size_hint(s),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            WorkloadSource::Iid(s) => RequestSource::<T>::name(s),
            WorkloadSource::Hotspot(s) => RequestSource::<T>::name(s),
            WorkloadSource::ZipfOrigins(s) => RequestSource::<T>::name(s),
            WorkloadSource::FlashCrowd(s) => RequestSource::<T>::name(s),
            WorkloadSource::Shifting(s) => RequestSource::<T>::name(s),
            WorkloadSource::Replay(s) => RequestSource::<T>::name(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paba_core::{simulate_source, NearestReplica};
    use paba_popularity::Popularity;
    use paba_topology::Torus;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn net(seed: u64) -> CacheNetwork<Torus> {
        let mut rng = SmallRng::seed_from_u64(seed);
        CacheNetwork::builder()
            .torus_side(8)
            .library(30, Popularity::zipf(0.7))
            .cache_size(3)
            .build(&mut rng)
    }

    #[test]
    fn every_spec_builds_and_simulates() {
        let net = net(1);
        let specs = [
            WorkloadSpec::Iid,
            WorkloadSpec::Hotspot {
                hotspots: 3,
                radius: 2,
                fraction: 0.8,
                seed: 9,
            },
            WorkloadSpec::ZipfOrigins { gamma: 1.0 },
            WorkloadSpec::FlashCrowd {
                file: 5,
                start: 10,
                duration: 50,
                boost: 30.0,
                tau: 20.0,
            },
            WorkloadSpec::Shifting { epoch: 25, step: 2 },
        ];
        for spec in specs {
            let mut src = spec
                .build(&net)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name()));
            let mut s = NearestReplica::new();
            let mut rng = SmallRng::seed_from_u64(2);
            let rep = simulate_source(&net, &mut s, &mut src, 150, &mut rng);
            assert_eq!(rep.total_requests, 150, "{}", spec.name());
            assert!(rep.check_conservation(), "{}", spec.name());
        }
    }

    #[test]
    fn iid_spec_matches_plain_simulate_bit_for_bit() {
        let net = net(3);
        let mut a = SmallRng::seed_from_u64(77);
        let mut b = a.clone();
        let mut s1 = NearestReplica::new();
        let mut s2 = NearestReplica::new();
        let legacy = paba_core::simulate(&net, &mut s1, 400, &mut a);
        let mut src = WorkloadSpec::Iid.build(&net).unwrap();
        let sourced = simulate_source(&net, &mut s2, &mut src, 400, &mut b);
        assert_eq!(legacy, sourced);
    }

    #[test]
    fn spec_validation_rejects_bad_parameters() {
        let net = net(4);
        let bad = [
            WorkloadSpec::Hotspot {
                hotspots: 0,
                radius: 1,
                fraction: 0.5,
                seed: 1,
            },
            WorkloadSpec::Hotspot {
                hotspots: 2,
                radius: 1,
                fraction: 1.5,
                seed: 1,
            },
            WorkloadSpec::FlashCrowd {
                file: 999,
                start: 0,
                duration: 1,
                boost: 2.0,
                tau: 0.0,
            },
            WorkloadSpec::FlashCrowd {
                file: 0,
                start: 0,
                duration: 1,
                boost: 0.5,
                tau: 0.0,
            },
            WorkloadSpec::Shifting { epoch: 0, step: 1 },
            WorkloadSpec::ZipfOrigins { gamma: -1.0 },
        ];
        for spec in bad {
            assert!(spec.build(&net).is_err(), "{spec:?} should fail validation");
        }
    }

    #[test]
    fn replay_spec_checks_shape() {
        let net = net(5);
        let trace = Arc::new(Trace {
            n: net.n(),
            k: net.k(),
            records: vec![Request { origin: 0, file: 0 }; 4],
        });
        assert!(WorkloadSpec::Replay {
            trace: trace.clone(),
            cycle: false
        }
        .build(&net)
        .is_ok());
        let small = {
            let mut rng = SmallRng::seed_from_u64(1);
            CacheNetwork::builder()
                .torus_side(4)
                .library(30, Popularity::Uniform)
                .cache_size(3)
                .build(&mut rng)
        };
        assert!(WorkloadSpec::Replay {
            trace,
            cycle: false
        }
        .build(&small)
        .is_err());
        // Cycling no records would never yield a request.
        let empty = Arc::new(Trace::new(net.n(), net.k()));
        assert!(WorkloadSpec::Replay {
            trace: empty.clone(),
            cycle: true
        }
        .build(&net)
        .is_err());
        assert!(WorkloadSpec::Replay {
            trace: empty,
            cycle: false
        }
        .build(&net)
        .is_ok());
    }
}
