//! The cache network: topology + library + placement, wired together.

use crate::library::Library;
use crate::placement::{Placement, PlacementPolicy};
use paba_popularity::{AliasTable, FileId, Popularity};
use paba_topology::{Topology, Torus};
use rand::Rng;
use std::fmt;

/// A network too large for memory: a buffer sized by its `n`, `K` or `M`
/// could not be allocated. [`CacheNetworkBuilder::try_build`] returns it
/// where [`CacheNetworkBuilder::build`] would abort the process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BuildError {
    what: &'static str,
    bytes: u128,
}

impl BuildError {
    /// The error for `len` values of `T` in the buffer named `what`.
    pub(crate) fn of<T>(len: u64, what: &'static str) -> Self {
        let bytes = u128::from(len) * std::mem::size_of::<T>() as u128;
        Self { what, bytes }
    }

    /// An empty `Vec` with room for exactly `len` values, or the error
    /// naming `what` when that room cannot be allocated.
    pub(crate) fn reserve<T>(len: u64, what: &'static str) -> Result<Vec<T>, Self> {
        let mut v = Vec::new();
        usize::try_from(len)
            .ok()
            .and_then(|len| v.try_reserve_exact(len).ok())
            .map(|()| v)
            .ok_or_else(|| Self::of::<T>(len, what))
    }
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot allocate {} bytes for the {}",
            self.bytes, self.what
        )
    }
}

impl std::error::Error for BuildError {}

/// O(1) sampler over the *cached* sub-library, i.e. the popularity
/// profile conditioned on `replica_count(f) > 0`.
///
/// Precomputed once per network so [`crate::UncachedPolicy::ResampleFile`]
/// never has to redraw in a loop: with a tiny cached sub-library the old
/// rejection loop took O(K) expected draws per request.
#[derive(Clone, Debug)]
enum CachedSampler {
    /// Every file has a replica — the unconditional library sampler is
    /// already the conditional one.
    Full,
    /// Uniform popularity over a strict subset: one uniform index draw.
    UniformSubset { ids: Vec<FileId> },
    /// Skewed popularity over a strict subset: alias table over the
    /// renormalized conditional weights.
    WeightedSubset { ids: Vec<FileId>, table: AliasTable },
    /// No file has any replica; drawing panics.
    Empty,
}

/// A fully instantiated cache network (the paper's §II-B model): `n`
/// servers on a topology, a `K`-file library with popularity `P`, and a
/// concrete cache placement.
#[derive(Clone, Debug)]
pub struct CacheNetwork<T: Topology> {
    topo: T,
    library: Library,
    placement: Placement,
    cached_file_count: u32,
    cached_sampler: CachedSampler,
}

impl<T: Topology> CacheNetwork<T> {
    /// Assemble a network from parts (placement must match `topo.n()` and
    /// `library.k()`).
    ///
    /// # Panics
    /// On any shape mismatch.
    pub fn from_parts(topo: T, library: Library, placement: Placement) -> Self {
        assert_eq!(placement.n(), topo.n(), "placement/topology node count");
        assert_eq!(placement.k(), library.k(), "placement/library size");
        let (cached_file_count, cached_sampler) = build_cached_sampler(&library, &placement);
        Self {
            topo,
            library,
            placement,
            cached_file_count,
            cached_sampler,
        }
    }

    /// Mutate the placement through `f` (a batch of
    /// [`Placement::insert`]/[`Placement::remove`] calls), then rebuild the
    /// derived conditional cached-file sampler once. All derived state is
    /// re-synchronized when this returns, so
    /// [`CacheNetwork::sample_cached_file`] and every strategy keep
    /// working mid-churn; the placement's own indices stay consistent
    /// incrementally.
    pub fn mutate_placement<F, O>(&mut self, f: F) -> O
    where
        F: FnOnce(&mut Placement) -> O,
    {
        let out = f(&mut self.placement);
        let (count, sampler) = build_cached_sampler(&self.library, &self.placement);
        self.cached_file_count = count;
        self.cached_sampler = sampler;
        out
    }

    /// The topology.
    #[inline]
    pub fn topo(&self) -> &T {
        &self.topo
    }

    /// The library.
    #[inline]
    pub fn library(&self) -> &Library {
        &self.library
    }

    /// The placement.
    #[inline]
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Number of servers `n`.
    #[inline]
    pub fn n(&self) -> u32 {
        self.topo.n()
    }

    /// Library size `K`.
    #[inline]
    pub fn k(&self) -> u32 {
        self.library.k()
    }

    /// Cache size `M`.
    #[inline]
    pub fn m(&self) -> u32 {
        self.placement.m()
    }

    /// Number of files with at least one replica.
    #[inline]
    pub fn cached_file_count(&self) -> u32 {
        self.cached_file_count
    }

    /// Draw a file id from the library's popularity profile.
    #[inline]
    pub fn sample_file<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        self.library.sample_file(rng)
    }

    /// Draw a file id from the popularity profile *conditioned on the file
    /// being cached somewhere* — O(1), no rejection loop.
    ///
    /// # Panics
    /// If no file has any replica.
    #[inline]
    pub fn sample_cached_file<R: Rng + ?Sized>(&self, rng: &mut R) -> FileId {
        match &self.cached_sampler {
            CachedSampler::Full => self.library.sample_file(rng),
            CachedSampler::UniformSubset { ids } => ids[rng.gen_range(0..ids.len())],
            CachedSampler::WeightedSubset { ids, table } => ids[table.sample(rng) as usize],
            CachedSampler::Empty => {
                panic!("no file has any replica; cannot sample a cached file")
            }
        }
    }
}

impl CacheNetwork<Torus> {
    /// Start a [`CacheNetworkBuilder`] (torus topology).
    pub fn builder() -> CacheNetworkBuilder {
        CacheNetworkBuilder::default()
    }
}

/// Compute the cached-file count and the O(1) conditional sampler for the
/// current placement (shared by construction and post-mutation resync).
fn build_cached_sampler(library: &Library, placement: &Placement) -> (u32, CachedSampler) {
    let cached: Vec<FileId> = (0..library.k())
        .filter(|&f| placement.replica_count(f) > 0)
        .collect();
    let cached_file_count = cached.len() as u32;
    let sampler = if cached_file_count == library.k() {
        CachedSampler::Full
    } else if cached.is_empty() {
        CachedSampler::Empty
    } else if library.popularity().is_uniform() {
        CachedSampler::UniformSubset { ids: cached }
    } else {
        let weights: Vec<f64> = cached.iter().map(|&f| library.probability(f)).collect();
        CachedSampler::WeightedSubset {
            table: AliasTable::new(&weights),
            ids: cached,
        }
    };
    (cached_file_count, sampler)
}

/// Fluent builder for [`CacheNetwork`] on a [`Torus`].
///
/// ```
/// use paba_core::{CacheNetwork, PlacementPolicy};
/// use paba_popularity::Popularity;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// let net = CacheNetwork::builder()
///     .torus_side(10)
///     .library(100, Popularity::zipf(0.8))
///     .cache_size(5)
///     .build(&mut rng);
/// assert_eq!(net.n(), 100);
/// assert_eq!(net.m(), 5);
/// ```
#[derive(Clone, Debug)]
pub struct CacheNetworkBuilder {
    side: u32,
    k: u32,
    popularity: Popularity,
    m: u32,
    policy: PlacementPolicy,
}

impl Default for CacheNetworkBuilder {
    fn default() -> Self {
        Self {
            side: 10,
            k: 100,
            popularity: Popularity::Uniform,
            m: 1,
            policy: PlacementPolicy::ProportionalWithReplacement,
        }
    }
}

impl CacheNetworkBuilder {
    /// Side length of the lattice (`n = side²`).
    pub fn torus_side(mut self, side: u32) -> Self {
        self.side = side;
        self
    }

    /// Library size and popularity profile.
    pub fn library(mut self, k: u32, popularity: Popularity) -> Self {
        self.k = k;
        self.popularity = popularity;
        self
    }

    /// Cache size `M` (number of placement draws per node).
    pub fn cache_size(mut self, m: u32) -> Self {
        self.m = m;
        self
    }

    /// Placement policy (default: the paper's with-replacement model).
    pub fn placement_policy(mut self, policy: PlacementPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Build on a torus (the paper's default topology).
    ///
    /// # Panics
    /// If the network cannot be allocated (see
    /// [`CacheNetworkBuilder::try_build`]), and on the arguments
    /// [`Placement::generate`] rejects.
    pub fn build<R: Rng + ?Sized>(self, rng: &mut R) -> CacheNetwork<Torus> {
        self.try_build(rng).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`CacheNetworkBuilder::build`], returning a [`BuildError`] when the
    /// library or the placement is too large to allocate. The buffers
    /// sized by `n`, `K` and `M` are reserved before they are written, so
    /// an oversized network fails fast, before any placement draw.
    pub fn try_build<R: Rng + ?Sized>(
        self,
        rng: &mut R,
    ) -> Result<CacheNetwork<Torus>, BuildError> {
        let topo = Torus::new(self.side);
        let library = Library::try_new(self.k, self.popularity)?;
        let placement = Placement::try_generate(topo.n(), &library, self.m, self.policy, rng)?;
        Ok(CacheNetwork::from_parts(topo, library, placement))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn builder_wires_everything() {
        let mut rng = SmallRng::seed_from_u64(1);
        let net = CacheNetwork::builder()
            .torus_side(6)
            .library(20, Popularity::Uniform)
            .cache_size(3)
            .build(&mut rng);
        assert_eq!(net.n(), 36);
        assert_eq!(net.k(), 20);
        assert_eq!(net.m(), 3);
        assert!(net.cached_file_count() <= 20);
        assert!(net.cached_file_count() > 0);
    }

    #[test]
    fn try_build_reports_an_oversized_network() {
        // n·M = 2.1·10¹⁴ slots, 858 TB: beyond any machine's memory.
        let err = CacheNetwork::builder()
            .torus_side(Torus::MAX_SIDE)
            .library(100_000, Popularity::Uniform)
            .cache_size(100_000)
            .try_build(&mut SmallRng::seed_from_u64(5))
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "cannot allocate 858958240000000 bytes for the placement slots"
        );
        let err = BuildError::reserve::<u64>(u64::MAX, "test buffer").unwrap_err();
        assert_eq!(err, BuildError::of::<u64>(u64::MAX, "test buffer"));
    }

    #[test]
    fn full_library_policy() {
        let mut rng = SmallRng::seed_from_u64(4);
        let net = CacheNetwork::builder()
            .torus_side(4)
            .library(12, Popularity::Uniform)
            .cache_size(999) // ignored by FullLibrary
            .placement_policy(PlacementPolicy::FullLibrary)
            .build(&mut rng);
        assert_eq!(net.m(), 12);
        assert_eq!(net.cached_file_count(), 12);
        assert!(net.placement().is_full());
    }

    #[test]
    fn cached_sampler_only_returns_cached_files() {
        // K ≫ total cache slots: many uncached files, uniform profile.
        let mut rng = SmallRng::seed_from_u64(11);
        let net = CacheNetwork::builder()
            .torus_side(5)
            .library(500, Popularity::Uniform)
            .cache_size(1)
            .build(&mut rng);
        assert!(net.cached_file_count() < net.k());
        for _ in 0..5000 {
            let f = net.sample_cached_file(&mut rng);
            assert!(net.placement().replica_count(f) > 0, "uncached draw {f}");
        }
    }

    #[test]
    fn cached_sampler_matches_conditional_distribution() {
        // Zipf profile with a sparse placement: empirical frequencies must
        // match the library weights renormalized over the cached subset.
        let mut rng = SmallRng::seed_from_u64(12);
        let net = CacheNetwork::builder()
            .torus_side(5)
            .library(200, Popularity::zipf(1.0))
            .cache_size(1)
            .build(&mut rng);
        let cached: Vec<u32> = (0..net.k())
            .filter(|&f| net.placement().replica_count(f) > 0)
            .collect();
        assert!(cached.len() > 3 && (cached.len() as u32) < net.k());
        let z: f64 = cached.iter().map(|&f| net.library().probability(f)).sum();
        let trials = 200_000u32;
        let mut counts = vec![0u32; net.k() as usize];
        for _ in 0..trials {
            counts[net.sample_cached_file(&mut rng) as usize] += 1;
        }
        for &f in &cached {
            let expect = trials as f64 * net.library().probability(f) / z;
            let got = counts[f as usize] as f64;
            assert!(
                (got - expect).abs() < 6.0 * expect.sqrt().max(3.0),
                "file {f}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn mutate_placement_resyncs_cached_sampler() {
        // K ≫ slots so some files start uncached; evicting the last copy
        // of a cached file must drop it from the conditional sampler, and
        // inserting a previously uncached file must add it.
        let mut rng = SmallRng::seed_from_u64(21);
        let mut net = CacheNetwork::builder()
            .torus_side(4)
            .library(200, Popularity::zipf(0.8))
            .cache_size(2)
            .build(&mut rng);
        let before = net.cached_file_count();
        let singleton = (0..net.k())
            .find(|&f| net.placement().replica_count(f) == 1)
            .expect("some file has exactly one replica");
        let holder = net.placement().replica_at(singleton, 0);
        let uncached = (0..net.k())
            .find(|&f| net.placement().replica_count(f) == 0)
            .expect("some file is uncached");
        net.mutate_placement(|p| {
            assert!(p.remove(holder, singleton));
            assert!(p.insert(holder, uncached));
        });
        assert_eq!(net.cached_file_count(), before);
        for _ in 0..20_000 {
            let f = net.sample_cached_file(&mut rng);
            assert_ne!(f, singleton, "evicted file drawn from cached sampler");
            assert!(net.placement().replica_count(f) > 0);
        }
    }

    #[test]
    #[should_panic(expected = "placement/topology")]
    fn from_parts_rejects_mismatch() {
        let topo = Torus::new(3);
        let library = Library::new(5, Popularity::Uniform);
        let placement = Placement::full(8, 5); // 8 ≠ 9 nodes
        let _ = CacheNetwork::from_parts(topo, library, placement);
    }
}
