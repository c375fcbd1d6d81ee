//! Cache content placement (the paper's §II-B placement phase).
//!
//! Each of the `n` servers caches `M` files drawn i.i.d. **with
//! replacement** from the library's popularity distribution — the paper's
//! "proportional" placement. Duplicated draws waste cache slots, so a
//! node's *distinct* file count `t(u)` can be below `M`; Lemma 2 is exactly
//! about bounding `t(u)` from below and pairwise overlaps `t(u,v)` from
//! above. We also provide a without-replacement variant and the degenerate
//! full-replication placement (`M = K`, used by Examples 1/4 and Theorem 6)
//! for ablations.

use crate::library::Library;
use paba_popularity::FileId;
use paba_topology::NodeId;
use rand::Rng;

/// How cache contents are drawn.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// The paper's model: `M` i.i.d. draws from `P` *with replacement*.
    #[default]
    ProportionalWithReplacement,
    /// `M` *distinct* files drawn proportionally to `P` (rejection
    /// sampling, with an exact fallback for vanishing tails; see
    /// [`Placement::generate`]); requires `M ≤ K`.
    ProportionalDistinct,
    /// Every node stores the entire library (the `M = K` regime). The
    /// cache-size argument is ignored; `M` is forced to `K`.
    FullLibrary,
}

/// A placement: which node caches which files, indexed both ways, and
/// mutable one file at a time ([`Placement::insert`]/[`Placement::remove`])
/// for churn.
#[derive(Clone, Debug)]
pub struct Placement {
    n: u32,
    k: u32,
    m: u32,
    policy: PlacementPolicy,
    kind: Kind,
}

#[derive(Clone, Debug)]
enum Kind {
    Sparse {
        /// Fixed-stride per-node slots: node `u` owns
        /// `slab[u·S .. u·S + lens[u]]`, its sorted distinct files, with
        /// `S = min(M, K)` (see [`Placement::stride`]) because no node
        /// can hold more distinct files than that.
        slab: Vec<FileId>,
        /// `t(u)`: the used length of each node's slot.
        lens: Vec<u32>,
        /// Per-file ascending node lists. A build allocates each at
        /// exactly its length, so the first churn insert into a list
        /// grows it.
        replicas: Vec<Vec<NodeId>>,
        /// Direct-indexed membership bitmaps for dense files.
        dense: DenseIndex,
    },
    /// Every node caches every file; nothing is materialized.
    Full,
}

/// One-bit-per-node membership bitmaps for **dense** files (replica count
/// `≥ n/16`), making the hot-path [`Placement::caches`] check a single
/// word load instead of a binary search. Popularity-skewed workloads send
/// the bulk of their requests to exactly these files, and the ball-side
/// rejection sampler pays one membership check per trial.
///
/// At most `16M` files can qualify (their replica counts sum to `≤ nM`),
/// so the index occupies at most `2nM` bits total.
#[derive(Clone, Debug, Default)]
struct DenseIndex {
    /// Per-file offset into `words`, [`DenseIndex::NONE`] if not indexed.
    offsets: Vec<u32>,
    words: Vec<u64>,
    /// Bitmap block length (`⌈n/64⌉` words), fixed per placement.
    words_per_file: usize,
    /// Offsets of blocks whose file was demoted below the density
    /// threshold, reused by the next promotion so sustained churn does not
    /// grow `words` without bound.
    free: Vec<u32>,
}

impl DenseIndex {
    const NONE: u32 = u32::MAX;

    fn build(n: u32, replicas: &[Vec<NodeId>]) -> Self {
        let words_per_file = n.div_ceil(64) as usize;
        let mut offsets = vec![Self::NONE; replicas.len()];
        let mut words: Vec<u64> = Vec::new();
        for (f, reps) in replicas.iter().enumerate() {
            if (reps.len() as u64) * 16 < n as u64 {
                continue;
            }
            // Offsets are u32: stop indexing rather than overflow (only
            // reachable near the u32 node-count ceiling with huge M).
            let Ok(off) = u32::try_from(words.len()) else {
                break;
            };
            offsets[f] = off;
            words.resize(words.len() + words_per_file, 0u64);
            let w = &mut words[off as usize..];
            for &v in reps {
                w[(v / 64) as usize] |= 1u64 << (v % 64);
            }
        }
        Self {
            offsets,
            words,
            words_per_file,
            free: Vec::new(),
        }
    }

    /// `Some(cached?)` when file `f` is indexed, `None` otherwise.
    #[inline]
    fn contains(&self, f: FileId, u: NodeId) -> Option<bool> {
        let off = self.offsets[f as usize];
        if off == Self::NONE {
            return None;
        }
        let w = self.words[off as usize + (u / 64) as usize];
        Some((w >> (u % 64)) & 1 == 1)
    }

    /// Set (`val = true`) or clear the membership bit for `(f, u)`; no-op
    /// when `f` is not indexed.
    #[inline]
    fn set(&mut self, f: FileId, u: NodeId, val: bool) {
        let off = self.offsets[f as usize];
        if off == Self::NONE {
            return;
        }
        let w = &mut self.words[off as usize + (u / 64) as usize];
        if val {
            *w |= 1u64 << (u % 64);
        } else {
            *w &= !(1u64 << (u % 64));
        }
    }

    /// Start indexing file `f`, which just crossed the density threshold:
    /// reuse a freed block if one exists, else append one. Skips silently
    /// at the u32 offset ceiling (same behavior as [`DenseIndex::build`]).
    fn promote(&mut self, f: FileId, reps: &[NodeId]) {
        debug_assert_eq!(self.offsets[f as usize], Self::NONE);
        let off = if let Some(off) = self.free.pop() {
            self.words[off as usize..off as usize + self.words_per_file].fill(0);
            off
        } else {
            let Ok(off) = u32::try_from(self.words.len()) else {
                return;
            };
            self.words
                .resize(self.words.len() + self.words_per_file, 0u64);
            off
        };
        self.offsets[f as usize] = off;
        let w = &mut self.words[off as usize..];
        for &v in reps {
            w[(v / 64) as usize] |= 1u64 << (v % 64);
        }
    }

    /// Stop indexing file `f`, which dropped below the density threshold;
    /// its bitmap block goes on the free list for the next promotion.
    fn demote(&mut self, f: FileId) {
        let off = self.offsets[f as usize];
        debug_assert_ne!(off, Self::NONE);
        self.offsets[f as usize] = Self::NONE;
        self.free.push(off);
    }
}

/// Consecutive rejected draws after which the distinct policy stops
/// rejection-sampling a node's next file and draws it with
/// [`draw_unchosen`] instead. Both give that file the same law, so the
/// budget changes only the RNG stream, and only where it is spent: with
/// `q` the popularity mass of the files the node has not chosen yet, `B`
/// rejections in a row happen with probability `(1 − q)^B`, below 10⁻⁴
/// while `q ≥ 0.9%` at `B = 1024`. A vanishing tail is where it pays: at
/// Zipf γ = 30 over 50 files the last file has mass 10⁻⁵¹, and rejection
/// alone would need ~1/q draws for it.
const DISTINCT_REJECTION_BUDGET: u32 = 1024;

/// Draw a file with probability proportional to `weights` among the files
/// node `u` has not stamped in `seen` — the law of the distinct policy's
/// next accepted draw — by one O(K) scan. At least one unstamped file must
/// have positive weight.
fn draw_unchosen<R: Rng + ?Sized>(
    weights: &[f64],
    seen: &[NodeId],
    u: NodeId,
    rng: &mut R,
) -> FileId {
    let open = |f: usize| if seen[f] == u { 0.0 } else { weights[f] };
    let total: f64 = (0..weights.len()).map(open).sum();
    let x = rng.gen::<f64>() * total;
    let (mut acc, mut last) = (0.0, 0);
    for f in 0..weights.len() {
        let w = open(f);
        if w > 0.0 {
            acc += w;
            last = f;
            // `x` may round up to `total`, which `acc` reaches exactly
            // after the last open file, so that file takes it.
            if x < acc {
                break;
            }
        }
    }
    last as FileId
}

impl Placement {
    /// Generate a placement for `n` nodes over `library` with cache size
    /// `m` under `policy`.
    ///
    /// Cost, for the sparse policies: the `n·M` draws, in node order, each
    /// checked against a `K`-entry stamp of the files its node already
    /// holds; a sort of each node's `t(u)` distinct files; and two passes
    /// over the `Σ t(u)` entries, to count each file's replicas and to
    /// fill lists allocated at exactly those counts. The distinct policy
    /// rejects repeats; after 1,024 rejections in a row it draws the
    /// node's next file with the same law by one O(K) scan over the files
    /// the node lacks, so a vanishing popularity tail costs scans rather
    /// than an unbounded number of draws.
    ///
    /// # Panics
    /// * `n == 0` or (`m == 0` under a non-full policy);
    /// * `ProportionalDistinct` with `m > K`.
    pub fn generate<R: Rng + ?Sized>(
        n: u32,
        library: &Library,
        m: u32,
        policy: PlacementPolicy,
        rng: &mut R,
    ) -> Self {
        assert!(n > 0, "placement needs at least one node");
        let k = library.k();
        match policy {
            PlacementPolicy::FullLibrary => Self {
                n,
                k,
                m: k,
                policy,
                kind: Kind::Full,
            },
            PlacementPolicy::ProportionalWithReplacement => {
                assert!(m > 0, "cache size must be positive");
                Self::generate_sparse(n, library, m, policy, rng, false)
            }
            PlacementPolicy::ProportionalDistinct => {
                assert!(m > 0, "cache size must be positive");
                assert!(m <= k, "distinct placement needs M ≤ K (got M={m}, K={k})");
                // Zero-probability files can never be drawn; rejection
                // sampling must have at least M drawable files or it
                // would loop forever.
                let drawable = library.weights().iter().filter(|&&w| w > 0.0).count();
                assert!(
                    drawable >= m as usize,
                    "distinct placement needs ≥ M files with positive popularity \
                     (M={m}, positive-weight files={drawable})"
                );
                Self::generate_sparse(n, library, m, policy, rng, true)
            }
        }
    }

    /// Pass 1 of the build: each node's draws, in node order, become its
    /// sorted distinct files in its slot; [`Placement::from_slots`] does
    /// the rest.
    fn generate_sparse<R: Rng + ?Sized>(
        n: u32,
        library: &Library,
        m: u32,
        policy: PlacementPolicy,
        rng: &mut R,
        distinct: bool,
    ) -> Self {
        let k = library.k();
        let stride = m.min(k) as usize;
        let mut slab: Vec<FileId> = vec![0; n as usize * stride];
        let mut lens = vec![0u32; n as usize];
        // `seen[f] == u` once node `u` has drawn `f`: a repeat is found by
        // one load, so only the distinct files are ever sorted.
        let mut seen: Vec<NodeId> = vec![NodeId::MAX; k as usize];
        let mut draws: Vec<FileId> = vec![0; m as usize];
        for u in 0..n {
            let mut len = 0usize;
            if distinct {
                // Rejection-sample M distinct files proportional to P.
                let mut rejected = 0u32;
                while len < m as usize {
                    let mut f = library.sample_file(rng);
                    if seen[f as usize] == u {
                        rejected += 1;
                        if rejected < DISTINCT_REJECTION_BUDGET {
                            continue;
                        }
                        f = draw_unchosen(library.weights(), &seen, u, rng);
                    }
                    rejected = 0;
                    seen[f as usize] = u;
                    draws[len] = f;
                    len += 1;
                }
            } else {
                // Branch-free: every draw is written at the cursor and
                // only a file's first draw advances it. The cursor never
                // passes the draw count, so it stays inside `draws`.
                for _ in 0..m {
                    let f = library.sample_file(rng);
                    draws[len] = f;
                    len += usize::from(seen[f as usize] != u);
                    seen[f as usize] = u;
                }
            }
            let files = &mut draws[..len];
            files.sort_unstable();
            slab[u as usize * stride..][..len].copy_from_slice(files);
            lens[u as usize] = len as u32;
        }
        Self::from_slots(n, k, m, policy, slab, lens)
    }

    /// Build a placement from explicit per-node file lists (deduplicated
    /// and sorted internally) — the entry point for externally computed
    /// placements such as the consistent-hashing scheme of `paba-dht`.
    ///
    /// `m` records the nominal cache size for reporting; each node's
    /// distinct list may be shorter (never longer).
    ///
    /// # Panics
    /// If `lists.len() != n`, any file id is `≥ k`, or any list exceeds
    /// `m` distinct files.
    pub fn from_node_files(n: u32, k: u32, m: u32, lists: Vec<Vec<FileId>>) -> Self {
        assert_eq!(lists.len(), n as usize, "need one list per node");
        let stride = m.min(k) as usize;
        let mut slab: Vec<FileId> = vec![0; n as usize * stride];
        let mut lens = vec![0u32; n as usize];
        for (u, mut files) in lists.into_iter().enumerate() {
            files.sort_unstable();
            files.dedup();
            assert!(
                files.len() <= m as usize,
                "node {u} holds {} distinct files > M={m}",
                files.len()
            );
            if let Some(&f) = files.last() {
                assert!(f < k, "file id {f} out of range (K={k})");
            }
            slab[u * stride..][..files.len()].copy_from_slice(&files);
            lens[u] = files.len() as u32;
        }
        let policy = PlacementPolicy::ProportionalWithReplacement;
        Self::from_slots(n, k, m, policy, slab, lens)
    }

    /// Pass 2 of both constructors, given every node's sorted distinct
    /// files in its slot: count each file's replicas, allocate each
    /// replica list at exactly that size, and fill the lists in ascending
    /// node order, so they come out sorted without a search.
    fn from_slots(
        n: u32,
        k: u32,
        m: u32,
        policy: PlacementPolicy,
        slab: Vec<FileId>,
        lens: Vec<u32>,
    ) -> Self {
        let stride = m.min(k) as usize;
        let slots = || {
            lens.iter()
                .enumerate()
                .map(|(u, &len)| &slab[u * stride..][..len as usize])
        };
        let mut counts = vec![0u32; k as usize];
        for files in slots() {
            for &f in files {
                counts[f as usize] += 1;
            }
        }
        let mut replicas: Vec<Vec<NodeId>> = counts
            .iter()
            .map(|&c| Vec::with_capacity(c as usize))
            .collect();
        for (u, files) in slots().enumerate() {
            for &f in files {
                replicas[f as usize].push(u as NodeId);
            }
        }
        let dense = DenseIndex::build(n, &replicas);
        Self {
            n,
            k,
            m,
            policy,
            kind: Kind::Sparse {
                slab,
                lens,
                replicas,
                dense,
            },
        }
    }

    /// Full-replication placement (`M = K`) without materializing `n·K`
    /// entries.
    pub fn full(n: u32, k: u32) -> Self {
        assert!(n > 0 && k > 0);
        Self {
            n,
            k,
            m: k,
            policy: PlacementPolicy::FullLibrary,
            kind: Kind::Full,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Library size.
    #[inline]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Cache size (number of placement draws; `= K` for full placement).
    #[inline]
    pub fn m(&self) -> u32 {
        self.m
    }

    /// `S = min(M, K)`: the most distinct files a node can hold, and so
    /// the length of each node's slot in a materialized placement.
    #[inline]
    fn stride(&self) -> usize {
        self.m.min(self.k) as usize
    }

    /// The policy this placement was generated under.
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// Whether this is the implicit full-replication placement.
    pub fn is_full(&self) -> bool {
        matches!(self.kind, Kind::Full)
    }

    /// Number of nodes caching file `f`.
    #[inline]
    pub fn replica_count(&self, f: FileId) -> u32 {
        debug_assert!(f < self.k);
        match &self.kind {
            Kind::Sparse { replicas, .. } => replicas[f as usize].len() as u32,
            Kind::Full => self.n,
        }
    }

    /// The `idx`-th node (in ascending order) caching file `f`.
    ///
    /// # Panics
    /// If `idx ≥ replica_count(f)` (debug builds; unchecked release index
    /// panics come from the underlying slice).
    #[inline]
    pub fn replica_at(&self, f: FileId, idx: u32) -> NodeId {
        match &self.kind {
            Kind::Sparse { replicas, .. } => replicas[f as usize][idx as usize],
            Kind::Full => idx,
        }
    }

    /// The sorted (ascending) node list caching `f`, or `None` for the
    /// implicit full placement (where it would be `0..n` for every file).
    ///
    /// Sortedness is what makes the list range-searchable: node ids are
    /// row-major lattice coordinates, so "replicas inside a ball" is a
    /// handful of contiguous sub-slices found by binary search (see
    /// [`paba_topology::Topology::for_each_ball_id_range`]).
    #[inline]
    pub fn replica_list(&self, f: FileId) -> Option<&[NodeId]> {
        match &self.kind {
            Kind::Sparse { replicas, .. } => Some(&replicas[f as usize]),
            Kind::Full => None,
        }
    }

    /// Visit each node caching `f`, in ascending node order.
    pub fn for_each_replica<F: FnMut(NodeId)>(&self, f: FileId, mut cb: F) {
        match &self.kind {
            Kind::Sparse { replicas, .. } => {
                for &u in &replicas[f as usize] {
                    cb(u);
                }
            }
            Kind::Full => {
                for u in 0..self.n {
                    cb(u);
                }
            }
        }
    }

    /// Does node `u` cache file `f`? (O(1) for full placements.)
    ///
    /// Binary-searches whichever index is shorter — node `u`'s slot
    /// (length `t(u) ≤ M`) or `replicas[f]` (length `cnt(f)`, as low as 1
    /// for tail files) — so the cost is `O(min(log t(u), log cnt(f)))`.
    /// This is the membership primitive of the assignment hot path: the
    /// ball-side rejection sampler calls it once per attempt.
    #[inline]
    pub fn caches(&self, u: NodeId, f: FileId) -> bool {
        match &self.kind {
            Kind::Sparse {
                replicas, dense, ..
            } => {
                if let Some(hit) = dense.contains(f, u) {
                    return hit;
                }
                let reps = &replicas[f as usize];
                let files = self.node_files(u);
                if reps.len() < files.len() {
                    reps.binary_search(&u).is_ok()
                } else {
                    files.binary_search(&f).is_ok()
                }
            }
            Kind::Full => true,
        }
    }

    /// Whether membership queries for file `f` are answered by the dense
    /// bitmap index (head files) rather than binary search (tail files).
    /// Telemetry uses this to attribute [`Placement::caches`] costs; full
    /// placements answer in O(1) without either structure.
    #[inline]
    pub fn has_dense_index(&self, f: FileId) -> bool {
        match &self.kind {
            Kind::Sparse { dense, .. } => dense.offsets[f as usize] != DenseIndex::NONE,
            Kind::Full => false,
        }
    }

    /// Sorted distinct files cached by node `u`.
    ///
    /// For the full placement this would be `0..K` for every node; call
    /// sites that support full placements should branch on
    /// [`Placement::is_full`] instead of forcing materialization.
    ///
    /// # Panics
    /// On a full placement (to avoid silently allocating `K` entries).
    #[inline]
    pub fn node_files(&self, u: NodeId) -> &[FileId] {
        match &self.kind {
            Kind::Sparse { slab, lens, .. } => {
                let base = u as usize * self.stride();
                &slab[base..base + lens[u as usize] as usize]
            }
            Kind::Full => panic!("node_files() is implicit (0..K) for a full placement"),
        }
    }

    /// `t(u)`: number of distinct files cached at `u` (Definition 5).
    #[inline]
    pub fn t_u(&self, u: NodeId) -> u32 {
        match &self.kind {
            Kind::Sparse { lens, .. } => lens[u as usize],
            Kind::Full => self.k,
        }
    }

    /// `t(u, v)`: number of distinct files cached at both `u` and `v`
    /// (Definition 5). Sorted-merge intersection, O(t(u) + t(v)).
    pub fn t_uv(&self, u: NodeId, v: NodeId) -> u32 {
        match &self.kind {
            Kind::Full => self.k,
            Kind::Sparse { .. } => {
                let (mut a, mut b) = (self.node_files(u), self.node_files(v));
                // Iterate the shorter list against the longer one.
                if a.len() > b.len() {
                    std::mem::swap(&mut a, &mut b);
                }
                let mut count = 0u32;
                let mut i = 0usize;
                for &f in a {
                    while i < b.len() && b[i] < f {
                        i += 1;
                    }
                    if i == b.len() {
                        break;
                    }
                    if b[i] == f {
                        count += 1;
                        i += 1;
                    }
                }
                count
            }
        }
    }

    /// Do `u` and `v` share at least one cached file? Early-exit variant of
    /// [`Placement::t_uv`] used when building the configuration graph.
    pub fn shares_file(&self, u: NodeId, v: NodeId) -> bool {
        match &self.kind {
            Kind::Full => true,
            Kind::Sparse { .. } => {
                let (mut a, mut b) = (self.node_files(u), self.node_files(v));
                if a.len() > b.len() {
                    std::mem::swap(&mut a, &mut b);
                }
                let mut i = 0usize;
                for &f in a {
                    while i < b.len() && b[i] < f {
                        i += 1;
                    }
                    if i == b.len() {
                        return false;
                    }
                    if b[i] == f {
                        return true;
                    }
                }
                false
            }
        }
    }

    /// Insert file `f` into node `u`'s cache, keeping every index
    /// consistent: the sorted replica list, node `u`'s slot, and the
    /// dense bitmap (promoting `f` at the `n/16` density threshold exactly
    /// where a from-scratch rebuild would index it). Returns `false`
    /// without changes when `u` already caches `f`.
    ///
    /// Cost: two binary searches, a shift inside `u`'s slot (O(M)) and the
    /// insert into `f`'s replica list (O(cnt(f))); nothing else moves.
    ///
    /// # Panics
    /// On the implicit full placement, if `f ≥ K`, or if node `u` already
    /// holds `M` distinct files (capacity is the caller's invariant).
    pub fn insert(&mut self, u: NodeId, f: FileId) -> bool {
        assert!(f < self.k, "file id {f} out of range (K={})", self.k);
        let (n, m, stride) = (self.n, self.m, self.stride());
        match &mut self.kind {
            Kind::Full => panic!("cannot mutate the implicit full placement"),
            Kind::Sparse {
                slab,
                lens,
                replicas,
                dense,
            } => {
                let reps = &mut replicas[f as usize];
                let Err(pos) = reps.binary_search(&u) else {
                    return false;
                };
                let len = lens[u as usize] as usize;
                assert!(len < m as usize, "node {u} is full (M={m})");
                reps.insert(pos, u);
                // `f` is absent and `len < M`, so `len < min(M, K)`: the
                // slot has room for one more.
                let slot = &mut slab[u as usize * stride..][..len + 1];
                let fpos = slot[..len]
                    .binary_search(&f)
                    .expect_err("replica list said f was absent");
                slot.copy_within(fpos..len, fpos + 1);
                slot[fpos] = f;
                lens[u as usize] += 1;
                if dense.offsets[f as usize] != DenseIndex::NONE {
                    dense.set(f, u, true);
                } else if (reps.len() as u64) * 16 >= n as u64 {
                    dense.promote(f, reps);
                }
                true
            }
        }
    }

    /// Remove file `f` from node `u`'s cache, the inverse of
    /// [`Placement::insert`] (the dense bitmap demotes `f` when its replica
    /// count drops below the `n/16` threshold). Returns `false` without
    /// changes when `u` does not cache `f`.
    ///
    /// # Panics
    /// On the implicit full placement or if `f ≥ K`.
    pub fn remove(&mut self, u: NodeId, f: FileId) -> bool {
        assert!(f < self.k, "file id {f} out of range (K={})", self.k);
        let (n, stride) = (self.n, self.stride());
        match &mut self.kind {
            Kind::Full => panic!("cannot mutate the implicit full placement"),
            Kind::Sparse {
                slab,
                lens,
                replicas,
                dense,
            } => {
                let reps = &mut replicas[f as usize];
                let Ok(pos) = reps.binary_search(&u) else {
                    return false;
                };
                reps.remove(pos);
                let len = lens[u as usize] as usize;
                let slot = &mut slab[u as usize * stride..][..len];
                let fpos = slot
                    .binary_search(&f)
                    .expect("replica list said f was present");
                slot.copy_within(fpos + 1..len, fpos);
                lens[u as usize] -= 1;
                if dense.offsets[f as usize] != DenseIndex::NONE {
                    if (reps.len() as u64) * 16 < n as u64 {
                        dense.demote(f);
                    } else {
                        dense.set(f, u, false);
                    }
                }
                true
            }
        }
    }

    /// Drop every file cached at node `u`, returning the removed list
    /// (sorted). Used when a node crashes without handoff: its entries
    /// must stop serving immediately, and the returned list is what a
    /// repair policy re-replicates elsewhere.
    ///
    /// # Panics
    /// On the implicit full placement.
    pub fn remove_node_entries(&mut self, u: NodeId) -> Vec<FileId> {
        let files: Vec<FileId> = match &self.kind {
            Kind::Full => panic!("cannot mutate the implicit full placement"),
            Kind::Sparse { .. } => self.node_files(u).to_vec(),
        };
        for &f in &files {
            let removed = self.remove(u, f);
            debug_assert!(removed);
        }
        files
    }

    /// Number of files with no replica anywhere (possible under the
    /// with-replacement model; the request stream must handle them — see
    /// [`crate::UncachedPolicy`]).
    pub fn uncached_files(&self) -> u32 {
        match &self.kind {
            Kind::Full => 0,
            Kind::Sparse { replicas, .. } => {
                replicas.iter().filter(|r| r.is_empty()).count() as u32
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paba_popularity::Popularity;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn lib(k: u32) -> Library {
        Library::new(k, Popularity::Uniform)
    }

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn with_replacement_invariants() {
        let library = lib(20);
        let p = Placement::generate(
            50,
            &library,
            6,
            PlacementPolicy::ProportionalWithReplacement,
            &mut rng(1),
        );
        assert_eq!(p.n(), 50);
        assert_eq!(p.m(), 6);
        for u in 0..50 {
            let files = p.node_files(u);
            assert!(!files.is_empty() && files.len() <= 6);
            // sorted + distinct
            assert!(files.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(p.t_u(u) as usize, files.len());
            for &f in files {
                assert!(p.caches(u, f));
            }
        }
        // Index consistency both ways.
        for f in 0..20u32 {
            let cnt = p.replica_count(f);
            for i in 0..cnt {
                let u = p.replica_at(f, i);
                assert!(p.caches(u, f), "file {f} replica {u}");
            }
        }
    }

    #[test]
    fn replicas_sorted_ascending() {
        let library = lib(10);
        let p = Placement::generate(
            100,
            &library,
            3,
            PlacementPolicy::ProportionalWithReplacement,
            &mut rng(2),
        );
        for f in 0..10u32 {
            let nodes: Vec<u32> = (0..p.replica_count(f))
                .map(|i| p.replica_at(f, i))
                .collect();
            assert!(nodes.windows(2).all(|w| w[0] < w[1]), "file {f}: {nodes:?}");
        }
    }

    #[test]
    fn distinct_policy_gives_exactly_m_files() {
        let library = lib(12);
        let p = Placement::generate(
            30,
            &library,
            5,
            PlacementPolicy::ProportionalDistinct,
            &mut rng(3),
        );
        for u in 0..30 {
            assert_eq!(p.t_u(u), 5, "node {u}");
        }
    }

    #[test]
    fn distinct_policy_with_m_equal_k() {
        let library = lib(4);
        let p = Placement::generate(
            10,
            &library,
            4,
            PlacementPolicy::ProportionalDistinct,
            &mut rng(4),
        );
        for u in 0..10 {
            assert_eq!(p.node_files(u), &[0, 1, 2, 3]);
        }
        assert_eq!(p.uncached_files(), 0);
    }

    #[test]
    #[should_panic(expected = "M ≤ K")]
    fn distinct_policy_rejects_m_above_k() {
        let library = lib(3);
        let _ = Placement::generate(
            5,
            &library,
            4,
            PlacementPolicy::ProportionalDistinct,
            &mut rng(0),
        );
    }

    #[test]
    fn full_placement_is_implicit() {
        let p = Placement::full(100, 1000);
        assert!(p.is_full());
        assert_eq!(p.m(), 1000);
        assert_eq!(p.replica_count(999), 100);
        assert_eq!(p.replica_at(999, 57), 57);
        assert!(p.caches(3, 7));
        assert_eq!(p.t_u(42), 1000);
        assert_eq!(p.t_uv(1, 2), 1000);
        assert!(p.shares_file(0, 99));
        assert_eq!(p.uncached_files(), 0);
        let mut count = 0;
        p.for_each_replica(0, |_| count += 1);
        assert_eq!(count, 100);
    }

    #[test]
    #[should_panic(expected = "implicit")]
    fn full_placement_node_files_panics() {
        let p = Placement::full(4, 4);
        let _ = p.node_files(0);
    }

    #[test]
    fn t_uv_matches_bruteforce() {
        let library = lib(15);
        let p = Placement::generate(
            20,
            &library,
            8,
            PlacementPolicy::ProportionalWithReplacement,
            &mut rng(5),
        );
        for u in 0..20 {
            for v in 0..20 {
                let brute = p
                    .node_files(u)
                    .iter()
                    .filter(|f| p.node_files(v).contains(f))
                    .count() as u32;
                assert_eq!(p.t_uv(u, v), brute, "({u},{v})");
                assert_eq!(p.shares_file(u, v), brute > 0);
                assert_eq!(p.t_uv(u, v), p.t_uv(v, u), "symmetry");
            }
            assert_eq!(p.t_uv(u, u), p.t_u(u));
        }
    }

    #[test]
    fn uncached_files_counted() {
        // n=5 nodes, M=1 draw, K=50 files: most files have no replica.
        let library = lib(50);
        let p = Placement::generate(
            5,
            &library,
            1,
            PlacementPolicy::ProportionalWithReplacement,
            &mut rng(6),
        );
        assert!(p.uncached_files() >= 45);
        let cached: u32 = (0..50).map(|f| u32::from(p.replica_count(f) > 0)).sum();
        assert_eq!(cached + p.uncached_files(), 50);
    }

    #[test]
    fn from_node_files_roundtrip() {
        let lists = vec![vec![2u32, 0, 2], vec![1], vec![], vec![0, 1, 2]];
        let p = Placement::from_node_files(4, 3, 3, lists);
        assert_eq!(p.node_files(0), &[0, 2]); // sorted, deduped
        assert_eq!(p.node_files(2), &[] as &[u32]);
        assert_eq!(p.replica_count(0), 2);
        assert_eq!(p.replica_count(1), 2);
        assert_eq!(p.replica_at(2, 0), 0);
        assert_eq!(p.replica_at(2, 1), 3);
        assert!(p.caches(3, 1));
        assert!(!p.caches(1, 0));
        assert_eq!(p.t_uv(0, 3), 2);
        assert_eq!(p.uncached_files(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_node_files_rejects_bad_ids() {
        let _ = Placement::from_node_files(1, 2, 4, vec![vec![5]]);
    }

    #[test]
    #[should_panic(expected = "one list per node")]
    fn from_node_files_rejects_bad_arity() {
        let _ = Placement::from_node_files(3, 2, 1, vec![vec![0]]);
    }

    #[test]
    fn zipf_placement_respects_popularity() {
        // Under a heavy Zipf profile the top file must collect far more
        // replicas than a tail file.
        let library = Library::new(100, Popularity::zipf(1.5));
        let p = Placement::generate(
            2000,
            &library,
            4,
            PlacementPolicy::ProportionalWithReplacement,
            &mut rng(7),
        );
        assert!(
            p.replica_count(0) > 10 * p.replica_count(99).max(1),
            "top {} vs tail {}",
            p.replica_count(0),
            p.replica_count(99)
        );
    }

    /// Rebuild `p` from scratch and check every queryable surface agrees:
    /// node lists, replica lists, membership (dense-or-not), and which
    /// files carry a dense index.
    fn assert_matches_rebuild(p: &Placement) {
        let lists: Vec<Vec<FileId>> = (0..p.n()).map(|u| p.node_files(u).to_vec()).collect();
        let r = Placement::from_node_files(p.n(), p.k(), p.m(), lists);
        for u in 0..p.n() {
            assert_eq!(p.node_files(u), r.node_files(u), "node {u}");
        }
        for f in 0..p.k() {
            assert_eq!(p.replica_list(f), r.replica_list(f), "file {f}");
            assert_eq!(
                p.has_dense_index(f),
                r.has_dense_index(f),
                "dense index for file {f}"
            );
            for u in 0..p.n() {
                assert_eq!(p.caches(u, f), r.caches(u, f), "caches({u},{f})");
            }
        }
    }

    #[test]
    fn insert_remove_roundtrip() {
        let library = lib(20);
        let mut p = Placement::generate(
            40,
            &library,
            6,
            PlacementPolicy::ProportionalWithReplacement,
            &mut rng(11),
        );
        // Find a node with spare capacity (with-replacement draws can
        // fill a node to exactly M distinct files, where `insert` is a
        // contract violation) and a file it does not hold.
        let u = (0..p.n()).find(|&u| p.t_u(u) < p.m()).unwrap();
        let f = (0..20).find(|&f| !p.caches(u, f)).unwrap();
        assert!(p.insert(u, f));
        assert!(p.caches(u, f));
        assert!(!p.insert(u, f), "double insert is a no-op");
        assert_matches_rebuild(&p);
        assert!(p.remove(u, f));
        assert!(!p.caches(u, f));
        assert!(!p.remove(u, f), "double remove is a no-op");
        assert_matches_rebuild(&p);
    }

    #[test]
    fn dense_index_promotes_and_demotes_at_threshold() {
        // n=64: a file becomes dense at exactly 4 replicas (4*16 = 64).
        let mut p = Placement::from_node_files(64, 2, 4, vec![Vec::new(); 64]);
        for u in 0..3 {
            assert!(p.insert(u, 0));
            assert!(!p.has_dense_index(0), "below threshold at {} reps", u + 1);
        }
        assert!(p.insert(3, 0));
        assert!(p.has_dense_index(0), "threshold crossing must promote");
        assert_matches_rebuild(&p);
        assert!(p.remove(1, 0));
        assert!(!p.has_dense_index(0), "dropping below threshold demotes");
        assert_matches_rebuild(&p);
        // Freed block is reused: promote a second file, then the first
        // again — membership stays exact throughout.
        for u in 10..14 {
            assert!(p.insert(u, 1));
        }
        assert!(p.insert(1, 0));
        assert!(p.has_dense_index(0) && p.has_dense_index(1));
        assert_matches_rebuild(&p);
    }

    #[test]
    fn remove_node_entries_clears_node() {
        let library = lib(10);
        let mut p = Placement::generate(
            30,
            &library,
            5,
            PlacementPolicy::ProportionalWithReplacement,
            &mut rng(12),
        );
        let before = p.node_files(7).to_vec();
        let removed = p.remove_node_entries(7);
        assert_eq!(removed, before);
        assert!(p.node_files(7).is_empty());
        for &f in &removed {
            assert!(!p.caches(7, f));
        }
        assert_matches_rebuild(&p);
    }

    #[test]
    #[should_panic(expected = "is full")]
    fn insert_rejects_over_capacity() {
        let mut p = Placement::from_node_files(2, 3, 2, vec![vec![0, 1], vec![]]);
        let _ = p.insert(0, 2);
    }

    #[test]
    #[should_panic(expected = "full placement")]
    fn insert_rejects_full_placement() {
        let mut p = Placement::full(4, 4);
        let _ = p.insert(0, 0);
    }

    #[test]
    fn replica_lists_are_allocated_exactly() {
        let library = Library::new(40, Popularity::zipf(1.2));
        let built = [
            Placement::generate(
                200,
                &library,
                6,
                PlacementPolicy::ProportionalWithReplacement,
                &mut rng(13),
            ),
            Placement::generate(
                200,
                &library,
                6,
                PlacementPolicy::ProportionalDistinct,
                &mut rng(14),
            ),
            Placement::from_node_files(
                5,
                4,
                3,
                vec![vec![3, 0, 3], vec![], vec![1, 2, 1], vec![0], vec![2, 0]],
            ),
        ];
        for (i, p) in built.iter().enumerate() {
            let Kind::Sparse { replicas, .. } = &p.kind else {
                unreachable!("sparse constructors build sparse placements")
            };
            for (f, reps) in replicas.iter().enumerate() {
                assert_eq!(reps.capacity(), reps.len(), "placement {i}, file {f}");
            }
        }
    }

    #[test]
    fn distinct_fallback_draw_matches_rejection_law() {
        // Node 0 holds files 0 and 3 of a Zipf(1.2) library of 8 files;
        // node 1's stamp on file 5 does not close it to node 0. The
        // rejection loop's next accepted file and `draw_unchosen` must
        // both follow the weights renormalized over files 1, 2, 4–7.
        use paba_popularity::empirical::{chi_squared_critical, FrequencyCounter};
        let library = Library::new(8, Popularity::zipf(1.2));
        let mut seen = vec![NodeId::MAX; 8];
        (seen[0], seen[3], seen[5]) = (0, 0, 1);
        let weights = library.weights();
        let open: f64 = (0..8).filter(|&f| seen[f] != 0).map(|f| weights[f]).sum();
        let expected: Vec<f64> = (0..8)
            .map(|f| if seen[f] == 0 { 0.0 } else { weights[f] / open })
            .collect();
        let mut r = rng(15);
        let (mut fallback, mut rejection) = (FrequencyCounter::new(8), FrequencyCounter::new(8));
        for _ in 0..200_000 {
            fallback.record(draw_unchosen(weights, &seen, 0, &mut r));
            let f = loop {
                let f = library.sample_file(&mut r);
                if seen[f as usize] != 0 {
                    break f;
                }
            };
            rejection.record(f);
        }
        let critical = chi_squared_critical(5);
        for (name, counts) in [("fallback", &fallback), ("rejection", &rejection)] {
            let chi2 = counts.chi_squared(&expected);
            assert!(chi2 < critical, "{name}: χ² = {chi2:.2} ≥ {critical:.2}");
        }
    }

    #[test]
    fn distinct_policy_survives_a_vanishing_tail() {
        // Rejection alone needs ~10⁹ draws for the last files at γ = 5 and
        // ~10⁵¹ at γ = 30 (where every node must hold all 50 files).
        for (n, k, m, gamma) in [(100, 1000, 100, 5.0), (16, 50, 50, 30.0)] {
            let library = Library::new(k, Popularity::zipf(gamma));
            let p = Placement::generate(
                n,
                &library,
                m,
                PlacementPolicy::ProportionalDistinct,
                &mut rng(16),
            );
            for u in 0..n {
                let files = p.node_files(u);
                assert_eq!(files.len(), m as usize, "γ = {gamma}, node {u}");
                assert!(files.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let library = lib(16);
        let a = Placement::generate(
            64,
            &library,
            4,
            PlacementPolicy::ProportionalWithReplacement,
            &mut rng(9),
        );
        let b = Placement::generate(
            64,
            &library,
            4,
            PlacementPolicy::ProportionalWithReplacement,
            &mut rng(9),
        );
        for u in 0..64 {
            assert_eq!(a.node_files(u), b.node_files(u));
        }
    }
}
