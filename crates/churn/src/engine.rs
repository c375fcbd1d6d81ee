//! The churn engine: liveness tracking, failure-degraded serving, and
//! pluggable replica repair.
//!
//! [`simulate_churn`] interleaves a [`ChurnSchedule`] with the standard
//! sequential request loop. Membership lives in one `alive` bitmap (who
//! can serve right now). Who *should* hold what — the minimal-disruption
//! directory that drives graceful handoff and join-time refill — is a
//! [`SuccessorDirectory`]: every file's first `4R` distinct successors on
//! one consistent-hash ring over every node, built once and read through
//! that bitmap, so an event never rebuilds a ring:
//!
//! * a crash, leave or join adjusts the live counts of only the files
//!   whose list holds that node (about `K·4R/n`), and a list that falls
//!   below `R` live nodes is walked again at twice its width;
//! * leave handoff reads a file's first `R` live successors
//!   ([`SuccessorDirectory::live_replicas`]);
//! * join refill reads the joiner's files off the directory's
//!   node → files index ([`SuccessorDirectory::keys_on`]).
//!
//! Each applied event makes at most one
//! `CacheNetwork::mutate_placement` call, so every strategy's sampler and
//! the conditional cached-file sampler stay consistent mid-churn and are
//! rebuilt once per event. Apart from list growth, an event does
//! `O(K·R/n)` expected directory work and `O(M)` placement calls, each
//! shifting only inside one node's fixed-stride file slot (`O(M)`) and
//! one file's replica list, plus that one rebuild.

use crate::schedule::{ChurnEventKind, ChurnSchedule};
use paba_core::source::RequestSource;
use paba_core::{CacheNetwork, Placement, Request, SimReport, Strategy};
use paba_dht::SuccessorDirectory;
use paba_popularity::FileId;
use paba_telemetry::{Counter, Recorder, SpanTimer, Stage};
use paba_topology::{NodeId, Topology};
use rand::Rng;

/// How lost replicas are re-homed (and insert targets chosen).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RepairPolicy {
    /// No repair protocol: crashes leave the directory stale (requests
    /// discover dead replicas via bounded retries) and joins restore
    /// whatever the directory still attributes to the node.
    None,
    /// Re-replicate each lost copy to a uniform random live node with
    /// spare capacity.
    Random,
    /// Balanced-allocations repair: draw two candidate nodes and give the
    /// copy to the one caching fewer distinct files — the placement-level
    /// two-choices that keeps `min t(u)` (the δ half of (δ,µ)-goodness)
    /// from eroding under sustained churn.
    #[default]
    TwoChoices,
}

impl RepairPolicy {
    /// Kebab-case name (CLI argument / JSON value).
    pub fn label(self) -> &'static str {
        match self {
            RepairPolicy::None => "none",
            RepairPolicy::Random => "random",
            RepairPolicy::TwoChoices => "two-choices",
        }
    }

    /// Parse a [`RepairPolicy::label`] string.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "none" => Ok(RepairPolicy::None),
            "random" => Ok(RepairPolicy::Random),
            "two-choices" => Ok(RepairPolicy::TwoChoices),
            other => Err(format!(
                "unknown repair policy '{other}' (expected none|random|two-choices)"
            )),
        }
    }
}

/// Engine parameters.
#[derive(Clone, Copy, Debug)]
pub struct ChurnCfg {
    /// Replica repair policy.
    pub repair: RepairPolicy,
    /// How many *dead* replicas one request may probe past the strategy's
    /// original (dead) choice before giving up and serving degraded at
    /// its origin.
    pub retry_budget: u32,
    /// Ring replica-set size used for graceful handoff and join refill.
    pub replication: u32,
    /// Virtual nodes per server on the membership ring.
    pub vnodes: u32,
    /// Ring salt (vary per run for independent layouts).
    pub salt: u64,
}

impl Default for ChurnCfg {
    fn default() -> Self {
        Self {
            repair: RepairPolicy::TwoChoices,
            retry_budget: 8,
            replication: 3,
            vnodes: 64,
            salt: 0,
        }
    }
}

/// Failure/repair accounting for one churned run. Kept separate from
/// [`SimReport`] (whose schema is shared with static runs) and filled
/// independently of the recorder, so gates work under `NullRecorder`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChurnReport {
    /// Schedule events applied.
    pub events_applied: u64,
    /// Schedule events skipped (node already in the target state, or the
    /// last live node was asked to go down).
    pub events_skipped: u64,
    /// Dead-replica probes across all requests (each costs one unit of
    /// the per-request retry budget).
    pub retries: u64,
    /// Requests that exhausted the retry budget (or ran out of replicas)
    /// and were served degraded at their origin.
    pub failed: u64,
    /// Replicas moved or re-created by repair, handoff, or join refill.
    pub migrations: u64,
    /// Fresh replicas placed by insert events.
    pub inserted: u64,
    /// Resident files evicted under capacity pressure.
    pub evictions: u64,
    /// Replica copies dropped because no live node could take them.
    pub lost: u64,
}

impl ChurnReport {
    /// Fold another report into this one (for cross-run aggregation).
    pub fn merge(&mut self, other: &ChurnReport) {
        self.events_applied += other.events_applied;
        self.events_skipped += other.events_skipped;
        self.retries += other.retries;
        self.failed += other.failed;
        self.migrations += other.migrations;
        self.inserted += other.inserted;
        self.evictions += other.evictions;
        self.lost += other.lost;
    }
}

/// Rejection-sampling attempts when drawing a repair/insert target.
const DRAW_ATTEMPTS: u32 = 48;

/// Live-membership state plus repair machinery for one churned run.
pub struct ChurnEngine {
    alive: Vec<bool>,
    live: u32,
    /// Every file's ring successors, built once and read through `alive`.
    directory: SuccessorDirectory,
    cfg: ChurnCfg,
    report: ChurnReport,
}

impl ChurnEngine {
    /// Start with every node alive. Builds the successor directory once:
    /// a counting scatter of the ring's `nV` points, then a walk of about
    /// `4R` successors per file that sorts only the ring buckets it
    /// enters.
    ///
    /// # Panics
    /// On the implicit full placement (churn requires a materialized,
    /// mutable placement).
    pub fn new<T: Topology>(net: &CacheNetwork<T>, cfg: ChurnCfg) -> Self {
        assert!(
            !net.placement().is_full(),
            "churn needs a materialized (non-full) placement"
        );
        let n = net.n();
        Self {
            alive: vec![true; n as usize],
            live: n,
            directory: SuccessorDirectory::new(n, cfg.vnodes, cfg.salt, net.k(), cfg.replication),
            cfg,
            report: ChurnReport::default(),
        }
    }

    /// Is `node` currently serving?
    #[inline]
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive[node as usize]
    }

    /// Accounting so far.
    pub fn report(&self) -> &ChurnReport {
        &self.report
    }

    /// Consume the engine, yielding its accounting.
    pub fn into_report(self) -> ChurnReport {
        self.report
    }

    /// Apply one schedule event to the live network, with at most one
    /// `CacheNetwork::mutate_placement` call.
    pub fn apply<T, R, Rec>(
        &mut self,
        net: &mut CacheNetwork<T>,
        kind: ChurnEventKind,
        rng: &mut R,
        rec: &Rec,
    ) where
        T: Topology,
        R: Rng + ?Sized,
        Rec: Recorder,
    {
        let applied = match kind {
            ChurnEventKind::Crash { node } => self.crash(net, node, rng, rec),
            ChurnEventKind::Leave { node } => self.leave(net, node, rec),
            ChurnEventKind::Join { node } => self.join(net, node, rng, rec),
            ChurnEventKind::Insert { file } => self.insert_file(net, file, rng),
        };
        if applied {
            self.report.events_applied += 1;
            rec.count(Counter::ChurnEvent, 1);
        } else {
            self.report.events_skipped += 1;
        }
    }

    /// Mark `node` down, unless it already is or is the last live node.
    fn take_down(&mut self, node: NodeId) -> bool {
        if !self.alive[node as usize] || self.live == 1 {
            return false;
        }
        self.alive[node as usize] = false;
        self.live -= 1;
        self.directory.set_live(node, &self.alive);
        true
    }

    /// Account for `moved` re-homed replicas and `lost` dropped copies.
    fn record_moves<Rec: Recorder>(&mut self, (moved, lost): (u64, u64), rec: &Rec) {
        self.report.migrations += moved;
        self.report.lost += lost;
        if moved > 0 {
            rec.count(Counter::RepairMigration, moved);
        }
    }

    fn crash<T, R, Rec>(
        &mut self,
        net: &mut CacheNetwork<T>,
        node: NodeId,
        rng: &mut R,
        rec: &Rec,
    ) -> bool
    where
        T: Topology,
        R: Rng + ?Sized,
        Rec: Recorder,
    {
        if !self.take_down(node) {
            return false;
        }
        if matches!(self.cfg.repair, RepairPolicy::None) {
            // No repair protocol: the directory goes stale. Requests keep
            // choosing this node's entries and pay retries to discover
            // the death — the degradation the repair-off gate bounds.
            return true;
        }
        // Active repair: drop the dead node's entries and re-home each
        // lost copy on a policy-chosen live node with spare capacity.
        let (alive, repair) = (&self.alive, self.cfg.repair);
        let moves = rehome(net, node, |p, f| {
            pick_target(p, alive, repair, f, true, rng)
        });
        self.record_moves(moves, rec);
        true
    }

    fn leave<T, Rec>(&mut self, net: &mut CacheNetwork<T>, node: NodeId, rec: &Rec) -> bool
    where
        T: Topology,
        Rec: Recorder,
    {
        if !self.take_down(node) {
            return false;
        }
        // Graceful departure: the leaver hands each cached file to its
        // first live ring successor with room (the minimal-disruption
        // move), regardless of the repair policy — departure is the
        // node's own protocol, not the network's.
        let (directory, alive) = (&self.directory, &self.alive);
        let moves = rehome(net, node, |p, f| {
            directory
                .live_replicas(f, alive)
                .find(|&u| !p.caches(u, f) && p.t_u(u) < p.m())
        });
        self.record_moves(moves, rec);
        true
    }

    fn join<T, R, Rec>(
        &mut self,
        net: &mut CacheNetwork<T>,
        node: NodeId,
        rng: &mut R,
        rec: &Rec,
    ) -> bool
    where
        T: Topology,
        R: Rng + ?Sized,
        Rec: Recorder,
    {
        if self.alive[node as usize] {
            return false;
        }
        self.alive[node as usize] = true;
        self.live += 1;
        self.directory.set_live(node, &self.alive);
        if matches!(self.cfg.repair, RepairPolicy::None) {
            // The node resumes serving whatever the (stale) directory
            // still attributes to it — a crash/rejoin round-trips its
            // cache contents.
            return true;
        }
        // Ring-driven refill: adopt the cached files whose replica set
        // now includes the joiner, up to capacity.
        let p = net.placement();
        let mut adopt = self.ring_refill(p, node);
        // Top-up: the ring only hands the joiner the few files it is a
        // directory successor for (≈ K·R/n in expectation). A real cache
        // re-seeds the rest of its capacity exactly like the placement
        // phase — up to M popularity draws (duplicates waste the draw,
        // matching the with-replacement model) — so `t(u)` recovers to
        // its static level and the δ half of goodness survives rejoins.
        // The draws run against a copy of the joiner's file set, so the
        // refill and the top-up land in one mutation.
        let mut held: Vec<FileId> = p.node_files(node).to_vec();
        held.extend(&adopt);
        held.sort_unstable();
        let m = net.m() as usize;
        for _ in 0..m {
            if held.len() >= m {
                break;
            }
            let f = net.library().sample_file(rng);
            if let Err(at) = held.binary_search(&f) {
                held.insert(at, f);
                adopt.push(f);
            }
        }
        if !adopt.is_empty() {
            net.mutate_placement(|p| {
                for &f in &adopt {
                    p.insert(node, f);
                }
            });
        }
        self.record_moves((adopt.len() as u64, 0), rec);
        true
    }

    /// The cached files `node` lacks whose live replica set includes it,
    /// in ascending id, up to its free room: the directory's files for
    /// `node`.
    fn ring_refill(&self, p: &Placement, node: NodeId) -> Vec<FileId> {
        let mut files: Vec<FileId> = self
            .directory
            .keys_on(node, &self.alive)
            .filter(|&f| p.replica_count(f) > 0 && !p.caches(node, f))
            .collect();
        files.sort_unstable();
        files.truncate((p.m() - p.t_u(node)) as usize);
        files
    }

    fn insert_file<T, R>(&mut self, net: &mut CacheNetwork<T>, file: FileId, rng: &mut R) -> bool
    where
        T: Topology,
        R: Rng + ?Sized,
    {
        let copies = self.cfg.replication.min(self.live);
        let (alive, repair) = (&self.alive, self.cfg.repair);
        let (inserted, evictions, lost) = net.mutate_placement(|p| {
            let (mut inserted, mut evictions, mut lost) = (0, 0, 0);
            for _ in 0..copies {
                // Insert targets may be full — ingest is what creates
                // capacity pressure — so eviction is allowed here (and
                // only here; repair never destroys resident data).
                let Some(u) = pick_target(p, alive, repair, file, false, rng) else {
                    lost += 1;
                    continue;
                };
                if p.t_u(u) >= p.m() {
                    let resident = p.node_files(u);
                    let victim = resident[rng.gen_range(0..resident.len())];
                    p.remove(u, victim);
                    evictions += 1;
                }
                p.insert(u, file);
                inserted += 1;
            }
            (inserted, evictions, lost)
        });
        self.report.inserted += inserted;
        self.report.evictions += evictions;
        self.report.lost += lost;
        inserted > 0
    }

    /// Failure-degraded serving: the strategy chose a dead server. Probe
    /// the file's other replicas nearest-first (uniform tie-breaking);
    /// each dead probe costs one unit of the retry budget. Returns the
    /// first live replica hit, or `None` when the budget (or the replica
    /// list) is exhausted — the caller then serves degraded at the
    /// origin.
    pub fn failover<T, R, Rec>(
        &mut self,
        net: &CacheNetwork<T>,
        req: Request,
        dead_choice: NodeId,
        rng: &mut R,
        rec: &Rec,
    ) -> Option<(NodeId, u32)>
    where
        T: Topology,
        R: Rng + ?Sized,
        Rec: Recorder,
    {
        // Discovering the original choice is dead is the first retry.
        self.report.retries += 1;
        rec.count(Counter::DeadReplicaRetry, 1);
        let reps = net
            .placement()
            .replica_list(req.file)
            .expect("churn placement is materialized");
        let mut order: Vec<(u32, u32, NodeId)> = reps
            .iter()
            .filter(|&&v| v != dead_choice)
            .map(|&v| (net.topo().dist(req.origin, v), rng.gen::<u32>(), v))
            .collect();
        order.sort_unstable();
        let mut budget = self.cfg.retry_budget;
        for &(d, _, v) in &order {
            if self.alive[v as usize] {
                return Some((v, d));
            }
            if budget == 0 {
                break;
            }
            budget -= 1;
            self.report.retries += 1;
            rec.count(Counter::DeadReplicaRetry, 1);
        }
        self.report.failed += 1;
        rec.count(Counter::FailedRequest, 1);
        None
    }
}

/// Drop every entry of `node` and give each file to `pick`'s choice, all
/// in one placement mutation. Returns `(moved, lost)`: a file `pick`
/// finds no home for is lost.
fn rehome<T: Topology>(
    net: &mut CacheNetwork<T>,
    node: NodeId,
    mut pick: impl FnMut(&Placement, FileId) -> Option<NodeId>,
) -> (u64, u64) {
    net.mutate_placement(|p| {
        let (mut moved, mut lost) = (0, 0);
        for f in p.remove_node_entries(node) {
            match pick(p, f) {
                Some(u) => {
                    p.insert(u, f);
                    moved += 1;
                }
                None => lost += 1,
            }
        }
        (moved, lost)
    })
}

/// A uniform live node not caching `file` — with spare capacity when
/// `need_room` (repair must not evict; inserts may, so they take full
/// caches) — or, under two-choices, the one caching fewer distinct files
/// of two such draws (ties to the first). `None` when every draw spends
/// [`DRAW_ATTEMPTS`] rejections.
fn pick_target<R: Rng + ?Sized>(
    p: &Placement,
    alive: &[bool],
    repair: RepairPolicy,
    file: FileId,
    need_room: bool,
    rng: &mut R,
) -> Option<NodeId> {
    // The room check first: under churn most nodes are full.
    let fits =
        |u: NodeId| alive[u as usize] && (!need_room || p.t_u(u) < p.m()) && !p.caches(u, file);
    let mut draw = || {
        (0..DRAW_ATTEMPTS)
            .map(|_| rng.gen_range(0..p.n()))
            .find(|&u| fits(u))
    };
    if repair != RepairPolicy::TwoChoices {
        return draw();
    }
    match (draw(), draw()) {
        (Some(a), Some(b)) => Some(if p.t_u(b) < p.t_u(a) { b } else { a }),
        (a, b) => a.or(b),
    }
}

/// Run a delivery phase with churn events interleaved: before request `i`
/// is served, every schedule event with `at ≤ i` fires. Requests whose
/// chosen server is dead take the failover path; requests that exhaust
/// the retry budget are served degraded at their origin (zero hops —
/// a backhaul fetch charged to the requester).
///
/// The `(SimReport, ChurnReport)` pair separates the paper's load/cost
/// metrics from failure accounting. The recorder feeds the usual
/// telemetry ([`Counter::ChurnEvent`], [`Counter::DeadReplicaRetry`],
/// [`Counter::FailedRequest`], [`Counter::RepairMigration`]) and
/// compiles to no-ops under `NullRecorder`.
#[allow(clippy::too_many_arguments)]
pub fn simulate_churn<T, S, W, R, Rec>(
    net: &mut CacheNetwork<T>,
    strategy: &mut S,
    source: &mut W,
    requests: u64,
    schedule: &ChurnSchedule,
    cfg: ChurnCfg,
    rng: &mut R,
    rec: &Rec,
) -> (SimReport, ChurnReport)
where
    T: Topology,
    S: Strategy<T>,
    W: RequestSource<T>,
    R: Rng + ?Sized,
    Rec: Recorder,
{
    let timer = SpanTimer::start(rec, Stage::AssignLoop);
    let mut engine = ChurnEngine::new(net, cfg);
    let mut report = SimReport::new(net.n());
    let events = schedule.events();
    let mut next = 0usize;
    for i in 0..requests {
        while next < events.len() && events[next].at <= i {
            engine.apply(net, events[next].kind, rng, rec);
            next += 1;
        }
        let req = source.next_request(net, rng);
        let a = strategy.assign(net, &report.loads, req, rng);
        if engine.is_alive(a.server) {
            report.record(a.server, a.hops, a.fallback);
        } else {
            match engine.failover(net, req, a.server, rng, rec) {
                Some((server, hops)) => report.record(server, hops, a.fallback),
                None => report.record(req.origin, 0, None),
            }
        }
        if Rec::ENABLED {
            rec.loads(i, &report.loads);
        }
    }
    debug_assert!(report.check_conservation());
    timer.stop(rec);
    (report, engine.into_report())
}
