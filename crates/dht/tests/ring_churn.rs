//! Property tests for [`HashRing`] under *batched* churn.
//!
//! Two properties drive the churn engine's correctness:
//!
//! 1. **History independence** — the ring reached through any
//!    interleaving of joins and leaves depends only on the final
//!    membership set, not the path: lookups and k-distinct-successor
//!    sets equal those of a ring rebuilt from scratch for that set.
//! 2. **Minimal disruption** — across each step, a key changes hands
//!    only if its old owner left or its new owner just joined, and the
//!    moved fraction stays near the 1/|servers| ideal.
//! 3. **A mask is a rebuild** — the full ring read through a membership
//!    mask (`lookup_replicas_where`) answers exactly like the ring
//!    rebuilt for that membership, which is how the churn engine keeps
//!    one ring for a whole run.
//! 4. **Arcs are replica sets** — a key's position lies in server `s`'s
//!    `replica_arcs` exactly when its masked replica set contains `s`,
//!    which is how a joiner finds the files it should adopt.

use paba_dht::HashRing;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const N: u32 = 24;
const VNODES: u32 = 64;
const SALT: u64 = 0x5EED;
const KEYS: u64 = 6_000;
const REPLICAS: usize = 3;
/// Keys probed per membership mask and replica count.
const MASK_KEYS: u64 = 2_000;

/// Canonical ring for an arbitrary membership subset: start from the
/// full ring and remove the absent servers in ascending order. Removal
/// is a pure point filter, so this is order-independent — the
/// "rebuilt from scratch" reference.
fn reference(members: &[bool]) -> HashRing {
    let mut ring = HashRing::new(N, VNODES, SALT);
    for s in 0..N {
        if !members[s as usize] {
            ring = ring.without_server(s);
        }
    }
    ring
}

fn assert_rings_equal(a: &HashRing, b: &HashRing, context: &str) {
    for key in 0..KEYS {
        assert_eq!(a.lookup(key), b.lookup(key), "{context}: key {key}");
        assert_eq!(
            a.lookup_replicas(key, REPLICAS),
            b.lookup_replicas(key, REPLICAS),
            "{context}: replica set of key {key}"
        );
    }
}

#[test]
fn any_interleaving_matches_rebuilt_ring() {
    for trial in 0u64..8 {
        let mut rng = SmallRng::seed_from_u64(40 + trial);
        let mut members = vec![true; N as usize];
        let mut live = N;
        let mut ring = HashRing::new(N, VNODES, SALT);
        for step in 0..40 {
            // Random join/leave keeping at least 4 servers alive.
            let down: Vec<u32> = (0..N).filter(|&s| !members[s as usize]).collect();
            let join = !down.is_empty() && (live <= 4 || rng.gen_bool(0.5));
            if join {
                let s = down[rng.gen_range(0..down.len())];
                ring = ring.with_server(s);
                members[s as usize] = true;
                live += 1;
            } else {
                let ups: Vec<u32> = (0..N).filter(|&s| members[s as usize]).collect();
                let s = ups[rng.gen_range(0..ups.len())];
                ring = ring.without_server(s);
                members[s as usize] = false;
                live -= 1;
            }
            assert_rings_equal(
                &ring,
                &reference(&members),
                &format!("trial {trial} step {step}"),
            );
        }
    }
}

#[test]
fn each_step_moves_only_keys_touching_the_churned_server() {
    let mut rng = SmallRng::seed_from_u64(99);
    let mut members = vec![true; N as usize];
    let mut live = N;
    let mut ring = HashRing::new(N, VNODES, SALT);
    for step in 0..60 {
        let down: Vec<u32> = (0..N).filter(|&s| !members[s as usize]).collect();
        let join = !down.is_empty() && (live <= 4 || rng.gen_bool(0.5));
        let (next, churned) = if join {
            let s = down[rng.gen_range(0..down.len())];
            (ring.with_server(s), s)
        } else {
            let ups: Vec<u32> = (0..N).filter(|&s| members[s as usize]).collect();
            let s = ups[rng.gen_range(0..ups.len())];
            (ring.without_server(s), s)
        };
        let mut moved = 0u64;
        for key in 0..KEYS {
            let before = ring.lookup(key);
            let after = next.lookup(key);
            if before == after {
                continue;
            }
            moved += 1;
            if join {
                assert_eq!(
                    after, churned,
                    "step {step}: key {key} moved to a bystander"
                );
            } else {
                assert_eq!(
                    before, churned,
                    "step {step}: key {key} moved although its owner survived"
                );
            }
        }
        // Quantitative minimal disruption: ≈ 1/(live servers after a
        // join, live before a leave) of keys move; allow wide MC slack.
        let pool = if join { live + 1 } else { live } as f64;
        let frac = moved as f64 / KEYS as f64;
        assert!(
            frac < 4.0 / pool,
            "step {step}: moved fraction {frac:.4} ≫ 1/{pool}"
        );
        assert!(
            (ring.disruption(&next, 0..KEYS) - frac).abs() < 1e-12,
            "disruption() disagrees with the hand count"
        );
        ring = next;
        members[churned as usize] = !members[churned as usize];
        live = if join { live + 1 } else { live - 1 };
    }
}

/// Random memberships of every density, from a single live server up to
/// the full ring.
fn random_masks(seed: u64) -> Vec<Vec<bool>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut masks = vec![vec![true; N as usize]];
    for live in [1, 2, 3, 6, 12, 20, 23] {
        let mut mask = vec![false; N as usize];
        let mut ids: Vec<u32> = (0..N).collect();
        for i in 0..live {
            let j = rng.gen_range(i..N as usize);
            ids.swap(i, j);
            mask[ids[i] as usize] = true;
        }
        masks.push(mask);
    }
    masks
}

fn in_arcs(arcs: &[(u64, u64)], x: u64) -> bool {
    arcs.iter().any(|&(lo, hi)| lo <= x && x <= hi)
}

#[test]
fn masked_lookup_matches_rebuilt_ring() {
    let ring = HashRing::new(N, VNODES, SALT);
    for (m, members) in random_masks(7).iter().enumerate() {
        let rebuilt = reference(members);
        for k in [0, 1, REPLICAS, 5] {
            for key in 0..MASK_KEYS {
                let masked = ring.lookup_replicas_where(key, k, |s| members[s as usize]);
                assert_eq!(
                    masked,
                    rebuilt.lookup_replicas(key, k),
                    "mask {m}, k {k}, key {key}"
                );
            }
        }
    }
}

#[test]
fn zero_replicas_means_no_replicas_and_no_arcs() {
    let ring = HashRing::new(N, VNODES, SALT);
    for key in 0..200 {
        assert!(ring.lookup_replicas(key, 0).is_empty(), "key {key}");
        assert!(ring.lookup_replicas_where(key, 0, |_| true).is_empty());
    }
    for s in 0..N {
        assert!(ring.replica_arcs(s, 0, |_| true).is_empty(), "server {s}");
    }
}

#[test]
fn replica_arcs_hold_exactly_the_keys_replicated_on_the_server() {
    let ring = HashRing::new(N, VNODES, SALT);
    let mut wrapped = 0u64;
    for (m, members) in random_masks(11).iter().enumerate() {
        let live = members.iter().filter(|&&a| a).count();
        let keep = |s: u32| members[s as usize];
        for k in [1, 2, REPLICAS, 5] {
            let sets: Vec<Vec<u32>> = (0..MASK_KEYS)
                .map(|key| ring.lookup_replicas_where(key, k, keep))
                .collect();
            let mut at_zero = Vec::new();
            let mut at_top = Vec::new();
            for s in 0..N {
                let arcs = ring.replica_arcs(s, k, keep);
                assert!(arcs.iter().all(|&(lo, hi)| lo <= hi), "mask {m}, k {k}");
                if !members[s as usize] {
                    assert!(arcs.is_empty(), "mask {m}, k {k}: dead server {s}");
                    continue;
                }
                if live <= k {
                    // Fewer than k other live servers: every key's
                    // replica set holds every live server.
                    assert_eq!(arcs, vec![(0, u64::MAX)], "mask {m}, k {k}");
                }
                // The two halves of an arc split at the key-space end
                // (but not the whole-space arc).
                let split: Vec<(u64, u64)> = arcs
                    .iter()
                    .copied()
                    .filter(|&(lo, hi)| (lo == 0) != (hi == u64::MAX))
                    .collect();
                for (key, set) in (0..MASK_KEYS).zip(&sets) {
                    let pos = ring.key_position(key);
                    assert_eq!(
                        in_arcs(&arcs, pos),
                        set.contains(&s),
                        "mask {m}, k {k}, server {s}, key {key}"
                    );
                    wrapped += in_arcs(&split, pos) as u64;
                }
                if in_arcs(&arcs, 0) {
                    at_zero.push(s);
                }
                if in_arcs(&arcs, u64::MAX) {
                    at_top.push(s);
                }
            }
            // Both ends of the key space start their walk on the lowest
            // point, so the same min(k, live) servers cover them.
            assert_eq!(at_zero, at_top, "mask {m}, k {k}");
            assert_eq!(at_zero.len(), k.min(live), "mask {m}, k {k}");
        }
    }
    assert!(
        wrapped > 0,
        "no sampled key fell in an arc at a key-space end"
    );
}
