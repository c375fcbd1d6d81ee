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
//! 3. **A mask is a rebuild** — a [`SuccessorDirectory`] over the full
//!    ring, told which servers went down, answers every key's live
//!    replica set exactly like the ring rebuilt for that membership,
//!    which is how the churn engine keeps one ring for a whole run.
//! 4. **A server's keys are its replica sets** — a server's directory
//!    keys (`keys_on`) are exactly the keys whose masked replica set
//!    contains it, which is how a joiner finds the files it should adopt.

use paba_dht::{HashRing, SuccessorDirectory};
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

/// A directory over keys `0..MASK_KEYS` with `k` replicas, told that
/// every server `members` rejects went down, in ascending order.
fn directory(members: &[bool], k: u32) -> SuccessorDirectory {
    let mut dir = SuccessorDirectory::new(N, VNODES, SALT, MASK_KEYS as u32, k);
    let mut alive = vec![true; N as usize];
    for s in 0..N {
        if !members[s as usize] {
            alive[s as usize] = false;
            dir.set_live(s, &alive);
        }
    }
    dir
}

#[test]
fn masked_lookup_matches_rebuilt_ring() {
    for (m, members) in random_masks(7).iter().enumerate() {
        let rebuilt = reference(members);
        for k in [0, 1, REPLICAS, 5] {
            let dir = directory(members, k as u32);
            for key in 0..MASK_KEYS {
                let masked: Vec<u32> = dir.live_replicas(key as u32, members).collect();
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
fn zero_replicas_means_no_replicas_and_no_keys() {
    let ring = HashRing::new(N, VNODES, SALT);
    let dir = SuccessorDirectory::new(N, VNODES, SALT, 200, 0);
    let alive = vec![true; N as usize];
    for key in 0..200 {
        assert!(ring.lookup_replicas(key, 0).is_empty(), "key {key}");
        assert_eq!(dir.live_replicas(key as u32, &alive).count(), 0);
    }
    for s in 0..N {
        assert_eq!(dir.keys_on(s, &alive).count(), 0, "server {s}");
    }
}

#[test]
fn directory_keys_are_exactly_the_keys_replicated_on_the_server() {
    for (m, members) in random_masks(11).iter().enumerate() {
        let live = members.iter().filter(|&&a| a).count();
        let rebuilt = reference(members);
        for k in [1, 2, REPLICAS, 5] {
            let dir = directory(members, k as u32);
            let sets: Vec<Vec<u32>> = (0..MASK_KEYS)
                .map(|key| rebuilt.lookup_replicas(key, k))
                .collect();
            for s in 0..N {
                let mut keys: Vec<u32> = dir.keys_on(s, members).collect();
                keys.sort_unstable();
                if !members[s as usize] {
                    assert!(keys.is_empty(), "mask {m}, k {k}: dead server {s}");
                    continue;
                }
                if live <= k {
                    // Fewer than k other live servers: every key's
                    // replica set holds every live server.
                    assert_eq!(keys.len() as u64, MASK_KEYS, "mask {m}, k {k}");
                }
                let expect: Vec<u32> = (0..MASK_KEYS as u32)
                    .filter(|&key| sets[key as usize].contains(&s))
                    .collect();
                assert_eq!(keys, expect, "mask {m}, k {k}, server {s}");
            }
        }
    }
}
