//! Coordinate helpers of the torus topology.

/// A 2D lattice coordinate `(x, y)` with `0 ≤ x, y < side`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Coord {
    /// Column index.
    pub x: u32,
    /// Row index.
    pub y: u32,
}

impl Coord {
    /// Construct a coordinate.
    #[inline]
    pub const fn new(x: u32, y: u32) -> Self {
        Self { x, y }
    }
}

/// Wrapped 1D distance between residues `a, b ∈ [0, side)`:
/// `min(|a−b|, side−|a−b|)`.
///
/// ```
/// use paba_topology::wrapped_delta;
/// assert_eq!(wrapped_delta(0, 9, 10), 1); // wraps around
/// assert_eq!(wrapped_delta(2, 5, 10), 3);
/// ```
#[inline]
pub fn wrapped_delta(a: u32, b: u32, side: u32) -> u32 {
    debug_assert!(a < side && b < side);
    let d = a.abs_diff(b);
    d.min(side - d)
}

/// Add a (possibly negative) offset to a residue modulo `side`.
#[inline]
pub fn wrap_offset(a: u32, off: i64, side: u32) -> u32 {
    let s = side as i64;
    let v = (a as i64 + off).rem_euclid(s);
    v as u32
}

/// Number of residues `p ∈ [0, side)` whose wrapped distance to a fixed
/// residue is **at most** `b`: `min(2b+1, side)`.
#[inline]
pub fn residues_within(b: u32, side: u32) -> u32 {
    (2 * b as u64 + 1).min(side as u64) as u32
}

/// Number of residues `p ∈ [0, side)` whose wrapped distance to a fixed
/// residue is **exactly** `t`.
///
/// `1` for `t = 0`; `2` for `0 < t < side/2`; `1` for `t = side/2` with
/// `side` even; `0` beyond `⌊side/2⌋`.
#[inline]
pub fn residues_at(t: u32, side: u32) -> u32 {
    if t == 0 {
        1
    } else if 2 * t < side {
        2
    } else if 2 * t == side {
        1
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapped_delta_symmetry_and_range() {
        let side = 7;
        for a in 0..side {
            for b in 0..side {
                let d = wrapped_delta(a, b, side);
                assert_eq!(d, wrapped_delta(b, a, side));
                assert!(d <= side / 2);
                if a == b {
                    assert_eq!(d, 0);
                }
            }
        }
    }

    #[test]
    fn wrapped_delta_known_values() {
        assert_eq!(wrapped_delta(0, 3, 6), 3);
        assert_eq!(wrapped_delta(0, 4, 6), 2);
        assert_eq!(wrapped_delta(1, 5, 6), 2);
        assert_eq!(wrapped_delta(0, 0, 1), 0);
    }

    #[test]
    fn wrap_offset_behaviour() {
        assert_eq!(wrap_offset(0, -1, 10), 9);
        assert_eq!(wrap_offset(9, 1, 10), 0);
        assert_eq!(wrap_offset(5, 23, 10), 8);
        assert_eq!(wrap_offset(5, -23, 10), 2);
    }

    #[test]
    fn residues_within_counts_match_bruteforce() {
        for side in 1..=12u32 {
            for b in 0..=side {
                let brute = (0..side)
                    .filter(|&p| wrapped_delta(0, p, side) <= b)
                    .count();
                assert_eq!(
                    residues_within(b, side) as usize,
                    brute,
                    "side={side} b={b}"
                );
            }
        }
    }

    #[test]
    fn residues_at_counts_match_bruteforce() {
        for side in 1..=12u32 {
            for t in 0..=side {
                let brute = (0..side)
                    .filter(|&p| wrapped_delta(0, p, side) == t)
                    .count();
                assert_eq!(residues_at(t, side) as usize, brute, "side={side} t={t}");
            }
        }
    }
}
