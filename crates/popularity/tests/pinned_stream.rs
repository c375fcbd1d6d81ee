//! The alias table's draw stream, pinned.
//!
//! Each table's 10⁵ draws from a seeded `SmallRng` fold into one literal,
//! and the RNG's next `u64` after them pins how many uniforms the draws
//! consumed. The literals were recorded while the table still kept its
//! thresholds and aliases in two arrays, so a change to the table that
//! moves any draw, or changes what a draw consumes, fails here.

use paba_popularity::{AliasTable, Popularity};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

/// FNV-1a over 10⁵ draws, and the RNG's next `u64` after them.
fn fold(table: &AliasTable, seed: u64) -> (u64, u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..100_000 {
        h = (h ^ u64::from(table.sample(&mut rng))).wrapping_mul(0x0100_0000_01b3);
    }
    (h, rng.next_u64())
}

#[test]
fn zipf_1_2_over_10k_files() {
    let table = AliasTable::new(&Popularity::zipf(1.2).weights(10_000));
    assert_eq!(
        fold(&table, 1),
        (15_602_209_727_967_799_025, 149_451_900_702_683_533)
    );
}

#[test]
fn zipf_0_8_over_256_files() {
    let table = AliasTable::new(&Popularity::zipf(0.8).weights(256));
    assert_eq!(
        fold(&table, 2),
        (2_047_431_832_530_621_498, 10_727_254_152_384_675_903)
    );
}

#[test]
fn zero_weight_cells() {
    // Every third cell has weight zero, so it is always rejected to its
    // alias, and the weights are not normalized.
    let weights: Vec<f64> = (0..97)
        .map(|i| {
            if i % 3 == 0 {
                0.0
            } else {
                f64::from(i % 7 + 1)
            }
        })
        .collect();
    let table = AliasTable::new(&weights);
    assert_eq!(
        fold(&table, 3),
        (11_894_646_359_288_255_484, 14_838_760_145_425_677_642)
    );
}
