//! Independent hash functions for shuffles.
//!
//! The HyperCube shuffle requires one *independently chosen* hash function
//! per join variable (paper §2.1): a tuple `S₁(a, b)` is routed to the cell
//! `(h₁(a), h₂(b), ⋆)`. We derive the family from a strong 64-bit mixer
//! (SplitMix64 finalizer) keyed by a per-dimension seed. The mixer's
//! avalanche behaviour is what keeps the per-bucket loads near-uniform for
//! non-adversarial keys, which the skew experiments depend on.

use crate::Value;

/// Mixes a value with a seed into a well-distributed 64-bit hash.
///
/// This is the SplitMix64 finalizer applied to `x ^ rotated-seed`; distinct
/// seeds give effectively independent functions.
#[inline]
pub fn hash64(x: Value, seed: u64) -> u64 {
    let mut z = x ^ seed.rotate_left(25) ^ 0x9e37_79b9_7f4a_7c15;
    z = z.wrapping_add(seed);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hashes `x` into one of `buckets` buckets using the seeded family.
///
/// # Panics
/// Panics if `buckets == 0`.
#[inline]
pub fn bucket(x: Value, seed: u64, buckets: usize) -> usize {
    assert!(buckets > 0, "bucket count must be positive");
    reduce(hash64(x, seed), buckets)
}

/// Hashes a composite key (several attribute values) into one of `buckets`
/// buckets. Used by the regular shuffle when partitioning on multiple join
/// attributes at once.
#[inline]
pub fn bucket_row(vals: &[Value], seed: u64, buckets: usize) -> usize {
    assert!(buckets > 0, "bucket count must be positive");
    reduce(
        vals.iter().fold(row_seed(seed), |acc, &v| hash64(v, acc)),
        buckets,
    )
}

/// The accumulator [`bucket_row`] folds a key's values into with
/// [`hash64`], one value at a time.
#[inline]
pub fn row_seed(seed: u64) -> u64 {
    seed ^ 0x51_7c_c1_b7_27_22_0a_95
}

/// Maps a 64-bit hash onto `0..buckets` by multiply-shift, which avoids
/// the modulo bias and the division. Unchecked: a caller that validated
/// `buckets > 0` once (a shuffle route) skips [`bucket`]'s per-call
/// assert; `buckets == 0` yields 0.
#[inline]
pub fn reduce(h: u64, buckets: usize) -> usize {
    ((h as u128 * buckets as u128) >> 64) as usize
}

/// Independent hash chains per half of [`fingerprint128`]: enough to
/// keep the multiplier busy instead of waiting on one chain's latency.
const FINGERPRINT_LANES: usize = 4;

/// 128-bit fingerprint of a (arity, rows, values) triple: two
/// independently seeded halves, packed into a `u128`. One 64-bit hash
/// would make cache-key collisions merely unlikely; two independent
/// ones make them negligible, which is the bar for a cache that
/// silently substitutes its entry for a fresh sort.
///
/// Each half runs `FINGERPRINT_LANES` (4) interleaved [`hash64`] chains —
/// value `i` feeds lane `i % LANES` — each seeded from the same
/// arity/rows header and its lane number, so a value's position (not
/// just its lane) shapes the result. The lanes fold into the half in
/// lane order, and the values of an incomplete last group hash after
/// them, one at a time.
pub fn fingerprint128(arity: u64, rows: u64, data: &[Value]) -> u128 {
    let header = |seed: u64| hash64(rows, hash64(arity, seed));
    let seeds = [header(0x9e37_79b9_7f4a_7c15), header(0xc2b2_ae3d_27d4_eb4f)];
    // Both halves advance in one pass: eight independent chains.
    let mut lanes: [[u64; FINGERPRINT_LANES]; 2] =
        seeds.map(|h| std::array::from_fn(|l| hash64(l as u64, h)));
    let groups = data.chunks_exact(FINGERPRINT_LANES);
    let tail = groups.remainder();
    for group in groups {
        for half in &mut lanes {
            for (lane, &v) in half.iter_mut().zip(group) {
                *lane = hash64(v, *lane);
            }
        }
    }
    let [lo, hi] = [0, 1].map(|h| {
        let folded = lanes[h]
            .iter()
            .fold(seeds[h], |acc, &lane| hash64(lane, acc));
        tail.iter().fold(folded, |acc, &v| hash64(v, acc))
    });
    ((hi as u128) << 64) | lo as u128
}

/// Derives the per-dimension seed for hypercube dimension `dim` from a
/// query-level base seed. Each shuffle of the same query must reuse the
/// same seeds so that co-joining tuples meet (paper §2.1).
#[inline]
pub fn dimension_seed(base: u64, dim: usize) -> u64 {
    hash64(dim as u64 + 1, base ^ 0xa076_1d64_78bd_642f)
}

/// Derives the seed for hashing on a specific key-attribute set,
/// identified by its sorted attribute ids. Both sides of a join
/// partition with the seed of the same id set, so co-joining tuples
/// meet; the engine's `join_key_seed` and the analyzer's policy model
/// must derive *identical* seeds, which is why the fold lives here.
pub fn key_seed(base: u64, sorted_ids: &[u64]) -> u64 {
    let mut acc = base ^ 0xc3a5_c85c_97cb_3127;
    for &v in sorted_ids {
        acc = hash64(v, acc);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(hash64(42, 7), hash64(42, 7));
        assert_eq!(bucket(42, 7, 10), bucket(42, 7, 10));
    }

    #[test]
    fn seeds_give_different_functions() {
        // Two seeds should disagree on many inputs.
        let disagreements = (0..1000u64)
            .filter(|&x| bucket(x, 1, 16) != bucket(x, 2, 16))
            .count();
        assert!(disagreements > 800, "only {disagreements} disagreements");
    }

    #[test]
    fn buckets_in_range() {
        for x in 0..500u64 {
            for b in [1usize, 2, 3, 5, 64] {
                assert!(bucket(x, 99, b) < b);
            }
        }
    }

    #[test]
    fn single_bucket_is_zero() {
        for x in 0..100u64 {
            assert_eq!(bucket(x, 3, 1), 0);
        }
    }

    #[test]
    fn distribution_roughly_uniform() {
        let b = 8;
        let n = 80_000u64;
        let mut counts = vec![0usize; b];
        for x in 0..n {
            counts[bucket(x, 12345, b)] += 1;
        }
        let expected = n as usize / b;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected as f64).abs() < expected as f64 * 0.05,
                "bucket {i} count {c} far from {expected}"
            );
        }
    }

    #[test]
    fn bucket_row_depends_on_all_values() {
        let a = bucket_row(&[1, 2], 9, 1024);
        let b = bucket_row(&[1, 3], 9, 1024);
        let c = bucket_row(&[2, 2], 9, 1024);
        // With 1024 buckets, collisions across all three are vanishingly
        // unlikely for a good hash.
        assert!(a != b || a != c);
    }

    #[test]
    fn fingerprint_sees_every_value_and_position() {
        let base: Vec<Value> = (0..9).map(|i| hash64(i, 5)).collect();
        let fp = |data: &[Value]| fingerprint128(1, data.len() as u64, data);
        let reference = fp(&base);
        for i in 0..base.len() {
            let mut changed = base.clone();
            changed[i] ^= 1;
            assert_ne!(fp(&changed), reference, "change at {i}");
        }
        for i in 0..base.len() - 1 {
            let mut swapped = base.clone();
            swapped.swap(i, i + 1);
            assert_ne!(fp(&swapped), reference, "swap at {i}");
        }
    }

    #[test]
    fn fingerprint_separates_every_length_and_arity() {
        let data: Vec<Value> = (0..9).map(|i| hash64(i, 6)).collect();
        // Every lane remainder, once with the header following the
        // length and once with it held fixed.
        for header_rows in [None, Some(9)] {
            let fps: Vec<u128> = (0..=9)
                .map(|n| fingerprint128(1, header_rows.unwrap_or(n as u64), &data[..n]))
                .collect();
            for i in 0..fps.len() {
                for j in i + 1..fps.len() {
                    assert_ne!(fps[i], fps[j], "lengths {i} and {j}");
                }
            }
        }
        let flat = &data[..8];
        assert_ne!(fingerprint128(1, 8, flat), fingerprint128(2, 4, flat));
    }

    #[test]
    fn dimension_seeds_distinct() {
        let s: Vec<u64> = (0..8).map(|d| dimension_seed(77, d)).collect();
        for i in 0..8 {
            for j in i + 1..8 {
                assert_ne!(s[i], s[j]);
            }
        }
    }
}
