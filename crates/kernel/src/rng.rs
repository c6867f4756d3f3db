//! Deterministic random-number streams.
//!
//! Every stochastic component of a simulation draws from its own stream,
//! derived from `(master seed, stream id)` with a SplitMix64 scrambler.
//! Components therefore stay statistically independent and a run is fully
//! reproducible regardless of task interleaving.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Scrambles a 64-bit value (SplitMix64 finalizer). Good avalanche, cheap.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Advances a SplitMix64 counter stream held in `state` and returns its
/// next output: the state steps by the golden-ratio increment, and the
/// output is [`splitmix64`] of the previous state.
#[inline]
pub fn splitmix64_next(state: &mut u64) -> u64 {
    let out = splitmix64(*state);
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    out
}

/// Derives an independent RNG for `(seed, stream)`.
pub fn stream_rng(seed: u64, stream: u64) -> SmallRng {
    let s = splitmix64(seed ^ splitmix64(stream));
    SmallRng::seed_from_u64(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_inputs_same_stream() {
        let mut a = stream_rng(7, 3);
        let mut b = stream_rng(7, 3);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_streams_diverge() {
        let mut a = stream_rng(7, 3);
        let mut b = stream_rng(7, 4);
        let same = (0..32).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn splitmix_next_matches_the_stateful_stream() {
        // The stateful form the benchmarks used to carry inline.
        fn reference(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        for seed in [0, 0x1234_5678, 0xFEED, 0x5EED_0001, u64::MAX] {
            let (mut a, mut b) = (seed, seed);
            for i in 0..64 {
                assert_eq!(
                    splitmix64_next(&mut a),
                    reference(&mut b),
                    "seed {seed:#x} draw {i}"
                );
                assert_eq!(a, b, "state after draw {i}");
            }
        }
    }

    #[test]
    fn splitmix_known_vector() {
        // Reference value for SplitMix64 with seed state 0 (first output).
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
    }
}
