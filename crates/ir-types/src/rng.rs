//! One shared seeded RNG for every deterministic draw in the workspace.
//!
//! Several layers need a tiny, dependency-free source of reproducible
//! pseudo-randomness: the fault planner scatters transient read faults over
//! an operation range, the subscription fleet shuffles its recompute order,
//! and the update-stream generator draws tuple mutations. All of them use the
//! same MMIX linear congruential generator (Knuth's `a = 6364136223846793005`,
//! `c = 1442695040888963407`); this module is the single home for it.
//!
//! Two seeding conventions exist historically and both are preserved
//! bit-for-bit, because serialized fault plans and committed bench baselines
//! depend on the exact draw sequences:
//!
//! * [`SeededLcg::scatter`] — the fault-plan convention: the state starts at
//!   `seed * 0x5851_f42d_4c95_7f2d + 1` and draws are the raw 64-bit state
//!   (consumers reduce with `% range`).
//! * [`SeededLcg::mixed`] — the fleet convention: the state starts
//!   at `seed ^ 0x9E37_79B9_7F4A_7C15` (the golden-ratio constant, so that
//!   nearby seeds such as consecutive sequence numbers diverge immediately)
//!   and draws take the state's upper bits (`state >> 11`), which are the
//!   well-mixed ones in an LCG.

/// Knuth's MMIX multiplier.
pub const MMIX_MULTIPLIER: u64 = 6_364_136_223_846_793_005;
/// Knuth's MMIX increment.
pub const MMIX_INCREMENT: u64 = 1_442_695_040_888_963_407;

/// A seeded MMIX linear congruential generator.
///
/// Deliberately minimal — not cryptographic, not `rand`-compatible — just a
/// deterministic stream of 64-bit values that is identical on every platform
/// and cheap enough to construct per draw site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeededLcg {
    state: u64,
}

impl SeededLcg {
    /// Starts from a raw state, with no seed conditioning at all.
    pub const fn from_state(state: u64) -> Self {
        SeededLcg { state }
    }

    /// The fault-plan seeding: multiply by the PCG default multiplier and
    /// add one, so that seed 0 still produces a non-trivial stream. Draws
    /// pair with [`SeededLcg::next_state`].
    pub const fn scatter(seed: u64) -> Self {
        SeededLcg {
            state: seed.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(1),
        }
    }

    /// The fleet seeding: XOR with the 64-bit golden-ratio constant so that
    /// structured seeds (sequence numbers, nearby scheduler seeds)
    /// decorrelate. Draws pair with [`SeededLcg::next_mixed`].
    pub const fn mixed(seed: u64) -> Self {
        SeededLcg {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Advances one MMIX step and returns the full 64-bit state.
    ///
    /// The low bits of an LCG state are weak (the lowest bit alternates);
    /// prefer [`SeededLcg::next_mixed`] unless a historical sequence depends on
    /// the raw state.
    pub fn next_state(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(MMIX_MULTIPLIER)
            .wrapping_add(MMIX_INCREMENT);
        self.state
    }

    /// Advances one MMIX step and returns the well-mixed upper bits
    /// (`state >> 11`, a 53-bit value).
    pub fn next_mixed(&mut self) -> u64 {
        self.next_state() >> 11
    }

    /// A draw in `[0, bound)` from the well-mixed bits. `bound` 0 yields 0
    /// rather than panicking, so callers can pass computed (possibly empty)
    /// ranges.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_mixed() % bound
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_matches_the_historical_fault_plan_sequence() {
        // The exact inline sequence `FaultPlan::transient_reads` shipped
        // with: state = seed * 0x5851_f42d_4c95_7f2d + 1, then raw MMIX
        // states. Serialized fault plans depend on it.
        let seed = 0xFA_u64;
        let mut expected_state = seed.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(1);
        let mut lcg = SeededLcg::scatter(seed);
        for _ in 0..16 {
            expected_state = expected_state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            assert_eq!(lcg.next_state(), expected_state);
        }
    }

    #[test]
    fn mixed_matches_the_historical_fleet_sequence() {
        // The exact inline sequence the fleet's `Lcg` shipped with:
        // state = seed ^ golden ratio, draws are state >> 11.
        let seed = 0x5EED_u64;
        let mut expected_state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut lcg = SeededLcg::mixed(seed);
        for _ in 0..16 {
            expected_state = expected_state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            assert_eq!(lcg.next_mixed(), expected_state >> 11);
        }
    }

    #[test]
    fn streams_are_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut lcg = SeededLcg::mixed(1);
            (0..8).map(|_| lcg.next_mixed()).collect()
        };
        let b: Vec<u64> = {
            let mut lcg = SeededLcg::mixed(1);
            (0..8).map(|_| lcg.next_mixed()).collect()
        };
        let c: Vec<u64> = {
            let mut lcg = SeededLcg::mixed(2);
            (0..8).map(|_| lcg.next_mixed()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn next_below_is_in_range_and_total_on_zero() {
        let mut lcg = SeededLcg::mixed(7);
        for bound in [1u64, 2, 3, 10, 1000] {
            for _ in 0..32 {
                assert!(lcg.next_below(bound) < bound);
            }
        }
        assert_eq!(lcg.next_below(0), 0);
    }
}
