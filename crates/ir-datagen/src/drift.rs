//! Weight-drift event streams for subscription fleets.
//!
//! A monitoring deployment of the paper's subscriptions sees a continuous
//! stream of small preference adjustments: a user nudges one weight of
//! their subscribed query, the server answers "did your top-k change?"
//! from the immutable region, and only the occasional large jump forces a
//! recompute. [`DriftStream`] reproduces that shape deterministically:
//!
//! * **Zipf-popular targets** — the subscription hit by each event is
//!   drawn from a [`ZipfSampler`] over the fleet (fleet order is
//!   popularity rank), so a hot head of subscriptions absorbs most of the
//!   traffic, exactly the skew a subscription fleet must cope with.
//! * **Seeded per-dim deltas** — each event perturbs one of the
//!   subscription's *original* query dimensions by a small signed delta,
//!   with every `large_every`-th event on a subscription taking a large
//!   jump instead (the region-exiting minority).
//! * **Slider-sticky targeting** — small nudges keep perturbing the
//!   subscription's current *focus* dimension (the paper's model: one
//!   slider moves while the others stay); each large jump moves the
//!   focus to a freshly drawn dimension. This is what makes the stream
//!   servable from immutable regions at all: the local check answers
//!   "one deviating dimension, strictly inside its region", so drift
//!   scattered uniformly across dimensions would force a recompute on
//!   nearly every event regardless of how small the deltas are.
//!
//! The generator tracks cumulative weights per subscription and clamps
//! every target weight into `[MIN_WEIGHT, 1.0]`, so a drifted query never
//! loses a dimension and never becomes empty — a drift stream is valid to
//! replay in full against any engine.

use crate::zipf::ZipfSampler;
use ir_types::{DimId, IrError, IrResult, QueryVector};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// The smallest weight a drifted dimension may reach. Keeping it strictly
/// positive guarantees `QueryVector::with_weight_shift` never drops the
/// dimension, so replaying a stream can never produce an empty query.
pub const MIN_WEIGHT: f64 = 0.01;

/// Configuration of a drift stream.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DriftConfig {
    /// Total number of events in the stream.
    pub num_events: usize,
    /// Zipf exponent for the popularity of subscriptions (0 = uniform).
    pub zipf_exponent: f64,
    /// Magnitude bound of an ordinary nudge: deltas are drawn uniformly
    /// from `[-small_delta, small_delta]`.
    pub small_delta: f64,
    /// Magnitude bound of a large jump: deltas are drawn uniformly from
    /// `±[small_delta, large_delta]`.
    pub large_delta: f64,
    /// Every `large_every`-th event *on the same subscription* is a large
    /// jump (0 disables large jumps entirely).
    pub large_every: usize,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            num_events: 1_000,
            zipf_exponent: 1.0,
            small_delta: 0.02,
            large_delta: 0.45,
            large_every: 8,
        }
    }
}

/// One weight-drift event: subscription `sub` shifts dimension `dim` by
/// `delta` (the exact argument to pass to `with_weight_shift`).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DriftEvent {
    /// The targeted subscription id.
    pub sub: u64,
    /// The targeted query dimension.
    pub dim: DimId,
    /// Signed weight shift.
    pub delta: f64,
}

/// A deterministic, replayable sequence of [`DriftEvent`]s over a fleet.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DriftStream {
    events: Vec<DriftEvent>,
}

impl DriftStream {
    /// Generates a drift stream over `fleet` — `(subscription id, initial
    /// query)` pairs, in decreasing popularity order — from `config` and
    /// `seed`.
    ///
    /// Returns [`IrError::InvalidConfig`] for an empty fleet, a bad Zipf
    /// exponent, non-finite or non-positive delta bounds, or
    /// `large_delta < small_delta`.
    pub fn generate(
        fleet: &[(u64, QueryVector)],
        config: &DriftConfig,
        seed: u64,
    ) -> IrResult<Self> {
        let popularity = ZipfSampler::try_new(fleet.len(), config.zipf_exponent)?;
        if !config.small_delta.is_finite() || config.small_delta <= 0.0 {
            return Err(IrError::InvalidConfig(format!(
                "small_delta must be finite and positive, got {}",
                config.small_delta
            )));
        }
        if !config.large_delta.is_finite() || config.large_delta < config.small_delta {
            return Err(IrError::InvalidConfig(format!(
                "large_delta must be finite and at least small_delta ({}), got {}",
                config.small_delta, config.large_delta
            )));
        }

        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Cumulative weights per fleet member: targets are always original
        // query dimensions, so positions stay stable across the stream.
        let mut weights: Vec<Vec<(DimId, f64)>> = fleet
            .iter()
            .map(|(_, q)| q.dims().collect::<Vec<_>>())
            .collect();
        let mut hits: Vec<usize> = vec![0; fleet.len()];
        // The focus slot each member's small nudges stick to; drawn lazily
        // on the member's first event, redrawn at every large jump.
        let mut focus: Vec<Option<usize>> = vec![None; fleet.len()];

        let mut events = Vec::with_capacity(config.num_events);
        for _ in 0..config.num_events {
            let member = popularity.sample(&mut rng);
            hits[member] += 1;
            let dims = &mut weights[member];

            let large = config.large_every > 0 && hits[member] % config.large_every == 0;
            let slot = if large || focus[member].is_none() {
                let slot = rng.gen_range(0..dims.len());
                focus[member] = Some(slot);
                slot
            } else {
                focus[member].expect("initialized above")
            };
            let (dim, current) = dims[slot];

            let magnitude = if large {
                rng.gen_range(config.small_delta..=config.large_delta)
            } else {
                rng.gen_range(0.0..=config.small_delta)
            };
            let raw = if rng.gen_bool(0.5) {
                magnitude
            } else {
                -magnitude
            };
            // Clamp the *target* weight so the dimension survives and the
            // query stays within the unit cube.
            let target = (current + raw).clamp(MIN_WEIGHT, 1.0);
            let delta = target - current;
            dims[slot] = (dim, target);
            events.push(DriftEvent {
                sub: fleet[member].0,
                dim,
                delta,
            });
        }
        Ok(DriftStream { events })
    }

    /// The events, in stream order.
    pub fn events(&self) -> &[DriftEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the stream has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates the events.
    pub fn iter(&self) -> impl Iterator<Item = &DriftEvent> {
        self.events.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(n: usize) -> Vec<(u64, QueryVector)> {
        (0..n)
            .map(|i| {
                let q = QueryVector::new(
                    (0..4).map(|d| (d as u32 + 1, 0.3 + 0.1 * (i % 4) as f64)),
                    5,
                )
                .unwrap();
                (i as u64, q)
            })
            .collect()
    }

    #[test]
    fn stream_is_deterministic_and_replayable() {
        let fleet = fleet(16);
        let config = DriftConfig {
            num_events: 400,
            ..DriftConfig::default()
        };
        let a = DriftStream::generate(&fleet, &config, 11).unwrap();
        let b = DriftStream::generate(&fleet, &config, 11).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, DriftStream::generate(&fleet, &config, 12).unwrap());
        assert_eq!(a.len(), 400);

        // Replaying the full stream keeps every query valid: dimensions
        // are never dropped and weights stay in [MIN_WEIGHT, 1].
        let mut current: Vec<QueryVector> = fleet.iter().map(|(_, q)| q.clone()).collect();
        for ev in a.iter() {
            let q = &mut current[ev.sub as usize];
            *q = q.with_weight_shift(ev.dim, ev.delta).unwrap();
            assert_eq!(q.qlen(), 4, "drift must never drop a dimension");
            for (_, w) in q.dims() {
                assert!(
                    (MIN_WEIGHT - 1e-12..=1.0 + 1e-12).contains(&w),
                    "weight {w}"
                );
            }
        }
    }

    #[test]
    fn popular_head_absorbs_most_events() {
        let fleet = fleet(32);
        let config = DriftConfig {
            num_events: 2_000,
            zipf_exponent: 1.0,
            ..DriftConfig::default()
        };
        let stream = DriftStream::generate(&fleet, &config, 3).unwrap();
        let head = stream.iter().filter(|ev| ev.sub < 4).count();
        assert!(
            head * 3 > stream.len(),
            "head of 4/32 subs got only {head}/{} events",
            stream.len()
        );
    }

    #[test]
    fn large_jumps_appear_when_enabled() {
        let fleet = fleet(8);
        let config = DriftConfig {
            num_events: 500,
            small_delta: 0.02,
            large_delta: 0.4,
            large_every: 4,
            ..DriftConfig::default()
        };
        let stream = DriftStream::generate(&fleet, &config, 5).unwrap();
        let large = stream
            .iter()
            .filter(|ev| ev.delta.abs() > config.small_delta + 1e-12)
            .count();
        assert!(large > 0, "expected some large jumps");

        let calm = DriftConfig {
            large_every: 0,
            ..config
        };
        let stream = DriftStream::generate(&fleet, &calm, 5).unwrap();
        assert!(stream
            .iter()
            .all(|ev| ev.delta.abs() <= config.small_delta + 1e-12));
    }

    #[test]
    fn bad_configs_are_typed_errors() {
        let fleet = fleet(4);
        let empty: Vec<(u64, QueryVector)> = Vec::new();
        let ok = DriftConfig::default();
        assert!(matches!(
            DriftStream::generate(&empty, &ok, 0),
            Err(IrError::InvalidConfig(_))
        ));
        for bad in [
            DriftConfig {
                zipf_exponent: -1.0,
                ..ok
            },
            DriftConfig {
                small_delta: 0.0,
                ..ok
            },
            DriftConfig {
                small_delta: f64::NAN,
                ..ok
            },
            DriftConfig {
                large_delta: 0.001,
                ..ok
            },
        ] {
            assert!(matches!(
                DriftStream::generate(&fleet, &bad, 0),
                Err(IrError::InvalidConfig(_))
            ));
        }
    }
}
