//! The equal-area schemes posterior sky maps are rasterized on.
//!
//! [`SkyPixelization`] is the switch threaded through the onboard
//! runtime, the ground service, the calibration campaign and the CLI:
//! the Lambert-belt hemisphere raster or nested HEALPix. Either way the
//! result is one [`crate::SkyPosterior`] with one credible-region
//! interface, so downstream consumers (degradation ladder, alert
//! fan-out, calibration) never branch on the scheme. This module also
//! holds the two scheme-level rules every posterior applies: the
//! ring-count-adaptive likelihood temperature ([`default_temperature`])
//! and the HEALPix resolution matching a hemisphere pixel budget
//! ([`nside_for_target_pixels`]).

use serde::{Deserialize, Serialize};

/// Which equal-area scheme posterior sky maps are rasterized on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
#[serde(rename_all = "snake_case")]
pub enum SkyPixelization {
    /// Lambert-belt raster over the visible (upper) hemisphere — the
    /// historical scheme; O(1) point lookup, but polar-belt pixels
    /// deviate from the nominal solid angle (see DESIGN.md) and the
    /// lower hemisphere is not representable.
    #[default]
    Raster,
    /// Nested HEALPix over the full sphere: exactly equal pixel areas
    /// at every latitude and a quadtree refinement hierarchy.
    Healpix,
}

impl SkyPixelization {
    /// Every variant, for CLI listings and matrix sweeps.
    pub const ALL: [SkyPixelization; 2] = [SkyPixelization::Raster, SkyPixelization::Healpix];

    /// Stable lowercase name (matches the serde encoding).
    pub fn name(&self) -> &'static str {
        match self {
            SkyPixelization::Raster => "raster",
            SkyPixelization::Healpix => "healpix",
        }
    }

    /// Parse a CLI flag value.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "raster" | "hemisphere" => Some(SkyPixelization::Raster),
            "healpix" | "hpx" => Some(SkyPixelization::Healpix),
            _ => None,
        }
    }
}

/// Coefficient of the ring-count-adaptive likelihood temperature the
/// plain [`crate::SkyPosterior`] constructors apply (see
/// [`default_temperature`]). Fit by the coverage-calibration campaign
/// (`adapt calibrate`, persisted in `BENCH_calibration.json`); re-fit
/// whenever the reconstruction or perturbation model changes.
pub const TEMPERATURE_RING_COEFF: f64 = 0.24;

/// The likelihood temperature applied when none is given explicitly:
/// posterior ∝ L^(1/T) with `T = max(1, coeff·√N)` for `N` rings.
///
/// The per-ring error model misses the systematic
/// (perturbation-driven) component of the localization error, so the
/// untempered product of N ring likelihoods is far sharper than the
/// true error distribution — its statistical width shrinks like 1/√N
/// against a systematic floor that does not, so credible regions
/// under-cover and the shortfall grows with burst brightness. The
/// calibration campaign measures the required temperature scaling as
/// √N across its constant signal-to-background grid (T*≈7 at ~870
/// rings, T*≈12 at ~2590), which is what a fixed
/// systematic-to-statistical variance ratio predicts. Off that
/// population the law errs conservative: a bright burst on a quiet
/// sky over-covers slightly (regions a touch too wide, never too
/// narrow).
pub fn default_temperature(n_rings: usize) -> f64 {
    (TEMPERATURE_RING_COEFF * (n_rings as f64).sqrt()).max(1.0)
}

/// Smallest power-of-two `nside` whose full-sphere pixel count matches
/// a hemisphere raster of `target_pixels`: the sphere needs twice the
/// pixels for the same resolution, so solve `12·nside² ≥ 2·target`.
pub fn nside_for_target_pixels(target_pixels: usize) -> u32 {
    let want = (2 * target_pixels.max(1)) as f64 / 12.0;
    let mut nside = 1u32;
    while ((nside as f64) * (nside as f64)) < want && nside < adapt_healpix::nested::MAX_NSIDE {
        nside *= 2;
    }
    nside
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pixelization_parses_and_round_trips() {
        for p in SkyPixelization::ALL {
            assert_eq!(SkyPixelization::parse(p.name()), Some(p));
            let json = serde_json::to_string(&p).unwrap();
            assert_eq!(serde_json::from_str::<SkyPixelization>(&json).unwrap(), p);
        }
        assert_eq!(
            SkyPixelization::parse("hpx"),
            Some(SkyPixelization::Healpix)
        );
        assert_eq!(SkyPixelization::parse("mollweide"), None);
        assert_eq!(SkyPixelization::default(), SkyPixelization::Raster);
    }

    #[test]
    fn nside_matches_hemisphere_density() {
        // 12·nside² must reach 2× the hemisphere budget, and the
        // previous power of two must not.
        for target in [64usize, 256, 1024, 16384] {
            let nside = nside_for_target_pixels(target);
            assert!(12 * (nside as usize).pow(2) >= 2 * target);
            if nside > 1 {
                assert!(12 * (nside as usize / 2).pow(2) < 2 * target);
            }
        }
        assert_eq!(nside_for_target_pixels(256), 8);
    }
}
