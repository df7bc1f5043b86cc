//! Posterior sky maps: the mission product behind the localization.
//!
//! Follow-up observatories consume not just a best-fit direction but a
//! credible region ("90 % containment contour"). [`SkyPosterior`]
//! rasterizes the joint robust ring likelihood over an equal-area
//! pixelization and extracts credible-region areas — the quantity that
//! determines whether a narrow-field telescope can tile the uncertainty.
//!
//! One map type serves both [`SkyPixelization`]s: a private geometry
//! (the Lambert-belt `HemisphereGrid` over the visible hemisphere, or
//! a nested HEALPix `nside` over the full sphere) supplies only what
//! differs between the schemes — pixel count, pixel centers, the
//! direction → pixel lookup and the pixel solid angle — while the
//! rasterizer, the tempered normalization and every credible-region
//! query exist once. The pixel grid is the map's resolution: both
//! schemes score every pixel center once with the same vectorized sweep
//! ([`adapt_nn::simd::sweep_cone_logls`]) over the same [`ConeGeom`]
//! set, so switching pixelizations changes *where* the posterior is
//! sampled, never *what* is sampled.

use crate::likelihood::cone_geometry;
use crate::pixelization::{nside_for_target_pixels, SkyPixelization};
use adapt_healpix::{npix, pix2vec, pixel_solid_angle, vec2pix};
use adapt_math::vec3::UnitVec3;
use adapt_nn::simd::{sweep_cone_logls, ConeGeom};
use adapt_recon::ComptonRing;
use rayon::prelude::*;

/// An equal-area pixelization of the upper hemisphere: belts of constant
/// polar angle, each subdivided so every pixel subtends roughly the same
/// solid angle (a simple Lambert-belt scheme). The belt structure is
/// retained so a direction can be mapped to its containing pixel in O(1)
/// — the lookup behind [`SkyPosterior::searched_mass`].
#[derive(Debug, Clone)]
struct HemisphereGrid {
    /// Pixel centers.
    centers: Vec<UnitVec3>,
    /// Solid angle per pixel (steradians) — equal across pixels by
    /// construction, stored for area computations.
    pixel_solid_angle: f64,
    /// Number of equal-`cos θ` belts.
    n_belts: usize,
    /// Start index of each belt's pixels in `centers`, plus a final
    /// `centers.len()` sentinel.
    belt_offsets: Vec<usize>,
}

impl HemisphereGrid {
    /// Build a grid with approximately `target_pixels` pixels.
    fn new(target_pixels: usize) -> Self {
        assert!(target_pixels >= 4);
        // belts of equal sin-theta spacing in cos(theta): equal area
        let n_belts = ((target_pixels as f64 / 4.0).sqrt().round() as usize).max(2);
        let mut centers = Vec::new();
        let mut belt_offsets = Vec::with_capacity(n_belts + 1);
        for b in 0..n_belts {
            belt_offsets.push(centers.len());
            // cos(theta) descends from 1 to 0 in equal steps: equal area
            let cos_hi = 1.0 - b as f64 / n_belts as f64;
            let cos_lo = 1.0 - (b + 1) as f64 / n_belts as f64;
            let cos_mid = 0.5 * (cos_hi + cos_lo);
            let theta = cos_mid.clamp(0.0, 1.0).acos();
            // pixels in this belt proportional to its circumference
            let n_pix = ((2.0 * std::f64::consts::PI * theta.sin() * n_belts as f64).ceil()
                as usize)
                .max(1);
            for p in 0..n_pix {
                let phi = std::f64::consts::TAU * (p as f64 + 0.5) / n_pix as f64;
                centers.push(UnitVec3::from_spherical(theta, phi));
            }
        }
        belt_offsets.push(centers.len());
        let pixel_solid_angle = 2.0 * std::f64::consts::PI / centers.len() as f64;
        HemisphereGrid {
            centers,
            pixel_solid_angle,
            n_belts,
            belt_offsets,
        }
    }

    /// The pixel index range of belt `b`.
    fn belt_pixels(&self, b: usize) -> std::ops::Range<usize> {
        self.belt_offsets[b]..self.belt_offsets[b + 1]
    }

    /// Index of the pixel containing `dir` — O(1): the belt from
    /// `cos θ = z`, the pixel within the belt from the azimuth.
    fn pixel_of(&self, dir: UnitVec3) -> usize {
        let v = dir.as_vec();
        let b = (((1.0 - v.z) * self.n_belts as f64) as usize).min(self.n_belts - 1);
        let range = self.belt_pixels(b);
        let n_pix = range.len();
        let mut phi = dir.azimuth();
        if phi < 0.0 {
            phi += std::f64::consts::TAU;
        }
        let p = ((phi / std::f64::consts::TAU * n_pix as f64) as usize).min(n_pix - 1);
        range.start + p
    }
}

/// The pixel layout a [`SkyPosterior`] is rasterized on: everything
/// that differs between the two pixelizations, and nothing else.
#[derive(Debug, Clone)]
enum Geometry {
    /// Lambert-belt raster over the upper hemisphere.
    Raster(HemisphereGrid),
    /// Nested HEALPix over the full sphere; centers are computed on
    /// demand by `pix2vec`.
    Healpix { nside: u32 },
}

impl Geometry {
    fn new(pixelization: SkyPixelization, target_pixels: usize) -> Self {
        match pixelization {
            SkyPixelization::Raster => Geometry::Raster(HemisphereGrid::new(target_pixels)),
            SkyPixelization::Healpix => Geometry::Healpix {
                nside: nside_for_target_pixels(target_pixels),
            },
        }
    }

    fn pixelization(&self) -> SkyPixelization {
        match self {
            Geometry::Raster(_) => SkyPixelization::Raster,
            Geometry::Healpix { .. } => SkyPixelization::Healpix,
        }
    }

    fn center(&self, i: usize) -> UnitVec3 {
        match self {
            Geometry::Raster(grid) => grid.centers[i],
            Geometry::Healpix { nside } => pix2vec(*nside, i as u64),
        }
    }

    /// Every pixel center, in pixel order (HEALPix computes them in
    /// parallel).
    fn centers(&self) -> Vec<UnitVec3> {
        match self {
            Geometry::Raster(grid) => grid.centers.clone(),
            Geometry::Healpix { nside } => (0..npix(*nside))
                .into_par_iter()
                .map(|i| pix2vec(*nside, i))
                .collect(),
        }
    }

    /// The pixel containing `dir`; `None` below the horizon, which the
    /// hemisphere raster cannot express.
    fn pixel_of(&self, dir: UnitVec3) -> Option<usize> {
        match self {
            Geometry::Raster(grid) => (dir.as_vec().z >= 0.0).then(|| grid.pixel_of(dir)),
            Geometry::Healpix { nside } => Some(vec2pix(*nside, dir) as usize),
        }
    }

    fn pixel_solid_angle(&self) -> f64 {
        match self {
            Geometry::Raster(grid) => grid.pixel_solid_angle,
            Geometry::Healpix { nside } => pixel_solid_angle(*nside),
        }
    }
}

/// Precompute one [`ConeGeom`] per ring for the vectorized cone sweep
/// ([`adapt_nn::simd::sweep_cone_logls`]) — the translation from the
/// ring's measured `(η, dη)` into the cone geometry the sweep scores.
fn ring_cone_geoms(rings: &[ComptonRing], floor_z: f64) -> Vec<ConeGeom> {
    rings
        .iter()
        .map(|r| {
            let (cone_theta, sigma) = cone_geometry(r, r.d_eta);
            ConeGeom {
                axis: r.axis,
                eta: r.eta.clamp(-1.0, 1.0),
                cone_theta,
                sigma,
                skip_gap: floor_z * sigma,
            }
        })
        .collect()
}

/// A normalized posterior probability map on either pixelization.
#[derive(Debug, Clone)]
pub struct SkyPosterior {
    geometry: Geometry,
    /// Normalized pixel probabilities (sum = 1).
    probabilities: Vec<f64>,
}

impl SkyPosterior {
    /// Rasterize the joint robust likelihood of `rings` on the chosen
    /// pixelization: a flat sweep that scores every pixel center once.
    /// `target_pixels` (at least 4) is the hemisphere pixel budget;
    /// HEALPix resolves it via [`nside_for_target_pixels`] so both
    /// schemes sample the sky at comparable density.
    ///
    /// The joint log-likelihood is divided by `temperature` before
    /// exponentiation (posterior ∝ L^(1/T)). Tempering leaves the mode
    /// where the untempered posterior puts it while widening every
    /// credible region; deployed maps pass the ring-count-adaptive
    /// [`default_temperature`](crate::default_temperature) that the
    /// coverage-calibration campaign (`adapt calibrate`) fits. Every
    /// map reports exactly one
    /// [`adapt_telemetry::Stage::SkymapRasterize`] sample to `recorder`.
    pub fn from_rings_adaptive_tempered_recorded(
        pixelization: SkyPixelization,
        rings: &[ComptonRing],
        target_pixels: usize,
        floor_z: f64,
        temperature: f64,
        recorder: &dyn adapt_telemetry::Recorder,
    ) -> Self {
        let t0 = std::time::Instant::now();
        let map = Self::rasterize(
            Geometry::new(pixelization, target_pixels),
            &ring_cone_geoms(rings, floor_z),
            floor_z,
            temperature,
        );
        recorder.duration(adapt_telemetry::Stage::SkymapRasterize, t0.elapsed());
        map
    }

    /// Sweep every pixel center once over `cones` for the joint robust
    /// log-likelihood, then normalize, subtracting the maximum and
    /// dividing by `temperature` before exponentiation.
    fn rasterize(geometry: Geometry, cones: &[ConeGeom], floor_z: f64, temperature: f64) -> Self {
        assert!(!cones.is_empty(), "cannot map an empty ring set");
        assert!(temperature > 0.0, "temperature must be positive");
        let logls = sweep_cone_logls(cones, &geometry.centers(), -0.5 * floor_z * floor_z);
        let max = logls.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut probabilities: Vec<f64> = logls
            .iter()
            .map(|&l| ((l - max) / temperature).exp())
            .collect();
        let total: f64 = probabilities.iter().sum();
        for p in probabilities.iter_mut() {
            *p /= total;
        }
        SkyPosterior {
            geometry,
            probabilities,
        }
    }

    /// Which pixelization this posterior is rasterized on.
    pub fn pixelization(&self) -> SkyPixelization {
        self.geometry.pixelization()
    }

    /// Pixel count.
    pub fn len(&self) -> usize {
        self.probabilities.len()
    }

    /// True only for a degenerate empty map (never produced by the
    /// rasterizer).
    pub fn is_empty(&self) -> bool {
        self.probabilities.is_empty()
    }

    /// Pixel probabilities (normalized), indexed like the pixelization
    /// (nested order for HEALPix).
    pub fn probabilities(&self) -> &[f64] {
        &self.probabilities
    }

    /// Solid angle of one pixel (sr).
    pub fn pixel_solid_angle(&self) -> f64 {
        self.geometry.pixel_solid_angle()
    }

    /// The maximum-probability direction.
    pub fn mode(&self) -> UnitVec3 {
        let idx = self
            .probabilities
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("NaN probability"))
            .map(|(i, _)| i)
            .expect("non-empty map");
        self.geometry.center(idx)
    }

    /// The solid angle (steradians) of the smallest pixel set containing
    /// `credibility` of the posterior mass — the follow-up tiling area.
    pub fn credible_region_sr(&self, credibility: f64) -> f64 {
        assert!((0.0..=1.0).contains(&credibility));
        let mut sorted: Vec<f64> = self.probabilities.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).expect("NaN probability"));
        let mut mass = 0.0;
        let mut pixels = 0usize;
        for p in sorted {
            mass += p;
            pixels += 1;
            if mass >= credibility {
                break;
            }
        }
        pixels as f64 * self.pixel_solid_angle()
    }

    /// Credible region expressed as the radius (degrees) of the disc with
    /// the same solid angle — comparable to containment radii. Well
    /// defined for the full sphere: 4π sr maps to 180°.
    pub fn credible_radius_deg(&self, credibility: f64) -> f64 {
        let sr = self.credible_region_sr(credibility);
        // solid angle of a cone of half-angle a: 2*pi*(1-cos a)
        let cos_a = (1.0 - sr / (2.0 * std::f64::consts::PI)).clamp(-1.0, 1.0);
        cos_a.acos().to_degrees()
    }

    /// Posterior mass within `radius_deg` of a direction — the probability
    /// that the source sits inside a follow-up telescope's field of view.
    pub fn mass_within(&self, center: UnitVec3, radius_deg: f64) -> f64 {
        let cos_r = radius_deg.to_radians().cos();
        self.probabilities
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.geometry.center(i).cos_angle_to(center) >= cos_r)
            .map(|(_, &p)| p)
            .sum()
    }

    /// Total probability of all pixels *more probable than* the pixel
    /// containing `dir` — the "searched mass" statistic: `dir` is inside
    /// the `c`-credible region exactly when its searched mass is below
    /// `c`, which is how the coverage-calibration campaign scores
    /// containment without enumerating region boundaries. Directions
    /// below the horizon are outside every region the hemisphere raster
    /// can express and score 1.
    pub fn searched_mass(&self, dir: UnitVec3) -> f64 {
        match self.geometry.pixel_of(dir) {
            Some(i) => {
                let p_here = self.probabilities[i];
                self.probabilities.iter().filter(|&&p| p > p_here).sum()
            }
            None => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::default_temperature;
    use adapt_math::angles::angular_separation;
    use adapt_recon::RingFeatures;
    use adapt_telemetry::{FlightRecorder, Stage};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rings_through(source: UnitVec3, n: usize, jitter: f64, seed: u64) -> Vec<ComptonRing> {
        let mut r = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let axis = adapt_math::sampling::isotropic_direction(&mut r);
                let eta = (axis.cos_angle_to(source)
                    + jitter * adapt_math::sampling::standard_normal(&mut r))
                .clamp(-0.999, 0.999);
                ComptonRing {
                    axis,
                    eta,
                    d_eta: jitter.max(0.01),
                    features: RingFeatures::zeroed(),
                    truth: None,
                }
            })
            .collect()
    }

    /// Untempered raster map.
    fn raster(rings: &[ComptonRing], target_pixels: usize) -> SkyPosterior {
        SkyPosterior::from_rings_adaptive_tempered_recorded(
            SkyPixelization::Raster,
            rings,
            target_pixels,
            3.0,
            1.0,
            adapt_telemetry::noop(),
        )
    }

    /// A deployed map: tempered at [`default_temperature`].
    fn deployed(p: SkyPixelization, rings: &[ComptonRing], target_pixels: usize) -> SkyPosterior {
        SkyPosterior::from_rings_adaptive_tempered_recorded(
            p,
            rings,
            target_pixels,
            3.0,
            default_temperature(rings.len()),
            adapt_telemetry::noop(),
        )
    }

    #[test]
    fn grid_covers_hemisphere_equally() {
        let grid = HemisphereGrid::new(1000);
        assert!(grid.centers.len() >= 500, "{} pixels", grid.centers.len());
        // all pixels above the horizon
        assert!(grid.centers.iter().all(|c| c.as_vec().z >= -1e-12));
        // total solid angle = 2 pi
        let total = grid.centers.len() as f64 * grid.pixel_solid_angle;
        assert!((total - 2.0 * std::f64::consts::PI).abs() < 1e-9);
    }

    #[test]
    fn map_peaks_at_the_source() {
        let source = UnitVec3::from_spherical(0.5, 1.0);
        let rings = rings_through(source, 60, 0.02, 1);
        let map = raster(&rings, 3000);
        let mode = map.mode();
        assert!(
            angular_separation(mode, source) < 4.0,
            "mode off by {} deg",
            angular_separation(mode, source)
        );
    }

    #[test]
    fn credible_region_grows_with_credibility_and_uncertainty() {
        let source = UnitVec3::from_spherical(0.3, -0.5);
        let tight = raster(&rings_through(source, 80, 0.01, 2), 3000);
        let loose = raster(&rings_through(source, 20, 0.08, 3), 3000);
        assert!(tight.credible_region_sr(0.9) >= tight.credible_region_sr(0.5));
        assert!(
            loose.credible_region_sr(0.9) > tight.credible_region_sr(0.9),
            "loose {} !> tight {}",
            loose.credible_region_sr(0.9),
            tight.credible_region_sr(0.9)
        );
        // radii are consistent transformations
        assert!(tight.credible_radius_deg(0.9) > 0.0);
    }

    #[test]
    fn probabilities_normalized_and_mass_within_covers() {
        let source = UnitVec3::from_spherical(0.4, 2.0);
        let rings = rings_through(source, 50, 0.02, 4);
        let map = raster(&rings, 2000);
        let total: f64 = map.probabilities().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        // nearly all mass within 20 degrees of the source for tight rings
        let near = map.mass_within(source, 20.0);
        assert!(near > 0.8, "mass near source {near}");
        // whole hemisphere = 1
        assert!((map.mass_within(UnitVec3::PLUS_Z, 180.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn empty_rings_panics() {
        raster(&[], 100);
    }

    #[test]
    fn pixel_of_is_inverse_of_centers() {
        for target in [64, 1000, 5000] {
            let grid = HemisphereGrid::new(target);
            for (i, &c) in grid.centers.iter().enumerate() {
                assert_eq!(grid.pixel_of(c), i, "center {i} of {target}-pixel grid");
            }
        }
    }

    #[test]
    fn simd_sweep_bit_identical_to_portable() {
        let source = UnitVec3::from_spherical(0.35, 0.8);
        let rings = rings_through(source, 40, 0.03, 21);
        let run = || [raster(&rings, 3000), raster(&rings, 8000)];
        adapt_nn::simd::set_force_portable(true);
        let portable = run();
        adapt_nn::simd::set_force_portable(false);
        let vector = run();
        // restore the env-derived default for the rest of the binary
        let env_forced = std::env::var("ADAPT_FORCE_PORTABLE")
            .map(|v| v == "1")
            .unwrap_or(false);
        adapt_nn::simd::set_force_portable(env_forced);
        for (p, v) in portable.iter().zip(&vector) {
            for (x, y) in p.probabilities().iter().zip(v.probabilities()) {
                assert_eq!(x, y, "flat sweep must not depend on ISA");
            }
        }
    }

    #[test]
    fn both_pixelizations_localize_the_same_source() {
        let source = UnitVec3::from_spherical(0.6, 1.0);
        let rings = rings_through(source, 40, 0.02, 19);
        for p in SkyPixelization::ALL {
            let post = deployed(p, &rings, 4096);
            assert_eq!(post.pixelization(), p);
            assert!(!post.is_empty());
            let err = post.mode().angle_to(source).to_degrees();
            assert!(err < 3.0, "{}: mode {err:.2} deg off", p.name());
            assert!(post.searched_mass(source) < 0.99);
            assert!(post.mass_within(source, 20.0) > 0.9);
        }
    }

    /// Away from the distorted polar belts and the horizon, the two
    /// pixelizations must report the same credible regions to within
    /// discretization tolerance.
    #[test]
    fn raster_and_healpix_credible_regions_agree_at_mid_latitudes() {
        for (seed, polar) in [(101u64, 0.7f64), (103, 0.9), (107, 1.1)] {
            let source = UnitVec3::from_spherical(polar, 0.8 * seed as f64);
            // Wide-ish posterior so the credible regions span many
            // pixels and quantization noise stays subdominant.
            let rings = rings_through(source, 18, 0.06, seed);
            let raster = deployed(SkyPixelization::Raster, &rings, 8192);
            let healpix = deployed(SkyPixelization::Healpix, &rings, 8192);
            let quantum = (2.0 * std::f64::consts::PI / 8192.0)
                .max(4.0 * std::f64::consts::PI / healpix.len() as f64);
            for c in [0.68, 0.90] {
                let a = raster.credible_region_sr(c);
                let b = healpix.credible_region_sr(c);
                let rel = (a - b).abs() / a.max(b);
                assert!(
                    rel < 0.25 || (a - b).abs() < 4.0 * quantum,
                    "seed {seed} credibility {c}: raster {a:.5} sr vs healpix {b:.5} sr ({rel:.2})"
                );
            }
            // Modes agree to a pixel scale.
            assert!(raster.mode().angle_to(healpix.mode()).to_degrees() < 3.0);
        }
    }

    #[test]
    fn tempering_widens_credible_regions_without_moving_the_mode() {
        let source = UnitVec3::from_spherical(0.8, 2.5);
        let rings = rings_through(source, 30, 0.03, 211);
        for p in SkyPixelization::ALL {
            let tight = SkyPosterior::from_rings_adaptive_tempered_recorded(
                p,
                &rings,
                4096,
                3.0,
                1.0,
                adapt_telemetry::noop(),
            );
            let wide = SkyPosterior::from_rings_adaptive_tempered_recorded(
                p,
                &rings,
                4096,
                3.0,
                9.0,
                adapt_telemetry::noop(),
            );
            assert!(
                wide.credible_region_sr(0.9) > 2.0 * tight.credible_region_sr(0.9),
                "{}: temperature 9 did not widen the 90% region",
                p.name()
            );
            // tempering preserves the likelihood ranking, so the mode
            // stays put (up to pixels tied in probability)
            assert!(
                wide.mode().angle_to(tight.mode()).to_degrees() < 1.0,
                "{}: tempering moved the mode",
                p.name()
            );
        }
    }

    #[test]
    fn searched_mass_flags_below_horizon_for_raster_only() {
        let source = UnitVec3::from_spherical(0.5, 0.0);
        let rings = rings_through(source, 25, 0.03, 307);
        let below = UnitVec3::from_spherical(2.6, 1.0);
        let raster = deployed(SkyPixelization::Raster, &rings, 2048);
        assert_eq!(raster.searched_mass(below), 1.0);
        let healpix = deployed(SkyPixelization::Healpix, &rings, 2048);
        // HEALPix represents the whole sphere; a wrong hemisphere point
        // is merely deep in the tail, not undefined.
        assert!(healpix.searched_mass(below) > 0.99);
    }

    /// Every map reports its rasterization exactly once, at the onboard
    /// coarse-skymap rung's 256-pixel budget (HEALPix `nside` 8) as at a
    /// ground-sized one.
    #[test]
    fn every_map_records_one_rasterize_sample() {
        let rings = rings_through(UnitVec3::from_spherical(0.5, 1.5), 30, 0.03, 401);
        for p in SkyPixelization::ALL {
            for budget in [256, 3000] {
                let recorder = FlightRecorder::new();
                for maps in 1..=2u64 {
                    SkyPosterior::from_rings_adaptive_tempered_recorded(
                        p,
                        &rings,
                        budget,
                        3.0,
                        default_temperature(rings.len()),
                        &recorder,
                    );
                    assert_eq!(
                        recorder.stage_histogram(Stage::SkymapRasterize).count(),
                        maps,
                        "{} at {budget} pixels",
                        p.name()
                    );
                }
            }
        }
    }
}

/// The HEALPix posterior's contract, on cone sets built directly in
/// cone geometry at explicit `nside`.
#[cfg(test)]
mod healpix_tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::f64::consts::TAU;

    /// Synthetic Compton cones about `source` with Gaussian scatter in
    /// cosine space — the same construction the localization tests use,
    /// expressed directly as cone geometry.
    fn cones_through(
        source: UnitVec3,
        n: usize,
        jitter: f64,
        floor_z: f64,
        seed: u64,
    ) -> Vec<ConeGeom> {
        let mut r = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let axis = adapt_math::sampling::isotropic_direction(&mut r);
                let eta = (axis.cos_angle_to(source)
                    + jitter * adapt_math::sampling::standard_normal(&mut r))
                .clamp(-0.999, 0.999);
                let d_eta = jitter.max(0.01);
                let cone_theta = eta.acos();
                let sigma = d_eta / cone_theta.sin().max(0.05);
                ConeGeom {
                    axis,
                    eta,
                    cone_theta,
                    sigma,
                    skip_gap: floor_z * sigma,
                }
            })
            .collect()
    }

    /// Untempered HEALPix map at `nside`.
    fn healpix(cones: &[ConeGeom], nside: u32, floor_z: f64) -> SkyPosterior {
        SkyPosterior::rasterize(Geometry::Healpix { nside }, cones, floor_z, 1.0)
    }

    /// The untempered posterior at `nside` from the scalar specification:
    /// each pixel center scored ring by ring with
    /// [`ConeGeom::point_logl`], then normalized like the rasterizer.
    fn scalar_reference(cones: &[ConeGeom], nside: u32, floor_z: f64) -> Vec<f64> {
        let floor_const = -0.5 * floor_z * floor_z;
        let logls: Vec<f64> = (0..npix(nside))
            .map(|i| {
                let c = pix2vec(nside, i).as_vec();
                // ring-order accumulation from 0.0, as the sweep does
                cones
                    .iter()
                    .map(|g| g.point_logl(c.x, c.y, c.z, floor_const))
                    .fold(0.0, |acc, l| acc + l)
            })
            .collect();
        let max = logls.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let weights: Vec<f64> = logls.iter().map(|&l| (l - max).exp()).collect();
        let total: f64 = weights.iter().sum();
        weights.iter().map(|w| w / total).collect()
    }

    #[test]
    fn probabilities_normalize_to_one() {
        let source = UnitVec3::from_spherical(0.7, 1.2);
        let cones = cones_through(source, 20, 0.03, 3.0, 7);
        for nside in [8u32, 32] {
            let map = healpix(&cones, nside, 3.0);
            assert_eq!(map.len() as u64, npix(nside));
            let total: f64 = map.probabilities().iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn map_peaks_at_the_source() {
        let source = UnitVec3::from_spherical(0.9, 2.1);
        let cones = cones_through(source, 40, 0.02, 3.0, 11);
        let map = healpix(&cones, 64, 3.0);
        let err = map.mode().angle_to(source).to_degrees();
        assert!(err < 3.0, "mode {err:.2} deg from truth");
        // Nearly all mass within a generous cap around the source.
        assert!(map.mass_within(source, 15.0) > 0.95);
        // The source direction is inside the 95% credible region.
        assert!(map.searched_mass(source) < 0.95);
    }

    #[test]
    fn southern_sources_are_representable() {
        // The raster hemisphere grid cannot express this; HEALPix can.
        let source = UnitVec3::from_spherical(2.6, 0.4);
        let cones = cones_through(source, 40, 0.02, 3.0, 23);
        let map = healpix(&cones, 64, 3.0);
        assert!(map.mode().angle_to(source).to_degrees() < 3.0);
    }

    #[test]
    fn credible_regions_are_nested_and_bounded() {
        let source = UnitVec3::from_spherical(0.5, 0.0);
        let cones = cones_through(source, 30, 0.03, 3.0, 3);
        let map = healpix(&cones, 64, 3.0);
        let r68 = map.credible_region_sr(0.68);
        let r90 = map.credible_region_sr(0.90);
        let r95 = map.credible_region_sr(0.95);
        assert!(r68 <= r90 && r90 <= r95);
        assert!(r95 <= 4.0 * std::f64::consts::PI);
        assert!(map.credible_radius_deg(1.0) <= 180.0 + 1e-9);
        // A 30-ring localization should be tight.
        assert!(map.credible_radius_deg(0.90) < 10.0);
    }

    /// The map matches the flat scalar reference bit for bit whichever
    /// kernel the sweep dispatches to.
    #[test]
    fn adaptive_matches_flat_posterior_under_both_dispatch_modes() {
        let source = UnitVec3::from_spherical(0.8, 5.5);
        let cones = cones_through(source, 30, 0.025, 3.0, 29);
        let reference = scalar_reference(&cones, 32, 3.0);
        adapt_nn::simd::set_force_portable(true);
        let portable = healpix(&cones, 32, 3.0);
        adapt_nn::simd::set_force_portable(false);
        let vector = healpix(&cones, 32, 3.0);
        // restore the env-derived default for the rest of the binary
        let env_forced = std::env::var("ADAPT_FORCE_PORTABLE")
            .map(|v| v == "1")
            .unwrap_or(false);
        adapt_nn::simd::set_force_portable(env_forced);

        for map in [&portable, &vector] {
            for (x, y) in map.probabilities().iter().zip(&reference) {
                assert_eq!(x.to_bits(), y.to_bits(), "sweep must not depend on ISA");
            }
        }
    }

    #[test]
    fn searched_mass_ranks_directions() {
        let source = UnitVec3::from_spherical(0.6, 2.0);
        let cones = cones_through(source, 35, 0.02, 3.0, 41);
        let map = healpix(&cones, 64, 3.0);
        // The mode has searched mass 0 (no pixel beats it).
        assert_eq!(map.searched_mass(map.mode()), 0.0);
        // A direction far from the source is outside tight regions.
        let far = UnitVec3::from_spherical(2.8, 5.0);
        assert!(map.searched_mass(far) > map.searched_mass(source));
        assert!(map.searched_mass(far) > 0.99);
    }

    #[test]
    fn mass_within_is_monotone_in_radius() {
        let source = UnitVec3::from_spherical(1.3, 0.3);
        let cones = cones_through(source, 20, 0.03, 3.0, 53);
        let map = healpix(&cones, 32, 3.0);
        let mut prev = 0.0;
        for r in [1.0, 5.0, 20.0, 90.0, 180.0] {
            let m = map.mass_within(source, r);
            assert!(m + 1e-12 >= prev);
            prev = m;
        }
        assert!((prev - 1.0).abs() < 1e-9, "180 deg cap must hold all mass");
    }

    /// Over randomized geometries (jitter, multiplicity and source
    /// vary), the map matches the flat scalar reference bit for bit.
    #[test]
    fn random_cone_sets_keep_adaptive_and_flat_consistent() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xF00D);
        for case in 0..6 {
            let source = UnitVec3::from_spherical(
                rng.gen_range(0.1..std::f64::consts::PI - 0.1),
                rng.gen_range(0.0..TAU),
            );
            let n = rng.gen_range(8..40);
            let jitter = rng.gen_range(0.015..0.06);
            let floor_z = 3.0;
            let cones = cones_through(source, n, jitter, floor_z, 0x5EED + case);
            let map = healpix(&cones, 32, floor_z);
            let reference = scalar_reference(&cones, 32, floor_z);
            for (i, (x, y)) in map.probabilities().iter().zip(&reference).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "case {case} pixel {i}");
            }
        }
    }
}
