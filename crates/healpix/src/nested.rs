//! Nested-scheme HEALPix index math.
//!
//! All functions take `nside` (a power of two) and nested pixel indices
//! in `0..12·nside²`. The projection splits the sphere into twelve base
//! faces — four around the north pole (0–3), four equatorial (4–7),
//! four around the south pole (8–11) — each an `nside × nside` grid
//! addressed by `(ix, iy)` with the nested index interleaving the bits
//! of `ix` (even positions) and `iy` (odd positions) below the face
//! number. That z-order layout is what makes the quadtree walk trivial:
//! the four children of pixel `p` at the next resolution are
//! `4p..4p+4`.

use adapt_math::vec3::UnitVec3;
use std::f64::consts::{FRAC_PI_2, PI, TAU};

/// Largest supported `nside`. 2²⁰ keeps `12·nside²` comfortably inside
/// `u64` bit-interleave territory and is far beyond any map this
/// pipeline rasterizes (nside 1024 ≈ 0.06° pixels already).
pub const MAX_NSIDE: u32 = 1 << 20;

/// Ring index of the bottom corner of each face, in units of `nside`.
const JRLL: [u64; 12] = [2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4];
/// Azimuth offset of each face center, in units of π/4.
const JPLL: [i64; 12] = [1, 3, 5, 7, 0, 2, 4, 6, 1, 3, 5, 7];

#[inline]
fn assert_valid_nside(nside: u32) {
    assert!(
        (1..=MAX_NSIDE).contains(&nside) && nside.is_power_of_two(),
        "nside must be a power of two in [1, {MAX_NSIDE}], got {nside}"
    );
}

/// Total pixel count at resolution `nside`: `12·nside²`.
#[inline]
pub fn npix(nside: u32) -> u64 {
    assert_valid_nside(nside);
    12 * (nside as u64) * (nside as u64)
}

/// Solid angle of every pixel (they are all equal): `4π / npix` sr.
#[inline]
pub fn pixel_solid_angle(nside: u32) -> f64 {
    4.0 * PI / npix(nside) as f64
}

/// Spread the low 32 bits of `v` into the even bit positions.
#[inline]
fn spread_bits(v: u64) -> u64 {
    let mut x = v & 0xffff_ffff;
    x = (x | (x << 16)) & 0x0000_ffff_0000_ffff;
    x = (x | (x << 8)) & 0x00ff_00ff_00ff_00ff;
    x = (x | (x << 4)) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    x = (x | (x << 1)) & 0x5555_5555_5555_5555;
    x
}

/// Inverse of [`spread_bits`]: gather the even bit positions of `v`.
#[inline]
fn compress_bits(v: u64) -> u64 {
    let mut x = v & 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | (x >> 4)) & 0x00ff_00ff_00ff_00ff;
    x = (x | (x >> 8)) & 0x0000_ffff_0000_ffff;
    x = (x | (x >> 16)) & 0xffff_ffff;
    x
}

/// Face-local coordinates `(ix, iy, face)` → nested pixel index.
#[inline]
pub fn xyf2nest(nside: u32, ix: u32, iy: u32, face: u32) -> u64 {
    debug_assert!(ix < nside && iy < nside && face < 12);
    (face as u64) * (nside as u64) * (nside as u64)
        + spread_bits(ix as u64)
        + (spread_bits(iy as u64) << 1)
}

/// Nested pixel index → face-local coordinates `(ix, iy, face)`.
#[inline]
pub fn nest2xyf(nside: u32, pix: u64) -> (u32, u32, u32) {
    let cap = (nside as u64) * (nside as u64);
    debug_assert!(pix < 12 * cap);
    let face = (pix / cap) as u32;
    let local = pix & (cap - 1);
    (
        compress_bits(local) as u32,
        compress_bits(local >> 1) as u32,
        face,
    )
}

/// Unit direction → nested pixel index containing it.
pub fn vec2pix(nside: u32, dir: UnitVec3) -> u64 {
    assert_valid_nside(nside);
    let ns = nside as u64;
    let nsf = nside as f64;
    let z = dir.as_vec().z;
    let za = z.abs();
    let phi = dir.azimuth().rem_euclid(TAU);
    // Longitude in units of π/2, i.e. which quadrant plus the fraction
    // across it. Guard the `phi == 2π - ε` rounding edge back to 0.
    let mut tt = phi / FRAC_PI_2;
    if tt >= 4.0 {
        tt = 0.0;
    }

    if za <= 2.0 / 3.0 {
        // Equatorial belt: project onto the two diagonal lattices.
        let temp1 = nsf * (0.5 + tt);
        let temp2 = nsf * (z * 0.75);
        let jp = (temp1 - temp2) as u64; // ascending-edge line index
        let jm = (temp1 + temp2) as u64; // descending-edge line index
        let ifp = jp / ns;
        let ifm = jm / ns;
        let face = if ifp == ifm {
            (ifp & 3) + 4
        } else if ifp < ifm {
            ifp & 3
        } else {
            (ifm & 3) + 8
        };
        let ix = (jm & (ns - 1)) as u32;
        let iy = (ns - 1 - (jp & (ns - 1))) as u32;
        xyf2nest(nside, ix, iy, face as u32)
    } else {
        // Polar caps: the face collapses to a triangle; scale the
        // in-quadrant fraction by the cap radius.
        let ntt = (tt as u64).min(3);
        let tp = tt - ntt as f64;
        let tmp = nsf * (3.0 * (1.0 - za)).sqrt();
        let jp = ((tp * tmp) as u64).min(ns - 1);
        let jm = (((1.0 - tp) * tmp) as u64).min(ns - 1);
        if z >= 0.0 {
            xyf2nest(
                nside,
                (ns - 1 - jm) as u32,
                (ns - 1 - jp) as u32,
                ntt as u32,
            )
        } else {
            xyf2nest(nside, jp as u32, jm as u32, (ntt + 8) as u32)
        }
    }
}

/// Nested pixel index → unit vector at the pixel center.
pub fn pix2vec(nside: u32, pix: u64) -> UnitVec3 {
    assert_valid_nside(nside);
    let ns = nside as u64;
    let (ix, iy, face) = nest2xyf(nside, pix);
    // Global ring index counted from the north pole.
    let jr = JRLL[face as usize] * ns - ix as u64 - iy as u64 - 1;
    let nl4 = 4 * ns;
    let fact2 = 4.0 / (12 * ns * ns) as f64;

    let (z, nr, kshift) = if jr < ns {
        // North polar cap.
        let nr = jr;
        (1.0 - (nr * nr) as f64 * fact2, nr, 0u64)
    } else if jr > 3 * ns {
        // South polar cap.
        let nr = nl4 - jr;
        ((nr * nr) as f64 * fact2 - 1.0, nr, 0u64)
    } else {
        // Equatorial belt: rings alternate in azimuthal phase.
        let fact1 = (ns << 1) as f64 * fact2;
        (
            (2 * ns as i64 - jr as i64) as f64 * fact1,
            ns,
            (jr - ns) & 1,
        )
    };

    // Pixel-in-ring index, wrapped to [1, 4·nr].
    let mut jp = (JPLL[face as usize] * nr as i64 + ix as i64 - iy as i64 + 1 + kshift as i64) / 2;
    if jp > nl4 as i64 {
        jp -= nl4 as i64;
    }
    if jp < 1 {
        jp += nl4 as i64;
    }
    let phi = (jp as f64 - (kshift as f64 + 1.0) * 0.5) * (FRAC_PI_2 / nr as f64);
    UnitVec3::from_spherical(z.clamp(-1.0, 1.0).acos(), phi)
}

/// Neighbor direction offsets in face coordinates, ordered
/// SW, W, NW, N, NE, E, SE, S in the face frame.
const XOFFSET: [i32; 8] = [-1, -1, 0, 1, 1, 1, 0, -1];
const YOFFSET: [i32; 8] = [0, 1, 1, 1, 0, -1, -1, -1];

/// For each of the 9 overflow quadrants (3×3 around the home face),
/// the face a step lands on, per home face. −1 marks the missing
/// diagonal across a polar-face corner.
const FACEARRAY: [[i8; 12]; 9] = [
    [8, 9, 10, 11, -1, -1, -1, -1, 10, 11, 8, 9],
    [5, 6, 7, 4, 8, 9, 10, 11, 9, 10, 11, 8],
    [-1, -1, -1, -1, 5, 6, 7, 4, -1, -1, -1, -1],
    [4, 5, 6, 7, 11, 8, 9, 10, 11, 8, 9, 10],
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
    [1, 2, 3, 0, 0, 1, 2, 3, 5, 6, 7, 4],
    [-1, -1, -1, -1, 7, 4, 5, 6, -1, -1, -1, -1],
    [3, 0, 1, 2, 3, 0, 1, 2, 4, 5, 6, 7],
    [2, 3, 0, 1, -1, -1, -1, -1, 0, 1, 2, 3],
];

/// Coordinate transform applied when crossing into the neighbor face,
/// indexed `[overflow quadrant][face row (face / 4)]`. Bit 1 mirrors
/// `x`, bit 2 mirrors `y`, bit 4 swaps the axes.
const SWAPARRAY: [[u8; 3]; 9] = [
    [0, 0, 3],
    [0, 0, 6],
    [0, 0, 0],
    [0, 0, 5],
    [0, 0, 0],
    [5, 0, 0],
    [0, 0, 0],
    [6, 0, 0],
    [3, 0, 0],
];

/// The up-to-8 pixels adjacent to `pix`, ordered SW, W, NW, N, NE, E,
/// SE, S. `None` marks the missing diagonal neighbor at the six
/// polar-face corner pixels where only seven pixels meet.
pub fn neighbors(nside: u32, pix: u64) -> [Option<u64>; 8] {
    assert_valid_nside(nside);
    let ns = nside as i64;
    let (ix, iy, face) = nest2xyf(nside, pix);
    let (ix, iy) = (ix as i64, iy as i64);
    let mut out = [None; 8];

    if ix > 0 && ix < ns - 1 && iy > 0 && iy < ns - 1 {
        // Interior pixel: all neighbors stay on the home face.
        for i in 0..8 {
            out[i] = Some(xyf2nest(
                nside,
                (ix + XOFFSET[i] as i64) as u32,
                (iy + YOFFSET[i] as i64) as u32,
                face,
            ));
        }
        return out;
    }

    for i in 0..8 {
        let mut x = ix + XOFFSET[i] as i64;
        let mut y = iy + YOFFSET[i] as i64;
        let mut nbnum = 4i32;
        if x < 0 {
            x += ns;
            nbnum -= 1;
        } else if x >= ns {
            x -= ns;
            nbnum += 1;
        }
        if y < 0 {
            y += ns;
            nbnum -= 3;
        } else if y >= ns {
            y -= ns;
            nbnum += 3;
        }
        let f = FACEARRAY[nbnum as usize][face as usize];
        if f >= 0 {
            let bits = SWAPARRAY[nbnum as usize][(face / 4) as usize];
            if bits & 1 != 0 {
                x = ns - x - 1;
            }
            if bits & 2 != 0 {
                y = ns - y - 1;
            }
            if bits & 4 != 0 {
                std::mem::swap(&mut x, &mut y);
            }
            out[i] = Some(xyf2nest(nside, x as u32, y as u32, f as u32));
        }
    }
    out
}

/// Maximum angular distance (radians) from any pixel center to the
/// farthest corner of that pixel, over all pixels at `nside`. The
/// extremes sit at the polar-cap/equatorial-belt transition.
pub fn max_pixrad(nside: u32) -> f64 {
    assert_valid_nside(nside);
    let nsf = nside as f64;
    // Corner shared between the last cap ring and the belt.
    let va = UnitVec3::from_spherical((2.0f64 / 3.0).acos(), PI / (4.0 * nsf));
    let t = (1.0 - 1.0 / nsf).powi(2);
    // Center of a pixel in the first cap ring below the corner.
    let vb = UnitVec3::from_spherical((1.0 - t / 3.0f64).clamp(-1.0, 1.0).acos(), 0.0);
    va.angle_to(vb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_unit(rng: &mut ChaCha8Rng) -> UnitVec3 {
        let z: f64 = rng.gen_range(-1.0..1.0);
        let phi: f64 = rng.gen_range(0.0..TAU);
        UnitVec3::from_spherical(z.acos(), phi)
    }

    #[test]
    fn npix_and_solid_angle_are_consistent() {
        for nside in [1u32, 2, 4, 8, 256] {
            assert_eq!(npix(nside), 12 * (nside as u64).pow(2));
            let total = pixel_solid_angle(nside) * npix(nside) as f64;
            assert!((total - 4.0 * PI).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_nside_is_rejected() {
        npix(3);
    }

    #[test]
    fn bit_interleave_round_trips() {
        for v in [0u64, 1, 2, 0xffff, 0x1234_5678, 0xffff_ffff] {
            assert_eq!(compress_bits(spread_bits(v)), v);
        }
        // Spread bits land only on even positions.
        assert_eq!(spread_bits(0xffff_ffff) & 0xaaaa_aaaa_aaaa_aaaa, 0);
    }

    #[test]
    fn xyf_round_trips_every_pixel_at_small_nside() {
        for nside in [1u32, 2, 4, 8] {
            for pix in 0..npix(nside) {
                let (ix, iy, face) = nest2xyf(nside, pix);
                assert!(ix < nside && iy < nside && face < 12);
                assert_eq!(xyf2nest(nside, ix, iy, face), pix);
            }
        }
    }

    #[test]
    fn pixel_centers_round_trip_exhaustively_at_small_nside() {
        for nside in [1u32, 2, 4, 8, 16] {
            for pix in 0..npix(nside) {
                let v = pix2vec(nside, pix);
                assert_eq!(
                    vec2pix(nside, v),
                    pix,
                    "nside={nside} pix={pix} center did not map back"
                );
            }
        }
    }

    #[test]
    fn random_directions_round_trip_within_pixel_radius() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x4EA1);
        for nside in [1u32, 4, 32, 256, 1024] {
            // 2 % margin for edge curvature and rounding
            let bound = max_pixrad(nside) * 1.02;
            for _ in 0..2000 {
                let dir = random_unit(&mut rng);
                let pix = vec2pix(nside, dir);
                assert!(pix < npix(nside));
                let center = pix2vec(nside, pix);
                assert!(
                    center.angle_to(dir) <= bound,
                    "nside={nside}: point {:.6} rad from its pixel center, bound {:.6}",
                    center.angle_to(dir),
                    bound
                );
            }
        }
    }

    #[test]
    fn deep_child_expansion_is_a_contiguous_range() {
        // Expanding a coarse pixel k levels is the range
        // [p << 2k, (p+1) << 2k): every fine center must map back to p.
        let coarse = 2u32;
        let fine = 16u32;
        let depth = 2 * (fine / coarse).trailing_zeros();
        for pix in 0..npix(coarse) {
            for f in (pix << depth)..((pix + 1) << depth) {
                let v = pix2vec(fine, f);
                assert_eq!(vec2pix(coarse, v), pix);
            }
        }
    }

    #[test]
    fn neighbors_are_symmetric_and_geometrically_close() {
        for nside in [1u32, 2, 4, 8, 16] {
            let reach = 3.0 * max_pixrad(nside);
            for pix in 0..npix(nside) {
                let center = pix2vec(nside, pix);
                let nbrs = neighbors(nside, pix);
                let present: Vec<u64> = nbrs.iter().flatten().copied().collect();
                // No duplicates, no self-reference.
                for (i, a) in present.iter().enumerate() {
                    assert_ne!(*a, pix);
                    assert!(*a < npix(nside));
                    assert!(!present[i + 1..].contains(a), "duplicate neighbor");
                }
                for n in &present {
                    // Symmetry: p in neighbors(n).
                    assert!(
                        neighbors(nside, *n).iter().flatten().any(|b| *b == pix),
                        "nside={nside}: {pix} -> {n} not symmetric"
                    );
                    // Adjacent pixels are within a few pixel radii.
                    assert!(pix2vec(nside, *n).angle_to(center) <= reach);
                }
            }
        }
    }

    #[test]
    fn corner_pixels_have_seven_neighbors_elsewhere_eight() {
        // At nside >= 2, exactly 24 pixels (the polar-face corners
        // that touch a pole or the south corners) lose one diagonal.
        for nside in [2u32, 4, 8] {
            let mut seven = 0u32;
            for pix in 0..npix(nside) {
                let n = neighbors(nside, pix).iter().flatten().count();
                assert!(n == 7 || n == 8);
                if n == 7 {
                    seven += 1;
                }
            }
            assert_eq!(seven, 24, "nside={nside}");
        }
    }

    #[test]
    fn max_pixrad_shrinks_with_resolution() {
        let mut prev = max_pixrad(1);
        for k in 1..=10 {
            let cur = max_pixrad(1 << k);
            assert!(cur < prev);
            prev = cur;
        }
        // nside=1 pixels are huge (~60 deg radius), nside=1024 tiny.
        assert!(max_pixrad(1) > 0.8);
        assert!(max_pixrad(1024) < 2e-3);
    }
}
