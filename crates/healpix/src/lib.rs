//! Dependency-free nested HEALPix pixelization.
//!
//! HEALPix (Hierarchical Equal-Area iso-Latitude Pixelization, Górski
//! et al. 2005) is the pixelization the field reports localizations in:
//! `12·nside²` pixels of exactly equal solid angle, hierarchically
//! subdivided so every pixel at resolution `nside` splits into four
//! children at `2·nside`. This crate implements the *nested* indexing
//! scheme from scratch — no external HEALPix library — and nothing
//! else; the posterior sky map rasterized on it is
//! `adapt_localize::SkyPosterior`:
//!
//! * [`pix2vec`] / [`vec2pix`] — pixel index ↔ unit-vector center;
//! * [`neighbors`] — the 8 (7 at the polar-face corners) adjacent
//!   pixels, via the face-adjacency tables;
//! * [`npix`], [`pixel_solid_angle`], [`max_pixrad`] — pixel count,
//!   the equal pixel area, and the largest center-to-corner distance.
//!
//! The index math follows the reference algorithms of the HEALPix
//! paper; the z/φ → face/(x, y) projection constants (`JRLL`, `JPLL`,
//! the face-adjacency and swap tables) are the standard published
//! tables, not tunables.

pub mod nested;

pub use nested::{max_pixrad, neighbors, npix, pix2vec, pixel_solid_angle, vec2pix};
