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
//! * [`children`] / [`parent`] — the quadtree walk the coarse-to-fine
//!   rasterizer expands along (children of nested pixel `p` are
//!   `4p..4p+4`, so a refined coarse cell is one contiguous index
//!   range);
//! * [`pixel_bound_radius`] — the enclosing-cone radius the
//!   coarse-to-fine likelihood bound propagates.
//!
//! The index math follows the reference algorithms of the HEALPix
//! paper; the z/φ → face/(x, y) projection constants (`JRLL`, `JPLL`,
//! the face-adjacency and swap tables) are the standard published
//! tables, not tunables.

pub mod nested;

pub use nested::{
    children, max_pixrad, neighbors, npix, parent, pix2vec, pixel_bound_radius, pixel_solid_angle,
    vec2pix,
};
