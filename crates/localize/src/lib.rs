//! `adapt-localize`: GRB source localization from Compton rings.
//!
//! Implements the paper's two-stage localization algorithm and its ML
//! extension:
//!
//! * [`likelihood`] — the radially-symmetric Gaussian ring model and its
//!   robust (outlier-floored) variant;
//! * [`approx`] — the sampling-based initial approximation;
//! * [`mod@refine`] — robust iterative reweighted least squares on the
//!   almost-linear system `cᵢ·s ≈ ηᵢ`;
//! * [`localizer`] — the baseline (no-ML) pipeline;
//! * [`ml`] — the Fig.-6 loop weaving the background and dEta networks
//!   into localization, with per-stage timing capture;
//! * [`skymap`] — [`SkyPosterior`], the posterior sky map with credible
//!   regions, on either [`pixelization`].

pub mod approx;
pub mod likelihood;
pub mod localizer;
pub mod ml;
pub mod pixelization;
pub mod refine;
pub mod skymap;
pub mod uncertainty;

pub use approx::{approximate, ApproxConfig};
pub use likelihood::{angular_z, cone_geometry, joint_log_likelihood, ring_log_likelihood};
pub use localizer::{BaselineLocalizer, LocalizeResult, LocalizerConfig};
pub use ml::{
    BackgroundModel, DEtaUpdate, InferenceBackend, InferenceWorkspace, MlLocalizeResult,
    MlLocalizer, MlPipelineConfig, StageTimings,
};
pub use pixelization::{
    default_temperature, nside_for_target_pixels, SkyPixelization, TEMPERATURE_RING_COEFF,
};
pub use refine::{refine, RefineConfig, RefineResult};
pub use skymap::SkyPosterior;
pub use uncertainty::{estimate_uncertainty, DirectionUncertainty};
