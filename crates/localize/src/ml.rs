//! The ML-in-the-loop localizer (paper Fig. 6).
//!
//! Up to `max_ml_iterations` (paper: five) rounds of:
//!
//! 1. estimate a source direction ŝ (baseline approximation + refinement),
//! 2. take ŝ's polar angle as the networks' thirteenth input,
//! 3. apply the background network with the per-polar-bin threshold and
//!    drop rings classified as background,
//!
//! then one pass of the dEta network replaces every surviving ring's
//! analytic dη with `exp(model output)` (the network regresses ln dη), and
//! a final refinement from the last ŝ produces the answer.
//!
//! Per-stage wall-clock durations are recorded so the timing tables
//! (paper Tables I/II) can be regenerated from any host.

use crate::localizer::{BaselineLocalizer, LocalizerConfig};
use adapt_math::angles::{deg_to_rad, polar_angle_deg};
use adapt_math::vec3::UnitVec3;
use adapt_nn::{
    sigmoid, CompiledMlp, CompiledQuantMlp, FeaturePlanes, InferenceScratch, Matrix, Mlp,
    QuantScratch, QuantizedMlp, ThresholdTable,
};
use adapt_recon::{ComptonRing, N_FEATURES_WITH_POLAR, N_STATIC_FEATURES};
use adapt_telemetry::{
    Counter, DriftMonitor, LoopIterationRecord, LoopSummaryRecord, Recorder, SCORE_BINS,
};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// How the dEta network's prediction is applied to surviving rings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DEtaUpdate {
    /// The paper's behaviour: replace every ring's dη with
    /// `exp(network output)`.
    Replace,
    /// Only widen: `max(exp(network output), analytic dη)` — uses the
    /// network to fix the under-estimation failure mode while trusting
    /// sharp analytic values (an ablation variant).
    Inflate,
    /// Keep the analytic dη (isolates the background network's
    /// contribution in ablations).
    Off,
}

/// Configuration of the ML pipeline loop.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MlPipelineConfig {
    /// Baseline localizer used inside the loop.
    pub localizer: LocalizerConfig,
    /// Maximum background-rejection iterations (paper: 5).
    pub max_ml_iterations: usize,
    /// Convergence tolerance on ŝ between iterations (degrees).
    pub convergence_tol_deg: f64,
    /// Whether to feed the polar angle to the networks (Fig. 7 ablation:
    /// when false, models must have been built with 12 inputs).
    pub use_polar_input: bool,
    /// dEta application policy (paper: `Replace`).
    pub d_eta_update: DEtaUpdate,
}

impl Default for MlPipelineConfig {
    fn default() -> Self {
        MlPipelineConfig {
            localizer: LocalizerConfig::default(),
            max_ml_iterations: 5,
            convergence_tol_deg: 0.5,
            use_polar_input: true,
            d_eta_update: DEtaUpdate::Replace,
        }
    }
}

/// Per-stage timing of one localization (paper Tables I/II rows).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StageTimings {
    /// Initial approximation + all refinement solves.
    pub approx_refine: Duration,
    /// Background-network inference (all iterations).
    pub background_inference: Duration,
    /// dEta-network inference.
    pub d_eta_inference: Duration,
}

/// The result of an ML-pipeline localization.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MlLocalizeResult {
    /// Final source direction.
    pub direction: UnitVec3,
    /// ML iterations actually executed.
    pub ml_iterations: usize,
    /// Rings surviving background rejection.
    pub surviving_rings: usize,
    /// Whether the ŝ loop converged before the iteration cap.
    pub converged: bool,
    /// Stage timings.
    pub timings: StageTimings,
}

/// Which arithmetic the background network runs on: the compiled FP32
/// plan, or the compiled fixed-point INT8 plan (the paper's deployment
/// configuration, shared bit-exactly with the FPGA cosim).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum InferenceBackend {
    /// Full-precision f64 inference via `CompiledMlp`.
    #[default]
    Float,
    /// Fixed-point INT8 inference via `CompiledQuantMlp`.
    Int8,
}

impl InferenceBackend {
    /// Parse a CLI flag value (`float` / `fp32` or `int8` / `quantized`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "float" | "fp32" | "f64" => Some(InferenceBackend::Float),
            "int8" | "quantized" | "quant" => Some(InferenceBackend::Int8),
            _ => None,
        }
    }
}

impl std::fmt::Display for InferenceBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            InferenceBackend::Float => "float",
            InferenceBackend::Int8 => "int8",
        })
    }
}

/// Anything that can score rings as background: the FP32 network, its
/// compiled inference plan, the INT8-quantized network (paper Fig. 11),
/// or a test double.
pub trait BackgroundModel: Sync {
    /// Raw logits, one per input row.
    fn logits(&self, x: &Matrix) -> Vec<f64>;

    /// Raw logits written into a caller-owned buffer through a reusable
    /// scratch arena. The default delegates to [`logits`](Self::logits);
    /// implementations with a compiled plan override this to stay
    /// allocation-free after warm-up.
    fn logits_into(&self, x: &Matrix, scratch: &mut InferenceScratch, out: &mut Vec<f64>) {
        let _ = scratch;
        out.clear();
        out.extend(self.logits(x));
    }

    /// Score selected rows of a feature-major plane set (SoA staging —
    /// see [`FeaturePlanes`]), with an optional shared trailing input
    /// (the loop's polar angle). The default gathers the selected rows
    /// into a row-major matrix and delegates to
    /// [`logits_into`](Self::logits_into); compiled plans override this
    /// to consume the planes directly with one fused staging sweep.
    fn logits_select(
        &self,
        planes: &FeaturePlanes,
        active: &[u32],
        append: Option<f64>,
        scratch: &mut InferenceScratch,
        out: &mut Vec<f64>,
    ) {
        let d = planes.features() + usize::from(append.is_some());
        let mut x = Matrix::zeros(active.len(), d);
        for (r, &i) in active.iter().enumerate() {
            let row = x.row_mut(r);
            for (f, cell) in row.iter_mut().enumerate().take(planes.features()) {
                *cell = planes.plane(f)[i as usize];
            }
            if let Some(v) = append {
                row[d - 1] = v;
            }
        }
        self.logits_into(&x, scratch, out);
    }
}

impl BackgroundModel for Mlp {
    fn logits(&self, x: &Matrix) -> Vec<f64> {
        let out = self.predict(x);
        (0..x.rows()).map(|i| out.get(i, 0)).collect()
    }
}

impl BackgroundModel for CompiledMlp {
    fn logits(&self, x: &Matrix) -> Vec<f64> {
        self.predict(x).as_slice().to_vec()
    }

    fn logits_into(&self, x: &Matrix, scratch: &mut InferenceScratch, out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(self.forward_batch(x, scratch));
    }

    fn logits_select(
        &self,
        planes: &FeaturePlanes,
        active: &[u32],
        append: Option<f64>,
        scratch: &mut InferenceScratch,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.extend_from_slice(self.forward_select(planes, active, append, scratch));
    }
}

impl BackgroundModel for QuantizedMlp {
    fn logits(&self, x: &Matrix) -> Vec<f64> {
        self.forward(x)
    }

    fn logits_into(&self, x: &Matrix, scratch: &mut InferenceScratch, out: &mut Vec<f64>) {
        // run the cached fixed-point plan through the shared scratch
        self.plan().logits_into(x, scratch, out);
    }

    fn logits_select(
        &self,
        planes: &FeaturePlanes,
        active: &[u32],
        append: Option<f64>,
        scratch: &mut InferenceScratch,
        out: &mut Vec<f64>,
    ) {
        self.plan()
            .logits_select(planes, active, append, scratch, out);
    }
}

impl BackgroundModel for CompiledQuantMlp {
    fn logits(&self, x: &Matrix) -> Vec<f64> {
        self.forward_batch(x, &mut QuantScratch::new()).to_vec()
    }

    fn logits_into(&self, x: &Matrix, scratch: &mut InferenceScratch, out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(self.forward_batch(x, &mut scratch.quant));
    }

    fn logits_select(
        &self,
        planes: &FeaturePlanes,
        active: &[u32],
        append: Option<f64>,
        scratch: &mut InferenceScratch,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.extend_from_slice(self.forward_select(planes, active, append, &mut scratch.quant));
    }
}

/// Reusable buffers for one localization stream: the burst's
/// feature-major planes, the active-ring index lists, the network
/// scratch arena, and the logit vector. After the first (largest) burst
/// every later `localize_with` call runs the ML stages without
/// allocating.
#[derive(Debug, Default)]
pub struct InferenceWorkspace {
    inputs: Matrix,
    nn: InferenceScratch,
    logits: Vec<f64>,
    /// Feature-major staging planes, built once per burst (SoA path).
    planes: FeaturePlanes,
    /// Indices into the burst's ring slice still alive in the loop.
    active: Vec<u32>,
    /// Rejection-filter output; swapped with `active` on acceptance so
    /// the pre-filter set survives a rejected iteration.
    next_active: Vec<u32>,
    /// Surviving rings gathered for the geometric refinement (which
    /// needs a contiguous ring slice); reused across iterations.
    survivors: Vec<ComptonRing>,
}

impl InferenceWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The background-rejected, dEta-corrected ring set left behind by
    /// the last [`MlLocalizer::localize_with`] call through this
    /// workspace — the ring set an ML-mode alert's posterior sky map is
    /// built from. Empty until a localization has run.
    pub fn surviving_rings(&self) -> &[ComptonRing] {
        &self.survivors
    }
}

/// The ML localizer. Holds the trained networks by reference so one set of
/// weights can serve many parallel trials; the dEta network (and any
/// background model that exposes a plan) is compiled once per localizer
/// into a BN-folded flat-buffer plan the hot loop runs allocation-free.
pub struct MlLocalizer<'a> {
    background_net: &'a dyn BackgroundModel,
    thresholds: &'a ThresholdTable,
    compiled_d_eta: CompiledMlp,
    config: MlPipelineConfig,
    baseline: BaselineLocalizer,
    recorder: &'a dyn Recorder,
    drift: Option<&'a DriftMonitor>,
}

impl<'a> MlLocalizer<'a> {
    /// Assemble from trained components. Compiles the dEta network's
    /// inference plan up front.
    pub fn new(
        background_net: &'a dyn BackgroundModel,
        thresholds: &'a ThresholdTable,
        d_eta_net: &'a Mlp,
        config: MlPipelineConfig,
    ) -> Self {
        let baseline = BaselineLocalizer::new(config.localizer.clone());
        MlLocalizer {
            background_net,
            thresholds,
            compiled_d_eta: CompiledMlp::compile(d_eta_net),
            config,
            baseline,
            recorder: adapt_telemetry::noop(),
            drift: None,
        }
    }

    /// Attach a telemetry recorder: each background-rejection iteration
    /// emits a [`LoopIterationRecord`] (rings kept/dropped, background
    /// score histogram, angular step) and each localization a
    /// [`LoopSummaryRecord`] (iterations, convergence, mean |dη
    /// correction|).
    pub fn with_recorder(mut self, recorder: &'a dyn Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Attach a drift monitor: the staged feature rows of each
    /// localization's first background pass are accumulated into the
    /// monitor's histograms, so the observed inference-time distribution
    /// can be PSI-scored against the training reference. Rows whose
    /// width does not match the monitor's reference (the 12-wide
    /// no-polar ablation against a 13-wide reference) are ignored.
    pub fn with_drift_monitor(mut self, monitor: &'a DriftMonitor) -> Self {
        self.drift = Some(monitor);
        self
    }

    /// Stage the model input matrix for a set of rings at a given polar
    /// estimate into a reusable buffer (no allocation once the buffer has
    /// reached the burst's ring count).
    fn stage_inputs(&self, rings: &[ComptonRing], polar_deg: f64, x: &mut Matrix) {
        if self.config.use_polar_input {
            x.resize(rings.len(), N_FEATURES_WITH_POLAR);
            for (i, r) in rings.iter().enumerate() {
                x.row_mut(i)
                    .copy_from_slice(&r.features.to_model_input(polar_deg));
            }
        } else {
            x.resize(rings.len(), 12);
            for (i, r) in rings.iter().enumerate() {
                x.row_mut(i).copy_from_slice(&r.features.to_static_array());
            }
        }
    }

    /// Background probabilities for each ring at the given polar estimate.
    pub fn background_probabilities(&self, rings: &[ComptonRing], polar_deg: f64) -> Vec<f64> {
        let mut ws = InferenceWorkspace::new();
        self.background_logits(rings, polar_deg, &mut ws);
        ws.logits.iter().map(|&l| sigmoid(l)).collect()
    }

    /// Score rings with the background net into `ws.logits`.
    fn background_logits(
        &self,
        rings: &[ComptonRing],
        polar_deg: f64,
        ws: &mut InferenceWorkspace,
    ) {
        if rings.is_empty() {
            ws.logits.clear();
            return;
        }
        self.stage_inputs(rings, polar_deg, &mut ws.inputs);
        // split-borrow: logits buffer out, inputs + scratch in
        let InferenceWorkspace {
            inputs, nn, logits, ..
        } = ws;
        self.background_net.logits_into(inputs, nn, logits);
    }

    /// Run the full Fig.-6 loop with a private, throwaway workspace.
    /// Batch drivers that localize many bursts should hold one
    /// [`InferenceWorkspace`] and call
    /// [`localize_with`](Self::localize_with) instead.
    pub fn localize<R: Rng + ?Sized>(
        &self,
        rings: &[ComptonRing],
        rng: &mut R,
    ) -> Option<MlLocalizeResult> {
        let mut ws = InferenceWorkspace::new();
        self.localize_with(rings, rng, &mut ws)
    }

    /// Run the full Fig.-6 loop through a caller-owned workspace: all
    /// network stages (every background-rejection iteration plus the dEta
    /// pass) run batched over the surviving rings and allocation-free
    /// once the workspace is warm.
    pub fn localize_with<R: Rng + ?Sized>(
        &self,
        rings: &[ComptonRing],
        rng: &mut R,
        ws: &mut InferenceWorkspace,
    ) -> Option<MlLocalizeResult> {
        let mut timings = StageTimings::default();

        // initial estimate without ML
        let t0 = Instant::now();
        let initial = self.baseline.localize(rings, rng)?;
        timings.approx_refine += t0.elapsed();
        let mut s_hat = initial.direction;

        // build the burst's feature planes once — one contiguous sweep
        // per feature; rejection iterations shrink an index list instead
        // of re-gathering (and re-cloning) ring structs every pass
        ws.planes.resize(N_STATIC_FEATURES, rings.len());
        for (i, r) in rings.iter().enumerate() {
            let arr = r.features.to_static_array();
            for (f, &v) in arr.iter().enumerate() {
                ws.planes.plane_mut(f)[i] = v;
            }
        }
        ws.active.clear();
        ws.active.extend(0..rings.len() as u32);

        let mut iterations = 0usize;
        let mut converged = false;
        let telemetry_live = self.recorder.is_enabled();
        for _ in 0..self.config.max_ml_iterations {
            iterations += 1;
            let polar = polar_angle_deg(s_hat);
            let append = self.config.use_polar_input.then_some(polar);

            let t_bkg = Instant::now();
            {
                // split-borrow: logits buffer out, planes + scratch in
                let InferenceWorkspace {
                    planes,
                    active,
                    nn,
                    logits,
                    ..
                } = ws;
                self.background_net
                    .logits_select(planes, active, append, nn, logits);
            }
            ws.next_active.clear();
            for (&i, &l) in ws.active.iter().zip(&ws.logits) {
                if !self.thresholds.is_background(sigmoid(l), polar) {
                    ws.next_active.push(i);
                }
            }
            timings.background_inference += t_bkg.elapsed();

            // feed the feature rows of the FIRST pass into the drift
            // monitor — later iterations re-score a survivor subset of
            // the same burst and would double-count it. Outside the
            // timed section: monitoring cost must not skew Tables I/II.
            if iterations == 1 {
                if let Some(monitor) = self.drift {
                    if self.config.use_polar_input {
                        for r in rings {
                            monitor.observe_row(&r.features.to_model_input(polar));
                        }
                    } else {
                        for r in rings {
                            monitor.observe_row(&r.features.to_static_array());
                        }
                    }
                }
            }

            // background-score histogram, only when a recorder is live
            // (the extra sigmoids are pure telemetry cost)
            let score_hist = if telemetry_live {
                let mut hist = [0u32; SCORE_BINS];
                for &l in ws.logits.iter() {
                    let bin = ((sigmoid(l) * SCORE_BINS as f64) as usize).min(SCORE_BINS - 1);
                    hist[bin] += 1;
                }
                hist
            } else {
                [0u32; SCORE_BINS]
            };
            let rings_in = ws.active.len();
            let emit_iteration = |rings_kept: usize, step_deg: f64| {
                if telemetry_live {
                    self.recorder.loop_iteration(&LoopIterationRecord {
                        iteration: iterations,
                        rings_in,
                        rings_kept,
                        score_hist,
                        step_deg,
                    });
                }
            };

            // if rejection nuked the set, keep the previous estimate
            if ws.next_active.len() < self.config.localizer.refine.min_rings {
                emit_iteration(ws.next_active.len(), f64::NAN);
                break;
            }

            // the geometric solver needs a contiguous ring slice: gather
            // survivors into the reused buffer
            ws.survivors.clear();
            ws.survivors
                .extend(ws.next_active.iter().map(|&i| rings[i as usize].clone()));
            let t_loc = Instant::now();
            let refined = self.baseline.refine_from(&ws.survivors, s_hat);
            timings.approx_refine += t_loc.elapsed();
            let Some(refined) = refined else {
                emit_iteration(ws.next_active.len(), f64::NAN);
                std::mem::swap(&mut ws.active, &mut ws.next_active);
                break;
            };
            let delta_deg = adapt_math::angles::rad_to_deg(s_hat.angle_to(refined.direction));
            emit_iteration(ws.next_active.len(), delta_deg);
            std::mem::swap(&mut ws.active, &mut ws.next_active);
            s_hat = refined.direction;
            if delta_deg < self.config.convergence_tol_deg {
                converged = true;
                break;
            }
        }
        self.recorder
            .add(Counter::LoopIterations, iterations as u64);

        // dEta update on survivors, then the final refinement
        let polar = polar_angle_deg(s_hat);
        let append = self.config.use_polar_input.then_some(polar);
        let t_deta = Instant::now();
        let mut abs_d_eta_correction = 0.0f64;
        ws.survivors.clear();
        match self.config.d_eta_update {
            DEtaUpdate::Off => {
                let InferenceWorkspace {
                    active, survivors, ..
                } = ws;
                survivors.extend(active.iter().map(|&i| rings[i as usize].clone()));
            }
            policy => {
                let InferenceWorkspace {
                    planes,
                    active,
                    nn,
                    survivors,
                    ..
                } = ws;
                let ln_d_eta = self
                    .compiled_d_eta
                    .forward_select(planes, active, append, nn);
                for (&i, &ln_d) in active.iter().zip(ln_d_eta) {
                    let r = &rings[i as usize];
                    let predicted = ln_d.exp().clamp(1e-4, 2.0);
                    let d = match policy {
                        DEtaUpdate::Replace => predicted,
                        DEtaUpdate::Inflate => predicted.max(r.d_eta),
                        DEtaUpdate::Off => unreachable!(),
                    };
                    abs_d_eta_correction += (d - r.d_eta).abs();
                    survivors.push(r.with_d_eta(d));
                }
            }
        }
        timings.d_eta_inference += t_deta.elapsed();
        let updated = &ws.survivors;
        if telemetry_live {
            self.recorder.loop_summary(&LoopSummaryRecord {
                iterations,
                converged,
                surviving_rings: updated.len(),
                mean_abs_d_eta_correction: if updated.is_empty() {
                    0.0
                } else {
                    abs_d_eta_correction / updated.len() as f64
                },
            });
        }

        let t_final = Instant::now();
        let final_refine = self.baseline.refine_from(updated, s_hat);
        timings.approx_refine += t_final.elapsed();
        let direction = final_refine.map(|r| r.direction).unwrap_or(s_hat);

        // the Earth blocks below-horizon sources; clamp to the horizon by
        // reflecting any tiny southward drift introduced by refinement
        let direction = if direction.as_vec().z < 0.0 {
            UnitVec3::from_spherical(deg_to_rad(90.0), direction.azimuth())
        } else {
            direction
        };

        Some(MlLocalizeResult {
            direction,
            ml_iterations: iterations,
            surviving_rings: updated.len(),
            converged,
            timings,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_math::angles::angular_separation;
    use adapt_nn::mlp::BlockOrder;
    use adapt_recon::RingFeatures;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(71)
    }

    /// A "perfect oracle" background net: we build rings whose first
    /// feature encodes the label, then train a tiny net to read it. This
    /// tests the loop mechanics independently of real training quality.
    fn oracle_parts() -> (Mlp, ThresholdTable, Mlp) {
        let mut r = rng();
        let mut bkg = Mlp::new(13, &[8], BlockOrder::BatchNormFirst, &mut r);
        // train on synthetic data: label = 1 if feature0 > 0.5
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..600 {
            let label = (i % 2) as f64;
            let mut row = vec![0.0; 13];
            row[0] = if label > 0.5 { 1.0 } else { 0.0 };
            row[12] = (i % 90) as f64;
            xs.extend_from_slice(&row);
            ys.push(label);
        }
        let ds = adapt_nn::Dataset::new(Matrix::from_vec(600, 13, xs), ys);
        let cfg = adapt_nn::TrainConfig {
            max_epochs: 60,
            batch_size: 64,
            learning_rate: 0.1,
            momentum: 0.9,
            patience: 60,
            objective: adapt_nn::Objective::BinaryCrossEntropy,
        };
        adapt_nn::train(&mut bkg, &ds, &ds, &cfg, &mut r);
        // dEta net: constant output (ln 0.02)
        let mut deta = Mlp::new(13, &[4], BlockOrder::BatchNormFirst, &mut r);
        let target = (0.02f64).ln();
        let ys2: Vec<f64> = vec![target; 600];
        let mut xs2 = Vec::new();
        let mut r2 = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..600 {
            for _ in 0..13 {
                xs2.push(adapt_math::sampling::standard_normal(&mut r2));
            }
        }
        let ds2 = adapt_nn::Dataset::new(Matrix::from_vec(600, 13, xs2), ys2);
        let cfg2 = adapt_nn::TrainConfig {
            max_epochs: 80,
            batch_size: 64,
            learning_rate: 0.05,
            momentum: 0.9,
            patience: 80,
            objective: adapt_nn::Objective::MeanSquaredError,
        };
        adapt_nn::train(&mut deta, &ds2, &ds2, &cfg2, &mut r);
        (bkg, ThresholdTable::uniform(0.5), deta)
    }

    fn make_rings(source: UnitVec3, n_src: usize, n_bkg: usize, seed: u64) -> Vec<ComptonRing> {
        let mut r = ChaCha8Rng::seed_from_u64(seed);
        let mut rings = Vec::new();
        for i in 0..(n_src + n_bkg) {
            let is_bkg = i >= n_src;
            let (axis, eta) = if is_bkg {
                let axis = adapt_math::sampling::isotropic_direction(&mut r);
                (axis, r.gen_range(-0.9..0.9))
            } else {
                let axis = adapt_math::sampling::isotropic_direction(&mut r);
                let eta = (axis.cos_angle_to(source)
                    + 0.02 * adapt_math::sampling::standard_normal(&mut r))
                .clamp(-0.999, 0.999);
                (axis, eta)
            };
            let mut features = RingFeatures::zeroed();
            features.total_energy = if is_bkg { 1.0 } else { 0.0 }; // oracle bit
            rings.push(ComptonRing {
                axis,
                eta,
                // the analytic estimate is deliberately over-confident for
                // the source rings and the loop must still work
                d_eta: 0.02,
                features,
                truth: None,
            });
        }
        rings
    }

    #[test]
    fn loop_rejects_background_and_localizes() {
        let (bkg, thresholds, deta) = oracle_parts();
        let source = UnitVec3::from_spherical(0.5, 0.7);
        let rings = make_rings(source, 60, 150, 8);
        let ml = MlLocalizer::new(&bkg, &thresholds, &deta, MlPipelineConfig::default());
        let res = ml.localize(&rings, &mut rng()).unwrap();
        let err = angular_separation(res.direction, source);
        assert!(err < 3.0, "error {err} deg");
        // the oracle should discard nearly all 150 background rings
        assert!(
            res.surviving_rings < 90,
            "survivors {}",
            res.surviving_rings
        );
        assert!(res.ml_iterations >= 1 && res.ml_iterations <= 5);
        assert!(res.timings.background_inference > Duration::ZERO);
        assert!(res.timings.d_eta_inference > Duration::ZERO);
    }

    #[test]
    fn ml_beats_baseline_under_heavy_background() {
        let (bkg, thresholds, deta) = oracle_parts();
        let source = UnitVec3::from_spherical(0.3, -0.4);
        let mut err_ml = 0.0;
        let mut err_base = 0.0;
        for seed in 0..5 {
            let rings = make_rings(source, 40, 160, 100 + seed);
            let ml = MlLocalizer::new(&bkg, &thresholds, &deta, MlPipelineConfig::default());
            let res = ml.localize(&rings, &mut rng()).unwrap();
            err_ml += angular_separation(res.direction, source);
            let base = BaselineLocalizer::default()
                .localize(&rings, &mut rng())
                .unwrap();
            err_base += angular_separation(base.direction, source);
        }
        assert!(
            err_ml <= err_base + 1.0,
            "ml {err_ml} vs baseline {err_base} (cumulative over 5 trials)"
        );
    }

    #[test]
    fn returns_none_without_solvable_geometry() {
        let (bkg, thresholds, deta) = oracle_parts();
        let ml = MlLocalizer::new(&bkg, &thresholds, &deta, MlPipelineConfig::default());
        assert!(ml.localize(&[], &mut rng()).is_none());
    }

    #[test]
    fn compiled_background_matches_mlp_path() {
        let (bkg, thresholds, deta) = oracle_parts();
        let source = UnitVec3::from_spherical(0.5, 0.7);
        let rings = make_rings(source, 60, 150, 8);
        let cfg = MlPipelineConfig::default();
        let via_mlp = MlLocalizer::new(&bkg, &thresholds, &deta, cfg.clone());
        let compiled = adapt_nn::CompiledMlp::compile(&bkg);
        let via_plan = MlLocalizer::new(&compiled, &thresholds, &deta, cfg);
        let a = via_mlp.localize(&rings, &mut rng()).unwrap();
        let b = via_plan.localize(&rings, &mut rng()).unwrap();
        // the compiled plan re-associates floating-point sums, which the
        // iterative refinement amplifies to ~1e-6 degrees; classification
        // decisions must still agree exactly on this well-separated problem
        assert_eq!(a.surviving_rings, b.surviving_rings);
        assert_eq!(a.ml_iterations, b.ml_iterations);
        assert!(
            angular_separation(a.direction, b.direction) < 1e-3,
            "directions diverged by {} deg",
            angular_separation(a.direction, b.direction)
        );
    }

    #[test]
    fn workspace_reuse_is_transparent() {
        let (bkg, thresholds, deta) = oracle_parts();
        let compiled = adapt_nn::CompiledMlp::compile(&bkg);
        let ml = MlLocalizer::new(&compiled, &thresholds, &deta, MlPipelineConfig::default());
        let source = UnitVec3::from_spherical(0.4, -1.1);
        let mut ws = InferenceWorkspace::new();
        // localize bursts of shrinking then growing size through ONE
        // workspace; each must match a fresh-workspace run bit for bit
        for (n_src, n_bkg, seed) in [(80, 120, 21), (20, 30, 22), (60, 90, 23)] {
            let rings = make_rings(source, n_src, n_bkg, seed);
            let reused = ml.localize_with(&rings, &mut rng(), &mut ws).unwrap();
            let fresh = ml.localize(&rings, &mut rng()).unwrap();
            assert_eq!(reused.surviving_rings, fresh.surviving_rings);
            assert!(angular_separation(reused.direction, fresh.direction) < 1e-12);
        }
    }

    #[test]
    fn drift_monitor_counts_first_pass_rows_once() {
        let (bkg, thresholds, deta) = oracle_parts();
        let source = UnitVec3::from_spherical(0.5, 0.7);
        let rings = make_rings(source, 60, 150, 8);
        // reference fitted on the same feature layout the localizer stages
        let rows: Vec<f64> = rings
            .iter()
            .flat_map(|r| r.features.to_model_input(45.0))
            .collect();
        let reference = adapt_telemetry::DriftReference::fit(&rows, rings.len(), 13);
        let monitor = DriftMonitor::new(reference);
        // zero tolerance: the loop never declares convergence, so every
        // allowed rejection iteration re-scores the survivors
        let cfg = MlPipelineConfig {
            convergence_tol_deg: 0.0,
            ..Default::default()
        };
        let ml = MlLocalizer::new(&bkg, &thresholds, &deta, cfg).with_drift_monitor(&monitor);
        let res = ml.localize(&rings, &mut rng()).unwrap();
        // several rejection iterations ran, but only the first pass (which
        // stages every incoming ring) feeds the monitor
        assert!(res.ml_iterations >= 2, "iterations {}", res.ml_iterations);
        assert_eq!(monitor.rows_observed(), rings.len() as u64);
        let report = monitor.report();
        assert_eq!(report.per_feature_psi.len(), 13);
        assert!(report.per_feature_psi.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn backend_flag_parses() {
        assert_eq!(
            InferenceBackend::parse("float"),
            Some(InferenceBackend::Float)
        );
        assert_eq!(
            InferenceBackend::parse("int8"),
            Some(InferenceBackend::Int8)
        );
        assert_eq!(
            InferenceBackend::parse("quantized"),
            Some(InferenceBackend::Int8)
        );
        assert_eq!(InferenceBackend::parse("int7"), None);
        assert_eq!(InferenceBackend::default(), InferenceBackend::Float);
    }

    #[test]
    fn quantized_backend_matches_its_compiled_plan_bit_for_bit() {
        let (_, thresholds, deta) = oracle_parts();
        let mut r = rng();
        // quantization requires the LinearFirst block order; train a
        // small oracle in that order on the same feature-0 rule
        let mut bkg = Mlp::new(13, &[8], BlockOrder::LinearFirst, &mut r);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..600 {
            let label = (i % 2) as f64;
            let mut row = vec![0.0; 13];
            row[0] = label;
            row[12] = (i % 90) as f64;
            xs.extend_from_slice(&row);
            ys.push(label);
        }
        let ds = adapt_nn::Dataset::new(Matrix::from_vec(600, 13, xs), ys);
        let cfg_train = adapt_nn::TrainConfig {
            max_epochs: 60,
            batch_size: 64,
            learning_rate: 0.1,
            momentum: 0.9,
            patience: 60,
            objective: adapt_nn::Objective::BinaryCrossEntropy,
        };
        adapt_nn::train(&mut bkg, &ds, &ds, &cfg_train, &mut r);
        let calib = Matrix::he_uniform(256, 13, &mut r);
        let quant = QuantizedMlp::quantize(&bkg, &calib);
        let plan = adapt_nn::CompiledQuantMlp::compile(&quant);
        let source = UnitVec3::from_spherical(0.5, 0.7);
        let rings = make_rings(source, 60, 150, 8);
        let cfg = MlPipelineConfig::default();
        // QuantizedMlp (OnceLock-cached plan) and an explicitly compiled
        // plan are the same integer arithmetic — localizations agree
        // exactly, including every classification decision
        let via_net = MlLocalizer::new(&quant, &thresholds, &deta, cfg.clone());
        let via_plan = MlLocalizer::new(&plan, &thresholds, &deta, cfg);
        let a = via_net.localize(&rings, &mut rng()).unwrap();
        let b = via_plan.localize(&rings, &mut rng()).unwrap();
        assert_eq!(a.surviving_rings, b.surviving_rings);
        assert_eq!(a.ml_iterations, b.ml_iterations);
        // compare raw components: angular_separation of even identical
        // unit vectors reports ~1e-6 deg (acos near 1.0)
        assert_eq!(a.direction.as_vec().x, b.direction.as_vec().x);
        assert_eq!(a.direction.as_vec().y, b.direction.as_vec().y);
        assert_eq!(a.direction.as_vec().z, b.direction.as_vec().z);
    }

    #[test]
    fn never_returns_below_horizon() {
        let (bkg, thresholds, deta) = oracle_parts();
        // rings consistent with a source *at* the horizon
        let source = UnitVec3::from_spherical(deg_to_rad(88.0), 0.3);
        let rings = make_rings(source, 50, 50, 9);
        let ml = MlLocalizer::new(&bkg, &thresholds, &deta, MlPipelineConfig::default());
        if let Some(res) = ml.localize(&rings, &mut rng()) {
            assert!(res.direction.as_vec().z >= -1e-12);
        }
    }
}
