//! The streaming flight runtime: ingest → trigger → localize under a
//! deadline, with graceful degradation.
//!
//! Three pipeline threads connected by [`BoundedQueue`]s:
//!
//! ```text
//!   StreamingSource ──ingest──▶ [ingest queue, DropNewest]
//!        ──trigger thread (OnlineTrigger)──▶ [epoch queue, Block]
//!        ──localizer worker──▶ GrbAlert
//! ```
//!
//! The ingest queue is lossy by policy (a shed event is counted, a
//! stalled runtime is not an option); the epoch queue blocks, which
//! backpressures the trigger thread and in turn fills — and sheds from —
//! the ingest queue, so overload is always visible in the drop counters.
//!
//! The worker runs [`EpochServer`], the serving step it shares with the
//! ground-segment pool, which owns the *degradation ladder*. For each
//! epoch it estimates the compute cost of every level from an EWMA of
//! past runs, subtracts the wall time the epoch already spent queued from
//! the alert deadline, and picks the best level that still fits the
//! remaining budget (with a safety factor), degrading further under
//! queue pressure:
//!
//! 1. `full-ml` — float compiled background net, 5 loop iterations;
//! 2. `reduced-ml` — INT8 plan, fewer loop iterations;
//! 3. `coarse-skymap` — flat-swept sky map on a small grid, mode + 90 %
//!    credible radius;
//! 4. `classical` — baseline approximate + refine, no ML.
//!
//! A level that fails to localize falls through to the next rung. The
//! runtime *always* emits an alert for a triggered epoch with ≥ 1 ring —
//! late beats never. Every transition is recorded; alerts carry the
//! queue depths and the mode that produced them.

use crate::checkpoint::{Checkpoint, CHECKPOINT_SCHEMA};
use crate::queue::{BoundedQueue, DropPolicy, QueueStats};
use crate::trigger::{OnlineTrigger, OnlineTriggerConfig, OpenEpoch};
use adapt_core::training::TrainedModels;
use adapt_localize::{
    default_temperature, estimate_uncertainty, BaselineLocalizer, InferenceWorkspace,
    LocalizerConfig, MlLocalizer, MlPipelineConfig, SkyPixelization, SkyPosterior,
};
use adapt_math::angles::polar_angle_deg;
use adapt_math::{rad_to_deg, vec3::UnitVec3};
use adapt_nn::CompiledMlp;
use adapt_recon::Reconstructor;
use adapt_sim::{StreamStats, StreamingSource};
use adapt_telemetry::{
    AlertRecord, Counter, CounterHandle, DegradationRecord, GaugeHandle, HistogramHandle,
    LiveObserver, Recorder, Stage, TraceSpanRecord,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The degradation ladder, best first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DegradationLevel {
    /// Full ML loop on the float compiled plan.
    FullMl,
    /// INT8 plan with fewer loop iterations.
    ReducedMl,
    /// Sky map on a small grid (mode + credible radius).
    CoarseSkymap,
    /// Classical approximate + refine, no ML.
    Classical,
}

impl DegradationLevel {
    /// Ladder order, best first.
    pub const ALL: [DegradationLevel; 4] = [
        DegradationLevel::FullMl,
        DegradationLevel::ReducedMl,
        DegradationLevel::CoarseSkymap,
        DegradationLevel::Classical,
    ];

    /// Stable machine name (telemetry `mode` field).
    pub fn name(self) -> &'static str {
        match self {
            DegradationLevel::FullMl => "full-ml",
            DegradationLevel::ReducedMl => "reduced-ml",
            DegradationLevel::CoarseSkymap => "coarse-skymap",
            DegradationLevel::Classical => "classical",
        }
    }

    /// Index into [`ALL`](Self::ALL).
    pub fn slot(self) -> usize {
        Self::ALL.iter().position(|&l| l == self).unwrap()
    }
}

/// Runtime tuning.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Alert deadline: epoch-ready to alert-emitted wall budget (ms).
    pub deadline_ms: f64,
    /// Online trigger tuning.
    pub trigger: OnlineTriggerConfig,
    /// Ingest queue capacity (lossy `DropNewest`).
    pub ingest_capacity: usize,
    /// Epoch queue capacity (lossless `Block`).
    pub epoch_capacity: usize,
    /// Loop-iteration cap at the `reduced-ml` level.
    pub reduced_iterations: usize,
    /// Sky-map pixel budget at the `coarse-skymap` level.
    pub coarse_pixels: usize,
    /// Pixelization for the `coarse-skymap` rung's posterior (raster
    /// hemisphere or equal-area HEALPix).
    pub pixelization: SkyPixelization,
    /// Fraction of the remaining deadline budget a level's cost estimate
    /// must fit inside to be chosen.
    pub safety_factor: f64,
    /// Checkpoint destination (`None` disables checkpointing).
    pub checkpoint_path: Option<PathBuf>,
    /// Periodic checkpoint cadence in *stream* seconds (0 = only on
    /// kill).
    pub checkpoint_every_s: f64,
    /// Simulated process kill: stop ingest after this stream time, write
    /// a checkpoint, and exit without flushing open epochs.
    pub kill_at_s: Option<f64>,
    /// Seed for the per-epoch localizer RNG streams.
    pub seed: u64,
    /// Ground-truth burst onsets (stream s). When non-empty, every
    /// trigger decision near an onset emits a
    /// [`TriggerDecisionRecord`](adapt_telemetry::TriggerDecisionRecord)
    /// through the recorder, and the run ends with alert↔truth matching
    /// ([`Counter::FalseAlerts`] / [`Counter::MissedBursts`]).
    pub truth_onsets_s: Vec<f64>,
    /// Truth neighbourhood (s): an alert within this long after an onset
    /// counts as detecting it, and decisions this close to an onset are
    /// recorded for forensics.
    pub truth_window_s: f64,
    /// Pin every localization to `full-ml` instead of consulting the
    /// wall-clock deadline ladder (mirrors the ground service's flag):
    /// with a lossless-sized ingest queue the whole alert set becomes a
    /// pure function of the seeds, which is what seed-replayable
    /// campaigns (the robustness matrix) require.
    pub deterministic: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            deadline_ms: 500.0,
            trigger: OnlineTriggerConfig::default(),
            ingest_capacity: 8192,
            epoch_capacity: 4,
            reduced_iterations: 2,
            coarse_pixels: 256,
            pixelization: SkyPixelization::default(),
            safety_factor: 0.8,
            checkpoint_path: None,
            checkpoint_every_s: 0.0,
            kill_at_s: None,
            seed: 0x0B0A_4D5E,
            truth_onsets_s: Vec::new(),
            truth_window_s: 10.0,
            deterministic: false,
        }
    }
}

/// How an alert's containment radius was computed. Ground consumers
/// weigh the two very differently: a sky-map radius is a true credible
/// region backed by the coverage-calibration campaign, while the
/// heuristic is a point-estimate circular error with no coverage
/// guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ContainmentSource {
    /// 90 % credible radius of a rasterized posterior sky map (the
    /// `coarse-skymap` rung).
    Skymap,
    /// 1σ circular-error estimate from the pointwise uncertainty
    /// propagator — the fallback on rungs that never rasterize a map.
    /// The default so pre-PR-10 checkpoints deserialize faithfully:
    /// every alert they hold was heuristic unless sky-map mode.
    #[default]
    Heuristic,
}

impl ContainmentSource {
    /// Stable lowercase name (matches the serde encoding and NDJSON).
    pub fn name(&self) -> &'static str {
        match self {
            ContainmentSource::Skymap => "skymap",
            ContainmentSource::Heuristic => "heuristic",
        }
    }

    /// Parse the stable name (NDJSON validation).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "skymap" => Some(ContainmentSource::Skymap),
            "heuristic" => Some(ContainmentSource::Heuristic),
            _ => None,
        }
    }
}

/// An emitted GRB alert.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GrbAlert {
    /// Stream time the trigger fired (s).
    pub t_trigger_s: f64,
    /// Trigger significance (sigmas).
    pub significance_sigma: f64,
    /// Best-estimate polar angle (degrees).
    pub polar_deg: f64,
    /// Best-estimate azimuth (degrees).
    pub azimuth_deg: f64,
    /// Containment radius: 1σ circular error for ML/classical modes, the
    /// 90 % credible radius for the sky-map mode (degrees).
    pub containment_radius_deg: f64,
    /// Which estimator produced `containment_radius_deg`. Defaulted on
    /// deserialization so pre-existing checkpoints resume cleanly.
    #[serde(default)]
    pub containment_source: ContainmentSource,
    /// Degradation level that produced the localization.
    pub mode: DegradationLevel,
    /// Rings entering localization.
    pub rings: usize,
    /// Rings surviving background rejection (equals `rings` for modes
    /// without rejection).
    pub surviving_rings: usize,
    /// Epoch-ready to alert-emitted wall latency (ms).
    pub latency_ms: f64,
    /// Configured deadline at emission time (ms).
    pub deadline_ms: f64,
    /// Ingest-queue depth at emission.
    pub ingest_depth: usize,
    /// Epoch-queue depth at emission.
    pub epoch_depth: usize,
}

/// What one runtime run did.
#[derive(Debug, Clone)]
pub struct FlightRunReport {
    /// Alerts emitted, including any restored from a checkpoint.
    pub alerts: Vec<GrbAlert>,
    /// Degradation transitions, in order.
    pub transitions: Vec<DegradationRecord>,
    /// Ingest-queue lifetime counters.
    pub ingest_stats: QueueStats,
    /// Epoch-queue lifetime counters.
    pub epoch_stats: QueueStats,
    /// Localization epochs dispatched to the worker.
    pub epochs_dispatched: u64,
    /// Source generation counters.
    pub stream_stats: StreamStats,
    /// Wall time of the run (s).
    pub wall_s: f64,
    /// Measured events accepted per wall second.
    pub sustained_events_per_s: f64,
    /// Whether the simulated kill fired.
    pub killed: bool,
    /// Whether a checkpoint was written.
    pub checkpoint_written: bool,
}

impl FlightRunReport {
    /// Latency percentile over the emitted alerts (`q` in `[0, 1]`);
    /// `None` with no alerts.
    pub fn latency_percentile_ms(&self, q: f64) -> Option<f64> {
        nearest_rank(self.alerts.iter().map(|a| a.latency_ms).collect(), q)
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`, index rounded up) of
/// `values`; `None` when empty. The one rule behind every runtime's
/// latency percentiles.
pub fn nearest_rank(mut values: Vec<f64>, q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let idx = ((values.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).ceil() as usize;
    Some(values[idx.min(values.len() - 1)])
}

/// Initial (pre-observation) per-level cost priors (ms): optimistic so
/// the first epoch attempts the best level the budget allows; the EWMA
/// replaces them after one observation each.
///
/// Retuned for the SIMD kernels: a full-ML burst epoch (543 rings,
/// checkout profile) now measures ~39 ms total — the NN stages shrank
/// ~3x but the classical approximate+refine stage still dominates.
/// ReducedMl rides the INT8 plan (~2x faster than its scalar-era cost)
/// and CoarseSkymap the vectorized cone sweep (~1.5x).
pub const COST_PRIORS_MS: [f64; 4] = [30.0, 10.0, 5.0, 4.0];

/// EWMA weight of a new cost observation.
pub const COST_ALPHA: f64 = 0.4;

/// The per-epoch localizer RNG seed: every consumer of an epoch stream
/// (the single-stream runtime and the ground-segment pool) derives its
/// RNG the same way, which is what makes multi-tenant localizations
/// bit-identical to a single-stream run with the same seed.
pub fn epoch_rng_seed(stream_seed: u64, epoch_index: u64) -> u64 {
    stream_seed ^ epoch_index.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Alert ↔ ground-truth matching over one run: which injected onsets an
/// alert detected (and how fast), which fired with no onset nearby.
/// Shared by the runtime's end-of-run accounting and the robustness
/// matrix in `adapt-bench`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TruthMatchReport {
    /// Ground-truth onsets considered.
    pub n_truth: usize,
    /// Alerts emitted by the run.
    pub n_alerts: usize,
    /// Onsets with at least one alert inside their window.
    pub detected: usize,
    /// Onsets no alert detected.
    pub missed: usize,
    /// Alerts matching no onset window.
    pub false_alerts: usize,
    /// Trigger latency of each detected onset (s from onset to the first
    /// matching alert's trigger time), in onset order.
    pub latencies_s: Vec<f64>,
}

impl TruthMatchReport {
    /// Detected fraction of the truth onsets (1.0 when there were none).
    pub fn detection_efficiency(&self) -> f64 {
        if self.n_truth == 0 {
            1.0
        } else {
            self.detected as f64 / self.n_truth as f64
        }
    }
}

/// Match alerts against ground-truth onsets: an alert whose trigger time
/// falls in `[onset − 0.5 s, onset + window_s]` detects that onset (the
/// small pre-margin tolerates pre-window leakage); an alert matching no
/// onset is a false alert.
pub fn match_alerts_to_truth(
    alerts: &[GrbAlert],
    onsets_s: &[f64],
    window_s: f64,
) -> TruthMatchReport {
    let matches = |t: f64, onset: f64| t >= onset - 0.5 && t <= onset + window_s;
    let mut report = TruthMatchReport {
        n_truth: onsets_s.len(),
        n_alerts: alerts.len(),
        ..TruthMatchReport::default()
    };
    for &onset in onsets_s {
        let first = alerts
            .iter()
            .filter(|a| matches(a.t_trigger_s, onset))
            .map(|a| a.t_trigger_s)
            .fold(f64::INFINITY, f64::min);
        if first.is_finite() {
            report.detected += 1;
            report.latencies_s.push((first - onset).max(0.0));
        } else {
            report.missed += 1;
        }
    }
    report.false_alerts = alerts
        .iter()
        .filter(|a| !onsets_s.iter().any(|&o| matches(a.t_trigger_s, o)))
        .count();
    report
}

/// A triggered epoch on its way to a localization worker: what the
/// flight runtime's epoch queue and the ground pool both carry.
pub struct EpochJob {
    /// Tenant stream (0 for the single-stream flight runtime).
    pub stream_id: usize,
    /// Epoch index within the stream (trigger order).
    pub index: u64,
    /// The stream's localizer seed; the epoch's RNG derives from it via
    /// [`epoch_rng_seed`].
    pub localizer_seed: u64,
    /// The triggered epoch.
    pub epoch: OpenEpoch,
    /// When the epoch was handed over; its alert deadline runs from here.
    pub ready: Instant,
}

impl EpochJob {
    /// Open the job for a freshly triggered epoch: count it and mint the
    /// root `trigger` span of its causal trace before any queueing.
    /// `queue_depth` is the depth of the queue the caller watches at
    /// trigger time.
    pub fn open(
        stream_id: usize,
        index: u64,
        localizer_seed: u64,
        epoch: OpenEpoch,
        queue_depth: usize,
        recorder: &dyn Recorder,
    ) -> Self {
        recorder.add(Counter::EpochsOpened, 1);
        if recorder.is_enabled() {
            recorder.trace_span(&TraceSpanRecord {
                trace_id: trace_id(stream_id, index),
                span: "trigger".into(),
                parent: None,
                t_s: epoch.t_trigger_s,
                start_ms: 0.0,
                duration_ms: 0.0,
                queue_depth: queue_depth as u64,
                detail: format!(
                    "sigma={:.1} events={}",
                    epoch.significance_sigma,
                    epoch.events.len()
                ),
            });
        }
        EpochJob {
            stream_id,
            index,
            localizer_seed,
            epoch,
            ready: Instant::now(),
        }
    }

    /// The causal trace id `s{stream}.e{index}` shared by every span of
    /// this epoch.
    pub fn trace_id(&self) -> String {
        trace_id(self.stream_id, self.index)
    }
}

fn trace_id(stream_id: usize, index: u64) -> String {
    format!("s{stream_id}.e{index}")
}

/// What localizing one epoch through the degradation cascade produced.
#[derive(Debug, Clone)]
pub struct EpochOutcome {
    /// Best-estimate source direction.
    pub direction: UnitVec3,
    /// Ladder level that actually produced the localization (may sit
    /// below the requested level after fall-through).
    pub level: DegradationLevel,
    /// Rings entering localization.
    pub rings: usize,
    /// Rings surviving background rejection (equals `rings` for modes
    /// without rejection).
    pub surviving_rings: usize,
    /// Containment radius: 1σ circular error for ML/classical modes, the
    /// 90 % credible radius for the sky-map mode (degrees).
    pub containment_radius_deg: f64,
    /// Which estimator produced the containment radius.
    pub containment_source: ContainmentSource,
    /// Whether a level failed and the cascade fell through.
    pub fell_through: bool,
}

/// The epoch → localization engine shared by the single-stream
/// [`FlightRuntime`] worker and the ground-segment localization pool:
/// reconstruction, the four-rung degradation cascade, and containment
/// estimation. Holds the *shared* compiled plans by reference (build
/// once, execute from N workers); callers bring a per-worker
/// [`InferenceWorkspace`] and RNG, so the struct itself is immutable and
/// usable from many threads.
pub struct EpochLocalizer<'a> {
    recon: Reconstructor,
    full_ml: MlLocalizer<'a>,
    reduced_ml: MlLocalizer<'a>,
    baseline: BaselineLocalizer,
    coarse_pixels: usize,
    pixelization: SkyPixelization,
    recorder: &'a dyn Recorder,
}

impl<'a> EpochLocalizer<'a> {
    /// Assemble from the trained models and the pre-compiled float plan.
    /// The INT8 plan is taken from the model set's shared plan cache
    /// (`QuantizedMlp::plan`), so N workers constructed this way execute
    /// the same flat buffers without duplicating them.
    pub fn new(
        models: &'a TrainedModels,
        compiled_background: &'a CompiledMlp,
        reduced_iterations: usize,
        coarse_pixels: usize,
        pixelization: SkyPixelization,
        recorder: &'a dyn Recorder,
    ) -> Self {
        let full_ml = MlLocalizer::new(
            compiled_background,
            &models.thresholds,
            &models.d_eta,
            MlPipelineConfig::default(),
        )
        .with_recorder(recorder);
        let reduced_cfg = MlPipelineConfig {
            max_ml_iterations: reduced_iterations,
            ..MlPipelineConfig::default()
        };
        let reduced_ml = MlLocalizer::new(
            models.quantized_background.plan(),
            &models.thresholds,
            &models.d_eta,
            reduced_cfg,
        )
        .with_recorder(recorder);
        EpochLocalizer {
            recon: Reconstructor::default(),
            full_ml,
            reduced_ml,
            baseline: BaselineLocalizer::new(LocalizerConfig::default()),
            coarse_pixels,
            pixelization,
            recorder,
        }
    }

    /// Reconstruct and localize one epoch starting at `level`, falling
    /// through the ladder on localization failure. Returns `None` when
    /// no rings reconstruct or every rung fails.
    pub fn localize_epoch<R: rand::Rng + ?Sized>(
        &self,
        epoch: &OpenEpoch,
        level: DegradationLevel,
        rng: &mut R,
        ws: &mut InferenceWorkspace,
    ) -> Option<EpochOutcome> {
        let recorder = self.recorder;
        let mut level = level;
        let t_recon = Instant::now();
        let (rings, _counts) = self.recon.reconstruct_all_counted(&epoch.events, recorder);
        recorder.duration(Stage::Reconstruction, t_recon.elapsed());
        if rings.is_empty() {
            // nothing to localize; the epoch is spent
            return None;
        }

        // degradation cascade: a failed localization falls through to
        // the next rung
        let mut fell_through = false;
        let outcome = loop {
            let attempt = match level {
                DegradationLevel::FullMl => self
                    .full_ml
                    .localize_with(&rings, rng, ws)
                    .map(|r| (r.direction, r.surviving_rings, None)),
                DegradationLevel::ReducedMl => self
                    .reduced_ml
                    .localize_with(&rings, rng, ws)
                    .map(|r| (r.direction, r.surviving_rings, None)),
                DegradationLevel::CoarseSkymap => {
                    let map = SkyPosterior::from_rings_adaptive_tempered_recorded(
                        self.pixelization,
                        &rings,
                        self.coarse_pixels,
                        3.0,
                        default_temperature(rings.len()),
                        recorder,
                    );
                    Some((map.mode(), rings.len(), Some(map.credible_radius_deg(0.9))))
                }
                DegradationLevel::Classical => self
                    .baseline
                    .localize(&rings, rng)
                    .map(|r| (r.direction, rings.len(), None)),
            };
            match attempt {
                Some(out) => break Some(out),
                None => {
                    let next = match level {
                        DegradationLevel::FullMl => DegradationLevel::ReducedMl,
                        DegradationLevel::ReducedMl => DegradationLevel::CoarseSkymap,
                        // the sky map cannot fail on non-empty rings;
                        // classical can — fall back to the sky map and
                        // stop
                        DegradationLevel::Classical => DegradationLevel::CoarseSkymap,
                        DegradationLevel::CoarseSkymap => break None,
                    };
                    level = next;
                    fell_through = true;
                }
            }
        };
        let (direction, surviving, skymap_radius) = outcome?;

        let containment_source = if skymap_radius.is_some() {
            ContainmentSource::Skymap
        } else {
            ContainmentSource::Heuristic
        };
        let containment = skymap_radius.unwrap_or_else(|| {
            estimate_uncertainty(&rings, direction, 3.0)
                .map(|u| u.sigma_circular_deg())
                .unwrap_or(60.0)
                .min(180.0)
        });
        Some(EpochOutcome {
            direction,
            level,
            rings: rings.len(),
            surviving_rings: surviving,
            containment_radius_deg: containment,
            containment_source,
            fell_through,
        })
    }
}

/// The degradation ladder's learned state, shared by every worker of a
/// runtime: the per-level EWMA cost model and the level the latest alert
/// was served at. One lock guards both, so a checkpoint captures them
/// together.
#[derive(Debug, Clone)]
pub struct LadderState {
    /// Per-level compute-cost estimates (ms), ladder order.
    pub cost_model_ms: [f64; 4],
    /// Level of the most recently served epoch.
    pub level: DegradationLevel,
}

impl Default for LadderState {
    fn default() -> Self {
        LadderState {
            cost_model_ms: COST_PRIORS_MS,
            level: DegradationLevel::FullMl,
        }
    }
}

/// What [`EpochServer::serve`] produced for one epoch.
#[derive(Debug, Clone)]
pub struct ServedEpoch {
    /// The alert, already recorded and counted.
    pub alert: GrbAlert,
    /// Why the requested level was chosen (`"pinned"` in deterministic
    /// mode, else the [`choose_level`] reason).
    pub reason: &'static str,
    /// Whether the requested level failed and the cascade fell through.
    pub fell_through: bool,
    /// The ladder level before this epoch was served.
    pub previous_level: DegradationLevel,
}

/// The dequeued-epoch → [`GrbAlert`] step, run by the flight runtime's
/// worker and by every ground-pool worker: choose the ladder level
/// against the epoch's remaining deadline, localize it with its per-epoch
/// RNG, emit the `queue-wait`/`schedule`/`localize` spans and the alert
/// record, and learn the observed cost. One per worker (it owns the
/// worker's [`InferenceWorkspace`]); the [`LadderState`] is shared.
pub struct EpochServer<'a> {
    localizer: EpochLocalizer<'a>,
    ws: InferenceWorkspace,
    ladder: &'a Mutex<LadderState>,
    deadline_ms: f64,
    safety_factor: f64,
    deterministic: bool,
}

impl<'a> EpochServer<'a> {
    /// A worker's server. `deterministic` pins `full-ml`; otherwise a
    /// level's cost estimate must fit `safety_factor` of what is left of
    /// `deadline_ms` once the epoch has waited.
    pub fn new(
        localizer: EpochLocalizer<'a>,
        ladder: &'a Mutex<LadderState>,
        deadline_ms: f64,
        safety_factor: f64,
        deterministic: bool,
    ) -> Self {
        EpochServer {
            localizer,
            ws: InferenceWorkspace::new(),
            ladder,
            deadline_ms,
            safety_factor,
            deterministic,
        }
    }

    /// Serve one dequeued epoch. `backlog` is the caller's queue-pressure
    /// reading for [`choose_level`]; `worker`, when given, is named in
    /// the `schedule` span; `depths` reads the caller's `(ingest, epoch)`
    /// queue depths for the `localize` span and the alert. `None` when
    /// the epoch yields nothing to localize.
    pub fn serve(
        &mut self,
        job: &EpochJob,
        backlog: usize,
        worker: Option<usize>,
        depths: impl Fn() -> (usize, usize),
    ) -> Option<ServedEpoch> {
        let recorder = self.localizer.recorder;
        let waited_ms = job.ready.elapsed().as_secs_f64() * 1e3;
        let (chosen, reason) = if self.deterministic {
            (DegradationLevel::FullMl, "pinned")
        } else {
            let ladder = self.ladder.lock().expect("ladder lock poisoned");
            let budget_ms = (self.deadline_ms - waited_ms) * self.safety_factor;
            choose_level(&ladder.cost_model_ms, budget_ms, backlog)
        };

        // child spans of the epoch's `trigger` root; the trace id and
        // details are only formatted when a recorder listens
        let traced = recorder.is_enabled();
        let span = |name: &str, start: f64, dur: f64, depth: usize, detail: String| {
            recorder.trace_span(&TraceSpanRecord {
                trace_id: job.trace_id(),
                span: name.into(),
                parent: Some("trigger".into()),
                t_s: job.epoch.t_trigger_s,
                start_ms: start,
                duration_ms: dur,
                queue_depth: depth as u64,
                detail,
            });
        };
        if traced {
            span("queue-wait", 0.0, waited_ms, backlog, String::new());
            let worker = worker.map(|w| format!(" worker={w}")).unwrap_or_default();
            let detail = format!("level={} reason={reason}{worker}", chosen.name());
            span("schedule", waited_ms, 0.0, backlog, detail);
        }

        let mut rng = ChaCha8Rng::seed_from_u64(epoch_rng_seed(job.localizer_seed, job.index));
        let t_compute = Instant::now();
        let out = self
            .localizer
            .localize_epoch(&job.epoch, chosen, &mut rng, &mut self.ws)?;
        let compute = t_compute.elapsed();
        let compute_ms = compute.as_secs_f64() * 1e3;
        recorder.duration(Stage::Total, compute);
        if traced {
            let detail = format!("level={} rings={}", out.level.name(), out.rings);
            span("localize", waited_ms, compute_ms, depths().1, detail);
        }

        let latency = job.ready.elapsed();
        recorder.duration(Stage::AlertLatency, latency);
        let (ingest_depth, epoch_depth) = depths();
        let alert = GrbAlert {
            t_trigger_s: job.epoch.t_trigger_s,
            significance_sigma: job.epoch.significance_sigma,
            polar_deg: polar_angle_deg(out.direction),
            azimuth_deg: rad_to_deg(out.direction.azimuth()),
            containment_radius_deg: out.containment_radius_deg,
            containment_source: out.containment_source,
            mode: out.level,
            rings: out.rings,
            surviving_rings: out.surviving_rings,
            latency_ms: latency.as_secs_f64() * 1e3,
            deadline_ms: self.deadline_ms,
            ingest_depth,
            epoch_depth,
        };
        recorder.add(Counter::AlertsEmitted, 1);
        recorder.alert(&AlertRecord {
            t_s: alert.t_trigger_s,
            mode: out.level.name().to_string(),
            polar_deg: alert.polar_deg,
            azimuth_deg: alert.azimuth_deg,
            containment_radius_deg: alert.containment_radius_deg,
            containment_source: alert.containment_source.name().to_string(),
            latency_ms: alert.latency_ms,
            rings: alert.rings as u64,
            ingest_depth: alert.ingest_depth as u64,
            epoch_depth: alert.epoch_depth as u64,
        });

        let previous_level = {
            let mut ladder = self.ladder.lock().expect("ladder lock poisoned");
            let slot = out.level.slot();
            ladder.cost_model_ms[slot] =
                (1.0 - COST_ALPHA) * ladder.cost_model_ms[slot] + COST_ALPHA * compute_ms;
            std::mem::replace(&mut ladder.level, out.level)
        };
        Some(ServedEpoch {
            alert,
            reason,
            fell_through: out.fell_through,
            previous_level,
        })
    }
}

/// Live-registry handles of the flight runtime, registered once per run.
/// Metric names follow the watchdog conventions in
/// `adapt_telemetry::health`: `*_queue_depth`/`*_queue_capacity` pairs
/// drive queue-saturation, `adapt_alert_latency_ms` drives the
/// deadline-burn rate, `adapt_alerts_emitted_total` the alert-rate
/// budget.
struct FlightLive {
    events_ingested: CounterHandle,
    events_dropped: CounterHandle,
    epochs_opened: CounterHandle,
    alerts_emitted: CounterHandle,
    false_alerts: CounterHandle,
    missed_bursts: CounterHandle,
    degradations: CounterHandle,
    per_level: [CounterHandle; 4],
    ingest_depth: GaugeHandle,
    epoch_depth: GaugeHandle,
    level_gauge: GaugeHandle,
    scenario_components: GaugeHandle,
    alert_latency: HistogramHandle,
}

impl FlightLive {
    fn register(observer: &LiveObserver, config: &RuntimeConfig) -> Self {
        let reg = observer.registry();
        reg.gauge("adapt_ingest_queue_capacity", &[("queue", "ingest")])
            .set(config.ingest_capacity as f64);
        reg.gauge("adapt_epoch_queue_capacity", &[("queue", "epoch")])
            .set(config.epoch_capacity as f64);
        FlightLive {
            events_ingested: reg.counter("adapt_events_ingested_total", &[]),
            events_dropped: reg.counter("adapt_events_dropped_total", &[]),
            epochs_opened: reg.counter("adapt_epochs_opened_total", &[]),
            alerts_emitted: reg.counter("adapt_alerts_emitted_total", &[("stream", "0")]),
            false_alerts: reg.counter("adapt_false_alerts_total", &[]),
            missed_bursts: reg.counter("adapt_missed_bursts_total", &[]),
            degradations: reg.counter("adapt_degradation_transitions_total", &[]),
            per_level: DegradationLevel::ALL
                .map(|l| reg.counter("adapt_epochs_localized_total", &[("level", l.name())])),
            ingest_depth: reg.gauge("adapt_ingest_queue_depth", &[("queue", "ingest")]),
            epoch_depth: reg.gauge("adapt_epoch_queue_depth", &[("queue", "epoch")]),
            level_gauge: reg.gauge("adapt_degradation_level", &[]),
            scenario_components: reg.gauge("adapt_scenario_components_active", &[]),
            alert_latency: reg.histogram("adapt_alert_latency_ms", &[]),
        }
    }
}

/// The streaming flight runtime. Borrows the trained models; construct
/// once, run one stream per call.
pub struct FlightRuntime<'a> {
    models: &'a TrainedModels,
    config: RuntimeConfig,
    recorder: &'a dyn Recorder,
    live: Option<&'a LiveObserver>,
}

impl<'a> FlightRuntime<'a> {
    /// A runtime with the default no-op recorder.
    pub fn new(models: &'a TrainedModels, config: RuntimeConfig) -> Self {
        FlightRuntime {
            models,
            config,
            recorder: adapt_telemetry::noop(),
            live: None,
        }
    }

    /// Attach a telemetry recorder (queue gauges, stage histograms,
    /// degradation transitions, alert records).
    pub fn with_recorder(mut self, recorder: &'a dyn Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Attach a live observer: the runtime registers its counters,
    /// queue gauges, and latency histogram into the observer's registry
    /// and drives the periodic snapshot clock from stream time.
    pub fn with_live(mut self, live: &'a LiveObserver) -> Self {
        self.live = Some(live);
        self
    }

    /// Run a fresh stream to completion (or to the simulated kill).
    pub fn run(&self, source: StreamingSource) -> FlightRunReport {
        let trigger = OnlineTrigger::new(self.config.trigger.clone());
        self.run_inner(source, trigger, LadderState::default(), 0, Vec::new())
    }

    /// Resume from a checkpoint: the source is deterministically skipped
    /// past the checkpointed position, the trigger (including any open
    /// epoch) and the scheduler's learned state pick up where they were.
    pub fn resume(&self, mut source: StreamingSource, ckpt: Checkpoint) -> FlightRunReport {
        source.skip_until(ckpt.t_s);
        let mut ladder = LadderState {
            level: ckpt.level,
            ..LadderState::default()
        };
        for (cost, ms) in ladder.cost_model_ms.iter_mut().zip(&ckpt.cost_model_ms) {
            *cost = *ms;
        }
        self.run_inner(source, ckpt.trigger, ladder, ckpt.epoch_index, ckpt.alerts)
    }

    fn run_inner(
        &self,
        source: StreamingSource,
        trigger: OnlineTrigger,
        ladder: LadderState,
        epoch_index: u64,
        prior_alerts: Vec<GrbAlert>,
    ) -> FlightRunReport {
        let config = &self.config;
        let recorder = self.recorder;
        let models = self.models;
        let live = self.live;
        let flm = live.map(|obs| FlightLive::register(obs, config));
        // surface the hostile-sky injection set: how many scenario
        // components shape this stream (0 on a quiet sky)
        let n_components = source.scenario().components.len();
        if let Some(m) = &flm {
            m.scenario_components.set(n_components as f64);
        }
        if n_components > 0 {
            recorder.add(Counter::ScenarioComponentsActive, n_components as u64);
        }
        // compile both shared plans on this thread, before workers race
        models.quantized_background.plan();
        let compiled_background = CompiledMlp::compile(&models.background);

        let ingest_q: BoundedQueue<adapt_sim::StreamedEvent> =
            BoundedQueue::new("ingest", config.ingest_capacity, DropPolicy::DropNewest);
        let epoch_q: BoundedQueue<EpochJob> =
            BoundedQueue::new("epoch", config.epoch_capacity, DropPolicy::Block);
        let killed = AtomicBool::new(false);
        let alerts: Mutex<Vec<GrbAlert>> = Mutex::new(prior_alerts);
        let transitions: Mutex<Vec<DegradationRecord>> = Mutex::new(Vec::new());
        let ladder = Mutex::new(ladder);
        let epochs_dispatched = AtomicU64::new(0);
        let checkpoint_written = AtomicBool::new(false);

        let t_start = Instant::now();
        let stream_stats = std::thread::scope(|scope| {
            // ── ingest: source → ingest queue, shedding under pressure ──
            let ingest = scope.spawn(|| {
                let mut source = source;
                let kill_at = config.kill_at_s;
                for se in &mut source {
                    if let Some(k) = kill_at {
                        if se.t_s > k {
                            killed.store(true, Ordering::SeqCst);
                            break;
                        }
                    }
                    let t_s = se.t_s;
                    if ingest_q.push(se) {
                        recorder.add(Counter::EventsIngested, 1);
                        if let Some(m) = &flm {
                            m.events_ingested.inc();
                        }
                    } else {
                        recorder.add(Counter::EventsDropped, 1);
                        if let Some(m) = &flm {
                            m.events_dropped.inc();
                        }
                    }
                    recorder.queue_depth("ingest", ingest_q.len() as u64);
                    if let Some(obs) = live {
                        if let Some(m) = &flm {
                            m.ingest_depth.set(ingest_q.len() as f64);
                        }
                        obs.tick(t_s);
                    }
                }
                ingest_q.close();
                source.stats()
            });

            // ── trigger: ingest queue → epochs, plus checkpointing ──
            scope.spawn(|| {
                let mut trigger = trigger;
                let mut next_index = epoch_index;
                let mut next_ckpt_s = if config.checkpoint_every_s > 0.0 {
                    trigger.last_t_s() + config.checkpoint_every_s
                } else {
                    f64::INFINITY
                };
                let write_ckpt = |trigger: &OnlineTrigger, next_index: u64| {
                    let Some(path) = &config.checkpoint_path else {
                        return;
                    };
                    let ls = ladder.lock().unwrap();
                    let ck = Checkpoint {
                        schema: CHECKPOINT_SCHEMA,
                        t_s: trigger.last_t_s(),
                        trigger: trigger.clone(),
                        cost_model_ms: ls.cost_model_ms.to_vec(),
                        level: ls.level,
                        epoch_index: next_index,
                        alerts: alerts.lock().unwrap().clone(),
                    };
                    drop(ls);
                    if ck.save(path).is_ok() {
                        recorder.add(Counter::CheckpointsWritten, 1);
                        checkpoint_written.store(true, Ordering::SeqCst);
                    }
                };
                let dispatch = |epoch: OpenEpoch, next_index: &mut u64| {
                    if let Some(m) = &flm {
                        m.epochs_opened.inc();
                    }
                    let job = EpochJob::open(
                        0,
                        *next_index,
                        config.seed,
                        epoch,
                        ingest_q.len(),
                        recorder,
                    );
                    *next_index += 1;
                    epochs_dispatched.fetch_add(1, Ordering::SeqCst);
                    epoch_q.push(job);
                    recorder.queue_depth("epoch", epoch_q.len() as u64);
                    if let Some(m) = &flm {
                        m.epoch_depth.set(epoch_q.len() as f64);
                    }
                };
                let onsets = &config.truth_onsets_s;
                let near_truth = |t: f64| {
                    onsets
                        .iter()
                        .any(|&o| t >= o - 1.0 && t <= o + config.truth_window_s)
                };
                while let Some(se) = ingest_q.pop() {
                    let want_detail =
                        recorder.is_enabled() && !onsets.is_empty() && near_truth(se.t_s);
                    let (done, decision) = trigger.observe_explained(&se, want_detail);
                    if let Some(rec) = decision {
                        if recorder.is_enabled() {
                            recorder.trigger_decision(&rec);
                        }
                    }
                    if let Some(done) = done {
                        dispatch(done, &mut next_index);
                    }
                    if se.t_s >= next_ckpt_s {
                        write_ckpt(&trigger, next_index);
                        next_ckpt_s += config.checkpoint_every_s;
                    }
                }
                if killed.load(Ordering::SeqCst) {
                    // simulated process death: persist state, do NOT
                    // flush the open epoch — restore must recover it
                    write_ckpt(&trigger, next_index);
                } else if let Some(tail) = trigger.flush() {
                    dispatch(tail, &mut next_index);
                }
                epoch_q.close();
            });

            // ── worker: epochs → alerts, degrading to meet the deadline ──
            scope.spawn(|| {
                let localizer = EpochLocalizer::new(
                    models,
                    &compiled_background,
                    config.reduced_iterations,
                    config.coarse_pixels,
                    config.pixelization,
                    recorder,
                );
                let mut server = EpochServer::new(
                    localizer,
                    &ladder,
                    config.deadline_ms,
                    config.safety_factor,
                    config.deterministic,
                );
                while let Some(job) = epoch_q.pop() {
                    let depths = || (ingest_q.len(), epoch_q.len());
                    let Some(served) = server.serve(&job, epoch_q.len(), None, depths) else {
                        continue;
                    };
                    let level = served.alert.mode;
                    if let Some(m) = &flm {
                        m.alerts_emitted.inc();
                        m.per_level[level.slot()].inc();
                        m.level_gauge.set(level.slot() as f64);
                        m.alert_latency.record_ms(served.alert.latency_ms);
                        m.epoch_depth.set(epoch_q.len() as f64);
                    }
                    alerts.lock().unwrap().push(served.alert);

                    // record any transition
                    let previous = served.previous_level;
                    if previous != level {
                        let reason = if level.slot() < previous.slot() {
                            "recovered"
                        } else if served.fell_through {
                            "localization-failed"
                        } else {
                            served.reason
                        };
                        let rec = DegradationRecord {
                            t_s: job.epoch.t_trigger_s,
                            from: previous.name().to_string(),
                            to: level.name().to_string(),
                            reason: reason.to_string(),
                        };
                        recorder.add(Counter::DegradationTransitions, 1);
                        if let Some(m) = &flm {
                            m.degradations.inc();
                        }
                        recorder.degradation(&rec);
                        transitions.lock().unwrap().push(rec);
                    }
                }
            });

            ingest.join().expect("ingest thread panicked")
        });

        let wall_s = t_start.elapsed().as_secs_f64();
        let ingest_stats = ingest_q.stats();
        let alerts = alerts.into_inner().unwrap();
        if !config.truth_onsets_s.is_empty() {
            let truth =
                match_alerts_to_truth(&alerts, &config.truth_onsets_s, config.truth_window_s);
            recorder.add(Counter::FalseAlerts, truth.false_alerts as u64);
            recorder.add(Counter::MissedBursts, truth.missed as u64);
            if let Some(m) = &flm {
                m.false_alerts.add(truth.false_alerts as u64);
                m.missed_bursts.add(truth.missed as u64);
            }
        }
        FlightRunReport {
            alerts,
            transitions: transitions.into_inner().unwrap(),
            ingest_stats,
            epoch_stats: epoch_q.stats(),
            epochs_dispatched: epochs_dispatched.load(Ordering::SeqCst),
            stream_stats,
            wall_s,
            sustained_events_per_s: ingest_stats.pushed as f64 / wall_s.max(1e-9),
            killed: killed.load(Ordering::SeqCst),
            checkpoint_written: checkpoint_written.load(Ordering::SeqCst),
        }
    }
}

/// Pick the best ladder level whose cost estimate fits the budget, under
/// epoch-backlog pressure gates. Returns the level and the reason a
/// better level was rejected (`"nominal"` when none was). Shared with
/// the ground-segment pool scheduler, which feeds it a per-worker
/// normalized backlog.
pub fn choose_level(
    cost_model_ms: &[f64; 4],
    budget_ms: f64,
    backlog: usize,
) -> (DegradationLevel, &'static str) {
    let mut reason = "nominal";
    for level in DegradationLevel::ALL {
        let slot = level.slot();
        // deeper backlog forbids the more expensive rungs outright
        if backlog > slot {
            reason = "queue-pressure";
            continue;
        }
        if cost_model_ms[slot] <= budget_ms {
            return (level, reason);
        }
        reason = "deadline-budget";
    }
    (DegradationLevel::Classical, reason)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn containment_source_defaults_to_heuristic_on_old_alerts() {
        // Checkpoints written before the field existed must resume: a
        // GrbAlert without `containment_source` deserializes to the
        // heuristic estimator (which is what every old alert used
        // outside the sky-map rung, and conservative for it).
        let json = r#"{
            "t_trigger_s": 1.0, "significance_sigma": 9.0,
            "polar_deg": 10.0, "azimuth_deg": 20.0,
            "containment_radius_deg": 2.5, "mode": "FullMl",
            "rings": 50, "surviving_rings": 40, "latency_ms": 12.0,
            "deadline_ms": 500.0, "ingest_depth": 0, "epoch_depth": 0
        }"#;
        let alert: GrbAlert = serde_json::from_str(json).expect("legacy alert deserializes");
        assert_eq!(alert.containment_source, ContainmentSource::Heuristic);
        // And the new field round-trips through its stable names.
        for src in [ContainmentSource::Skymap, ContainmentSource::Heuristic] {
            assert_eq!(ContainmentSource::parse(src.name()), Some(src));
            let encoded = serde_json::to_string(&src).unwrap();
            assert_eq!(encoded, format!("\"{}\"", src.name()));
        }
        assert_eq!(ContainmentSource::parse("psychic"), None);
    }

    #[test]
    fn ladder_names_are_stable_and_ordered() {
        let names: Vec<&str> = DegradationLevel::ALL.iter().map(|l| l.name()).collect();
        assert_eq!(
            names,
            ["full-ml", "reduced-ml", "coarse-skymap", "classical"]
        );
        for (i, l) in DegradationLevel::ALL.into_iter().enumerate() {
            assert_eq!(l.slot(), i);
        }
    }

    #[test]
    fn choose_level_degrades_with_budget_and_backlog() {
        let cost = [40.0, 20.0, 8.0, 4.0];
        assert_eq!(choose_level(&cost, 400.0, 0).0, DegradationLevel::FullMl);
        let (l, why) = choose_level(&cost, 25.0, 0);
        assert_eq!(l, DegradationLevel::ReducedMl);
        assert_eq!(why, "deadline-budget");
        let (l, why) = choose_level(&cost, 400.0, 2);
        assert_eq!(l, DegradationLevel::CoarseSkymap);
        assert_eq!(why, "queue-pressure");
        // nothing fits: classical, always
        let (l, why) = choose_level(&cost, 0.5, 0);
        assert_eq!(l, DegradationLevel::Classical);
        assert_eq!(why, "deadline-budget");
    }

    #[test]
    fn truth_matching_classifies_alerts_and_onsets() {
        let mk = |t: f64| GrbAlert {
            t_trigger_s: t,
            significance_sigma: 8.0,
            polar_deg: 0.0,
            azimuth_deg: 0.0,
            containment_radius_deg: 1.0,
            containment_source: ContainmentSource::Heuristic,
            mode: DegradationLevel::FullMl,
            rings: 1,
            surviving_rings: 1,
            latency_ms: 10.0,
            deadline_ms: 500.0,
            ingest_depth: 0,
            epoch_depth: 0,
        };
        // onset 100 detected (two alerts, first wins), onset 300 missed,
        // alert at 200 matches nothing
        let alerts = vec![mk(100.4), mk(104.0), mk(200.0)];
        let truth = match_alerts_to_truth(&alerts, &[100.0, 300.0], 10.0);
        assert_eq!(truth.n_truth, 2);
        assert_eq!(truth.n_alerts, 3);
        assert_eq!(truth.detected, 1);
        assert_eq!(truth.missed, 1);
        assert_eq!(truth.false_alerts, 1);
        assert_eq!(truth.latencies_s.len(), 1);
        assert!((truth.latencies_s[0] - 0.4).abs() < 1e-9);
        assert!((truth.detection_efficiency() - 0.5).abs() < 1e-12);
        // no truth: efficiency is vacuously 1, everything is false
        let truth = match_alerts_to_truth(&alerts, &[], 10.0);
        assert_eq!(truth.false_alerts, 3);
        assert!((truth.detection_efficiency() - 1.0).abs() < 1e-12);
    }
}
