//! Measures the localization hot-loop optimizations on this host and
//! writes `BENCH_pipeline.json` (checked into the repo root):
//!
//! * batched background-net inference — layer-walking `Mlp::predict`
//!   vs the BN-folded `CompiledMlp::forward_batch` plan (256 rings);
//! * batched INT8 inference — the per-sample scalar reference
//!   (`QuantizedMlp::forward_one_reference`, the old `forward_int8`
//!   loop) vs the compiled fixed-point plan's
//!   `CompiledQuantMlp::forward_batch` (256 rings), plus the max logit
//!   divergence against the float plan and the background-accuracy
//!   delta on a fresh burst;
//! * end-to-end `Pipeline::run_trial` latency in ML mode, which now
//!   reuses one `InferenceWorkspace` per thread across trials.
//!
//! Scale repetitions with `ADAPT_TIMING_REPS`; the output path can be
//! overridden with `ADAPT_BENCH_OUT`.

use adapt_bench::{existing_schema, EnvReport};
use adapt_core::prelude::*;
use adapt_localize::{SkyPixelization, SkyPosterior};
use adapt_math::sampling::{isotropic_direction, standard_normal};
use adapt_math::vec3::UnitVec3;
use adapt_nn::mlp::BlockOrder;
use adapt_nn::{models, sigmoid, CompiledMlp, InferenceScratch, Matrix, QuantScratch};
use adapt_recon::{ComptonRing, RingFeatures};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

#[derive(Serialize)]
struct InferenceReport {
    mlp_predict_us: f64,
    compiled_forward_batch_us: f64,
    speedup: f64,
    max_abs_logit_diff: f64,
}

#[derive(Serialize)]
struct QuantInferenceReport {
    per_sample_reference_us: f64,
    compiled_forward_batch_us: f64,
    speedup: f64,
    max_abs_logit_diff_vs_float: f64,
    background_accuracy_float: f64,
    background_accuracy_int8: f64,
    background_accuracy_delta: f64,
}

/// One vectorized hot kernel measured against its portable twin on the
/// same inputs (forced via the runtime dispatch override, not a rebuild).
#[derive(Serialize)]
struct KernelReport {
    kernel: String,
    isa: String,
    portable_us: f64,
    simd_us: f64,
    speedup: f64,
    /// Largest output divergence between the two paths. Exactly 0.0 for
    /// the INT8 GEMM and the skymap sweep (bit-exact contract); small
    /// but nonzero for the f64 GEMM (FMA re-rounds each accumulate).
    max_abs_diff_vs_portable: f64,
}

/// Report schema version. Bump when the report's shape changes; the
/// writer refuses to clobber a file written by a *newer* schema so a
/// stale binary cannot silently downgrade checked-in results.
const BENCH_SCHEMA: u64 = 4;

#[derive(Serialize)]
struct BenchReport {
    schema: u64,
    description: String,
    repetitions: usize,
    env: EnvReport,
    background_net_inference_256_rings: InferenceReport,
    int8_background_net_inference_256_rings: QuantInferenceReport,
    /// Per-kernel SIMD-vs-portable micro-benchmarks (the regression
    /// gate's inputs — see `bench_gate`).
    kernels: Vec<KernelReport>,
    pipeline_trial_ml_ms: f64,
    /// Per-stage latency percentiles (paper Tables I/II protocol) from
    /// the telemetry histograms.
    stage_timing: adapt_core::TimingTable,
}

/// Median wall-clock seconds of `f` over `reps` timed repetitions
/// (after 3 warm-up calls).
fn median_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    for _ in 0..3 {
        black_box(f());
    }
    let mut samples: Vec<f64> = (0..reps.max(5))
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn synthetic_rings(n: usize, seed: u64) -> Vec<ComptonRing> {
    let source = UnitVec3::from_spherical(0.5, 1.0);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let axis = isotropic_direction(&mut rng);
            let eta =
                (axis.cos_angle_to(source) + 0.02 * standard_normal(&mut rng)).clamp(-0.999, 0.999);
            ComptonRing {
                axis,
                eta,
                d_eta: 0.02,
                features: RingFeatures::zeroed(),
                truth: None,
            }
        })
        .collect()
}

fn main() {
    let reps = adapt_bench::timing_reps();

    // -- batched background-net inference: Mlp::predict vs CompiledMlp --
    let mut rng = ChaCha8Rng::seed_from_u64(40);
    let mut net = models::background_network(13, BlockOrder::BatchNormFirst, &mut rng);
    let calib = Matrix::he_uniform(256, 13, &mut rng);
    net.forward(&calib, true); // realistic BN running statistics
    let plan = CompiledMlp::compile(&net);
    let batch = Matrix::he_uniform(256, 13, &mut rng);

    let predict_s = median_secs(reps, || net.predict(&batch));
    let mut scratch = InferenceScratch::new();
    let compiled_s = median_secs(reps, || plan.forward_batch(&batch, &mut scratch)[0]);
    let reference = net.predict(&batch);
    let max_abs_diff = plan
        .forward_batch(&batch, &mut scratch)
        .iter()
        .zip(reference.as_slice())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);

    // -- int8 inference: per-sample scalar reference vs compiled plan --
    let models = adapt_bench::shared_models();
    let pipeline = Pipeline::new(&models);
    let qnet = &models.quantized_background;
    let polar_deg = 40.0;
    let (bench_rings, _) = pipeline.simulate_rings(
        &GrbConfig::new(2.0, polar_deg),
        PerturbationConfig::default(),
        0xFEED,
    );
    assert!(!bench_rings.is_empty(), "burst produced no rings");
    // 256 feature rows drawn from the real reconstructed-ring
    // distribution (cycled if the burst yielded fewer)
    let feature_rows: Vec<Vec<f64>> = (0..256)
        .map(|i| {
            bench_rings[i % bench_rings.len()]
                .features
                .to_model_input(polar_deg)
                .to_vec()
        })
        .collect();
    let feat = Matrix::from_rows(&feature_rows);

    let per_sample_s = median_secs(reps, || {
        feature_rows
            .iter()
            .map(|r| qnet.forward_one_reference(r))
            .sum::<f64>()
    });
    let qplan = qnet.plan();
    let mut qscratch = QuantScratch::new();
    let batched_s = median_secs(reps, || qplan.forward_batch(&feat, &mut qscratch)[0]);

    // `quantized_background` is quantized from the QAT-fine-tuned
    // LinearFirst parent, so that parent is the FP32 side of the
    // divergence / accuracy comparison (as in the Fig.-11 experiments)
    let float_plan = CompiledMlp::compile(&models.background_linear_first);
    let float_logits = float_plan.forward_batch(&feat, &mut scratch).to_vec();
    let int8_logits = qplan.forward_batch(&feat, &mut qscratch).to_vec();
    let max_int8_float_diff = int8_logits
        .iter()
        .zip(&float_logits)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);

    // background-classification accuracy on the fresh burst, both backends
    let mut correct_float = 0usize;
    let mut correct_int8 = 0usize;
    for r in &bench_rings {
        let x = r.features.to_model_input(polar_deg);
        let truth = r.is_background_truth();
        let p_float = sigmoid(models.background_linear_first.predict_one(&x));
        let p_int8 = sigmoid(qnet.forward_one(&x));
        if models.thresholds.is_background(p_float, polar_deg) == truth {
            correct_float += 1;
        }
        if models.thresholds.is_background(p_int8, polar_deg) == truth {
            correct_int8 += 1;
        }
    }
    let acc_float = correct_float as f64 / bench_rings.len() as f64;
    let acc_int8 = correct_int8 as f64 / bench_rings.len() as f64;

    // -- per-kernel dispatch micro-benches: portable vs vectorized on
    //    identical inputs, toggled at runtime (no rebuild); the sweep
    //    row is an untempered 12k-pixel raster map over 600 rings --
    let rings = synthetic_rings(600, 42);
    let flat = || {
        SkyPosterior::from_rings_adaptive_tempered_recorded(
            SkyPixelization::Raster,
            &rings,
            12_000,
            3.0,
            1.0,
            adapt_telemetry::noop(),
        )
    };
    adapt_nn::set_force_portable(true);
    let int8_portable_s = median_secs(reps, || qplan.forward_batch(&feat, &mut qscratch)[0]);
    let int8_portable = qplan.forward_batch(&feat, &mut qscratch).to_vec();
    let f64_portable_s = median_secs(reps, || plan.forward_batch(&batch, &mut scratch)[0]);
    let f64_portable = plan.forward_batch(&batch, &mut scratch).to_vec();
    let sweep_portable_s = median_secs(reps.min(20), flat);
    let sweep_portable = flat();
    adapt_nn::set_force_portable(false);
    let isa = adapt_nn::active_isa();
    let int8_simd_s = median_secs(reps, || qplan.forward_batch(&feat, &mut qscratch)[0]);
    let int8_simd = qplan.forward_batch(&feat, &mut qscratch).to_vec();
    let f64_simd_s = median_secs(reps, || plan.forward_batch(&batch, &mut scratch)[0]);
    let f64_simd = plan.forward_batch(&batch, &mut scratch).to_vec();
    let sweep_simd_s = median_secs(reps.min(20), flat);
    let sweep_simd = flat();
    // back to the env-derived default for the end-to-end sections below
    adapt_nn::set_force_portable(
        std::env::var("ADAPT_FORCE_PORTABLE")
            .map(|v| v == "1")
            .unwrap_or(false),
    );
    let max_diff = |a: &[f64], b: &[f64]| {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f64, f64::max)
    };
    let kernel_row = |kernel: &str, portable_s: f64, simd_s: f64, diff: f64| KernelReport {
        kernel: kernel.into(),
        isa: isa.to_string(),
        portable_us: portable_s * 1e6,
        simd_us: simd_s * 1e6,
        speedup: portable_s / simd_s,
        max_abs_diff_vs_portable: diff,
    };
    let int8_kernel_diff = max_diff(&int8_simd, &int8_portable);
    assert_eq!(
        int8_kernel_diff, 0.0,
        "INT8 SIMD kernel must be bit-exact against the portable plan"
    );
    let kernels = vec![
        kernel_row(
            "int8_gemm_requant_256x13",
            int8_portable_s,
            int8_simd_s,
            int8_kernel_diff,
        ),
        kernel_row(
            "f64_gemm_fma_256x13",
            f64_portable_s,
            f64_simd_s,
            max_diff(&f64_simd, &f64_portable),
        ),
        kernel_row(
            "skymap_sweep_12k_600",
            sweep_portable_s,
            sweep_simd_s,
            max_diff(sweep_simd.probabilities(), sweep_portable.probabilities()),
        ),
    ];

    // -- end-to-end ML trial (workspace reused across trials) --
    let grb = GrbConfig::new(1.0, 0.0);
    let trial_s = median_secs(reps.min(20), || {
        pipeline.run_trial(
            PipelineMode::Ml,
            &grb,
            PerturbationConfig::default(),
            0xB127,
        )
    });

    // -- per-stage percentiles over the same protocol as Tables I/II --
    let stage_timing = adapt_core::measure_stages(&pipeline, reps.min(20), 0x712);

    let out = BenchReport {
        schema: BENCH_SCHEMA,
        description: "localization hot-loop benchmarks; regenerate with \
                      `cargo run --release -p adapt-bench --bin bench_pipeline`"
            .into(),
        repetitions: reps,
        env: EnvReport {
            git_rev: adapt_bench::git_rev(),
            cpu_model: adapt_bench::cpu_model(),
            kernel_isa: isa.to_string(),
            isa_features: adapt_nn::detected_features()
                .iter()
                .map(|s| s.to_string())
                .collect(),
        },
        background_net_inference_256_rings: InferenceReport {
            mlp_predict_us: predict_s * 1e6,
            compiled_forward_batch_us: compiled_s * 1e6,
            speedup: predict_s / compiled_s,
            max_abs_logit_diff: max_abs_diff,
        },
        int8_background_net_inference_256_rings: QuantInferenceReport {
            per_sample_reference_us: per_sample_s * 1e6,
            compiled_forward_batch_us: batched_s * 1e6,
            speedup: per_sample_s / batched_s,
            max_abs_logit_diff_vs_float: max_int8_float_diff,
            background_accuracy_float: acc_float,
            background_accuracy_int8: acc_int8,
            background_accuracy_delta: acc_int8 - acc_float,
        },
        kernels,
        pipeline_trial_ml_ms: trial_s * 1e3,
        stage_timing,
    };
    let path = std::env::var("ADAPT_BENCH_OUT").unwrap_or_else(|_| "BENCH_pipeline.json".into());
    if let Some(found) = existing_schema(&path) {
        assert!(
            found <= BENCH_SCHEMA,
            "{path} was written by schema {found} but this binary writes schema \
             {BENCH_SCHEMA}; rebuild from the current tree instead of overwriting"
        );
    }
    let pretty = serde_json::to_string_pretty(&out).expect("serialize benchmark report");
    std::fs::write(&path, pretty + "\n").expect("write benchmark report");
    println!("wrote {path} (schema {BENCH_SCHEMA})");
    println!(
        "inference: predict {:.1} us vs compiled {:.1} us ({:.2}x, max |dlogit| {:.2e})",
        predict_s * 1e6,
        compiled_s * 1e6,
        predict_s / compiled_s,
        max_abs_diff
    );
    println!(
        "int8:      per-sample {:.1} us vs batched plan {:.1} us ({:.2}x, max |dlogit| vs float {:.2e}, acc {:.3} -> {:.3})",
        per_sample_s * 1e6,
        batched_s * 1e6,
        per_sample_s / batched_s,
        max_int8_float_diff,
        acc_float,
        acc_int8
    );
    println!("pipeline:  ML trial median {:.1} ms", trial_s * 1e3);
    println!(
        "dispatch:  {} (features: {})",
        out.env.kernel_isa,
        out.env.isa_features.join(", ")
    );
    for k in &out.kernels {
        println!(
            "kernel:    {} [{}] portable {:.1} us vs simd {:.1} us ({:.2}x, max diff {:.2e})",
            k.kernel, k.isa, k.portable_us, k.simd_us, k.speedup, k.max_abs_diff_vs_portable
        );
    }
}
