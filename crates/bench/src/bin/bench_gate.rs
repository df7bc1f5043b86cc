//! CI regression gate over the checked-in benchmark reports:
//! `BENCH_pipeline.json`, `BENCH_stream.json`, `BENCH_ground.json`,
//! `BENCH_matrix.json`, and `BENCH_calibration.json`.
//!
//! Compares a freshly measured candidate report against the committed
//! baseline and fails (exit 1) when any gated metric regressed by more
//! than the tolerance. The report kind is auto-detected from its shape,
//! and each kind gates what is portable for it:
//!
//! * **pipeline** — kernel *speedup ratios* (portable-vs-SIMD and
//!   reference-vs-plan on the *same* host in the *same* run), tolerance
//!   15% (`ADAPT_BENCH_GATE_TOLERANCE`). Absolute microseconds shift
//!   with CI hardware, but a vectorized kernel that stops being faster
//!   than its portable twin has regressed no matter the machine.
//! * **stream** — the single-stream realtime factor and the deadline
//!   headroom (deadline / p99 alert latency). These are wall-clock
//!   numbers, so the tolerance is the looser wall tolerance (default
//!   50%, `ADAPT_BENCH_WALL_TOLERANCE`); the gate catches collapses,
//!   not noise.
//! * **ground** — the aggregate realtime factor across the fleet, the
//!   epoch deadline headroom, and the inverse fan-out publish p99 per
//!   subscriber population (wall tolerance). Additionally the candidate
//!   must report `events_dropped == 0`: ground ingest is pull-based and
//!   structurally lossless, so any drop is a correctness bug, not a
//!   performance number — the override does not apply.
//! * **matrix** — the trigger robustness matrix. Per-cell detection
//!   efficiency may *never* drop below the baseline (cells are
//!   seed-deterministic, so any drop is a real behavior change — the
//!   override does not apply), the quiet cells must stay free of false
//!   alerts and the clean-burst cells must stay detected (candidate-only
//!   contracts), and per-cell false-alert rates gate at the wall
//!   tolerance.
//! * **calibration** — the coverage-calibration campaign. The localized
//!   fraction and the inverse mean 90% credible radius gate at the wall
//!   tolerance; additionally the candidate's worst coverage pull
//!   (`coverage_abs_z`) must stay within the hard band — credible
//!   regions whose stated probability is wrong are a correctness bug,
//!   not a performance number, so the override does not apply.
//!
//! ```text
//! bench_gate <baseline.json> <candidate.json>   # compare two reports
//! bench_gate --self-test <baseline.json>        # prove the gate works
//! ```
//!
//! `--self-test` checks both gate arms with synthetic candidates derived
//! from the baseline: every gated metric slowed beyond its tolerance
//! must FAIL, and the baseline compared against itself must PASS.
//!
//! Overrides, for intentional re-baselines only:
//!
//! * `ADAPT_BENCH_ALLOW_REGRESSION=1` — report regressions but exit 0.
//!   Use when landing a change that knowingly trades speed for
//!   something else; commit the regenerated baseline in the same PR.
//! * `ADAPT_BENCH_GATE_TOLERANCE` — ratio-metric tolerance as a
//!   fraction (default `0.15`).
//! * `ADAPT_BENCH_WALL_TOLERANCE` — wall-clock-metric tolerance as a
//!   fraction (default `0.50`).
//!
//! The gate also hard-fails (no override) if a pipeline candidate's
//! INT8 kernel reports a nonzero divergence from the portable plan:
//! bit-exactness is a correctness contract, not a performance number.

use serde::Value;

/// A gated metric: JSON path through the report plus the ratio found.
struct Gated {
    path: String,
    baseline: f64,
    candidate: f64,
}

/// Which benchmark report a JSON file is, detected from its shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Pipeline,
    Stream,
    Ground,
    Matrix,
    Calibration,
}

impl Kind {
    fn detect(report: &Value) -> Kind {
        if report.get("coverage_cells").is_some() {
            Kind::Calibration
        } else if report.get("cells").is_some() {
            Kind::Matrix
        } else if report.get("aggregate_realtime_factor").is_some() {
            Kind::Ground
        } else if report.get("realtime_factor").is_some() {
            Kind::Stream
        } else {
            Kind::Pipeline
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::Pipeline => "pipeline",
            Kind::Stream => "stream",
            Kind::Ground => "ground",
            Kind::Matrix => "matrix",
            Kind::Calibration => "calibration",
        }
    }
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Int(n) => Some(*n as f64),
        Value::UInt(n) => Some(*n as f64),
        Value::Float(x) => Some(*x),
        _ => None,
    }
}

fn load(path: &str) -> Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read benchmark report {path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("cannot parse {path}: {e}"))
}

/// The top-level pipeline sections whose `speedup` field is gated.
const GATED_SECTIONS: &[&str] = &[
    "background_net_inference_256_rings",
    "int8_background_net_inference_256_rings",
];

/// Wall-clock metrics gated on stream/ground reports: the key and
/// whether higher is better (`false` means the gate inverts the value,
/// so a growing latency reads as a shrinking gated metric).
const STREAM_WALL_METRICS: &[(&str, bool)] =
    &[("realtime_factor", true), ("alert_latency_p99_ms", false)];
const GROUND_WALL_METRICS: &[(&str, bool)] = &[
    ("aggregate_realtime_factor", true),
    ("sustained_events_per_s", true),
    ("epoch_latency_p99_ms", false),
    ("alert_e2e_p99_ms", false),
];
const CALIBRATION_WALL_METRICS: &[(&str, bool)] = &[
    ("localized_fraction", true),
    ("mean_credible_radius_90_deg", false),
];

/// Collect every gated pipeline speedup: the two section-level ratios
/// plus one per kernel row (matched by kernel name).
fn gated_speedups(report: &Value) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for section in GATED_SECTIONS {
        if let Some(s) = report.get(section).and_then(|s| s.get("speedup")) {
            out.push((format!("{section}.speedup"), num(s).unwrap_or(f64::NAN)));
        }
    }
    if let Some(kernels) = report.get("kernels").and_then(|k| k.as_arr()) {
        for k in kernels {
            let name = k
                .get("kernel")
                .and_then(|n| n.as_str())
                .unwrap_or("<unnamed>");
            if let Some(s) = k.get("speedup").and_then(num) {
                out.push((format!("kernels[{name}].speedup"), s));
            }
        }
    }
    out
}

/// Collect the gated wall-clock metrics of a stream/ground report.
/// Lower-is-better latencies are inverted so every gated value is
/// higher-is-better and one regression rule covers all kinds.
fn gated_wall_metrics(report: &Value, kind: Kind) -> Vec<(String, f64)> {
    let metrics = match kind {
        Kind::Stream => STREAM_WALL_METRICS,
        Kind::Ground => GROUND_WALL_METRICS,
        Kind::Matrix => return gated_matrix_metrics(report),
        Kind::Calibration => CALIBRATION_WALL_METRICS,
        Kind::Pipeline => return Vec::new(),
    };
    let mut out = Vec::new();
    for (key, higher_better) in metrics {
        // Option<f64> latencies serialize to null when no alerts fired;
        // skip rather than gate a metric that does not exist
        if let Some(x) = report.get(key).and_then(num) {
            let (path, value) = if *higher_better {
                (key.to_string(), x)
            } else {
                (format!("1/{key}"), 1.0 / x.max(1e-12))
            };
            out.push((path, value));
        }
    }
    if let Some(rows) = report.get("fanout").and_then(|f| f.as_arr()) {
        for row in rows {
            let subs = row.get("subscribers").and_then(num).unwrap_or(f64::NAN);
            if let Some(p99) = row.get("publish_p99_us").and_then(num) {
                out.push((
                    format!("1/fanout[{subs:.0}].publish_p99_us"),
                    1.0 / p99.max(1e-12),
                ));
            }
        }
    }
    out
}

/// Per-cell matrix metrics, keyed by the stable cell id. False-alert
/// rates are mapped to the higher-is-better `1/(1+rate)` so the shared
/// regression rule applies; detection efficiency is gated here *and*
/// re-checked as a non-overridable contract in [`run_gate`].
fn gated_matrix_metrics(report: &Value) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let Some(cells) = report.get("cells").and_then(|c| c.as_arr()) else {
        return out;
    };
    for cell in cells {
        let id = cell.get("id").and_then(|v| v.as_str()).unwrap_or("<cell>");
        if let Some(eff) = cell.get("detection_efficiency").and_then(num) {
            out.push((format!("cells[{id}].detection_efficiency"), eff));
        }
        if let Some(fa) = cell.get("false_alerts_per_hour").and_then(num) {
            out.push((
                format!("cells[{id}].1/(1+false_alerts_per_hour)"),
                1.0 / (1.0 + fa),
            ));
        }
    }
    out
}

/// Every gated metric of a report, dispatched on its kind.
fn gated_metrics(report: &Value, kind: Kind) -> Vec<(String, f64)> {
    match kind {
        Kind::Pipeline => gated_speedups(report),
        Kind::Stream | Kind::Ground | Kind::Matrix | Kind::Calibration => {
            gated_wall_metrics(report, kind)
        }
    }
}

/// Compare candidate against baseline; returns the regressions found.
fn regressions(baseline: &Value, candidate: &Value, kind: Kind, tolerance: f64) -> Vec<Gated> {
    let base: Vec<(String, f64)> = gated_metrics(baseline, kind);
    let cand: Vec<(String, f64)> = gated_metrics(candidate, kind);
    let mut out = Vec::new();
    for (path, b) in &base {
        let Some((_, c)) = cand.iter().find(|(p, _)| p == path) else {
            // a metric that vanished from the candidate is a regression
            // of the report itself — surface it as one
            out.push(Gated {
                path: format!("{path} (missing from candidate)"),
                baseline: *b,
                candidate: f64::NAN,
            });
            continue;
        };
        if !b.is_finite() || *b <= 0.0 {
            continue; // nothing meaningful to gate against
        }
        // a NaN candidate (unparseable number) must also count as a
        // regression, hence the explicit is_nan arm
        if *c < b / (1.0 + tolerance) || c.is_nan() {
            out.push(Gated {
                path: path.clone(),
                baseline: *b,
                candidate: *c,
            });
        }
    }
    out
}

/// The INT8 kernel's bit-exactness contract: any row whose name starts
/// with `int8` must report zero divergence from the portable plan.
fn int8_exactness_violation(candidate: &Value) -> Option<String> {
    let kernels = candidate.get("kernels").and_then(|k| k.as_arr())?;
    for k in kernels {
        let name = k.get("kernel").and_then(|n| n.as_str()).unwrap_or("");
        if !name.starts_with("int8") {
            continue;
        }
        let diff = k.get("max_abs_diff_vs_portable").and_then(num)?;
        if diff != 0.0 {
            return Some(format!("{name}: max_abs_diff_vs_portable = {diff:e}"));
        }
    }
    None
}

/// The matrix's candidate-only invariants, mirroring the smoke gate: a
/// quiet sky never fires, a clean on-axis burst is never missed.
fn matrix_invariant_violation(candidate: &Value) -> Option<String> {
    let cells = candidate.get("cells").and_then(|c| c.as_arr())?;
    for cell in cells {
        let scenario = cell.get("scenario").and_then(|v| v.as_str()).unwrap_or("");
        let id = cell.get("id").and_then(|v| v.as_str()).unwrap_or("<cell>");
        let fa = cell.get("false_alerts").and_then(num).unwrap_or(0.0);
        let missed = cell.get("missed").and_then(num).unwrap_or(0.0);
        if scenario == "quiet" && fa != 0.0 {
            return Some(format!("{id}: {fa:.0} false alerts on a quiet sky"));
        }
        if scenario == "clean-burst" && missed != 0.0 {
            return Some(format!("{id}: clean burst missed"));
        }
    }
    None
}

/// Detection efficiency may never drop below baseline: cells are
/// seed-deterministic, so any drop is a real behavioral change in the
/// trigger or scenario layer, not measurement noise.
fn matrix_detection_violation(baseline: &Value, candidate: &Value) -> Option<String> {
    let base_cells = baseline.get("cells").and_then(|c| c.as_arr())?;
    let cand_cells = candidate.get("cells").and_then(|c| c.as_arr())?;
    for cell in base_cells {
        let id = cell.get("id").and_then(|v| v.as_str())?;
        let b = cell.get("detection_efficiency").and_then(num)?;
        let cand = cand_cells
            .iter()
            .find(|c| c.get("id").and_then(|v| v.as_str()) == Some(id));
        let Some(cand) = cand else {
            return Some(format!("cell {id} vanished from the candidate matrix"));
        };
        let c = cand.get("detection_efficiency").and_then(num)?;
        if c < b - 1e-9 {
            return Some(format!("cell {id}: detection efficiency {b:.3} -> {c:.3}"));
        }
    }
    None
}

/// The hard coverage band: a candidate whose worst calibration pull
/// exceeds this many binomial standard errors states credible regions
/// that are not credible. Matches `CalibrationConfig::default().band_z`
/// plus headroom for the checked-in baseline's larger burst count.
const CALIBRATION_MAX_ABS_Z: f64 = 4.0;

/// The calibration campaign's candidate-only invariant: every stated
/// credibility level must keep its empirical coverage inside the band.
fn calibration_coverage_violation(candidate: &Value) -> Option<String> {
    let z = candidate.get("coverage_abs_z").and_then(num)?;
    (z > CALIBRATION_MAX_ABS_Z).then(|| {
        format!(
            "worst coverage pull {z:.2}σ exceeds the ±{CALIBRATION_MAX_ABS_Z:.1}σ band —              the posterior's credible regions are miscalibrated"
        )
    })
}

/// Non-overridable correctness contracts per report kind.
fn contract_violation(candidate: &Value, kind: Kind) -> Option<String> {
    match kind {
        Kind::Pipeline => {
            int8_exactness_violation(candidate).map(|v| format!("INT8 bit-exactness broken — {v}"))
        }
        Kind::Ground => match candidate.get("events_dropped").and_then(num) {
            Some(dropped) if dropped != 0.0 => Some(format!(
                "ground ingest dropped {dropped:.0} events; pull-based ingest is \
                 structurally lossless, so any drop is a bug"
            )),
            _ => None,
        },
        Kind::Matrix => matrix_invariant_violation(candidate),
        Kind::Calibration => calibration_coverage_violation(candidate)
            .map(|v| format!("coverage contract broken — {v}")),
        Kind::Stream => None,
    }
}

/// Run one gate comparison, printing the verdict. Returns pass/fail.
fn run_gate(baseline: &Value, candidate: &Value, kind: Kind, tolerance: f64, allow: bool) -> bool {
    if let Some(violation) = contract_violation(candidate, kind) {
        // correctness, not performance: the override does not apply
        eprintln!("GATE FAIL (not overridable): {violation}");
        return false;
    }
    if kind == Kind::Matrix {
        if let Some(violation) = matrix_detection_violation(baseline, candidate) {
            eprintln!("GATE FAIL (not overridable): detection-efficiency regression — {violation}");
            return false;
        }
    }
    let found = regressions(baseline, candidate, kind, tolerance);
    if found.is_empty() {
        println!(
            "bench gate PASS ({}): {} gated metrics within {:.0}% of baseline",
            kind.name(),
            gated_metrics(baseline, kind).len(),
            tolerance * 100.0
        );
        return true;
    }
    for r in &found {
        eprintln!(
            "REGRESSION {}: baseline {:.4} -> candidate {:.4} (floor {:.4})",
            r.path,
            r.baseline,
            r.candidate,
            r.baseline / (1.0 + tolerance)
        );
    }
    if allow {
        eprintln!(
            "bench gate OVERRIDDEN: {} regression(s) allowed by \
             ADAPT_BENCH_ALLOW_REGRESSION=1 — commit a regenerated baseline",
            found.len()
        );
        return true;
    }
    eprintln!(
        "bench gate FAIL ({}): {} of {} gated metrics regressed >{:.0}%. If \
         intentional, regenerate the baseline report on the baseline host and commit \
         it (or set ADAPT_BENCH_ALLOW_REGRESSION=1 for this run).",
        kind.name(),
        found.len(),
        gated_metrics(baseline, kind).len(),
        tolerance * 100.0
    );
    false
}

/// Wall-clock keys `slowed` scales: throughput-like keys are divided by
/// the factor, latency-like keys multiplied, mimicking a uniformly
/// slower run.
const SLOWED_THROUGHPUT_KEYS: &[&str] = &[
    "realtime_factor",
    "aggregate_realtime_factor",
    "sustained_events_per_s",
];
const SLOWED_LATENCY_KEYS: &[&str] = &[
    "alert_latency_p99_ms",
    "epoch_latency_p99_ms",
    "alert_e2e_p99_ms",
    "publish_p99_us",
    "false_alerts_per_hour",
    "mean_credible_radius_90_deg",
];

/// Matrix keys scaled like throughput (a uniformly "worse" candidate
/// detects less), exercised by the `--self-test` slowdown arm.
const SLOWED_EFFICIENCY_KEYS: &[&str] = &["detection_efficiency", "localized_fraction"];

/// Deep-copy a report with every gated metric slowed by `factor` — the
/// injected-slowdown candidate for `--self-test`. Pipeline speedups are
/// divided; stream/ground throughput metrics divided and p99 latencies
/// multiplied.
fn slowed(v: &Value, factor: f64, in_gated: bool) -> Value {
    match v {
        Value::Obj(pairs) => Value::Obj(
            pairs
                .iter()
                .map(|(k, val)| {
                    let gated_here =
                        in_gated || GATED_SECTIONS.contains(&k.as_str()) || k == "kernels";
                    if let Some(x) = num(val) {
                        if k == "speedup" && in_gated {
                            return (k.clone(), Value::Float(x / factor));
                        }
                        if SLOWED_THROUGHPUT_KEYS.contains(&k.as_str())
                            || SLOWED_EFFICIENCY_KEYS.contains(&k.as_str())
                        {
                            return (k.clone(), Value::Float(x / factor));
                        }
                        if SLOWED_LATENCY_KEYS.contains(&k.as_str()) {
                            return (k.clone(), Value::Float(x * factor));
                        }
                    }
                    (k.clone(), slowed(val, factor, gated_here))
                })
                .collect(),
        ),
        Value::Arr(items) => {
            Value::Arr(items.iter().map(|i| slowed(i, factor, in_gated)).collect())
        }
        other => other.clone(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ratio_tolerance: f64 = std::env::var("ADAPT_BENCH_GATE_TOLERANCE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.15);
    let wall_tolerance: f64 = std::env::var("ADAPT_BENCH_WALL_TOLERANCE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.50);
    let allow = std::env::var("ADAPT_BENCH_ALLOW_REGRESSION").as_deref() == Ok("1");
    let tolerance_for = |kind: Kind| match kind {
        Kind::Pipeline => ratio_tolerance,
        Kind::Stream | Kind::Ground | Kind::Matrix | Kind::Calibration => wall_tolerance,
    };

    match args.as_slice() {
        [flag, baseline_path] if flag == "--self-test" => {
            let baseline = load(baseline_path);
            let kind = Kind::detect(&baseline);
            let tolerance = tolerance_for(kind);
            // an injected slowdown safely beyond the tolerance
            let factor = (1.0 + tolerance) * 1.1;
            // arm 1: baseline vs itself must pass
            println!(
                "self-test 1/2 ({}): baseline vs itself (must pass)",
                kind.name()
            );
            assert!(
                run_gate(&baseline, &baseline, kind, tolerance, false),
                "self-test failed: gate rejected a baseline identical to itself"
            );
            // arm 2: the injected slowdown on every gated metric must fail
            println!(
                "self-test 2/2 ({}): injected /{factor:.2} slowdown (must fail)",
                kind.name()
            );
            let injected = slowed(&baseline, factor, false);
            assert!(
                !run_gate(&baseline, &injected, kind, tolerance, false),
                "self-test failed: gate accepted an injected regression beyond tolerance"
            );
            println!("bench gate self-test PASS ({})", kind.name());
        }
        [baseline_path, candidate_path] => {
            let baseline = load(baseline_path);
            let candidate = load(candidate_path);
            let kind = Kind::detect(&baseline);
            let candidate_kind = Kind::detect(&candidate);
            if kind != candidate_kind {
                eprintln!(
                    "bench gate FAIL: baseline is a {} report but candidate is a {} report",
                    kind.name(),
                    candidate_kind.name()
                );
                std::process::exit(1);
            }
            if !run_gate(&baseline, &candidate, kind, tolerance_for(kind), allow) {
                std::process::exit(1);
            }
        }
        _ => {
            eprintln!(
                "usage: bench_gate <baseline.json> <candidate.json>\n       \
                 bench_gate --self-test <baseline.json>"
            );
            std::process::exit(2);
        }
    }
}
