//! `laerbench`: the LAER-MoE reproduction's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path laerbench/Cargo.toml -- \
//!     --workload <train-skew|plan-fleet|serve-flip> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one thread. Each run sets the workload up several times
//! (the median is `setup_s`), then repeats its op for `--seconds`, and
//! at least until the op prefix behind the modelled metrics is done.
//! Every op's outputs are checked; the last line of standard output is
//! one JSON object with the check totals and the metrics:
//! the end-to-end ones with `--trace 0`, the per-layer ones with
//! `--trace 1`. Host times are normalised to a reference CPU speed
//! (see [`clock`]). A traced run records host spans around every layer
//! call on every other op and writes them as Chrome-trace JSON to
//! `laerbench/out/`. `README.md` maps each metric to its layer and
//! workload.

mod clock;
mod heap;
mod plan_fleet;
mod serve_flip;
mod trace;
mod train_skew;

use clock::{normalise, Clock};
use laer_serve::LatencySummary;
use std::fs;
use std::io::BufWriter;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::{Tracer, ROOT};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Per-layer metrics, in output order, with their units. A layer a
/// workload does not call reads 0.
const PER_LAYER: [(&str, &str); 31] = [
    ("routing.gen_ms", "ms"),
    ("routing.calls", "count"),
    ("baselines.plan_layer_ms", "ms"),
    ("baselines.relayouts", "count"),
    ("baselines.max_token_ratio", "ratio"),
    ("baselines.audit_err", "ratio"),
    ("planner.plan_ms", "ms"),
    ("planner.schemes", "count"),
    ("planner.refine_ms", "ms"),
    ("planner.refine_probes", "count"),
    ("planner.refine_accepted", "count"),
    ("planner.refine_accept_ratio", "ratio"),
    ("planner.plan_cost_ms", "ms"),
    ("fsep.schedule_ms", "ms"),
    ("sim.spans", "count"),
    ("serve.run_ms", "ms"),
    ("serve.steps", "count"),
    ("serve.spans", "count"),
    ("serve.relayouts", "count"),
    ("serve.relocation_ms", "ms"),
    ("serve.ttft_p50_ms", "ms"),
    ("serve.ttft_p99_ms", "ms"),
    ("serve.goodput_rps", "1/s"),
    ("obs.export_ms", "ms"),
    ("obs.trace_bytes", "bytes"),
    ("bench.other_ms", "ms"),
    ("bench.kernel_ms", "ms"),
    ("bench.peak_rss_mb", "MiB"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.ops_per_s", "1/s"),
];

/// Input size of a run: the benchmark's, or the smoke test's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Small enough for a unit test.
    Tiny,
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// Everything a workload reports once its timed loop is over.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Items checked (layer plans, plans, requests).
    attempted: u64,
    /// Items that failed their check.
    failed: u64,
    /// Whole-run checks passed (e.g. the loop matches the runner).
    correct: bool,
    /// Modelled end-to-end metrics over the op prefix; a function of
    /// the seed alone.
    modelled: Vec<Metric>,
    /// Deterministic per-layer counts over the op prefix.
    counts: Vec<Metric>,
}

/// A benchmark workload: set-up, one op, its checks, and the untimed
/// baselines and checks after the loop.
pub trait Workload: Sized {
    /// What an op hands to [`Workload::absorb`].
    type Out;
    /// Quantile reported as `op_ms_tail`: the highest of p95 and p80
    /// that leaves at least ten of a run's ops beyond it.
    const TAIL: f64;
    /// Builds the state and runs the warm-up; timed as set-up.
    fn setup(seed: u64, size: Size) -> Self;
    /// One timed op; each layer call runs inside a span of `tr`.
    fn op(&mut self, tr: &mut Tracer) -> Self::Out;
    /// Checks one op's outputs and records the prefix; not timed.
    fn absorb(&mut self, out: Self::Out);
    /// Whether the ops behind the modelled metrics have run.
    fn prefix_done(&self) -> bool;
    /// Runs the untimed baselines and whole-run checks.
    fn finish(self, traced: bool) -> Outcome;
}

/// A workload name from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkloadName {
    TrainSkew,
    PlanFleet,
    ServeFlip,
}

impl WorkloadName {
    const ALL: [WorkloadName; 3] = [Self::TrainSkew, Self::PlanFleet, Self::ServeFlip];

    fn as_str(self) -> &'static str {
        match self {
            Self::TrainSkew => "train-skew",
            Self::PlanFleet => "plan-fleet",
            Self::ServeFlip => "serve-flip",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.as_str() == s)
    }
}

/// A finished run, ready to print.
#[derive(Debug)]
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// The outcome's seed-determined metrics, for the smoke test.
    deterministic: Vec<Metric>,
    /// Ops timed, for the stderr summary.
    ops: usize,
    /// Median op time as measured, before normalisation.
    wall_p50_ms: f64,
    /// Median calibration-kernel time.
    kernel_p50_ms: f64,
    tracer: Tracer,
}

/// Peak resident set of this process in MiB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

const MIB: f64 = 1024.0 * 1024.0;

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Nearest-rank `q`-quantile of `samples`.
fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    laer_serve::sla::percentile(&sorted, q)
}

/// Op time that makes one throughput window.
const WINDOW_MS: f64 = 1000.0;

/// Median, over consecutive windows of at least [`WINDOW_MS`] of op
/// time, of ops per second. A rare op that costs several typical ones
/// (a refinement that accepts moves) lowers one window, not the run.
fn windowed_ops_per_s(op_ms: &[f64]) -> f64 {
    let mut rates = Vec::new();
    let (mut n, mut ms) = (0usize, 0.0f64);
    for &t in op_ms {
        n += 1;
        ms += t;
        if ms >= WINDOW_MS {
            rates.push(n as f64 / ms * 1e3);
            (n, ms) = (0, 0.0);
        }
    }
    if rates.is_empty() {
        rates.push(n as f64 / ms * 1e3);
    }
    LatencySummary::from_samples(&rates).p50
}

fn run<W: Workload>(seed: u64, size: Size, seconds: f64, traced: bool) -> Report {
    let mut clock = Clock::new();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        let before = clock.sample(0.0);
        let start = Instant::now();
        let w = W::setup(seed, size);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        setups.push(normalise(ms, before, clock.sample(ms)) / 1e3);
        state = Some(w);
    }
    let mut w = state.expect("SETUP_REPS > 0");

    // A traced run alternates untraced and traced ops, so the two op
    // times share the same drift and their ratio is the overhead.
    let mut tr = Tracer::new();
    let mut op_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut wall_ms = Vec::new();
    let mut heap_mib = Vec::new();
    let mut kernel = vec![clock.sample(0.0)];
    let start = Instant::now();
    while !w.prefix_done() || start.elapsed().as_secs_f64() < seconds {
        let on = traced && wall_ms.len() % 2 == 1;
        tr.set_enabled(on);
        let live = heap::reset_peak();
        let t0 = Instant::now();
        tr.open(ROOT);
        let out = w.op(&mut tr);
        tr.close();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        heap_mib.push((heap::peak_bytes() - live) as f64 / MIB);
        let before = kernel[kernel.len() - 1];
        kernel.push(clock.sample(ms));
        let norm = normalise(ms, before, kernel[kernel.len() - 1]);
        if on {
            traced_ms.push(norm);
        } else {
            op_ms.push(norm);
        }
        wall_ms.push(ms);
        w.absorb(out);
    }
    let outcome = w.finish(traced);

    let mut metrics = Vec::new();
    if traced {
        // Layer times are each span's share of traced op time, scaled
        // to the normalised traced op time.
        let times = tr.self_times();
        let root = times.get(ROOT).copied().unwrap_or_default();
        let per_ns = mean(&traced_ms) / root.total_ns.max(1) as f64;
        let ms_of = |name: &str| times.get(name).map_or(0.0, |t| t.self_ns as f64 * per_ns);
        for (name, unit) in PER_LAYER {
            let value = match name {
                "bench.other_ms" => ms_of(ROOT),
                "bench.kernel_ms" => LatencySummary::from_samples(&kernel).p50,
                "bench.peak_rss_mb" => peak_rss_mb(),
                "trace.coverage" => 1.0 - root.self_ns as f64 / root.total_ns.max(1) as f64,
                // Medians, so a rare costly op on one side does not
                // read as overhead.
                "trace.overhead" => {
                    LatencySummary::from_samples(&traced_ms).p50
                        / LatencySummary::from_samples(&op_ms).p50
                        - 1.0
                }
                "trace.ops_per_s" => 1e3 / LatencySummary::from_samples(&traced_ms).p50,
                _ => match name.strip_suffix("_ms").filter(|l| times.contains_key(l)) {
                    Some(layer) => ms_of(layer),
                    None => outcome
                        .counts
                        .iter()
                        .find(|m| m.name == name)
                        .map_or(0.0, |m| m.value),
                },
            };
            metrics.push(Metric::new(name, value, unit));
        }
    } else {
        let ops = LatencySummary::from_samples(&op_ms);
        metrics.push(Metric::new(
            "setup_s",
            LatencySummary::from_samples(&setups).p50,
            "s",
        ));
        metrics.push(Metric::new("ops_per_s", windowed_ops_per_s(&op_ms), "1/s"));
        metrics.push(Metric::new("op_ms_p50", ops.p50, "ms"));
        metrics.push(Metric::new("op_ms_tail", percentile(&op_ms, W::TAIL), "ms"));
        metrics.push(Metric::new("op_heap_mb", mean(&heap_mib), "MiB"));
        metrics.extend(outcome.modelled.iter().cloned());
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let wall = LatencySummary::from_samples(&wall_ms);
    let deterministic = outcome.modelled.into_iter().chain(outcome.counts).collect();
    Report {
        correct: outcome.correct && outcome.failed == 0 && finite,
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics,
        deterministic,
        ops: wall_ms.len(),
        wall_p50_ms: wall.p50,
        kernel_p50_ms: LatencySummary::from_samples(&kernel).p50,
        tracer: tr,
    }
}

fn run_named(name: WorkloadName, seed: u64, size: Size, seconds: f64, traced: bool) -> Report {
    match name {
        WorkloadName::TrainSkew => run::<train_skew::TrainSkew>(seed, size, seconds, traced),
        WorkloadName::PlanFleet => run::<plan_fleet::PlanFleet>(seed, size, seconds, traced),
        WorkloadName::ServeFlip => run::<serve_flip::ServeFlip>(seed, size, seconds, traced),
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

#[derive(Debug)]
struct Args {
    workload: WorkloadName,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(WorkloadName::parse(value).ok_or_else(|| {
                    let names: Vec<_> = WorkloadName::ALL.iter().map(|w| w.as_str()).collect();
                    format!(
                        "unknown workload `{value}`; expected one of {}",
                        names.join(", ")
                    )
                })?);
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds {value}: not a non-negative number"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Writes the traced run's spans to `laerbench/out/<workload>-seed<n>.json`.
fn write_trace(args: &Args, tracer: &Tracer) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.json", args.workload.as_str(), args.seed));
    tracer.write_chrome_trace(BufWriter::new(fs::File::create(&path)?))?;
    Ok(path)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: laerbench --workload <train-skew|plan-fleet|serve-flip> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let report = run_named(
        args.workload,
        args.seed,
        Size::Full,
        args.seconds,
        args.trace,
    );
    eprintln!(
        "{} seed {}: {} ops, {} checked, {} failed; wall op p50 {:.4} ms, kernel p50 {:.4} ms",
        args.workload.as_str(),
        args.seed,
        report.ops,
        report.attempted,
        report.failed,
        report.wall_p50_ms,
        report.kernel_p50_ms,
    );
    for m in &report.metrics {
        eprintln!("  {:<28} {:>14.6} {}", m.name, m.value, m.unit);
    }
    eprintln!("seed-determined:");
    for m in &report.deterministic {
        eprintln!("  {:<28} {:>14.6} {}", m.name, m.value, m.unit);
    }
    if args.trace {
        match write_trace(&args, &report.tracer) {
            Ok(path) => eprintln!("host spans: {}", path.display()),
            Err(e) => {
                eprintln!("error: writing the span trace: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", result_json(&report));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end metrics, in output order.
    const END_TO_END: [&str; 7] = [
        "setup_s",
        "ops_per_s",
        "op_ms_p50",
        "op_ms_tail",
        "op_heap_mb",
        "sim_step_ms",
        "speedup_vs_baseline",
    ];

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn names(r: &Report) -> Vec<&'static str> {
        r.metrics.iter().map(|m| m.name).collect()
    }

    /// Every workload at a tiny size emits the complete metric set of
    /// `BENCHMARK.json`, passes its checks, and repeats its
    /// seed-determined metrics exactly.
    #[test]
    fn tiny_runs_emit_every_metric_and_repeat() {
        let per_layer: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        for name in END_TO_END.iter().chain(&per_layer) {
            assert!(
                BENCHMARK_JSON.contains(&format!(r#""name": "{name}""#)),
                "{name} missing from BENCHMARK.json"
            );
        }
        for w in WorkloadName::ALL {
            assert!(BENCHMARK_JSON.contains(&format!(r#""name": "{}""#, w.as_str())));
            let a = run_named(w, 3, Size::Tiny, 0.0, false);
            let b = run_named(w, 3, Size::Tiny, 0.0, false);
            let t = run_named(w, 3, Size::Tiny, 0.0, true);
            for r in [&a, &b, &t] {
                assert!(r.correct, "{w:?}: checks failed");
                assert!(r.attempted > 0 && r.failed == 0, "{w:?}");
            }
            assert_eq!(names(&a), END_TO_END, "{w:?}");
            assert_eq!(names(&t), per_layer, "{w:?}");
            assert!(a.metrics.iter().all(|m| m.value > 0.0), "{w:?}: {a:?}");
            assert_eq!(a.deterministic, b.deterministic, "{w:?}");
            // Tracing changes no modelled number; it only adds counts
            // too costly for the untraced run (planner.schemes).
            let untraced_only = |r: &Report| -> Vec<Metric> {
                let mut d = r.deterministic.clone();
                d.retain(|m| m.name != "planner.schemes");
                d
            };
            assert_eq!(untraced_only(&a), untraced_only(&t), "{w:?}");
            let json = result_json(&a);
            assert!(json.starts_with(r#"{"correct": true, "attempted": "#));
            assert_eq!(json.matches(r#""value": "#).count(), END_TO_END.len());
        }
    }

    #[test]
    fn traced_run_covers_the_op() {
        let t = run_named(WorkloadName::TrainSkew, 5, Size::Tiny, 0.0, true);
        let get = |n: &str| t.metrics.iter().find(|m| m.name == n).map(|m| m.value);
        assert!(get("trace.coverage").is_some_and(|c| c > 0.5 && c <= 1.0));
        assert!(get("baselines.plan_layer_ms").is_some_and(|v| v > 0.0));
        assert_eq!(get("serve.run_ms"), Some(0.0));
        assert!(!t.tracer.spans().is_empty());
    }

    #[test]
    fn throughput_is_the_median_window() {
        // Windows of one second: 4 ops of 250 ms, then one 2 s op.
        let ops = [
            250.0, 250.0, 250.0, 250.0, 2000.0, 250.0, 250.0, 250.0, 250.0,
        ];
        assert_eq!(windowed_ops_per_s(&ops), 4.0);
        // Less than one window: the plain rate.
        assert_eq!(windowed_ops_per_s(&[100.0, 300.0]), 5.0);
    }

    #[test]
    fn arguments_are_checked() {
        let args = |v: &[&str]| parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let ok = args(&[
            "--workload",
            "plan-fleet",
            "--seed",
            "9",
            "--seconds",
            "2",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(ok.workload, WorkloadName::PlanFleet);
        assert_eq!((ok.seed, ok.seconds, ok.trace), (9, 2.0, true));
        assert_eq!(
            args(&["--workload", "serve-flip"]).unwrap().seed,
            DEFAULT_SEED
        );
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "nope"],
            &["--workload", "train-skew", "--trace", "2"],
            &["--workload", "train-skew", "--seconds", "-1"],
            &["--workload", "train-skew", "--seed"],
            &["--workload", "train-skew", "--verbose", "1"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }
}
