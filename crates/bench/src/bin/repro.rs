//! `repro` — regenerate any table or figure of the paper.
//!
//! ```text
//! repro <target> [--quick|--full] [--jobs N] [--iters N]
//!               [--update-baseline] [--baseline PATH] [--tolerance F]
//! ```
//!
//! `<target>` is a row of `laer_bench::targets::TARGETS` (by name or
//! alias, e.g. `fig1a` and `fig1b` both run `fig1`), `all` (every row,
//! in table order, each under a banner naming it), `ext-scale` or
//! `harness-bench`. `repro help` lists them.
//!
//! `--jobs N` fans the target's independent experiment cells across `N`
//! worker threads (default: the machine's available parallelism).
//! Results are rendered in submission order after all cells finish, so
//! stdout and every JSON artifact are byte-identical to a `--jobs 1`
//! run. `repro all` schedules every target's cells on one shared pool.
//!
//! `--iters N` only affects `ext-serve`, `ext-chaos` and
//! `ext-diagnose`, where it overrides the number of requests served
//! per operating point (smoke runs in CI use a small value). The baseline/tolerance flags only
//! affect `ext-obs` and `ext-scale`, whose perf-regression gates exit
//! non-zero on failure.
//!
//! `ext-scale` is not part of `all`: it defaults to the full N64→N4096
//! sweep, and `--quick` restricts it to the CI smoke sizes.
//!
//! `harness-bench` times `repro all --quick` at `--jobs 1` vs the
//! default job count and writes the informational `BENCH_harness.json`.

use laer_bench::targets::{self, RunArgs, TARGETS};
use laer_bench::{ext_obs, ext_scale, pool, Effort};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let target = args.first().map(String::as_str).unwrap_or("help");
    let effort = if args.iter().any(|a| a == "--full") {
        Effort::Full
    } else {
        Effort::Quick
    };
    let jobs = args
        .iter()
        .position(|a| a == "--jobs")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(pool::default_jobs);
    let iters = args
        .iter()
        .position(|a| a == "--iters")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok());
    let obs = ext_obs::ObsOptions {
        update_baseline: args.iter().any(|a| a == "--update-baseline"),
        baseline: args
            .iter()
            .position(|a| a == "--baseline")
            .and_then(|i| args.get(i + 1))
            .map(std::path::PathBuf::from),
        tolerance: args
            .iter()
            .position(|a| a == "--tolerance")
            .and_then(|v| args.get(v + 1))
            .and_then(|v| v.parse::<f64>().ok()),
    };
    let run_args = RunArgs { effort, iters, obs };
    let start = Instant::now();
    let ok = match target {
        "all" => targets::run(&TARGETS, &run_args, jobs, true),
        // `ext-scale` defaults to the full sweep; `--quick` restricts
        // it to the CI smoke sizes (unlike `Effort`, which defaults to
        // quick).
        "ext-scale" => {
            let quick = args.iter().any(|a| a == "--quick");
            ext_scale::run_jobs(&run_args.obs, quick, jobs)
        }
        "harness-bench" => {
            harness_bench();
            true
        }
        name => match targets::find(name) {
            Some(row) => targets::run(std::slice::from_ref(row), &run_args, jobs, false),
            None => {
                usage();
                std::process::exit(if target == "help" { 0 } else { 2 });
            }
        },
    };
    if !ok {
        std::process::exit(1);
    }
    eprintln!("[{target}: {:.2}s elapsed]", start.elapsed().as_secs_f64());
}

/// Prints the usage text, listing every table row with its aliases.
fn usage() {
    let names: Vec<&str> = TARGETS.iter().flat_map(targets::Target::names).collect();
    eprintln!(
        "usage: repro <target> [--quick|--full] [--jobs N] [--iters N] [--update-baseline] [--baseline PATH] [--tolerance F]\n\
         targets: {} ext-scale all harness-bench",
        names.join(" ")
    );
}

/// Path of the informational harness benchmark report at the repo root.
fn harness_report_path() -> std::path::PathBuf {
    let mut p = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop(); // crates/
    p.pop(); // repo root
    p.push("BENCH_harness.json");
    p
}

#[derive(serde::Serialize)]
struct HarnessRun {
    jobs: usize,
    wall_seconds: f64,
}

#[derive(serde::Serialize)]
struct HarnessReport {
    description: String,
    available_parallelism: usize,
    runs: Vec<HarnessRun>,
    speedup: f64,
}

/// Times `repro all --quick` at `--jobs 1` vs the default job count and
/// writes `BENCH_harness.json`. Informational only — never gated, since
/// wall-clock depends on the runner.
fn harness_bench() {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot locate own executable: {e}");
            std::process::exit(1);
        }
    };
    let default = pool::default_jobs();
    let mut runs = Vec::new();
    for jobs in [1usize, default] {
        let dir = std::env::temp_dir().join(format!("laer-harness-jobs{jobs}"));
        eprintln!("[harness-bench: timing `repro all --quick --jobs {jobs}`]");
        let start = Instant::now();
        let status = std::process::Command::new(&exe)
            .args(["all", "--quick", "--jobs", &jobs.to_string()])
            .env("LAER_REPRO_DIR", &dir)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status();
        let wall_seconds = start.elapsed().as_secs_f64();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("error: `repro all --jobs {jobs}` exited with {s}");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("error: cannot spawn `repro all --jobs {jobs}`: {e}");
                std::process::exit(1);
            }
        }
        eprintln!("[harness-bench: --jobs {jobs} took {wall_seconds:.2}s]");
        runs.push(HarnessRun { jobs, wall_seconds });
    }
    let speedup = runs[0].wall_seconds / runs[1].wall_seconds.max(1e-9);
    let report = HarnessReport {
        description: format!(
            "wall-clock of `repro all --quick` at --jobs 1 vs --jobs {default} \
             (informational, runner-dependent; not CI-gated)"
        ),
        available_parallelism: default,
        runs,
        speedup,
    };
    println!("harness speedup: {speedup:.2}x at --jobs {default} on {default} available cores");
    match serde_json::to_string_pretty(&report) {
        Ok(json) => {
            let path = harness_report_path();
            match std::fs::write(&path, json + "\n") {
                Ok(()) => eprintln!("[saved {}]", path.display()),
                Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
            }
            laer_bench::output::save_json("harness_bench", &report);
        }
        Err(e) => eprintln!("warning: cannot serialize harness report: {e}"),
    }
}
