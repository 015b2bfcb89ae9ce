//! Serving benchmark for the hmd detector.
//!
//! ```text
//! servebench --workload <live|replay_scraped|retrain|all> [--seed N]
//!            [--seconds S] [--trace 0|1] [--steady RUNS]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; the
//! last stdout line is one JSON object `{correct, attempted, failed,
//! metrics}`. `--trace 1` re-runs the workload untraced as a reference,
//! then a traced single-shard replica per shard, and reports per-layer
//! metrics the same way. `--workload all` runs every workload in its own
//! process. `--steady RUNS` runs each workload RUNS times in fresh
//! processes (alternating order, seeds `seed..seed+RUNS`) and prints
//! each metric's median, quartiles and quartile spread. See NOTES.md.

mod procfs;
mod replica;
mod report;
mod scrape;
mod stats;
mod workload;

use std::process::{Command, ExitCode, Stdio};

use hmd_util::json::Json;

use workload::{Workload, DEFAULT_SECONDS, DEFAULT_SEED};

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    steady: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        steady: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--steady" => args.steady = value()?.parse().map_err(|e| format!("--steady: {e}"))?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    if args.workload != "all" && Workload::parse(&args.workload).is_none() {
        return Err(format!("unknown workload {}", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<Workload> =
        Workload::parse(&args.workload).map_or_else(|| Workload::ALL.to_vec(), |w| vec![w]);
    if args.steady > 0 {
        return steadiness(&args, &workloads);
    }
    if workloads.len() > 1 {
        return run_all(&args, &workloads);
    }
    report::run_workload(workloads[0], args.seed, args.seconds, args.trace)
}

/// The child invocation measuring one workload in a fresh process, so
/// `peak_rss_mb` and CPU time belong to that workload alone.
fn child(w: Workload, seed: u64, seconds: u64, trace: bool) -> Command {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ]);
    cmd
}

/// Every workload, each in its own process; non-zero exit if any fails.
fn run_all(args: &Args, workloads: &[Workload]) -> ExitCode {
    let mut failed = Vec::new();
    for &w in workloads {
        println!("=== {} ===", w.name());
        let status = child(w, args.seed, args.seconds, args.trace).status();
        if !status.is_ok_and(|s| s.success()) {
            failed.push(w.name());
        }
    }
    if failed.is_empty() {
        println!("all workloads correct");
        ExitCode::SUCCESS
    } else {
        println!("FAILED: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

/// One child run's parsed output: its result object and its
/// provenance line.
fn run_child(w: Workload, seed: u64, seconds: u64) -> Option<(Json, Json)> {
    let out = child(w, seed, seconds, false)
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    let text = String::from_utf8_lossy(&out.stdout);
    let result = Json::parse(text.lines().last()?).ok()?;
    let provenance = text
        .lines()
        .find_map(|l| l.strip_prefix(report::PROVENANCE_PREFIX))
        .and_then(|p| Json::parse(p).ok())?;
    Some((result, provenance))
}

/// The steadiness report: `args.steady` fresh-process runs per workload,
/// alternating workload order between rounds, then per metric the
/// median, quartiles and (Q3 − Q1) ÷ median, with each run's run-queue
/// wait share beside it.
fn steadiness(args: &Args, workloads: &[Workload]) -> ExitCode {
    let mut runs: Vec<Vec<(Json, Json)>> = vec![Vec::new(); workloads.len()];
    let mut ok = true;
    for r in 0..args.steady {
        let order: Vec<usize> = if r % 2 == 0 {
            (0..workloads.len()).collect()
        } else {
            (0..workloads.len()).rev().collect()
        };
        for i in order {
            let seed = args.seed + r as u64;
            match run_child(workloads[i], seed, args.seconds) {
                Some(run) => {
                    ok &= run.0.get("correct").and_then(Json::as_bool) == Some(true);
                    runs[i].push(run);
                }
                None => {
                    eprintln!(
                        "steady: {} seed {seed} produced no result",
                        workloads[i].name()
                    );
                    ok = false;
                }
            }
        }
    }
    for (w, runs) in workloads.iter().zip(&runs) {
        println!(
            "== {} ({} runs, seconds {}) ==",
            w.name(),
            runs.len(),
            args.seconds
        );
        for key in ["runq_wait_share", "host_steal_share"] {
            let per_run: Vec<String> = runs
                .iter()
                .map(|(_, p)| format!("{:.3}", p.get(key).and_then(Json::as_f64).unwrap_or(0.0)))
                .collect();
            println!("{key} per run: {}", per_run.join(" "));
        }
        let Some(Json::Obj(first)) = runs.first().and_then(|(r, _)| r.get("metrics")) else {
            continue;
        };
        println!(
            "{:<26} {:>14} {:>14} {:>14} {:>9}  values",
            "metric", "median", "q1", "q3", "spread"
        );
        for (name, _) in first {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|(r, _)| {
                    r.get("metrics")?
                        .get(name)?
                        .get("value")
                        .and_then(Json::as_f64)
                })
                .collect();
            let med = stats::median(&values);
            let (q1, q3) = stats::quartiles(&values);
            let spread = if med == 0.0 { 0.0 } else { (q3 - q1) / med };
            let all: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "{name:<26} {med:>14.4} {q1:>14.4} {q3:>14.4} {spread:>9.4}  {}",
                all.join(" ")
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
