//! The benchmark command.
//!
//! ```text
//! perfbench --workload <serve-mix|analytic|durable-write|all> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! `perfbench --catalogue` prints the benchmark's `BENCHMARK.json`.
//!
//! Prints the configuration, every metric with its unit and sample
//! count, and as the last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Exits non-zero on
//! any wrong answer or failed durability check. `all` runs each workload
//! in its own child process, so no peak-memory figure leaks across, and
//! exits non-zero if any of them failed.

use perfbench::{Opts, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1> \
         [--out <dir>]",
        WORKLOADS.map(|(w, _)| w).join("|")
    );
    ExitCode::from(2)
}

fn default_out_dir() -> PathBuf {
    let here = PathBuf::from("perfbench");
    if here.join("Cargo.toml").is_file() {
        here.join("out")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--catalogue"] {
        print!("{}", perfbench::catalogue_json());
        return ExitCode::SUCCESS;
    }
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = f64::from(perfbench::RUN_SECONDS);
    let mut trace = false;
    let mut out_dir = default_out_dir();
    let mut prepare_dir = None;
    let mut i = 0;
    while i < args.len() {
        let Some(value) = args.get(i + 1) else {
            return usage(&format!("{} needs a value", args[i]));
        };
        let ok = match args[i].as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value.parse().map(|v| seconds = v).is_ok() && seconds > 0.0,
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    trace = value == "1";
                    true
                }
                _ => false,
            },
            "--out" => {
                out_dir = PathBuf::from(value);
                true
            }
            "--prepare" => {
                prepare_dir = Some(PathBuf::from(value));
                true
            }
            other => return usage(&format!("unknown argument {other}")),
        };
        if !ok {
            return usage(&format!("bad value {value:?} for {}", args[i]));
        }
        i += 2;
    }
    if let Some(dir) = prepare_dir {
        return match perfbench::common::prepare_data(&dir, perfbench::NODES, seed) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: prepare: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    if workload == "all" {
        return run_all(&args);
    }
    if !WORKLOADS.iter().any(|(w, _)| *w == workload) {
        return usage(&format!("unknown workload {workload:?}"));
    }
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let opts = Opts {
        workload,
        seed,
        seconds,
        trace,
        nodes: perfbench::NODES,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        out_dir,
        isolate_prepare: true,
    };
    let report = perfbench::run(&opts);
    print!("{}", report.human());
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a child process with the same arguments,
/// passing each one's output through, and ends with one summary line.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: current_exe: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = Vec::new();
    for (w, _) in WORKLOADS {
        let mut child_args = args.to_vec();
        if let Some(pos) = child_args.iter().position(|a| a == "--workload") {
            child_args[pos + 1] = w.to_string();
        }
        match std::process::Command::new(&exe).args(&child_args).status() {
            Ok(status) if status.success() => {}
            Ok(_) => failed.push(w),
            Err(e) => {
                eprintln!("perfbench: spawn {w}: {e}");
                failed.push(w);
            }
        }
    }
    if failed.is_empty() {
        println!("all workloads correct");
        ExitCode::SUCCESS
    } else {
        println!("FAILED workloads: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}
