//! The repository benchmark: measured campaign throughput end to end and
//! per-layer tick costs, on three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign_rr --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a traced sample. The last line of stdout is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. The line
//! before it carries the results digest and the machine stamp. See
//! `perfbench/README.md` for the workloads and the metric-to-layer map.

mod fd;
mod fig5;
mod pins;
mod report;
mod rr;
mod sample;
mod tracer;

use std::path::PathBuf;
use std::process::ExitCode;

/// Workload size: `full` is the benchmark; `tiny` is the self-test size.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

const WORKLOADS: [&str; 3] = ["campaign_rr", "campaign_fd_sharded", "sensing_fig5"];

const USAGE: &str = "usage: perfbench --workload <campaign_rr|campaign_fd_sharded|sensing_fig5> \
                     --seed <n> --seconds <n> --trace <0|1> [--size <full|tiny>]";

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 0, seconds: 30.0, trace: false, size: Size::Full };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} value {value:?}: {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("not an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err(bad("must be finite and non-negative"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--size" => {
                args.size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad("expected full or tiny")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// Engine threads: `DIVERSEAV_THREADS` capped at the visible cores,
/// defaulting to all of them. Exported so the engine reads the same
/// value.
fn engine_threads() -> usize {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = std::env::var("DIVERSEAV_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map_or(nproc, |n| n.clamp(1, nproc));
    std::env::set_var("DIVERSEAV_THREADS", threads.to_string());
    threads
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = engine_threads();
    // Shard artifacts live in a per-process directory under the working
    // directory, removed on exit.
    let work_dir = PathBuf::from(".perfbench_work").join(std::process::id().to_string());
    let mut report = match args.workload.as_str() {
        "campaign_rr" => rr::run(&args),
        "campaign_fd_sharded" => fd::run(&args, &work_dir),
        _ => fig5::run(&args),
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    let _ = std::fs::remove_dir(".perfbench_work");
    if args.trace {
        report.zero_missing_layers();
    }
    report::print(&args.workload, args.seed, args.trace, threads, &report);
    ExitCode::SUCCESS
}
