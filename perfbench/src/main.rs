//! The repository benchmark: the pinpoint pipeline end to end and layer
//! by layer.
//!
//! ```text
//! perfbench --workload <offline-r50|serve-scan|serve-hot> --seed N --seconds S --trace <0|1>
//! ```
//!
//! `--trace 0` measures the workload with tracing off and prints the
//! end-to-end metrics; `--trace 1` is the separate traced run that prints
//! the per-layer metrics. Either way the last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! Every output the run produces is checked; any mismatch makes the run
//! incorrect and the exit code 1. See `README.md` for each metric.

mod client;
mod host;
mod offline;
mod pipeline;
mod probes;
mod sched;
mod serve;
mod stats;
mod util;

use std::process::ExitCode;
use util::{Outcome, WorkDir};

/// Command-line arguments.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["offline-r50", "serve-scan", "serve-hot"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = match WorkDir::create(&args.workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: cannot create the work directory: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = Outcome::default();
    util::provenance(
        &mut out,
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
    );
    if args.trace {
        // probes run first, while no daemon has switched the tracer on
        probes::run(&args, &work, &mut out);
    }
    let mut host = host::HostSpeed::default();
    match (args.workload.as_str(), args.trace) {
        ("offline-r50", false) => offline::run(&args, &work, &mut host, &mut out),
        ("offline-r50", true) => serve::probe(&args, &work, &mut host, &mut out),
        ("serve-scan", _) => serve::run(serve::Mix::Scan, &args, &work, &mut host, &mut out),
        ("serve-hot", _) => serve::run(serve::Mix::Hot, &args, &work, &mut host, &mut out),
        _ => unreachable!("workload validated by parse_args"),
    }
    out.note(
        "host_slowdown",
        format!(
            "{:.4} (median of {} reference-kernel samples / {} s)",
            host.slowdown(),
            host.samples(),
            host::REFERENCE_S
        ),
    );
    if !args.trace {
        out.metric("peak_rss_mb", util::peak_rss_mb(), "MB");
    }
    drop(work);
    out.print();
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
