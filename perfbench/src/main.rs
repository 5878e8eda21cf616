//! `perfbench` — the end-to-end and per-layer benchmark of the detector's
//! user paths. See `perfbench/README.md` for the workloads, the metrics and
//! how the per-layer numbers map onto the end-to-end ones.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it is a
//! provenance object (host, toolchain, load, seed, sample counts). The exit
//! code is 0 only when every output check passed.

mod hist;
mod inproc;
mod layers;
mod report;
mod serve;
mod sim;

use std::time::Duration;

use report::{provenance_json, Outcome};

/// The benchmark's workloads, as named on the command line.
pub const WORKLOADS: [&str; 4] = [
    "serve-stencil",
    "session-random",
    "sharded-random",
    "sim-random",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; known: {}",
            WORKLOADS.join(", ")
        ));
    }
    let seconds: u64 = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(serve::CHILD_FLAG) {
        std::process::exit(serve::child_main());
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let load_start = report::loadavg();
    let budget = Duration::from_secs(args.seconds);
    let outcome: Outcome = match (args.workload.as_str(), args.trace) {
        ("serve-stencil", false) => serve::run(args.seed, budget),
        ("session-random", false) => inproc::run(inproc::Path::Inline, args.seed, budget),
        ("sharded-random", false) => inproc::run(inproc::Path::Sharded, args.seed, budget),
        ("sim-random", false) => sim::run(args.seed, budget),
        (workload, true) => layers::run(workload, args.seed, budget),
        _ => unreachable!("workload names are validated"),
    };
    let load_end = report::loadavg();
    println!(
        "{}",
        provenance_json(
            &args.workload,
            args.seed,
            args.trace,
            load_start,
            load_end,
            &outcome
        )
    );
    println!("{}", outcome.result_json());
    for failure in &outcome.failures {
        eprintln!("perfbench: CHECK FAILED: {failure}");
    }
    std::process::exit(if outcome.correct() { 0 } else { 1 });
}
