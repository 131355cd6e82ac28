//! The repository benchmark harness: runs one workload in this process
//! and prints one JSON result line.
//!
//! ```text
//! perfbench-harness --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A workload is one simulated scenario, run again and again by
//! single-threaded `run_scenario` calls for the `--seconds` budget.
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics. Any failed output check prints the reason on stderr and
//! exits non-zero without a result line. `perfbench/NOTES.md` describes
//! the workloads and the metric → layer → workload map.

mod layers;
mod sim;
mod stats;

use std::process::ExitCode;
use std::time::Duration;

use stats::Metrics;

/// Scenario builds timed for `setup_s`.
const SETUP_REPEATS: usize = 21;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig. 10 diurnal day on a fleet that keeps up with it.
    DiurnalServed,
    /// The Fig. 9 single-region Tree-of-Thoughts run, saturated.
    TotPushing,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "diurnal-served" => Some(Workload::DiurnalServed),
            "tot-pushing" => Some(Workload::TotPushing),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::DiurnalServed => "diurnal-served",
            Workload::TotPushing => "tot-pushing",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let workload = get("--workload").ok_or("missing --workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = get("--seed")
        .ok_or("missing --seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")
        .ok_or("missing --seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} out of range 1..=600"));
    }
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// An output check failed: the benchmark refuses to print a result.
#[derive(Debug)]
pub struct CheckFailed(pub String);

impl From<std::io::Error> for CheckFailed {
    fn from(e: std::io::Error) -> Self {
        CheckFailed(format!("i/o error: {e}"))
    }
}

/// Fails the run with `msg` unless `ok`.
pub fn check(ok: bool, msg: impl FnOnce() -> String) -> Result<(), CheckFailed> {
    if ok {
        Ok(())
    } else {
        Err(CheckFailed(msg()))
    }
}

fn run(args: &Args) -> Result<(Metrics, u64, u64), CheckFailed> {
    let w = args.workload;
    let mut metrics = Metrics::default();
    if args.trace {
        let (inputs, failed) = layers::sim_layers(w, args.seed, &mut metrics)?;
        return Ok((metrics, inputs.issued, failed));
    }
    let inputs = sim::Inputs::new(w, args.seed);
    metrics.put(
        "setup_s",
        sim::median_setup_s(w, args.seed, SETUP_REPEATS),
        "s",
    );
    let budget = Duration::from_secs_f64(args.seconds);
    let (digest, failed) = sim::end_to_end(&inputs, budget, &mut metrics)?;
    // Read the high-water mark before the traced run below, whose span
    // buffer is not part of the workload's footprint.
    metrics.put("peak_rss_mb", stats::peak_rss_bytes()? as f64 / 1e6, "MB");
    let (attribution, _) = sim::traced_run(&inputs, &digest)?;
    metrics.put(
        "sim_slo_share",
        sim::slo_share(&inputs, &attribution),
        "share",
    );
    Ok((metrics, inputs.issued, failed))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench-harness: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((metrics, attempted, failed)) => {
            println!("{}", metrics.result_line(attempted, failed));
            ExitCode::SUCCESS
        }
        Err(CheckFailed(msg)) => {
            eprintln!(
                "perfbench-harness: {} seed {}: output check failed: {msg}",
                args.workload.name(),
                args.seed
            );
            ExitCode::from(1)
        }
    }
}
