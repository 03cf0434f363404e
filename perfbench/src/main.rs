//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload with tracing off and prints its end-to-end metrics,
//! or (`--trace 1`) runs the traced sweep over every workload and prints
//! the per-layer metrics. Diagnostics go to stderr; the last line of
//! stdout is the JSON result.

use std::process::ExitCode;
use std::time::Duration;

use perfbench::report::{nproc, Outcome};
use perfbench::{layers, workloads};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value.parse().map_err(|_| format!("--seed wants an integer, got {value:?}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("--seconds wants an integer, got {value:?}"))?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("no workload {workload:?}; one of {:?}", workloads::WORKLOADS));
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args { workload, seed: seed.ok_or("--seed is required")?, seconds, trace })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} nproc {}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        nproc()
    );
    let span = Duration::from_secs(args.seconds);
    let outcome: Outcome = if args.trace {
        layers::traced(args.seed, span)
    } else {
        match args.workload.as_str() {
            "sim_charge" => workloads::sim_charge(args.seed, span),
            "serve_hot" => workloads::serve_hot(args.seed, span),
            _ => workloads::serve_mixed(args.seed, span),
        }
    };
    for e in &outcome.errors {
        eprintln!("error: {e}");
    }
    println!("{}", outcome.json_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
