//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-pipeline|paper-analyses|masque-storm> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root (or any directory below it). The last
//! line of standard output is the result as one JSON object; every line
//! before it is one result with its provenance. Exits 1 when an output or
//! equivalence check fails, 2 on bad arguments or a missing repository.

use std::process::ExitCode;

use tectonic_perfbench::checks::Golden;
use tectonic_perfbench::env::{nproc, repo_root, Provenance, BENCH_DIR};
use tectonic_perfbench::output::{contract_line, result_lines};
use tectonic_perfbench::workloads::{self, Run, Sizes, Workload};

const USAGE: &str =
    "usage: perfbench --workload <paper-pipeline|paper-analyses|masque-storm> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Run, String> {
    let mut run = Run {
        workload: Workload::PaperPipeline,
        seed: 1,
        seconds: 10.0,
        trace: false,
        workers: nproc(),
    };
    let mut workload = None;
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => run.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                run.seconds = value.parse().map_err(|_| bad())?;
                if run.seconds.is_nan() || run.seconds <= 0.0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    run.workload = workload.ok_or("--workload is required")?;
    Ok(run)
}

fn main() -> ExitCode {
    let run = match parse_args(std::env::args().skip(1)) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = match repo_root() {
        Ok(root) => root,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let golden = match Golden::load(&root.join(BENCH_DIR).join("golden.json")) {
        Ok(golden) => golden,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let provenance = Provenance::detect(&root);
    let outcome = workloads::run(&run, &Sizes::benchmark(), &golden);
    for line in result_lines(&run, &outcome, &provenance) {
        println!("{line}");
    }
    for failure in &outcome.checks.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    println!("{}", contract_line(&outcome));
    if outcome.checks.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
