//! `perfbench --workload <suite|stream|campaign> --seed <n> --seconds <s>
//! --trace <0|1>`: runs one workload and prints its result as one JSON
//! line, the last line of standard output. Progress, failures and the span
//! summary go to standard error.

use std::path::PathBuf;
use std::process::ExitCode;

use dide_perfbench::ledger::Ledger;
use dide_perfbench::workload::{Kind, Sizes};
use dide_perfbench::{run, Options};

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid {flag} `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(Kind::parse(value)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        kind: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        sizes: Sizes::full(),
        work_dir: PathBuf::from(".perfbench_work").join(std::process::id().to_string()),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload suite|stream|campaign --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let result = run(&options, &mut Ledger::default());
    // The scratch store is this run's alone; leave the parent only if empty.
    let _ = std::fs::remove_dir_all(&options.work_dir);
    if let Some(parent) = options.work_dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    match result {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
