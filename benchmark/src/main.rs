//! Command line of the benchmark; see `README.md` for the commands.

use repro_benchmark::results::{compare, print_run, record_golden, run_all, write_run_files};
use repro_benchmark::run::{run_workload, RunOpts, DEFAULT_SECONDS};
use repro_benchmark::workloads::{Workload, WORKLOADS};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage:
  repro-benchmark [--seed N] [--seconds S] [--trace 0|1] [--smoke]
      run every workload, each in its own process (with --trace 1 a traced
      run of each as well); write out/results.json
  repro-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
      run one workload in this process; the last line of output is one JSON object
  repro-benchmark golden
      re-record golden.json from the plain sequential engine
  repro-benchmark compare A.json B.json
      compare two results.json files; non-zero exit when they disagree";

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                out.workload = Some(Workload::by_name(name).ok_or_else(|| {
                    format!("unknown workload {name:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds >= 0.0 && out.seconds <= 120.0) {
                    return Err("--seconds must be between 0 and 120".into());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("golden") if args.len() == 1 => record_golden().map(|()| true),
        Some("compare") if args.len() == 3 => compare(Path::new(&args[1]), Path::new(&args[2])),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            Ok(true)
        }
        _ => {
            let a = parse(&args)?;
            match a.workload {
                None => run_all(a.seed, a.seconds, a.trace, a.smoke),
                Some(workload) => {
                    let record = run_workload(RunOpts {
                        workload,
                        seed: a.seed,
                        seconds: a.seconds,
                        trace: a.trace,
                        smoke: a.smoke,
                    });
                    write_run_files(&record)?;
                    print_run(&record);
                    println!("{}", record.driver_line().to_string_compact());
                    Ok(record.correct())
                }
            }
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("repro-benchmark: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
