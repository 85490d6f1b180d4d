//! Command-line entry: `--workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`. Prints the report, then the result object as the last
//! line of standard output.

use std::path::PathBuf;
use std::process::ExitCode;

use muzha_benchmark::workloads::Workload;
use muzha_benchmark::{run, Options};

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut pairs = args.iter();
    while let Some(flag) = pairs.next() {
        let value = pairs.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    format!("unknown workload `{value}`; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Options {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        virtual_secs: None,
        // Beside the package's own build output, which `.gitignore` names.
        spans_path: Some(PathBuf::from(format!("benchmark/out/spans-{}.tsv", workload.name()))),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let finished = run(&options);
    print!("{}", finished.report);
    println!("{}", finished.result.to_json_line());
    if finished.result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
