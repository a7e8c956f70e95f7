//! Command line:
//!
//! ```text
//! lina-simbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--update-reference]
//! ```
//!
//! Prints log lines, then one JSON result line (see `README.md`).

use std::path::PathBuf;
use std::process::ExitCode;

use lina_simbench::config::{Size, Workload};
use lina_simbench::{reference, run, Options};

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut update_reference = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--update-reference" {
            update_reference = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    Ok(Options {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size: Size::full(workload),
        references: dir.join(reference::FILE),
        update_reference,
        spans_out: Some(
            dir.join("out")
                .join(format!("spans-{}-{seed}.json", workload.name())),
        ),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("lina-simbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(outcome) => {
            for line in &outcome.log {
                println!("# {line}");
            }
            println!("{}", outcome.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("lina-simbench: {e}");
            ExitCode::FAILURE
        }
    }
}
