//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable lines, then, as the last line of standard
//! output, one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end (`--trace 0`) or per-layer (`--trace 1`) metrics. A traced
//! run also writes its spans, one JSON object a line, to
//! `perfbench/out/spans-<workload>.jsonl` in the package.

use std::process::ExitCode;

use kscope_perfbench::report::{self, Request};
use kscope_perfbench::{Size, Workload, DEFAULT_SEED};

const USAGE: &str = "usage: perfbench --workload <paper_sweep|netstack_impaired|fleet_scale> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse() -> Result<Request, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse::<f64>().map_err(|_| bad())?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Request {
        workload,
        seed,
        seconds,
        trace,
        size: Size::Full,
    })
}

fn main() -> ExitCode {
    let req = match parse() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = report::run(req);
    if req.trace {
        let path = format!(
            "{}/out/spans-{}.jsonl",
            env!("CARGO_MANIFEST_DIR"),
            req.workload.name()
        );
        let written = std::path::Path::new(&path)
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, outcome.spans.to_jsonl()));
        match written {
            Ok(()) => eprintln!("perfbench: spans written to {path}"),
            Err(e) => eprintln!("perfbench: could not write spans to {path}: {e}"),
        }
    }
    for line in &outcome.lines {
        println!("{line}");
    }
    println!("{}", outcome.result_line());
    ExitCode::SUCCESS
}
