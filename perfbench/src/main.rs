//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a few `#` lines describing the run, then one JSON result line:
//! `{"correct", "attempted", "failed", "metrics"}` with every end-to-end
//! metric (`--trace 0`) or every per-layer metric (`--trace 1`).

use canon_id::rng::Seed;
use perfbench::run::{end_to_end, traced, Report};
use perfbench::workload::Workload;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <uniform-framed|flash-cached|local-rw> \
                     --seed <u64> --seconds <1..=60> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u32>().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(bad)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=60"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: f64::from(seconds),
        trace: match trace.ok_or("--trace is required")? {
            0 => false,
            1 => true,
            t => return Err(format!("--trace {t} is not 0 or 1")),
        },
    })
}

/// A JSON number: finite values as Rust prints them (every digit kept).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn result_line(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Rounds run serially: a per-round thread fork costs more than the
    // round itself at these loads.
    canon_par::set_global_threads(1);
    let seed = Seed(args.seed);
    let report = if args.trace {
        traced(args.workload, seed, args.seconds)
    } else {
        end_to_end(args.workload, seed, args.seconds)
    };
    for line in &report.lines {
        println!("{line}");
    }
    for m in &report.metrics {
        println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for p in &report.problems {
        eprintln!("check failed: {p}");
    }
    println!("{}", result_line(&report));
    ExitCode::SUCCESS
}
