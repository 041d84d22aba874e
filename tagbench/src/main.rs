//! End-to-end monitoring benchmark for the tagwatch workspace.
//!
//! ```text
//! cargo run --release --manifest-path tagbench/Cargo.toml -- \
//!     --workload <fleet-small|site-large> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Prints notes, then one JSON result line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Exits 1 when an
//! output check failed (the result line then says `"correct": false`)
//! and 2 on a usage or set-up error. See `tagbench/README.md`.

mod measure;
mod sites;
mod soak;

use std::process::ExitCode;

use measure::Outcome;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let shape = match args.workload.as_str() {
        "fleet-small" => sites::fleet_small(args.seed),
        "site-large" => sites::site_large(),
        other => {
            return Err(format!(
                "unknown workload {other} (fleet-small, site-large)"
            ))
        }
    };
    if args.trace {
        sites::run_traced(&shape, args.seed, args.seconds)
    } else {
        sites::run(&shape, args.seed, args.seconds)
    }
}

fn main() -> ExitCode {
    let outcome = match parse_args().and_then(|args| run(&args)) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("tagbench: {e}");
            return ExitCode::from(2);
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for error in &outcome.errors {
        eprintln!("tagbench: output check failed: {error}");
    }
    println!("{}", outcome.to_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
