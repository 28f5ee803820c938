//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <frames|programs|rpc-open> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints notes (lines starting `#`) and then, as the last line, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. Exits
//! 1 when any output was wrong or any request failed, 2 on a usage error,
//! a set-up failure or an invalid run (no result line then). A traced run
//! writes its spans to `perfbench/out/spans-<workload>-seed<n>.jsonl`.

use std::path::PathBuf;
use std::process::ExitCode;

use apim_perfbench::{result_json, run, RunConfig, Workload};

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let trace = trace.unwrap_or(false);
    let spans_path = trace.then(|| {
        PathBuf::from(format!(
            "perfbench/out/spans-{}-seed{seed}.jsonl",
            workload.name()
        ))
    });
    Ok(RunConfig {
        workload,
        seed,
        seconds: seconds.unwrap_or(10.0),
        trace,
        spans_path,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse(&args) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&config) {
        Ok(outcome) => {
            for note in &outcome.notes {
                println!("# {note}");
            }
            println!("{}", result_json(&outcome));
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "perfbench: {} of {} requests failed or answered wrongly",
                    outcome.tally.errors(),
                    outcome.tally.attempted
                );
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
