//! Command-line entry point of the benchmark:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <oneshot|query_many|delta_stream> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Prints a table of metrics with their sample counts, then one JSON
//! line with `correct`, `attempted`, `failed` and `metrics`. Exits 0 only
//! when every operation matched its reference.

use pscds_perfbench::{run, Config, Sizes, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: pscds-perfbench --workload <oneshot|query_many|delta_stream> \
                     --seed <u64> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        sizes: Sizes::full(),
        work_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".work"),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(config) => config,
        Err(why) => {
            eprintln!("error: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "pscds-perfbench: workload {} seed {} seconds {} trace {} ({} cores available)",
        config.workload.name(),
        config.seed,
        config.seconds,
        u8::from(config.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    match run(&config) {
        Ok(outcome) => {
            print!("{}", outcome.table());
            println!("{}", outcome.json());
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(why) => {
            eprintln!("error: {why}");
            ExitCode::FAILURE
        }
    }
}
