//! `tw-perfbench --workload <timing|sampled|serve> --seed N --seconds S
//! --trace <0|1>` runs one workload and prints its result as the last
//! line of standard output; `tw-perfbench pin` regenerates `pins.txt`;
//! `tw-perfbench service-time` measures the mean latency of a serve
//! miss job.

use std::path::PathBuf;
use std::process::ExitCode;

use tw_perfbench::pins::Pins;
use tw_perfbench::serve::MAX_SECONDS;
use tw_perfbench::{compute_pins, run, Options};

const USAGE: &str =
    "usage: tw-perfbench --workload <timing|sampled|serve> --seed N --seconds S --trace <0|1>\n       tw-perfbench pin\n       tw-perfbench service-time";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        let bad = || format!("{}: bad value {value:?}", args[i]);
        match args[i].as_str() {
            "--workload" => opts.workload.clone_from(value),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds > 0.0 && opts.seconds <= MAX_SECONDS) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("pin") {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("pins.txt");
        let pins = compute_pins();
        if let Err(e) = std::fs::write(&path, pins.render()) {
            eprintln!("tw-perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("tw-perfbench: wrote {}", path.display());
        return ExitCode::SUCCESS;
    }
    if args.first().map(String::as_str) == Some("service-time") {
        let ms = tw_perfbench::serve::service_time_ms(500);
        println!("{ms:.1} ms per miss job");
        return ExitCode::SUCCESS;
    }
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("tw-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let pins = Pins::committed();
    let (outcome, spans) = match run(&opts, &pins) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("tw-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if opts.trace {
        let path = PathBuf::from(".perfbench_out")
            .join(format!("spans-{}-seed{}.jsonl", opts.workload, opts.seed));
        match spans.write(&path) {
            Ok(()) => eprintln!(
                "tw-perfbench: {} spans in {}",
                spans.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("tw-perfbench: writing {}: {e}", path.display()),
        }
    }
    match outcome.render(opts.trace) {
        Ok(line) => {
            println!("{line}");
            if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("tw-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
