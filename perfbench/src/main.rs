//! relia-perfbench: the measuring half of the benchmark. `run.py` builds
//! the program and this binary, then runs
//!
//! ```text
//! relia-perfbench <workload> --seed N --seconds S --trace 0|1 --relia PATH --out DIR
//! ```
//!
//! for the `degrade_cold`, `sweep`, `fleet` and `surface_build`
//! workloads. The last stdout line is one JSON object with
//! the run's counts and raw metric values; `run.py` attaches units and
//! prints the final result. `relia-perfbench probe <workload>` is the
//! fresh process whose spawn-to-ready time is an in-process workload's
//! set-up time, and `relia-perfbench digests` prints the digests that
//! `expected.rs` pins.

mod batch;
mod degrade;
mod expected;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

use util::Report;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `relia` CLI binary the serving workloads spawn.
    pub relia: PathBuf,
    /// Output directory for artifacts, server logs and span files.
    pub out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: argv.first().cloned().ok_or("missing workload")?,
        seed: 1,
        seconds: 10.0,
        trace: false,
        relia: PathBuf::new(),
        out: PathBuf::new(),
    };
    let mut it = argv[1..].iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => args.trace = value == "1",
            "--relia" => args.relia = PathBuf::from(value),
            "--out" => args.out = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.out.as_os_str().is_empty() {
        return Err("--out is required".to_owned());
    }
    std::fs::create_dir_all(&args.out).map_err(|e| format!("creating --out: {e}"))?;
    Ok(args)
}

fn run(argv: &[String]) -> Result<Report, String> {
    let args = parse_args(argv)?;
    let mut report = Report::default();
    let in_process = ["sweep", "fleet", "surface_build"].contains(&args.workload.as_str());
    if in_process && !args.trace {
        report.set("setup_s", batch::setup_s(&args.workload, 21)?);
    }
    match args.workload.as_str() {
        "degrade_cold" => degrade::run(&args, &mut report)?,
        "sweep" => batch::sweep(&args, &mut report)?,
        "fleet" => batch::fleet(&args, &mut report)?,
        "surface_build" => batch::surface_build(&args, &mut report)?,
        other => return Err(format!("unknown workload {other}")),
    }
    Ok(report)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("probe") => {
            let workload = argv.get(1).map_or("", String::as_str);
            return match batch::probe(workload, argv.get(2..).unwrap_or(&[])) {
                Ok(()) => {
                    println!("ready");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench probe: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Some("digests") => {
            return match expected::print_current() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench digests: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => {}
    }
    match run(&argv) {
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
