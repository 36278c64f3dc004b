//! `relia-lint` — the standalone CLI for the workspace linter.
//!
//! ```text
//! relia-lint [--root PATH] [--format text|json|sarif] [--jobs N]
//!            [--list-rules]
//! ```
//!
//! Exit codes follow the sweep CLI convention: 0 clean, 1 violations
//! found, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use relia_lint::{diag, lint_workspace_opts, walker, WorkspaceOpts, RULES};

const USAGE: &str =
    "usage: relia-lint [--root PATH] [--format text|json|sarif] [--jobs N] [--list-rules]";

enum Format {
    Text,
    Json,
    Sarif,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root: Option<PathBuf> = None;
    let mut format = Format::Text;
    let mut opts = WorkspaceOpts::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--root" => match iter.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage_error("--root needs a path"),
            },
            "--format" => match iter.next().map(String::as_str) {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                Some("sarif") => format = Format::Sarif,
                other => {
                    return usage_error(&format!(
                        "--format wants text|json|sarif, got {:?}",
                        other.unwrap_or("<missing>")
                    ))
                }
            },
            "--jobs" => match iter.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => opts.jobs = n,
                _ => return usage_error("--jobs needs a positive integer"),
            },
            "--list-rules" => {
                for (i, r) in RULES.iter().enumerate() {
                    println!("R{} {} — {}", i + 1, r.id, r.summary);
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown flag {other:?}")),
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(d) => d,
                Err(e) => return usage_error(&format!("cannot read current dir: {e}")),
            };
            match walker::find_workspace_root(&cwd) {
                Some(r) => r,
                None => return usage_error("no workspace Cargo.toml above the current directory"),
            }
        }
    };

    match lint_workspace_opts(&root, &opts) {
        Ok(diags) => {
            match format {
                Format::Text => {
                    for d in &diags {
                        println!("{}", d.render_text());
                    }
                }
                Format::Json => {
                    for d in &diags {
                        println!("{}", d.render_json());
                    }
                }
                Format::Sarif => println!("{}", diag::render_sarif(&diags)),
            }
            if diags.is_empty() {
                ExitCode::SUCCESS
            } else {
                if matches!(format, Format::Text) {
                    eprintln!("relia-lint: {} violation(s)", diags.len());
                }
                ExitCode::FAILURE
            }
        }
        Err(e) => usage_error(&e),
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("relia-lint: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}
