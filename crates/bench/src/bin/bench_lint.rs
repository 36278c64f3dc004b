//! `bench_lint` — measures the linter's per-line cost and maintains the
//! committed `BENCH_lint.json` record.
//!
//! ```text
//! bench_lint            measure and print (no file IO)
//! bench_lint --write    re-measure and rewrite BENCH_lint.json
//! bench_lint --check    re-measure and gate against the committed file
//! ```
//!
//! The linting claim under test: the scope-aware pipeline must stay cheap
//! enough to run on every `check.sh` invocation and inside the editor
//! loop. The corpus is the committed rule fixtures — every R1–R11
//! positive/suppressed/clean file — repeated to a stable line count, so
//! the measurement covers comment stripping, string literals, pragmas,
//! guard tracking, and every rule's hot path. `--check` fails (exit 1)
//! when the fresh or committed per-line cost breaks the absolute bound,
//! or when the committed numbers drift outside a generous tolerance band
//! of the fresh ones (machine noise is expected; a pipeline regression is
//! not). Flag mistakes exit 2.

use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use relia_lint::{analyze_source, lexer, FileKind, FileOpts};

/// Full-corpus passes per timing sample.
const PASSES: usize = 40;
/// Timing repetitions; the reported number is the median.
const REPS: usize = 5;
/// How many times the fixture set is concatenated into the corpus.
const CORPUS_REPEAT: usize = 8;
/// Full analysis (lex + scopes + pragmas + all rules) must stay under
/// 20 µs per source line, fresh and committed.
const MAX_ANALYZE_NS: f64 = 20_000.0;
/// Committed ns/line may differ from a fresh measurement by this factor
/// in either direction before `--check` calls it a drift.
const DRIFT_FACTOR: f64 = 8.0;

/// Exercise every rule family: library-kind with handler and job context.
const OPTS: FileOpts = FileOpts {
    kind: FileKind::Library,
    crate_root: false,
    handler: true,
    job: true,
};

/// The committed rule fixtures, one entry per file. `include_str!` pins
/// the corpus at compile time so the measurement is hermetic.
macro_rules! fixture {
    ($name:literal) => {
        (
            $name,
            include_str!(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../lint/tests/fixtures/",
                $name
            )),
        )
    };
}

const FIXTURES: &[(&str, &str)] = &[
    fixture!("r1_positive.rs"),
    fixture!("r1_suppressed.rs"),
    fixture!("r1_clean.rs"),
    fixture!("r2_positive.rs"),
    fixture!("r2_suppressed.rs"),
    fixture!("r2_clean.rs"),
    fixture!("r3_positive.rs"),
    fixture!("r3_suppressed.rs"),
    fixture!("r3_clean.rs"),
    fixture!("r4_positive.rs"),
    fixture!("r4_suppressed.rs"),
    fixture!("r4_clean.rs"),
    fixture!("r5_positive.rs"),
    fixture!("r5_suppressed.rs"),
    fixture!("r5_clean.rs"),
    fixture!("r6_positive.rs"),
    fixture!("r6_suppressed.rs"),
    fixture!("r6_clean.rs"),
    fixture!("r7_positive.rs"),
    fixture!("r7_breaker_positive.rs"),
    fixture!("r7_suppressed.rs"),
    fixture!("r7_clean.rs"),
    fixture!("r8_positive.rs"),
    fixture!("r8_suppressed.rs"),
    fixture!("r8_clean.rs"),
    fixture!("r9_positive_a.rs"),
    fixture!("r9_positive_b.rs"),
    fixture!("r9_suppressed_a.rs"),
    fixture!("r9_suppressed_b.rs"),
    fixture!("r9_clean_a.rs"),
    fixture!("r9_clean_b.rs"),
    fixture!("r10_positive.rs"),
    fixture!("r10_suppressed.rs"),
    fixture!("r10_clean.rs"),
    fixture!("r11_positive.rs"),
    fixture!("r11_suppressed.rs"),
    fixture!("r11_clean.rs"),
    fixture!("stale_pragma.rs"),
    fixture!("bad_pragma.rs"),
];

struct Record {
    lines: u64,
    lex_ns_per_line: f64,
    analyze_ns_per_line: f64,
}

impl Record {
    fn to_json(&self) -> String {
        format!(
            "{{\n  \"lines\": {},\n  \"lex_ns_per_line\": {:.1},\n  \"analyze_ns_per_line\": {:.1}\n}}\n",
            self.lines, self.lex_ns_per_line, self.analyze_ns_per_line
        )
    }
}

/// Pulls `"name": <number>` out of the committed record without a JSON
/// dependency — the file is machine-written by `to_json` above.
fn json_number(text: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\":");
    let rest = &text[text.find(&key)? + key.len()..];
    let rest = rest.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// The fixture set repeated [`CORPUS_REPEAT`] times, plus the total line
/// count of one full corpus walk.
fn corpus() -> (Vec<(&'static str, &'static str)>, usize) {
    let mut files = Vec::with_capacity(FIXTURES.len() * CORPUS_REPEAT);
    for _ in 0..CORPUS_REPEAT {
        files.extend_from_slice(FIXTURES);
    }
    let lines = files.iter().map(|(_, src)| src.lines().count()).sum();
    (files, lines)
}

fn measure() -> Record {
    let (files, lines) = corpus();
    assert!(lines > 0, "fixture corpus is empty");

    // Lexing alone: the floor every run pays per file.
    let lex_ns = median(
        (0..REPS)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..PASSES {
                    for (_, src) in &files {
                        black_box(lexer::lex(black_box(src)));
                    }
                }
                start.elapsed().as_nanos() as f64 / (PASSES * lines) as f64
            })
            .collect(),
    );

    // Full per-file pipeline: lex, scope tracking, pragmas, all rules.
    let analyze_ns = median(
        (0..REPS)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..PASSES {
                    for (name, src) in &files {
                        black_box(analyze_source(name, black_box(src), &OPTS));
                    }
                }
                start.elapsed().as_nanos() as f64 / (PASSES * lines) as f64
            })
            .collect(),
    );

    Record {
        lines: lines as u64,
        lex_ns_per_line: lex_ns,
        analyze_ns_per_line: analyze_ns,
    }
}

fn record_path() -> PathBuf {
    // crates/bench -> workspace root, so the record lives next to the
    // figure goldens regardless of the invoking directory.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_lint.json")
}

fn check(fresh: &Record) -> Result<(), String> {
    let path = record_path();
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let committed_lex =
        json_number(&text, "lex_ns_per_line").ok_or("committed record lacks lex_ns_per_line")?;
    let committed_analyze = json_number(&text, "analyze_ns_per_line")
        .ok_or("committed record lacks analyze_ns_per_line")?;
    if committed_analyze > MAX_ANALYZE_NS {
        return Err(format!(
            "committed analyze cost {committed_analyze:.0} ns/line exceeds the \
             {MAX_ANALYZE_NS:.0} ns bound"
        ));
    }
    if fresh.analyze_ns_per_line > MAX_ANALYZE_NS {
        return Err(format!(
            "measured analyze cost {:.0} ns/line exceeds the {MAX_ANALYZE_NS:.0} ns bound",
            fresh.analyze_ns_per_line
        ));
    }
    for (name, committed, measured) in [
        ("lex_ns_per_line", committed_lex, fresh.lex_ns_per_line),
        (
            "analyze_ns_per_line",
            committed_analyze,
            fresh.analyze_ns_per_line,
        ),
    ] {
        let ratio = if measured > committed {
            measured / committed
        } else {
            committed / measured
        };
        if !(ratio.is_finite() && ratio <= DRIFT_FACTOR) {
            return Err(format!(
                "{name} drifted: committed {committed:.1}, measured {measured:.1} \
                 (beyond {DRIFT_FACTOR:.0}x tolerance; rerun with --write on this machine)"
            ));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match args.first().map(String::as_str) {
        None => "print",
        Some("--write") => "write",
        Some("--check") => "check",
        Some(other) => {
            eprintln!("bench_lint: unknown flag {other}");
            eprintln!("usage: bench_lint [--write | --check]");
            return ExitCode::from(2);
        }
    };

    let fresh = measure();
    println!(
        "lint pipeline bench: {} fixture lines x {PASSES} passes (median of {REPS} reps)",
        fresh.lines
    );
    println!("lex only     : {:>8.1} ns/line", fresh.lex_ns_per_line);
    println!("full analyze : {:>8.1} ns/line", fresh.analyze_ns_per_line);

    match mode {
        "write" => {
            let path = record_path();
            if let Err(e) = std::fs::write(&path, fresh.to_json()) {
                eprintln!("bench_lint: cannot write {}: {e}", path.display());
                return ExitCode::from(1);
            }
            println!("wrote {}", path.display());
            ExitCode::SUCCESS
        }
        "check" => match check(&fresh) {
            Ok(()) => {
                println!("check: committed record within tolerance, analyze-cost gate held");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("bench_lint: {e}");
                ExitCode::from(1)
            }
        },
        _ => ExitCode::SUCCESS,
    }
}
