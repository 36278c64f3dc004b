//! `bench_lint` — measures the linter's per-line cost and maintains the
//! committed `BENCH_lint.json` record through the [`relia_bench::gate`]
//! harness (`--write`, `--check`, exit codes).
//!
//! The linting claim under test: the scope-aware pipeline must stay cheap
//! enough to run on every `check.sh` invocation and inside the editor
//! loop. The corpus is the committed rule fixtures — every R1–R11
//! positive/suppressed/clean file — repeated to a stable line count, so
//! the measurement covers comment stripping, string literals, pragmas,
//! guard tracking, and every rule's hot path. Full analysis stays under
//! [`MAX_ANALYZE_NS`] per line; lexing and analysis are drift-checked.

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use relia_bench::gate::{median_of_reps, Bench, Format, Gate};
use relia_lint::{analyze_source, lexer, FileKind, FileOpts};

/// Full-corpus passes per timing sample.
const PASSES: usize = 40;
/// How many times the fixture set is concatenated into the corpus.
const CORPUS_REPEAT: usize = 8;
/// Full analysis (lex + scopes + pragmas + all rules) must stay under
/// 20 µs per source line, fresh and committed.
const MAX_ANALYZE_NS: f64 = 20_000.0;

/// `BENCH_lint.json`: its fields in file order and the `--check` gate table.
const BENCH: Bench = Bench {
    name: "lint",
    fields: &[
        ("lines", Format::Count),
        ("lex_ns_per_line", Format::Tenths),
        ("analyze_ns_per_line", Format::Tenths),
    ],
    gates: &[
        Gate::AtMost("analyze_ns_per_line", MAX_ANALYZE_NS),
        Gate::Drift("lex_ns_per_line"),
        Gate::Drift("analyze_ns_per_line"),
    ],
};

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

/// The record's values, in [`BENCH`] field order.
fn measure() -> [f64; BENCH.fields.len()] {
    let (files, lines) = corpus();
    assert!(lines > 0, "fixture corpus is empty");

    // Lexing alone: the floor every run pays per file.
    let lex_ns = median_of_reps(|_| {
        let start = Instant::now();
        for _ in 0..PASSES {
            for (_, src) in &files {
                black_box(lexer::lex(black_box(src)));
            }
        }
        start.elapsed().as_nanos() as f64 / (PASSES * lines) as f64
    });

    // Full per-file pipeline: lex, scope tracking, pragmas, all rules.
    let analyze_ns = median_of_reps(|_| {
        let start = Instant::now();
        for _ in 0..PASSES {
            for (name, src) in &files {
                black_box(analyze_source(name, black_box(src), &OPTS));
            }
        }
        start.elapsed().as_nanos() as f64 / (PASSES * lines) as f64
    });

    [lines as f64, lex_ns, analyze_ns]
}

fn main() -> ExitCode {
    BENCH.run(measure)
}

#[cfg(test)]
mod tests {
    use super::BENCH;

    #[test]
    fn committed_record_round_trips_and_holds_its_bounds() {
        let text = BENCH.read_committed().expect("committed record reads");
        let committed = BENCH.parse(&text).expect("committed record parses");
        assert_eq!(BENCH.render(&committed), text);
        assert_eq!(BENCH.check(&committed, &committed), Vec::<String>::new());
    }
}
