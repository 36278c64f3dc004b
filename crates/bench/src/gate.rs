//! The bench-gate harness behind every `bench_*` runner: everything about a
//! committed `BENCH_<name>.json` record except the measurement itself.
//!
//! A runner declares a [`Bench`] — its record's fields in file order, each
//! with a render [`Format`], and a table of [`Gate`]s — and hands
//! [`Bench::run`] a closure that measures those fields. The harness owns the
//! rest:
//!
//! ```text
//! bench_<name>            measure and print (no file IO)
//! bench_<name> --write    re-measure and rewrite BENCH_<name>.json
//! bench_<name> --check    re-measure and gate against the committed file
//! ```
//!
//! Exit codes: 0 on success, 1 when a gate fails or on I/O, 2 on a flag
//! error. A gate reads the named field of both the committed record and the
//! fresh measurement; each side must be finite and positive, and bound
//! gates apply to both. [`Gate::Drift`] allows the two sides to differ by
//! up to [`DRIFT_FACTOR`] in either direction: machine noise is expected, a
//! regression of the measured path is not.

use std::path::PathBuf;
use std::process::ExitCode;

use relia_core::{json, seal};

/// Timing repetitions per measured path; the reported number is the median.
pub const REPS: usize = 5;

/// A committed timing may differ from a fresh one by this factor in either
/// direction before `--check` calls it a drift (exactly 8× still passes).
pub const DRIFT_FACTOR: f64 = 8.0;

/// How a field renders in the record (and in the printed listing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// An integer count: `{:.0}`.
    Count,
    /// A timing or ratio with one decimal: `{:.1}`.
    Tenths,
    /// Shortest round-trip scientific notation: `{:e}`.
    Exp,
}

/// One record field: its JSON key and render format.
pub type Field = (&'static str, Format);

/// One row of a runner's gate table, naming the field it reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Committed and fresh values must both be `>=` the bound.
    AtLeast(&'static str, f64),
    /// Committed and fresh values must both be `<=` the bound.
    AtMost(&'static str, f64),
    /// Committed and fresh values must agree within [`DRIFT_FACTOR`].
    Drift(&'static str),
}

impl Gate {
    fn field(&self) -> &'static str {
        match *self {
            Gate::AtLeast(name, _) | Gate::AtMost(name, _) | Gate::Drift(name) => name,
        }
    }
}

/// What the single command-line argument asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// No argument: measure and print.
    Print,
    /// `--write`: measure and rewrite the committed record.
    Write,
    /// `--check`: measure and gate against the committed record.
    Check,
}

/// Parses a runner's arguments (program name excluded): at most one flag,
/// or the complaint about an unknown flag or a second argument.
fn parse_args(args: &[String]) -> Result<Mode, String> {
    match args {
        [] => Ok(Mode::Print),
        [flag] if flag == "--write" => Ok(Mode::Write),
        [flag] if flag == "--check" => Ok(Mode::Check),
        [flag] => Err(format!("unknown flag {flag}")),
        _ => Err(format!("expected at most one flag, got {}", args.len())),
    }
}

/// The median of `xs` (the upper one for an even count).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// The median of [`REPS`] calls of `rep` (passed the repetition index).
pub fn median_of_reps(rep: impl FnMut(usize) -> f64) -> f64 {
    median((0..REPS).map(rep).collect())
}

/// A runner's declaration: its record name, fields and gate table.
#[derive(Debug)]
pub struct Bench {
    /// `<name>` in `bench_<name>` and `BENCH_<name>.json`.
    pub name: &'static str,
    /// The record's fields, in file order; the measurement returns its
    /// values in this order.
    pub fields: &'static [Field],
    /// Gates `--check` applies, each to a field in `fields`.
    pub gates: &'static [Gate],
}

impl Bench {
    /// `<workspace>/BENCH_<name>.json`, next to the figure goldens
    /// regardless of the invoking directory.
    pub fn record_path(&self) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(format!("BENCH_{}.json", self.name))
    }

    /// The record text for `values` (in field order), byte-for-byte what
    /// `--write` commits.
    pub fn render(&self, values: &[f64]) -> String {
        let members: Vec<String> = self
            .fields
            .iter()
            .zip(values)
            .map(|(&(name, format), &v)| format!("  \"{name}\": {}", render_value(format, v)))
            .collect();
        format!("{{\n{}\n}}\n", members.join(",\n"))
    }

    /// Reads the field values, in field order, out of record text.
    ///
    /// # Errors
    ///
    /// Malformed JSON, or a field that is missing or not a number.
    pub fn parse(&self, text: &str) -> Result<Vec<f64>, String> {
        let record = json::parse(text.as_bytes()).map_err(|e| e.to_string())?;
        self.fields
            .iter()
            .map(|&(name, _)| {
                record
                    .get(name)
                    .ok_or_else(|| format!("committed record lacks {name}"))?
                    .as_f64()
                    .ok_or_else(|| format!("committed {name} is not a number"))
            })
            .collect()
    }

    /// The committed record's text.
    ///
    /// # Errors
    ///
    /// The read failure, naming the path.
    pub fn read_committed(&self) -> Result<String, String> {
        let path = self.record_path();
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    }

    /// Applies the gate table to the committed and fresh values (both in
    /// field order) and returns every failure; empty means the gates held.
    /// A gated value on either side that is not finite and positive fails
    /// on its own and skips that field's remaining gates.
    pub fn check(&self, committed: &[f64], fresh: &[f64]) -> Vec<String> {
        let mut failures = Vec::new();
        let mut invalid: Vec<&str> = Vec::new();
        for gate in self.gates {
            let name = gate.field();
            let Some(i) = self.fields.iter().position(|&(field, _)| field == name) else {
                failures.push(format!("gate names unknown field {name}"));
                continue;
            };
            if invalid.contains(&name) {
                continue;
            }
            let sides = [("committed", committed[i]), ("measured", fresh[i])];
            let bad: Vec<String> = sides
                .iter()
                .filter(|(_, v)| !(v.is_finite() && *v > 0.0))
                .map(|(side, v)| format!("{side} {name} is {v}, not a finite positive number"))
                .collect();
            if !bad.is_empty() {
                failures.extend(bad);
                invalid.push(name);
                continue;
            }
            match *gate {
                Gate::AtLeast(_, bound) => {
                    failures.extend(sides.iter().filter(|(_, v)| *v < bound).map(|(side, v)| {
                        format!("{side} {name} {v} is below the required {bound}")
                    }))
                }
                Gate::AtMost(_, bound) => failures.extend(
                    sides
                        .iter()
                        .filter(|(_, v)| *v > bound)
                        .map(|(side, v)| format!("{side} {name} {v} exceeds the {bound} bound")),
                ),
                Gate::Drift(_) => {
                    let (c, f) = (committed[i], fresh[i]);
                    if c.max(f) / c.min(f) > DRIFT_FACTOR {
                        failures.push(format!(
                            "{name} drifted: committed {c}, measured {f} (beyond \
                             {DRIFT_FACTOR}x tolerance; rerun with --write on this machine)"
                        ));
                    }
                }
            }
        }
        failures
    }

    /// A runner's whole `main`: parses the arguments, measures, prints the
    /// per-field listing, then writes or checks the record as asked.
    ///
    /// # Panics
    ///
    /// Panics if `measure` returns a different number of values than
    /// [`Bench::fields`] declares.
    pub fn run<const N: usize>(&self, measure: impl FnOnce() -> [f64; N]) -> ExitCode {
        let bin = format!("bench_{}", self.name);
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mode = match parse_args(&args) {
            Ok(mode) => mode,
            Err(e) => {
                return report(
                    2,
                    "",
                    &format!("{bin}: {e}\nusage: {bin} [--write | --check]"),
                )
            }
        };
        assert_eq!(N, self.fields.len(), "{bin} measures the wrong field count");
        let fresh = measure();
        let listing = self.listing(&fresh);
        match self.finish(mode, &fresh) {
            Ok(status) => report(0, &format!("{listing}{status}"), ""),
            Err(failures) => {
                let err: Vec<String> = failures.iter().map(|f| format!("{bin}: {f}")).collect();
                report(1, &listing, &err.join("\n"))
            }
        }
    }

    /// The uniform stdout summary: one line per field.
    fn listing(&self, values: &[f64]) -> String {
        let width = self
            .fields
            .iter()
            .map(|(name, _)| name.len())
            .max()
            .unwrap_or(0);
        let mut out = format!("bench_{} (median of {REPS} reps)\n", self.name);
        for (&(name, format), &v) in self.fields.iter().zip(values) {
            out.push_str(&format!("  {name:<width$}  {}\n", render_value(format, v)));
        }
        out
    }

    /// The mode's file step: the stdout status line, or every failure.
    fn finish(&self, mode: Mode, fresh: &[f64]) -> Result<String, Vec<String>> {
        let path = self.record_path();
        match mode {
            Mode::Print => Ok(String::new()),
            Mode::Write => seal::write_atomic(&path, self.render(fresh).as_bytes())
                .map(|()| format!("wrote {}", path.display()))
                .map_err(|e| vec![format!("cannot write {}: {e}", path.display())]),
            Mode::Check => {
                let committed = self.read_committed().and_then(|text| self.parse(&text));
                let failures = match committed {
                    Ok(committed) => self.check(&committed, fresh),
                    Err(e) => vec![e],
                };
                if failures.is_empty() {
                    let held = self.gates.len();
                    Ok(format!(
                        "check: {held} gates held against BENCH_{}.json",
                        self.name
                    ))
                } else {
                    Err(failures)
                }
            }
        }
    }
}

/// Prints a runner's report and maps its exit code.
fn report(code: u8, out: &str, err: &str) -> ExitCode {
    if !out.is_empty() {
        // Bench runners own stdout: the listing is their report.
        // relia-lint: allow(print-in-lib)
        println!("{}", out.trim_end());
    }
    if !err.is_empty() {
        // relia-lint: allow(print-in-lib)
        eprintln!("{err}");
    }
    ExitCode::from(code)
}

fn render_value(format: Format, v: f64) -> String {
    match format {
        Format::Count => format!("{v:.0}"),
        Format::Tenths => format!("{v:.1}"),
        Format::Exp => format!("{v:e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOY: Bench = Bench {
        name: "toy",
        fields: &[
            ("calls", Format::Count),
            ("fast_ns", Format::Tenths),
            ("slow_ns", Format::Tenths),
            ("error", Format::Exp),
        ],
        gates: &[
            Gate::AtLeast("slow_ns", 100.0),
            Gate::AtMost("fast_ns", 50.0),
            Gate::Drift("fast_ns"),
            Gate::Drift("slow_ns"),
        ],
    };

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| (*a).to_owned()).collect()
    }

    #[test]
    fn at_most_one_known_flag_is_accepted() {
        assert_eq!(parse_args(&strings(&[])), Ok(Mode::Print));
        assert_eq!(parse_args(&strings(&["--write"])), Ok(Mode::Write));
        assert_eq!(parse_args(&strings(&["--check"])), Ok(Mode::Check));
        assert!(parse_args(&strings(&["--chek"])).is_err());
        assert!(parse_args(&strings(&["--check", "--write"])).is_err());
        assert!(parse_args(&strings(&["--check", "--check"])).is_err());
    }

    #[test]
    fn median_takes_the_middle_value() {
        assert_eq!(median(vec![3.0, 1.0, 2.0, 9.0, 5.0]), 3.0);
        let mut reps = 0;
        let m = median_of_reps(|rep| {
            reps += 1;
            rep as f64
        });
        assert_eq!((reps, m), (REPS, 2.0));
    }

    #[test]
    fn records_render_in_field_order_and_parse_back() {
        let values = [20000.0, 12.34, 400.0, 4.2494493745888805e-3];
        let text = TOY.render(&values);
        assert_eq!(
            text,
            "{\n  \"calls\": 20000,\n  \"fast_ns\": 12.3,\n  \"slow_ns\": 400.0,\n  \
             \"error\": 4.2494493745888805e-3\n}\n"
        );
        let parsed = TOY.parse(&text).unwrap();
        assert_eq!(TOY.render(&parsed), text);
        assert!(TOY.record_path().ends_with("BENCH_toy.json"));
    }

    #[test]
    fn parse_names_a_missing_or_malformed_field() {
        let missing = "{\"calls\": 1, \"fast_ns\": 2.0, \"error\": 1e-3}";
        assert_eq!(
            TOY.parse(missing).unwrap_err(),
            "committed record lacks slow_ns"
        );
        let text = "{\"calls\": 1, \"fast_ns\": \"2\", \"slow_ns\": 3, \"error\": 1}";
        assert_eq!(
            TOY.parse(text).unwrap_err(),
            "committed fast_ns is not a number"
        );
        assert!(TOY.parse("{\"calls\": 1,").is_err());
    }

    const GOOD: [f64; 4] = [1.0, 20.0, 200.0, 1e-3];

    fn with(base: [f64; 4], i: usize, v: f64) -> [f64; 4] {
        let mut out = base;
        out[i] = v;
        out
    }

    #[test]
    fn good_values_pass_every_gate() {
        assert!(TOY.check(&GOOD, &GOOD).is_empty());
    }

    #[test]
    fn bounds_apply_to_the_committed_and_the_fresh_side() {
        let low = with(GOOD, 2, 99.0);
        let high = with(GOOD, 1, 51.0);
        for (committed, fresh, side) in [
            (low, GOOD, "committed"),
            (GOOD, low, "measured"),
            (high, GOOD, "committed"),
            (GOOD, high, "measured"),
        ] {
            let failures = TOY.check(&committed, &fresh);
            assert_eq!(failures.len(), 1, "{failures:?}");
            assert!(failures[0].starts_with(side), "{failures:?}");
        }
        assert!(TOY
            .check(&with(GOOD, 2, 100.0), &with(GOOD, 1, 50.0))
            .is_empty());
    }

    #[test]
    fn drift_of_exactly_the_factor_passes_both_ways_and_beyond_fails() {
        let slow = |v| with(GOOD, 2, v);
        assert!(TOY.check(&slow(200.0), &slow(1600.0)).is_empty());
        assert!(TOY.check(&slow(1600.0), &slow(200.0)).is_empty());
        for (committed, fresh) in [(slow(200.0), slow(1600.2)), (slow(1600.2), slow(200.0))] {
            let failures = TOY.check(&committed, &fresh);
            assert_eq!(failures.len(), 1, "{failures:?}");
            assert!(failures[0].starts_with("slow_ns drifted"), "{failures:?}");
        }
    }

    #[test]
    fn non_positive_or_non_finite_gated_values_fail_naming_the_field() {
        for bad in [-20.0, 0.0, f64::NAN, f64::INFINITY] {
            let failures = TOY.check(&with(GOOD, 1, bad), &GOOD);
            assert_eq!(failures.len(), 1, "{bad}: {failures:?}");
            assert!(
                failures[0].starts_with("committed fast_ns is"),
                "{failures:?}"
            );
            let failures = TOY.check(&GOOD, &with(GOOD, 1, bad));
            assert!(
                failures[0].starts_with("measured fast_ns is"),
                "{failures:?}"
            );
        }
        // A negated pair used to pass the drift ratio; both sides fail now.
        let negated = with(with(GOOD, 1, -20.0), 2, -200.0);
        assert_eq!(TOY.check(&negated, &negated).len(), 4);
        // Ungated fields carry no validity requirement.
        assert!(TOY.check(&with(GOOD, 3, -1.0), &GOOD).is_empty());
    }

    #[test]
    fn committed_text_with_a_negative_zero_or_missing_field_fails_the_check() {
        let record = |fast: &str| {
            format!("{{\n  \"calls\": 1,\n  {fast}\n  \"slow_ns\": 200.0,\n  \"error\": 1e-3\n}}\n")
        };
        for fast in ["\"fast_ns\": -20.0,", "\"fast_ns\": 0.0,"] {
            let committed = TOY.parse(&record(fast)).unwrap();
            let failures = TOY.check(&committed, &GOOD);
            assert_eq!(failures.len(), 1, "{failures:?}");
            assert!(failures[0].contains("committed fast_ns"), "{failures:?}");
        }
        assert!(TOY.parse(&record("")).unwrap_err().contains("fast_ns"));
    }

    #[test]
    fn a_gate_on_an_unknown_field_fails() {
        let typo = Bench {
            gates: &[Gate::Drift("fast_nss")],
            ..TOY
        };
        assert_eq!(
            typo.check(&GOOD, &GOOD),
            vec!["gate names unknown field fast_nss".to_owned()]
        );
    }
}
