//! `bench_surface` — measures an interpolated surface lookup against the
//! exact model evaluation it replaces and maintains the committed
//! `BENCH_surface.json` record through the [`relia_bench::gate`] harness
//! (`--write`, `--check`, exit codes).
//!
//! The surface claim under test: a lookup is at least [`MIN_SPEEDUP`]
//! times cheaper than the exact evaluation; both per-call timings are
//! drift-checked. The record also carries the bench grid's size and
//! measured sup-error.

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use relia_bench::gate::{median_of_reps, Bench, Format, Gate};
use relia_core::{Kelvin, NbtiModel};
use relia_jobs::SWEEP_TEMP_ACTIVE_K;
use relia_surface::{
    build, evaluate_exact, kelvin_spaced, lin_spaced, log_spaced, BuildSpec, Surface, SurfaceQuery,
};

/// Distinct in-domain query points both paths are timed over.
const QUERIES: usize = 256;
/// Lookups per repetition for the interpolated path (cheap, so many).
const LOOKUP_ITERS: usize = 200_000;
/// Exact evaluations per repetition (micro-seconds each, so fewer).
const EXACT_ITERS: usize = 2_000;
/// Required surface-over-exact speedup, fresh and committed.
const MIN_SPEEDUP: f64 = 100.0;

/// `BENCH_surface.json`: its fields in file order and the `--check` gate table.
const BENCH: Bench = Bench {
    name: "surface",
    fields: &[
        ("grid_values", Format::Count),
        ("sup_error", Format::Exp),
        ("exact_ns_per_eval", Format::Tenths),
        ("surface_ns_per_lookup", Format::Tenths),
        ("speedup", Format::Tenths),
    ],
    gates: &[
        Gate::AtLeast("speedup", MIN_SPEEDUP),
        Gate::Drift("exact_ns_per_eval"),
        Gate::Drift("surface_ns_per_lookup"),
    ],
};

/// Deterministic in-domain query points: a low-discrepancy walk over the
/// standby-temperature, RAS and lifetime axes at the artifact's stress
/// pair, so both paths price the same workload.
fn queries() -> Vec<SurfaceQuery> {
    (0..QUERIES)
        .map(|i| {
            let f = |k: usize| ((i * k + 1) % QUERIES) as f64 / QUERIES as f64;
            SurfaceQuery {
                t_active_k: Kelvin(SWEEP_TEMP_ACTIVE_K),
                t_standby_k: Kelvin(322.0 + 76.0 * f(7)),
                ras_fraction: 0.12 + 0.76 * f(11),
                lifetime_s: 10f64.powf(6.1 + 2.8 * f(13)),
                p_active: 0.5,
                p_standby: 1.0,
            }
        })
        .collect()
}

/// The record's values, in [`BENCH`] field order.
fn measure() -> [f64; BENCH.fields.len()] {
    let model = NbtiModel::ptm90().expect("ptm90 calibration is valid");
    let spec = BuildSpec {
        t_standby_k: kelvin_spaced(320.0, 400.0, 9),
        ras_fraction: lin_spaced(0.1, 0.9, 9),
        lifetime_s: log_spaced(1e6, 1e9, 13),
        workers: 0,
        ..BuildSpec::paper_defaults()
    };
    let artifact = build(&model, &spec).expect("bench grid builds");
    let grid_values = (artifact.pairs.len() * artifact.grid.len()) as f64;
    let sup_error = artifact.sup_error;
    let surface = Surface::from_artifact(artifact).expect("bench grid holds the bound");
    let points = queries();

    // Exact path: the full Ras -> ModeSchedule -> PmosStress -> hoist
    // pipeline the server runs on a surface miss.
    let exact_ns = median_of_reps(|_| {
        let mut sum = 0.0;
        let start = Instant::now();
        for i in 0..EXACT_ITERS {
            let q = &points[i % points.len()];
            sum += evaluate_exact(&model, surface.artifact().period_s, q)
                .expect("in-domain point evaluates");
        }
        black_box(sum);
        start.elapsed().as_nanos() as f64 / EXACT_ITERS as f64
    });

    // Surface path: bracket + 16-corner blend, nothing else.
    let surface_ns = median_of_reps(|_| {
        let mut sum = 0.0;
        let start = Instant::now();
        for i in 0..LOOKUP_ITERS {
            let q = &points[i % points.len()];
            sum += surface.lookup(q).expect("known pair").delta_vth_v;
        }
        black_box(sum);
        start.elapsed().as_nanos() as f64 / LOOKUP_ITERS as f64
    });

    [
        grid_values,
        sup_error,
        exact_ns,
        surface_ns,
        exact_ns / surface_ns,
    ]
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
