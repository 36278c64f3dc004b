//! `bench_fleet` — measures the per-sample cost of the scalar NBTI path
//! against the hoisted batch kernel and maintains the committed
//! `BENCH_fleet.json` record through the [`relia_bench::gate`] harness
//! (`--write`, `--check`, exit codes).
//!
//! The fleet claim under test: hoisting the sample-invariant model terms
//! makes the batch kernel at least [`MIN_SPEEDUP`] times faster per sample
//! than re-deriving the full temperature-aware model; both per-sample
//! timings are drift-checked.

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use relia_bench::gate::{median_of_reps, Bench, Format, Gate};
use relia_core::{NbtiModel, Volts};
use relia_fleet::{ChunkAccum, FleetEvaluator, FleetSpec, SplitMix64};

/// Fleet size both paths are timed over (the acceptance point).
const SAMPLES: usize = 10_000;
/// Required batch-over-scalar speedup, fresh and committed.
const MIN_SPEEDUP: f64 = 5.0;

/// `BENCH_fleet.json`: its fields in file order and the `--check` gate table.
const BENCH: Bench = Bench {
    name: "fleet",
    fields: &[
        ("samples", Format::Count),
        ("times", Format::Count),
        ("scalar_ns_per_sample", Format::Tenths),
        ("batch_ns_per_sample", Format::Tenths),
        ("speedup", Format::Tenths),
    ],
    gates: &[
        Gate::AtLeast("speedup", MIN_SPEEDUP),
        Gate::Drift("scalar_ns_per_sample"),
        Gate::Drift("batch_ns_per_sample"),
    ],
};

/// The record's values, in [`BENCH`] field order.
fn measure() -> [f64; BENCH.fields.len()] {
    let spec = {
        let mut s = FleetSpec::paper_defaults().expect("paper defaults are valid");
        s.samples = SAMPLES;
        s
    };
    let model = NbtiModel::ptm90().expect("ptm90 calibration is valid");
    let schedule = spec.schedule().expect("paper schedule is valid");
    let stress = spec.stress().expect("paper stress is valid");
    let eval = FleetEvaluator::prepare(&spec).expect("paper spec prepares");

    // Scalar path: every sample re-derives the full temperature-aware
    // model (Arrhenius terms, AC-recursion setup, equivalent stress time)
    // for each evaluation time.
    let scalar_ns = median_of_reps(|rep| {
        let mut rng = SplitMix64::stream(1, rep as u64);
        let mut sum = 0.0;
        let start = Instant::now();
        for _ in 0..SAMPLES {
            let vth0 = spec
                .dist
                .sample_box_muller(rng.next_f64(), rng.next_f64())
                .0;
            for &t in &spec.times {
                sum += model
                    .delta_vth_with_vth0(t, &schedule, &stress, Volts(vth0))
                    .expect("in-range stress point");
            }
        }
        let ns = start.elapsed().as_nanos() as f64 / SAMPLES as f64;
        black_box(sum);
        ns
    });

    // Batch path: the engine's own per-sample tail behind hoisted terms
    // (drawing the same variates plus the accumulator updates).
    let batch_ns = median_of_reps(|rep| {
        let mut rng = SplitMix64::stream(1, rep as u64);
        let mut acc = ChunkAccum::new(spec.times.len());
        let start = Instant::now();
        for _ in 0..SAMPLES {
            eval.sample_into(&mut rng, &mut acc);
        }
        let ns = start.elapsed().as_nanos() as f64 / SAMPLES as f64;
        black_box(&acc);
        ns
    });

    [
        SAMPLES as f64,
        spec.times.len() as f64,
        scalar_ns,
        batch_ns,
        scalar_ns / batch_ns,
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
