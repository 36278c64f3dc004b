//! `bench_obs` — measures the observability hot path and maintains the
//! committed `BENCH_obs.json` record through the [`relia_bench::gate`]
//! harness (`--write`, `--check`, exit codes).
//!
//! The observability claim under test: instrumentation must be *free
//! enough to leave on*. Recording one span into the ring (id allocation +
//! slot `try_lock` + store, the whole tracer-owned cost) stays under
//! [`MAX_SPAN_NS`], and a histogram sample (`ilog2` + three relaxed adds)
//! under the same bound — otherwise tracing a hot request path would
//! distort the very latencies it reports. The monotonic clock read and
//! the full RAII guard path (two clock reads + a record) are reported
//! alongside and drift-checked, but not bounded: `clock_gettime` cost is
//! the platform's, not the tracer's, and varies per machine.

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use relia_bench::gate::{median_of_reps, Bench, Format, Gate, REPS};
use relia_obs::Clock;
use relia_obs::{LatencyHist, MonotonicClock, Tracer};

/// Records timed per path; the reported number is ns/record.
const CALLS: usize = 200_000;
/// Ring recording and histogram recording must stay under 100 ns each,
/// fresh and committed.
const MAX_SPAN_NS: f64 = 100.0;

/// `BENCH_obs.json`: its fields in file order and the `--check` gate table.
const BENCH: Bench = Bench {
    name: "obs",
    fields: &[
        ("calls", Format::Count),
        ("span_ns_per_record", Format::Tenths),
        ("hist_ns_per_record", Format::Tenths),
        ("clock_ns_per_read", Format::Tenths),
        ("guard_ns_per_span", Format::Tenths),
    ],
    gates: &[
        Gate::AtMost("span_ns_per_record", MAX_SPAN_NS),
        Gate::AtMost("hist_ns_per_record", MAX_SPAN_NS),
        Gate::Drift("span_ns_per_record"),
        Gate::Drift("hist_ns_per_record"),
        Gate::Drift("clock_ns_per_read"),
        Gate::Drift("guard_ns_per_span"),
    ],
};

/// Median ns per call of `op` over [`REPS`] reps of [`CALLS`] calls.
fn time_loop(mut op: impl FnMut(usize)) -> f64 {
    median_of_reps(|rep| {
        let start = Instant::now();
        for i in 0..CALLS {
            op(rep * CALLS + i);
        }
        start.elapsed().as_nanos() as f64 / CALLS as f64
    })
}

/// The record's values, in [`BENCH`] field order.
fn measure() -> [f64; BENCH.fields.len()] {
    // The gated path: recording one span into the ring — id allocation,
    // slot try_lock, store. Everything the tracer itself costs.
    let tracer = Tracer::new(1024);
    let span_ns = time_loop(|i| {
        black_box(black_box(&tracer).record("bench", 0, i as u64, 1));
    });
    assert!(tracer.dropped() == 0, "uncontended ring must not drop");

    // Histogram path: ilog2 bucketing + three relaxed adds.
    let hist = LatencyHist::new();
    let hist_ns = time_loop(|i| {
        black_box(&hist).record_ns(black_box((i * 31) as u64));
    });
    assert_eq!(hist.count(), (REPS * CALLS) as u64);

    // Platform context: one monotonic clock read, and the full RAII
    // guard path (start read + finish read + record).
    let clock = MonotonicClock::new();
    let clock_ns = time_loop(|_| {
        black_box(black_box(&clock).now_ns());
    });
    let guard_tracer = Tracer::new(1024);
    let guard_ns = time_loop(|_| {
        black_box(black_box(&guard_tracer).span("bench")).finish();
    });

    [CALLS as f64, span_ns, hist_ns, clock_ns, guard_ns]
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
