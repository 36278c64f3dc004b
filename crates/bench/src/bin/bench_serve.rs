//! `bench_serve` — measures the overload-control answer paths and
//! maintains the committed `BENCH_serve.json` record through the
//! [`relia_bench::gate`] harness (`--write`, `--check`, exit codes).
//!
//! The serving claim under test: shedding must be *cheap*. A browned-out
//! server answers a cold query with a fast 503 whose full dispatch cost
//! (routing, gating, rendering, jittered Retry-After) stays under
//! [`MAX_SHED_NS`] — otherwise overload control would itself be the
//! overload. The brownout cache-hit path is timed alongside; both are
//! drift-checked.

use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use relia_bench::gate::{median_of_reps, Bench, Format, Gate};
use relia_core::{CancelToken, Deadline, Kelvin};
use relia_serve::{handle, DegradeQuery, Endpoint, EvalGate, OverloadConfig, Request, ServeState};

/// Dispatches timed per path; the reported number is ns/request.
const CALLS: usize = 20_000;
/// The breaker fast-path shed must answer in under 10 µs, fresh and
/// committed.
const MAX_SHED_NS: f64 = 10_000.0;

/// `BENCH_serve.json`: its fields in file order and the `--check` gate table.
const BENCH: Bench = Bench {
    name: "serve",
    fields: &[
        ("calls", Format::Count),
        ("shed_ns_per_request", Format::Tenths),
        ("cache_hit_ns_per_request", Format::Tenths),
    ],
    gates: &[
        Gate::AtMost("shed_ns_per_request", MAX_SHED_NS),
        Gate::Drift("shed_ns_per_request"),
        Gate::Drift("cache_hit_ns_per_request"),
    ],
};

const QUERY: DegradeQuery = DegradeQuery {
    ras: (1.0, 9.0),
    t_standby_k: Kelvin(330.0),
    lifetime_s: 1.0e8,
    p_active: 0.5,
    p_standby: 1.0,
};

fn degrade_request(body: &str) -> Request {
    Request {
        method: "POST".to_owned(),
        target: "/v1/degrade".to_owned(),
        http11: true,
        headers: vec![],
        body: body.as_bytes().to_vec(),
    }
}

fn deadline() -> Deadline {
    Deadline::new(CancelToken::new(), Instant::now() + Duration::from_secs(60))
}

/// Median ns per `handle()` dispatch against `state`, asserting every
/// response carries `status`.
fn time_dispatch(state: &ServeState, request: &Request, status: u16) -> f64 {
    median_of_reps(|_| {
        let start = Instant::now();
        for _ in 0..CALLS {
            let (response, _) = handle(black_box(state), request, &deadline());
            assert_eq!(response.status, status);
            black_box(response);
        }
        start.elapsed().as_nanos() as f64 / CALLS as f64
    })
}

/// The record's values, in [`BENCH`] field order.
fn measure() -> [f64; BENCH.fields.len()] {
    let body = QUERY.to_body();
    let request = degrade_request(&body);
    let tripped_overload = || OverloadConfig {
        breaker_threshold: 1,
        breaker_cooldown: Duration::from_secs(3600),
        ..OverloadConfig::default()
    };

    // Breaker fast-path shed: open breaker, cold key → 503.
    let shedding = ServeState::new(Duration::from_secs(60))
        .expect("builtin calibration is valid")
        .with_overload(tripped_overload());
    shedding
        .overload
        .settle(Endpoint::Degrade, 500, Instant::now());
    let shed_ns = time_dispatch(&shedding, &request, 503);

    // Brownout cache hit: open breaker, memoized key → full 200.
    let browned = ServeState::new(Duration::from_secs(60))
        .expect("builtin calibration is valid")
        .with_overload(tripped_overload());
    let (warm, _) = handle(&browned, &request, &deadline());
    assert_eq!(warm.status, 200, "warms the memo cache");
    browned
        .overload
        .settle(Endpoint::Degrade, 500, Instant::now());
    assert_eq!(
        browned.overload.gate(Endpoint::Degrade, Instant::now()),
        EvalGate::CacheOnly
    );
    let cache_hit_ns = time_dispatch(&browned, &request, 200);

    [CALLS as f64, shed_ns, cache_hit_ns]
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
