//! The in-process workloads: `sweep` (relia-jobs over the ISCAS-85 suite),
//! `fleet` (relia-fleet Monte Carlo) and `surface_build` (relia-surface
//! builder). Each calls the library's public entry point back to back for
//! the run's budget and checks every result against the parent commit's
//! output (`expected.rs`).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use relia_core::{CancelToken, Kelvin, NbtiModel, Seconds};
use relia_flow::{AgingAnalysis, FlowConfig};
use relia_jobs::{
    builtin_resolver, run_sweep, JobResult, JobStatus, JobTask, PolicySpec, ShardedCache,
    SweepOptions, SweepOutcome, SweepSpec, Workload,
};
use relia_leakage::LeakageTable;
use relia_sta::TimingAnalysis;

use crate::expected;
use crate::util::{fnv64, median, percentile, vm_hwm_mb, Report, Rng, Spans};
use crate::Args;

/// Worker threads every pool-backed call uses: the box has 2 cores.
const WORKERS: usize = 2;

/// Samples per timed `run_fleet` call.
const FLEET_SAMPLES: usize = 1_000_000;

/// Samples of the default-seed digest check (outside the timed calls).
const FLEET_CHECK_SAMPLES: usize = 1_000_000;

/// One call of the sweep workload: `relia sweep` of one ISCAS-85 builtin
/// over standby {worst, best} × RAS {1:9, 9:1} × T_standby {330, 400} K ×
/// 10 years = 8 points. A pass calls it once per builtin (88 points).
pub fn sweep_spec(circuit: &str) -> SweepSpec {
    SweepSpec {
        workload: Workload::CircuitAging {
            circuits: vec![circuit.to_owned()],
            policies: vec![PolicySpec::Worst, PolicySpec::Best],
        },
        ras: vec![(1.0, 9.0), (9.0, 1.0)],
        t_standby: vec![Kelvin(330.0), Kelvin(400.0)],
        lifetimes: vec![Seconds::from_years(10.0)],
    }
}

pub fn fleet_spec(seed: u64, samples: usize) -> Result<relia_fleet::FleetSpec, String> {
    let mut spec = relia_fleet::FleetSpec::paper_defaults().map_err(|e| e.to_string())?;
    spec.samples = samples;
    spec.seed = seed;
    Ok(spec)
}

pub fn surface_spec() -> relia_surface::BuildSpec {
    relia_surface::BuildSpec {
        workers: WORKERS,
        ..relia_surface::BuildSpec::paper_defaults()
    }
}

/// The canonical text of a sweep's result table, which the digest covers.
pub fn sweep_table(outcome: &SweepOutcome) -> String {
    format!("{:?}\n{:?}", outcome.points, outcome.statuses)
}

/// Calls `op` back to back until `budget_s` has passed (at least once)
/// and returns each call's wall time.
fn timed_calls(
    budget_s: f64,
    mut op: impl FnMut(usize) -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    let started = Instant::now();
    let mut walls = Vec::new();
    while walls.is_empty() || started.elapsed().as_secs_f64() < budget_s {
        let t = Instant::now();
        op(walls.len())?;
        walls.push(t.elapsed().as_secs_f64());
    }
    Ok(walls)
}

/// The end-to-end figures every in-process workload reports from its call
/// wall times and the work the calls completed.
fn latency_metrics(report: &mut Report, walls: &[f64], work: f64) {
    let list: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    eprintln!("perfbench: call wall times (s): {}", list.join(" "));
    let mut us: Vec<f64> = walls.iter().map(|s| s * 1e6).collect();
    us.sort_by(f64::total_cmp);
    report.set("p50_us", percentile(&us, 0.5));
    report.set("work_per_s", work / walls.iter().sum::<f64>());
    match vm_hwm_mb("self") {
        Ok(mb) => report.set("peak_rss_mb", mb),
        Err(e) => report.wrong(e),
    }
}

fn trace_overhead(report: &mut Report, untraced: f64, traced: f64) {
    report.set(
        "bench.trace_overhead_pct",
        (untraced - traced) / untraced * 100.0,
    );
}

/// One timed per-circuit sweep: checks the table against the parent
/// commit's digest and returns the outcome with its completed gate·points.
fn sweep_once(
    circuit: &str,
    gates: &HashMap<String, usize>,
    report: &mut Report,
) -> Result<(SweepOutcome, f64), String> {
    let options = SweepOptions {
        workers: WORKERS,
        ..SweepOptions::default()
    };
    let outcome =
        run_sweep(&sweep_spec(circuit), &options, builtin_resolver).map_err(|e| e.to_string())?;
    let digest = fnv64(sweep_table(&outcome).as_bytes());
    let want = expected::SWEEP_TABLES
        .iter()
        .find(|(name, _)| *name == circuit)
        .map_or("", |(_, d)| *d);
    if digest != want {
        report.wrong(format!(
            "{circuit} sweep table digest {digest} != parent commit's {want}"
        ));
    }
    report.attempted += outcome.statuses.len() as u64;
    let completed = outcome
        .statuses
        .iter()
        .filter(|s| matches!(s, JobStatus::Completed(_)))
        .count();
    let gate_points = (completed * gates.get(circuit).copied().unwrap_or(0)) as f64;
    Ok((outcome, gate_points))
}

/// Whole passes over the 11 builtins, each pass in a seeded order, until
/// `budget_s` has passed (at least one pass). Returns each call's wall
/// time, the completed gate·points, and the last pass's outcomes.
fn sweep_passes(
    budget_s: f64,
    rng: &mut Rng,
    gates: &HashMap<String, usize>,
    spans: &mut Option<&mut Spans>,
    report: &mut Report,
) -> Result<(Vec<f64>, f64, Vec<SweepOutcome>), String> {
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut work = 0.0;
    let mut last = Vec::new();
    let mut pass = 0;
    while pass == 0 || started.elapsed().as_secs_f64() < budget_s {
        pass += 1;
        let mut order = relia_netlist::iscas::names();
        rng.shuffle(&mut order);
        last.clear();
        for circuit in order {
            let t = Instant::now();
            let start_ns = spans.as_ref().map(|s| s.now_ns());
            let (outcome, gate_points) = sweep_once(circuit, gates, report)?;
            walls.push(t.elapsed().as_secs_f64());
            if let (Some(spans), Some(start)) = (spans.as_mut(), start_ns) {
                let end = spans.now_ns();
                spans.record("jobs.run_sweep", pass, 0, start, end);
            }
            work += gate_points;
            last.push(outcome);
        }
    }
    Ok((walls, work, last))
}

pub fn sweep(args: &Args, report: &mut Report) -> Result<(), String> {
    let mut gates = HashMap::new();
    for name in relia_netlist::iscas::names() {
        gates.insert(name.to_owned(), builtin_resolver(name)?.gates().len());
    }
    let mut rng = Rng::new(args.seed, 4);
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (walls, work, _) = sweep_passes(budget, &mut rng, &gates, &mut None, report)?;
    if !args.trace {
        latency_metrics(report, &walls, work);
        return Ok(());
    }

    // Traced: the same passes inside spans, then a serial replay of every
    // point through the layers the engine calls.
    let mut spans = Spans::new(Instant::now());
    let (traced_walls, traced_work, last) =
        sweep_passes(budget, &mut rng, &gates, &mut Some(&mut spans), report)?;
    trace_overhead(
        report,
        work / walls.iter().sum::<f64>(),
        traced_work / traced_walls.iter().sum::<f64>(),
    );
    // One pass (all 88 points) of the engine's own accounting.
    let sum = |f: &dyn Fn(&SweepOutcome) -> f64| last.iter().map(f).sum::<f64>();
    let mut jobs = relia_obs::HistSnapshot::default();
    for o in &last {
        jobs.merge(&o.metrics.timings.job);
    }
    let failed = sum(&|o| o.metrics.failed_jobs as f64);
    let total = sum(&|o| o.metrics.total_jobs as f64);
    let hits = sum(&|o| o.metrics.cache.hits as f64);
    let misses = sum(&|o| o.metrics.cache.misses as f64);
    report.set("jobs.prepare_s", sum(&|o| o.metrics.prepare_secs));
    report.set("jobs.execute_s", sum(&|o| o.metrics.execute_secs));
    report.set("jobs.job_p50_ms", jobs.p50() / 1e6);
    report.set("jobs.failed_jobs", failed);
    report.set("jobs.failed_share", failed / total);
    report.set("jobs.cache_hits", hits);
    report.set("jobs.cache_misses", misses);
    report.set(
        "jobs.cache_evictions",
        sum(&|o| o.metrics.cache.evictions as f64),
    );
    report.set("jobs.cache_hit_ratio", hits / (hits + misses));
    replay_sweep(&last, &mut spans, report)?;
    spans.write(&args.out.join("spans-sweep.tsv"))?;
    Ok(())
}

/// Re-runs every sweep point serially through the public layer calls the
/// engine makes (resolve → propagate → leakage table; ΔV_th → STA →
/// leakage) inside spans, and checks each value against the engine's.
fn replay_sweep(
    outcomes: &[SweepOutcome],
    spans: &mut Spans,
    report: &mut Report,
) -> Result<(), String> {
    let base = FlowConfig::paper_defaults().map_err(|e| e.to_string())?;
    let mut prepared = HashMap::new();
    for (job, name) in relia_netlist::iscas::names().into_iter().enumerate() {
        let id = job as u64 + 1;
        let root_start = spans.now_ns();
        let root = spans.open();
        let circuit = spans.time("netlist.resolve", id, root, || builtin_resolver(name))?;
        let pi = vec![0.5; circuit.primary_inputs().len()];
        spans
            .time("sim.propagate", id, root, || {
                relia_sim::prob::propagate(&circuit, &pi)
            })
            .map_err(|e| e.to_string())?;
        spans.time("leakage.table_build", id, root, || {
            LeakageTable::build(circuit.library(), &base.devices, base.leakage_temp)
        });
        let prep = spans
            .time("flow.prep", id, root, || {
                AgingAnalysis::prep(&base, &circuit)
            })
            .map_err(|e| e.to_string())?;
        spans.close(root, "replay.prepare", id, 0, root_start, spans.now_ns());
        prepared.insert(name.to_owned(), (circuit, prep));
    }
    let cache = ShardedCache::default();
    let token = CancelToken::new();
    let points = outcomes
        .iter()
        .flat_map(|o| o.points.iter().zip(&o.statuses));
    for (i, (point, status)) in points.enumerate() {
        let JobTask::Aging { circuit, policy } = &point.task else {
            return Err("sweep point is not an aging job".to_owned());
        };
        let (circuit, prep) = prepared.get(circuit).ok_or("unprepared circuit")?;
        let id = 1000 + i as u64;
        let root_start = spans.now_ns();
        let root = spans.open();
        let ras = relia_core::Ras::new(point.ras.0, point.ras.1).map_err(|e| e.to_string())?;
        let mut config =
            FlowConfig::with_schedule(ras, point.t_standby).map_err(|e| e.to_string())?;
        config.lifetime = point.lifetime;
        let analysis = AgingAnalysis::from_prep(&config, circuit, prep.clone());
        let dvth = spans.time("flow.dvth", id, root, || {
            analysis.gate_delta_vth_at_cached_cancellable(
                &policy.to_policy(),
                point.lifetime,
                &cache,
                &token,
            )
        });
        let replayed = match dvth {
            Err(_) => None,
            Ok(dvth) => {
                let (nominal, degraded) = spans.time("sta.degraded", id, root, || {
                    (
                        TimingAnalysis::nominal(circuit),
                        TimingAnalysis::degraded(circuit, &dvth, config.nbti.params()),
                    )
                });
                let degraded = degraded.map_err(|e| e.to_string())?;
                let active = spans.time("leakage.circuit", id, root, || {
                    relia_leakage::expected_circuit_leakage(
                        circuit,
                        analysis.signal_probs(),
                        analysis.leakage_table(),
                    )
                });
                Some((
                    dvth.iter().cloned().fold(0.0, f64::max),
                    nominal.max_delay_ps(),
                    degraded.max_delay_ps(),
                    active,
                ))
            }
        };
        spans.close(root, "replay.point", id, 0, root_start, spans.now_ns());
        let agrees = match (status, replayed) {
            (
                JobStatus::Completed(JobResult::Aging {
                    worst_delta_vth,
                    nominal_delay_ps,
                    degraded_delay_ps,
                    active_leakage,
                    ..
                }),
                Some((w, n, d, a)),
            ) => {
                w == *worst_delta_vth
                    && n == *nominal_delay_ps
                    && d == *degraded_delay_ps
                    && a == *active_leakage
            }
            (JobStatus::Failed { .. }, None) => true,
            _ => false,
        };
        if !agrees {
            report.wrong(format!(
                "replayed sweep point {i} disagrees with the engine"
            ));
        }
    }
    for (metric, span) in [
        ("netlist.resolve_s", "netlist.resolve"),
        ("sim.propagate_s", "sim.propagate"),
        ("leakage.table_build_s", "leakage.table_build"),
        ("flow.prep_s", "flow.prep"),
        ("flow.dvth_s", "flow.dvth"),
        ("sta.degraded_s", "sta.degraded"),
        ("leakage.circuit_s", "leakage.circuit"),
    ] {
        report.set(metric, spans.self_ns(span) as f64 / 1e9);
    }
    Ok(())
}

/// Invariants every fleet summary must satisfy, whatever its seed.
fn check_fleet(summary: &relia_fleet::FleetSummary, samples: usize, report: &mut Report) {
    let ok_point = |p: &relia_fleet::FleetPoint| {
        [p.mean, p.std_dev, p.p50, p.p90, p.p99, p.yield_fraction]
            .iter()
            .all(|v| v.is_finite())
            && p.mean >= 0.0
            && p.std_dev >= 0.0
            && p.p50 <= p.p90
            && p.p90 <= p.p99
            && (0.0..=1.0).contains(&p.yield_fraction)
    };
    let times_ascend = summary
        .points
        .windows(2)
        .all(|w| w[0].time.0 < w[1].time.0 && w[0].mean <= w[1].mean);
    let life = &summary.lifetime;
    if summary.samples != samples as u64
        || summary.points.len() != 3
        || !summary.points.iter().all(ok_point)
        || !times_ascend
        || !(life.p01 > 0.0 && life.p01 <= life.p10 && life.p10 <= life.p50)
    {
        report.wrong(format!("fleet summary breaks an invariant: {summary:?}"));
    }
}

pub fn fleet(args: &Args, report: &mut Report) -> Result<(), String> {
    let options = relia_fleet::FleetOptions {
        workers: WORKERS,
        ..relia_fleet::FleetOptions::default()
    };
    // The parent commit's digest pins the default seed; the timed calls
    // draw from the workload seed and must agree with one another.
    let check = fleet_spec(
        relia_fleet::FleetSpec::paper_defaults()
            .map_err(|e| e.to_string())?
            .seed,
        FLEET_CHECK_SAMPLES,
    )?;
    let out = relia_fleet::run_fleet(&check, &options).map_err(|e| e.to_string())?;
    let digest = fnv64(format!("{:?}", out.summary).as_bytes());
    if digest != expected::FLEET_DEFAULT_SEED_1M {
        report.wrong(format!(
            "default-seed fleet digest {digest} != parent commit's {}",
            expected::FLEET_DEFAULT_SEED_1M
        ));
    }
    report.attempted += 1;

    let spec = fleet_spec(args.seed, FLEET_SAMPLES)?;
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut first: Option<String> = None;
    let mut call = |report: &mut Report| -> Result<relia_fleet::FleetOutcome, String> {
        let out = relia_fleet::run_fleet(&spec, &options).map_err(|e| e.to_string())?;
        check_fleet(&out.summary, FLEET_SAMPLES, report);
        let digest = fnv64(format!("{:?}", out.summary).as_bytes());
        match &first {
            None => first = Some(digest),
            Some(d) if *d != digest => report.wrong("fleet summary differs between calls".into()),
            Some(_) => {}
        }
        report.attempted += 1;
        Ok(out)
    };
    let walls = timed_calls(budget, |_| call(report).map(|_| ()))?;
    let work = FLEET_SAMPLES as f64 * walls.len() as f64;
    if !args.trace {
        latency_metrics(report, &walls, work);
        return Ok(());
    }

    let mut spans = Spans::new(Instant::now());
    let mut last = None;
    let traced_walls = timed_calls(budget, |i| {
        let start = spans.now_ns();
        let out = call(report)?;
        spans.record("fleet.run_fleet", i as u64 + 1, 0, start, spans.now_ns());
        last = Some(out);
        Ok(())
    })?;
    trace_overhead(
        report,
        work / walls.iter().sum::<f64>(),
        FLEET_SAMPLES as f64 * traced_walls.len() as f64 / traced_walls.iter().sum::<f64>(),
    );
    let last = last.ok_or("no traced fleet run")?;
    replay_fleet(&spec, &last.summary, &mut spans, report)?;
    spans.write(&args.out.join("spans-fleet.tsv"))?;
    Ok(())
}

/// Re-runs one fleet study through the evaluator's public phases — hoist,
/// chunks on two threads, index-ordered merge — and checks the summary
/// equals `run_fleet`'s.
fn replay_fleet(
    spec: &relia_fleet::FleetSpec,
    want: &relia_fleet::FleetSummary,
    spans: &mut Spans,
    report: &mut Report,
) -> Result<(), String> {
    let id = 1_000_000;
    let eval = spans
        .time("fleet.hoist", id, 0, || {
            relia_fleet::FleetEvaluator::prepare(spec)
        })
        .map_err(|e| e.to_string())?;
    let chunk = relia_fleet::DEFAULT_CHUNK;
    let chunks = spec.samples.div_ceil(chunk);
    let cancel = CancelToken::new();
    let origin_ns = spans.now_ns();
    let phase_start = Instant::now();
    let mut accs: Vec<Option<relia_fleet::ChunkAccum>> = Vec::new();
    let mut thread_spans = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                let eval = &eval;
                let cancel = &cancel;
                scope.spawn(move || {
                    let mut local = Spans::new(phase_start);
                    let mut out = Vec::new();
                    for index in (w..chunks).step_by(WORKERS) {
                        let len = chunk.min(spec.samples - index * chunk);
                        let acc = local.time("fleet.chunk", id, 0, || {
                            eval.run_chunk(spec.seed, index, len, cancel)
                        });
                        out.push((index, acc));
                    }
                    (out, local)
                })
            })
            .collect();
        let mut all = vec![None; chunks];
        for h in handles {
            let (out, local) = h.join().expect("fleet replay thread panicked");
            for (index, acc) in out {
                all[index] = acc;
            }
            thread_spans.push(local);
        }
        accs = all;
    });
    let chunk_wall_s = phase_start.elapsed().as_secs_f64();
    for mut local in thread_spans {
        for s in &mut local.spans {
            s.start_ns += origin_ns;
            s.end_ns += origin_ns;
        }
        spans.absorb(local);
    }
    let mut total = relia_fleet::ChunkAccum::new(spec.times.len());
    let merged: Result<(), String> = spans.time("fleet.merge", id, 0, || {
        for acc in &accs {
            total
                .merge(acc.as_ref().ok_or("a replayed chunk was cancelled")?)
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    });
    merged?;
    if eval.summarize(spec, &total) != *want {
        report.wrong("replayed fleet summary differs from run_fleet's".into());
    }
    report.set("fleet.hoist_s", spans.self_ns("fleet.hoist") as f64 / 1e9);
    report.set("fleet.chunk_s", spans.self_ns("fleet.chunk") as f64 / 1e9);
    report.set("fleet.merge_s", spans.self_ns("fleet.merge") as f64 / 1e9);
    report.set(
        "fleet.ns_per_sample",
        chunk_wall_s * 1e9 / spec.samples as f64,
    );
    Ok(())
}

pub fn surface_build(args: &Args, report: &mut Report) -> Result<(), String> {
    let model = NbtiModel::ptm90().map_err(|e| e.to_string())?;
    let spec = surface_spec();
    // Returns the exact evaluations one build made: grid values plus
    // midpoint error checks.
    let call = |report: &mut Report| -> Result<f64, String> {
        let artifact = relia_surface::build(&model, &spec).map_err(|e| e.to_string())?;
        let digest = fnv64(&artifact.to_bytes());
        if digest != expected::SURFACE_ARTIFACT {
            report.wrong(format!(
                "surface artifact digest {digest} != parent commit's {}",
                expected::SURFACE_ARTIFACT
            ));
        }
        report.attempted += 1;
        Ok((artifact.pairs.len() * artifact.grid.len()) as f64 + artifact.error_samples as f64)
    };
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut work = 0.0;
    let walls = timed_calls(budget, |_| {
        work += call(report)?;
        Ok(())
    })?;
    if !args.trace {
        latency_metrics(report, &walls, work);
        return Ok(());
    }
    let mut spans = Spans::new(Instant::now());
    let mut traced_work = 0.0;
    let mut evals = 0.0;
    let traced_walls = timed_calls(budget, |i| {
        let start = spans.now_ns();
        evals = call(report)?;
        traced_work += evals;
        spans.record("surface.build", i as u64 + 1, 0, start, spans.now_ns());
        Ok(())
    })?;
    trace_overhead(
        report,
        work / walls.iter().sum::<f64>(),
        traced_work / traced_walls.iter().sum::<f64>(),
    );
    report.set("surface.build_exact_evals", evals);
    // Exact evaluation cost at grid nodes, on a strided sample of the grid.
    let g = relia_surface::BuildSpec::paper_defaults();
    let mut samples = 0u64;
    for (i, ts) in g.t_standby_k.iter().enumerate() {
        for (j, rf) in g.ras_fraction.iter().enumerate().step_by(4) {
            for (k, lt) in g.lifetime_s.iter().enumerate().step_by(4) {
                let query = relia_surface::SurfaceQuery {
                    t_active_k: g.t_active_k[0],
                    t_standby_k: *ts,
                    ras_fraction: *rf,
                    lifetime_s: *lt,
                    p_active: g.pairs[0].0,
                    p_standby: g.pairs[0].1,
                };
                let id = (i * 10_000 + j * 100 + k) as u64;
                spans
                    .time("core.evaluate_exact", id, 0, || {
                        relia_surface::evaluate_exact(&model, g.period_s, &query)
                    })
                    .map_err(|e| e.to_string())?;
                samples += 1;
            }
        }
    }
    report.set(
        "core.evaluate_exact_us",
        spans.self_ns("core.evaluate_exact") as f64 / 1e3 / samples as f64,
    );
    spans.write(&args.out.join("spans-surface_build.tsv"))?;
    Ok(())
}

/// What a fresh process does before it can make the first call: build
/// the model and the workload's spec (for `repro`: find the 24 built
/// binaries, passed as `paths`). The parent times spawn → "ready".
pub fn probe(workload: &str, paths: &[String]) -> Result<(), String> {
    let _model = NbtiModel::ptm90().map_err(|e| e.to_string())?;
    match workload {
        "repro" => {
            use std::os::unix::fs::PermissionsExt;
            for path in paths {
                let meta = std::fs::metadata(path).map_err(|e| format!("{path}: {e}"))?;
                if !meta.is_file() || meta.permissions().mode() & 0o111 == 0 {
                    return Err(format!("{path} is not an executable file"));
                }
            }
        }
        "sweep" => {
            let _config = FlowConfig::paper_defaults().map_err(|e| e.to_string())?;
            let _specs: Vec<SweepSpec> = relia_netlist::iscas::names()
                .into_iter()
                .map(sweep_spec)
                .collect();
            let _cache = Arc::new(ShardedCache::default());
        }
        "fleet" => {
            let spec = fleet_spec(0, FLEET_SAMPLES)?;
            spec.validate().map_err(|e| e.to_string())?;
        }
        "surface_build" => {
            let _spec = surface_spec();
        }
        other => return Err(format!("no probe for workload {other}")),
    }
    Ok(())
}

/// Median over `n` fresh processes of spawn → ready.
pub fn setup_s(workload: &str, n: usize) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut times = Vec::new();
    for _ in 0..n {
        let t = Instant::now();
        let out = std::process::Command::new(&exe)
            .args(["probe", workload])
            .output()
            .map_err(|e| format!("spawning probe: {e}"))?;
        if !out.status.success() || !out.stdout.starts_with(b"ready") {
            return Err(format!(
                "probe failed: {}",
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(median(&times))
}
