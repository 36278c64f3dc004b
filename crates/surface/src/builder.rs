//! The offline surface builder: evaluates the full grid on the relia-jobs
//! pool through `relia-core::batch` hoisting, then sweeps every cell
//! midpoint to *measure* the interpolation sup-error that gets sealed into
//! the artifact header — the accuracy contract ships with the data.

use relia_core::{
    HoistedStress, Kelvin, ModeSchedule, ModelError, NbtiModel, PmosStress, Ras, Seconds,
};
use relia_jobs::{default_workers, run_ordered, JobOutcome, SWEEP_PERIOD_S, SWEEP_TEMP_ACTIVE_K};

use crate::artifact::{Artifact, SurfaceError};
use crate::grid::{interpolate, SurfaceGrid};
use crate::surface::{model_fingerprint, rel_error, SurfaceQuery};

/// What to build: the four axes, the stress-probability pairs, the
/// mode-cycle period, and the worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildSpec {
    /// Active-temperature axis. Usually the single engine baseline point.
    pub t_active_k: Vec<Kelvin>,
    /// Standby-temperature axis.
    pub t_standby_k: Vec<Kelvin>,
    /// RAS active-fraction axis, `a/(a+s)` in `[0, 1]`.
    pub ras_fraction: Vec<f64>,
    /// Lifetime axis (seconds, ascending; log-spaced is the idiom).
    pub lifetime_s: Vec<f64>,
    /// `(p_active, p_standby)` pairs, one value block each.
    pub pairs: Vec<(f64, f64)>,
    /// Mode-cycle period in seconds.
    pub period_s: f64,
    /// Worker threads for the grid fill and the error sweep
    /// (`0` → [`default_workers`]).
    pub workers: usize,
}

/// `n` linearly spaced points over `[lo, hi]` (`n == 1` → `[lo]`).
pub fn lin_spaced(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    if n <= 1 {
        return vec![lo];
    }
    (0..n)
        .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
        .collect()
}

/// [`lin_spaced`], wrapped in [`Kelvin`] — the temperature-axis idiom.
pub fn kelvin_spaced(lo: f64, hi: f64, n: usize) -> Vec<Kelvin> {
    lin_spaced(lo, hi, n).into_iter().map(Kelvin).collect()
}

/// `n` log-spaced points over `[lo, hi]` (`n == 1` → `[lo]`); endpoints
/// are pinned exactly so the domain edges are representable.
pub fn log_spaced(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    if n <= 1 {
        return vec![lo];
    }
    let (llo, lhi) = (lo.log10(), hi.log10());
    (0..n)
        .map(|i| {
            if i == 0 {
                lo
            } else if i == n - 1 {
                hi
            } else {
                10f64.powf(llo + (lhi - llo) * i as f64 / (n - 1) as f64)
            }
        })
        .collect()
}

impl BuildSpec {
    /// The default production grid: the engine's fixed active temperature,
    /// standby temperatures spanning the paper's 310–410 K operating
    /// range, RAS fractions across `[0.05, 0.95]`, lifetimes log-spaced
    /// over 10⁶–10¹⁰ s, and the paper's baseline stress pair.
    pub fn paper_defaults() -> BuildSpec {
        BuildSpec {
            t_active_k: vec![Kelvin(SWEEP_TEMP_ACTIVE_K)],
            t_standby_k: kelvin_spaced(310.0, 410.0, 21),
            ras_fraction: lin_spaced(0.05, 0.95, 37),
            lifetime_s: log_spaced(1e6, 1e10, 41),
            pairs: vec![(0.5, 1.0)],
            period_s: SWEEP_PERIOD_S,
            workers: 0,
        }
    }

    fn validate(&self) -> Result<(), SurfaceError> {
        if self.pairs.is_empty() {
            return Err(SurfaceError::Invalid("no stress pairs".to_owned()));
        }
        for &(pa, ps) in &self.pairs {
            for (name, p) in [("p_active", pa), ("p_standby", ps)] {
                if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                    return Err(SurfaceError::Invalid(format!("{name} {p} outside [0, 1]")));
                }
            }
        }
        if !self.period_s.is_finite() || self.period_s <= 0.0 {
            return Err(SurfaceError::Invalid(format!(
                "period_s {} must be positive",
                self.period_s
            )));
        }
        Ok(())
    }
}

/// The `Ras → ModeSchedule → PmosStress` canonicalization the sweep
/// engine uses, at one surface coordinate (lifetime aside).
fn stress_point(
    period_s: f64,
    t_active_k: Kelvin,
    t_standby_k: Kelvin,
    ras_fraction: f64,
    (p_active, p_standby): (f64, f64),
) -> Result<(ModeSchedule, PmosStress), ModelError> {
    let ras = Ras::new(ras_fraction, 1.0 - ras_fraction)?;
    let schedule = ModeSchedule::new(ras, Seconds(period_s), t_active_k, t_standby_k)?;
    Ok((schedule, PmosStress::new(p_active, p_standby)?))
}

fn build_error(e: ModelError) -> SurfaceError {
    SurfaceError::Build(e.to_string())
}

/// One exact model evaluation at a surface coordinate: the same
/// `Ras → ModeSchedule → PmosStress → hoist` path the sweep engine
/// canonicalizes, with the hoisted base being a plain `delta_vth` value.
///
/// # Errors
///
/// [`SurfaceError::Build`] wrapping the model's validation message.
pub fn evaluate_exact(
    model: &NbtiModel,
    period_s: f64,
    query: &SurfaceQuery,
) -> Result<f64, SurfaceError> {
    let (schedule, stress) = stress_point(
        period_s,
        query.t_active_k,
        query.t_standby_k,
        query.ras_fraction,
        (query.p_active, query.p_standby),
    )
    .map_err(build_error)?;
    Ok(model
        .hoist(Seconds(query.lifetime_s), &schedule, &stress)
        .map_err(build_error)?
        .base())
}

/// One grid column, `(pair, T_a, T_s, ras)`: every lifetime at a fixed
/// stress pair and operating point.
type Column = (usize, f64, f64, f64);

/// Grid columns per pool job: one lane group of `s_n_grid`.
const COLUMNS_PER_JOB: usize = 8;

/// Every column over the given axes, pair-major and RAS fastest — the
/// order of the grid's flat index.
fn columns(pairs: usize, t_active: &[f64], t_standby: &[f64], ras: &[f64]) -> Vec<Column> {
    let mut cols = Vec::new();
    for pair in 0..pairs {
        for &ta in t_active {
            for &ts in t_standby {
                for &rf in ras {
                    cols.push((pair, ta, ts, rf));
                }
            }
        }
    }
    cols
}

/// [`evaluate_exact`] at every lifetime of every column, row-major and
/// bit for bit, through one `hoist_grid` call.
fn evaluate_columns(
    model: &NbtiModel,
    spec: &BuildSpec,
    cols: &[Column],
    lifetimes: &[Seconds],
) -> Result<Vec<f64>, SurfaceError> {
    let points = cols
        .iter()
        .map(|&(pair, ta, ts, rf)| {
            stress_point(spec.period_s, Kelvin(ta), Kelvin(ts), rf, spec.pairs[pair])
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(build_error)?;
    let hoisted = model.hoist_grid(&points, lifetimes).map_err(build_error)?;
    Ok(hoisted.iter().map(HoistedStress::base).collect())
}

/// Cell midpoints along one axis (`log` → geometric midpoints); a
/// single-point axis contributes its one point.
fn midpoints(axis: &[f64], log: bool) -> Vec<f64> {
    if axis.len() == 1 {
        return vec![axis[0]];
    }
    axis.windows(2)
        .map(|w| {
            if log {
                10f64.powf((w[0].log10() + w[1].log10()) / 2.0)
            } else {
                (w[0] + w[1]) / 2.0
            }
        })
        .collect()
}

fn unwrap_outcome<T>(outcome: JobOutcome<Result<T, SurfaceError>>) -> Result<T, SurfaceError> {
    match outcome {
        JobOutcome::Completed(inner) => inner,
        other => Err(SurfaceError::Build(
            other
                .failure_reason()
                .unwrap_or("grid job failed")
                .to_owned(),
        )),
    }
}

/// Builds the full artifact: parallel grid fill, then the midpoint
/// error sweep whose measured sup-error is embedded in the header.
///
/// # Errors
///
/// [`SurfaceError::Invalid`] for a bad spec, [`SurfaceError::Build`] if
/// any model evaluation or pool job fails.
pub fn build(model: &NbtiModel, spec: &BuildSpec) -> Result<Artifact, SurfaceError> {
    spec.validate()?;
    let grid = SurfaceGrid::new(
        spec.t_active_k.iter().map(|k| k.0).collect(),
        spec.t_standby_k.iter().map(|k| k.0).collect(),
        spec.ras_fraction.clone(),
        spec.lifetime_s.clone(),
    )?;
    let workers = if spec.workers == 0 {
        default_workers()
    } else {
        spec.workers
    };
    let seconds = |axis: &[f64]| axis.iter().map(|&t| Seconds(t)).collect::<Vec<_>>();

    // Phase 1: fill the grid, one job per eight columns of one pair.
    // Columns come in flat-index order, so a pair's block is its jobs'
    // rows laid end to end.
    let cols = columns(
        spec.pairs.len(),
        grid.t_active_k(),
        grid.t_standby_k(),
        grid.ras_fraction(),
    );
    let lifetimes = seconds(grid.lifetime_s());
    let jobs: Vec<&[Column]> = cols
        .chunks(cols.len() / spec.pairs.len())
        .flat_map(|pair| pair.chunks(COLUMNS_PER_JOB))
        .collect();
    let outcomes = run_ordered(&jobs, workers, |_, job| {
        evaluate_columns(model, spec, job, &lifetimes)
    });
    let mut values: Vec<Vec<f64>> = (0..spec.pairs.len())
        .map(|_| Vec::with_capacity(grid.len()))
        .collect();
    for (job, outcome) in jobs.iter().zip(outcomes) {
        values[job[0].0].extend(unwrap_outcome(outcome)?);
    }

    // Phase 2: measure the sup of the relative interpolation error at
    // every cell midpoint — where multilinear interpolation of a smooth
    // function peaks — so the header carries evidence, not hope.
    let sweep_cols = columns(
        spec.pairs.len(),
        &midpoints(grid.t_active_k(), false),
        &midpoints(grid.t_standby_k(), false),
        &midpoints(grid.ras_fraction(), false),
    );
    let mid_lt = seconds(&midpoints(grid.lifetime_s(), true));
    let jobs: Vec<&[Column]> = sweep_cols.chunks(COLUMNS_PER_JOB).collect();
    let sweeps = run_ordered(&jobs, workers, |_, job| {
        let exact = evaluate_columns(model, spec, job, &mid_lt)?;
        let mut worst = 0.0f64;
        for (&(pair, ta, ts, rf), row) in job.iter().zip(exact.chunks(mid_lt.len())) {
            for (t, &exact) in mid_lt.iter().zip(row) {
                let (approx, _) = interpolate(&grid, &values[pair], ta, ts, rf, t.0);
                worst = worst.max(rel_error(approx, exact));
            }
        }
        Ok(worst)
    });
    let mut sup_error = 0.0f64;
    for outcome in sweeps {
        sup_error = sup_error.max(unwrap_outcome(outcome)?);
    }
    let error_samples = (sweep_cols.len() * mid_lt.len()) as u64;

    Ok(Artifact {
        period_s: spec.period_s,
        model_fingerprint: model_fingerprint(model)?,
        sup_error,
        error_samples,
        grid,
        pairs: spec.pairs.clone(),
        values,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small but representative spec: dense enough to hold the error
    /// bound, small enough for test time.
    pub(crate) fn test_spec() -> BuildSpec {
        BuildSpec {
            t_active_k: vec![Kelvin(SWEEP_TEMP_ACTIVE_K)],
            t_standby_k: kelvin_spaced(320.0, 400.0, 9),
            ras_fraction: lin_spaced(0.1, 0.9, 17),
            lifetime_s: log_spaced(1e6, 1e9, 31),
            pairs: vec![(0.5, 1.0)],
            period_s: SWEEP_PERIOD_S,
            workers: 2,
        }
    }

    #[test]
    fn grid_values_match_exact_evaluation_at_nodes() {
        let model = NbtiModel::ptm90().unwrap();
        let spec = BuildSpec {
            t_standby_k: kelvin_spaced(320.0, 400.0, 3),
            ras_fraction: lin_spaced(0.1, 0.9, 3),
            lifetime_s: log_spaced(1e6, 1e9, 4),
            ..test_spec()
        };
        let artifact = build(&model, &spec).unwrap();
        let g = &artifact.grid;
        for (i_ts, &ts) in g.t_standby_k().iter().enumerate() {
            for (i_rf, &rf) in g.ras_fraction().iter().enumerate() {
                for (i_lt, &t) in g.lifetime_s().iter().enumerate() {
                    let exact = evaluate_exact(
                        &model,
                        spec.period_s,
                        &SurfaceQuery {
                            t_active_k: Kelvin(SWEEP_TEMP_ACTIVE_K),
                            t_standby_k: Kelvin(ts),
                            ras_fraction: rf,
                            lifetime_s: t,
                            p_active: 0.5,
                            p_standby: 1.0,
                        },
                    )
                    .unwrap();
                    let got = artifact.values[0][g.index(0, i_ts, i_rf, i_lt)];
                    assert_eq!(got.to_bits(), exact.to_bits(), "node ({ts}, {rf}, {t})");
                }
            }
        }
    }

    #[test]
    fn measured_sup_error_is_within_the_documented_bound() {
        let model = NbtiModel::ptm90().unwrap();
        let artifact = build(&model, &test_spec()).unwrap();
        assert!(artifact.error_samples > 0);
        assert!(
            artifact.sup_error < crate::DOCUMENTED_ERROR_BOUND,
            "measured sup-error {:e} must stay under the bound {:e}",
            artifact.sup_error,
            crate::DOCUMENTED_ERROR_BOUND
        );
        // And it is a real measurement, not a zero placeholder.
        assert!(artifact.sup_error > 0.0);
    }

    #[test]
    fn build_is_deterministic_across_worker_counts() {
        let model = NbtiModel::ptm90().unwrap();
        let small = BuildSpec {
            t_standby_k: kelvin_spaced(320.0, 400.0, 3),
            ras_fraction: lin_spaced(0.1, 0.9, 3),
            lifetime_s: log_spaced(1e6, 1e9, 4),
            ..test_spec()
        };
        let one = build(
            &model,
            &BuildSpec {
                workers: 1,
                ..small.clone()
            },
        )
        .unwrap();
        let four = build(
            &model,
            &BuildSpec {
                workers: 4,
                ..small
            },
        )
        .unwrap();
        assert_eq!(one.to_bytes(), four.to_bytes());
    }

    /// Length and 64-bit FNV-1a of a whole artifact file. (A CRC-32 over
    /// the file would not do: with the CRC trailer included it is the
    /// same residue for every intact artifact.)
    fn digest(model: &NbtiModel, spec: &BuildSpec) -> (usize, u64) {
        let bytes = build(model, spec).unwrap().to_bytes();
        let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        (bytes.len(), fnv)
    }

    /// The artifact bytes are pinned: any drift in a grid value, the
    /// measured sup-error or the column order changes the digest. The
    /// two-pair spec puts a zero-duty pair next to a stressed one.
    #[test]
    fn artifact_bytes_are_pinned() {
        let model = NbtiModel::ptm90().unwrap();
        assert_eq!(digest(&model, &test_spec()), (38492, 0xd32c_427d_fcad_cad4));
        let two_pairs = BuildSpec {
            pairs: vec![(0.5, 1.0), (0.0, 0.0)],
            ..test_spec()
        };
        assert_eq!(digest(&model, &two_pairs), (76452, 0xe74a_2ac8_0acd_2ca7));
    }

    #[test]
    fn rejects_bad_specs() {
        let model = NbtiModel::ptm90().unwrap();
        let mut spec = test_spec();
        spec.pairs.clear();
        assert!(build(&model, &spec).is_err());
        let mut spec = test_spec();
        spec.pairs = vec![(1.5, 0.5)];
        assert!(build(&model, &spec).is_err());
        let mut spec = test_spec();
        spec.period_s = 0.0;
        assert!(build(&model, &spec).is_err());
        let mut spec = test_spec();
        spec.t_standby_k = vec![Kelvin(400.0), Kelvin(320.0)];
        assert!(build(&model, &spec).is_err());
    }

    #[test]
    fn spaced_helpers_pin_endpoints() {
        assert_eq!(lin_spaced(1.0, 3.0, 3), vec![1.0, 2.0, 3.0]);
        assert_eq!(lin_spaced(5.0, 9.0, 1), vec![5.0]);
        let lg = log_spaced(1e2, 1e6, 5);
        assert_eq!(lg.first().copied(), Some(1e2));
        assert_eq!(lg.last().copied(), Some(1e6));
        assert!((lg[2] - 1e4).abs() < 1e-6);
    }
}
