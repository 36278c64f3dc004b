//! Quantized stress-point keys for degradation memoization.
//!
//! A batch sweep evaluates [`NbtiModel::delta_vth`] for many (schedule,
//! stress, lifetime) combinations, and distinct jobs frequently land on the
//! same physical point (e.g. every gate whose PMOS sees signal probability
//! 0.5 under the same schedule). [`StressKey`] collapses such points onto an
//! integer key that is `Eq + Hash`, so a cache can memoize the model
//! evaluation.
//!
//! Two requirements shape the design:
//!
//! * **Determinism under concurrency.** If two *slightly* different floating
//!   point inputs quantize to the same key, a naive "first writer wins" cache
//!   would make results depend on thread scheduling. Instead,
//!   [`StressKey::evaluate`] recomputes the model at the *canonical
//!   dequantized point* of the key itself, so the cached value is a pure
//!   function of the key and sweep results are byte-identical for any worker
//!   count.
//! * **Negligible quantization error.** Probabilities are kept to 1e-9,
//!   temperatures to 1 mK, and times to 1 ms. For the paper's operating
//!   ranges this perturbs ΔV_th by parts in 1e10 — far below the micro-volt
//!   resolution of any report.

use crate::equivalent::{ModeSchedule, PmosStress, Ras};
use crate::error::{check_finite, ModelError};
use crate::model::{check_vth0, NbtiModel};
use crate::units::{Seconds, Volts};

/// Probability quantum: 1e-9 (keys store `round(p * 1e9)`).
const PROB_SCALE: f64 = 1.0e9;
/// Temperature quantum: 1 mK (keys store millikelvin).
const TEMP_SCALE: f64 = 1.0e3;
/// Time quantum: 1 ms (keys store milliseconds).
const TIME_SCALE: f64 = 1.0e3;
/// Threshold-voltage quantum: 1 nV (keys store `round(v * 1e9)`).
const VTH_SCALE: f64 = 1.0e9;
/// Sentinel marking "nominal V_th0" (no per-device threshold override).
const VTH_NOMINAL: u32 = u32::MAX;

/// A stress evaluation point quantized onto an integer lattice.
///
/// Construct with [`StressKey::quantize`] (nominal threshold) or
/// [`StressKey::quantize_with_vth0`]; evaluate the NBTI model at the key's
/// canonical point with [`StressKey::evaluate`].
///
/// ```
/// use relia_core::{Kelvin, ModeSchedule, NbtiModel, PmosStress, Ras, Seconds, StressKey};
///
/// # fn main() -> Result<(), relia_core::ModelError> {
/// let schedule = ModeSchedule::new(
///     Ras::new(1.0, 9.0)?,
///     Seconds(1000.0),
///     Kelvin(400.0),
///     Kelvin(330.0),
/// )?;
/// let stress = PmosStress::worst_case();
/// let key = StressKey::quantize(&schedule, &stress, Seconds(1.0e8));
///
/// // Sub-quantum jitter maps to the same key...
/// let jittered = PmosStress::new(0.5 + 1e-12, 1.0)?;
/// assert_eq!(key, StressKey::quantize(&schedule, &jittered, Seconds(1.0e8)));
///
/// // ...and the canonical evaluation matches the direct model closely.
/// let model = NbtiModel::ptm90()?;
/// let direct = model.delta_vth(Seconds(1.0e8), &schedule, &stress)?;
/// let cached = key.evaluate(&model)?;
/// assert!((direct - cached).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StressKey {
    /// Active-mode stress probability, in units of 1e-9.
    p_active: u32,
    /// Standby-mode stress probability, in units of 1e-9.
    p_standby: u32,
    /// Active-mode temperature in millikelvin.
    temp_active_mk: u32,
    /// Standby-mode temperature in millikelvin.
    temp_standby_mk: u32,
    /// Active time per mode cycle in milliseconds.
    t_active_ms: u64,
    /// Standby time per mode cycle in milliseconds.
    t_standby_ms: u64,
    /// Total stress lifetime in milliseconds.
    lifetime_ms: u64,
    /// Initial threshold voltage in nanovolts, or [`VTH_NOMINAL`] for the
    /// calibration's nominal device.
    vth0_nv: u32,
}

impl StressKey {
    /// Quantizes a (schedule, stress, lifetime) point at the nominal
    /// threshold voltage.
    pub fn quantize(schedule: &ModeSchedule, stress: &PmosStress, lifetime: Seconds) -> Self {
        StressKey {
            p_active: (stress.active_stress_prob() * PROB_SCALE).round() as u32,
            p_standby: (stress.standby_stress_prob() * PROB_SCALE).round() as u32,
            temp_active_mk: (schedule.temp_active().0 * TEMP_SCALE).round() as u32,
            temp_standby_mk: (schedule.temp_standby().0 * TEMP_SCALE).round() as u32,
            t_active_ms: (schedule.t_active().0 * TIME_SCALE).round() as u64,
            t_standby_ms: (schedule.t_standby().0 * TIME_SCALE).round() as u64,
            lifetime_ms: (lifetime.0 * TIME_SCALE).round() as u64,
            vth0_nv: VTH_NOMINAL,
        }
    }

    /// Quantizes a point for a device with an explicit initial threshold
    /// (dual-V_th cells, process variation).
    pub fn quantize_with_vth0(
        schedule: &ModeSchedule,
        stress: &PmosStress,
        lifetime: Seconds,
        vth0: Volts,
    ) -> Self {
        let mut key = StressKey::quantize(schedule, stress, lifetime);
        // Clamp into the representable lattice; VTH_NOMINAL stays reserved.
        let nv = (vth0.0 * VTH_SCALE)
            .round()
            .clamp(0.0, (VTH_NOMINAL - 1) as f64);
        key.vth0_nv = nv as u32;
        key
    }

    /// True when the key carries an explicit (non-nominal) initial threshold.
    pub fn has_vth0(&self) -> bool {
        self.vth0_nv != VTH_NOMINAL
    }

    /// FNV-1a fingerprint of the key, for shard selection and stable
    /// spec/checkpoint identification.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        mix(self.p_active as u64);
        mix(self.p_standby as u64);
        mix(self.temp_active_mk as u64);
        mix(self.temp_standby_mk as u64);
        mix(self.t_active_ms);
        mix(self.t_standby_ms);
        mix(self.lifetime_ms);
        mix(self.vth0_nv as u64);
        h
    }

    /// Evaluates the NBTI model at the key's canonical dequantized point.
    ///
    /// The result is a pure function of `(self, model)` — independent of the
    /// floating-point inputs that produced the key — which is what makes a
    /// concurrent memo cache scheduling-deterministic.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] when the dequantized point is degenerate
    /// (e.g. both mode times quantized to zero).
    pub fn evaluate(&self, model: &NbtiModel) -> Result<f64, ModelError> {
        let (schedule, stress, lifetime) = self.dequantize()?;
        match self.vth0() {
            None => model.delta_vth(lifetime, &schedule, &stress),
            Some(vth0) => model.delta_vth_with_vth0(lifetime, &schedule, &stress, vth0),
        }
    }

    /// [`StressKey::evaluate`] over a batch: element `i` equals
    /// `keys[i].evaluate(model)` bit for bit.
    ///
    /// Each key is dequantized once, and every key is hoisted through the
    /// engine behind [`NbtiModel::hoist_grid`], so keys with equal cycle
    /// counts (every key of one flow call shares its schedule and
    /// lifetime) step their trap-factor recursions in shared lanes. A key
    /// with an explicit threshold scales its hoisted shift with
    /// [`crate::HoistedStress::delta_vth_at`] after the scalar threshold
    /// check.
    ///
    /// # Errors
    ///
    /// The first error a key-by-key [`StressKey::evaluate`] loop would
    /// return.
    pub fn evaluate_many(keys: &[StressKey], model: &NbtiModel) -> Result<Vec<f64>, ModelError> {
        let mut points = Vec::with_capacity(keys.len());
        let mut lifetimes = Vec::with_capacity(keys.len());
        // Each key's index into `points`, or its error from before hoisting.
        let slots: Vec<Result<usize, ModelError>> = keys
            .iter()
            .map(|key| {
                let (schedule, stress, lifetime) = key.dequantize()?;
                if let Some(vth0) = key.vth0() {
                    check_vth0(vth0, model.params().vdd)?;
                }
                points.push((schedule, stress));
                lifetimes.push(lifetime);
                Ok(points.len() - 1)
            })
            .collect();
        let hoisted = model.hoist_rows(&points, 1, |p| &lifetimes[p..=p]);
        keys.iter()
            .zip(slots)
            .map(|(key, slot)| {
                let h = hoisted[slot?].as_ref().map_err(Clone::clone)?;
                match key.vth0() {
                    None => Ok(h.base()),
                    Some(vth0) => check_finite("delta_vth", h.delta_vth_at(vth0.0)),
                }
            })
            .collect()
    }

    /// The canonical (schedule, stress, lifetime) point of the key.
    fn dequantize(&self) -> Result<(ModeSchedule, PmosStress, Seconds), ModelError> {
        let t_active = self.t_active_ms as f64 / TIME_SCALE;
        let t_standby = self.t_standby_ms as f64 / TIME_SCALE;
        let schedule = ModeSchedule::new(
            Ras::new(t_active, t_standby)?,
            Seconds(t_active + t_standby),
            crate::units::Kelvin(self.temp_active_mk as f64 / TEMP_SCALE),
            crate::units::Kelvin(self.temp_standby_mk as f64 / TEMP_SCALE),
        )?;
        let stress = PmosStress::new(
            (self.p_active as f64 / PROB_SCALE).min(1.0),
            (self.p_standby as f64 / PROB_SCALE).min(1.0),
        )?;
        Ok((
            schedule,
            stress,
            Seconds(self.lifetime_ms as f64 / TIME_SCALE),
        ))
    }

    /// The explicit initial threshold, if the key carries one.
    fn vth0(&self) -> Option<Volts> {
        self.has_vth0()
            .then(|| Volts(self.vth0_nv as f64 / VTH_SCALE))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Kelvin;

    fn schedule() -> ModeSchedule {
        ModeSchedule::new(
            Ras::new(1.0, 9.0).unwrap(),
            Seconds(1000.0),
            Kelvin(400.0),
            Kelvin(330.0),
        )
        .unwrap()
    }

    #[test]
    fn equal_inputs_equal_keys() {
        let a = StressKey::quantize(&schedule(), &PmosStress::worst_case(), Seconds(1.0e8));
        let b = StressKey::quantize(&schedule(), &PmosStress::worst_case(), Seconds(1.0e8));
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn sub_quantum_jitter_shares_a_key() {
        let base = StressKey::quantize(&schedule(), &PmosStress::worst_case(), Seconds(1.0e8));
        let jittered = PmosStress::new(0.5 + 1e-11, 1.0 - 1e-11).unwrap();
        let near = StressKey::quantize(&schedule(), &jittered, Seconds(1.0e8));
        assert_eq!(base, near);
    }

    #[test]
    fn super_quantum_changes_split_keys() {
        let base = StressKey::quantize(&schedule(), &PmosStress::worst_case(), Seconds(1.0e8));
        let shifted = PmosStress::new(0.5 + 1e-8, 1.0).unwrap();
        assert_ne!(
            base,
            StressKey::quantize(&schedule(), &shifted, Seconds(1.0e8))
        );
        assert_ne!(
            base,
            StressKey::quantize(&schedule(), &PmosStress::worst_case(), Seconds(1.0e8 + 1.0))
        );
        let warmer = ModeSchedule::new(
            Ras::new(1.0, 9.0).unwrap(),
            Seconds(1000.0),
            Kelvin(400.0),
            Kelvin(330.01),
        )
        .unwrap();
        assert_ne!(
            base,
            StressKey::quantize(&warmer, &PmosStress::worst_case(), Seconds(1.0e8))
        );
    }

    #[test]
    fn vth0_distinguishes_keys_and_round_trips() {
        let s = schedule();
        let nominal = StressKey::quantize(&s, &PmosStress::worst_case(), Seconds(1.0e8));
        let dual = StressKey::quantize_with_vth0(
            &s,
            &PmosStress::worst_case(),
            Seconds(1.0e8),
            Volts(0.3),
        );
        assert!(!nominal.has_vth0());
        assert!(dual.has_vth0());
        assert_ne!(nominal, dual);

        let model = NbtiModel::ptm90().unwrap();
        let direct = model
            .delta_vth_with_vth0(Seconds(1.0e8), &s, &PmosStress::worst_case(), Volts(0.3))
            .unwrap();
        let via_key = dual.evaluate(&model).unwrap();
        assert!((direct - via_key).abs() < 1e-9, "{direct} vs {via_key}");
    }

    #[test]
    fn evaluate_matches_direct_model() {
        let model = NbtiModel::ptm90().unwrap();
        let s = schedule();
        for (p_a, p_s) in [(0.5, 1.0), (0.5, 0.0), (0.3, 0.7), (0.0, 0.0)] {
            let stress = PmosStress::new(p_a, p_s).unwrap();
            for lifetime in [1.0e4, 3.2e6, 1.0e8] {
                let direct = model.delta_vth(Seconds(lifetime), &s, &stress).unwrap();
                let key = StressKey::quantize(&s, &stress, Seconds(lifetime));
                let cached = key.evaluate(&model).unwrap();
                let tol = 1e-9 * direct.abs().max(1e-12);
                assert!(
                    (direct - cached).abs() <= tol.max(1e-15),
                    "p=({p_a},{p_s}) t={lifetime}: {direct} vs {cached}"
                );
            }
        }
    }

    #[test]
    fn fingerprints_spread() {
        // Different keys should land on different fingerprints (not a
        // collision-freeness proof, just a sanity check on the mixing).
        let s = schedule();
        let mut seen = std::collections::HashSet::new();
        for i in 0..100u32 {
            let stress = PmosStress::new(0.001 * i as f64, 1.0 - 0.001 * i as f64).unwrap();
            let key = StressKey::quantize(&s, &stress, Seconds(1.0e8));
            assert!(seen.insert(key.fingerprint()), "collision at i={i}");
        }
    }
}
