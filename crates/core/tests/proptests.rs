//! Property-based tests for the NBTI model invariants.

#![allow(clippy::unwrap_used)]
use proptest::prelude::*;
use relia_core::ac::{ac_to_dc_ratio, s_n, s_n_exact, s_n_grid};
use relia_core::arrhenius::diffusion_ratio;
use relia_core::rd::recovery_fraction;
use relia_core::units::{ElectronVolts, Kelvin, Seconds, Volts};
use relia_core::{
    DelayDegradation, EquivalentCycle, ModeSchedule, NbtiModel, NbtiParams, PmosStress, Ras,
    StressKey, VthDistribution,
};

/// Duty cycles for the grid parity tests: the interior plus the edges
/// where the recursion degenerates or its terms get tiny.
fn duty_cycle() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.0f64..1.0,
        Just(0.0),
        Just(1.0),
        Just(1e-300),
        Just(f64::MIN_POSITIVE),
    ]
}

/// Cycle counts around the exact-prefix boundary, plus 0 and 10⁷; a
/// vector of them is unsorted and often repeats one.
fn cycle_count() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..6000,
        Just(0),
        Just(1),
        Just(4096),
        Just(4097),
        Just(10_000_000),
    ]
}

/// A stress point over several mode periods; about one point in six has
/// zero stress probability, hence a zero equivalent duty cycle.
fn stress_point() -> impl Strategy<Value = (ModeSchedule, PmosStress)> {
    let prob = || prop_oneof![0.0f64..1.0, Just(0.0), Just(1.0)];
    (
        0.0f64..20.0,
        prop_oneof![Just(1000.0), Just(1.0), 0.5f64..1e5],
        300.0f64..400.0,
        prob(),
        prob(),
    )
        .prop_map(|(standby_weight, period, temp_s, p_a, p_s)| {
            let schedule = ModeSchedule::new(
                Ras::new(1.0, standby_weight).unwrap(),
                Seconds(period),
                Kelvin(400.0),
                Kelvin(temp_s),
            )
            .unwrap();
            (schedule, PmosStress::new(p_a, p_s).unwrap())
        })
}

/// Element-by-element `hoist` in `hoist_grid`'s row-major order; `collect`
/// stops at the first error, as the grid must.
fn hoist_pointwise(
    model: &NbtiModel,
    points: &[(ModeSchedule, PmosStress)],
    times: &[Seconds],
) -> Result<Vec<relia_core::HoistedStress>, relia_core::ModelError> {
    points
        .iter()
        .flat_map(|(schedule, stress)| times.iter().map(|&t| model.hoist(t, schedule, stress)))
        .collect()
}

/// A stress key of [`stress_point`] at a zero, fixed or random lifetime,
/// with the nominal threshold or an explicit one (from `vth0`).
fn stress_key(vth0: impl Strategy<Value = f64> + 'static) -> impl Strategy<Value = StressKey> {
    (
        stress_point(),
        prop_oneof![Just(0.0), Just(1.0e8), 1.0f64..3.2e8],
        prop_oneof![Just(None), vth0.prop_map(Some)],
    )
        .prop_map(|((schedule, stress), lifetime, vth0)| match vth0 {
            None => StressKey::quantize(&schedule, &stress, Seconds(lifetime)),
            Some(v) => {
                StressKey::quantize_with_vth0(&schedule, &stress, Seconds(lifetime), Volts(v))
            }
        })
}

/// A key whose mode times both quantize to 0 ms, which cannot evaluate.
fn degenerate_key() -> StressKey {
    let schedule = ModeSchedule::new(
        Ras::new(1.0, 9.0).unwrap(),
        Seconds(1e-4),
        Kelvin(400.0),
        Kelvin(330.0),
    )
    .unwrap();
    StressKey::quantize(&schedule, &PmosStress::worst_case(), Seconds(1.0e8))
}

proptest! {
    /// The hybrid S_n evaluator tracks the exact recursion everywhere.
    #[test]
    fn s_n_matches_exact(c in 0.01f64..1.0, n in 1u64..20_000) {
        let e = s_n_exact(c, n);
        let h = s_n(c, n);
        prop_assert!((e - h).abs() / e.max(1e-30) < 2e-3, "c={c} n={n} e={e} h={h}");
    }

    /// Damage is monotone in the number of cycles.
    #[test]
    fn s_n_monotone_in_cycles(c in 0.01f64..1.0, n in 1u64..10_000) {
        prop_assert!(s_n(c, n + 1) >= s_n(c, n));
    }

    /// Damage is monotone in the duty cycle.
    #[test]
    fn s_n_monotone_in_duty(c in 0.01f64..0.99, n in 1u64..10_000) {
        prop_assert!(s_n(c + 0.01, n) >= s_n(c, n));
    }

    /// AC damage never exceeds DC damage at the same elapsed time.
    #[test]
    fn ac_never_exceeds_dc(c in 0.0f64..1.0) {
        prop_assert!(ac_to_dc_ratio(c) <= 1.0 + 1e-12);
    }

    /// Recovery fraction stays within (0, 1].
    #[test]
    fn recovery_fraction_bounded(t in 0.0f64..1e12, ts in 1e-6f64..1e12) {
        let f = recovery_fraction(t, ts).unwrap();
        prop_assert!(f > 0.0 && f <= 1.0);
    }

    /// Diffusion slows monotonically as the temperature drops.
    #[test]
    fn diffusion_ratio_monotone(t in 250.0f64..399.0) {
        let lo = diffusion_ratio(ElectronVolts(0.295), Kelvin(t), Kelvin(400.0));
        let hi = diffusion_ratio(ElectronVolts(0.295), Kelvin(t + 1.0), Kelvin(400.0));
        prop_assert!(lo < hi && hi <= 1.0 + 1e-12);
    }

    /// ΔV_th is monotone in total stress time for any schedule.
    #[test]
    fn delta_vth_monotone_in_time(
        standby_weight in 0.0f64..20.0,
        temp_s in 300.0f64..400.0,
        p_a in 0.0f64..1.0,
        p_s in 0.0f64..1.0,
        t in 1.0e4f64..1.0e8,
    ) {
        let m = NbtiModel::ptm90().unwrap();
        let s = ModeSchedule::new(
            Ras::new(1.0, standby_weight).unwrap(),
            Seconds(1000.0),
            Kelvin(400.0),
            Kelvin(temp_s),
        ).unwrap();
        let stress = PmosStress::new(p_a, p_s).unwrap();
        let d1 = m.delta_vth(Seconds(t), &s, &stress).unwrap();
        let d2 = m.delta_vth(Seconds(2.0 * t), &s, &stress).unwrap();
        prop_assert!(d2 >= d1);
    }

    /// ΔV_th is monotone in the standby temperature when standby stresses.
    #[test]
    fn delta_vth_monotone_in_standby_temp(temp_s in 300.0f64..395.0) {
        let m = NbtiModel::ptm90().unwrap();
        let mk = |temp: f64| ModeSchedule::new(
            Ras::new(1.0, 9.0).unwrap(),
            Seconds(1000.0),
            Kelvin(400.0),
            Kelvin(temp),
        ).unwrap();
        let cool = m.delta_vth(Seconds(1.0e8), &mk(temp_s), &PmosStress::worst_case()).unwrap();
        let warm = m.delta_vth(Seconds(1.0e8), &mk(temp_s + 5.0), &PmosStress::worst_case()).unwrap();
        prop_assert!(warm >= cool);
    }

    /// A degraded delay is never negative, and exact >= linear.
    #[test]
    fn delay_degradation_ordering(dvth in 0.0f64..0.2) {
        let dd = DelayDegradation::new(&NbtiParams::ptm90().unwrap());
        let lin = dd.linear(dvth).unwrap();
        let ex = dd.exact(dvth).unwrap();
        prop_assert!(lin >= 0.0);
        prop_assert!(ex + 1e-15 >= lin);
    }

    /// Celsius↔kelvin conversion round-trips across the full practical
    /// range (cryogenic to die-melting), so the `Kelvin` newtype boundary
    /// never drifts a temperature.
    #[test]
    fn kelvin_celsius_round_trip(c in -273.0f64..1000.0) {
        let k = Kelvin::from_celsius(c);
        prop_assert!((k.to_celsius() - c).abs() < 1e-9, "c={c} k={}", k.0);
        prop_assert!((Kelvin(k.0).to_celsius() - c).abs() < 1e-9);
    }

    /// At a fixed RAS split, the equivalent stress time per mode cycle is
    /// monotone in the standby temperature: a hotter standby mode diffuses
    /// hydrogen faster, so its seconds count for more (eq. 17).
    #[test]
    fn equivalent_stress_monotone_in_standby_temp(
        temp_s in 280.0f64..395.0,
        standby_weight in 0.1f64..20.0,
        p_s in 0.05f64..1.0,
    ) {
        let params = NbtiParams::ptm90().unwrap();
        let ras = Ras::new(1.0, standby_weight).unwrap();
        let stress = PmosStress::new(0.5, p_s).unwrap();
        let mk = |t: f64| ModeSchedule::new(
            ras,
            Seconds(1000.0),
            Kelvin(400.0),
            Kelvin(t),
        ).unwrap();
        let cool = EquivalentCycle::build(&params, &mk(temp_s), &stress).unwrap();
        let warm = EquivalentCycle::build(&params, &mk(temp_s + 5.0), &stress).unwrap();
        prop_assert!(
            warm.t_eq_stress > cool.t_eq_stress,
            "t_s={temp_s} w={standby_weight} p_s={p_s}: {} !> {}",
            warm.t_eq_stress,
            cool.t_eq_stress
        );
        prop_assert!(warm.diffusion_ratio > cool.diffusion_ratio);
    }

    /// Box–Muller samples respect the 3.5-sigma clamp.
    #[test]
    fn variation_samples_bounded(u1 in 0.0f64..1.0, u2 in 0.0f64..1.0) {
        let d = VthDistribution::new(Volts(0.22), Volts(0.01)).unwrap();
        let v = d.sample_box_muller(u1, u2).0;
        prop_assert!((0.22 - 0.036..=0.22 + 0.036).contains(&v));
    }

    /// The hoisted batch evaluator matches the scalar per-device entry
    /// point sample-for-sample — not "close", the same bits (≤ 0 ulp) —
    /// over random schedules, stress vectors, times, and thresholds.
    #[test]
    fn hoisted_batch_matches_scalar_bit_for_bit(
        standby_weight in 0.0f64..20.0,
        temp_s in 300.0f64..400.0,
        p_a in 0.0f64..1.0,
        p_s in 0.0f64..1.0,
        t in 1.0f64..3.2e8,
        vth0 in 0.16f64..0.30,
    ) {
        let model = NbtiModel::ptm90().unwrap();
        let schedule = ModeSchedule::new(
            Ras::new(1.0, standby_weight).unwrap(),
            Seconds(1000.0),
            Kelvin(400.0),
            Kelvin(temp_s),
        ).unwrap();
        let stress = PmosStress::new(p_a, p_s).unwrap();
        let hoisted = model.hoist(Seconds(t), &schedule, &stress).unwrap();
        let scalar = model
            .delta_vth_with_vth0(Seconds(t), &schedule, &stress, Volts(vth0))
            .unwrap();
        prop_assert_eq!(hoisted.delta_vth_at(vth0).to_bits(), scalar.to_bits());
    }

    /// The batched slice entry point equals the per-element call for every
    /// lane, so chunked SoA evaluation cannot drift from pointwise.
    #[test]
    fn batch_slices_equal_pointwise(
        t in 1.0f64..3.2e8,
        vals in prop::collection::vec(0.16f64..0.30, 1..64),
    ) {
        let model = NbtiModel::ptm90().unwrap();
        let schedule = ModeSchedule::new(
            Ras::new(1.0, 9.0).unwrap(),
            Seconds(1000.0),
            Kelvin(400.0),
            Kelvin(330.0),
        ).unwrap();
        let stress = PmosStress::new(0.5, 1.0).unwrap();
        let hoisted = model.hoist(Seconds(t), &schedule, &stress).unwrap();
        let mut out = vec![0.0; vals.len()];
        hoisted.delta_vth_into(&vals, &mut out).unwrap();
        for (v, o) in vals.iter().zip(&out) {
            prop_assert_eq!(hoisted.delta_vth_at(*v).to_bits(), o.to_bits());
        }
    }

    /// The batched recursion is `s_n` itself, bit for bit, whatever the
    /// duty set (zeros, ones, tiny values, lengths off the lane width)
    /// and however the cycle counts are ordered or repeated.
    #[test]
    fn s_n_grid_equals_s_n_bit_for_bit(
        duties in prop::collection::vec(duty_cycle(), 0..20),
        ns in prop::collection::vec(cycle_count(), 0..10),
    ) {
        let grid = s_n_grid(&duties, &ns);
        prop_assert_eq!(grid.len(), duties.len() * ns.len());
        for (d, &c) in duties.iter().enumerate() {
            for (j, &n) in ns.iter().enumerate() {
                let (got, want) = (grid[d * ns.len() + j], s_n(c, n));
                prop_assert_eq!(got.to_bits(), want.to_bits(), "c={} n={}: {} vs {}", c, n, got, want);
            }
        }
    }

    /// `hoist_grid` is `hoist` at every (point, time), bit for bit,
    /// including t = 0, zero-duty stress and mixed mode periods.
    #[test]
    fn hoist_grid_equals_hoist_bit_for_bit(
        points in prop::collection::vec(stress_point(), 1..12),
        times in prop::collection::vec(prop_oneof![Just(0.0), 1.0f64..3.2e8, Just(1e10)], 1..8),
    ) {
        let model = NbtiModel::ptm90().unwrap();
        let times: Vec<Seconds> = times.into_iter().map(Seconds).collect();
        let grid = model.hoist_grid(&points, &times).unwrap();
        let pointwise = hoist_pointwise(&model, &points, &times).unwrap();
        prop_assert_eq!(grid.len(), pointwise.len());
        for (g, p) in grid.iter().zip(&pointwise) {
            prop_assert_eq!(g.base().to_bits(), p.base().to_bits());
            prop_assert_eq!(g, p);
        }
    }

    /// A NaN or negative time fails `hoist_grid` with the error the
    /// pointwise calls hit first.
    #[test]
    fn hoist_grid_fails_like_hoist(
        points in prop::collection::vec(stress_point(), 1..6),
        times in prop::collection::vec(prop_oneof![Just(0.0), 1.0f64..3.2e8], 1..6),
        bad in prop_oneof![Just(f64::NAN), Just(-1.0), -1e9f64..-1e-9],
        at in 0usize..6,
    ) {
        let model = NbtiModel::ptm90().unwrap();
        let mut times: Vec<Seconds> = times.into_iter().map(Seconds).collect();
        let at = at % times.len();
        times[at] = Seconds(bad);
        // Debug forms, since a NaN in the error never compares equal.
        let grid = model.hoist_grid(&points, &times).unwrap_err();
        let pointwise = hoist_pointwise(&model, &points, &times).unwrap_err();
        prop_assert_eq!(format!("{grid:?}"), format!("{pointwise:?}"));
    }

    /// `evaluate_many` is `evaluate` at every key, bit for bit: nominal
    /// and explicit thresholds, zero duty and zero lifetime, mixed
    /// schedules and lifetimes, repeated keys, lengths 0 to 19.
    #[test]
    fn evaluate_many_equals_evaluate_bit_for_bit(
        keys in prop::collection::vec(stress_key(0.1f64..0.5), 0..20),
        repeats in prop::collection::vec((0usize..20, 0usize..20), 0..4),
    ) {
        let mut keys = keys;
        for (from, to) in repeats {
            if !keys.is_empty() {
                let from = keys[from % keys.len()];
                let len = keys.len();
                keys[to % len] = from;
            }
        }
        let model = NbtiModel::ptm90().unwrap();
        let many = StressKey::evaluate_many(&keys, &model).unwrap();
        prop_assert_eq!(many.len(), keys.len());
        for (key, got) in keys.iter().zip(&many) {
            let want = key.evaluate(&model).unwrap();
            prop_assert_eq!(got.to_bits(), want.to_bits(), "{:?}: {} vs {}", key, got, want);
        }
    }

    /// A degenerate key or an out-of-range threshold anywhere in a batch
    /// fails `evaluate_many` with the error the key-by-key loop meets
    /// first.
    #[test]
    fn evaluate_many_fails_like_evaluate(
        keys in prop::collection::vec(stress_key(0.0f64..1.5), 0..19),
        at in 0usize..19,
    ) {
        let mut keys = keys;
        keys.insert(at % (keys.len() + 1), degenerate_key());
        let model = NbtiModel::ptm90().unwrap();
        let each: Result<Vec<f64>, _> = keys.iter().map(|k| k.evaluate(&model)).collect();
        let many = StressKey::evaluate_many(&keys, &model);
        prop_assert!(each.is_err());
        prop_assert_eq!(many, each);
    }
}
