//! Bit-level pins of the per-gate ΔV_th vectors and error texts.
//!
//! The constants were recorded from the per-PMOS scalar loops, before the
//! flow evaluated ΔV_th in chunked batches. Every entry point must still
//! reproduce them exactly: the uncached paths, the cached path through
//! [`NoCache`], and the fractional-standby path. A last test cancels a
//! cached run between two chunks.

#![allow(clippy::unwrap_used)]
use std::cell::Cell;

use relia_core::{CancelToken, ModelError, NbtiModel, StressKey};
use relia_flow::{AgingAnalysis, DeltaVthCache, FlowConfig, FlowError, NoCache, StandbyPolicy};
use relia_netlist::{iscas, Circuit};

/// FNV-1a over the little-endian bits of every value.
fn fnv1a(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The pinned policies: the idealized worst case and a mixed vector.
fn policies(circuit: &Circuit) -> [StandbyPolicy; 2] {
    let n = circuit.primary_inputs().len();
    [
        StandbyPolicy::AllInternalZero,
        StandbyPolicy::InputVector((0..n).map(|i| i % 3 == 0).collect()),
    ]
}

/// Per-gate standby probabilities that are 0 or 1 exactly where `policy`
/// leaves a PMOS unstressed or stressed.
fn flag_probs(analysis: &AgingAnalysis<'_>, policy: &StandbyPolicy) -> Vec<Vec<f64>> {
    let circuit = analysis.circuit();
    let flags = match policy {
        StandbyPolicy::InputVector(v) => analysis.standby_stress_of_vector(v).unwrap(),
        _ => circuit
            .gates()
            .iter()
            .map(|g| vec![true; circuit.library().cell(g.cell()).pmos_count()])
            .collect(),
    };
    flags
        .iter()
        .map(|gate| gate.iter().map(|&f| if f { 1.0 } else { 0.0 }).collect())
        .collect()
}

/// Fractional standby probabilities cycling through 0, ¼, ½, ¾ and 1.
fn fractional_probs(circuit: &Circuit) -> Vec<Vec<f64>> {
    circuit
        .gates()
        .iter()
        .enumerate()
        .map(|(g, gate)| {
            let pmos = circuit.library().cell(gate.cell()).pmos_count();
            (0..pmos).map(|p| ((g + p) % 5) as f64 / 4.0).collect()
        })
        .collect()
}

struct Pin {
    circuit: &'static str,
    /// `gate_delta_vth` per policy.
    direct: [u64; 2],
    /// The cached path per policy.
    cached: [u64; 2],
    /// `gate_delta_vth_with_standby_probs` on [`fractional_probs`].
    fractional: u64,
}

const PINS: [Pin; 2] = [
    Pin {
        circuit: "c432",
        direct: [0x0516_ea9b_edf2_0358, 0xbb8a_f878_80b2_2a65],
        cached: [0xcd7a_5558_0790_c400, 0xc5e4_ba86_7c4c_885b],
        fractional: 0xfc16_1a2f_fa76_dd9d,
    },
    Pin {
        circuit: "c1908",
        direct: [0x44cc_1a97_11d8_1e57, 0x9bd4_e30d_4dff_b7b0],
        cached: [0x9063_5bb8_d9c9_b158, 0xe618_f247_1083_4350],
        fractional: 0x8397_203f_1253_3e62,
    },
];

#[test]
fn every_entry_point_reproduces_the_pinned_bits() {
    let config = FlowConfig::paper_defaults().unwrap();
    for pin in &PINS {
        let circuit = iscas::circuit(pin.circuit).unwrap();
        let analysis = AgingAnalysis::new(&config, &circuit).unwrap();
        for (i, policy) in policies(&circuit).iter().enumerate() {
            let direct = analysis.gate_delta_vth(policy).unwrap();
            let via_probs = analysis
                .gate_delta_vth_with_standby_probs(&flag_probs(&analysis, policy))
                .unwrap();
            let cached = analysis
                .gate_delta_vth_at_cached(policy, config.lifetime, &NoCache)
                .unwrap();
            let cancellable = analysis
                .gate_delta_vth_at_cached_cancellable(
                    policy,
                    config.lifetime,
                    &NoCache,
                    &CancelToken::new(),
                )
                .unwrap();
            let run = analysis.run_with_cache(policy, &NoCache).unwrap();
            let name = pin.circuit;
            assert_eq!(fnv1a(&direct), pin.direct[i], "{name} policy {i} direct");
            assert_eq!(fnv1a(&via_probs), pin.direct[i], "{name} policy {i} probs");
            assert_eq!(fnv1a(&cached), pin.cached[i], "{name} policy {i} cached");
            assert_eq!(fnv1a(&cancellable), pin.cached[i], "{name} policy {i}");
            assert_eq!(fnv1a(&run.gate_delta_vth), pin.cached[i], "{name} run");
        }
        let fractional = analysis
            .gate_delta_vth_with_standby_probs(&fractional_probs(&circuit))
            .unwrap();
        assert_eq!(fnv1a(&fractional), pin.fractional, "{}", pin.circuit);
    }
}

/// The error each failing circuit reports, from every entry point.
const ERROR_PINS: [(&str, &str); 2] = [
    (
        "c3540",
        "nbti model: invalid parameter active_stress_prob = 1.0000000000000002; expected [0, 1]",
    ),
    (
        "c7552",
        "nbti model: invalid parameter active_stress_prob = -0.0000000000000002220446049250313; \
         expected [0, 1]",
    ),
];

#[test]
fn every_entry_point_reports_the_pinned_error() {
    let config = FlowConfig::paper_defaults().unwrap();
    for (name, expected) in ERROR_PINS {
        let circuit = iscas::circuit(name).unwrap();
        let analysis = AgingAnalysis::new(&config, &circuit).unwrap();
        for policy in policies(&circuit) {
            let errors = [
                analysis.gate_delta_vth(&policy).unwrap_err(),
                analysis
                    .gate_delta_vth_with_standby_probs(&flag_probs(&analysis, &policy))
                    .unwrap_err(),
                analysis
                    .gate_delta_vth_at_cached(&policy, config.lifetime, &NoCache)
                    .unwrap_err(),
                analysis.run(&policy).unwrap_err(),
                analysis.run_with_cache(&policy, &NoCache).unwrap_err(),
            ];
            for err in errors {
                assert_eq!(err.to_string(), expected, "{name}");
            }
        }
        let fractional = analysis
            .gate_delta_vth_with_standby_probs(&fractional_probs(&circuit))
            .unwrap_err();
        assert_eq!(fractional.to_string(), expected, "{name} fractional");
    }
}

#[test]
fn the_first_failing_gate_decides_the_fractional_error() {
    let config = FlowConfig::paper_defaults().unwrap();
    let circuit = iscas::circuit("c1908").unwrap();
    let analysis = AgingAnalysis::new(&config, &circuit).unwrap();
    let good = fractional_probs(&circuit);
    let (early, late) = (300, 700);
    // A probability out of range before a short row, and the reverse.
    let mut prob_first = good.clone();
    prob_first[early][0] = 1.5;
    prob_first[late].pop();
    let mut width_first = good;
    width_first[early].pop();
    width_first[late][0] = 1.5;
    let message = |probs: &[Vec<f64>]| {
        analysis
            .gate_delta_vth_with_standby_probs(probs)
            .unwrap_err()
            .to_string()
    };
    assert_eq!(
        message(&prob_first),
        "nbti model: invalid parameter standby_stress_prob = 1.5; expected [0, 1]"
    );
    assert_eq!(
        message(&width_first),
        "per-gate array has 0 entries but circuit has 1 gates"
    );
}

/// A cache that cancels `token` once it has answered its first chunk.
struct CancelAfterFirstChunk<'a> {
    token: &'a CancelToken,
    chunks: Cell<usize>,
}

impl DeltaVthCache for CancelAfterFirstChunk<'_> {
    fn delta_vth(&self, key: StressKey, model: &NbtiModel) -> Result<f64, ModelError> {
        NoCache.delta_vth(key, model)
    }

    fn delta_vth_many(
        &self,
        keys: &[StressKey],
        model: &NbtiModel,
    ) -> Result<Vec<f64>, ModelError> {
        self.chunks.set(self.chunks.get() + 1);
        self.token.cancel();
        NoCache.delta_vth_many(keys, model)
    }
}

#[test]
fn cancelling_between_chunks_returns_cancelled_not_a_partial_vector() {
    let config = FlowConfig::paper_defaults().unwrap();
    let circuit = iscas::circuit("c1908").unwrap();
    let analysis = AgingAnalysis::new(&config, &circuit).unwrap();
    let token = CancelToken::new();
    let cache = CancelAfterFirstChunk {
        token: &token,
        chunks: Cell::new(0),
    };
    let policy = StandbyPolicy::AllInternalZero;
    let err = analysis
        .gate_delta_vth_at_cached_cancellable(&policy, config.lifetime, &cache, &token)
        .unwrap_err();
    assert!(matches!(err, FlowError::Cancelled), "{err}");
    assert_eq!(cache.chunks.get(), 1, "no chunk runs after the cancel");
    let token = CancelToken::new();
    let cache = CancelAfterFirstChunk {
        token: &token,
        chunks: Cell::new(0),
    };
    let err = analysis
        .run_with_cache_cancellable(&policy, &cache, &token)
        .unwrap_err();
    assert!(matches!(err, FlowError::Cancelled), "{err}");
}
