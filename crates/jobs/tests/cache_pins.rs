//! Pins of the memo cache's answers and statistics, recorded from the
//! per-key lookups before the flow batched its cache misses.

#![allow(clippy::unwrap_used)]
use std::sync::Arc;

use relia_core::seal::Fnv1a;
use relia_core::units::{Kelvin, Seconds};
use relia_flow::{AgingAnalysis, FlowConfig, StandbyPolicy};
use relia_jobs::{
    builtin_resolver, run_sweep, CacheStats, PolicySpec, ShardedCache, SweepOptions, SweepSpec,
    Workload,
};

/// FNV-1a over the little-endian bits of every value.
fn fnv1a(values: &[f64]) -> u64 {
    let mut h = Fnv1a::new();
    for &v in values {
        h.f64(v);
    }
    h.finish()
}

#[test]
fn the_sharded_cache_reproduces_the_pinned_bits() {
    // The same constants `relia-flow`'s pins hold for `NoCache`.
    let pins = [
        ("c432", [0xcd7a_5558_0790_c400, 0xc5e4_ba86_7c4c_885b]),
        ("c1908", [0x9063_5bb8_d9c9_b158, 0xe618_f247_1083_4350]),
    ];
    let config = FlowConfig::paper_defaults().unwrap();
    for (name, pinned) in pins {
        let circuit = relia_netlist::iscas::circuit(name).unwrap();
        let analysis = AgingAnalysis::new(&config, &circuit).unwrap();
        let n = circuit.primary_inputs().len();
        let policies = [
            StandbyPolicy::AllInternalZero,
            StandbyPolicy::InputVector((0..n).map(|i| i % 3 == 0).collect()),
        ];
        let cache = ShardedCache::default();
        for (policy, pin) in policies.iter().zip(pinned) {
            // A cold pass, then a warm one answered from the table.
            for pass in ["cold", "warm"] {
                let dv = analysis
                    .gate_delta_vth_at_cached(policy, config.lifetime, &cache)
                    .unwrap();
                assert_eq!(fnv1a(&dv), pin, "{name} {pass}");
            }
        }
    }
}

fn spec() -> SweepSpec {
    SweepSpec {
        workload: Workload::CircuitAging {
            circuits: vec!["c432".into(), "c3540".into()],
            policies: vec![PolicySpec::Worst, PolicySpec::Best],
        },
        ras: vec![(1.0, 1.0), (1.0, 9.0)],
        t_standby: vec![Kelvin(330.0), Kelvin(400.0)],
        lifetimes: vec![Seconds(1.0e8)],
    }
}

fn stats(cache: Option<ShardedCache>) -> CacheStats {
    let options = SweepOptions {
        workers: 1,
        shared_cache: cache.map(Arc::new),
        ..SweepOptions::default()
    };
    run_sweep(&spec(), &options, builtin_resolver)
        .unwrap()
        .metrics
        .cache
}

#[test]
fn a_one_worker_sweep_keeps_the_pinned_cache_statistics() {
    let pinned = CacheStats {
        hits: 13_728,
        misses: 13_360,
        entries: 13_360,
        evictions: 0,
    };
    assert_eq!(stats(None), pinned);
}

#[test]
fn a_one_worker_sweep_under_eviction_keeps_the_pinned_cache_statistics() {
    let pinned = CacheStats {
        hits: 13_200,
        misses: 13_888,
        entries: 256,
        evictions: 13_632,
    };
    assert_eq!(stats(Some(ShardedCache::with_capacity(4, 64))), pinned);
}
