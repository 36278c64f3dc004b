//! A sweep checkpoint written before the CRC and JSON code moved into
//! relia-core must still load, and re-sealing its records must reproduce
//! the file byte for byte.

#![allow(clippy::unwrap_used)]
use std::path::{Path, PathBuf};

use relia_core::units::{Kelvin, Seconds};
use relia_jobs::checkpoint::{self, CheckpointWriter};
use relia_jobs::{JobResult, JobStatus, PolicySpec, SweepSpec, Workload};

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/sweep_v2.jsonl")
}

/// The grid whose fingerprint and size the fixture's header records.
fn spec() -> SweepSpec {
    SweepSpec {
        workload: Workload::CircuitAging {
            circuits: vec!["c17".into()],
            policies: vec![PolicySpec::Worst, PolicySpec::Best],
        },
        ras: vec![(1.0, 1.0), (1.0, 9.0)],
        t_standby: vec![Kelvin(330.0), Kelvin(400.0)],
        lifetimes: vec![Seconds(1e8)],
    }
}

/// The records, in file order: every kind, non-finite floats, a `null`
/// leakage and a reason that needs every kind of escape.
fn statuses() -> Vec<JobStatus> {
    vec![
        JobStatus::Completed(JobResult::Aging {
            worst_delta_vth: 0.031_234_567_890_123,
            degradation: 0.052_5,
            nominal_delay_ps: 123.456,
            degraded_delay_ps: 130.0,
            standby_leakage: Some(1.25e-6),
            active_leakage: 2.5e-6,
        }),
        JobStatus::Completed(JobResult::Aging {
            worst_delta_vth: f64::INFINITY,
            degradation: f64::NEG_INFINITY,
            nominal_delay_ps: 100.0,
            degraded_delay_ps: 100.0,
            standby_leakage: None,
            active_leakage: f64::MIN_POSITIVE,
        }),
        JobStatus::Completed(JobResult::Model {
            delta_vth: 1.0 / 3.0,
        }),
        JobStatus::Completed(JobResult::Model {
            delta_vth: f64::INFINITY,
        }),
        JobStatus::Failed {
            reason: "panic: \"quoted\"\nsecond line\u{1}\ttab é ΔV_th → 😀 \\".into(),
            attempts: 3,
        },
        JobStatus::TimedOut { elapsed_ms: 1234 },
    ]
}

#[test]
fn the_pinned_checkpoint_loads() {
    let ckpt = checkpoint::load(&fixture()).unwrap().unwrap();
    let spec = spec();
    assert_eq!(ckpt.fingerprint, spec.fingerprint());
    assert_eq!(ckpt.total, spec.len());
    let want = statuses();
    assert_eq!(ckpt.statuses.len(), want.len());
    for (i, s) in want.iter().enumerate() {
        assert_eq!(ckpt.statuses.get(&i), Some(s), "record {i}");
    }
}

#[test]
fn re_sealing_the_records_reproduces_the_fixture_bytes() {
    let ckpt = checkpoint::load(&fixture()).unwrap().unwrap();
    let path = std::env::temp_dir().join(format!("relia-ckpt-fixture-{}", std::process::id()));
    let mut w = CheckpointWriter::create(&path, ckpt.fingerprint, ckpt.total).unwrap();
    for (&i, s) in &ckpt.statuses {
        w.record(i, s).unwrap();
    }
    drop(w);
    let written = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(
        String::from_utf8(written).unwrap(),
        std::fs::read_to_string(fixture()).unwrap()
    );
}
