//! A fleet checkpoint written before the CRC and FNV-1a code moved into
//! relia-core must still load, re-seal byte for byte, and resume to the
//! same statistics as a fresh run.

#![allow(clippy::unwrap_used)]
use std::path::{Path, PathBuf};

use relia_fleet::checkpoint::{self, CheckpointWriter};
use relia_fleet::{run_fleet, FleetOptions, FleetSpec};

const CHUNK: usize = 256;

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/fleet_v1.ckpt")
}

/// The run that wrote the fixture: 600 samples in three chunks.
fn spec() -> FleetSpec {
    let mut spec = FleetSpec::paper_defaults().unwrap();
    spec.times.truncate(1);
    spec.samples = 600;
    spec.seed = 7;
    spec
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("relia-fleet-fixture-{}-{name}", std::process::id()))
}

#[test]
fn the_pinned_checkpoint_loads_and_re_seals_byte_identically() {
    let spec = spec();
    let fingerprint = spec.fingerprint(CHUNK);
    assert_eq!(fingerprint, 0x145d_06cb_0c99_e995, "fingerprint drifted");
    let (chunks, skipped) = checkpoint::load(&fixture(), fingerprint, spec.times.len()).unwrap();
    assert_eq!(skipped, 0);
    assert_eq!(chunks.keys().copied().collect::<Vec<_>>(), vec![0, 1, 2]);

    let path = scratch("reseal");
    let mut w = CheckpointWriter::create(&path, fingerprint).unwrap();
    for (&i, acc) in &chunks {
        w.record(i, acc).unwrap();
    }
    drop(w);
    let written = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(written == std::fs::read(fixture()).unwrap(), "bytes differ");
}

#[test]
fn resuming_the_pinned_checkpoint_matches_a_fresh_run() {
    let spec = spec();
    let path = scratch("resume");
    std::fs::copy(fixture(), &path).unwrap();
    let options = |checkpoint| FleetOptions {
        workers: 1,
        chunk: CHUNK,
        checkpoint,
        ..FleetOptions::default()
    };
    let resumed = run_fleet(&spec, &options(Some(path.clone()))).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(resumed.metrics.resumed_chunks, 3);
    assert_eq!(resumed.metrics.executed_chunks, 0);
    let fresh = run_fleet(&spec, &options(None)).unwrap();
    assert_eq!(resumed.summary, fresh.summary);
}
