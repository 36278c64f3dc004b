#!/usr/bin/env python3
"""End-to-end benchmark of relia.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the repository root. The first form builds the program and the
measuring binary (perfbench/, a cargo package of its own) into
$CARGO_TARGET_DIR (default .bench_build), runs one workload and prints, as
the last stdout line, one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end metrics
of BENCHMARK.json, with --trace 1 its per-layer metrics; a layer the
workload does not exercise reads 0. The second form runs every workload
untraced, prints each end-to-end metric by name with its unit, and exits
non-zero if any correctness check failed.

The serving and in-process workloads are measured by the Rust binary
(perfbench/src); `repro` runs the 24 paper binaries from here, because
Python can read each child's peak memory from wait4().
"""

import argparse
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Fresh processes timed for a set-up time; their median is reported.
SETUP_PROBES = 21

# stdout SHA-256 of each paper binary at the parent commit. 12 of these
# differ from the committed results/*.txt, which are stale; the benchmark
# pins what the code prints, not those files.
REPRO_SHA256 = {
    "ablation_control_points": "e1d95873e4736bc90e7b094190d93ea7f3ef9449fef4930e3af9409cbca8ae51",
    "ablation_dual_vth": "aee5e964e1c6ba428d27d6e9061f569df0b7900689e38f267d4f951de9b81c6b",
    "ablation_dual_vth_assignment": "aef12a744883de8bf8bdbd502d5fb463dc5e9a433f903cf6ec1cb10659345cea",
    "ablation_electrothermal": "9ebb836fff9a0016a16905f379fb185d2993b2ba44f7824ea352c9c5cc8f8c30",
    "ablation_ivc_rotation": "04ca7a443de99235387fdf58ef1633da4a773f1b4e54b83bbd49b9f716691d76",
    "ablation_leakage_temp": "62f2d1fce456b9cc8787ece96e9461419baca4c551fa1f534d1a8c455abd11f4",
    "ablation_st_area": "b215872a5222ee8db3312c70ca60c554f332ed8be462004e69f07baea975c7aa",
    "ablation_statistical_ivc": "f55c06dcfd6593cf3d4fd786ecb2acac9b0bba59ee3689717751245185d9e665",
    "ablation_thermal_trace": "7907c26b4475cec87189abc235e1df7e553f3076aab1ea1e3457b9953d3d1a60",
    "ablation_worst_case_temp": "464bccddc0422e4ccb552f58c215ce9cdee7a69110a674a1d25d8ec364997edd",
    "fig01_dc_vs_ac": "88a1a25a7e829a1a7e5e172f8a978c4ef2bc466c19d4d75ae982ed7f29abfadd",
    "fig01b_sawtooth": "d0a966956fcb1e95e1d8e0d1a844e56fd03f61c22a3b34d6784239398547ac5d",
    "fig02_thermal_profile": "6e979f15220c3872c3b83c151ffdcf024adb6d6b66a6eeaf45e18086fd077e2b",
    "fig03_ras_sweep": "860ee6327f25af0ba86f58c01888f4a082389a36eddded6dc54526501730b2d4",
    "fig04_tstandby_sweep": "2d49eb8145badcab07a2404d7aeddd91c093f60fb3930ad1d4e9c17bfd161f23",
    "fig05_c432_degradation": "fd26f3161069b8a714aa471f85b337588c76008243dce30718c912700793a407",
    "fig08_st_vth": "8b495f5b9a9f4b0d2035b9d18110cbaaed40aa55954702a2e40d90930f43ce58",
    "fig09_st_sizing": "ea3129a28dabd8bdd5e31fa29891f55ec5f089ad70c52853f9e5ff873df6b294",
    "fig11_st_circuit": "cc0a42cdbe0096decb527fab7184a25087fc4bf1fdf363a5f92d16983861244a",
    "fig12_variation": "7c10ade6c535491d82c5a00e9f88bdfc153edec4fffc33ec37d49de660613912",
    "table1_vth_ras": "2a398e1f873d149410ffac86f31aa8b491618e184b8e5a2c40159f286021d4c3",
    "table2_gate_vectors": "bedeb05a0ef9554c210d29e57b23540df6fc8f2b27f16f438b1b7890a4ff5903",
    "table3_ivc": "97f2ed1e2c705686a33da7b422909699b0b6a108383f99dc9199d693891c0744",
    "table4_internal_node": "5c2f9f311c1c8cc3b3b0cfaa29a387431786bde9307ee1a6adba406b77ff21cb",
}

# The binaries over 100 ms, by the layer that does most of their work.
REPRO_GROUPS = {
    "thermal": ["ablation_electrothermal"],
    "ivc": [
        "ablation_control_points",
        "ablation_ivc_rotation",
        "ablation_statistical_ivc",
        "table3_ivc",
        "table4_internal_node",
    ],
    "sleep": ["fig11_st_circuit"],
    "flow_sta": ["fig05_c432_degradation", "ablation_dual_vth_assignment"],
    "leakage": ["ablation_leakage_temp"],
    "fleet": ["fig12_variation"],
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Builds the relia CLI, the paper binaries and the measuring binary."""
    for needed in ("Cargo.toml", "crates", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from a full checkout of the repository")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    steps = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "relia", "--bin", "relia",
         "-p", "relia-bench", "--bins"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        # Build output goes to stderr: the last stdout line is the result.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(target_dir(), "release")


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, min(len(sorted_values), math.ceil(q * len(sorted_values))))
    return sorted_values[rank - 1]


def run_binary(path):
    """Runs one paper binary; returns (wall s, stdout sha256, peak RSS MiB)."""
    started = time.perf_counter()
    child = subprocess.Popen([path], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             stdin=subprocess.DEVNULL)
    out = child.stdout.read()
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - started
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        raise RuntimeError(f"{os.path.basename(path)} exited with {child.returncode}")
    return wall, hashlib.sha256(out).hexdigest(), usage.ru_maxrss / 1024.0


def repro(bin_dir, seed, seconds, trace):
    """The 24 paper binaries, serially, in a seeded order. Whole passes run
    until `seconds` have passed (at least one)."""
    names = sorted(REPRO_SHA256)
    paths = {n: os.path.join(bin_dir, n) for n in names}
    result = {"attempted": 0, "failed": 0, "errors": [], "metrics": {}}

    def one_pass(order, spans, pass_id):
        walls, rss = {}, 0.0
        pass_start = time.perf_counter_ns()
        for name in order:
            start = time.perf_counter_ns()
            result["attempted"] += 1
            try:
                wall, digest, peak = run_binary(paths[name])
            except (OSError, RuntimeError) as e:
                result["failed"] += 1
                result["errors"].append(str(e))
                continue
            if spans is not None:
                spans.append((f"repro.{name}", pass_id, "repro.pass", start, time.perf_counter_ns()))
            if digest != REPRO_SHA256[name]:
                result["errors"].append(f"{name}: stdout differs from the parent commit's")
            walls[name] = wall
            rss = max(rss, peak)
        if spans is not None:
            spans.append(("repro.pass", pass_id, "", pass_start, time.perf_counter_ns()))
        return walls, rss

    def passes(budget, spans):
        rng = random.Random(seed)
        runs, rss, started = [], 0.0, time.perf_counter()
        while not runs or time.perf_counter() - started < budget:
            order = list(names)
            rng.shuffle(order)
            walls, peak = one_pass(order, spans, len(runs) + 1)
            runs.append(walls)
            rss = max(rss, peak)
        return runs, rss

    if not trace:
        setups = []
        for _ in range(SETUP_PROBES):
            t = time.perf_counter()
            probe = subprocess.run([os.path.join(bin_dir, "relia-perfbench"), "probe", "repro"]
                                   + [paths[n] for n in names], capture_output=True)
            if probe.returncode != 0 or not probe.stdout.startswith(b"ready"):
                raise RuntimeError("repro probe failed: " + probe.stderr.decode(errors="replace"))
            setups.append(time.perf_counter() - t)
        runs, rss = passes(seconds, None)
        # The operation a user waits for is the whole reproduction: one
        # pass, so with one pass per run p50 is that pass.
        pass_us = sorted(sum(r.values()) * 1e6 for r in runs)
        result["metrics"] = {
            "p50_us": percentile(pass_us, 0.5),
            "work_per_s": sum(len(r) for r in runs) / (sum(pass_us) / 1e6),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss,
        }
        return result

    # Traced: one untraced and one traced pass set, each on half the budget.
    runs, _ = passes(seconds / 2, None)
    untraced = sum(len(r) for r in runs) / sum(sum(r.values()) for r in runs)
    spans = []
    runs, _ = passes(seconds / 2, spans)
    traced = sum(len(r) for r in runs) / sum(sum(r.values()) for r in runs)
    out_dir = os.path.join(target_dir(), "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "spans-repro.tsv"), "w") as f:
        f.write("name\tid\tparent\tstart_ns\tend_ns\n")
        for s in spans:
            f.write("\t".join(str(x) for x in s) + "\n")
    per_bin = {}
    for name, _, parent, start, end in spans:
        if parent == "repro.pass":
            per_bin[name[len("repro."):]] = per_bin.get(name[len("repro."):], 0.0) + (end - start) / 1e9
    per_bin = {n: s / len(runs) for n, s in per_bin.items()}
    m = {"bench.trace_overhead_pct": (untraced - traced) / untraced * 100.0}
    grouped = set()
    for group, members in REPRO_GROUPS.items():
        for b in members:
            m[f"repro.{b}_s"] = per_bin.get(b, 0.0)
            grouped.add(b)
        m[f"{group}.repro_s"] = sum(per_bin.get(b, 0.0) for b in members)
    m["repro.rest_s"] = sum(s for n, s in per_bin.items() if n not in grouped)
    result["metrics"] = m
    return result


def run_rust(bin_dir, args):
    cmd = [os.path.join(bin_dir, "relia-perfbench"), args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--relia", os.path.join(bin_dir, "relia"),
           "--out", os.path.join(target_dir(), "perfbench")]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} failed (exit {proc.returncode})")
    raw = json.loads(lines[-1])
    return {"attempted": raw["attempted"], "failed": raw["failed"],
            "errors": [] if raw["correct"] else ["see the check failures above"],
            "metrics": raw["metrics"]}


def finish(spec, workload, trace, raw):
    """Attaches units, fills layers the workload does not exercise with 0,
    and refuses a result that lacks an end-to-end metric or names a metric
    BENCHMARK.json does not declare."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    unknown = sorted(set(raw["metrics"]) - set(units))
    if unknown:
        fail(f"{workload} reported undeclared metrics {unknown}")
    if not trace:
        missing = sorted(set(units) - set(raw["metrics"]))
        if missing:
            fail(f"{workload} did not measure {missing}")
    metrics = {}
    for name, unit in units.items():
        value = float(raw["metrics"].get(name, 0.0))
        if value != value or value in (float("inf"), float("-inf")):
            fail(f"{workload}: {name} is not finite")
        metrics[name] = {"value": value, "unit": unit}
    for e in raw["errors"]:
        print(f"perfbench: check failed: {e}", file=sys.stderr)
    return {"correct": not raw["errors"], "attempted": int(raw["attempted"]),
            "failed": int(raw["failed"]), "metrics": metrics}


def run_one(spec, bin_dir, args):
    if args.workload == "repro":
        try:
            raw = repro(bin_dir, args.seed, args.seconds, bool(args.trace))
        except (OSError, RuntimeError) as e:
            fail(f"repro: {e}")
    else:
        raw = run_rust(bin_dir, args)
    return finish(spec, args.workload, bool(args.trace), raw)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run every workload untraced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if not args.all and args.workload not in names:
        fail(f"--workload must be one of {names} (or pass --all)")
    bin_dir = build()
    if not args.all:
        print(json.dumps(run_one(spec, bin_dir, args)))
        return
    ok = True
    args.trace = 0
    for name in names:
        args.workload = name
        result = run_one(spec, bin_dir, args)
        ok = ok and result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<14} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": ok}))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
