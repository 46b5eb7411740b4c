#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
system's libraries and the benchmark program from source into $CARGO_TARGET_DIR
(default .bench_build); later runs rebuild incrementally. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1.

--trace 1 runs the workload twice, each in its own process: untraced,
then traced. obs.trace_overhead_pct compares the two runs' upload_ms_p50
and query_us_p50, and the unbounded end-to-end figures (UNTRACED) come
from the untraced run; every other per-layer metric comes from the
traced run.

A run that fails its correctness check, passes its deadline with
operations outstanding, crashes or times out still prints the result
line, with "correct": false, its attempted and failed counts, and only
the metrics it measured; the exit code is then 1.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 860
RUN_TIMEOUT_S = 170  # one untraced run; a traced pair gets half each
UNTRACED = ("upload_ms_p50", "upload_ms_p99", "query_us_p50", "query_us_p99",
            "queries_per_s", "replica_ms_p50", "replica_ms_p99",
            "client_cpu_ms_per_video_min")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "e2e_bench",
         "-j", jobs],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    binary = build_dir / "e2e_bench"
    subprocess.run([str(binary), "--selftest"], check=True,
                   stdout=sys.stderr, timeout=60)
    return binary


def source_id():
    """The git commit when there is one, plus a digest of src/ either way
    (a checkout without .git still identifies the code it measured)."""
    commit = "none"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True,
                timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return f"{commit} src-sha256:{digest.hexdigest()[:16]}"


# What a run that printed no result line counts: one attempted operation,
# failed (the run itself).
NO_RESULT = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def run_once(binary, args, trace, data_dir, commit, timeout):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--data-dir", str(data_dir), "--commit", commit]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"e2e_bench did not finish within {timeout} s")
        return -1, dict(NO_RESULT)
    lines = proc.stdout.rstrip("\n").split("\n")
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines.pop())
    for line in lines:
        print(line)
    if proc.stderr:
        log(proc.stderr.rstrip("\n"))
    if result is None:
        log(f"e2e_bench exited with code {proc.returncode} and no result")
        result = dict(NO_RESULT)
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload!r}")
        return 1
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_root = build_root.resolve()
    binary = build(build_root / "e2ebench")
    data_dir = build_root / "data"
    data_dir.mkdir(parents=True, exist_ok=True)
    commit = source_id()

    runs = []
    timeout = RUN_TIMEOUT_S // 2 if args.trace else RUN_TIMEOUT_S
    for trace in ([0, 1] if args.trace else [0]):
        runs.append(run_once(binary, args, trace, data_dir, commit, timeout))
    ok = all(r["correct"] and code == 0 for code, r in runs)

    metrics = dict(runs[-1][1]["metrics"])
    if args.trace and ok:
        base, traced = runs[0][1]["metrics"], runs[1][1]["metrics"]
        # End-to-end figures too noisy on a shared box to carry a bound
        # ride with the per-layer metrics, taken from the untraced run.
        for name in UNTRACED:
            metrics[name] = base[name]
        parts = [100.0 * (traced[m]["value"] / base[m]["value"] - 1.0)
                 for m in ("upload_ms_p50", "query_us_p50")
                 if base[m]["value"] > 0]
        metrics["obs.trace_overhead_pct"] = {
            "value": sum(parts) / len(parts) if parts else 0.0,
            "unit": "%"}
        print(f"  obs.trace_overhead_pct per metric: {parts}")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    mislabelled = [m["name"] for m in wanted if m["name"] in metrics
                   and metrics[m["name"]]["unit"] != m["unit"]]
    if ok and (missing or mislabelled):
        log(f"e2e_bench metrics missing {missing}, unit differs {mislabelled}")
        return 1
    out = {
        "correct": ok,
        "attempted": sum(r["attempted"] for _, r in runs),
        "failed": sum(r["failed"] for _, r in runs),
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"],
                                "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }
    print(json.dumps(out), flush=True)
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, ValueError, KeyError,
            subprocess.SubprocessError) as err:
        log(f"run.py: {err}")
        sys.exit(1)
