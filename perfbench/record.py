"""Record the benchmark's reference data.

    python3 perfbench/record.py digests [WORKLOAD ...]   # digests.json + machine record
    python3 perfbench/record.py baseline [WORKLOAD ...]  # ten timed runs per workload

Without workload names every workload is recorded; named workloads
replace only their own entries.

``digests`` evaluates every clip of the pool once and stores the SHA-256
of its CSV and ``.summary`` in ``digests.json``; run it only on a commit
whose reports are the reference (the seed commit of the benchmark), never
to make a changed program pass.  It also writes the machine, toolchain,
thread settings and commit into ``run_record.json``.

``baseline`` runs ``run.py`` with ten seeds per workload (and once with
``--trace 1``), and stores each end-to-end metric's median, quartiles
and quartile spread, and the per-layer figures, under ``"baseline"`` in
``run_record.json``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

import harness
from workloads import WORKLOADS

POOL = 15  # texture seeds 0..POOL-1 per workload
BASELINE_SEEDS = range(1, 11)
RECORD = harness.BENCH_DIR / "run_record.json"


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=harness.ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def _proc_field(path, key) -> str:
    with open(path) as fh:
        for line in fh:
            if line.startswith(key):
                return line.split(":", 1)[1].strip()
    return "unknown"


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "mem_total": _proc_field("/proc/meminfo", "MemTotal"),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ[k] for k in harness.THREAD_ENV},
    }


def _load_record() -> dict:
    return json.loads(RECORD.read_text()) if RECORD.is_file() else {}


def _save_record(record: dict) -> None:
    RECORD.write_text(json.dumps(record, indent=2) + "\n")


def record_digests(names) -> None:
    harness.require_sources()
    harness.WORK.mkdir(exist_ok=True)
    if _git("status", "--porcelain", "src"):
        sys.exit("src/ has uncommitted changes; record digests on a clean commit")
    from cubemc.interp import generate_dctif_bank

    generate_dctif_bank()
    commit = _git("rev-parse", "HEAD")
    table = harness.load_digests() if harness.DIGESTS.is_file() else {"workloads": {}}
    if table.get("commit", commit) != commit:
        sys.exit(f"digests.json was recorded on {table['commit']}, not on {commit}")
    table["commit"] = commit
    for name in names:
        w = WORKLOADS[name]
        table["workloads"][name] = {}
        for s in range(POOL):
            w.render(s, harness.clip_path(name, s))
            res = harness.eval_clip(w, s, "record")
            if res["rc"] != 0:
                sys.exit(f"{name} texture {s}: exit code {res['rc']}\n{res['log']}")
            table["workloads"][name][str(s)] = res["report"]
            print(f"{name} t{s}: {res['eval_s']:.2f} s {res['report']}", flush=True)
        harness.DIGESTS.write_text(json.dumps(table, indent=1) + "\n")
    record = _load_record()
    record.update({"commit": commit, "pool": POOL, "machine": machine()})
    _save_record(record)


def _run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(harness.BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(_seconds()), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"{' '.join(cmd)}: exit code {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _seconds() -> int:
    return json.loads((harness.ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def record_baseline(names) -> None:
    record = _load_record()
    baseline = record.setdefault("baseline", {"workloads": {}})
    baseline.update({"seeds": list(BASELINE_SEEDS), "run_seconds": _seconds()})
    for name in names:
        values: dict[str, list[float]] = {}
        for seed in BASELINE_SEEDS:
            result = _run(name, seed, 0)
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print(name, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        summary = {}
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            summary[metric] = {"median": med, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / med, "values": vals}
        traced = _run(name, BASELINE_SEEDS[0], 1)
        baseline["workloads"][name] = {
            "end_to_end": summary,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        _save_record(record)


if __name__ == "__main__":
    cmd, names = sys.argv[1:2], sys.argv[2:] or list(WORKLOADS)
    if cmd == ["digests"] and set(names) <= set(WORKLOADS):
        record_digests(names)
    elif cmd == ["baseline"] and set(names) <= set(WORKLOADS):
        record_baseline(names)
    else:
        sys.exit(__doc__)
