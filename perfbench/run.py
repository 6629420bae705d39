"""Benchmark of ``cubemc eval``, the command users run.

    python3 perfbench/run.py --workload small-blocks --seed 0 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table

Run it from anywhere; it finds the checkout from its own location and
imports ``cubemc`` from the checkout's ``src`` (nothing needs installing).
Scratch files go to ``perfbench/.work``.

``--seed`` picks the run's clips: ``CLIPS_PER_RUN`` texture seeds out of
the pool recorded in ``digests.json``.  Set-up renders them with
``frame_io.generate_synthetic`` and writes them with ``write_yuv420``;
the program under test sees only the ``.yuv`` file.

``--trace 0`` times ``cubemc eval`` on the run's clips, in turn, until
``--seconds`` have passed (at least one eval), and reports the
end-to-end metrics of ``BENCHMARK.json``.  ``--trace 1`` evaluates the
first clip once untraced and twice traced, runs the layer micro-timings,
and reports the per-layer metrics.  Every eval's CSV and ``.summary`` are
compared with the digests recorded on the seed commit; a mismatch drops
that eval's timing, counts as failed and makes the command exit 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import harness
from workloads import REF_DISTANCE, WORKLOADS

SETUP_REPEATS = 3
DEADLINE_S = 140.0  # start no eval after this; a run must end within 180 s


def _check(res: dict, want: dict) -> bool:
    got = res["report"]
    ok = res["rc"] == 0 and (got["csv"], got["summary"]) == (want["csv"], want["summary"])
    if not ok:
        print(
            f"output mismatch: texture seed {res['texture_seed']}, exit code {res['rc']}, "
            f"got {res['report']}, recorded {want}\n{res['log']}",
            file=sys.stderr,
        )
    return ok


def timed_run(w, seed: int, seconds: float, recorded: dict, t_start: float):
    seeds = harness.clip_seeds(seed, len(recorded))
    setups = [harness.in_child(harness.set_up, w, seeds)[0] for _ in range(SETUP_REPEATS)]

    from cubemc.interp import generate_dctif_bank  # the parent's own set-up

    generate_dctif_bank()
    t0 = time.perf_counter()
    evals, good = [], []
    while True:
        ts = seeds[len(evals) % len(seeds)]
        res = harness.eval_clip(w, ts, "timed")
        evals.append(res)
        if _check(res, recorded[str(ts)]):
            good.append(res)
        now = time.perf_counter()
        if now - t0 >= seconds or now - t_start + res["eval_s"] > DEADLINE_S:
            break

    metrics = {
        "setup_s": statistics.median(setups),
        "output_match_frac": len(good) / len(evals),
    }
    if good:
        eval_s = statistics.median(r["eval_s"] for r in good)
        metrics["eval_s"] = eval_s
        metrics["blocks_per_s"] = good[0]["report"]["blocks"] / eval_s
        metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in good)
    for r in evals:
        print(f"  eval texture={r['texture_seed']} {r['eval_s']:.3f} s "
              f"rss={r['peak_rss_mb']:.1f} MiB")
    return metrics, len(evals), len(evals) - len(good)


def traced_run(w, seed: int, recorded: dict):
    import micro

    ts = harness.clip_seeds(seed, len(recorded))[0]
    harness.set_up(w, [ts])
    plain = harness.eval_clip(w, ts, "untraced")
    traced = [harness.eval_clip(w, ts, f"traced{k}", traced=True) for k in range(2)]
    runs = [plain] + traced
    failed = sum(not _check(r, recorded[str(ts)]) for r in runs)
    if failed:
        return {}, len(runs), failed

    counts = [r["trace"]["counts"] for r in traced]
    if counts[0] != counts[1]:
        raise RuntimeError(f"traced counts differ between two identical evals: {counts}")
    times = {k: statistics.mean(r["trace"]["times"][k] for r in traced)
             for k in traced[0]["trace"]["times"]}
    metrics = {**counts[0], **times}
    metrics["evaluate.run_eval.s_per_frame"] = (
        metrics.pop("evaluate.run_eval.inclusive_s") / (w.frames - REF_DISTANCE)
    )
    metrics["evaluate.pred_gain_y_db"] = plain["report"]["pred_gain_y_db"]
    metrics["trace.overhead_frac"] = (
        statistics.mean(r["eval_s"] for r in traced) / plain["eval_s"] - 1.0
    )
    metrics.update(harness.in_child(micro.run, seed, harness.WORK / "micro.yuv")[0])
    return metrics, len(runs), 0


def run_one(args) -> int:
    t_start = time.perf_counter()
    w = WORKLOADS[args.workload]
    harness.require_sources()
    recorded = harness.load_digests()["workloads"][w.name]
    config = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    spec = config["per_layer" if args.trace else "end_to_end"]
    harness.WORK.mkdir(exist_ok=True)

    if args.trace:
        metrics, attempted, failed = traced_run(w, args.seed, recorded)
    else:
        metrics, attempted, failed = timed_run(w, args.seed, args.seconds, recorded, t_start)

    out = {}
    for m in spec:
        if m["name"] in metrics:
            out[m["name"]] = {"value": metrics.pop(m["name"]), "unit": m["unit"]}
            print(f"  {m['name']:<60} {out[m['name']]['value']:.6g} {m['unit']}")
    missing = [m["name"] for m in spec if m["name"] not in out]
    if metrics or (missing and not failed):
        raise RuntimeError(f"metrics not in BENCHMARK.json: {sorted(metrics)}; "
                           f"not measured: {missing}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 1 if failed else 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process; one table."""
    rc = 0
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        rc = rc or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{name}: exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            continue
        result = json.loads(lines[-1])
        for metric, v in result["metrics"].items():
            rows.append(f"{name:<14} {metric:<60} {v['value']:>12.6g} {v['unit']}")
        rows.append(f"{name:<14} {'correct':<60} {str(result['correct']):>12}")
    print("\n".join(rows))
    return rc


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except harness.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
