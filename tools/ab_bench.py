"""A/B timing of two commits with the benchmark's own runner.

    python3 tools/ab_bench.py BASE HEAD --workload large-blocks --pairs 10 \\
        --seconds 8 --out ab.json

Each commit is unpacked from ``git archive`` into a directory of its own;
the two directories have paths of equal length, because the benchmark's
``peak_rss_mb`` moves with the length of the checkout path.  Each pair
runs both trees' ``perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once, on the pair's seed, alternating which tree runs first,
and reads the last JSON line each prints.  The output file holds every
pair's values, each tree's count of failed runs and, per workload and
metric, each tree's median and quartiles, the median change, how many
pairs each tree won and a no-regression verdict against the metric's
bound in ``BENCHMARK.json`` (``verdict``), with the machine (``nproc``,
CPU model, load averages at start and end) and both commits.  Pair k runs seed k, from 1.  An
existing output file keeps its earlier A/Bs: the file holds ``{"runs":
[...]}`` and each A/B appends its report.

The script runs by hand: ten pairs of one workload take several minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TREES = ("base", "head")  # names of equal length: equal-length checkout paths


def parse_run(stdout: str) -> dict:
    """The result ``run.py`` prints as the last line of its standard output,
    each metric reduced to its value.  Raises ``ValueError`` on any other
    output."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    out = json.loads(lines[-1])
    if not isinstance(out, dict) or not {"correct", "attempted", "failed", "metrics"} <= set(out):
        raise ValueError(f"not a run.py result: {lines[-1]!r}")
    out["metrics"] = {name: m["value"] for name, m in out["metrics"].items()}
    return out


def quartiles(values: list[float]) -> dict:
    """Median and quartiles (``statistics.quantiles``' inclusive method)."""
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def verdict(base: list[float], head: list[float], way: str, bound: float) -> str:
    """Whether the head's runs of one metric are ``worse`` than the base's,
    ``no worse``, or ``unresolved``.  ``bound`` is a fraction of the base
    median, as ``BENCHMARK.json`` sets it; ``way`` is "lower" or "higher".
    The runs are too spread to tell when the base's IQR exceeds the bound
    and not every head run beats every base run; otherwise the head is
    worse when its median is worse than the base median by more than the
    bound."""
    sign = 1 if way == "higher" else -1
    b, h = quartiles(base), quartiles(head)
    allowed = bound * abs(b["median"])
    if b["iqr"] > allowed and not min(sign * v for v in head) > max(sign * v for v in base):
        return "unresolved"
    return "worse" if sign * (h["median"] - b["median"]) < -allowed else "no worse"


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric of ``end_to_end`` (``BENCHMARK.json``'s list: name,
    better "lower" or "higher", bound): each tree's quartiles over the
    pairs that measured it, the change of the median, the pairs each tree
    won (a tie counts for neither) and the ``verdict``."""
    out = {}
    for m in end_to_end:
        name, way = m["name"], m["better"]
        both = [(p["base"]["metrics"][name], p["head"]["metrics"][name]) for p in pairs
                if all(name in p[t]["metrics"] for t in TREES)]
        if not both:
            continue
        bases, heads = [b for b, _ in both], [h for _, h in both]
        base, head = quartiles(bases), quartiles(heads)
        sign = 1 if way == "higher" else -1
        out[name] = {
            "better": way,
            "base": base,
            "head": head,
            "change_frac": head["median"] / base["median"] - 1 if base["median"] else None,
            "head_wins": sum(sign * (h - b) > 0 for b, h in both),
            "base_wins": sum(sign * (b - h) > 0 for b, h in both),
            "pairs": len(both),
            "bound": m["bound"],
            "verdict": verdict(bases, heads, way, m["bound"]),
        }
    return out


def failed_runs(pairs: list[dict]) -> dict[str, int]:
    """Per tree, the runs that crashed, printed no result, reported a wrong
    output or a failed eval.  Such a run's missing metrics leave the
    summary's pairs, so this count is what shows it."""
    return {t: sum(not p[t]["correct"] or p[t]["rc"] != 0 or p[t]["failed"] > 0 for p in pairs)
            for t in TREES}


def machine() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {"nproc": os.cpu_count(), "cpus_usable": usable, "cpu_model": model,
            "python": platform.python_version(), "platform": platform.platform()}


def report(commits: dict, settings: dict, runs: dict[str, list[dict]], end_to_end: list,
           info: dict) -> dict:
    """One A/B's report: ``runs`` maps each workload to its pairs."""
    return {
        "commits": commits,
        "settings": settings,
        "machine": info,
        "workloads": {w: {"pairs": pairs, "failed_runs": failed_runs(pairs),
                          "summary": summarize(pairs, end_to_end)}
                      for w, pairs in runs.items()},
    }


def append_report(path: Path, one: dict) -> None:
    """Add ``one`` to the A/Bs the file at ``path`` holds (none if absent)."""
    runs = json.loads(path.read_text())["runs"] if path.exists() else []
    path.write_text(json.dumps({"runs": runs + [one]}, indent=1) + "\n")


def unpack(commit: str, into: Path) -> str:
    """Unpack ``git archive`` of ``commit`` into ``into``; returns its full hash."""
    sha = subprocess.run(["git", "-C", str(REPO), "rev-parse", "--verify", f"{commit}^{{commit}}"],
                         check=True, capture_output=True, text=True).stdout.strip()
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", sha],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return sha


def run_tree(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    try:
        out = parse_run(proc.stdout)
    except ValueError:
        out = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    out["rc"] = proc.returncode
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base")
    p.add_argument("head")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=8.0)
    p.add_argument("--work", type=Path, help="where to unpack the trees (default: a new "
                   "temporary directory, removed at the end)")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    work = args.work or Path(tempfile.mkdtemp(prefix="ab_bench-"))
    trees = {t: work / t for t in TREES}
    try:
        commits = {t: unpack(c, trees[t]) for t, c in zip(TREES, (args.base, args.head))}
        spec = json.loads((trees["head"] / "BENCHMARK.json").read_text())["end_to_end"]
        info = {**machine(), "loadavg_start": os.getloadavg()}
        runs = {w: [] for w in args.workload}
        for k in range(args.pairs):
            seed = k + 1
            order = TREES if k % 2 == 0 else TREES[::-1]
            for w in args.workload:
                pair = {"seed": seed, "first": order[0]}
                for t in order:
                    pair[t] = run_tree(trees[t], w, seed, args.seconds)
                runs[w].append(pair)
                print(f"{w} seed {seed}: " + ", ".join(
                    f"{t} eval_s {pair[t]['metrics'].get('eval_s')}" for t in TREES), flush=True)
        info["loadavg_end"] = os.getloadavg()
        settings = {"workloads": args.workload, "pairs": args.pairs,
                    "seeds": list(range(1, args.pairs + 1)),
                    "seconds": args.seconds, "trace": 0,
                    "command": "perfbench/run.py --workload W --seed S --seconds T --trace 0",
                    "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
        one = report(commits, settings, runs, spec, info)
        append_report(args.out, one)
        for w, out in one["workloads"].items():
            print(f"{w}: failed runs {out['failed_runs']}; " + ", ".join(
                f"{name} {m['verdict']}" for name, m in out["summary"].items()), flush=True)
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
