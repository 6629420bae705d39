"""Smoke check of the benchmark's own gates.

    python3 perfbench/smoke.py

1. One ``small-blocks`` eval of texture 0 matches its recorded digests,
   and the same report with one byte changed, in the CSV or in the
   ``.summary``, is flagged as a mismatch.
2. ``run.py`` started in a directory that holds only ``BENCHMARK.json``
   and ``perfbench`` (no sources) exits non-zero without printing a
   result line.

Exits 0 when both hold.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import harness
from run import _check
from workloads import WORKLOADS


def _flip_byte(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


def check_digests() -> None:
    w = WORKLOADS["small-blocks"]
    harness.require_sources()
    harness.WORK.mkdir(exist_ok=True)
    want = harness.load_digests()["workloads"][w.name]["0"]
    w.render(0, harness.clip_path(w.name, 0))
    res = harness.eval_clip(w, 0, "smoke")
    if not _check(res, want):
        sys.exit("smoke: an unmodified report does not match its recorded digests")
    out = harness.WORK / f"{w.name}-t0-smoke.csv"
    for target in (out, Path(str(out) + ".summary")):
        backup = target.read_bytes()
        _flip_byte(target)
        res["report"] = harness.report_digests(out)
        print(f"corrupted {target.name}; expecting a mismatch report:", file=sys.stderr)
        if _check(res, want):
            sys.exit(f"smoke: a corrupted {target.name} was not flagged")
        target.write_bytes(backup)
    print("digest gate: clean report accepted, corrupted CSV and summary flagged")


def check_without_sources() -> None:
    bare = harness.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(harness.BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "small-blocks",
           "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    last = proc.stdout.strip().splitlines()[-1:]
    shutil.rmtree(bare)
    if proc.returncode == 0 or (last and last[0].startswith("{")):
        sys.exit(f"smoke: run without sources gave exit code {proc.returncode}, "
                 f"output {proc.stdout!r}")
    print(f"without sources: exit code {proc.returncode}, no result line "
          f"({proc.stderr.strip()})")


if __name__ == "__main__":
    check_digests()
    check_without_sources()
