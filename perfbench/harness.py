"""Shared machinery of the benchmark scripts.

Importing this module pins BLAS/OpenMP threads to 1; it imports neither
numpy nor cubemc, so set-up can be timed from a process that has not
loaded them.  ``require_sources`` puts the checkout's ``src`` first on
``sys.path``, so ``cubemc`` is always this checkout's code.

Every measured step runs in a child forked from the benchmark process
(``in_child``).  Each eval therefore starts from the same state (modules
imported, filter bank built, the block-grid cache of ``motion_model``
empty, as in a fresh ``cubemc`` process), and ``wait4`` gives the peak
resident memory of that one eval instead of a process-lifetime maximum.
Children run one at a time.

Each child tells glibc to keep freed memory (``mallopt``: mmap threshold
32 MiB, trim threshold 1 GiB).  The program allocates and frees
megabyte-sized temporaries on every warp call; by default each one is
mapped fresh and page-faulted in again, and in a VM those faults cost
whatever the host's memory pressure makes them: a face-192
``large-blocks`` eval took 18-21 s with 2.6 M minor faults by default
and 9 s with 5 k faults with freed memory kept, minutes apart.  The
copies those temporaries need are still timed; their fault cost is not.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import sys
import time
import traceback
from pathlib import Path

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _name in THREAD_ENV:
    os.environ[_name] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
DIGESTS = BENCH_DIR / "digests.json"

# texture seeds rendered per run; each run evaluates these clips in turn
CLIPS_PER_RUN = 2


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources or records)."""


def require_sources() -> None:
    """Make ``import cubemc`` resolve to this checkout's sources, or raise."""
    if not (SRC / "cubemc" / "__init__.py").is_file():
        raise BenchError(f"no cubemc sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_digests() -> dict:
    if not DIGESTS.is_file():
        raise BenchError(f"missing {DIGESTS}")
    return json.loads(DIGESTS.read_text())


def clip_seeds(seed: int, pool: int) -> list[int]:
    """Texture seeds of one run: ``CLIPS_PER_RUN`` consecutive entries of
    the recorded pool, so every clip a run renders has recorded digests."""
    return [(seed * CLIPS_PER_RUN + j) % pool for j in range(CLIPS_PER_RUN)]


def clip_path(workload: str, texture_seed: int) -> Path:
    return WORK / f"{workload}-t{texture_seed}.yuv"


def _keep_freed_memory() -> None:
    libc = ctypes.CDLL("libc.so.6")
    m_trim_threshold, m_mmap_threshold = -1, -3
    if not (libc.mallopt(m_mmap_threshold, 32 << 20) and libc.mallopt(m_trim_threshold, 1 << 30)):
        raise OSError("mallopt refused the benchmark's malloc settings")


def in_child(fn, *args):
    """Run ``fn(*args)`` in a forked child and wait for it.

    Returns ``(result, peak_rss_mib)``; ``result`` must be JSON-able.
    An exception in the child is re-raised here as ``RuntimeError``
    carrying the child's traceback.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never returns
        os.close(rfd)
        try:
            _keep_freed_memory()
            payload = json.dumps({"result": fn(*args)})
        except BaseException:
            payload = json.dumps({"error": traceback.format_exc()})
        try:
            with os.fdopen(wfd, "w") as fh:
                fh.write(payload)
        finally:
            os._exit(0)
    os.close(wfd)
    try:
        with os.fdopen(rfd) as fh:
            data = fh.read()
    finally:
        _, status, usage = os.wait4(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"benchmark child exited with status {status}")
    msg = json.loads(data)
    if "error" in msg:
        raise RuntimeError("benchmark child failed:\n" + msg["error"])
    return msg["result"], usage.ru_maxrss / 1024.0  # KiB -> MiB on Linux


def set_up(workload, seeds: list[int]) -> float:
    """Import cubemc, build the filter bank, render and write the clips.

    Meant to run in a fresh child of a process that has not imported
    numpy or cubemc; returns the elapsed seconds.
    """
    t0 = time.perf_counter()
    import cubemc  # noqa: F401  (the import is part of what is timed)
    from cubemc.interp import generate_dctif_bank

    generate_dctif_bank()
    for s in seeds:
        workload.render(s, clip_path(workload.name, s))
    return time.perf_counter() - t0


def run_cli(argv: list[str], tracer=None) -> dict:
    """One ``cubemc eval`` through ``cubemc.cli.main``, timed from argv
    until the report files are closed.  Call it in a child."""
    import cubemc
    from cubemc import cli

    if tracer is not None:
        tracer.install(cubemc)
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = cli.main(argv)
    elapsed = time.perf_counter() - t0
    return {"rc": rc, "eval_s": elapsed, "log": sink.getvalue()}


def report_digests(out: Path) -> dict:
    """SHA-256 of the CSV and its ``.summary`` companion, plus the
    predicted-block count and Y prediction gain read from them."""
    csv = out.read_bytes()
    summary = Path(str(out) + ".summary").read_bytes()
    fields = dict(
        line.split("=", 1)
        for line in summary.decode("utf-8", "replace").splitlines()
        if "=" in line
    )
    try:
        gain = float(fields["mean_delta_y"])
    except (KeyError, ValueError):
        gain = None  # a damaged summary; its digest cannot match either
    return {
        "csv": hashlib.sha256(csv).hexdigest(),
        "summary": hashlib.sha256(summary).hexdigest(),
        "blocks": csv.count(b"\n") - 1,
        "pred_gain_y_db": gain,
    }


def eval_clip(workload, texture_seed: int, tag: str, traced: bool = False) -> dict:
    """Evaluate one clip in a child; return timing, memory and digests.

    With ``traced`` the child records spans, writes them next to the
    report and returns their summary under ``"trace"``.
    """
    out = WORK / f"{workload.name}-t{texture_seed}-{tag}.csv"
    for stale in (out, Path(str(out) + ".summary")):
        stale.unlink(missing_ok=True)
    argv = workload.argv(clip_path(workload.name, texture_seed), out)

    def child():
        if not traced:
            return run_cli(argv)
        from tracer import Tracer, summarize

        tracer = Tracer()
        res = run_cli(argv, tracer)
        if res["rc"] == 0:
            blocks = out.read_bytes().count(b"\n") - 1
            res["trace"] = summarize(tracer.spans, blocks)
        tracer.write(out.with_suffix(".spans.csv"))
        return res

    res, rss = in_child(child)
    res["peak_rss_mb"] = rss
    res["texture_seed"] = texture_seed
    res["report"] = report_digests(out) if res["rc"] == 0 else None
    return res
