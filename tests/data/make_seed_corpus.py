"""Write ``seed_corpus.json``: ``cubemc eval`` configs with the seed tree's report digests.

Each entry is a synthetic-input argv (without ``--out``) and the SHA-256
of the CSV and of the ``.summary`` that the seed commit's ``cubemc.cli``
writes for it.  ``tests/test_evaluate.py::test_seed_corpus`` runs the
current tree on every entry and compares the digests, so every entry pins
today's output to the seed's, off the benchmark's configurations too.

Run it from anywhere inside a clone that holds the seed commit::

    python tests/data/make_seed_corpus.py

It unpacks ``git archive`` of the seed commit into a temporary directory
and runs each config through that tree in a subprocess, one at a time.
The configs come from a fixed RNG seed, so a re-run writes the same file.
Each case below fixes what the entry must cover (a grid shape, a short
search range, ref distance 2, ...); the RNG draws the rest.  The shapes
and frame counts keep each entry to about 0.3 s on the current tree.
New cases go at the end, so the entries before them keep their argv.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SEED_COMMIT = "83c468bee25775d67183d5fea71d852380bccfc2"
RNG_SEED = 20
OUT = Path(__file__).resolve().parent / "seed_corpus.json"

# (face, block size) -> the most predicted frames an entry of that shape gets
SHAPES = {
    (32, 32): 2, (64, 64): 2, (40, 32): 2, (72, 64): 2,  # one block row per face
    (32, 16): 2, (64, 32): 1, (128, 64): 1, (40, 16): 2, (72, 32): 2,  # two
    (48, 16): 1, (96, 32): 1, (56, 16): 1,  # three
    (64, 16): 1, (72, 16): 1,  # four
}

CASES = [
    # partial grids: face strips outside every block
    dict(shape=(40, 16)), dict(shape=(56, 16)), dict(shape=(72, 16)),
    dict(shape=(72, 32)), dict(shape=(40, 32)), dict(shape=(72, 64)),
    # the wavefront's 010101000 owners: the BOTTOM face's rows stay in one process
    dict(shape=(48, 16)), dict(shape=(96, 32)), dict(shape=(48, 16), lambda_=4.0),
    dict(shape=(96, 32), ref_distance=2),
    # one, two, three and four block rows per face
    dict(shape=(32, 32)), dict(shape=(64, 64)),
    dict(shape=(32, 16)), dict(shape=(64, 32)), dict(shape=(128, 64)),
    dict(shape=(56, 16)),
    dict(shape=(64, 16)), dict(shape=(72, 16), lambda_=8.0),
    # search ranges whose stage-3 rasters come out empty or nearly so
    dict(search_range=2), dict(search_range=3), dict(search_range=4),
    dict(search_range=2, lambda_=4.0),
    # ref distance 2
    dict(ref_distance=2), dict(ref_distance=2, shape=(32, 16)),
    # lambda with 64-px blocks
    dict(shape=(64, 64), lambda_=4.0), dict(shape=(128, 64), lambda_=2.5),
    dict(shape=(72, 64), lambda_=16.0),
    # three-component motion along a cube diagonal, toward the cube corners
    dict(corner=True), dict(corner=True, shape=(64, 64)), dict(corner=True, shape=(48, 16)),
    dict(corner=True, shape=(32, 16), ref_distance=2),
    dict(corner=True, search_range=4),
    # four and five frames: the renderer's frame loop, and each predicted
    # frame's grid and cost tables built anew
    dict(shape=(32, 32), frames=5), dict(shape=(32, 16), frames=5),
    dict(shape=(40, 32), frames=4, ref_distance=2), dict(shape=(64, 64), frames=4),
    dict(shape=(32, 16), frames=4, corner=True), dict(shape=(40, 16), frames=4, lambda_=4.0),
]


def _velocity(rng: random.Random, face: int, corner: bool) -> tuple[float, ...]:
    """A velocity below ``face / 8``: along a cube diagonal, or any direction."""
    if corner:
        d = [rng.choice((-1, 1)) * (1 + rng.uniform(-0.15, 0.15)) for _ in range(3)]
        speed = rng.uniform(0.6, 0.95) * face / 8
    else:
        d = [rng.gauss(0, 1) for _ in range(3)]
        speed = rng.uniform(0.0, 0.95) * face / 8
    norm = math.sqrt(sum(c * c for c in d))
    v = tuple(round(speed * c / norm, 2) for c in d)
    assert math.sqrt(sum(c * c for c in v)) < face / 8
    return v


def draw(rng: random.Random, case: dict) -> list[str]:
    """The argv of one valid config: ``case`` fixed, the RNG drawing the rest."""
    face, block = case.get("shape") or rng.choice(sorted(SHAPES))
    ref = case.get("ref_distance", rng.choice((1, 1, 1, 2)))
    frames = case.get("frames", ref + rng.randint(1, SHAPES[face, block]))
    search = case.get("search_range", rng.choice((2, 4, 8, 16, 32, 64, 64, 200)))
    lam = case.get("lambda_", rng.choice((0.0, 0.0, 1.0, 4.0, round(rng.uniform(0, 16), 1))))
    velocity = _velocity(rng, face, case.get("corner", False))
    # ``=`` keeps a negative velocity from reading as an option in the seed's parser
    return ["eval", "--input", "synthetic", "--face-size", str(face),
            "--block-size", str(block), "--ref-distance", str(ref),
            "--search-range", str(search), "--lambda", str(lam),
            "--synth-frames", str(frames), "--seed", str(rng.randint(0, 999)),
            "--synth-velocity=" + ",".join(repr(c) for c in velocity)]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> int:
    rng = random.Random(RNG_SEED)
    top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=Path(__file__).parent,
                         check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", SEED_COMMIT], cwd=top, check=True,
                             capture_output=True).stdout
    entries = []
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "seed"
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, filter="data")
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        out = Path(tmp) / "r.csv"
        for i, case in enumerate(CASES):
            argv = draw(rng, case)
            subprocess.run([sys.executable, "-m", "cubemc.cli", *argv, "--out", str(out)],
                           env=env, cwd=tmp, check=True, capture_output=True)
            face, block = argv[4], argv[6]
            entries.append({"name": f"{i:02d}-face{face}-{block}px", "argv": argv,
                            "csv_sha256": _sha256(out),
                            "summary_sha256": _sha256(Path(f"{out}.summary"))})
            print(entries[-1]["name"], " ".join(argv[2:]), flush=True)
    body = ",\n".join(json.dumps(e) for e in entries)  # one entry a line
    OUT.write_text(f'{{"seed_commit": "{SEED_COMMIT}", "entries": [\n{body}\n]}}\n')
    print(f"wrote {len(entries)} entries to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
