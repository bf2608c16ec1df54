"""Seeded inputs of the congruence-sweep workload.

The same seed writes the same files.  The program under test only sees
these files, in the text format ``lincong.parse_matrix`` reads (one row per
line), never the seed.

    python3 bench/gen.py --seed 7 --out DIR
"""

from __future__ import annotations

import argparse
import random
from pathlib import Path

SWEEP_MATRICES = 40      # 5x3, profiled at every modulus in SWEEP_MODULI
SWEEP_SHAPE = (5, 3)
SWEEP_MODULI = range(2, 31)
TORUS_MATRICES = 50      # 3x2, pushed through the torus of GF(p), p in TORUS_PRIMES
TORUS_SHAPE = (3, 2)
TORUS_PRIMES = (7, 13)
ENTRY_RANGE = (-10, 10)


def _matrix_text(rng, shape) -> str:
    rows, cols = shape
    return "".join(
        " ".join(str(rng.randint(*ENTRY_RANGE)) for _ in range(cols)) + "\n"
        for _ in range(rows)
    )


def write_congruence_inputs(seed: int, out: Path) -> dict:
    """Write the sweep and torus matrices under ``out``; return their paths."""
    rng = random.Random(f"congruence-sweep:{seed}")
    out.mkdir(parents=True, exist_ok=True)
    paths = {"sweep": [], "torus": []}
    for family, count, shape in (
        ("sweep", SWEEP_MATRICES, SWEEP_SHAPE),
        ("torus", TORUS_MATRICES, TORUS_SHAPE),
    ):
        for i in range(count):
            path = out / f"{family}_{i:02d}.mat"
            path.write_text(_matrix_text(rng, shape), encoding="utf-8")
            paths[family].append(path)
    return paths


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    paths = write_congruence_inputs(args.seed, args.out)
    print(f"wrote {sum(len(v) for v in paths.values())} matrices to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
