"""Record one large working set of the dual QP as a small .npz file.

Trains the pairwise model on 10 DUC-shaped sets from ``perfbench/gen.py``
with one reference per set and C = 0.1, as in ROADMAP item 12, and stops at
the first solve whose KKT matrix (free alphas plus held caps) has at least
``--rows`` rows. The file holds that solve's starting state restricted to
its free constraints, whose Gram block is the KKT matrix's: ``K``, the
losses, the example indexes, the alphas, the held caps, C and the number of
examples. ``tests/test_offline_checks.py::
test_large_dual_solve_matches_across_blas_threads`` runs that solve under
1 and 2 OpenBLAS threads.

    python tests/fixtures/record_working_set.py [--rows 150] [--out PATH]

Run from the root of a source checkout under OPENBLAS_NUM_THREADS=1.
"""

from __future__ import annotations

import argparse
import logging
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.gen import write_corpus  # noqa: E402
from structsum.corpus import load_dataset, load_stopwords  # noqa: E402
from structsum.experiments import train_on  # noqa: E402
from structsum.features import FeatureConfig  # noqa: E402
from structsum.greedy import GreedyConfig  # noqa: E402
from structsum.learner import TrainerConfig, WorkingSet  # noqa: E402
from structsum.rouge import LossConfig  # noqa: E402

SETS, CORPUS_SEED, C, BUDGET = 10, 7, 0.1, 665


class _Recorded(Exception):
    pass


def record(rows: int, out: Path) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        data = load_dataset(write_corpus(Path(tmp) / "duc.jsonl", "duc", SETS, CORPUS_SEED),
                            load_stopwords())
    solve = WorkingSet.solve

    def recording(ws, cfg):
        free = np.flatnonzero(~ws._at_zero)
        held = ws._tight & (np.bincount(ws._example[free], minlength=ws.n_examples) > 0)
        size = len(free) + int(held.sum())
        if size >= rows:
            np.savez_compressed(
                out, K=ws.K[np.ix_(free, free)], loss=ws._loss[free],
                example=ws._example[free], alpha=ws._alpha[free], tight=held,
                C=ws.C, n_examples=ws.n_examples,
            )
            raise _Recorded(size)
        return solve(ws, cfg)

    WorkingSet.solve = recording
    try:
        train_on(data, list(range(SETS)), "pairwise", FeatureConfig(), LossConfig(),
                 GreedyConfig(budget_bytes=BUDGET), TrainerConfig(C=C), lam=4.0,
                 single_reference=True)
    except _Recorded as done:
        return done.args[0]
    finally:
        WorkingSet.solve = solve
    raise SystemExit(f"no solve reached a KKT matrix of {rows} rows")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rows", type=int, default=150)
    parser.add_argument("--out", type=Path, default=Path(__file__).parent / "large_working_set.npz")
    args = parser.parse_args()
    logging.basicConfig(level=logging.WARNING)
    size = record(args.rows, args.out)
    print(f"recorded a solve with a {size}-row KKT matrix to {args.out}")


if __name__ == "__main__":
    main()
