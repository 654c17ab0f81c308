"""One-shot generator for the synthetic separable fixture.

Layout per document set: two docs of news-like nonsense. Each doc opens with
a "good" sentence of four capitalized topic words; two support sentences
repeat one topic word each in lowercase (so the topic words stay in the
capitalized-vocabulary feature variant while the supports themselves start
with a digit and attract no capitalization); the rest is shared noise. The
references are permutations of the eight topic words, so the unique F=1
summary is the two good sentences, and the budget admits exactly those two.

Good sentences are similarity hubs in the capitalized-word variant (cosine
0.5 to each of their supports) while noise sentences are near-duplicates of
each other in the raw all-words variant, which traps a uniform-weight model.

Run from the repo root:  PYTHONPATH=src python3 tests/fixtures/generate.py [OUT_DIR]
It writes fixture.jsonl, expected_results.json, golden_summaries.txt and
golden_baseline.txt into OUT_DIR (default: this directory); all are
committed, and rerunning must reproduce them byte for byte.
model_small.json is a frozen input, not an output: a pairwise model trained
on SMALL_TRAIN_IDS when the fixture was made, always read from this
directory. The bounds table and the golden summaries are computed from it,
and it is never rewritten, so a change to training cannot silently move the
golden files.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from structsum.corpus import load_dataset, load_stopwords
from structsum.experiments import (
    ablation_table,
    bounds_table,
    learning_curve,
    mean_f,
    prepare_sets,
    train_on,
)
from structsum.features import FeatureConfig, registry_for
from structsum.greedy import GreedyConfig
from structsum.learner import Model, TrainerConfig, predict
from structsum.rouge import LossConfig

FIXTURE_DIR = Path(__file__).parent
REPO_ROOT = FIXTURE_DIR.parent.parent

NOISE_POOLS = (
    ("zumber", "crellow", "vintor", "pask"),
    ("drifty", "quellen", "sarbon", "mux"),
    ("harlow", "tinder", "vopal", "skein"),
)
PADS = ("mird", "lant", "vosk")
N_SETS = 40
TRAIN_IDS = list(range(30))
TEST_IDS = list(range(30, 40))
SMALL_TRAIN_IDS = list(range(6))
BUDGET = 66  # two good sentences cost 28 each; slack 10 admits nothing else


def make_record(k: int) -> dict:
    topics = [f"tok{k:02d}{j}" for j in range(8)]
    noise = NOISE_POOLS[k % len(NOISE_POOLS)]

    def good(words):
        return " ".join(w.capitalize() for w in words) + "."

    def support(digit, topic):
        return f"{digit} {topic} {' '.join(PADS)}."

    def noisy(digit):
        return f"{digit} {' '.join(noise)}."

    doc_a = [good(topics[0:4]), support(5, topics[0]), support(6, topics[1]), noisy(7)]
    if k % 2 == 1:
        doc_a.append(noisy(8))
    doc_b = [good(topics[4:8]), support(5, topics[4]), support(6, topics[5]), noisy(7)]

    orderings = [
        topics,
        topics[4:] + topics[:4],
        list(reversed(topics)),
        [topics[i] for i in (0, 4, 1, 5, 2, 6, 3, 7)],
    ]
    return {
        "set_id": f"set{k:02d}",
        "documents": [" ".join(doc_a), " ".join(doc_b)],
        "references": [" ".join(o) + "." for o in orderings],
        "budget_bytes": BUDGET,
    }


def good_ids(x) -> set[int]:
    return {s.id for s in x.sentences if s.tokens[0].is_capitalized}


def main(out_dir: Path = FIXTURE_DIR) -> None:
    records = [make_record(k) for k in range(N_SETS)]
    jsonl = "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"
    (out_dir / "fixture.jsonl").write_text(jsonl, encoding="utf-8")

    stopwords = load_stopwords()
    data = load_dataset(out_dir / "fixture.jsonl", stopwords)
    assert len(data) == N_SETS

    feature_cfg = FeatureConfig()
    loss_cfg = LossConfig()
    greedy_cfg = GreedyConfig(budget_bytes=BUDGET, r=0.3)
    trainer_cfg = TrainerConfig(C=10.0, epsilon=1e-3)

    prepared = prepare_sets(data, range(N_SETS), feature_cfg, loss_cfg, greedy_cfg)
    targets = {}
    for s in prepared:
        x, want = s.x, good_ids(s.x)
        got = set(s.with_target().target.selected)
        assert got == want, (x.set_id, got, want)
        targets[x.set_id] = sorted(got)
    print(f"targets verified: two good sentences per set, {N_SETS} sets")

    result = train_on(
        data, TRAIN_IDS, "pairwise", feature_cfg, loss_cfg, greedy_cfg, trainer_cfg,
        lam=4.0,
    )
    assert result.converged, "training did not converge"
    duals = [it["dual_objective"] for it in result.iterations]
    assert all(b >= a - 1e-12 for a, b in zip(duals, duals[1:])), duals
    for i in TRAIN_IDS:
        x = data[i][0]
        pred = predict(x, result.model)
        assert set(pred.selected) == set(prepared[i].target.selected), (x.set_id, pred)
    print(f"train split: converged in {len(result.iterations)} iterations, "
          f"all {len(TRAIN_IDS)} predictions match targets")

    trained_f = mean_f(data, TEST_IDS, result.model, loss_cfg)
    dim = registry_for(feature_cfg, "pairwise").dimension
    uniform = Model("pairwise", np.ones(dim), feature_cfg, loss_cfg, greedy_cfg, lam=4.0)
    uniform_f = mean_f(data, TEST_IDS, uniform, loss_cfg)
    margin = round(trained_f - uniform_f - 0.02, 2)
    assert margin > 0.1, (trained_f, uniform_f)
    print(f"test split: trained F={trained_f:.4f}, uniform F={uniform_f:.4f}, "
          f"recorded margin {margin}")

    sizes = [1, 2, 5, 10, 20, 30]
    curve = learning_curve(
        data, sizes, TRAIN_IDS, TEST_IDS, "pairwise",
        feature_cfg, loss_cfg, greedy_cfg, trainer_cfg, lam=4.0,
    )
    assert curve[-1]["mean_f"] >= curve[0]["mean_f"] - 0.01, curve
    print("curve:", [(row["size"], round(row["mean_f"], 4)) for row in curve])

    small_model = Model.load(FIXTURE_DIR / "model_small.json")
    bounds = bounds_table(
        data, small_model, SMALL_TRAIN_IDS,
        [i for i in range(N_SETS) if i not in SMALL_TRAIN_IDS],
        loss_cfg, greedy_cfg,
    )
    by_name = dict(bounds)
    assert by_name["extractive"] >= by_name["model_fit"] >= by_name["prediction"]
    print("bounds:", [(n, None if v is None else round(v, 4)) for n, v in bounds])

    ablation = ablation_table(
        data, SMALL_TRAIN_IDS, TEST_IDS[:4], "pairwise",
        feature_cfg, loss_cfg, greedy_cfg, trainer_cfg, lam=4.0,
        rows=["none", "cap+stop+len"],
    )
    print("ablation probe:", [(r["removed"], round(r["mean_f"], 4)) for r in ablation])

    expected = {
        "budget_bytes": BUDGET,
        "train_ids": TRAIN_IDS,
        "test_ids": TEST_IDS,
        "small_train_ids": SMALL_TRAIN_IDS,
        "targets": targets,
        "trained_test_mean_f": round(trained_f, 10),
        "uniform_test_mean_f": round(uniform_f, 10),
        "margin": margin,
        "curve_sizes": sizes,
        "curve_mean_f": [round(row["mean_f"], 10) for row in curve],
        "bounds": [[n, v] for n, v in bounds],
        "ablation_probe": {r["removed"]: round(r["mean_f"], 10) for r in ablation},
    }
    (out_dir / "expected_results.json").write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )

    for name, source in (
        ("golden_summaries.txt", ["--model-file", str(FIXTURE_DIR / "model_small.json")]),
        ("golden_baseline.txt", ["--baseline"]),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "structsum.cli", "summarize",
             "--dataset", str(out_dir / "fixture.jsonl"), *source],
            capture_output=True, text=True, check=True, cwd=REPO_ROOT,
        )
        (out_dir / name).write_text(proc.stdout, encoding="utf-8")
    print("wrote fixture.jsonl, expected_results.json, golden_summaries.txt, "
          "golden_baseline.txt")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else FIXTURE_DIR)
