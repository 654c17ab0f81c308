"""Experiment harness: splits, evaluation, bounds, curves, ablations.

Plain functions over loaded datasets, so the CLI stays a thin wrapper. The
C grid, the curve and the ablation prepare each set once per call
(``prepare_sets``) for all their trainings and scores; ``train_on`` trains
once. Sampling is seeded, so reruns reproduce the numbers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

import numpy as np

from .corpus import DocumentSet, ReferenceSet
from .features import FeatureConfig, bank_for
from .greedy import GreedyConfig, greedy_maximize
from .learner import Model, PreparedSet, SharedPrefix, TrainerConfig, TrainResult, train
from .rouge import LossConfig, RougeGain, f_score
from .scoring import Summary

Dataset = list[tuple[DocumentSet, ReferenceSet]]

ABLATION_ROWS = (
    ("none", None),
    ("basic", "basic"),
    ("all except basic", "all-except-basic"),
    ("location", "location"),
    ("sent+doc", "sent_doc"),
    ("cap+stop+len", "cap_stop_len"),
    ("minmax", "minmax"),
)


def sample_splits(
    n_sets: int,
    n_train: int,
    n_val: int,
    n_test: int,
    resamples: int,
    seed: int,
) -> tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]], ...]:
    """Seeded resampled (train, val, test) index splits, disjoint within
    each resample."""
    if n_train + n_val + n_test > n_sets:
        raise ValueError(
            f"split sizes {n_train}+{n_val}+{n_test} exceed dataset size {n_sets}"
        )
    rng = random.Random(seed)
    out = []
    for _ in range(resamples):
        order = list(range(n_sets))
        rng.shuffle(order)
        tr = tuple(sorted(order[:n_train]))
        va = tuple(sorted(order[n_train:n_train + n_val]))
        te = tuple(sorted(order[n_train + n_val:n_train + n_val + n_test]))
        out.append((tr, va, te))
    return tuple(out)


def prepare_sets(
    data: Dataset,
    ids,
    feature_config: FeatureConfig,
    loss_config: LossConfig,
    greedy_config: GreedyConfig,
    single_reference: bool = False,
) -> list[PreparedSet]:
    """One ``PreparedSet`` per id, to share across the trainings and scores
    of one study call. In single-reference mode the sets see only their
    first reference, as training sets do; evaluation sets use all of them.
    """
    out = []
    for i in ids:
        x, Y = data[i]
        if single_reference:
            Y = ReferenceSet(set_id=Y.set_id, references=Y.references[:1])
        out.append(PreparedSet.build(x, Y, feature_config, loss_config, greedy_config))
    return out


def train_on(
    data: Dataset,
    ids: list[int] | tuple[int, ...],
    model_kind: str,
    feature_config: FeatureConfig,
    loss_config: LossConfig,
    greedy_config: GreedyConfig,
    trainer_config: TrainerConfig,
    lam: float | None = None,
    single_reference: bool = False,
    log_callback=None,
    sets: list[PreparedSet] | None = None,
    shared: SharedPrefix | None = None,
) -> TrainResult:
    """Prepare ``data[i] for i in ids`` (unless given as ``sets``) and train
    once, from the prefix ``shared`` holds, if any (see ``learner.train``)."""
    if sets is None:
        sets = prepare_sets(data, ids, feature_config, loss_config, greedy_config, single_reference)
    elif len(sets) != len(ids):
        raise ValueError(f"{len(sets)} prepared sets for {len(ids)} training ids")
    return train(sets, model_kind, feature_config, loss_config, greedy_config, trainer_config,
                 lam=lam, log_callback=log_callback, shared=shared)


@dataclass
class EvalReport:
    rows: list[dict]
    mean_p: float
    mean_r: float
    mean_f: float
    stderr_f: float


def _stderr(values: list[float]) -> float:
    n = len(values)
    if n < 2:
        return 0.0
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return math.sqrt(var) / math.sqrt(n)


def evaluate_predictions(
    data: Dataset, predictions: dict[str, Summary], loss_cfg: LossConfig = LossConfig()
) -> EvalReport:
    """Per-set and mean unigram P/R/F against all references."""
    by_id = {x.set_id: (x, Y) for x, Y in data}
    missing = sorted(set(predictions) - set(by_id))
    if missing:
        raise ValueError(f"predictions reference unknown set ids: {missing}")
    rows = []
    for set_id in sorted(predictions):
        x, Y = by_id[set_id]
        y = predictions[set_id]
        p, r, f = RougeGain(x, Y, loss_cfg).load(y.selected).prf()
        rows.append(
            {"set_id": set_id, "precision": p, "recall": r, "f": f, "sentences": list(y.selected)}
        )
    if not rows:
        raise ValueError("no predictions to evaluate")
    ps, rs, fs = ([row[key] for row in rows] for key in ("precision", "recall", "f"))
    n = len(rows)
    return EvalReport(
        rows=rows, mean_p=sum(ps) / n, mean_r=sum(rs) / n, mean_f=sum(fs) / n, stderr_f=_stderr(fs)
    )


def mean_f(data: Dataset, ids, model: Model, loss_cfg: LossConfig) -> float:
    """Mean F of the model's predictions on ``data[i] for i in ids``, each set once."""
    sets = prepare_sets(data, ids, model.feature_config, loss_cfg, model.greedy_config)
    fs = _f_values(sets, model)
    return sum(fs) / len(fs)


def _f_values(sets: list[PreparedSet], model: Model) -> list[float]:
    """Each distinct set's F under ``model``, in set-id order, the order in
    which ``evaluate_predictions`` sums its rows."""
    by_id = {s.x.set_id: s for s in sets}
    if not by_id:
        raise ValueError("no predictions to evaluate")
    return [by_id[set_id].score(model) for set_id in sorted(by_id)]


def extractive_ceiling(
    data: Dataset, ids, greedy_cfg: GreedyConfig, loss_cfg: LossConfig
) -> float:
    """Mean F of greedy score-maximizing extractive summaries."""
    total = 0.0
    for i in ids:
        x, Y = data[i]
        gain = RougeGain(x, Y, loss_cfg)
        greedy_maximize(x, gain, cfg=greedy_cfg.for_set(x))
        total += gain.current_f()
    return total / len(ids)


def human_agreement(data: Dataset, ids, loss_cfg: LossConfig) -> float | None:
    """Mean leave-one-out F among references; None when any set has < 2."""
    values = []
    for i in ids:
        x, Y = data[i]
        if len(Y.references) < 2:
            return None
        gain = RougeGain(x, Y, loss_cfg)
        counts, totals = gain.ref_counts, gain.ref_totals
        per_set = []
        for held_out in range(len(totals)):
            others = [j for j in range(len(totals)) if j != held_out]
            total = 0.0
            for other in others:
                overlap = int(np.minimum(counts[held_out], counts[other]).sum())
                total += f_score(overlap, totals[held_out], totals[other])
            per_set.append(total / len(others))
        values.append(sum(per_set) / len(per_set))
    return sum(values) / len(values)


def bounds_table(
    data: Dataset,
    model: Model,
    train_ids,
    test_ids,
    loss_cfg: LossConfig,
    greedy_cfg: GreedyConfig,
) -> list[tuple[str, float | None]]:
    """Rows: human agreement, extractive ceiling, train fit, test prediction."""
    return [
        ("human", human_agreement(data, test_ids, loss_cfg)),
        ("extractive", extractive_ceiling(data, test_ids, greedy_cfg, loss_cfg)),
        ("model_fit", mean_f(data, train_ids, model, loss_cfg)),
        ("prediction", mean_f(data, test_ids, model, loss_cfg)),
    ]


def learning_curve(
    data: Dataset,
    sizes,
    train_ids,
    test_ids,
    model_kind: str,
    feature_config: FeatureConfig,
    loss_config: LossConfig,
    greedy_config: GreedyConfig,
    trainer_config: TrainerConfig,
    lam: float | None = None,
    warn=None,
) -> list[dict]:
    """Train on prefixes of ``train_ids``; evaluate each on ``test_ids``."""
    rows = []
    largest = max((size for size in sizes if size <= len(train_ids)), default=0)
    configs = (feature_config, loss_config, greedy_config)
    prepared = prepare_sets(data, train_ids[:largest], *configs)
    test_sets = prepare_sets(data, test_ids, *configs)
    for size in sizes:
        if size > len(train_ids):
            if warn is not None:
                warn(f"curve size {size} exceeds {len(train_ids)} available training sets; skipped")
            continue
        result = train(prepared[:size], model_kind, *configs, trainer_config, lam=lam)
        fs = _f_values(test_sets, result.model)
        rows.append({"size": size, "mean_f": sum(fs) / len(fs), "stderr_f": _stderr(fs)})
    return rows


def ablation_table(
    data: Dataset,
    train_ids,
    test_ids,
    model_kind: str,
    feature_config: FeatureConfig,
    loss_config: LossConfig,
    greedy_config: GreedyConfig,
    trainer_config: TrainerConfig,
    lam: float | None = None,
    rows=None,
) -> list[dict]:
    """Retrain with one group removed per row; 'none' keeps everything and
    'all except basic' keeps only the basic group."""
    out = []
    selected = rows if rows is not None else [label for label, _ in ABLATION_ROWS]
    valid = {label: spec for label, spec in ABLATION_ROWS}
    configs = (feature_config, loss_config, greedy_config)
    # targets and RougeGains are shared by every row; only the banks change
    prepared = [s.with_target() for s in prepare_sets(data, train_ids, *configs)]
    test_sets = prepare_sets(data, test_ids, *configs)
    for label in selected:
        if label not in valid:
            raise ValueError(
                f"unknown ablation row {label!r}; valid rows: {[l for l, _ in ABLATION_ROWS]}"
            )
        spec = valid[label]
        if spec is None:
            cfg = feature_config
        elif spec == "all-except-basic":
            cfg = replace(feature_config, enabled_groups=("basic",))
        else:
            cfg = feature_config.without_group(spec)
        result = train(_with_features(prepared, cfg), model_kind, cfg, loss_config,
                       greedy_config, trainer_config, lam=lam)
        fs = _f_values(_with_features(test_sets, cfg), result.model)
        out.append({"removed": label, "mean_f": sum(fs) / len(fs)})
    return out


def _with_features(sets: list[PreparedSet], cfg: FeatureConfig) -> list[PreparedSet]:
    return [s if s.bank.cfg == cfg else replace(s, bank=bank_for(s.x, cfg)) for s in sets]


def select_c(
    data: Dataset,
    train_ids,
    val_ids,
    c_grid,
    model_kind: str,
    feature_config: FeatureConfig,
    loss_config: LossConfig,
    greedy_config: GreedyConfig,
    trainer_config: TrainerConfig,
    lam: float | None = None,
    single_reference: bool = False,
) -> tuple[float, list[dict]]:
    """Pick the grid point with the best validation F (ties: smaller C),
    preparing the training and validation sets once for every C. Each C
    starts from the previous, smaller C's run where that run's cap first
    acted (``learner.SharedPrefix``); every result equals a run from w = 0."""
    best_c, table, _ = _select_c(
        data, train_ids, val_ids, c_grid, model_kind, feature_config, loss_config,
        greedy_config, trainer_config, lam, single_reference,
    )
    return best_c, table


def _select_c(
    data, train_ids, val_ids, c_grid, model_kind, feature_config, loss_config,
    greedy_config, trainer_config, lam, single_reference,
) -> tuple[float, list[dict], TrainResult]:
    """``select_c``, also returning the chosen C's training result."""
    if not val_ids:
        raise ValueError("C-grid selection needs a validation split")
    trainer_configs = [replace(trainer_config, C=c) for c in sorted(c_grid)]  # checks every C
    if len(set(c_grid)) != len(trainer_configs):
        raise ValueError(f"C grid repeats a value: {sorted(c_grid)}")
    configs = (feature_config, loss_config, greedy_config)
    train_sets = prepare_sets(data, train_ids, *configs, single_reference=single_reference)
    val_sets = prepare_sets(data, val_ids, *configs)
    table = []
    best_c, best_f, best_result = None, -1.0, None
    # in ascending C, each C continues the previous C's run up to its first
    # capped solve; one train_on call per C: perfbench records the C grid's
    # trainings by wrapping train_on
    shared = SharedPrefix()
    for cfg in trainer_configs:
        result = train_on(
            data, list(train_ids), model_kind, *configs, cfg, lam=lam,
            single_reference=single_reference, sets=train_sets, shared=shared,
        )
        fs = _f_values(val_sets, result.model)
        c, f = cfg.C, sum(fs) / len(fs)
        table.append({"C": c, "val_f": f})
        if f > best_f:
            best_c, best_f, best_result = c, f, result
    return best_c, table, best_result


def sign_test(scores_a: list[float], scores_b: list[float]) -> float:
    """Two-sided paired sign test p-value; ties dropped."""
    if len(scores_a) != len(scores_b):
        raise ValueError("paired scores must have equal length")
    wins = sum(1 for a, b in zip(scores_a, scores_b) if a > b)
    losses = sum(1 for a, b in zip(scores_a, scores_b) if a < b)
    n = wins + losses
    if n == 0:
        return 1.0
    k = min(wins, losses)
    tail = sum(math.comb(n, i) for i in range(0, k + 1)) / 2 ** n
    return min(1.0, 2.0 * tail)
