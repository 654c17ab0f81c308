"""Command line interface.

Subcommands: train, summarize, evaluate, bounds, curve, ablate. All of them
exit non-zero on error, write files atomically, and produce byte-identical
output for identical inputs and seeds.

Each subcommand accepts only the flags it reads. Flags that several
subcommands read are declared once, in argparse parent parsers: data
(--dataset, --stopwords, --out), greedy (--budget, --r), lambda (--lambda),
loss (--aggregation, --rouge-drop-stopwords), training (greedy, lambda and
loss, plus --model, --groups, --C, --epsilon, --max-iters) and split
(--train-ids, --test-ids, --test-count, --seed).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from .corpus import DatasetError, load_dataset, load_stopwords
from .experiments import (
    ABLATION_ROWS,
    _select_c,
    ablation_table,
    bounds_table,
    evaluate_predictions,
    learning_curve,
    sample_splits,
    sign_test,
    train_on,
)
from .features import GROUPS, FeatureConfig
from .greedy import GreedyConfig, greedy_maximize
from .learner import Model, ModelError, TrainerConfig, predict
from .rouge import AGGREGATIONS, LossConfig
from .scoring import PairwiseScorer, Summary, gain_state
from .util import atomic_write_text


def _parse_list(text: str | None, flag: str) -> list[str] | None:
    """Values of a comma list flag; None when absent, an error when it names none."""
    if text is None:
        return None
    values = [v for v in text.split(",") if v != ""]
    if not values:
        raise ValueError(f"{flag} needs at least one value")
    return values


def _parse_ids(text: str | None, n_sets: int, flag: str) -> list[int] | None:
    """Non-empty comma list of set indexes, each in range(n_sets); None when
    absent."""
    if text is None:
        return None
    ids = [int(v) for v in text.split(",") if v != ""]
    if not ids:
        raise ValueError(f"{flag} needs at least one value")
    bad = [i for i in ids if not 0 <= i < n_sets]
    if bad:
        raise ValueError(f"{flag}: set indexes {bad} out of range for {n_sets} sets")
    return ids


def _greedy_cfg(args) -> GreedyConfig:
    return GreedyConfig(budget_bytes=args.budget, r=args.r)


def _loss_cfg(args) -> LossConfig:
    return LossConfig(multi_ref_aggregation=args.aggregation,
                      rouge_stopword_removal=args.rouge_drop_stopwords)


def _training_cfgs(args):
    """Feature, loss and greedy configs of a training command, and the fixed
    lambda of its model kind (only ``pairwise`` has one)."""
    groups = _parse_list(args.groups, "--groups") or GROUPS
    lam = args.lam if args.model == "pairwise" else None
    return FeatureConfig(enabled_groups=tuple(groups)), _loss_cfg(args), _greedy_cfg(args), lam


def _trainer(args) -> tuple[list[float], TrainerConfig]:
    """The --C grid and the trainer config at its first C; only train selects
    among a grid, the study commands train at one C."""
    grid = [float(v) for v in _parse_list(args.C, "--C")]
    if len(grid) > 1 and args.command != "train":
        raise ValueError(f"{args.command} trains at one C; --C {args.C} is a grid")
    return grid, TrainerConfig(C=grid[0], epsilon=args.epsilon, max_outer_iters=args.max_iters)


def _load(args):
    stopwords = load_stopwords(args.stopwords)
    return load_dataset(args.dataset, stopwords)


def _auto_split(args, n_sets: int):
    train_ids = _parse_ids(args.train_ids, n_sets, "--train-ids")
    test_ids = _parse_ids(args.test_ids, n_sets, "--test-ids")
    if train_ids is not None and test_ids is not None:
        return train_ids, test_ids
    if train_ids is not None or test_ids is not None:
        raise ValueError("give both --train-ids and --test-ids, or neither")
    test_count = args.test_count
    if test_count < 1:
        raise ValueError(f"--test-count must be at least 1, got {test_count}")
    if test_count >= n_sets:
        raise ValueError(f"--test-count {test_count} leaves no training sets (n={n_sets})")
    (tr, _, te), = sample_splits(
        n_sets, n_sets - test_count, 0, test_count, resamples=1, seed=args.seed
    )
    return list(tr), list(te)


def _write_json(path: str, payload) -> None:
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")


def cmd_train(args) -> int:
    if not args.out:
        raise ValueError("train needs --out to save the model")
    data = _load(args)
    feature_cfg, loss_cfg, greedy_cfg, lam = _training_cfgs(args)
    train_ids = _parse_ids(args.train_ids, len(data), "--train-ids") or list(range(len(data)))
    val_ids = _parse_ids(args.val_ids, len(data), "--val-ids") or []
    grid, trainer_cfg = _trainer(args)
    if val_ids and len(grid) == 1:
        raise ValueError("--val-ids needs a C grid (give --C two or more values)")
    c_table = None
    log_lines: list[str] = []

    def log_cb(entry: dict) -> None:
        log_lines.append(json.dumps(entry, sort_keys=True))
        print(
            "iter {iteration}: constraints={constraints_total} dual={dual_objective:.6f} "
            "gap={gap:.2e} max_violation={max_violation:.6f}".format(**entry)
        )

    if len(grid) > 1:
        if not val_ids:
            raise ValueError("a C grid needs --val-ids to select on")
        # the grid already trained the chosen C: keep that result and replay its log
        best_c, c_table, result = _select_c(
            data, train_ids, val_ids, grid, args.model, feature_cfg, loss_cfg, greedy_cfg,
            trainer_cfg, lam, args.single_reference,
        )
        print(f"selected C={best_c} on validation sets {val_ids}")
        for entry in result.iterations:
            log_cb(entry)
    else:
        result = train_on(
            data, train_ids, args.model, feature_cfg, loss_cfg, greedy_cfg, trainer_cfg,
            lam=lam, single_reference=args.single_reference, log_callback=log_cb,
        )
    result.model.save(args.out)
    log_path = args.log or (args.out + ".log.jsonl")
    atomic_write_text(log_path, "\n".join(log_lines) + "\n")
    if c_table is not None:
        _write_json(args.out + ".cgrid.json", c_table)
    status = "converged" if result.converged else "hit iteration cap"
    print(f"saved {args.model} model to {args.out} ({status}, "
          f"{result.iterations[-1]['constraints_total']} constraints)")
    return 0


def _summarize_one(x, args, model, greedy_cfg) -> Summary:
    if model is not None:
        return predict(x, model)
    scorer = PairwiseScorer.tfidf_baseline(x, lam=args.lam)
    return greedy_maximize(x, gain_state(x, scorer), cfg=greedy_cfg.for_set(x))


def cmd_summarize(args) -> int:
    if (args.model_file is None) == (not args.baseline):
        raise ValueError("give exactly one of --model-file or --baseline")
    # built in both modes so that a bad --budget or --r always fails; a
    # model summarizes under the greedy config it was trained with
    greedy_cfg = _greedy_cfg(args)
    data = _load(args)
    model = Model.load(args.model_file) if args.model_file else None
    wanted = _parse_list(args.sets, "--sets")
    records = []
    for x, _ in data:
        if wanted is not None and x.set_id not in wanted:
            continue
        y = _summarize_one(x, args, model, greedy_cfg)
        print(f"# {x.set_id}")
        for sid in y.selected:
            print(x.sentences[sid].text)
        records.append(
            {
                "set_id": x.set_id,
                "sentence_ids": list(y.selected),
                "total_cost_bytes": y.total_cost,
                "sentences": [x.sentences[sid].text for sid in y.selected],
            }
        )
    if wanted is not None:
        missing = set(wanted) - {r["set_id"] for r in records}
        if missing:
            raise ValueError(f"dataset has no sets named {sorted(missing)}")
    if args.out:
        _write_json(args.out, {"summaries": records})
    return 0


def _load_predictions(path: str, data) -> dict[str, Summary]:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    records = payload.get("summaries") if isinstance(payload, dict) else None
    if not isinstance(records, list):
        raise ValueError(f"{path}: predictions need a 'summaries' list")
    by_id = {x.set_id: x for x, _ in data}
    out: dict[str, Summary] = {}
    for n, rec in enumerate(records):
        rec = rec if isinstance(rec, dict) else {}
        set_id, ids = rec.get("set_id"), rec.get("sentence_ids")
        if not (isinstance(set_id, str) and isinstance(ids, list)
                and all(type(i) is int for i in ids)):
            raise ValueError(
                f"{path}: summaries[{n}] needs a string set_id and a list of integer sentence_ids"
            )
        if set_id not in by_id:
            raise ValueError(f"predictions name unknown set id {set_id!r}")
        if set_id in out:
            raise ValueError(f"predictions name set id {set_id!r} twice")
        x = by_id[set_id]
        bad = [i for i in ids if not (0 <= i < x.num_sentences)]
        if bad:
            raise ValueError(f"set {set_id!r}: sentence ids {bad} out of range")
        out[set_id] = Summary(tuple(ids), sum(x.sentences[i].cost for i in ids))
    return out


def cmd_evaluate(args) -> int:
    data = _load(args)
    loss_cfg = _loss_cfg(args)
    preds = _load_predictions(args.predictions, data)
    report = evaluate_predictions(data, preds, loss_cfg)
    print("set_id\tprecision\trecall\tf")
    for row in report.rows:
        print(f"{row['set_id']}\t{row['precision']:.5f}\t{row['recall']:.5f}\t{row['f']:.5f}")
    print(f"mean\t{report.mean_p:.5f}\t{report.mean_r:.5f}\t{report.mean_f:.5f}")
    print(f"stderr_f\t\t\t{report.stderr_f:.5f}")
    payload = {
        "per_set": report.rows,
        "mean": {"precision": report.mean_p, "recall": report.mean_r, "f": report.mean_f},
        "stderr_f": report.stderr_f,
    }
    if args.compare:
        other = _load_predictions(args.compare, data)
        other_report = evaluate_predictions(data, other, loss_cfg)
        ours = {r["set_id"]: r["f"] for r in report.rows}
        theirs = {r["set_id"]: r["f"] for r in other_report.rows}
        shared = sorted(set(ours) & set(theirs))
        if not shared:
            raise ValueError("no shared set ids between the two prediction files")
        p = sign_test([ours[s] for s in shared], [theirs[s] for s in shared])
        print(f"sign_test_p\t\t\t{p:.5f}")
        payload["sign_test_p"] = p
        payload["compared_to"] = args.compare
    if args.out:
        _write_json(args.out, payload)
    return 0


def cmd_bounds(args) -> int:
    data = _load(args)
    greedy_cfg, loss_cfg = _greedy_cfg(args), _loss_cfg(args)
    model = Model.load(args.model_file)
    train_ids = _parse_ids(args.train_ids, len(data), "--train-ids")
    test_ids = _parse_ids(args.test_ids, len(data), "--test-ids")
    rows = bounds_table(data, model, train_ids, test_ids, loss_cfg, greedy_cfg)
    print("bound\tmean_f")
    for name, value in rows:
        print(f"{name}\t{'n/a' if value is None else f'{value:.5f}'}")
    if args.out:
        _write_json(args.out, [{"bound": n, "mean_f": v} for n, v in rows])
    return 0


def cmd_curve(args) -> int:
    data = _load(args)
    feature_cfg, loss_cfg, greedy_cfg, lam = _training_cfgs(args)
    train_ids, test_ids = _auto_split(args, len(data))
    sizes = [int(v) for v in _parse_list(args.sizes, "--sizes")]
    if min(sizes) < 1:
        raise ValueError(f"--sizes: training sizes must be positive, got {sizes}")
    _, trainer_cfg = _trainer(args)
    rows = learning_curve(
        data, sizes, train_ids, test_ids, args.model,
        feature_cfg, loss_cfg, greedy_cfg, trainer_cfg, lam=lam,
        warn=lambda msg: print(f"warning: {msg}", file=sys.stderr),
    )
    print("size\tmean_f\tstderr_f")
    for row in rows:
        print(f"{row['size']}\t{row['mean_f']:.5f}\t{row['stderr_f']:.5f}")
    if args.out:
        _write_json(args.out, rows)
    return 0


def cmd_ablate(args) -> int:
    data = _load(args)
    feature_cfg, loss_cfg, greedy_cfg, lam = _training_cfgs(args)
    train_ids, test_ids = _auto_split(args, len(data))
    _, trainer_cfg = _trainer(args)
    rows = _parse_list(args.rows, "--rows")
    table = ablation_table(
        data, train_ids, test_ids, args.model,
        feature_cfg, loss_cfg, greedy_cfg, trainer_cfg, lam=lam, rows=rows,
    )
    print("removed\tmean_f")
    for row in table:
        print(f"{row['removed']}\t{row['mean_f']:.5f}")
    if args.out:
        _write_json(args.out, table)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="structsum",
        description="Budgeted submodular extractive summarization with large-margin training.",
    )
    parser.add_argument("--log-level", choices=("debug", "info", "warning", "error"),
                        default="warning", help="least severe message logged to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def group(*parents):  # a parent parser: one group of flags, declared once
        return argparse.ArgumentParser(add_help=False, parents=list(parents))

    data = group()
    data.add_argument("--dataset", required=True, help="JSON-lines dataset path")
    data.add_argument("--stopwords", default=None, help="stopword list path (default: packaged)")
    data.add_argument("--out", default=None, help="output file path")
    greedy = group()
    greedy.add_argument("--budget", type=int, default=665, help="summary budget in bytes "
                        "when a record carries none (default: 665)")
    greedy.add_argument("--r", type=float, default=0.3, help="greedy cost exponent (default: 0.3)")
    lam = group()
    lam.add_argument("--lambda", dest="lam", type=float, default=4.0,
                     help="pairwise redundancy trade-off (default: 4.0)")
    loss = group()
    loss.add_argument("--aggregation", choices=AGGREGATIONS, default="mean-f",
                      help="multi-reference aggregation mode")
    loss.add_argument("--rouge-drop-stopwords", action="store_true",
                      help="drop stopwords from unigram counts before scoring")
    training = group(greedy, lam, loss)
    training.add_argument("--model", choices=("pairwise", "pairwise-split", "coverage"),
                          default="pairwise", help="model kind (default: pairwise)")
    training.add_argument("--groups", default=None, help="comma list of enabled feature "
                          f"groups (default: all of {','.join(GROUPS)})")
    training.add_argument("--C", default="10.0",
                          help="regularization; a comma list is a validation grid")
    training.add_argument("--epsilon", type=float, default=1e-3, help="constraint tolerance")
    training.add_argument("--max-iters", type=int, default=100)
    split = group()
    split.add_argument("--train-ids", default=None)
    split.add_argument("--test-ids", default=None)
    split.add_argument("--test-count", type=int, default=5)
    split.add_argument("--seed", type=int, default=0, help="seed for the sampled split")

    p = sub.add_parser("train", parents=[data, training], help="train a model with cutting planes")
    p.add_argument("--single-reference", action="store_true",
                   help="build training targets and losses from the first reference only")
    p.add_argument("--train-ids", default=None, help="comma list of set indexes (default: all)")
    p.add_argument("--val-ids", default=None, help="validation set indexes for a C grid")
    p.add_argument("--log", default=None, help="training log path (default: OUT.log.jsonl)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("summarize", parents=[data, greedy, lam],
                       help="produce summaries for every set")
    p.add_argument("--model-file", default=None, help="trained model JSON")
    p.add_argument("--baseline", action="store_true", help="hand-tuned tf-idf cosine scorer")
    p.add_argument("--sets", default=None, help="comma list of set ids to summarize")
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("evaluate", parents=[data, loss],
                       help="score prediction files against references")
    p.add_argument("--predictions", required=True, help="JSON written by summarize --out")
    p.add_argument("--compare", default=None, help="second prediction file for a sign test")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bounds", parents=[data, greedy, loss],
                       help="human/extractive/fit/prediction table")
    p.add_argument("--model-file", required=True)
    p.add_argument("--train-ids", required=True)
    p.add_argument("--test-ids", required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("curve", parents=[data, training, split],
                       help="learning curve over training sizes")
    p.add_argument("--sizes", default="1,2,5,10,20,40")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("ablate", parents=[data, training, split],
                       help="retrain with one feature group removed per row")
    p.add_argument("--rows", default=None, help="comma list of rows among: "
                   + ", ".join(label for label, _ in ABLATION_ROWS))
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # bare messages on stderr: at the default level, what Python prints anyway
    logging.basicConfig(format="%(message)s")
    logging.getLogger("structsum").setLevel(args.log_level.upper())
    try:
        return args.func(args)
    except (DatasetError, ModelError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
