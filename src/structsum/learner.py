"""Large-margin training of summary scoring weights.

The trainer solves an n-slack margin-rescaling program with cutting planes:
for each training set it asks a loss-augmented greedy for the currently
most violated summary, adds a constraint

    w . (psi(target) - psi(y_hat)) >= loss(y_hat) - xi_i

when it is violated by more than epsilon, re-solves the dual of the
restricted quadratic program, and stops after a full pass adds nothing.

The restricted dual is solved by clipped coordinate ascent on the alphas.
One alpha per constraint, per-example sum capped at C / n, and
w = sum alpha * dpsi maintained incrementally. When an example's cap is
active, mass may need to move between two of its constraints at once, so
paired (transfer) moves run alongside the single-coordinate steps.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import DocumentSet, ReferenceSet
from .features import (
    FeatureBank,
    FeatureConfig,
    FeatureVector,
    fv_subtract,
    joint_feature_map_coverage,
    joint_feature_map_pairwise,
    registry_for,
)
from .greedy import GreedyConfig, greedy_maximize
from .rouge import LossConfig, RougeGain, loss_delta_r, rouge1_f, reference_counts, summary_counts
from .scoring import (
    CoverageGainState,
    PairwiseGainState,
    SplitGainState,
    Summary,
)
from .util import atomic_write_text

logger = logging.getLogger(__name__)

MODEL_KINDS = ("pairwise", "pairwise-split", "coverage")


class ModelError(ValueError):
    """A model file or model/feature-registry combination is unusable."""


@dataclass
class Model:
    """Learned weights plus everything needed to reproduce inference."""

    model_kind: str
    w: np.ndarray
    feature_config: FeatureConfig
    loss_config: LossConfig
    greedy_config: GreedyConfig
    lam: float | None = None

    def __post_init__(self):
        if self.model_kind not in MODEL_KINDS:
            raise ModelError(f"unknown model kind {self.model_kind!r}")
        if self.model_kind == "pairwise":
            if self.lam is None:
                raise ModelError("pairwise models need a fixed lambda")
        elif self.lam is not None:
            raise ModelError(f"{self.model_kind} models carry no lambda")
        dim = registry_for(self.feature_config, self.model_kind).dimension
        if self.w.shape != (dim,):
            raise ModelError(
                f"weight vector has shape {self.w.shape}, registry expects ({dim},)"
            )

    @property
    def registry(self):
        return registry_for(self.feature_config, self.model_kind)

    def to_json(self) -> str:
        payload = {
            "model_kind": self.model_kind,
            "lambda": self.lam,
            "dimension": int(self.w.shape[0]),
            "feature_config": self.feature_config.to_dict(),
            "loss_config": self.loss_config.to_dict(),
            "greedy_config": self.greedy_config.to_dict(),
            "weights": {str(i): float(v) for i, v in enumerate(self.w) if v != 0.0},
        }
        return json.dumps(payload, sort_keys=True, indent=1)

    def save(self, path) -> None:
        atomic_write_text(path, self.to_json() + "\n")

    @classmethod
    def from_json(cls, text: str) -> "Model":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ModelError(f"malformed model file: {exc.msg}") from exc
        try:
            cfg = FeatureConfig.from_dict(d["feature_config"])
            loss_cfg = LossConfig.from_dict(d["loss_config"])
            greedy_cfg = GreedyConfig.from_dict(d["greedy_config"])
            kind = d["model_kind"]
            dim = int(d["dimension"])
            weights = d["weights"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelError(f"model file missing or bad field: {exc}") from exc
        expected = registry_for(cfg, kind).dimension
        if dim != expected:
            raise ModelError(
                f"model dimension {dim} does not match feature registry ({expected})"
            )
        try:
            entries = [(int(i), float(v)) for i, v in weights.items()]
        except (AttributeError, TypeError, ValueError) as exc:
            raise ModelError(f"model file has malformed weights: {exc}") from exc
        w = np.zeros(dim)
        for idx, v in entries:
            if not (0 <= idx < dim):
                raise ModelError(f"weight index {idx} out of range")
            if not math.isfinite(v):
                raise ModelError(f"weight {idx} is not finite ({v})")
            w[idx] = v
        lam = d.get("lambda")
        return cls(
            model_kind=kind,
            w=w,
            feature_config=cfg,
            loss_config=loss_cfg,
            greedy_config=greedy_cfg,
            lam=float(lam) if lam is not None else None,
        )

    @classmethod
    def load(cls, path) -> "Model":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    @classmethod
    def zeros(
        cls,
        model_kind: str,
        feature_config: FeatureConfig,
        loss_config: LossConfig,
        greedy_config: GreedyConfig,
        lam: float | None = None,
    ) -> "Model":
        dim = registry_for(feature_config, model_kind).dimension
        if model_kind == "pairwise" and lam is None:
            lam = 4.0
        return cls(model_kind, np.zeros(dim), feature_config, loss_config, greedy_config, lam)

    @classmethod
    def uniform(cls, model_kind, feature_config, loss_config, greedy_config, lam=None) -> "Model":
        m = cls.zeros(model_kind, feature_config, loss_config, greedy_config, lam)
        m.w = np.ones_like(m.w)
        return m


@dataclass
class Constraint:
    """One cutting plane: the oracle's summary for one training example."""

    example_index: int
    y_hat: Summary
    psi_hat: FeatureVector
    loss: float
    delta_psi: FeatureVector
    idx: np.ndarray = field(init=False)
    val: np.ndarray = field(init=False)
    norm_sq: float = field(init=False)

    def __post_init__(self):
        items = sorted(self.delta_psi.entries.items())
        self.idx = np.array([i for i, _ in items], dtype=np.int64)
        self.val = np.array([v for _, v in items])
        self.norm_sq = float(self.val @ self.val)

    def w_dot_delta(self, w: np.ndarray) -> float:
        if len(self.idx) == 0:
            return 0.0
        return float(w[self.idx] @ self.val)


@dataclass(frozen=True)
class TrainerConfig:
    C: float = 10.0
    epsilon: float = 1e-3
    max_outer_iters: int = 100
    qp_tol: float = 1e-10
    qp_max_passes: int = 2000
    batch_qp: bool = False
    track_train_rouge: bool = True

    def __post_init__(self):
        if self.C <= 0:
            raise ValueError("C must be positive")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")


class WorkingSet:
    """Per-example constraint lists with their dual variables.

    Invariants kept by every update: alphas non-negative, per-example sums
    never exceed C / n, and w equals sum(alpha * dpsi) (re-accumulated after
    each solve to kill float drift).
    """

    def __init__(self, n_examples: int, C: float, dimension: int):
        if n_examples <= 0:
            raise ValueError("need at least one example")
        self.n_examples = n_examples
        self.C = C
        self.cap = C / n_examples
        self.dimension = dimension
        self.constraints: list[list[Constraint]] = [[] for _ in range(n_examples)]
        self.alpha: list[list[float]] = [[] for _ in range(n_examples)]
        self.w = np.zeros(dimension)
        self._cross: dict[tuple[int, int, int], float] = {}

    @property
    def total_constraints(self) -> int:
        return sum(len(c) for c in self.constraints)

    def add(self, con: Constraint) -> None:
        self.constraints[con.example_index].append(con)
        self.alpha[con.example_index].append(0.0)

    def xi(self, i: int) -> float:
        cons = self.constraints[i]
        if not cons:
            return 0.0
        worst = max(c.loss - c.w_dot_delta(self.w) for c in cons)
        return max(0.0, worst)

    def dual_objective(self) -> float:
        lin = sum(
            a * c.loss
            for cons, alphas in zip(self.constraints, self.alpha)
            for c, a in zip(cons, alphas)
        )
        return float(lin - 0.5 * (self.w @ self.w))

    def primal_objective(self) -> float:
        slack = sum(self.xi(i) for i in range(self.n_examples))
        return float(0.5 * (self.w @ self.w) + self.cap * slack)

    def _coord_step(self, i: int, c: int) -> float:
        con = self.constraints[i][c]
        alphas = self.alpha[i]
        g = con.loss - con.w_dot_delta(self.w)
        upper = self.cap - (sum(alphas) - alphas[c])
        if upper < 0.0:
            upper = 0.0
        if con.norm_sq > 0.0:
            target = alphas[c] + g / con.norm_sq
        elif g > 0.0:
            target = upper
        elif g < 0.0:
            target = 0.0
        else:
            return 0.0
        new = min(max(target, 0.0), upper)
        delta = new - alphas[c]
        if delta == 0.0:
            return 0.0
        improve = g * delta - 0.5 * con.norm_sq * delta * delta
        if improve <= 0.0:
            return 0.0
        alphas[c] = new
        if len(con.idx):
            self.w[con.idx] += delta * con.val
        return improve

    def _cross_dot(self, i: int, c1: int, c2: int) -> float:
        key = (i, c1, c2)
        v = self._cross.get(key)
        if v is None:
            a = self.constraints[i][c1].delta_psi.entries
            b = self.constraints[i][c2].delta_psi.entries
            if len(b) < len(a):
                a, b = b, a
            v = sum(val * b.get(idx, 0.0) for idx, val in a.items())
            self._cross[key] = v
        return v

    def _pair_step(self, i: int, c1: int, c2: int) -> float:
        # transfer mass between two constraints of one example, keeping the
        # per-example sum fixed (needed when the cap is active)
        con1 = self.constraints[i][c1]
        con2 = self.constraints[i][c2]
        alphas = self.alpha[i]
        g = (con1.loss - con2.loss) - (con1.w_dot_delta(self.w) - con2.w_dot_delta(self.w))
        denom = con1.norm_sq + con2.norm_sq - 2.0 * self._cross_dot(i, c1, c2)
        lo, hi = -alphas[c1], alphas[c2]
        if denom > 0.0:
            t = g / denom
        elif g > 0.0:
            t = hi
        elif g < 0.0:
            t = lo
        else:
            return 0.0
        t = min(max(t, lo), hi)
        if t == 0.0:
            return 0.0
        improve = g * t - 0.5 * max(denom, 0.0) * t * t
        if improve <= 0.0:
            return 0.0
        alphas[c1] += t
        alphas[c2] -= t
        if len(con1.idx):
            self.w[con1.idx] += t * con1.val
        if len(con2.idx):
            self.w[con2.idx] -= t * con2.val
        return improve

    def _refresh_w(self) -> None:
        self.w = np.zeros(self.dimension)
        for cons, alphas in zip(self.constraints, self.alpha):
            for con, a in zip(cons, alphas):
                if a != 0.0 and len(con.idx):
                    self.w[con.idx] += a * con.val

    def solve(self, cfg: TrainerConfig) -> float:
        """Coordinate ascent until the best single move improves the dual
        by less than qp_tol. Returns the dual objective."""
        if self.total_constraints == 0:
            raise ValueError("working set is empty")
        for _ in range(cfg.qp_max_passes):
            best = 0.0
            for i in range(self.n_examples):
                cons = self.constraints[i]
                if not cons:
                    continue
                for c in range(len(cons)):
                    best = max(best, self._coord_step(i, c))
                if len(cons) > 1 and sum(self.alpha[i]) >= self.cap * (1.0 - 1e-9):
                    for c1 in range(len(cons)):
                        for c2 in range(c1 + 1, len(cons)):
                            best = max(best, self._pair_step(i, c1, c2))
            if best < cfg.qp_tol:
                break
        self._refresh_w()
        return self.dual_objective()


def solve_qp(ws: WorkingSet, cfg: TrainerConfig):
    """Re-solve the restricted dual; returns (w, xi per example, dual)."""
    dual = ws.solve(cfg)
    xi = [ws.xi(i) for i in range(ws.n_examples)]
    return ws.w, xi, dual


def violation(constraint: Constraint, model: Model, xi_i: float) -> float:
    """loss - w . dpsi - xi_i; positive means the constraint is violated."""
    return constraint.loss - constraint.w_dot_delta(model.w) - xi_i


class _ExampleState:
    """Per-example state that survives across cutting-plane iterations: the
    set's feature bank, the target's psi and its raw loss."""

    def __init__(self, index: int, x: DocumentSet, Y: ReferenceSet, model: Model):
        if Y.target is None:
            raise ValueError(
                f"reference set {Y.set_id!r} has no target; build targets before training"
            )
        self.index = index
        self.x = x
        self.Y = Y
        self.bank = FeatureBank(x, model.feature_config)
        self.greedy_cfg = _greedy_config(x, model)
        self.psi_target = psi(x, Y.target, model, bank=self.bank)
        self.raw_target_loss = loss_delta_r(Y, Y.target, x, model.loss_config)


def _greedy_config(x: DocumentSet, model: Model, budget_bytes: int | None = None) -> GreedyConfig:
    if budget_bytes is None:
        budget_bytes = x.budget_bytes if x.budget_bytes is not None else model.greedy_config.budget_bytes
    return GreedyConfig(
        budget_bytes=budget_bytes, r=model.greedy_config.r, tie_break=model.greedy_config.tie_break
    )


def psi(x: DocumentSet, y, model: Model, bank: FeatureBank | None = None) -> FeatureVector:
    """Joint feature map in the model's index space."""
    if model.model_kind == "coverage":
        return joint_feature_map_coverage(x, y, model.feature_config, ctx=bank)
    if model.model_kind == "pairwise-split":
        return joint_feature_map_pairwise(x, y, model.feature_config, 0.0, split=True, ctx=bank)
    return joint_feature_map_pairwise(x, y, model.feature_config, model.lam, ctx=bank)


def _score_state(bank: FeatureBank, model: Model, clamp: bool):
    if model.model_kind == "coverage":
        values = bank.omega(model.w)
        if clamp:
            values = np.maximum(values, 0.0)
        return CoverageGainState(bank.sentence_word_ids, values)
    if model.model_kind == "pairwise-split":
        base = registry_for(model.feature_config, "pairwise-split").base_dimension
        mc = bank.sigma(model.w[:base])
        mr = bank.sigma(model.w[base:])
        if clamp:
            mc = np.maximum(mc, 0.0)
            mr = np.minimum(mr, 0.0)
        return SplitGainState(mc, mr)
    m = bank.sigma(model.w)
    if clamp:
        m = np.maximum(m, 0.0)
    return PairwiseGainState(m, model.lam)


class _AugmentedGain:
    """Model score increment plus normalized-loss increment."""

    def __init__(self, score_state, rouge_state: RougeGain, raw_target_loss: float):
        self.score_state = score_state
        self.rouge_state = rouge_state
        self.raw_target = raw_target_loss

    def gains(self, ids) -> np.ndarray:
        d_now = max(0.0, (1.0 - self.rouge_state.current_f()) - self.raw_target)
        d_new = np.maximum(0.0, (1.0 - self.rouge_state.merged_f(ids)) - self.raw_target)
        return self.score_state.gains(ids) + (d_new - d_now)

    def __call__(self, summary, k: int) -> float:
        return float(self.gains([k])[0])

    def commit(self, k: int) -> None:
        self.score_state.commit(k)
        self.rouge_state.commit(k)


def _oracle_from_state(state: _ExampleState, model: Model) -> Constraint:
    gain = _AugmentedGain(
        _score_state(state.bank, model, clamp=False),
        RougeGain(state.x, state.Y, model.loss_config),
        state.raw_target_loss,
    )
    y_hat = greedy_maximize(state.x, gain, cost=None, cfg=state.greedy_cfg)
    psi_hat = psi(state.x, y_hat, model, bank=state.bank)
    raw = loss_delta_r(state.Y, y_hat, state.x, model.loss_config)
    loss = max(0.0, raw - state.raw_target_loss)
    return Constraint(
        example_index=state.index,
        y_hat=y_hat,
        psi_hat=psi_hat,
        loss=loss,
        delta_psi=fv_subtract(state.psi_target, psi_hat),
    )


def separation_oracle(x: DocumentSet, Y: ReferenceSet, model: Model) -> Constraint:
    """Loss-augmented inference: greedily maximize w . psi + loss."""
    return _oracle_from_state(_ExampleState(0, x, Y, model), model)


def _predict(bank: FeatureBank, model: Model, budget_bytes: int | None = None) -> Summary:
    gain = _score_state(bank, model, clamp=True)
    return greedy_maximize(bank.x, gain, cost=None, cfg=_greedy_config(bank.x, model, budget_bytes))


def predict(x: DocumentSet, model: Model, budget_bytes: int | None = None) -> Summary:
    """Greedy inference under the learned weights (clamped by default)."""
    return _predict(FeatureBank(x, model.feature_config), model, budget_bytes)


@dataclass
class TrainResult:
    model: Model
    iterations: list[dict]
    dual_history: list[float]
    converged: bool

    @property
    def final_max_violation(self) -> float:
        return self.iterations[-1]["max_violation"] if self.iterations else 0.0


def train(
    data: list[tuple[DocumentSet, ReferenceSet]],
    model_kind: str,
    feature_config: FeatureConfig = FeatureConfig(),
    loss_config: LossConfig = LossConfig(),
    greedy_config: GreedyConfig = GreedyConfig(budget_bytes=665),
    trainer_config: TrainerConfig = TrainerConfig(),
    lam: float | None = None,
    log_callback=None,
) -> TrainResult:
    """Cutting-plane training loop.

    Every reference set must already carry a target summary. Returns the
    trained model together with per-iteration statistics and the dual
    objective after every QP solve. If the iteration cap is hit, the
    weights with the best training score seen so far are returned and a
    warning is logged.
    """
    if not data:
        raise ValueError("no training data")
    model = Model.zeros(model_kind, feature_config, loss_config, greedy_config, lam=lam)
    states = [
        _ExampleState(i, x, Y, model) for i, (x, Y) in enumerate(data)
    ]
    ws = WorkingSet(len(data), trainer_config.C, model.w.shape[0])
    iterations: list[dict] = []
    dual_history: list[float] = []
    best_score = -1.0
    best_w = model.w.copy()
    converged = False
    for it in range(trainer_config.max_outer_iters):
        added = 0
        max_violation = 0.0
        pending = False
        for state in states:
            model.w = ws.w
            con = _oracle_from_state(state, model)
            v = violation(con, model, ws.xi(state.index))
            max_violation = max(max_violation, v)
            if v > trainer_config.epsilon:
                ws.add(con)
                added += 1
                if trainer_config.batch_qp:
                    pending = True
                else:
                    dual_history.append(ws.solve(trainer_config))
        if pending:
            dual_history.append(ws.solve(trainer_config))
        model.w = ws.w
        entry = {
            "iteration": it,
            "constraints_total": ws.total_constraints,
            "constraints_added": added,
            "dual_objective": dual_history[-1] if dual_history else 0.0,
            "max_violation": max_violation,
        }
        if trainer_config.track_train_rouge:
            entry["train_rouge1f"] = _mean_train_rouge(states, model)
            if entry["train_rouge1f"] > best_score:
                best_score = entry["train_rouge1f"]
                best_w = ws.w.copy()
        iterations.append(entry)
        logger.info("train %s", json.dumps(entry, sort_keys=True))
        if log_callback is not None:
            log_callback(entry)
        if added == 0:
            converged = True
            break
    if not converged:
        logger.warning(
            "training stopped at max_outer_iters=%d with violations above epsilon; "
            "returning best weights seen",
            trainer_config.max_outer_iters,
        )
        if trainer_config.track_train_rouge:
            model.w = best_w
        else:
            model.w = ws.w
    else:
        model.w = ws.w
    return TrainResult(model=model, iterations=iterations, dual_history=dual_history, converged=converged)


def _mean_train_rouge(states: list[_ExampleState], model: Model) -> float:
    total = 0.0
    for state in states:
        y = _predict(state.bank, model)
        total += rouge1_f(
            summary_counts(state.x, y, model.loss_config),
            reference_counts(state.Y, model.loss_config),
            model.loss_config,
        )
    return total / len(states)
