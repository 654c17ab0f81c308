"""Large-margin training of summary scoring weights.

The trainer solves an n-slack margin-rescaling program with cutting planes:
for each training set it asks a loss-augmented greedy for the currently
most violated summary, adds a constraint

    w . (psi(target) - psi(y_hat)) >= loss(y_hat) - xi_i

when it is violated by more than epsilon, re-solves the dual of the
restricted quadratic program, and stops after a full pass adds nothing.
Each training set is a ``PreparedSet``, built once per study call: the
oracle, the train-F tracking and the scores read its bank and ``RougeGain``.

The restricted dual, min 0.5 a'Ka - loss'a over a >= 0 with each example's
sum capped at C / n (K the Gram matrix of the dpsi vectors, w = sum a dpsi),
is solved exactly by an active-set method warm-started from the last
optimum; every product with a dpsi runs over its nonzeros, in the one
class ``WorkingSet``, so their rounding is decided there. Each iteration
solves the KKT system [K_FF E; E' 0] of the free alphas, held caps as
equalities, by least squares. If K_FF is singular (more constraints than
dimensions, a zero dpsi) and the residual (the free alphas' gradient the
solution leaves) exceeds qp_tol, it is a zero-curvature descent ray,
followed to the first blocking constraint; otherwise the step stops at 1 or
at a blocking constraint, which joins the working set. After a full step the
most negative multiplier (nu_i of a held cap, g_c + nu_i of an alpha at
zero) leaves it if below -qp_tol, else the solve ends. So qp_tol bounds the
KKT residuals in gradient units; qp_max_passes caps one solve's iterations.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .corpus import DocumentSet, ReferenceSet
from .features import (
    FeatureBank,
    FeatureConfig,
    bank_for,
    joint_feature_map_coverage,
    joint_feature_map_pairwise,
    registry_for,
)
from .greedy import GreedyConfig, greedy_maximize
from .rouge import LossConfig, RougeGain, greedy_target
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
        if not isinstance(kind, str):
            raise ModelError(f"model_kind must be a string, not {kind!r}")
        lam = d.get("lambda")
        if lam is not None and (type(lam) not in (int, float) or not math.isfinite(lam)):
            raise ModelError(f"lambda must be a finite number or null, not {lam!r}")
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
    """One cutting plane: the oracle's summary for one training example,
    its loss and its dense dpsi = psi(target) - psi(y_hat)."""

    example_index: int
    y_hat: Summary
    loss: float
    delta_psi: np.ndarray


@dataclass(frozen=True)
class TrainerConfig:
    C: float = 10.0  # each example's dual mass is capped at C / n
    epsilon: float = 1e-3  # violation a constraint must exceed to be added
    max_outer_iters: int = 100
    qp_tol: float = 1e-10  # KKT tolerance on multipliers and free-alpha residuals
    qp_max_passes: int = 2000  # active-set iterations per QP solve
    track_train_rouge: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.C) and self.C > 0):
            raise ValueError(f"C must be positive and finite, not {self.C}")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon must be finite and >= 0, not {self.epsilon}")
        if self.max_outer_iters < 1:
            raise ValueError(f"max_outer_iters must be >= 1, not {self.max_outer_iters}")


class WorkingSet:
    """The constraints added so far and their dual variables.

    Everything is flat, in the order of ``add``: each dpsi's nonzero indices
    and values, the duals, losses and example indices, ``K`` and the working
    set (alphas held at zero, examples held at their cap); ``alpha`` is the
    per-example view of the duals. Every product with a dpsi (the new row of
    ``K``, ``xi``, ``violation``, w) is a dot over that dpsi's nonzeros.
    Invariants: alphas non-negative, per-example sums never above C / n,
    and w equal to sum(alpha * dpsi) (re-accumulated after each solve).
    """

    def __init__(self, n_examples: int, C: float, dimension: int):
        if n_examples <= 0:
            raise ValueError("need at least one example")
        self.n_examples = n_examples
        self.C = C
        self.cap = C / n_examples
        self.dimension = dimension
        self.w = np.zeros(dimension)
        self.K = np.zeros((0, 0))
        self.last_iterations = 0
        self._idx: list[np.ndarray] = []
        self._val: list[np.ndarray] = []
        self._alpha = np.zeros(0)
        self._loss = np.zeros(0)
        self._example = np.zeros(0, dtype=np.int64)
        self._at_zero = np.zeros(0, dtype=bool)
        self._tight = np.zeros(n_examples, dtype=bool)

    @property
    def total_constraints(self) -> int:
        return len(self._idx)

    @property
    def alpha(self) -> list[list[float]]:
        return [self._alpha[self._example == i].tolist() for i in range(self.n_examples)]

    def add(self, con: Constraint) -> None:
        idx = np.flatnonzero(con.delta_psi)
        self._idx.append(idx)
        self._val.append(con.delta_psi[idx])
        self.K = np.pad(self.K, (0, 1))
        self.K[-1] = self.K[:, -1] = [con.delta_psi[i] @ v for i, v in zip(self._idx, self._val)]
        self._alpha = np.append(self._alpha, 0.0)
        self._loss = np.append(self._loss, con.loss)
        self._example = np.append(self._example, con.example_index)
        self._at_zero = np.append(self._at_zero, True)

    def xi(self, i: int) -> float:
        worst = max((self._loss[k] - self.w[self._idx[k]] @ self._val[k]
                     for k in np.flatnonzero(self._example == i)), default=0.0)
        return max(0.0, float(worst))

    def violation(self, con: Constraint) -> float:
        """loss - w . dpsi - xi_i; positive means ``con`` is violated."""
        idx = np.flatnonzero(con.delta_psi)
        return con.loss - float(self.w[idx] @ con.delta_psi[idx]) - self.xi(con.example_index)

    def dual_objective(self) -> float:
        return float(self._alpha @ self._loss - 0.5 * (self.w @ self.w))

    def primal_objective(self) -> float:
        slack = sum(self.xi(i) for i in range(self.n_examples))
        return float(0.5 * (self.w @ self.w) + self.cap * slack)

    def _refresh_w(self) -> None:
        self.w = np.zeros(self.dimension)
        for idx, val, a in zip(self._idx, self._val, self._alpha):
            if a != 0.0:
                self.w[idx] += a * val

    def solve(self, cfg: TrainerConfig) -> float:
        """Active-set solve (see the module docstring), warm-started from the
        stored duals and working set. Returns the dual objective."""
        if self.total_constraints == 0:
            raise ValueError("working set is empty")
        alpha, at_zero, tight, n = self._alpha, self._at_zero, self._tight, self.n_examples
        loss, ex = self._loss, self._example
        iteration = 0
        for iteration in range(1, cfg.qp_max_passes + 1):
            free = np.flatnonzero(~at_zero)
            tight &= np.bincount(ex[free], minlength=n) > 0
            held, nf = np.flatnonzero(tight), len(free)
            A = np.zeros((nf + len(held),) * 2)
            A[:nf, :nf] = self.K[np.ix_(free, free)]
            A[:nf, nf:] = ex[free][:, None] == held[None, :]
            A[nf:, :nf] = A[:nf, nf:].T
            b = np.concatenate([loss[free] - self.K[free] @ alpha, np.zeros(len(held))])
            # least squares; eigenvalues below eps * size * max(1, |A|) count
            # as zero, so that a tiny K reads as zero curvature
            lam, V = np.linalg.eigh(A)
            zero_tol = np.finfo(float).eps * len(b) * max(1.0, np.abs(lam).max(initial=0.0))
            keep = np.abs(lam) > zero_tol
            sol = V[:, keep] @ ((V[:, keep].T @ b) / lam[keep])
            ray = (V[:, ~keep] @ (V[:, ~keep].T @ b))[:nf]
            if np.abs(ray).max(initial=0.0) > cfg.qp_tol:
                step, t = ray, np.inf  # singular, inconsistent: a descent ray
            else:
                step, t = sol[:nf], 1.0
            # blocking constraints: a free alpha reaching zero, a free cap filling up
            shrink = np.flatnonzero(step < 0.0)
            growth = np.bincount(ex[free], weights=step, minlength=n)
            grow = np.flatnonzero((growth > 0.0) & ~tight)
            room = np.maximum(self.cap - np.bincount(ex, weights=alpha, minlength=n)[grow], 0.0)
            blocks = np.concatenate([_ratios(alpha[free[shrink]], -step[shrink]),
                                     _ratios(room, growth[grow])])
            k = int(np.argmin(blocks)) if len(blocks) else -1
            if k >= 0 and blocks[k] < t:
                alpha[free] = np.maximum(alpha[free] + blocks[k] * step, 0.0)
                if k < len(shrink):
                    alpha[free[shrink[k]]] = 0.0
                    at_zero[free[shrink[k]]] = True
                else:
                    tight[grow[k - len(shrink)]] = True
                continue
            if not np.isfinite(t):
                # unreachable while caps are finite: every ray meets a bound
                logger.warning("QP solve stopped on an unblocked descent ray")
                break
            alpha[free] = np.maximum(alpha[free] + step, 0.0)
            # full step: release the most negative multiplier, if any
            nu = np.zeros(n)
            nu[held] = sol[nf:]
            zero = np.flatnonzero(at_zero)
            mu = self.K[zero] @ alpha - loss[zero] + nu[ex[zero]]
            multipliers = np.concatenate([nu[held], mu])
            if multipliers.min(initial=0.0) >= -cfg.qp_tol:
                break
            k = int(np.argmin(multipliers))
            if k < len(held):
                tight[held[k]] = False
            else:
                at_zero[zero[k - len(held)]] = False
        else:
            logger.warning("QP solve stopped at qp_max_passes=%d", cfg.qp_max_passes)
        # rounding in the KKT solves can leave a held cap a few ulps over
        alpha /= np.maximum(np.bincount(ex, weights=alpha, minlength=n) / self.cap, 1.0)[ex]
        self.last_iterations = iteration
        self._refresh_w()
        return self.dual_objective()


def _ratios(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den (num >= 0, den > 0), inf without a warning where it overflows."""
    return np.divide(num, den, out=np.full(len(num), np.inf),
                     where=den > num / np.finfo(float).max)


@dataclass
class PreparedSet:
    """One set prepared once per study call for all its trainings and scores:
    ``x``, the references ``Y`` it is scored against, its bank, its one
    ``RougeGain`` and its greedy config with the set's budget. ``with_target``
    computes the ROUGE target (same greedy, same ``RougeGain``) and its raw
    loss once; ``replace`` copies keep both. Evaluation sets never need it."""

    x: DocumentSet
    Y: ReferenceSet
    bank: FeatureBank
    rouge: RougeGain
    greedy_cfg: GreedyConfig
    target: Summary | None = None
    raw_target_loss: float | None = None

    @classmethod
    def build(cls, x, Y, feature_config, loss_config, greedy_config) -> "PreparedSet":
        return cls(x, Y, bank_for(x, feature_config), RougeGain(x, Y, loss_config),
                   greedy_config.for_set(x))

    def with_target(self) -> "PreparedSet":
        if self.target is None:
            self.target = greedy_target(self.x, self.rouge.reset(), self.greedy_cfg)
        if self.raw_target_loss is None:
            self.raw_target_loss = self.rouge.load(self.target.selected).raw_loss()
        return self

    def score(self, model: Model) -> float:
        """F of the model's (clamped) prediction against ``Y``."""
        return self.rouge.load(_predict(self.bank, model).selected).current_f()


def psi(bank: FeatureBank, y, model: Model) -> np.ndarray:
    """Joint feature map of a summary of the bank's set, in model index space."""
    if model.model_kind == "coverage":
        return joint_feature_map_coverage(bank, y)
    if model.model_kind == "pairwise-split":
        return joint_feature_map_pairwise(bank, y, 0.0, split=True)
    return joint_feature_map_pairwise(bank, y, model.lam)


def _score_state(bank: FeatureBank, model: Model, clamp: bool):
    if model.model_kind == "coverage":
        values = bank.omega(model.w)
        if clamp:
            values = np.maximum(values, 0.0)
        return CoverageGainState(bank.padded_word_ids, values)
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


def _oracle_from_state(state: PreparedSet, index: int, psi_target, model: Model) -> Constraint:
    """Loss-augmented inference on a set that has its target: greedily
    maximize w . psi + normalized loss, and return the cutting plane."""
    gain = _AugmentedGain(
        _score_state(state.bank, model, clamp=False),
        state.rouge.reset(),
        state.raw_target_loss,
    )
    y_hat = greedy_maximize(state.x, gain, cost=None, cfg=state.greedy_cfg)
    # the greedy committed y_hat, so the gain state holds its counts
    loss = max(0.0, state.rouge.raw_loss() - state.raw_target_loss)
    return Constraint(
        example_index=index,
        y_hat=y_hat,
        loss=loss,
        delta_psi=psi_target - psi(state.bank, y_hat, model),
    )


def _predict(bank: FeatureBank, model: Model) -> Summary:
    gain = _score_state(bank, model, clamp=True)
    return greedy_maximize(bank.x, gain, cost=None, cfg=model.greedy_config.for_set(bank.x))


def predict(x: DocumentSet, model: Model) -> Summary:
    """Greedy inference under the learned weights (clamped by default)."""
    return _predict(bank_for(x, model.feature_config), model)


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
    sets: list[PreparedSet],
    model_kind: str,
    feature_config: FeatureConfig = FeatureConfig(),
    loss_config: LossConfig = LossConfig(),
    greedy_config: GreedyConfig = GreedyConfig(budget_bytes=665),
    trainer_config: TrainerConfig = TrainerConfig(),
    lam: float | None = None,
    log_callback=None,
) -> TrainResult:
    """Cutting-plane training loop over sets prepared under the same feature
    and loss configs; each set's target is computed on first use and kept.
    Returns the model with per-iteration statistics and the dual objective
    after every QP solve. If the iteration cap is hit, the weights with the
    best training score seen are returned and a warning is logged."""
    if not sets:
        raise ValueError("no training data")
    if any(s.bank.cfg != feature_config or s.rouge.cfg != loss_config for s in sets):
        raise ValueError("training sets were prepared under other feature or loss configs")
    model = Model.zeros(model_kind, feature_config, loss_config, greedy_config, lam=lam)
    psi_targets = [psi(s.bank, s.with_target().target, model) for s in sets]
    ws = WorkingSet(len(sets), trainer_config.C, model.w.shape[0])
    iterations: list[dict] = []
    dual_history: list[float] = []
    best_score = -1.0
    best_w = model.w.copy()
    converged = False
    for it in range(trainer_config.max_outer_iters):
        added = 0
        max_violation = 0.0
        qp_iters = 0
        for i, state in enumerate(sets):
            model.w = ws.w
            con = _oracle_from_state(state, i, psi_targets[i], model)
            v = ws.violation(con)
            max_violation = max(max_violation, v)
            if v > trainer_config.epsilon:
                ws.add(con)
                added += 1
                dual_history.append(ws.solve(trainer_config))
                qp_iters += ws.last_iterations
        model.w = ws.w
        dual = dual_history[-1] if dual_history else 0.0
        primal = ws.primal_objective()
        entry = {
            "iteration": it,
            "constraints_total": ws.total_constraints,
            "constraints_added": added,
            "dual_objective": dual,
            "primal": primal,
            "gap": primal - dual,
            "qp_iters": qp_iters,
            "max_violation": max_violation,
        }
        if trainer_config.track_train_rouge:
            entry["train_rouge1f"] = _mean_train_rouge(sets, model)
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
    model.w = ws.w
    if not converged:
        logger.warning(
            "training stopped at max_outer_iters=%d with violations above epsilon; "
            "returning best weights seen",
            trainer_config.max_outer_iters,
        )
        if trainer_config.track_train_rouge:
            model.w = best_w
    return TrainResult(model=model, iterations=iterations, dual_history=dual_history, converged=converged)


def _mean_train_rouge(sets: list[PreparedSet], model: Model) -> float:
    return sum(s.score(model) for s in sets) / len(sets)
