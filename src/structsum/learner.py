"""Large-margin training of summary scoring weights.

The trainer solves an n-slack margin-rescaling program with cutting planes:
for each training set it asks a loss-augmented greedy for the currently
most violated summary, adds a constraint

    w . (psi(target) - psi(y_hat)) >= loss(y_hat) - xi_i

when it is violated by more than epsilon, re-solves the dual of the
restricted quadratic program, and stops after a full pass adds nothing.
The loss is the target-normalized 1 - F of ``rouge``; the oracle's gain
state holds it once the greedy has committed y_hat.
The oracle is that greedy, not an exact argmax over the budget, so a log
entry's ``max_violation`` and a result's ``converged`` certify the margin
only against the summaries the greedy finds: a summary it misses may still
violate its constraint by more than epsilon.
Each training set is a ``PreparedSet``, built once per study call: the
oracle, the train-F tracking and the scores read its bank, ``RougeGain`` and
greedy config, and the trained model records the configs of its sets.

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
The working set keeps its last KKT matrix and that matrix's factorization,
and reuses them when the next matrix has the same bytes: the first
iteration after an ``add`` sees the previous solve's final matrix, since
the new alpha starts at zero and the free and held sets stay as they were.

The cap C / n enters a solve at three points only: the cap ratios of the
blocking test, the held caps (which exist only after a cap ratio blocked a
step), and the final scale-back that divides each alpha by max(sum / cap, 1).
A larger C only raises the cap ratios, and the shrink ratios come first in
the test, so its argmin picks the same step unless a cap ratio was picked;
the scale-back divides by exactly 1.0 unless a sum exceeded its cap. So until
a solve in which a cap ratio chose a step or the scale-back divided by more
than 1 (``WorkingSet.capped``), a run at any larger C does the same
arithmetic; outside the solves C enters only each log entry's primal and
gap. A C grid therefore trains each C from where the previous, smaller C's
run first felt its cap, or takes that run whole if its cap never acted
(``SharedPrefix``), and every model and log stays bit-identical to a run
from w = 0. A change to the solve must keep C out of everything but these
three points, or flag every solve in which C may matter.
"""

from __future__ import annotations

import copy
import json
import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .corpus import DocumentSet, ReferenceSet
from .features import (
    MODEL_KINDS,
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
    GainState,
    PairwiseGainState,
    SplitGainState,
    Summary,
)
from .util import atomic_write_text, json_value, quoted

logger = logging.getLogger(__name__)


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
            raise ModelError(f"unknown model kind {quoted(self.model_kind)}")
        if self.model_kind == "pairwise":
            if self.lam is None:
                raise ModelError("pairwise models need a fixed lambda")
            if not 0.0 <= self.lam < math.inf:
                raise ModelError(f"lambda must be finite and >= 0, not {self.lam}")
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
        if type(d) is not dict:
            raise ModelError("a model file must be a JSON object")
        try:
            cfg = FeatureConfig.from_dict(json_value(d, "feature_config", dict))
            loss_cfg = LossConfig.from_dict(json_value(d, "loss_config", dict))
            greedy_cfg = GreedyConfig.from_dict(json_value(d, "greedy_config", dict))
            kind = json_value(d, "model_kind", str)
            dim = json_value(d, "dimension", int)
            lam = None if d.get("lambda") is None else json_value(d, "lambda", float)
            weights = json_value(d, "weights", dict)
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelError(f"model file missing or bad field: {exc}") from exc
        expected = registry_for(cfg, kind).dimension
        if dim != expected:
            raise ModelError(
                f"model dimension {dim} does not match feature registry ({expected})"
            )
        w = np.zeros(dim)
        for key in weights:
            # only the keys to_json writes: " 7", "07" and "0_7" alias 7
            idx = int(key) if key.isascii() and key.isdigit() else None
            if idx is None or str(idx) != key:
                raise ModelError(f"model file has malformed weights: key {quoted(key)} "
                                 "is not a weight index")
            try:
                value = json_value(weights, key, float, f"weights[{quoted(key)}]")
            except ValueError as exc:
                raise ModelError(f"model file has malformed weights: {exc}") from exc
            if not 0 <= idx < dim:
                raise ModelError(f"weight index {quoted(idx)} out of range")
            w[idx] = value
        return cls(
            model_kind=kind,
            w=w,
            feature_config=cfg,
            loss_config=loss_cfg,
            greedy_config=greedy_cfg,
            lam=lam,
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
        return cls(model_kind, np.zeros(dim), feature_config, loss_config, greedy_config, lam)


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

    ``solve`` sets ``capped`` when C / n acted on it: a cap ratio chose a
    step, the final scale-back divided by more than 1, or it logged a
    warning. A solve that did not set it gives the same bits at any larger
    C from the same state (see the module docstring); that is what lets a
    C grid share a run's prefix, so a change here must keep it true.
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
        self.capped = False
        self._idx: list[np.ndarray] = []
        self._val: list[np.ndarray] = []
        self._alpha = np.zeros(0)
        self._loss = np.zeros(0)
        self._example = np.zeros(0, dtype=np.int64)
        self._at_zero = np.zeros(0, dtype=bool)
        self._tight = np.zeros(n_examples, dtype=bool)
        # the bytes of the last KKT matrix solve factored, and its eigh
        self._kkt, self._eig = None, None

    def copy(self, C: float) -> "WorkingSet":
        """This working set at ``C``, with the arrays a solve writes copied
        and the append-only lists sliced, so that later ``add``s and solves
        on either side leave the other alone (``add`` replaces ``K`` and the
        per-constraint arrays rather than writing into them)."""
        other = copy.copy(self)
        other.C, other.cap = C, C / self.n_examples
        other._idx, other._val = list(self._idx), list(self._val)
        other.w, other._alpha, other._at_zero, other._tight = (
            a.copy() for a in (self.w, self._alpha, self._at_zero, self._tight))
        return other

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

    def primal_parts(self) -> tuple[float, float]:
        """(0.5 w.w, the sum of the slacks): the C-free parts of the primal."""
        return 0.5 * (self.w @ self.w), sum(self.xi(i) for i in range(self.n_examples))

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
        iteration, capped = 0, False
        for iteration in range(1, cfg.qp_max_passes + 1):
            free = np.flatnonzero(~at_zero)
            tight &= np.bincount(ex[free], minlength=n) > 0
            held, nf = np.flatnonzero(tight), len(free)
            A = np.zeros((nf + len(held),) * 2)
            A[:nf, :nf] = self.K[free[:, None], free]
            A[:nf, nf:] = ex[free][:, None] == held[None, :]
            A[nf:, :nf] = A[:nf, nf:].T
            b = np.concatenate([loss[free] - self.K[free] @ alpha, np.zeros(len(held))])
            # least squares; eigenvalues below eps * size * max(1, |A|) count
            # as zero, so that a tiny K reads as zero curvature
            key = A.tobytes()
            if key != self._kkt:
                self._kkt, self._eig = key, np.linalg.eigh(A)
            lam, V = self._eig
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
                    capped = True
                continue
            if not np.isfinite(t):
                # unreachable while caps are finite: every ray meets a bound
                logger.warning("QP solve stopped on an unblocked descent ray")
                capped = True
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
            capped = True
        # rounding in the KKT solves can leave a held cap a few ulps over
        scale = np.maximum(np.bincount(ex, weights=alpha, minlength=n) / self.cap, 1.0)
        alpha /= scale[ex]
        # a warning counts as the cap acting, so that every C logs its own
        self.capped = capped or bool(scale.max() > 1.0)
        self.last_iterations = iteration
        self._refresh_w()
        return self.dual_objective()


def _primal(cap: float, half_ww: float, slack: float) -> float:
    """0.5 w.w + (C / n) sum xi, from ``WorkingSet.primal_parts``."""
    return float(half_ww + cap * slack)


def _ratios(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den (num >= 0, den > 0), inf without a warning where it overflows."""
    return np.divide(num, den, out=np.full(len(num), np.inf),
                     where=den > num / np.finfo(float).max)


@dataclass
class PreparedSet:
    """One set prepared once per study call for all its trainings and scores:
    ``x``, the references ``Y`` it is scored against, its bank, its one
    ``RougeGain`` and the greedy config it was prepared with, which its model
    records. ``with_target`` computes the ROUGE target (same greedy under
    ``x``'s budget, same ``RougeGain``) and its raw loss once; ``replace``
    copies keep both. Evaluation sets never need it."""

    x: DocumentSet
    Y: ReferenceSet
    bank: FeatureBank
    rouge: RougeGain
    greedy_config: GreedyConfig
    target: Summary | None = None
    raw_target_loss: float | None = None

    @classmethod
    def build(cls, x, Y, feature_config, loss_config, greedy_config) -> "PreparedSet":
        return cls(x, Y, bank_for(x, feature_config), RougeGain(x, Y, loss_config), greedy_config)

    @property
    def configs(self) -> tuple[FeatureConfig, LossConfig, GreedyConfig]:
        return self.bank.cfg, self.rouge.cfg, self.greedy_config

    def with_target(self) -> "PreparedSet":
        if self.target is None:
            self.target = greedy_target(self.x, self.rouge.reset(), self.greedy_config)
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


class _AugmentedGain(GainState):
    """Model score increment plus normalized-loss increment. ``d_now``, set
    at construction and at each commit, is the committed summary's
    normalized loss max(0, (1 - F) - raw target loss); 1 - F is never
    negative (``RougeGain.raw_loss``), so it is the oracle's constraint loss."""

    def __init__(self, score_state, rouge_state: RougeGain, raw_target_loss: float):
        self.score_state = score_state
        self.rouge_state = rouge_state
        self.raw_target = raw_target_loss
        self.d_now = max(0.0, (1.0 - self.rouge_state.current_f()) - self.raw_target)

    def gains(self, ids) -> np.ndarray:
        d_new = np.maximum(0.0, (1.0 - self.rouge_state.merged_f(ids)) - self.raw_target)
        return self.score_state.gains(ids) + (d_new - self.d_now)

    def commit(self, k: int) -> None:
        self.score_state.commit(k)
        self.rouge_state.commit(k)
        self.d_now = max(0.0, (1.0 - self.rouge_state.current_f()) - self.raw_target)


def _oracle_from_state(state: PreparedSet, index: int, psi_target, model: Model) -> Constraint:
    """Loss-augmented inference on a set that has its target: greedily
    maximize w . psi + normalized loss, and return the cutting plane."""
    gain = _AugmentedGain(
        _score_state(state.bank, model, clamp=False),
        state.rouge.reset(),
        state.raw_target_loss,
    )
    y_hat = greedy_maximize(state.x, gain, cfg=state.greedy_config)
    return Constraint(
        example_index=index,
        y_hat=y_hat,
        loss=gain.d_now,  # the greedy committed y_hat, so this is its loss
        delta_psi=psi_target - psi(state.bank, y_hat, model),
    )


def _predict(bank: FeatureBank, model: Model) -> Summary:
    gain = _score_state(bank, model, clamp=True)
    return greedy_maximize(bank.x, gain, cfg=model.greedy_config)


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


@dataclass
class _Run:
    """A training run between two steps of its loop: its working set; its
    position (outer iteration ``it``, set ``i`` and ``pending``, the
    oracle's constraint at set ``i`` when it was violated but not yet added)
    with that iteration's counters; its logs (the entries, their C-free
    primal parts, the dual after every solve); its best train-F weights; and
    the targets' psi, computed once by the run from w = 0."""

    ws: WorkingSet
    best_w: np.ndarray
    psi_targets: list[np.ndarray]
    entries: list[dict] = field(default_factory=list)
    parts: list[tuple[float, float]] = field(default_factory=list)
    duals: list[float] = field(default_factory=list)
    it: int = 0
    i: int = 0
    pending: Constraint | None = None
    added: int = 0
    max_violation: float = 0.0
    qp_iters: int = 0
    best_score: float = -1.0
    converged: bool = False

    def snapshot(self, C: float) -> "_Run":
        """A copy at ``C`` that neither run's later steps touch."""
        return replace(self, ws=self.ws.copy(C), entries=self.entries[:],
                       parts=self.parts[:], duals=self.duals[:])


class SharedPrefix:
    """What a run of a C grid hands the next, larger C: its state just
    before its first solve whose cap acted (``WorkingSet.capped``), or its
    end state if none did. Until then a run at a larger C does the same
    arithmetic (see the module docstring), so ``train`` given the holder
    continues from there instead of from w = 0, and refills it. The gain is
    the share of solves before the cap first acts: large when the caps act
    late or never, small for a grid of C << 1, whose caps act from the first
    solves. It holds copies of a working set, so its owner, the grid's
    driver, drops it with the grid; a ``TrainResult`` never keeps it."""

    def __init__(self):
        self._run: _Run | None = None
        self._sets: list[PreparedSet] = []
        self._of: tuple = ()
        self._trainer: TrainerConfig | None = None
        self._solves = 0

    def _start(self, sets, of: tuple, trainer_config: TrainerConfig) -> _Run | None:
        """The state to continue from, checked to come from the same
        training at a C no larger; None for the grid's first C."""
        if self._run is None:
            return None
        prev = self._trainer
        if (len(sets) != len(self._sets) or any(a is not b for a, b in zip(sets, self._sets))
                or of != self._of or replace(trainer_config, C=prev.C) != prev
                or trainer_config.C < prev.C):
            raise ValueError("a shared prefix continues only the same training at a larger C")
        return self._run

    def _keep(self, run: _Run, sets, of: tuple, trainer_config: TrainerConfig,
              solves: int) -> None:
        self._run, self._sets, self._of = run, list(sets), of
        self._trainer, self._solves = trainer_config, solves


def train(
    sets: list[PreparedSet],
    model_kind: str,
    trainer_config: TrainerConfig,
    lam: float | None = None,
    log_callback=None,
    shared: SharedPrefix | None = None,
) -> TrainResult:
    """Cutting-plane training loop over sets prepared under the same feature,
    loss and greedy configs, which the model records; each set's target is
    computed on first use and kept. Returns the model, per-iteration
    statistics and the dual after every QP solve. If the iteration cap is
    hit, it logs a warning and returns the best training score's weights.

    Given ``shared``, filled by the same training at a smaller C, the run
    continues from the state it holds: the entries up to there are logged
    again, with this C's primal and gap, and the result is bit-identical to
    a run from w = 0. The holder is then refilled for the next C."""
    if not sets:
        raise ValueError("no training data")
    if len({s.configs for s in sets}) > 1:
        raise ValueError("training sets were prepared under different configs")
    model = Model.zeros(model_kind, *sets[0].configs, lam=lam)
    C = trainer_config.C
    of = (model_kind, lam)  # the sets, checked by identity, fix the configs
    start = shared._start(sets, of, trainer_config) if shared is not None else None
    if start is None:
        psi_targets = [psi(s.bank, s.with_target().target, model) for s in sets]
        run = _Run(WorkingSet(len(sets), C, model.w.shape[0]), model.w.copy(), psi_targets)
        if shared is not None:
            logger.debug("C=%g starts from w = 0", C)
    else:
        run = start.snapshot(C)
        prev_c, n_shared, n_prev = shared._trainer.C, len(start.duals), shared._solves
        if n_shared == n_prev:
            logger.debug("C=%g takes the C=%g run whole (%d of %d solves shared)",
                         C, prev_c, n_shared, n_prev)
        else:
            logger.debug("C=%g starts from the C=%g run at iteration %d, set %d "
                         "(%d of %d solves shared)", C, prev_c, start.it, start.i,
                         n_shared, n_prev)
    ws = run.ws

    def emit(entry: dict) -> None:
        run.entries.append(entry)
        logger.info("train %s", json.dumps(entry, sort_keys=True))
        if log_callback is not None:
            log_callback(entry)

    # the shared entries again, at this C (none on a run from w = 0)
    shared_entries, run.entries = run.entries, []
    for entry, (half_ww, slack) in zip(shared_entries, run.parts):
        primal = _primal(ws.cap, half_ww, slack)
        emit(dict(entry, primal=primal, gap=primal - entry["dual_objective"]))
    capped_from = None  # the state before this run's first solve whose cap acted
    while not run.converged and run.it < trainer_config.max_outer_iters:
        while run.i < len(sets):
            if run.pending is None:
                model.w = ws.w
                con = _oracle_from_state(sets[run.i], run.i, run.psi_targets[run.i], model)
                v = ws.violation(con)
                run.max_violation = max(run.max_violation, v)
                if v > trainer_config.epsilon:
                    run.pending = con
            if run.pending is not None:
                before = run.snapshot(C) if shared is not None and capped_from is None else None
                ws.add(run.pending)
                run.pending = None
                run.added += 1
                run.duals.append(ws.solve(trainer_config))
                run.qp_iters += ws.last_iterations
                if before is not None and ws.capped:
                    capped_from = before
            run.i += 1
        model.w = ws.w
        dual = run.duals[-1] if run.duals else 0.0
        half_ww, slack = ws.primal_parts()
        run.parts.append((half_ww, slack))
        primal = _primal(ws.cap, half_ww, slack)
        entry = {
            "iteration": run.it,
            "constraints_total": ws.total_constraints,
            "constraints_added": run.added,
            "dual_objective": dual,
            "primal": primal,
            "gap": primal - dual,
            "qp_iters": run.qp_iters,
            "max_violation": run.max_violation,
        }
        if trainer_config.track_train_rouge:
            entry["train_rouge1f"] = _mean_train_rouge(sets, model)
            if entry["train_rouge1f"] > run.best_score:
                run.best_score = entry["train_rouge1f"]
                run.best_w = ws.w.copy()
        emit(entry)
        if run.added == 0:
            run.converged = True
        else:
            run.it, run.i, run.added, run.max_violation, run.qp_iters = run.it + 1, 0, 0, 0.0, 0
    model.w = ws.w
    if not run.converged:
        logger.warning(
            "training stopped at max_outer_iters=%d with violations above epsilon; "
            "returning best weights seen",
            trainer_config.max_outer_iters,
        )
        if trainer_config.track_train_rouge:
            model.w = run.best_w
    if shared is not None:
        end = run.snapshot(C) if capped_from is None else capped_from
        shared._keep(end, sets, of, trainer_config, len(run.duals))
    return TrainResult(model=model, iterations=run.entries, dual_history=run.duals,
                       converged=run.converged)


def _mean_train_rouge(sets: list[PreparedSet], model: Model) -> float:
    return sum(s.score(model) for s in sets) / len(sets)
