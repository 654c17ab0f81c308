"""Spans around structsum's layer boundaries, recorded from outside the package.

A boundary is named ``module:qualname``. A function boundary is patched in
every loaded ``structsum`` module that holds the same function object, so
callers that imported it by name are traced too. A method boundary is
patched on its class. A boundary that no longer exists is reported as absent
instead of failing, so the benchmark keeps running across refactors that
remove it.

Spans are kept in memory. A layer's busy time counts its outermost spans;
its self time is each span's duration minus the durations of its direct
child spans.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class Layer:
    """One traced layer: its boundaries and the end-to-end metric it moves."""

    name: str
    boundaries: tuple[str, ...]
    moves: str
    calls_metric: str = ""

    def metric(self, suffix: str) -> str:
        sep = "_" if "." in self.name else "."
        return f"{self.name}{sep}{suffix}"

    @property
    def calls_name(self) -> str:
        return self.calls_metric or self.metric("calls")


# Which end-to-end metric each layer should move, on which workload, is
# written down before measuring (see perfbench/run.py for the metrics).
LAYERS = (
    Layer(
        "corpus.load", ("structsum.corpus:load_dataset",),
        "setup_s on every workload",
    ),
    Layer(
        "features.build",
        ("structsum.learner:_PairBank.__init__", "structsum.learner:_WordBank.__init__"),
        "ops_per_s on duc-train-pairwise; ops_per_s and peak_rss_mb on duc-summarize; "
        "a smaller share of ops_per_s on small-cgrid-coverage (word features only)",
        calls_metric="features.builds",
    ),
    Layer(
        "features.psi",
        ("structsum.features:joint_feature_map_pairwise",
         "structsum.features:joint_feature_map_coverage"),
        "ops_per_s on duc-train-pairwise",
    ),
    Layer(
        "scoring.sigma",
        ("structsum.learner:_PairBank.sigma_matrix", "structsum.learner:_WordBank.values",
         "structsum.scoring:gain_state"),
        "ops_per_s on duc-summarize, the baseline's share in particular",
    ),
    Layer(
        "greedy", ("structsum.greedy:greedy_maximize",),
        "ops_per_s on duc-train-pairwise (through the oracle) and on duc-summarize",
    ),
    Layer(
        "rouge.target", ("structsum.rouge:make_target",),
        "ops_per_s on both training workloads",
    ),
    Layer(
        "rouge.eval", ("structsum.rouge:rouge1_f", "structsum.rouge:rouge1_prf"),
        "ops_per_s on both training workloads",
    ),
    Layer(
        "learner.train", ("structsum.learner:train",),
        "ops_per_s on both training workloads (self time is the loop itself)",
    ),
    Layer(
        "learner.oracle", ("structsum.learner:_oracle_from_state",),
        "ops_per_s on duc-train-pairwise",
    ),
    Layer(
        "learner.qp", ("structsum.learner:WorkingSet.solve",),
        "ops_per_s on small-cgrid-coverage; no change on duc-train-pairwise",
        calls_metric="learner.qp_solves",
    ),
    Layer(
        "learner.trainf", ("structsum.learner:_mean_train_rouge",),
        "ops_per_s and train_iter_ms_p50 on duc-train-pairwise",
    ),
    Layer(
        "learner.predict", ("structsum.learner:predict",),
        "ops_per_s on duc-summarize and duc-train-pairwise",
    ),
    Layer(
        "experiments.targets", ("structsum.experiments:build_targets",),
        "ops_per_s on both training workloads",
    ),
)

# Root span the benchmark opens around each timed operation.
OP_LAYER = "bench.op"


@dataclass
class Span:
    layer: str
    start: float
    parent: int
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class LayerStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Nested spans from one thread, plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.build_sets: set = set()
        self._open: list[int] = []

    def begin(self, layer: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(layer, self.clock(), parent))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        if not self._open or self._open[-1] != index:
            raise RuntimeError("spans must close in the order they opened")
        self._open.pop()
        self.spans[index].end = self.clock()

    def span(self, layer: str):
        return _SpanContext(self, layer)

    def stats(self) -> dict[str, LayerStats]:
        """Calls, busy time and self time per layer."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.duration
        out: dict[str, LayerStats] = {}
        for i, s in enumerate(self.spans):
            st = out.setdefault(s.layer, LayerStats())
            st.calls += 1
            st.self_s += s.duration - child_time[i]
            if not self._inside_same_layer(s):
                st.busy_s += s.duration
        return out

    def _inside_same_layer(self, s: Span) -> bool:
        p = s.parent
        while p >= 0:
            if self.spans[p].layer == s.layer:
                return True
            p = self.spans[p].parent
        return False


class _SpanContext:
    def __init__(self, tracer: Tracer, layer: str):
        self.tracer = tracer
        self.layer = layer

    def __enter__(self):
        self.index = self.tracer.begin(self.layer)
        return self

    def __exit__(self, *exc):
        self.tracer.end(self.index)
        return False


class _CountingGain:
    """Counts gain evaluations for one greedy run."""

    def __init__(self, gain, counters: Counter):
        self._gain = gain
        self._counters = counters

    def __call__(self, summary, k):
        self._counters["greedy.gain_evals"] += 1
        return self._gain(summary, k)


class _CountingGainWithCommit(_CountingGain):
    # greedy_maximize looks for ``commit`` with hasattr, so the proxy may
    # only have it when the wrapped gain does
    def commit(self, k):
        self._gain.commit(k)


def counting_gain(gain, counters: Counter):
    cls = _CountingGainWithCommit if hasattr(gain, "commit") else _CountingGain
    return cls(gain, counters)


def _greedy_hooks(tracer: Tracer):
    def before(args, kwargs):
        if "gain" in kwargs:
            kwargs["gain"] = counting_gain(kwargs["gain"], tracer.counters)
        elif len(args) > 1:
            args = (args[0], counting_gain(args[1], tracer.counters)) + tuple(args[2:])
        return args, kwargs

    def after(args, kwargs, result):
        tracer.counters["greedy.accepted"] += len(getattr(result, "selected", ()))

    return before, after


def _build_hooks(tracer: Tracer):
    def after(args, kwargs, result):
        ctx = args[1] if len(args) > 1 else kwargs.get("ctx")
        x = getattr(ctx, "x", None)
        tracer.build_sets.add(getattr(x, "set_id", id(x)))

    return None, after


HOOKS = {"greedy": _greedy_hooks, "features.build": _build_hooks}


def _wrap(fn, tracer: Tracer, layer: str, before, after):
    def traced(*args, **kwargs):
        if before is not None:
            args, kwargs = before(args, kwargs)
        index = tracer.begin(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if after is not None:
            after(args, kwargs, result)
        return result

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", layer)
    return traced


def _resolve(boundary: str):
    """(owner, attribute, original) or None when the boundary is gone."""
    module_name, _, qualname = boundary.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, parts[-1], None)
    if original is None:
        return None
    return owner, parts[-1], original


def _holders(owner, attr: str, original):
    """Every (namespace, attribute) that must be patched for one boundary."""
    if isinstance(owner, type):
        return [(owner, attr)]
    holders = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "structsum" or name.startswith("structsum.")):
            continue
        for key, value in vars(module).items():
            if value is original:
                holders.append((module, key))
    return holders


def patch_function(boundary: str, make_wrapper) -> list | None:
    """Replace a boundary everywhere it is held; returns the undo list, or
    None when the boundary does not exist."""
    found = _resolve(boundary)
    if found is None:
        return None
    owner, attr, original = found
    undo = []
    for holder, key in _holders(owner, attr, original):
        undo.append((holder, key, getattr(holder, key)))
        setattr(holder, key, make_wrapper(original))
    return undo


def restore(undo: list) -> None:
    for holder, key, original in reversed(undo):
        setattr(holder, key, original)


class Installation:
    """The patches one tracer made, and the layers it could not find."""

    def __init__(self, tracer: Tracer, layers=LAYERS):
        self.tracer = tracer
        self.undo: list = []
        self.absent_boundaries: list[str] = []
        self.absent_layers: list[str] = []
        for layer in layers:
            make_hooks = HOOKS.get(layer.name)
            before, after = make_hooks(tracer) if make_hooks else (None, None)
            found_any = False
            for boundary in layer.boundaries:
                # the wrapper is made inside this call, so it sees this layer's hooks
                undo = patch_function(
                    boundary, lambda fn: _wrap(fn, tracer, layer.name, before, after)
                )
                if undo is None:
                    self.absent_boundaries.append(boundary)
                else:
                    found_any = True
                    self.undo.extend(undo)
            if not found_any:
                self.absent_layers.append(layer.name)

    def close(self) -> None:
        restore(self.undo)
        self.undo = []
