"""Output checks for every benchmark operation, and the output digest.

Each check returns a list of violation messages; an operation with any
violation counts as failed.
"""

from __future__ import annotations

import hashlib
import math


def summary_violations(label: str, sentence_costs, selected, total_cost, budget: int) -> list[str]:
    """Ids valid and unique, total cost right, and within the byte budget."""
    out = []
    n = len(sentence_costs)
    ids = list(selected)
    bad = [i for i in ids if not isinstance(i, int) or not 0 <= i < n]
    if bad:
        out.append(f"{label}: sentence ids out of range: {bad}")
    if len(set(ids)) != len(ids):
        out.append(f"{label}: duplicate sentence ids in {ids}")
    if not bad:
        cost = sum(sentence_costs[i] for i in ids)
        if cost != total_cost:
            out.append(f"{label}: total cost {total_cost} but sentences cost {cost}")
        if cost > budget:
            out.append(f"{label}: cost {cost} exceeds budget {budget}")
    return out


def f_violations(label: str, f) -> list[str]:
    if not isinstance(f, (int, float)) or not math.isfinite(f) or not 0.0 <= f <= 1.0:
        return [f"{label}: F {f!r} outside [0, 1]"]
    return []


def weight_violations(label: str, w) -> list[str]:
    bad = [i for i, v in enumerate(w) if not math.isfinite(float(v))]
    if bad:
        return [f"{label}: {len(bad)} non-finite weights, first at index {bad[0]}"]
    return []


def dual_violations(label: str, history, rel_tol: float = 1e-9) -> list[str]:
    """Each dual objective is at least the one before (coordinate ascent
    only ever improves the dual of a growing constraint set)."""
    out = []
    for k in range(1, len(history)):
        prev, cur = history[k - 1], history[k]
        if cur < prev - rel_tol * max(1.0, abs(prev)):
            out.append(f"{label}: dual fell from {prev!r} to {cur!r} at solve {k}")
    return out


class Digest:
    """SHA-256 over labelled output texts, in the order they are added."""

    def __init__(self):
        self._h = hashlib.sha256()
        self.items = 0

    def add(self, label: str, data: str | bytes) -> None:
        if isinstance(data, str):
            data = data.encode("utf-8")
        self._h.update(label.encode("utf-8") + b"\0" + hashlib.sha256(data).digest())
        self.items += 1

    def hexdigest(self) -> str:
        return self._h.hexdigest()
