"""Budget-constrained greedy selection with cost-scaled gains.

Each round takes, among the sentences that still fit the byte budget, the
one maximizing gain / cost**r (always the lowest id on ties), and accepts
it when its gain is non-negative. The costs are the set's byte costs, read
from arrays it builds once per r (``DocumentSet.costs``, ``cost_scales``).
For monotone submodular objectives with unit costs and r = 1 this is the
classic (1 - 1/e)-approximate greedy; r < 1 softens the cost scaling.
Zero-gain candidates that fit are accepted.

A gain object that has ``gains(ids)`` returns the marginal gains of all the
given candidate ids as one array, so a round costs one call; any other
callable is called once per candidate as gain(current_summary, id). Both
give the same selection as scanning the whole pool every round and
removing its best, accepted or not:

* A sentence that does not fit now never will, because the remaining
  budget only shrinks. The scan would reject it whenever it came out best
  and take the best fitting sentence next, so it is dropped at once and
  never evaluated.
* When the best fitting ratio is negative, every fitting gain is, since
  costs are positive. The scan would reject them one per round without a
  commit, so the gains never change and the loop stops there.

A non-finite gain raises ValueError; it would otherwise never win.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .corpus import DocumentSet
from .scoring import Summary
from .util import json_value


@dataclass(frozen=True)
class GreedyConfig:
    budget_bytes: int
    r: float = 0.3

    def __post_init__(self):
        if self.budget_bytes < 0:
            raise ValueError("budget_bytes must be >= 0")
        if not (0.0 < self.r <= 1.0):
            raise ValueError("r must be in (0, 1]")

    def for_set(self, x: DocumentSet) -> "GreedyConfig":
        """This config under ``x``'s own budget, which overrides ours when set."""
        return self if x.budget_bytes is None else replace(self, budget_bytes=x.budget_bytes)

    def to_dict(self) -> dict:
        # lowest-id is the one tie rule (see greedy_maximize), written for the record
        return {"budget_bytes": self.budget_bytes, "r": self.r, "tie_break": "lowest-id"}

    @classmethod
    def from_dict(cls, d: dict) -> "GreedyConfig":
        cfg = cls(json_value(d, "budget_bytes", int), json_value(d, "r", float))
        if d.get("tie_break", "lowest-id") != "lowest-id":
            raise ValueError("only lowest-id tie breaking is supported")
        return cfg


def greedy_maximize(
    x: DocumentSet,
    gain: Callable,
    cost=None,
    cfg: GreedyConfig | None = None,
) -> Summary:
    """Run the budgeted greedy loop over ``x``'s byte costs.

    ``gain`` is called as gain(current_summary, candidate_id), or as
    gain.gains(ids) -> array when it has that method, and may carry state;
    when it exposes a ``commit(candidate_id)`` method, the method is
    invoked exactly once per accepted candidate, in acceptance order.
    The costs are always the set's own. ``cost`` accepts only None, and
    anything else raises TypeError; it stays while perfbench's workloads
    still pass ``cost=None``.
    """
    if cost is not None:
        raise TypeError("greedy_maximize reads its costs from the set; cost must be None")
    if cfg is None:
        raise ValueError("greedy_maximize requires a GreedyConfig")
    costs, scale = x.costs, x.cost_scales(cfg.r)
    gains = getattr(gain, "gains", None)
    ids = np.arange(len(costs))
    selected: list[int] = []
    total = 0
    while True:
        ids = ids[total + costs[ids] <= cfg.budget_bytes]
        if not len(ids):
            break
        if gains is not None:
            g = np.asarray(gains(ids), dtype=float)
        else:
            current = Summary(tuple(selected), total)
            g = np.array([gain(current, sid) for sid in ids.tolist()], dtype=float)
        bad = np.flatnonzero(~np.isfinite(g))
        if len(bad):
            raise ValueError(f"sentence {ids[bad[0]]} has non-finite gain {g[bad[0]]}")
        best = int(np.argmax(g / scale[ids]))
        if g[best] < 0.0:
            break
        sid = int(ids[best])
        selected.append(sid)
        total += costs[sid].item()
        if hasattr(gain, "commit"):
            gain.commit(sid)
        ids = np.delete(ids, best)
    return Summary(tuple(selected), total)
