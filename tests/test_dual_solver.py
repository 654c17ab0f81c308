"""The active-set dual solver: a duality-gap certificate after every solve,
never a worse dual than the retained coordinate-ascent solver, a Gram cache
equal to the dense D D^T (and bit for bit to the dots over each dpsi's
nonzeros, as are the slacks), and no solve that runs into its iteration cap.

Random problems cover singular Gram matrices (more constraints than
dimensions, repeated and zero dpsi vectors), caps tight enough that mass has
to move between two constraints of one example, and warm starts after every
``add``; recorded problems come from training on fixture sets.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from structsum import learner
from structsum.experiments import prepare_sets
from structsum.features import FeatureConfig
from structsum.greedy import GreedyConfig
from structsum.learner import Constraint, TrainerConfig, WorkingSet, train
from structsum.rouge import LossConfig
from structsum.scoring import Summary

from oracles import CoordinateAscentWorkingSet

entry_values = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=False),
)


@st.composite
def problems(draw):
    """(examples, dimension, cap, [(example, loss, dpsi tuple)])."""
    n_ex = draw(st.integers(1, 3))
    d = draw(st.integers(1, 5))
    cap = draw(st.sampled_from([0.01, 0.1, 1.0, 5.0]))
    rows = []
    for _ in range(draw(st.integers(1, 9))):
        ex = draw(st.integers(0, n_ex - 1))
        loss = draw(st.floats(0.0, 1.5))
        shape = draw(st.sampled_from(["random", "zero", "repeat"]))
        if shape == "zero":
            vec = (0.0,) * d
        elif shape == "repeat" and rows:
            vec = draw(st.sampled_from(rows))[2]
        else:
            vec = tuple(draw(st.lists(entry_values, min_size=d, max_size=d)))
        rows.append((ex, loss, vec))
    return n_ex, d, cap, rows


def constraint(ex, loss, vec):
    return Constraint(ex, Summary.empty(), loss, np.array(vec, dtype=float))


def assert_gram_is_dense_product(K, cons, d):
    """K equals D D^T, D holding the dpsi vectors in the order they were added."""
    D = np.zeros((len(cons), d))
    for k, con in enumerate(cons):
        D[k] = con.delta_psi
    gram = D @ D.T
    assert np.abs(K - gram).max() <= 1e-12 * max(1.0, np.abs(gram).max())


def assert_certified(ws, dual, cfg):
    primal = ws.primal_objective()
    scale = max(1.0, abs(dual))
    assert primal - dual <= 1e-9 * scale
    assert primal - dual >= -1e-12 * scale
    assert ws.last_iterations < cfg.qp_max_passes
    for alphas in ws.alpha:
        assert all(a >= 0.0 for a in alphas)
        assert sum(alphas) <= ws.cap * (1.0 + 1e-12)


def coordinate_ascent_dual(n_examples, C, dimension, cons, cfg):
    ca = CoordinateAscentWorkingSet(n_examples, C, dimension)
    for con in cons:
        ca.add(con)
    return ca.solve(cfg)


@settings(max_examples=300, deadline=None)
@given(problems())
# found by hypothesis: solver noise once pushed a capped sum past its cap
@example((2, 3, 0.01, [(0, 1.0, (0.0, 1.0, 1.0)), (0, 0.0, (0.0, 0.0, 0.0)),
                       (1, 1.0, (0.0, 1.0, 1.0)), (0, 0.0, (0.0, 0.0, 0.0))]))
# found by hypothesis: a held cap drifted 1.2e-12 over across warm solves
@example((2, 3, 0.01, [(0, 0.0, (0.0, 0.0, 0.125)), (1, 1.0, (0.0, 0.0, 0.125)),
                       (0, 1.0, (3.0, 2.0, 2.0)), (0, 0.0, (0.0, 0.0, 0.0))]))
# found by hypothesis: a subnormal Gram entry overflowed the step
@example((1, 1, 0.01, [(0, 1.0, (1.411946047064502e-157,))]))
# found by hypothesis: a subnormal loss over a cap's growth overflowed the ratio test
@example((2, 1, 0.01, [(1, 2.225073858507e-311, (1.0,)), (0, 0.5, (-1.0,)),
                       (0, 0.0, (0.0,)), (0, 0.0, (0.0,)), (0, 1.0, (0.0,)),
                       (0, 0.0, (0.0,))]))
def test_random_problems_certify_and_match_the_oracle(problem):
    # The multiplier tolerance bounds the gap by about C * qp_tol, and
    # hypothesis draws losses as small as the default 1e-10, so these
    # problems are solved at the tolerance the acceptance checks use
    n_ex, d, cap, rows = problem
    cfg = TrainerConfig(C=cap * n_ex, qp_tol=1e-14)
    ws = WorkingSet(n_ex, cfg.C, d)
    cons, prev = [], -math.inf
    for ex, loss, vec in rows:
        con = constraint(ex, loss, vec)
        cons.append(con)
        ws.add(con)
        dual = ws.solve(cfg)
        assert_certified(ws, dual, cfg)
        assert dual >= prev - 1e-12 * max(1.0, abs(prev))
        prev = dual
    assert_gram_is_dense_product(ws.K, cons, d)
    oracle = coordinate_ascent_dual(n_ex, cfg.C, d, cons, TrainerConfig(C=cfg.C))
    assert prev >= oracle - 1e-12 * max(1.0, abs(oracle))


def test_capped_example_moves_mass_to_the_better_constraint():
    # one example, cap 0.1: the first constraint takes the whole cap, the
    # second has the same dpsi and a larger loss, so the optimum moves all
    # of the mass over to it
    cfg = TrainerConfig(C=0.1)
    ws = WorkingSet(1, cfg.C, 2)
    ws.add(constraint(0, 0.5, (1.0, 0.0)))
    assert_certified(ws, ws.solve(cfg), cfg)
    assert ws.alpha == [[pytest.approx(0.1)]]
    ws.add(constraint(0, 1.0, (1.0, 0.0)))
    assert_certified(ws, ws.solve(cfg), cfg)
    assert ws.alpha[0] == [pytest.approx(0.0, abs=1e-15), pytest.approx(0.1)]


def test_zero_dpsi_takes_the_whole_cap():
    # K = 0: every KKT system is singular and the ray step does all the work
    cfg = TrainerConfig(C=2.0)
    ws = WorkingSet(2, cfg.C, 3)
    ws.add(constraint(0, 0.7, (0.0, 0.0, 0.0)))
    ws.add(constraint(1, 0.0, (0.0, 0.0, 0.0)))
    dual = ws.solve(cfg)
    assert_certified(ws, dual, cfg)
    assert ws.alpha[0] == [pytest.approx(1.0)]
    assert dual == pytest.approx(0.7)


def test_held_cap_without_free_alphas_is_dropped():
    # a cap can only be held through free alphas; a working set that holds
    # one over alphas all at zero (reachable only through rounding) must not
    # pin the example at zero
    cfg = TrainerConfig(C=1.0)
    ws = WorkingSet(1, cfg.C, 1)
    ws.add(constraint(0, 0.5, (1.0,)))
    ws._tight[0] = True
    assert_certified(ws, ws.solve(cfg), cfg)
    assert ws.alpha == [[pytest.approx(0.5)]]


def test_unblocked_ray_stops_with_a_warning(caplog):
    # finite caps block every descent ray; without a cap a zero dpsi with a
    # positive loss is an unbounded direction, and the solve must say so
    ws = WorkingSet(1, math.inf, 1)
    ws.add(constraint(0, 0.5, (0.0,)))
    with caplog.at_level("WARNING", logger="structsum.learner"):
        ws.solve(TrainerConfig())
    assert "unblocked descent ray" in caplog.text


@pytest.fixture(scope="module")
def recorded_solves(fixture_data):
    """Every solve of training three model kinds at two C values on fixture
    sets, each certified as it happens: (working set, constraints in the
    order added, config, dual, iterations, Gram matrix)."""
    records, added = [], {}
    add, solve = WorkingSet.add, WorkingSet.solve

    def recording_add(self, con):
        added.setdefault(id(self), []).append(con)
        add(self, con)

    def recording_solve(self, cfg):
        dual = solve(self, cfg)
        assert_certified(self, dual, cfg)
        cons = list(added[id(self)])
        records.append((self, cons, cfg, dual, self.last_iterations, self.K.copy()))
        return dual

    gcfg = GreedyConfig(budget_bytes=66, r=0.3)
    prepared = prepare_sets(fixture_data, range(8), FeatureConfig(), LossConfig(), gcfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learner.WorkingSet, "add", recording_add)
        mp.setattr(learner.WorkingSet, "solve", recording_solve)
        for kind, lam in (("pairwise", 4.0), ("pairwise-split", None), ("coverage", None)):
            for C in (0.1, 100.0):
                train(prepared, kind, FeatureConfig(), LossConfig(), gcfg,
                      TrainerConfig(C=C, track_train_rouge=False), lam=lam)
    return records


def test_recorded_solves_certify_match_the_oracle_and_never_cycle(recorded_solves):
    assert len(recorded_solves) > 30
    for ws, cons, cfg, dual, iterations, K in recorded_solves:
        assert iterations < cfg.qp_max_passes
        assert_gram_is_dense_product(K, cons, ws.dimension)
        # the same working set solved from a cold start reaches the same dual
        cold = WorkingSet(ws.n_examples, ws.C, ws.dimension)
        for con in cons:
            cold.add(con)
        cold_dual = cold.solve(cfg)
        assert_certified(cold, cold_dual, cfg)
        assert cold_dual == pytest.approx(dual, rel=1e-12, abs=1e-12)
        oracle = coordinate_ascent_dual(ws.n_examples, ws.C, ws.dimension, cons, cfg)
        assert dual >= oracle - 1e-12 * max(1.0, abs(oracle))


def nonzero_products(cons, w, n_examples):
    """The Gram matrix and the slacks at w as dots over each dpsi's nonzeros:
    entry (a, b) gathers the later of the two dpsi at the earlier one's
    nonzeros, as ``WorkingSet.add`` builds each new row."""
    nz = [np.flatnonzero(c.delta_psi) for c in cons]

    def entry(a, b):
        early, late = min(a, b), max(a, b)
        return cons[late].delta_psi[nz[early]] @ cons[early].delta_psi[nz[early]]

    K = np.array([[entry(a, b) for b in range(len(cons))] for a in range(len(cons))])
    xi = [max(0.0, max((c.loss - float(w[i] @ c.delta_psi[i])
                        for c, i in zip(cons, nz) if c.example_index == e), default=0.0))
          for e in range(n_examples)]
    return K, np.array(xi)


def test_recorded_gram_and_slacks_are_nonzero_products_bit_for_bit(recorded_solves):
    # a dense product (D @ dpsi for the new row, D @ w for the slacks)
    # rounds differently and changes the training logs
    final = {id(ws): (ws, cons) for ws, cons, *_ in recorded_solves}
    for ws, cons in final.values():
        K, xi = nonzero_products(cons, ws.w, ws.n_examples)
        assert np.array_equal(ws.K, K)
        assert np.array_equal([ws.xi(e) for e in range(ws.n_examples)], xi)
