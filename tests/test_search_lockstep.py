"""Lockstep golden-section refinement against the one-candidate-at-a-time reference."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manalab import PhaseVector, max_mana_coherent, search
from manalab.search import GOLDEN, SearchResult, _angular_distance, _CoherentObjective, _golden_max


def scalar_golden_max(f, lo, hi, tol=1e-11):
    """Reference: golden-section maximization of one scalar function on [lo, hi]."""
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d_ = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d_)
    while abs(b - a) > tol:
        if fc > fd:
            b, d_, fd = d_, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d_, fd
            d_ = a + GOLDEN * (b - a)
            fd = f(d_)
    x = 0.5 * (a + b)
    return x, f(x)


def scalar_refine(obj, start, step, max_sweeps):
    """Reference: coordinate-wise golden-section ascent of one start vector."""
    x = np.array(start, dtype=float)
    best = obj.batch(x[None])[0]
    sweeps = 0
    for sweep in range(max_sweeps):
        improved = 0.0
        for i in range(x.size):
            def line(t, i=i):
                y = x.copy()
                y[i] = t
                return obj.batch(y[None])[0]

            xi, vi = scalar_golden_max(line, x[i] - step, x[i] + step)
            if vi > best:
                improved += vi - best
                best = vi
                x[i] = xi
        sweeps = sweep + 1
        if improved < 1e-13:
            break
    return x % (2.0 * math.pi), best, sweeps


finite = st.floats(-10.0, 10.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(finite, finite, finite), min_size=1, max_size=12))
def test_batched_golden_max_is_bitwise_the_scalar_search(rows):
    centres, lo, hi = (np.array(col) for col in zip(*rows))
    counts = np.zeros(len(rows), dtype=int)

    def batched(idx, points):
        np.add.at(counts, idx, 1)
        return np.array([math.cos(p - centres[k]) for k, p in zip(idx, points)])

    xs, fs = _golden_max(batched, lo, hi)
    for k, (c_k, lo_k, hi_k) in enumerate(rows):
        calls = 0

        def scalar(t):
            nonlocal calls
            calls += 1
            return math.cos(t - c_k)

        x_ref, f_ref = scalar_golden_max(scalar, lo_k, hi_k)
        assert xs[k] == x_ref and fs[k] == f_ref
        assert counts[k] == calls


@pytest.mark.parametrize("dim,grid,iters", [(3, 16, 200), (5, 8, 20)])
def test_lockstep_refine_matches_scalar_reference(monkeypatch, dim, grid, iters):
    recorded = []
    lockstep = search._refine

    def spy(obj, starts, step, max_sweeps):
        recorded.append((np.array(starts), step, max_sweeps))
        out = lockstep(obj, starts, step, max_sweeps)
        recorded.append(out)
        return out

    monkeypatch.setattr(search, "_refine", spy)
    result = max_mana_coherent(dim, grid=grid, refine_iters=iters)
    (starts, step, max_sweeps), (xs, vs, sweeps) = recorded
    assert max_sweeps == iters and len(starts) <= 128

    obj = _CoherentObjective(dim)
    for start, x, v, n in zip(starts, xs, vs, sweeps):
        x_ref, v_ref, n_ref = scalar_refine(obj, start, step, max_sweeps)
        assert abs(v - v_ref) < 1e-12
        assert _angular_distance(x, x_ref) < 1e-6
        assert n == n_ref
    # same work as the reference: the grid, then every candidate's refinement
    assert result.evaluations == grid ** (dim - 1) + obj.evaluations
    assert result.refine_sweeps == sweeps.max()


def test_value_does_not_depend_on_the_batch():
    # the lockstep search is step-for-step the one-candidate search only if
    # a row's value is the same bits in any batch, a batch of one included
    obj = _CoherentObjective(5)
    thetas = np.random.default_rng(3).uniform(0.0, 2.0 * math.pi, size=(40, 4))
    rows = obj.batch(thetas)
    assert [obj.batch(t[None])[0] for t in thetas] == rows.tolist()
    assert obj.batch(thetas[7:9]).tolist() == rows[7:9].tolist()
    assert obj.evaluations == 40 + 40 + 2


def test_negative_refine_iters_rejected():
    with pytest.raises(ValueError, match="refine_iters"):
        max_mana_coherent(3, grid=16, refine_iters=-5)


@pytest.mark.parametrize("kwargs", [{"grid": 8.9}, {"grid": float("nan")}, {"grid": True}, {"grid": "8"},
                                    {"refine_iters": 1.5}, {"refine_iters": float("nan")}, {"refine_iters": True},
                                    {"refine_iters": "8"}])
def test_non_integral_grid_or_refine_iters_rejected(kwargs):
    (name,) = kwargs
    with pytest.raises(ValueError, match=name):
        max_mana_coherent(3, **{"grid": 16, **kwargs})


def test_numpy_integer_grid_and_refine_iters_accepted():
    result = max_mana_coherent(3, grid=np.int64(16), refine_iters=np.int32(5))
    assert result == max_mana_coherent(3, grid=16, refine_iters=5)
    assert type(result.grid_resolution) is int


def test_zero_refine_iters_keeps_grid_optimum():
    result = max_mana_coherent(3, grid=16, refine_iters=0)
    axis = 2.0 * math.pi * np.arange(16) / 16
    mesh = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    assert result.refine_sweeps == 0
    assert result.best_value == _CoherentObjective(3).batch(mesh).max()
    assert all(_angular_distance(pv.thetas, np.round(np.array(pv.thetas) / axis[1]) * axis[1]) < 1e-12
               for pv in result.argmax)


def test_search_result_rejects_empty_argmax():
    with pytest.raises(ValueError, match="argmax"):
        SearchResult(0.1, (), evaluations=1, grid_resolution=8, refine_sweeps=0)
    ok = SearchResult(0.1, (PhaseVector(5, (0.0,) * 4),), 1, 8, 0)
    assert ok.argmax[0].dim == 5


def test_search_result_checks_bound_of_its_own_dimension():
    # 0.7 is above (1/2) log 3 but below (1/2) log 5
    with pytest.raises(ValueError, match="purity bound"):
        SearchResult(0.7, (PhaseVector(3, (0.0, 0.0)),), 1, 8, 0)
    assert SearchResult(0.7, (PhaseVector(5, (0.0,) * 4),), 1, 8, 0).best_value == 0.7
