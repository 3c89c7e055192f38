"""Cached lookups and vectorised checks behave as the slow paths they replace.

- point_kernel, weyl_kernel, phase_point_stack and weyl_stack validate d
  through _dim on every lookup, so 3.0, 3+0j and True (which hash like 3)
  still raise; hermitian_basis and the vacuum's tables check their
  arguments the same way whatever is cached;
- phase_permutation is built for each spec, not once per dimension;
- check_density names the first bad trace, as a loop over the traces did.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from manalab import BeamsplitterSpec, qutrit_specs, random_density
from manalab.circuits import _weyl_image, phase_permutation
from manalab.errors import NegativeEigenvalue
from manalab.measures import _vacuum_table, hermitian_basis
from manalab.phasespace import _char_values, _wigner_values, phase_point_stack, point_kernel, weyl_kernel, weyl_stack
from manalab.states import EIG_FLOOR, HERM_TOL, check_density

LOOKUPS = [point_kernel, weyl_kernel, phase_point_stack, weyl_stack]


# --- per-dimension lookups ----------------------------------------------------


@pytest.mark.parametrize("lookup", LOOKUPS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("bad", [3.0, 3 + 0j, True, "3", 9, -3, None], ids=repr)
def test_cached_lookup_still_rejects_what_prime_dim_rejects(lookup, bad):
    lookup(3)  # the table for 3 is cached
    with pytest.raises(ValueError, match="odd prime"):
        lookup(bad)


@pytest.mark.parametrize("lookup", LOOKUPS, ids=lambda f: f.__name__)
def test_numpy_integer_gets_the_cached_table(lookup):
    table = lookup(3)
    assert lookup(np.int64(3)) is table
    assert lookup(3) is table
    assert not table.flags.writeable


def test_a_lookup_raises_whatever_is_cached():
    hermitian_basis(3)
    _vacuum_table(3, "wigner")  # the d = 3 tables are cached
    with pytest.raises(TypeError):
        hermitian_basis(3.0)
    with pytest.raises(ValueError, match="odd prime"):
        _vacuum_table(3.0, "wigner")
    with pytest.raises(ValueError, match="'wigner' or 'char'"):
        _vacuum_table(3, "Wigner")


@pytest.mark.parametrize("kind, transform", [("wigner", _wigner_values), ("char", _char_values)])
def test_the_vacuum_table_is_its_fresh_transform_built_once(kind, transform):
    table = _vacuum_table(3, kind)
    assert _vacuum_table(np.int64(3), kind) is table
    assert not table.flags.writeable
    vacuum = np.zeros((3, 3), dtype=complex)
    vacuum[0, 0] = 1.0
    fresh = transform(vacuum, (3,))
    assert (table.dtype, table.shape, table.tobytes()) == (fresh.dtype, fresh.shape, fresh.tobytes())


# --- the beamsplitter's phase-space permutation -------------------------------


def _fresh_permutation(spec):
    d = spec.dim
    k1, l1, k2, l2 = _weyl_image(spec, *np.indices((d, d, d, d)))
    return (((k1 * d + l1) * d + k2) * d + l2).ravel()


def test_equal_specs_get_equal_maps():
    perm = phase_permutation(BeamsplitterSpec(3, ((1, 2), (0, 1))))
    # an equal spec, with G given by other residues
    assert np.array_equal(phase_permutation(BeamsplitterSpec(3, ((4, -1), (3, 1)))), perm)


def test_each_g_at_one_dimension_gets_its_own_map():
    specs = list(qutrit_specs().values())
    maps = [phase_permutation(spec) for spec in specs]
    for spec, perm in zip(specs, maps):
        assert np.array_equal(perm, _fresh_permutation(spec)), spec
    assert len({perm.tobytes() for perm in maps}) == len(specs)


def test_a_sweep_over_every_g_gets_each_map():
    d = 7
    for a, b, c, dl in itertools.product(range(d), repeat=4):
        if (a * dl - b * c) % d:
            spec = BeamsplitterSpec(d, ((a, b), (c, dl)))
            assert np.array_equal(phase_permutation(spec), _fresh_permutation(spec))


# --- the trace check ----------------------------------------------------------


def _loop_check_density(mats):
    """check_density with its traces tested one Python complex at a time."""
    with np.errstate(invalid="ignore"):
        herm = float(np.abs(mats - mats.conj().swapaxes(-1, -2)).max())
    if not herm <= HERM_TOL:
        raise ValueError(f"matrix is not Hermitian (deviation {herm:.3e})")
    for tr in np.ravel(mats.trace(axis1=-2, axis2=-1)).tolist():
        if not abs(tr - 1.0) <= HERM_TOL:
            raise ValueError(f"trace is {tr}, not 1")
    lo = float(np.linalg.eigvalsh(mats).min())
    if lo < EIG_FLOOR:
        raise NegativeEigenvalue(f"eigenvalue {lo:.3e} below {EIG_FLOOR}")


def _outcome(check, mats):
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            check(mats)
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return type(exc), str(exc)
    return None


SCALES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(1.0 - 1e-9, 1.0 + 1e-9),  # near the tolerance
    st.sampled_from([1.0, 1.0 + 2e-10, 1.0 - 2e-10, 1e308]),
)


@settings(max_examples=150, deadline=None)
@given(
    d=st.sampled_from([3, 5]),
    n=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    bad=st.dictionaries(st.integers(0, 7), SCALES, max_size=4),
    overflow=st.sets(st.integers(0, 7), max_size=2),
)
@example(d=3, n=5, seed=0, bad={1: 1.5, 3: 2.0}, overflow=set())
@example(d=3, n=4, seed=1, bad={0: float("nan"), 2: float("inf")}, overflow=set())
@example(d=3, n=4, seed=2, bad={}, overflow={1, 3})
def test_trace_check_raises_what_the_loop_raised(d, n, seed, bad, overflow):
    rng = np.random.default_rng(seed)
    mats = np.stack([random_density(d, rng).matrix for _ in range(n)])
    for i, scale in bad.items():
        if i < n:
            with np.errstate(over="ignore", invalid="ignore"):
                mats[i] = mats[i] * scale
    for i in overflow:
        if i < n:
            # a Hermitian matrix whose finite diagonal sums to an infinite trace
            mats[i] = np.diag([1e308] * d).astype(complex)
    assert _outcome(check_density, mats) == _outcome(_loop_check_density, mats)


def test_first_bad_trace_is_named():
    rng = np.random.default_rng(3)
    mats = np.stack([random_density(3, rng).matrix for _ in range(5)])
    mats[1] *= 2.0
    mats[3] *= 3.0
    with pytest.raises(ValueError) as info:
        check_density(mats)
    trace = complex(np.trace(mats[1]))
    assert str(info.value) == f"trace is {trace}, not 1"
