"""Beamsplitter-output measures from permuted single-qudit tables, checked against the dense path."""

import functools
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manalab import (
    BeamsplitterSpec,
    DensityState,
    conjugate_weyl,
    csum_spec,
    enumerate_stabilizer_pure,
    mana,
    measures,
    named_state,
    noisy_mix,
    oracles,
    qutrit_specs,
    random_density,
    random_pure,
    swap_spec,
    wigner,
)
from manalab.circuits import beamsplitter_output, phase_permutation, prop3_expectation, prop3_index
from manalab.cli import FIGURES, figure_rows
from manalab.errors import ImaginaryResidue, NegativeEigenvalue, ParamOutOfRange
from manalab.measures import MEASURES, OUTPUT_MEASURES, _output_table, output_measures
from manalab.oracles import TABLE_ROW_MEASURES, csum_output
from manalab.phasespace import _char_values, _from_wigner, _wigner_values, char_function
from manalab.search import PhaseVector, mutual_mana_coherent_equals_mana
from manalab.states import NoisyRows, noisy_matrices

SPECS = [*qutrit_specs().values(), csum_spec(5), swap_spec(7)]
spec_ids = [f"d{s.dim}-{s.g_matrix}" for s in SPECS]


def invertible_specs(d):
    for a, b, c, dl in itertools.product(range(d), repeat=4):
        if (a * dl - b * c) % d:
            yield BeamsplitterSpec(d, ((a, b), (c, dl)))


def output_tables(spec, mats):
    """(Wigner, characteristic) tables of B_G (rho x |0><0|) B_G^dag, shape (n, d^2, d^2).

    _output_table writes them component-major, (d^2, d^2, n); the row-indexed
    asserts here read them through the transposed view.
    """
    d = spec.dim
    vac = named_state("basis", [0], dim=d).density().matrix
    perm = phase_permutation(spec)
    return (
        _output_table(perm, _wigner_values(mats, (d,)), _wigner_values(vac, (d,))).transpose(2, 0, 1),
        _output_table(perm, _char_values(mats, (d,)), _char_values(vac, (d,))).transpose(2, 0, 1),
    )


def dense_values(spec, rho, names):
    out = beamsplitter_output(spec, rho)
    return {name: MEASURES[name][0](out) for name in names}


# --- the permutation ----------------------------------------------------------


@pytest.mark.parametrize("spec", SPECS, ids=spec_ids)
def test_phase_permutation_is_conjugate_weyl(spec):
    d = spec.dim
    perm = phase_permutation(spec)
    assert sorted(perm.tolist()) == list(range(d**4))
    for k1, l1, k2, l2 in itertools.product(range(d), repeat=4):
        q1, q2 = conjugate_weyl(spec, (k1, l1), (k2, l2))
        assert perm[((k1 * d + l1) * d + k2) * d + l2] == ((q1.k * d + q1.l) * d + q2.k) * d + q2.l


@pytest.mark.parametrize("spec", SPECS, ids=spec_ids)
def test_permuted_tables_are_the_dense_output_tables(spec):
    d = spec.dim
    rng = np.random.default_rng(d + 1)
    rhos = [random_density(d, rng), random_pure(d, rng).density()]
    w, chi = output_tables(spec, np.stack([r.matrix for r in rhos]))
    for i, rho in enumerate(rhos):
        out = beamsplitter_output(spec, rho)
        assert np.abs(w[i] - wigner(out).values.reshape(d * d, d * d)).max() < 1e-15
        assert np.abs(chi[i] - char_function(out)).max() < 1e-14


@pytest.mark.parametrize("d", [3, 5])
def test_stabilizer_inputs_give_nonnegative_permuted_tables(d):
    mats = np.stack([psi.density().matrix for psi in enumerate_stabilizer_pure(d)])
    for spec in invertible_specs(d):
        w, _ = output_tables(spec, mats)
        assert w.min() > -1e-15
        assert np.abs(w.sum(axis=(1, 2)) - 1.0).max() < 1e-13


# --- Theorem 1 over every invertible G ------------------------------------------


@pytest.mark.parametrize("d, complete", [(5, 320), (7, 1512)])
def test_theorem1_every_invertible_g(d, complete):
    rng = np.random.default_rng(100 + d)
    pure = [random_pure(d, rng).density() for _ in range(2)]
    rhos = pure + [random_density(d, rng), random_density(d, rng, rank=2)]
    mats = np.stack([r.matrix for r in rhos])
    manas = np.array([mana(r) for r in rhos])
    assert manas[:2].min() > 0.6  # magic inputs, so a shortfall can show
    full = 0
    for spec in invertible_specs(d):
        got = output_measures(spec, mats, ["mutual_mana"])["mutual_mana"]
        if (spec.beta * spec.delta) % d:
            assert np.abs(got - manas).max() < 1e-12, spec.g_matrix
            full += 1
        else:
            # beta*delta = 0: the output is a product, no mana is converted
            assert (manas[:2] - got[:2]).min() > 0.6, spec.g_matrix
    assert full == complete


# --- Proposition 3 over every G with beta*delta != 0 ------------------------------


def marginal_wigner(spec, mats):
    """Wigner tables (n, d, d) of both output marginals, summed from the permuted table."""
    d = spec.dim
    w = output_tables(spec, mats)[0]
    return w.sum(axis=2).reshape(-1, d, d), w.sum(axis=1).reshape(-1, d, d)


def prop3_deviations(spec, mats):
    """Worst |d W_a(k,l) - rho[j0,j0]| and |d W_b(k,l) - rho[j1,j1]| over inputs and points,
    and the worst side-b deviation with the sign of j1 flipped."""
    d = spec.dim
    j0 = np.array([prop3_index(spec, "a", k) for k in range(d)])
    j1 = np.array([prop3_index(spec, "b", k) for k in range(d)])
    diag = np.einsum("nii->ni", mats).real
    w_a, w_b = marginal_wigner(spec, mats)
    worst = max(np.abs(d * w_a - diag[:, j0, None]).max(), np.abs(d * w_b - diag[:, j1, None]).max())
    return worst, np.abs(d * w_b - diag[:, -j1 % d, None]).max()


@pytest.mark.parametrize("d, complete", [(5, 320), (7, 1512)])
def test_proposition3_every_g_with_beta_delta_nonzero(d, complete):
    rng = np.random.default_rng(200 + d)
    rhos = [random_density(d, rng), random_density(d, rng, rank=2), random_pure(d, rng).density()]
    mats = np.stack([r.matrix for r in rhos])
    specs = [spec for spec in invertible_specs(d) if (spec.beta * spec.delta) % d]
    assert len(specs) == complete
    worst, flipped = np.array([prop3_deviations(spec, mats) for spec in specs]).T
    assert worst.max() < 1e-12
    # -j1 points at other diagonal entries, so a wrong index map fails
    assert flipped.min() > 1e-3


@pytest.mark.parametrize("g", [((1, 4), (0, 1)), ((2, 3), (1, 1)), ((0, 1), (4, 2)), ((3, 2), (4, 4))])
def test_proposition3_permuted_marginals_are_the_dense_expectations(g):
    spec = BeamsplitterSpec(5, g)
    rho = random_density(5, np.random.default_rng(17))
    for side, table in zip("ab", marginal_wigner(spec, rho.matrix[None])):
        dense = [[prop3_expectation(rho, spec, side, (k, l)) for l in range(5)] for k in range(5)]
        assert np.abs(5 * table[0] - np.array(dense)).max() < 1e-12


# --- against the dense path -----------------------------------------------------


@st.composite
def specs(draw):
    d = draw(st.sampled_from([3, 5, 7]))
    g = draw(
        st.tuples(*[st.integers(0, d - 1)] * 4).filter(lambda x: (x[0] * x[3] - x[1] * x[2]) % d)
    )
    return BeamsplitterSpec(d, ((g[0], g[1]), (g[2], g[3])))


@settings(max_examples=40, deadline=None)
@given(spec=specs(), seed=st.integers(0, 2**32 - 1))
def test_output_measures_match_dense_registry(spec, seed):
    d = spec.dim
    rng = np.random.default_rng(seed)
    rhos = [random_density(d, rng), random_density(d, rng, rank=1), random_density(d, rng, rank=2)]
    got = output_measures(spec, np.stack([r.matrix for r in rhos]), OUTPUT_MEASURES)
    assert list(got) == list(OUTPUT_MEASURES)
    for i, rho in enumerate(rhos):
        want = dense_values(spec, rho, OUTPUT_MEASURES)
        for name in OUTPUT_MEASURES:
            assert abs(got[name][i] - want[name]) < 1e-12, (name, i)


@settings(max_examples=20, deadline=None)
@given(spec=specs(), seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12))
def test_row_value_does_not_depend_on_its_batch(spec, seed, n):
    d = spec.dim
    rng = np.random.default_rng(seed)
    mats = np.stack([random_density(d, rng, rank=int(rng.integers(1, d + 1))).matrix for _ in range(n)])
    whole = output_measures(spec, mats, OUTPUT_MEASURES)
    for i in (0, n - 1):
        alone = output_measures(spec, mats[i : i + 1], OUTPUT_MEASURES)
        for name in OUTPUT_MEASURES:
            assert abs(whole[name][i] - alone[name][0]) < 1e-14


def test_names_pick_the_values_returned():
    rho = noisy_mix(named_state("strange"), 0.8)
    got = output_measures(csum_spec(3), rho.matrix[None], ["sre2", "mutual_mana"])
    assert list(got) == ["sre2", "mutual_mana"]
    with pytest.raises(ValueError, match="mana"):
        output_measures(csum_spec(3), rho.matrix[None], ["mana"])


def test_only_the_requested_measures_are_evaluated(monkeypatch):
    def unrequested(*args):
        raise AssertionError("sre2 evaluated for a block that did not request it")

    mats = noisy_matrices(np.stack([named_state(n).amplitudes for n in ("strange", "norrell", "t")]), 0.7)
    want = output_measures(csum_spec(3), mats, ["mutual_l1"])
    monkeypatch.setattr(measures, "_sre", unrequested)
    got = output_measures(csum_spec(3), mats, ["mutual_l1"])
    assert got["mutual_l1"].view(np.int64).tolist() == want["mutual_l1"].view(np.int64).tolist()


@pytest.mark.parametrize("spec", [csum_spec(3), csum_spec(5), swap_spec(7)], ids=lambda s: f"d{s.dim}")
def test_a_measure_requested_alone_has_the_bits_it_has_among_all_four(spec):
    rng = np.random.default_rng(spec.dim)
    amps = rng.normal(size=(40, spec.dim)) + 1j * rng.normal(size=(40, spec.dim))
    rhos = NoisyRows(amps / np.linalg.norm(amps, axis=1, keepdims=True), rng.uniform(size=40))
    together = output_measures(spec, rhos, list(OUTPUT_MEASURES))
    for name in OUTPUT_MEASURES:
        alone = output_measures(spec, rhos, [name])
        assert list(alone) == [name]
        assert np.array_equal(alone[name].view(np.int64), together[name].view(np.int64)), name


@pytest.mark.parametrize(
    "figure_id, step", [("fig1", 97), ("fig2", 97), ("fig3a", 10), ("fig3b", 10), ("fig4a", 10), ("fig4d", 10)]
)
def test_figure_rows_match_dense_path(figure_id, step):
    fig = FIGURES[figure_id]
    header, rows = figure_rows(figure_id)
    for row in rows[::step]:
        coords = dict(zip(header, row))
        params = (coords[fig.family[0]],) if fig.family else ()
        for m in fig.measures:
            state = oracles._table_state_name(m, fig.state) if fig.state in oracles.TABLE_STATES else fig.state
            dense = MEASURES[TABLE_ROW_MEASURES[m]][0](csum_output(state, coords.get("p", 1.0), params=params))
            assert abs(coords[m] - dense) < 1e-12, (figure_id, m, coords)


# --- rejected inputs ------------------------------------------------------------


def _raised(fn):
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


@settings(max_examples=30, deadline=None)
@given(
    spec=specs(),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    kind=st.sampled_from(["hermitian", "trace", "eigenvalue"]),
    size=st.floats(1e-7, 1.0),
    data=st.data(),
)
def test_bad_block_raises_what_density_state_raises(spec, seed, n, kind, size, data):
    d = spec.dim
    rng = np.random.default_rng(seed)
    mats = np.stack([random_density(d, rng).matrix for _ in range(n)])
    i = data.draw(st.integers(0, n - 1))
    rho = mats[i]
    if kind == "hermitian":
        bad = rho.copy()
        bad[0, d - 1] += size
    elif kind == "trace":
        bad = rho * (1.0 + size)
    else:
        # (1+t) rho - t |v><v| on rho's lowest eigenvector v: unit trace, eigenvalue -size
        lam, vecs = np.linalg.eigh(rho)
        t = (lam[0] + size) / (1.0 - lam[0])
        bad = (1.0 + t) * rho - t * np.outer(vecs[:, 0], vecs[:, 0].conj())
    mats[i] = bad
    want = _raised(lambda: DensityState((d,), bad))
    assert kind in want[1].lower()
    assert want[0] is (NegativeEigenvalue if kind == "eigenvalue" else ValueError)
    assert _raised(lambda: output_measures(spec, mats, OUTPUT_MEASURES)) == want


def test_single_qudit_batch_keeps_the_imaginary_residue_check():
    bad = np.eye(3, dtype=complex) / 3
    bad[0, 1] = 1e-6
    with pytest.raises(ImaginaryResidue):
        wigner(DensityState((3,), bad, validate=False))
    with pytest.raises(ImaginaryResidue):
        _wigner_values(np.stack([np.eye(3, dtype=complex) / 3, bad]), (3,))


def test_wrong_dimension_input_is_named():
    qutrit = noisy_mix(named_state("strange"), 0.5)
    two_qutrit = csum_output("strange", 1.0)
    for rho in (qutrit, two_qutrit):
        with pytest.raises(ValueError, match=re.escape(f"d=5 takes a single 5-level input, got dims {rho.dims}")):
            beamsplitter_output(csum_spec(5), rho)
    with pytest.raises(ValueError, match=r"dims \(3, 3\)"):
        beamsplitter_output(csum_spec(3), two_qutrit)
    with pytest.raises(ValueError, match=r"d=5 .*shape \(1, 3, 3\)"):
        output_measures(csum_spec(5), qutrit.matrix[None], ["mutual_mana"])
    with pytest.raises(ValueError, match=r"d=3 .*shape \(1, 9, 9\)"):
        output_measures(csum_spec(3), two_qutrit.matrix[None], ["mutual_mana"])
    with pytest.raises(ValueError, match=r"d=5 .*dims \(3,\)"):
        mutual_mana_coherent_equals_mana(PhaseVector(3, (0.1, 0.2)), csum_spec(5))


def test_empty_block_gives_empty_values():
    got = output_measures(csum_spec(3), np.zeros((0, 3, 3)), OUTPUT_MEASURES)
    assert list(got) == list(OUTPUT_MEASURES)
    assert all(values.shape == (0,) and values.dtype == float for values in got.values())
    with pytest.raises(ValueError, match=r"d=3 .*shape \(0, 5, 5\)"):
        output_measures(csum_spec(3), np.zeros((0, 5, 5)), OUTPUT_MEASURES)


def test_noisy_matrices_rows_are_noisy_mix():
    vecs = [named_state("phi_lambda", (lam,)) for lam in np.linspace(0.0, 0.7, 5)]
    block = noisy_matrices(np.stack([v.amplitudes for v in vecs]), 0.3)
    for row, v in zip(block, vecs):
        assert np.array_equal(row, noisy_mix(v, 0.3).matrix)


@given(
    p=st.floats(max_value=0.0, exclude_max=True)
    | st.floats(min_value=1.0, exclude_min=True)
    | st.just(float("nan"))
)
def test_noise_outside_unit_interval_is_rejected(p):
    amps = np.stack([named_state("t").amplitudes, named_state("strange").amplitudes])
    with pytest.raises(ParamOutOfRange):
        noisy_matrices(amps, p)


def test_from_wigner_inverts_a_batch_of_tables():
    rng = np.random.default_rng(3)
    for dims in ((3,), (5,), (3, 3), (3, 5)):
        mats = np.stack(
            [functools.reduce(np.kron, [random_density(d, rng).matrix for d in dims]) for _ in range(4)]
        )
        back = _from_wigner(_wigner_values(mats, dims), dims)
        assert back.shape == mats.shape
        assert np.abs(back - mats).max() < 1e-14


def test_one_input_gets_the_values_it_has_in_a_batch():
    # a one-row block once rounded unlike the same row in a larger block:
    # mutual_information moved by 1.4e-14 on this input (spec, seed, n = 2)
    spec = BeamsplitterSpec(3, ((1, 1), (1, 0)))
    rng = np.random.default_rng(3715926)
    mats = np.stack([random_density(3, rng, rank=int(rng.integers(1, 4))).matrix for _ in range(2)])
    whole = output_measures(spec, mats, OUTPUT_MEASURES)
    for i in range(2):
        alone = output_measures(spec, mats[i : i + 1], OUTPUT_MEASURES)
        assert {name: alone[name][0] for name in OUTPUT_MEASURES} == {name: whole[name][i] for name in OUTPUT_MEASURES}
