"""Scalar magic and correlation measures.

All logarithms are natural internally; MeasureReport records the base used
for display and the CLI converts on output.

    mana(rho)         = log sum_p |W(p)|             (log of total Wigner mass)
    sum_negativity    = (sum_p |W(p)| - 1) / 2
    purity bound      : mana(rho) <= (1/2) log(D tr rho^2), D = prod(dims)
    mutual mana       = mana(ab) - mana(a) - mana(b)
    L1 magic          = sum_p |tr(rho D_p)|          (characteristic 1-norm)
    mutual L1         = log L1(ab) - log L1(a) - log L1(b)
    SRE_alpha         = (1/(1-alpha)) [log sum_p xi_p^alpha - log sum_p xi_p]
                        - log D,   xi_p = |tr(rho D_p)|^2 / D
    mutual SRE_alpha  = SRE(ab) - SRE(a) - SRE(b)
    I(ab)             = S(a) + S(b) - S(ab)          (von Neumann mutual info)

The SRE normalization is the mixed-state variant that divides the squared
Pauli spectrum by its own total (sum_p xi_p = tr rho^2): it reduces to the
pure-state stabilizer Renyi entropy, is additive, Clifford invariant, and
zero on pure stabilizer states.  Note that the comparison-table closed
forms for "mutual" SRE treat the beamsplitter output's incoherent marginals
as magic-free, so they coincide with the GLOBAL sre_alpha of the output
state rather than with the mutual composition above; the two agree exactly
when the output marginals are maximally mixed.  The oracle layer documents
and reports this split.

output_measures evaluates mutual mana, mutual L1, SRE2 and I of beamsplitter
outputs B_G (rho x |0><0|) B_G^dag for a block of inputs from permuted
single-qudit tables, without forming the output state; the per-state
functions above are its reference.

nonlocal_mana_upper certifies upper bounds on the minimum of mana over
local-unitary orbits by seeded random-restart Nelder-Mead descent over
exp(i H_a) x exp(i H_b), with the identity and the marginal-diagonalizing
pair always included as candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import logm
from scipy.optimize import minimize

from .circuits import BeamsplitterSpec, phase_permutation
from .errors import AlphaOne, NegativeEigenvalue, NotBipartite
from .phasespace import (
    _char_values,
    _from_wigner,
    _kernel_transform,
    _wigner_values,
    char_function,
    phase_point_stack,
    wigner,
)
from .states import DensityState, check_density, partial_trace

LOG_BASE_FACTORS = {"e": 1.0, "2": 1.0 / math.log(2.0), "10": 1.0 / math.log(10.0)}


@dataclass(frozen=True)
class LogBase:
    """Display base for logarithmic measures: one of 'e', '2', '10'."""

    name: str = "e"

    def __post_init__(self):
        if self.name not in LOG_BASE_FACTORS:
            raise ValueError(f"log base must be one of {sorted(LOG_BASE_FACTORS)}")

    @property
    def factor(self) -> float:
        return LOG_BASE_FACTORS[self.name]

    def convert(self, natural_value: float) -> float:
        return natural_value * self.factor


@dataclass(frozen=True)
class MeasureReport:
    """Named measure values for one state, all in one log base."""

    state_id: str
    base: LogBase
    values: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.values.get("mana", 0.0) < -1e-10:
            raise ValueError(f"mana invariant violated: {self.values['mana']}")
        if self.values.get("mutual_information", 0.0) < -1e-8:
            raise ValueError(
                f"mutual information invariant violated: {self.values['mutual_information']}"
            )


def _unpack(rho):
    if isinstance(rho, DensityState):
        return rho.matrix, rho.dims
    raise TypeError(f"expected DensityState, got {type(rho)!r}")


def _abs_wigner_sum(mat: np.ndarray, dims) -> float:
    stacks = [phase_point_stack(d).reshape(d * d, d, d) for d in dims]
    table = _kernel_transform(mat, tuple(dims), stacks) / np.prod(dims)
    return float(np.abs(table).sum())


def mana(rho: DensityState) -> float:
    """log of the total absolute Wigner mass; 0 on stabilizer states."""
    table = wigner(rho)  # carries the imaginary-residue check
    return math.log(table.abs_sum())


def sum_negativity(rho: DensityState) -> float:
    table = wigner(rho)
    return 0.5 * (table.abs_sum() - 1.0)


def purity_bound(rho: DensityState) -> float:
    """(1/2) log(D tr rho^2): an upper bound on mana."""
    return 0.5 * math.log(np.prod(rho.dims) * rho.purity())


def _mutual(measure, rho_ab: DensityState, *args) -> float:
    """f(ab) - f(a) - f(b); partial_trace rejects a state that is not bipartite."""
    return (
        measure(rho_ab, *args)
        - measure(partial_trace(rho_ab, 0), *args)
        - measure(partial_trace(rho_ab, 1), *args)
    )


def mutual_mana(rho_ab: DensityState) -> float:
    return _mutual(mana, rho_ab)


def l1_magic(rho: DensityState) -> float:
    """Characteristic-function 1-norm; minimum 1 (maximally mixed), d for pure stabilizers."""
    mat, dims = _unpack(rho)
    return float(np.abs(char_function(mat, dims)).sum())


def log_l1(rho: DensityState) -> float:
    return math.log(l1_magic(rho))


def mutual_l1(rho_ab: DensityState) -> float:
    return _mutual(log_l1, rho_ab)


def sre_alpha(rho: DensityState, alpha: float) -> float:
    """Stabilizer alpha-Renyi entropy over the d^(2n) displacement representatives.

    Phase prefactors drop out of |tr(rho P)|^2, so the sum runs over the
    D^2 operators D_p1 x ... x D_pn only.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if abs(alpha - 1.0) < 1e-12:
        raise AlphaOne("alpha = 1 is not admissible")
    mat, dims = _unpack(rho)
    return float(_sre(char_function(mat, dims), float(np.prod(dims)), alpha))


def _sre(chi: np.ndarray, total: float, alpha: float, axes=None) -> np.ndarray:
    """SRE_alpha from characteristic values chi, reduced over `axes` (all by default)."""
    xi = np.abs(chi) ** 2 / total
    s1 = xi.sum(axis=axes)  # equals tr rho^2
    s_alpha = (xi**alpha).sum(axis=axes)
    return (np.log(s_alpha) - np.log(s1)) / (1.0 - alpha) - math.log(total)


def mutual_sre(rho_ab: DensityState, alpha: float) -> float:
    """SRE(ab) - SRE(a) - SRE(b); zero on product states by additivity.

    Coincides with the comparison-table closed forms only where the output
    marginals are maximally mixed; see the module docstring.
    """
    return _mutual(sre_alpha, rho_ab, alpha)


def von_neumann_entropy(rho: DensityState) -> float:
    """-tr(rho log rho) with eigenvalues in [-1e-8, 0) clipped to zero."""
    mat, _ = _unpack(rho)
    return float(_entropies(mat))


def _entropies(mats: np.ndarray) -> np.ndarray:
    """von_neumann_entropy of one matrix or of each matrix in a stack (..., D, D)."""
    eigs = np.linalg.eigvalsh(mats)
    lo = float(eigs.min())
    if lo < -1e-8:
        raise NegativeEigenvalue(f"eigenvalue {lo:.3e} below -1e-8")
    eigs = np.clip(eigs, 0.0, None)
    return -(eigs * np.log(np.where(eigs > 0.0, eigs, 1.0))).sum(axis=-1)


def mutual_information(rho_ab: DensityState) -> float:
    return (
        von_neumann_entropy(partial_trace(rho_ab, 0))
        + von_neumann_entropy(partial_trace(rho_ab, 1))
        - von_neumann_entropy(rho_ab)
    )


# --- nonlocal mana ----------------------------------------------------------


def hermitian_basis(n: int) -> np.ndarray:
    """Orthonormal (Hilbert-Schmidt) Hermitian basis of n x n matrices."""
    mats = [np.eye(n, dtype=complex) / math.sqrt(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = m[j, i] = 1.0 / math.sqrt(2.0)
            mats.append(m)
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = -1j / math.sqrt(2.0)
            m[j, i] = 1j / math.sqrt(2.0)
            mats.append(m)
    for k in range(1, n):
        diag = np.zeros(n)
        diag[:k] = 1.0
        diag[k] = -k
        mats.append(np.diag(diag).astype(complex) / math.sqrt(k * (k + 1)))
    return np.stack(mats)


def _unitary_from_params(theta: np.ndarray, basis: np.ndarray) -> np.ndarray:
    h = np.tensordot(theta, basis, axes=1)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def _params_from_unitary(u: np.ndarray, basis: np.ndarray) -> np.ndarray:
    h = logm(u) / 1j
    h = 0.5 * (h + h.conj().T)
    return np.real(np.einsum("kij,ji->k", basis, h))


# nonlocal_mana_upper stops restarting once its best bound is this close to 0
EXIT_TOL = 1e-12


def _split_dims(dims):
    n = len(dims)
    if n % 2 != 0:
        raise NotBipartite(f"cannot bipartition {n} subsystems evenly")
    half = n // 2
    da = int(np.prod(dims[:half]))
    db = int(np.prod(dims[half:]))
    return da, db


def nonlocal_mana_upper(
    rho_ab: DensityState,
    restarts: int = 32,
    seed: int = 42,
    maxfev: int = 600,
) -> float:
    """Certified upper bound on the local-unitary minimum of mana.

    Minimizes mana((Ua x Ub) rho (Ua x Ub)^dag) over Ua, Ub parameterized by
    Hermitian generators; the identity pair and the marginal-diagonalizing
    pair are always in the candidate set, so the result never exceeds
    mana(rho_ab).  Deterministic given the seed (restart seeds are spawned
    from it); restarts are independent and stop early once the running best
    drops below EXIT_TOL (the objective is nonnegative up to roundoff).

    For states with 2k subsystems the bipartition is first half vs second
    half of dims.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    mat, dims = _unpack(rho_ab)
    da, db = _split_dims(dims)
    basis_a = hermitian_basis(da)
    basis_b = hermitian_basis(db)
    na = da * da

    def conjugated(theta):
        ua = _unitary_from_params(theta[:na], basis_a)
        ub = _unitary_from_params(theta[na:], basis_b)
        u = np.kron(ua, ub)
        return u @ mat @ u.conj().T

    def objective(theta):
        return math.log(_abs_wigner_sum(conjugated(theta), dims))

    nparams = na + db * db
    best = math.log(_abs_wigner_sum(mat, dims))  # identity candidate, exact

    # marginal-diagonalizing candidate: any product state becomes a mixture
    # of computational-basis products, which carries no negativity
    ra = np.einsum(
        mat.reshape(da, db, da, db), [0, 2, 1, 2], [0, 1]
    )
    rb = np.einsum(mat.reshape(da, db, da, db), [2, 0, 2, 1], [0, 1])
    _, va = np.linalg.eigh(ra)
    _, vb = np.linalg.eigh(rb)
    theta_diag = np.concatenate(
        [_params_from_unitary(va.conj().T, basis_a), _params_from_unitary(vb.conj().T, basis_b)]
    )
    starts = [theta_diag]
    seeds = np.random.SeedSequence(seed).spawn(restarts)
    for s in seeds:
        rng = np.random.default_rng(s)
        starts.append(rng.normal(scale=math.pi / 2.0, size=nparams))

    for x0 in starts:
        if best <= EXIT_TOL:
            break
        val0 = objective(x0)
        best = min(best, val0)
        if best <= EXIT_TOL:
            break
        res = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={"xatol": 1e-7, "fatol": 1e-9, "maxfev": maxfev, "adaptive": True},
        )
        best = min(best, float(res.fun))
    return best


# --- reports ----------------------------------------------------------------


def sre2(rho: DensityState) -> float:
    return sre_alpha(rho, 2.0)


def mutual_sre2(rho_ab: DensityState) -> float:
    return mutual_sre(rho_ab, 2.0)


# name -> (function, log-valued); log-valued measures are converted to the display base
MEASURES = {
    "mana": (mana, True),
    "sum_negativity": (sum_negativity, False),
    "purity_bound": (purity_bound, True),
    "l1": (l1_magic, False),
    "log_l1": (log_l1, True),
    "sre2": (sre2, True),
    "entropy": (von_neumann_entropy, True),
    "mutual_mana": (mutual_mana, True),
    "mutual_information": (mutual_information, True),
    "mutual_l1": (mutual_l1, True),
    "mutual_sre2": (mutual_sre2, True),
}


# registry names output_measures evaluates without forming the d^2 x d^2 output
OUTPUT_MEASURES = ("mutual_mana", "mutual_l1", "sre2", "mutual_information")


def _output_table(perm: np.ndarray, table: np.ndarray, vacuum: np.ndarray) -> np.ndarray:
    """Two-qudit table of B_G (rho x |0><0|) B_G^dag: the product table moved by perm.

    table has shape (n, d^2), vacuum (d^2,); the result (n, d^2, d^2) is
    indexed [p_a, p_b] with p = k*d + l.
    """
    n, dd = table.shape
    out = np.empty((n, dd * dd), dtype=table.dtype)
    out[:, perm] = (table[:, :, None] * vacuum).reshape(n, dd * dd)
    return out.reshape(n, dd, dd)


def _log_abs_sum(values: np.ndarray, axes) -> np.ndarray:
    return np.log(np.abs(values).sum(axis=axes))


def output_measures(spec: BeamsplitterSpec, rhos, names) -> dict[str, np.ndarray]:
    """Registry measures of B_G (rho x |0><0|) B_G^dag for each rho of an (n, d, d) stack.

    No d^2 x d^2 output is formed.  The output's Wigner and characteristic
    tables are the products of the input's and the vacuum's single-qudit
    tables, moved by circuits.phase_permutation.  Marginal Wigner tables are
    their sums over the other subsystem, marginal characteristic functions
    the D(0) slices [:, 0] and [0, :].  For I, S(ab) = S(rho) because B_G is
    unitary and the vacuum pure, and the marginal matrices are rebuilt from
    the marginal Wigner tables.

    The inputs get DensityState's checks (states.check_density).  names is
    a subset of OUTPUT_MEASURES; each value is an array of n natural-log
    values equal to MEASURES[name][0](beamsplitter_output(spec, rho)) up to
    rounding.
    """
    d = spec.dim
    mats = np.asarray(rhos, dtype=complex)
    if mats.ndim != 3 or mats.shape[1:] != (d, d):
        raise ValueError(f"B_G at d={d} takes single {d}-level inputs, got an array of shape {mats.shape}")
    unknown = [name for name in names if name not in OUTPUT_MEASURES]
    if unknown:
        raise ValueError(f"output_measures does not evaluate {unknown[0]!r}")
    check_density(mats)
    perm = phase_permutation(spec)
    vacuum = np.zeros((d, d), dtype=complex)
    vacuum[0, 0] = 1.0
    values = {}
    if {"mutual_mana", "mutual_information"} & set(names):
        w = _output_table(perm, _wigner_values(mats, (d,)), _wigner_values(vacuum, (d,)))
        w_a, w_b = w.sum(axis=2), w.sum(axis=1)
        values["mutual_mana"] = _log_abs_sum(w, (1, 2)) - _log_abs_sum(w_a, 1) - _log_abs_sum(w_b, 1)
    if {"mutual_l1", "sre2"} & set(names):
        chi = _output_table(perm, _char_values(mats, (d,)), _char_values(vacuum, (d,)))
        values["mutual_l1"] = (
            _log_abs_sum(chi, (1, 2)) - _log_abs_sum(chi[:, :, 0], 1) - _log_abs_sum(chi[:, 0, :], 1)
        )
        values["sre2"] = _sre(chi, float(d * d), 2.0, (1, 2))
    if "mutual_information" in names:
        marginals = _entropies(_from_wigner(np.stack([w_a, w_b]), (d,)))
        values["mutual_information"] = marginals.sum(axis=0) - _entropies(mats)
    return {name: values[name] for name in names}


def measure_report(rho: DensityState, names, base: LogBase | str = "e", state_id: str = "state") -> MeasureReport:
    """Evaluate the requested measures; logarithmic ones converted to `base`."""
    base = base if isinstance(base, LogBase) else LogBase(str(base))
    values: dict[str, float] = {}
    for name in names:
        if name not in MEASURES:
            raise ValueError(f"unknown measure {name!r}")
        fn, logarithmic = MEASURES[name]
        values[name] = base.convert(fn(rho)) if logarithmic else fn(rho)
    return MeasureReport(state_id, base, values)
