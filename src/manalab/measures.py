"""Scalar magic and correlation measures.

All logarithms are natural internally; measure_report returns the named
measures as a plain dict, the logarithmic ones converted to the requested
display base, one of LOG_BASE_FACTORS, and refuses a mana or a mutual
information below zero by more than roundoff.

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
functions above are its reference.  Each piece's output tables are laid
out component-major, as C-order (d^2, d^2, rows) arrays with the rows
last, so each marginal sum and abs-sum is a few long vector operations
rather than one short numpy inner loop per row.  Every value keeps the
bits numpy 2.4 gives the row-major (rows, d^2, d^2) tables: the sum over
p_a, strided row-major, is numpy's own in-sequence np.add.reduce over the
outer axis, and every sum over an axis that is contiguous row-major is
_numpy_sum's replay of numpy's pairwise sum.

nonlocal_mana_upper certifies upper bounds on the minimum of mana over
local-unitary orbits by seeded random-restart Nelder-Mead descent over
exp(i H_a) x exp(i H_b), with the identity and the marginal-diagonalizing
pair always included as candidates.  The diagonalizing pair's generators
are read off a complex Schur form computed with numpy alone (schur: eig,
then a QR step that makes the eigenvectors orthonormal).  The restarts run
scipy's adaptive Nelder-Mead step for step (_nelder_mead) in lockstep: each
round evaluates the points every live restart needs as one batch.  The
bound equals that of running the restarts one after the other and stopping
once it is within EXIT_TOL of 0.  Each round's fixed cost is kept small:
when both halves have the same dimension, the two local unitaries of a
block come from one stacked eigh/exp/matmul chain (numpy treats each matrix
of a stack alone, so each keeps its bits); the Hermitian bases are built
once per size, and the Wigner transform contracts with phasespace's cached
kernel matrices.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator

import numpy as np

from .circuits import BeamsplitterSpec, phase_permutation
from .errors import AlphaOne, NegativeEigenvalue, NotBipartite
from .phasespace import (
    _char_values,
    _dim,
    _from_wigner,
    _kernel_transform,
    _table,
    _wigner_values,
    char_function,
    point_kernel,
    wigner,
)
from .states import EIG_FLOOR, DensityState, NoisyRows, check_density, named_state, partial_trace

LOG_BASE_FACTORS = {"e": 1.0, "2": 1.0 / math.log(2.0), "10": 1.0 / math.log(10.0)}


def _abs_wigner_sum(mats: np.ndarray, dims, kernels=None) -> np.ndarray:
    """sum_p |W(p)| of each matrix of a (k, D, D) stack: k sums.

    kernels, optional, are point_kernel(d) for each d of dims, fetched once
    by a caller that sums many stacks.
    """
    kernels = [point_kernel(d) for d in dims] if kernels is None else kernels
    table = _kernel_transform(mats, tuple(dims), kernels) / math.prod(dims)
    return np.abs(table).reshape(len(mats), -1).sum(axis=1)


def mana(rho: DensityState) -> float:
    """log of the total absolute Wigner mass; 0 on stabilizer states."""
    table = wigner(rho)  # carries the imaginary-residue check
    return math.log(table.abs_sum())


def sum_negativity(rho: DensityState) -> float:
    table = wigner(rho)
    return 0.5 * (table.abs_sum() - 1.0)


def purity_bound(rho: DensityState) -> float:
    """(1/2) log(D tr rho^2): an upper bound on mana."""
    return 0.5 * math.log(math.prod(rho.dims) * rho.purity())


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
    return float(np.abs(char_function(rho)).sum())


def log_l1(rho: DensityState) -> float:
    return math.log(l1_magic(rho))


def mutual_l1(rho_ab: DensityState) -> float:
    return _mutual(log_l1, rho_ab)


def sre_alpha(rho: DensityState, alpha: float) -> float:
    """Stabilizer alpha-Renyi entropy over the d^(2n) displacement representatives.

    Phase prefactors drop out of |tr(rho P)|^2, so the sum runs over the
    D^2 operators D_p1 x ... x D_pn only.
    """
    if not 0 < alpha < math.inf:  # False for a NaN alpha too
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if abs(alpha - 1.0) < 1e-12:
        raise AlphaOne("alpha = 1 is not admissible")
    return float(_sre(char_function(rho), math.prod(rho.dims), alpha))


def _sre(chi: np.ndarray, total: float, alpha: float, summed=np.sum) -> np.ndarray:
    """SRE_alpha from characteristic values chi, each sum taken by `summed` (over all of chi by default)."""
    xi = np.abs(chi) ** 2 / total
    s1 = summed(xi)  # equals tr rho^2
    s_alpha = summed(xi**alpha)
    return (np.log(s_alpha) - np.log(s1)) / (1.0 - alpha) - math.log(total)


def mutual_sre(rho_ab: DensityState, alpha: float) -> float:
    """SRE(ab) - SRE(a) - SRE(b); zero on product states by additivity.

    Coincides with the comparison-table closed forms only where the output
    marginals are maximally mixed; see the module docstring.
    """
    return _mutual(sre_alpha, rho_ab, alpha)


def von_neumann_entropy(rho: DensityState) -> float:
    """-tr(rho log rho) with eigenvalues in [EIG_FLOOR, 0) clipped to zero."""
    return float(_entropies(rho.matrix))


def _entropies(mats: np.ndarray) -> np.ndarray:
    """von_neumann_entropy of one matrix or of each matrix in a stack (..., D, D)."""
    eigs = np.linalg.eigvalsh(mats)
    lo = float(eigs.min())
    if lo < EIG_FLOOR:
        raise NegativeEigenvalue(f"eigenvalue {lo:.3e} below {EIG_FLOOR}")
    eigs = np.clip(eigs, 0.0, None)
    # 0.0 - s, not -s: a pure state's entropy is +0.0, and every other value keeps its bits
    return 0.0 - (eigs * np.log(np.where(eigs > 0.0, eigs, 1.0))).sum(axis=-1)


def mutual_information(rho_ab: DensityState) -> float:
    return (
        von_neumann_entropy(partial_trace(rho_ab, 0))
        + von_neumann_entropy(partial_trace(rho_ab, 1))
        - von_neumann_entropy(rho_ab)
    )


# --- nonlocal mana ----------------------------------------------------------


@_table(operator.index)
def hermitian_basis(n: int) -> np.ndarray:
    """Orthonormal (Hilbert-Schmidt) Hermitian basis of n x n matrices, shape (n^2, n, n).

    The identity, then for each i < j in row-major order the real symmetric
    and the imaginary antisymmetric pair on (i, j), then for k = 1 .. n-1
    the traceless diagonal (1, ..., 1, -k, 0, ..., 0) with k ones.  Built
    once per n and read-only (phasespace._table).
    """
    i, j = np.triu_indices(n, 1)
    sym = 1 + 2 * np.arange(len(i))  # the symmetric matrices; each antisymmetric one follows its pair
    k, t = np.arange(1, n)[:, None], np.arange(n)
    basis = np.zeros((n * n, n, n), dtype=complex)
    basis[0] = np.eye(n, dtype=complex) / math.sqrt(n)
    basis[sym, i, j] = basis[sym, j, i] = 1.0 / math.sqrt(2.0)
    basis[sym + 1, i, j] = -1j / math.sqrt(2.0)
    basis[sym + 1, j, i] = 1j / math.sqrt(2.0)
    # divided as complex numbers, which rounds unlike a real division
    basis[n * n - n + k, t, t] = np.where(t < k, 1.0, np.where(t == k, -k, 0.0)).astype(complex) / np.sqrt(k * (k + 1))
    return basis


def _unitary_from_params(theta: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """exp(i sum_k theta[..., k] basis[k]) for one parameter vector or a block (..., n^2)."""
    n = basis.shape[-1]
    h = (theta @ basis.reshape(n * n, n * n)).reshape(theta.shape[:-1] + (n, n))
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def schur(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form (t, z) of a normal matrix: u = z t z^dag, z unitary.

    The eigenvectors of a normal u span mutually orthogonal eigenspaces, so
    the QR step, which orthonormalizes the columns in order, keeps each
    eigenspace: z is unitary and t = z^dag u z is diagonal up to rounding.
    """
    _, v = np.linalg.eig(u)
    z = np.linalg.qr(v)[0]
    return z.conj().T @ u @ z, z


def _params_from_unitary(u: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Parameters of a Hermitian H with exp(iH) = u, from the complex Schur form.

    u is normal, so u = Z T Z^dag with T diagonal up to rounding (schur:
    numpy's eig, then a QR step that makes the eigenvectors orthonormal) and
    H = Z diag(arg T_ii) Z^dag.  The angles are taken in (-pi, pi], the
    principal branch of logm: an eigenvalue -1 gives pi even when rounding
    leaves it just below the negative real axis.
    """
    t, z = schur(u)
    angles = np.angle(np.diagonal(t))
    angles = np.where(angles < BRANCH_TOL - math.pi, angles + 2.0 * math.pi, angles)
    h = (z * angles) @ z.conj().T
    return np.real(np.einsum("kij,ji->k", basis, h))


# nonlocal_mana_upper stops restarting once its best bound is this close to 0
EXIT_TOL = 1e-12
# an eigenvalue angle within this of -pi is taken as pi (see _params_from_unitary)
BRANCH_TOL = 1e-12
# array elements a batched evaluation forms at once (see _by_rows): each
# complex array of a piece is 1 MB.  Pieces of 2**17 elements raised the
# traced peak of maximize --dim 5 from 6.0 to 9.1 MB, and pieces of 2**15
# made its grid slower by their number (a fresh process's median 0.150 s
# against 0.122 s)
ROW_BUDGET = 1 << 16


def _by_rows(f, rows, row_size: int, out=None) -> np.ndarray:
    """f(rows) for a block, evaluated in pieces of at most max(2, ROW_BUDGET // row_size) rows.

    f maps a block of rows to one value (or one array of values) per row;
    row_size is the number of elements f forms per row.  rows holds at
    least one row, and may be a range, whose pieces are ranges.  numpy
    sends a one-row product to gemv, which rounds unlike gemm, so a one-row
    piece is passed to f doubled (an int array, for a range) and its first
    value kept: a row's value is then the same bits whatever block it is
    evaluated in.  Each piece's values are written into their rows of out
    as the piece is made, so no list of them is held, and out is returned.
    Without out, a block of one piece and at least two rows is f(rows)
    itself, with no copy; any other block gets an out of the first piece's
    values' shape and dtype.
    """
    step = max(2, ROW_BUDGET // row_size)
    if out is None and 2 <= len(rows) <= step:
        return f(rows)
    for start in range(0, len(rows), step):
        piece = rows[start : start + step]
        values = f(np.concatenate([piece, piece]))[:1] if len(piece) == 1 else f(piece)
        if out is None:
            out = np.empty((len(rows), *values.shape[1:]), dtype=values.dtype)
        out[start : start + len(piece)] = values
        del values  # so that the next piece is made without this one's values beside it
    return out


def _split_dims(dims):
    n = len(dims)
    if n % 2 != 0:
        raise NotBipartite(f"cannot bipartition {n} subsystems evenly")
    half = n // 2
    return math.prod(dims[:half]), math.prod(dims[half:])


def _orbit_objective(mat: np.ndarray, dims):
    """theta block (k, da^2 + db^2) -> mana((Ua x Ub) rho (Ua x Ub)^dag) for each row.

    The block is evaluated by _by_rows, one conjugated D x D state per row,
    so each row's value is the same whatever block it is evaluated in.  The
    two halves' kernels are fetched once, for every block.
    """
    da, db = _split_dims(dims)
    basis_a, basis_b = hermitian_basis(da), hermitian_basis(db)
    na, total = da * da, da * db
    kernels = [point_kernel(d) for d in dims]

    def abs_sums(thetas):
        k = len(thetas)
        if da == db:
            # one eigh/exp/matmul chain for both factors: row 2r is theta_a of
            # row r, row 2r + 1 its theta_b; numpy treats each matrix alone
            u = _unitary_from_params(thetas.reshape(2 * k, na), basis_a)
            ua, ub = u[0::2], u[1::2]
        else:
            ua = _unitary_from_params(thetas[:, :na], basis_a)
            ub = _unitary_from_params(thetas[:, na:], basis_b)
        u = (ua[:, :, None, :, None] * ub[:, None, :, None, :]).reshape(k, total, total)
        return _abs_wigner_sum(u @ mat @ u.conj().swapaxes(1, 2), dims, kernels)

    def objective(thetas: np.ndarray) -> np.ndarray:
        return np.log(_by_rows(abs_sums, thetas, total * total))

    return objective


def _nelder_mead(x0: np.ndarray, maxfev: int):
    """scipy's adaptive Nelder-Mead (xatol 1e-7, fatol 1e-9, maxfev) as a generator.

    The steps, comparisons and maxfev truncation are those of scipy 1.17's
    optimize._optimize._minimize_neldermead with adaptive=True (Gao & Han,
    Comput. Optim. Appl. 51, 259 (2012)); only the evaluation is handed out.
    It yields each block of points it needs (the initial simplex, a
    reflection, an expansion or contraction, a shrink) and is sent back
    their values.  It returns (fun, nfev, sim, fsim) with scipy's final
    simplex.  At the budget, the initial simplex keeps inf for the rows it
    did not evaluate, an expansion or contraction is not taken, and a
    shrink moves one row more than it evaluates.
    """
    n = len(x0)
    rho, chi, psi, sigma = 1, 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    sim = np.tile(np.asarray(x0, dtype=float), (n + 1, 1))
    sim[np.arange(1, n + 1), np.arange(n)] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)
    fsim = np.full(n + 1, np.inf)
    nfev = min(n + 1, maxfev)
    fsim[:nfev] = yield sim[:nfev]
    for _ in range(2):  # scipy sorts the initial simplex twice; argsort is not stable
        ind = fsim.argsort()
        sim, fsim = sim[ind], fsim[ind]
    while nfev < maxfev:
        # scipy's test, the two pure predicates swapped: the f-spread fails far more often
        if np.abs(fsim[0] - fsim[1:]).max() <= 1e-9 and np.abs(sim[1:] - sim[0]).max() <= 1e-7:
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + rho) * xbar - rho * sim[-1]
        (fxr,) = yield xr[None]
        nfev += 1
        shrink = False
        if fxr < fsim[0]:
            if nfev < maxfev:
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                (fxe,) = yield xe[None]
                nfev += 1
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif nfev < maxfev:
            if fxr < fsim[-1]:
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                (fxc,) = yield xc[None]
                shrink = not fxc <= fxr
            else:
                xc = (1 - psi) * xbar + psi * sim[-1]
                (fxc,) = yield xc[None]
                shrink = not fxc < fsim[-1]
            nfev += 1
            if not shrink:
                sim[-1], fsim[-1] = xc, fxc
        if shrink:
            m = min(n, maxfev - nfev)
            moved = min(n, m + 1)
            sim[1 : moved + 1] = sim[0] + sigma * (sim[1 : moved + 1] - sim[0])
            if m:
                fsim[1 : m + 1] = yield sim[1 : m + 1]
                nfev += m
        ind = fsim.argsort()
        sim, fsim = sim[ind], fsim[ind]
    return np.min(fsim), nfev, sim, fsim


def _lockstep(objective, starts: np.ndarray, maxfev: int) -> list:
    """Run _nelder_mead from every start together, one objective call per round.

    Each round evaluates the pending blocks of all live runs as one batch
    and sends each run its slice.  Returns each run's (fun, nfev, sim, fsim)
    in start order.  Once a run's running minimum is <= EXIT_TOL, the runs
    after it cannot change the sequential bound and are dropped (None).  A
    live run's result is at most the least value it has been sent: scipy
    keeps every value below the simplex's best, except a reflection whose
    expansion maxfev cuts off, and that ends the run, whose result is then
    known.
    """
    runs = [_nelder_mead(x0, maxfev) for x0 in starts]
    pending = [next(run) for run in runs]
    results = [None] * len(runs)
    low = [math.inf] * len(runs)
    live = list(range(len(runs)))
    while live:
        values = objective(np.concatenate([pending[i] for i in live]))
        offsets = list(itertools.accumulate((len(pending[i]) for i in live), initial=0))
        for i, lo, hi in zip(live, offsets[:-1], offsets[1:]):
            try:
                pending[i] = runs[i].send(values[lo:hi])
                low[i] = min(low[i], float(values[lo:hi].min()))
            except StopIteration as stop:
                results[i] = stop.value
                low[i] = results[i][0]
        last = next((i for i, value in enumerate(low) if value <= EXIT_TOL), len(runs))
        live = [i for i in live if results[i] is None and i <= last]
    return results


def _starts(mat: np.ndarray, dims, restarts: int, seed: int) -> np.ndarray:
    """The marginal-diagonalizing start, then `restarts` seeded random ones: (restarts + 1, N).

    Diagonalizing both marginals turns any product state into a mixture of
    computational-basis products, which carries no negativity.
    """
    da, db = _split_dims(dims)
    blocks = mat.reshape(da, db, da, db)
    _, va = np.linalg.eigh(np.einsum(blocks, [0, 2, 1, 2], [0, 1]))
    _, vb = np.linalg.eigh(np.einsum(blocks, [2, 0, 2, 1], [0, 1]))
    diagonalizing = np.concatenate(
        [_params_from_unitary(va.conj().T, hermitian_basis(da)), _params_from_unitary(vb.conj().T, hermitian_basis(db))]
    )
    seeds = np.random.SeedSequence(seed).spawn(restarts)
    size = da * da + db * db
    return np.stack([diagonalizing] + [np.random.default_rng(s).normal(scale=math.pi / 2.0, size=size) for s in seeds])


def _check_count(name: str, value, least: int = 1) -> int:
    """value as an int; a bool, a non-integer or a value below least raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


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
    from it).

    The bound is that of trying the candidates one after the other and
    stopping once the running best drops below EXIT_TOL (the objective is
    nonnegative up to roundoff): the identity, then for the diagonalizing
    start and each random restart its start value, then scipy's adaptive
    Nelder-Mead from it with at most maxfev evaluations.  The start values
    are one batch, and the Nelder-Mead runs advance in lockstep, one batch
    per round (_lockstep).  restarts and maxfev are integers >= 1.

    For states with 2k subsystems the bipartition is first half vs second
    half of dims.
    """
    _check_count("restarts", restarts)
    _check_count("maxfev", maxfev)
    mat, dims = rho_ab.matrix, rho_ab.dims
    _split_dims(dims)  # NotBipartite before any evaluation
    best = math.log(_abs_wigner_sum(mat[None], dims)[0])  # identity candidate, exact
    if best <= EXIT_TOL:
        return best
    starts = _starts(mat, dims, restarts, seed)
    objective = _orbit_objective(mat, dims)
    values = objective(starts)
    # the sequential loop runs no descent from the first start whose value
    # exits, nor after it
    exits = np.flatnonzero(values <= EXIT_TOL)
    runs = _lockstep(objective, starts[: exits[0] if exits.size else len(starts)], maxfev)
    # the sequential loop's order: each start's value, then its run's result
    tried = ((val0,) if run is None else (val0, run[0]) for val0, run in zip(values, runs + [None]))
    for value in itertools.chain.from_iterable(tried):
        best = min(best, value)
        if best <= EXIT_TOL:
            break
    return float(best)


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

    table has shape (n, d^2), vacuum (d^2,).  The result is component-major,
    a C-order (d^2, d^2, n) array indexed [p_a, p_b, row] with p = k*d + l.
    """
    n, dd = table.shape
    source = np.empty_like(perm)
    source[perm] = np.arange(dd * dd)  # the product entry each output entry is moved from
    out = np.empty((dd * dd, n), dtype=table.dtype)
    np.take(table.T, source // dd, axis=0, out=out, mode="clip")  # "clip": unbuffered; no index is out of range
    out *= vacuum[source % dd, None]
    return out.reshape(dd, dd, n)


def _numpy_sum(table: np.ndarray) -> np.ndarray:
    """table.sum(axis=0) of a real component-major table, with the bits numpy 2.4 gives that sum row-major.

    The summed axis comes first and the rows after it; row-major it is
    contiguous, and numpy's pairwise_sum is replayed one whole component at
    a time.  Up to 128 terms go to 8 accumulators, term i to accumulator
    i % 8, up to the last multiple of 8; the accumulators are joined
    ((0+1)+(2+3))+((4+5)+(6+7)), added to +0.0, and the rest added in
    sequence.  More than 128 terms are split at m // 2 rounded down to a
    multiple of 8, and the two parts' sums added.  numpy adds +0.0 to the
    whole sum only; adding it to each part can change only the sign of a
    part's zero, not the total, which is +0.0 for -0.0 terms either way.
    (numpy adds fewer than 8 terms in sequence; output_measures sums at
    least d^2 = 9.)
    """
    m = len(table)
    if m > 128:
        half = m // 2 - m // 2 % 8
        return _numpy_sum(table[:half]) + _numpy_sum(table[half:])
    end = m - m % 8
    blocks = table[:end].reshape((end // 8, 8) + table.shape[1:])
    acc = blocks[0]
    if len(blocks) > 1:
        acc = acc + blocks[1]  # a new array: table itself is not written
        for block in blocks[2:]:
            acc += block
    pairs = acc[0::2] + acc[1::2]
    total = 0.0 + ((pairs[0] + pairs[1]) + (pairs[2] + pairs[3]))
    for component in table[end:]:
        total += component
    return total


def _log_abs_sum(values: np.ndarray) -> np.ndarray:
    """log sum |values| over axis 0, summed as numpy sums a contiguous axis."""
    return np.log(_numpy_sum(np.abs(values)))


def _vacuum_kind(kind: str) -> str:
    """kind, if it names a vacuum table ("wigner" or "char"), else ValueError."""
    if kind not in ("wigner", "char"):
        raise ValueError(f"the vacuum's table is 'wigner' or 'char', got {kind!r}")
    return kind


@_table(_dim, _vacuum_kind)
def _vacuum_table(d: int, kind: str) -> np.ndarray:
    """The vacuum |0><0|'s single-qudit table: kind "wigner" or "char", built once per d, read-only.

    It is the transform itself (_wigner_values or _char_values), not a
    closed form, so its bits are those of transforming the vacuum afresh.
    """
    vacuum = named_state("basis", [0], dim=d).density().matrix
    return (_wigner_values if kind == "wigner" else _char_values)(vacuum, (d,))


def output_measures(spec: BeamsplitterSpec, rhos, names) -> dict[str, np.ndarray]:
    """Registry measures of B_G (rho x |0><0|) B_G^dag for each input of a block.

    No d^2 x d^2 output is formed.  The output's Wigner and characteristic
    tables are the products of the input's and the vacuum's single-qudit
    tables, moved by circuits.phase_permutation.  Marginal Wigner tables are
    their sums over the other subsystem, marginal characteristic functions
    the D(0) slices [:, 0] and [0, :].  For I, S(ab) = S(rho) because B_G is
    unitary and the vacuum pure, and the marginal matrices are rebuilt from
    the marginal Wigner tables.  Each _by_rows piece's tables are
    component-major (d^2, d^2, rows) arrays, summed in the order numpy
    sums the row-major tables (see the module docstring), so each value
    has the row-major bits.

    rhos is a raw (n, d, d) stack or a states.NoisyRows of n rows.  A raw
    stack gets DensityState's checks (states.check_density).  A NoisyRows
    is evaluated on its matrices() unchecked: its constructor checked each
    amplitude row by PureVector's rule and p by check_noise, and that
    margin already makes each mixture Hermitian, unit-trace and positive.
    names is a subset of OUTPUT_MEASURES, and only those measures are
    evaluated; each value is an array of n natural-log values equal to
    MEASURES[name][0](beamsplitter_output(spec, rho)) up to rounding.
    """
    d = spec.dim
    noisy = isinstance(rhos, NoisyRows)
    mats = rhos.matrices() if noisy else np.asarray(rhos, dtype=complex)
    if mats.ndim != 3 or mats.shape[1:] != (d, d):
        raise ValueError(f"B_G at d={d} takes single {d}-level inputs, got an array of shape {mats.shape}")
    unknown = [name for name in names if name not in OUTPUT_MEASURES]
    if unknown:
        raise ValueError(f"output_measures does not evaluate {unknown[0]!r}")
    if not len(mats):
        return {name: np.empty(0) for name in names}
    if not noisy:
        check_density(mats)
    perm = phase_permutation(spec)
    wanted = set(names)

    def evaluate(rows):
        values = {}
        # the output tables component-major, C-order (d^2, d^2, rows) indexed [p_a, p_b, row]
        if wanted & {"mutual_mana", "mutual_information"}:
            w = _output_table(perm, _wigner_values(rows, (d,)), _vacuum_table(d, "wigner"))
            # numpy adds the outer axis in sequence from +0.0, as it adds the
            # row-major p_a axis, while the trailing size d^2 * rows >= 18
            # (_by_rows passes at least 2 rows); it sums (m, 1) tables pairwise
            w_a, w_b = _numpy_sum(w.transpose(1, 0, 2)), np.add.reduce(w, axis=0)
            if "mutual_mana" in wanted:
                values["mutual_mana"] = _log_abs_sum(w.reshape(d**4, -1)) - _log_abs_sum(w_a) - _log_abs_sum(w_b)
        if wanted & {"mutual_l1", "sre2"}:
            chi = _output_table(perm, _char_values(rows, (d,)), _vacuum_table(d, "char"))
            chi_ab = chi.reshape(d**4, -1)
            if "mutual_l1" in wanted:
                values["mutual_l1"] = _log_abs_sum(chi_ab) - _log_abs_sum(chi[:, 0]) - _log_abs_sum(chi[0])
            if "sre2" in wanted:
                values["sre2"] = _sre(chi_ab, float(d * d), 2.0, _numpy_sum)
        if "mutual_information" in wanted:
            # a C-order stack, as np.stack made of the row-major marginals: np.dot sees the same operand
            marginals = np.empty((2, len(rows), d * d))
            marginals[0], marginals[1] = w_a.T, w_b.T
            values["mutual_information"] = _entropies(_from_wigner(marginals, (d,))).sum(axis=0) - _entropies(rows)
        return np.array([values[name] for name in names]).T  # (rows, names)

    # one d^2 x d^2 output table per row
    return dict(zip(names, _by_rows(evaluate, mats, d**4).T))


def measure_report(rho: DensityState, names, base: str = "e") -> dict[str, float]:
    """The requested measures by name; logarithmic ones converted to the log base named `base`.

    A mana below -1e-10 or a mutual information below -1e-8 raises
    ValueError: both are nonnegative up to roundoff.
    """
    if base not in LOG_BASE_FACTORS:
        raise ValueError(f"log base must be one of {sorted(LOG_BASE_FACTORS)}")
    factor = LOG_BASE_FACTORS[base]
    values: dict[str, float] = {}
    for name in names:
        if name not in MEASURES:
            raise ValueError(f"unknown measure {name!r}")
        fn, logarithmic = MEASURES[name]
        values[name] = fn(rho) * factor if logarithmic else fn(rho)
    if values.get("mana", 0.0) < -1e-10:
        raise ValueError(f"mana invariant violated: {values['mana']}")
    if values.get("mutual_information", 0.0) < -1e-8:
        raise ValueError(f"mutual information invariant violated: {values['mutual_information']}")
    return values
