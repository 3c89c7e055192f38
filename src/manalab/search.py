"""Optimization of mana over maximally coherent phase vectors.

The objective Mana(psi_theta) with psi_theta = (1/sqrt d) sum_j e^{i theta_j}|j>
(theta_0 = 0) is bounded by (1/2) log d for every pure state; that bound is
in fact strict for every prime d, since Cauchy-Schwarz equality would force
all d^2 Wigner values to share the magnitude d^{-3/2}, and with their sum
pinned to 1 the signed count n+ - n- would have to equal d^{3/2}, never an
integer for prime d.  The search therefore reports the best value found and
never asserts attainment of the bound.

Strategy: exhaustive evaluation on a uniform grid over [0, 2pi)^{d-1},
then lockstep golden-section refinement of all candidates: the (at most
128) local grid maxima climb by coordinate-wise golden-section ascent
together, one batched objective call per golden step, each candidate taking
exactly the steps it would take alone.  A golden section keeps only its
still-running rows, in compact arrays.  All refined optima within 1e-6 of
the best are kept, deduplicated by angular distance (each one compared with
all those kept before it in one array expression), and returned sorted.

Nearly every objective call is a block of at most 128 rows, so its fixed
cost counts: the 1/d scale of W is a real multiply on its float view, which
gives the bits of numpy's complex division by a real number.  The amplitudes
are the plain complex expression e^{i theta}/sqrt(d).

Neither the grid nor a line recomputes what it has.  The grid's phases take
only `grid` values per axis, so each is exponentiated once, into one table,
and each piece that _by_rows cuts from the range of the grid's flat indices
gathers its amplitudes from that table; no (grid^(d-1), d-1) mesh of phases
and no whole-grid index array is built.  The grid's output is allocated
before any piece, so a grid too large for memory fails at once, and the
pieces' values are joined into it once, at the end.
The objective keeps its amplitudes component-major, psi of shape (d, N), so
that every elementwise loop runs over N contiguous rows rather than over d.
Only a golden-section line keeps arrays from one call to the next.  Along a
line on coordinate i only row i + 1 of psi moves, and only the row and
column i + 1 of rho with it.  A line holds its base rows' psi, conj psi and
rho; a step on all of them in order writes the one moving row of psi, and
_from_psi recomputes 2d - 1 of rho's d^2 rows.  Any other set of rows is
gathered.  A grid piece, a batch and a gathered set of rows get fresh
arrays, and so do W and |W| everywhere.  All three ways of getting
amplitudes end in the one tail, _from_psi, which forms |psi><psi| and its
Wigner values, and every row keeps the bits and the evaluation count of
batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import beamsplitter_output, check_beta_delta
from .measures import _by_rows, _check_count, mana, mutual_mana
from .phasespace import _dim, capped, point_kernel
from .states import PureVector, coherent_amplitudes, coherent_phases

DEFAULT_GRIDS = {3: 64, 5: 24, 7: 12}
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# a golden-section bracket no wider than this is done
GOLDEN_TOL = 1e-11


@dataclass(frozen=True)
class PhaseVector:
    """Phases (theta_1 ... theta_{d-1}) of a maximally coherent state; theta_0 = 0."""

    dim: int
    thetas: tuple[float, ...]

    def __post_init__(self):
        d = _dim(self.dim)
        th = tuple(float(x) % (2.0 * math.pi) for x in self.thetas)
        if len(th) != d - 1:
            raise ValueError(f"need {d - 1} phases for d={d}, got {len(th)}")
        if not all(map(math.isfinite, th)):  # x % 2pi is NaN for an infinite x
            raise ValueError(f"phases must be finite, got {self.thetas}")
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "thetas", th)

    def amplitudes(self) -> np.ndarray:
        return coherent_amplitudes(self.thetas)


@dataclass(frozen=True)
class SearchResult:
    """Best value, the set of attaining phase vectors, and search metadata."""

    best_value: float
    argmax: tuple[PhaseVector, ...]
    evaluations: int
    grid_resolution: int
    refine_sweeps: int

    def __post_init__(self):
        if not self.argmax:
            raise ValueError("a search result needs at least one argmax phase vector")
        d = self.argmax[0].dim
        bound = 0.5 * math.log(d) + 1e-9
        if self.best_value > bound:
            raise ValueError(f"best value {self.best_value} exceeds the purity bound {bound}")


class _CoherentObjective:
    """Mana of a maximally coherent state as a function of its phases.

    batch, grid and line each get amplitude rows their own way and share the
    tail _from_psi; each evaluated row adds 1 to `evaluations`.
    """

    def __init__(self, d: int):
        self.d = d
        # K[(i, j), p] = A_p[j, i], so W = rho_flat @ K: one (N, d^2) @ (d^2, d^2)
        # product per block
        self.kernel = point_kernel(d)
        self.evaluations = 0

    def batch(self, theta_block: np.ndarray) -> np.ndarray:
        """Values for a block of phase vectors, shape (N, d-1), evaluated by _by_rows."""
        self.evaluations += len(theta_block)
        return self._of_rows(coherent_amplitudes(theta_block))

    def grid(self, axis: np.ndarray) -> np.ndarray:
        """Values at every phase vector with all d-1 phases from axis, shape (len(axis),) * (d-1).

        These are the batch values of the C-order grid, bit for bit.
        """
        d, shape = self.d, (len(axis),) * (self.d - 1)
        table = coherent_phases(axis, d)
        n = math.prod(shape)
        # allocated before any piece, so a grid too large for memory fails at once
        out = np.empty(n)
        self.evaluations += n

        def values(piece):
            # a range of flat indices, or a lone row's doubled index array
            flat = np.arange(piece.start, piece.stop) if isinstance(piece, range) else piece
            psi = np.empty((d, len(flat)), dtype=complex)
            psi[0] = 1.0 / math.sqrt(d)  # coherent_amplitudes' first entry
            for k, col in enumerate(np.unravel_index(flat, shape), start=1):
                psi[k] = table[col]
            return self._from_psi(psi)

        return _by_rows(values, range(n), d * d, out=out).reshape(shape)

    def line(self, base: np.ndarray, i: int):
        """f(rows, t) for _golden_max: the values of base[rows] with phase i set to t.

        The line holds the base rows' psi, conj psi and rho.  A step on all
        rows in order writes row i + 1 of psi in place, and _from_psi
        recomputes only the row and column of rho that it moves; any other
        rows are gathered and go through _by_rows.
        """
        d, j, n = self.d, i + 1, len(base)
        psi = np.ascontiguousarray(coherent_amplitudes(base).T)
        buffers = (np.empty_like(psi), np.empty((d, d, n), dtype=complex))
        every = np.arange(n)
        moved = None  # the first step on all rows fills all of rho

        def f(rows, t):
            nonlocal moved
            self.evaluations += len(rows)
            # a one-row line takes _by_rows' doubled row: a lone row's product goes to gemv
            if n >= 2 and len(rows) == n and (rows == every).all():
                psi[j] = coherent_phases(t, d)
                values = self._from_psi(psi, buffers, moved)
                moved = j
                return values
            sub = np.take(psi, rows, axis=1)
            sub[j] = coherent_phases(t, d)
            return self._of_rows(sub.T)

        return f

    def _of_rows(self, psi: np.ndarray) -> np.ndarray:
        """Values of amplitude rows psi, shape (N, d), in _by_rows pieces."""
        return _by_rows(lambda piece: self._from_psi(piece.T), psi, self.d * self.d)

    def _from_psi(self, psi: np.ndarray, buffers=None, moved=None) -> np.ndarray:
        """Values of amplitude columns psi, shape (d, N), at least two of them.

        buffers, optional, are a golden line's conj psi (d, N) and rho
        (d, d, N), C-contiguous, to write into.  With moved = j only row j
        of psi differs from the call that filled them, so only conj[j] and
        the row and column j of rho are recomputed: every element of rho is
        the same product psi[a] * conj[b] as in a full pass.
        """
        d, n = self.d, psi.shape[1]
        conj, rho = buffers or (None, np.empty((d, d, n), dtype=complex))
        if moved is None:
            np.multiply(psi[:, None, :], np.conjugate(psi, out=conj)[None, :, :], out=rho)
        else:
            np.conjugate(psi[moved], out=conj[moved])
            np.multiply(psi[moved], conj, out=rho[moved])
            np.multiply(psi, conj[moved], out=rho[:, moved])
        # W = rho_flat @ K on the (N, d^2) transposed view: a C-order W, and
        # the bits of the row-major product
        w = rho.reshape(d * d, n).T @ self.kernel
        # numpy divides by the real d as (re + im * 0) * (1/d); scaling both
        # parts by 1/d can differ only in the sign of a zero, which abs drops
        w.view(float)[...] *= 1.0 / d
        return np.log(np.abs(w).sum(axis=1))


def _golden_max(f, lo: np.ndarray, hi: np.ndarray):
    """Golden-section maximization on [lo[k], hi[k]] for every row k at once.

    `f(rows, points)` returns the objective of each listed row at its point.
    The rows whose bracket is still wider than GOLDEN_TOL are kept in compact
    arrays, updated by np.where and evaluated together; a row's bracket is
    written back once, when it finishes.  Each row thus takes exactly the
    steps and comparisons of a scalar golden section.
    """
    a_out = np.array(lo, dtype=float)
    b_out = np.array(hi, dtype=float)
    rows = np.arange(a_out.size)
    c = b_out - GOLDEN * (b_out - a_out)
    d_ = a_out + GOLDEN * (b_out - a_out)
    fc, fd = f(rows, c), f(rows, d_)
    run = np.abs(b_out - a_out) > GOLDEN_TOL
    idx, a, b, c, d_, fc, fd = (v[run] for v in (rows, a_out, b_out, c, d_, fc, fd))
    while idx.size:
        # left: the maximum lies in [a, d]; c becomes the new d.  Otherwise
        # it lies in [c, b] and d becomes the new c.
        left = fc > fd
        a = np.where(left, a, c)
        b = np.where(left, d_, b)
        width = b - a
        step = GOLDEN * width
        new = np.where(left, b - step, a + step)
        fnew = f(idx, new)
        c, d_ = np.where(left, new, d_), np.where(left, c, new)
        fc, fd = np.where(left, fnew, fd), np.where(left, fc, fnew)
        run = np.abs(width) > GOLDEN_TOL
        if not run.all():
            done = idx[~run]
            a_out[done], b_out[done] = a[~run], b[~run]
            idx, a, b, c, d_, fc, fd = (v[run] for v in (idx, a, b, c, d_, fc, fd))
    x = 0.5 * (a_out + b_out)
    return x, f(rows, x)


def _refine(obj: _CoherentObjective, starts: np.ndarray, step: float, max_sweeps: int):
    """Coordinate-wise golden-section ascent of every start row in lockstep.

    A row stops once one sweep over its coordinates improved it by less
    than 1e-13; returns the phases, values and sweep counts per row.
    """
    x = np.array(starts, dtype=float)
    best = obj.batch(x)
    sweeps = np.zeros(len(x), dtype=int)
    active = np.arange(len(x))
    for sweep in range(max_sweeps):
        if not active.size:
            break
        improved = np.zeros(active.size)
        for i in range(x.shape[1]):
            base = x[active]
            xi, vi = _golden_max(obj.line(base, i), base[:, i] - step, base[:, i] + step)
            prev = best[active]
            up = vi > prev
            improved[up] += vi[up] - prev[up]
            best[active[up]] = vi[up]
            x[active[up], i] = xi[up]
        sweeps[active] = sweep + 1
        active = active[improved >= 1e-13]
    return x % (2.0 * math.pi), best, sweeps


def _wrap_box_max(values: np.ndarray) -> np.ndarray:
    """Max over each point's 3 x ... x 3 neighbourhood on the torus.

    A box max is separable, so each axis in turn is reduced over the
    previous, the same and the next slice, wrapping at the ends; the result
    equals scipy.ndimage.maximum_filter(values, size=3, mode="wrap").  The
    output starts as a copy of values, which the call leaves as it is, and
    every axis is reduced into it in place, one slice at a time: forwards
    with the next slice, then backwards with the previous one.  Each pass
    overwrites a slice that its last step still reads, so that slice is
    kept first in a slice-sized buffer; the call holds one array of values'
    size besides values.
    """
    out = np.array(values)
    for axis in range(out.ndim):
        o = np.moveaxis(out, axis, 0)  # o[i, ...] is a view, 0-d for a 1-d array
        n = len(o)
        kept = np.array(o[0, ...])  # the first slice, the last one's next
        for i in range(n - 1):
            np.maximum(o[i, ...], o[i + 1, ...], out=o[i, ...])
        np.maximum(o[-1, ...], kept, out=o[-1, ...])
        np.copyto(kept, o[-1, ...])  # the last slice, the first one's previous
        for i in reversed(range(1, n)):
            np.maximum(o[i - 1, ...], o[i, ...], out=o[i, ...])
        np.maximum(kept, o[0, ...], out=o[0, ...])
    return out


def _angular_distance(a, b):
    """Largest phase difference on the circle between a and b, or each row of b."""
    diff = np.abs(np.asarray(a) - np.asarray(b)) % (2.0 * math.pi)
    diff = np.minimum(diff, 2.0 * math.pi - diff)
    return diff.max(axis=-1)


def max_mana_coherent(dim, grid: int | None = None, refine_iters: int = 200) -> SearchResult:
    """Exhaustive-then-refine search for the largest coherent-state mana.

    Evaluates the full uniform grid, refines the local grid maxima in
    lockstep by coordinate-wise golden-section ascent, keeps all refined
    optima within 1e-6 of the best, and deduplicates by angular distance
    < 1e-3.  grid (default DEFAULT_GRIDS[d]) is an integer >= 8 and
    refine_iters an integer >= 0.
    """
    d = capped(_dim(dim), "grid search")
    grid = DEFAULT_GRIDS[d] if grid is None else _check_count("grid", grid, least=8)
    refine_iters = _check_count("refine_iters", refine_iters, least=0)
    obj = _CoherentObjective(d)
    naxes = d - 1
    axis = 2.0 * math.pi * np.arange(grid) / grid
    values = obj.grid(axis)

    local_max = values >= _wrap_box_max(values)
    cand_idx = np.argwhere(local_max)
    cand_vals = values[local_max]
    order = np.argsort(cand_vals)[::-1]
    cand_idx = cand_idx[order][:128]

    xs, vs, sweeps = _refine(obj, axis[cand_idx], 2.0 * math.pi / grid, refine_iters)
    refined = [(float(v), tuple(x)) for v, x in zip(vs, xs)]

    best = max(v for v, _ in refined)
    # each candidate, in sorted order, against all phase vectors kept before it at once
    unique = np.empty((len(refined), naxes))
    count = 0
    for x in sorted(x for v, x in refined if best - v <= 1e-6):
        if (_angular_distance(x, unique[:count]) >= 1e-3).all():
            unique[count] = x
            count += 1
    argmax = tuple(PhaseVector(d, x) for x in unique[:count])
    return SearchResult(best, argmax, obj.evaluations, grid, int(sweeps.max()))


def mutual_mana_coherent_equals_mana(theta: PhaseVector, spec) -> tuple[float, float]:
    """(mutual mana of the beamsplitter output, mana of the coherent input).

    The beamsplitter conserves total magic and, for beta*delta != 0 with a
    vacuum ancilla, leaves both output marginals maximally mixed, so the two
    numbers agree for every theta.  The dimension is theta's, and spec.dim
    must match it.
    """
    check_beta_delta(spec)
    psi = PureVector(theta.dim, theta.amplitudes())
    rho_in = psi.density()
    return mutual_mana(beamsplitter_output(spec, rho_in)), mana(rho_in)
