"""Heisenberg-Weyl operators and discrete Wigner transforms for odd prime d.

The qudit shift and clock operators X, Z (X|j> = |j+1 mod d>, Z|j> = w^j|j>,
w = exp(2*pi*i/d)) generate the displacement operators

    D(k,l) = tau^(k*l) X^k Z^l,        tau = -exp(i*pi/d),

which obey D(k,l) D(s,t) = tau^(l*s - k*t) D(k+s, l+t).  The phase-space
point operators

    A(0,0) = (1/d) sum_{k,l} D(k,l),   A(k,l) = D(k,l) A(0,0) D(k,l)^dag
           = (1/d) sum_{m,n} w^(l*m - k*n) D(m,n)

form a Hermitian, trace-one, orthogonal (tr A_p A_q = d delta_pq), complete
basis, and the discrete Wigner function of a state rho is

    W(k,l) = tr(rho A(k,l)) / d,

extended to multi-qudit systems with tensor products of point operators and
the prefactor 1/(d_1 ... d_n).

All phases are built from exact integer exponents reduced mod 2d and
exponentiated once, so operator identities hold to machine epsilon.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLarge, ImaginaryResidue

# largest imaginary part a Wigner value may carry before ImaginaryResidue
REAL_ERROR_TOL = 1e-8
# the largest d whose d x d complex matrix numpy can address (sys.maxsize bytes)
MAX_DIM = math.isqrt(sys.maxsize // 16)
# the largest local dimension the stabilizer enumeration, the coherent search
# and the measure command take: their cost grows as about d^6 or faster
DIM_CAP = 7


def is_odd_prime(n: int) -> bool:
    if n < 3 or n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _integer(value, what: str) -> int:
    """value as an int: 3, 3.0 and numpy ints pass; 1.7, True, "3" or None raise ValueError naming it."""
    integral = isinstance(value, numbers.Integral) or isinstance(value, numbers.Real) and float(value).is_integer()
    if isinstance(value, bool) or not integral:
        raise ValueError(f"{what} must be integers, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class PhasePoint:
    """A discrete phase-space point (k, l) with residues mod d."""

    k: int
    l: int

    def __post_init__(self):
        k, l = _integer(self.k, "phase point indices"), _integer(self.l, "phase point indices")
        if k < 0 or l < 0:
            raise ValueError(f"phase point indices must be nonnegative, got {self}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "l", l)


def _dim(dim) -> int:
    """dim as an int: an int or numpy integer that is an odd prime 3 <= d <= MAX_DIM, else ValueError."""
    # a larger d is refused before is_odd_prime's sqrt(d) / 2 trial divisions
    if not isinstance(dim, (int, np.integer)) or dim > MAX_DIM or not is_odd_prime(int(dim)):
        raise ValueError(f"dimension must be an odd prime from 3 to {MAX_DIM}, got {dim!r}")
    return int(dim)


def capped(d: int, what: str) -> int:
    """d, or DimensionTooLarge naming the capped routine `what` if d exceeds DIM_CAP."""
    if d > DIM_CAP:
        raise DimensionTooLarge(f"{what} capped at local dimension {DIM_CAP}, got {d}")
    return d


def _integer_dims(dims) -> tuple[int, ...]:
    """Subsystem dimensions as ints, by _integer's rule, at least one of them, each at least 1, else ValueError."""
    dims = tuple(_integer(d, "dims entries") for d in dims)
    if not dims:
        raise ValueError("dims must list at least one subsystem")
    if any(d < 1 for d in dims):
        raise ValueError(f"dims entries must be at least 1, got {dims}")
    return dims


def _point(pt, d: int) -> tuple[int, int]:
    """pt's (k, l) below d; a pt that is not a PhasePoint becomes one from exactly two entries."""
    if not isinstance(pt, PhasePoint):
        if len(pt) != 2:
            raise ValueError(f"a phase point has two entries, got {pt!r}")
        pt = PhasePoint(*pt)
    if not (pt.k < d and pt.l < d):
        raise ValueError(f"phase point {(pt.k, pt.l)} out of range for d={d}")
    return pt.k, pt.l


def _exponent(exponent):
    """An int, or an integer array; a float or any other array raises TypeError."""
    if isinstance(exponent, numbers.Integral):
        return exponent
    array = np.asarray(exponent)
    if array.dtype.kind not in "iu":
        raise TypeError(f"phase exponents must be integers, got dtype {array.dtype}")
    return array


def tau_power(d: int, exponent):
    """tau^exponent with tau = -exp(i*pi/d), for an int or an integer array; exact in the exponent mod 2d."""
    m = (_exponent(exponent) * (d + 1)) % (2 * d)  # a Python int stays exact at any size
    power = np.exp(1j * (np.pi * m / d))  # a real quotient: complex division by d can miss by an ulp
    return complex(power) if power.ndim == 0 else power


def omega_power(d: int, exponent):
    """omega^exponent with omega = exp(2*pi*i/d) = tau^2, for an int or an integer array."""
    return tau_power(d, 2 * _exponent(exponent))


def weyl(dim, pt) -> np.ndarray:
    """Displacement operator D(k,l) as a dense d x d unitary."""
    d = _dim(dim)
    k, l = _point(pt, d)
    return weyl_stack(d)[k, l].copy()


_TABLE_LOCK = threading.Lock()


def _table(*rules):
    """Memoize a table formula, evaluated once per key on the key; one rule per argument makes the key.

    The rules run before the lookup, so a call raises what they raise
    whatever is cached.  Each array is read-only, and dict.setdefault makes
    the first writer win under concurrent first use.
    """

    def memo(formula):
        tables = {}

        @functools.wraps(formula)
        def table(*args):
            key = tuple(rule(arg) for rule, arg in zip(rules, args, strict=True))
            found = tables.get(key)
            if found is None:
                fresh = formula(*key)
                fresh.setflags(write=False)
                with _TABLE_LOCK:
                    found = tables.setdefault(key, fresh)
            return found

        return table

    return memo


@_table(_dim)
def weyl_stack(d: int) -> np.ndarray:
    """All d^2 displacement operators as an array of shape (d, d, d, d).

    Entry [k, l] is D(k,l); D(k,l)[(j+k) mod d, j] = tau^(k*l + 2*l*j).
    """
    k, l, j = np.indices((d, d, d))
    stack = np.zeros((d, d, d, d), dtype=complex)
    stack[k, l, (j + k) % d, j] = tau_power(d, k * l + 2 * l * j)
    return stack


@_table(_dim)
def phase_point_stack(d: int) -> np.ndarray:
    """All d^2 phase-space point operators, shape (d, d, d, d), entry [k, l]."""
    k, l, m, n = np.indices((d, d, d, d))
    return np.einsum("klmn,mnij->klij", omega_power(d, l * m - k * n), weyl_stack(d)) / d


def _kernel(stack: np.ndarray) -> np.ndarray:
    """K[(i, j), p] = O_p[j, i] for a (d, d, d, d) operator stack: tr(rho O_p) = (rho_flat @ K)[p].

    It is the C-contiguous operand np.tensordot forms from the (d^2, d, d)
    stack for a contraction over the stack's axes [2, 1]; cached, it is
    formed once per d.
    """
    d = stack.shape[-1]
    return np.ascontiguousarray(stack.reshape(d * d, d, d).transpose(2, 1, 0).reshape(d * d, d * d))


@_table(_dim)
def weyl_kernel(d: int) -> np.ndarray:
    """The displacement operators as one (d^2, d^2) matrix, K[(i, j), p] = D_p[j, i]."""
    return _kernel(weyl_stack(d))


@_table(_dim)
def point_kernel(d: int) -> np.ndarray:
    """The phase-space point operators as one (d^2, d^2) matrix, K[(i, j), p] = A_p[j, i]."""
    return _kernel(phase_point_stack(d))


def phase_point_operator(dim, pt) -> np.ndarray:
    """Phase-space point operator A(k,l); Hermitian with unit trace."""
    d = _dim(dim)
    k, l = _point(pt, d)
    return phase_point_stack(d)[k, l].copy()


@dataclass(frozen=True)
class WignerTable:
    """Real quasi-probability table, one (k, l) index pair per subsystem.

    values has shape (d1, d1) for a single system and (d1, d1, d2, d2, ...)
    in general, indexed [k1, l1, k2, l2, ...]; the entries sum to 1.
    values is a read-only copy.
    """

    dims: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        dims = _integer_dims(self.dims)
        object.__setattr__(self, "dims", dims)
        vals = np.array(self.values, dtype=float)
        expected = tuple(x for d in dims for x in (d, d))
        if vals.shape != expected:
            raise ValueError(f"values shape {vals.shape} != {expected} for dims {dims}")
        total = vals.sum()
        if not abs(total - 1.0) <= 1e-8:  # a NaN total fails too
            raise ValueError(f"Wigner table sums to {total}, not 1")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def abs_sum(self) -> float:
        return float(np.abs(self.values).sum())


def _kernel_transform(mat: np.ndarray, dims: tuple[int, ...], kernels) -> np.ndarray:
    """Contract rho against one operator kernel per subsystem.

    mat is one D x D matrix or a stack of them, shape (..., D, D).  kernels[i]
    is point_kernel(d_i) or weyl_kernel(d_i); the result keeps mat's leading
    axes, then has one length-d_i^2 axis per subsystem holding
    tr(rho O_p1 x O_p2 ...).  Each subsystem is np.tensordot's own steps on
    the operands it would form: its (r, c) axes moved to the end, a reshape
    to (M, d_i^2) and one np.dot with the cached kernel, so every value has
    tensordot's bits.
    """
    n = len(dims)
    nb = mat.ndim - 2
    t = mat.reshape(mat.shape[:nb] + dims + dims)
    # interleave to (batch..., r1, c1, r2, c2, ...)
    t = t.transpose([*range(nb)] + [nb + x for i in range(n) for x in (i, n + i)])
    for kernel in kernels:
        # (batch..., r, c, rest...) -> (batch..., rest..., r, c)
        t = t.transpose([*range(nb), *range(nb + 2, t.ndim), nb, nb + 1])
        kept = t.shape[:-2]
        t = np.dot(t.reshape(math.prod(kept), len(kernel)), kernel).reshape(kept + kernel.shape[1:])
    return t


def _wigner_values(mat: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """tr(rho A_p1 x A_p2 ...) / D for one matrix or a stack (..., D, D).

    Real array with the _kernel_transform axes; raises ImaginaryResidue if
    any trace carries imaginary weight above 1e-8 (non-Hermitian input).
    """
    table = _kernel_transform(mat, dims, [point_kernel(d) for d in dims]) / math.prod(dims)
    worst = float(np.abs(table.imag).max())
    if worst > REAL_ERROR_TOL:
        raise ImaginaryResidue(f"max |Im tr(rho A)| = {worst:.3e} exceeds {REAL_ERROR_TOL}")
    return table.real


def _char_values(mat: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """tr(rho D_p1 x D_p2 ...) for one matrix or a stack (..., D, D)."""
    return _kernel_transform(mat, dims, [weyl_kernel(d) for d in dims])


def _from_wigner(values: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """Inverse of _wigner_values: sum_p W(p) A_p1 x A_p2 ... as (..., D, D) matrices.

    values has shape (..., d1^2, d2^2, ...).
    """
    n = len(dims)
    nb = values.ndim - n
    t = values
    for d in dims:
        # consumes the leading p axis and appends that subsystem's (r, c)
        t = np.tensordot(t, phase_point_stack(d).reshape(d * d, d, d), axes=([nb], [0]))
    t = t.transpose([*range(nb), *(nb + 2 * i for i in range(n)), *(nb + 2 * i + 1 for i in range(n))])
    total = math.prod(dims)
    return t.reshape(*values.shape[:nb], total, total)


def wigner(rho) -> WignerTable:
    """Discrete Wigner function of a DensityState.

    Raises ImaginaryResidue if any tr(rho A) carries imaginary weight above
    1e-8 (non-Hermitian input); residues below that are discarded.
    """
    shape = tuple(x for d in rho.dims for x in (d, d))
    return WignerTable(rho.dims, _wigner_values(rho.matrix, rho.dims).reshape(shape))


def char_function(rho) -> np.ndarray:
    """Weyl characteristic function tr(rho D_p1 x D_p2 x ...) of a DensityState.

    Returns a complex array with one length-d_i^2 axis per subsystem; entry
    p = k*d + l corresponds to D(k,l).
    """
    return _char_values(rho.matrix, rho.dims)
