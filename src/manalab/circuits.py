"""Clifford gates, generalized discrete beamsplitters, and their covariance.

A 2x2 integer matrix G = ((alpha, beta), (gamma, delta)) with det G != 0
mod d induces the permutation unitary

    B_G |j1, j2> = |g (delta j1 - gamma j2),  g (alpha j2 - beta j1)>,

g = (det G)^(-1) mod d.  B_G is Clifford: it maps displacement-operator
pairs to displacement-operator pairs,

    B_G (D(k1,l1) x D(k2,l2)) B_G^dag
        = D(g(delta k1 - gamma k2), alpha l1 + beta l2)
          x D(g(alpha k2 - beta k1), delta l2 + gamma l1),

and the same index map transports phase-space point operators.  Pulling a
single-side point operator through B_G expands it in displacement pairs:

    B_G^dag (A(k,l) x 1) B_G
        = (1/d) sum_{m,n} w^(lm-kn) D(alpha m, g delta n) x D(beta m, -g gamma n)
    B_G^dag (1 x A(k,l)) B_G
        = (1/d) sum_{m,n} w^(lm-kn) D(gamma m, -g beta n) x D(delta m, g alpha n)

(the side-b series follows from S B_G = B_G' with G' = ((gamma, delta),
(alpha, beta)); both series are verified entrywise against dense
conjugation in the test suite).  With a vacuum ancilla and beta*delta != 0,
expectations of the pulled-back operators collapse onto single diagonal
entries of the input state:

    tr((rho x |0><0|) B_G^dag (A(k,l) x 1) B_G) = rho[j0, j0],
        j0 =  k delta^(-1) det G  (mod d)
    tr((rho x |0><0|) B_G^dag (1 x A(k,l)) B_G) = rho[j1, j1],
        j1 = -k beta^(-1)  det G  (mod d).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BetaDeltaZero, SingularG, UnknownGate
from .phasespace import PhasePoint, _dim, _integer, _point, omega_power, tau_power, weyl_stack
from .states import DensityState, conjugate, named_state, tensor


@dataclass(frozen=True)
class BeamsplitterSpec:
    """Beamsplitter parameters: dimension, 2x2 matrix mod d, inverse determinant."""

    dim: int
    g_matrix: tuple[tuple[int, int], tuple[int, int]]

    def __post_init__(self):
        d = _dim(self.dim)
        rows = tuple(tuple(_integer(x, "g_matrix entries") % d for x in row) for row in self.g_matrix)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("g_matrix must be 2x2")
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "g_matrix", rows)
        if self.det == 0:
            raise SingularG(f"det G = 0 mod {d} for G={rows}")

    @property
    def alpha(self) -> int:
        return self.g_matrix[0][0]

    @property
    def beta(self) -> int:
        return self.g_matrix[0][1]

    @property
    def gamma(self) -> int:
        return self.g_matrix[1][0]

    @property
    def delta(self) -> int:
        return self.g_matrix[1][1]

    @property
    def det(self) -> int:
        return (self.alpha * self.delta - self.beta * self.gamma) % self.dim

    @property
    def g(self) -> int:
        return mod_inverse(self.det, self.dim)


def mod_inverse(a: int, d: int) -> int:
    """Inverse mod prime d via Fermat exponentiation a^(d-2)."""
    a %= d
    if a == 0:
        raise ZeroDivisionError(f"{a} has no inverse mod {d}")
    return pow(a, d - 2, d)


# The four invertible qutrit parameter matrices singled out for the
# comparison study, plus the generic swap/csum forms.
QUTRIT_G = {
    "g1": ((1, 2), (0, 1)),  # controlled-SUM, control on subsystem a
    "g2": ((1, 0), (2, 1)),  # controlled-SUM, control on subsystem b
    "g3": ((0, 1), (1, 2)),
    "g4": ((2, 1), (1, 0)),
}


def swap_spec(dim) -> BeamsplitterSpec:
    return BeamsplitterSpec(dim, ((0, 1), (1, 0)))


def csum_spec(dim) -> BeamsplitterSpec:
    d = _dim(dim)
    return BeamsplitterSpec(d, ((1, d - 1), (0, 1)))


def qutrit_specs() -> dict[str, BeamsplitterSpec]:
    return {name: BeamsplitterSpec(3, g) for name, g in QUTRIT_G.items()}


def beamsplitter(spec: BeamsplitterSpec) -> np.ndarray:
    """Dense d^2 x d^2 permutation matrix for B_G: |j1, j2> goes to the k part of _weyl_image."""
    d = spec.dim
    j1, j2 = np.indices((d, d))
    r1, _, r2, _ = _weyl_image(spec, j1, 0, j2, 0)
    mat = np.zeros((d * d, d * d), dtype=complex)
    mat[r1 * d + r2, j1 * d + j2] = 1.0
    return mat


def clifford_gate(dim, name: str) -> np.ndarray:
    """One of the generating gates: z, phase, fourier (d x d), csum, swap (d^2 x d^2)."""
    d = _dim(dim)
    name = str(name).lower()
    j = np.arange(d)
    if name == "z":
        return np.diag(omega_power(d, j))
    if name == "phase":
        return np.diag(tau_power(d, j * j))
    if name == "fourier":
        return omega_power(d, np.outer(j, j)) / np.sqrt(d)
    if name == "csum":
        return beamsplitter(csum_spec(d))
    if name == "swap":
        return beamsplitter(swap_spec(d))
    raise UnknownGate(f"unknown gate {name!r}")


def _weyl_image(spec: BeamsplitterSpec, k1, l1, k2, l2):
    """(k1, l1, k2, l2) of B_G (D(k1,l1) x D(k2,l2)) B_G^dag, for ints or integer arrays."""
    d = spec.dim
    a, b, c, dl, g = spec.alpha, spec.beta, spec.gamma, spec.delta, spec.g
    return (
        (g * (dl * k1 - c * k2)) % d,
        (a * l1 + b * l2) % d,
        (g * (a * k2 - b * k1)) % d,
        (dl * l2 + c * l1) % d,
    )


def conjugate_weyl(spec: BeamsplitterSpec, p1, p2) -> tuple[PhasePoint, PhasePoint]:
    """Index map of B_G (D_p1 x D_p2) B_G^dag; the phase is exactly 1."""
    k1, l1, k2, l2 = _weyl_image(spec, *_point(p1, spec.dim), *_point(p2, spec.dim))
    return PhasePoint(k1, l1), PhasePoint(k2, l2)


def phase_permutation(spec: BeamsplitterSpec) -> np.ndarray:
    """conjugate_weyl as a permutation of the d^4 flat two-qudit phase-space indices.

    Index ((k1*d + l1)*d + k2)*d + l2 maps to the index of the image pair.
    B_G is a Clifford permutation commuting with parity, so it maps D(p) to
    D(Sp) and A(p) to A(Sp): an output table is its input table moved by
    this map, out[perm] = in (Gross, J. Math. Phys. 47, 122107 (2006)).
    """
    d = spec.dim
    k1, l1, k2, l2 = _weyl_image(spec, *np.indices((d, d, d, d)))
    return (((k1 * d + l1) * d + k2) * d + l2).ravel()


def heisenberg_pullback(spec: BeamsplitterSpec, side: str, pt) -> np.ndarray:
    """B_G^dag (A(k,l) x 1) B_G (side 'a') or B_G^dag (1 x A(k,l)) B_G (side 'b').

    Built from the displacement-pair series; equals the dense conjugation to
    machine precision.
    """
    d = spec.dim
    k, l = _point(pt, d)
    a, b, c, dl, g = spec.alpha, spec.beta, spec.gamma, spec.delta, spec.g
    ds = weyl_stack(d)
    out = np.zeros((d * d, d * d), dtype=complex)
    for m in range(d):
        for n in range(d):
            w = omega_power(d, l * m - k * n)
            if side == "a":
                left = ds[(a * m) % d, (g * dl * n) % d]
                right = ds[(b * m) % d, (-g * c * n) % d]
            elif side == "b":
                left = ds[(c * m) % d, (-g * b * n) % d]
                right = ds[(dl * m) % d, (g * a * n) % d]
            else:
                raise ValueError("side must be 'a' or 'b'")
            out += w * np.kron(left, right)
    return out / d


def check_beta_delta(spec: BeamsplitterSpec) -> None:
    """BetaDeltaZero unless beta*delta != 0 mod d, the hypothesis of Proposition 3 and of full conversion."""
    if (spec.beta * spec.delta) % spec.dim == 0:
        raise BetaDeltaZero(f"beta*delta = {spec.beta}*{spec.delta} = 0 mod {spec.dim}")


def prop3_expectation(rho: DensityState, spec: BeamsplitterSpec, side: str, pt) -> float:
    """tr((rho x |0><0|) B_G^dag (A x 1 or 1 x A) B_G) for beta*delta != 0.

    Computed as the dense trace; equals the diagonal entry rho[j0,j0]
    (side 'a') or rho[j1,j1] (side 'b') with the indices in the module
    docstring.
    """
    check_beta_delta(spec)
    d = spec.dim
    if rho.dims != (d,):
        raise ValueError(f"need a single {d}-dim state, got dims {rho.dims}")
    big = np.kron(rho.matrix, named_state("basis", [0], dim=d).density().matrix)
    op = heisenberg_pullback(spec, side, pt)
    return float(np.trace(big @ op).real)


def prop3_index(spec: BeamsplitterSpec, side: str, k: int) -> int:
    """Predicted diagonal index j0/j1 for the vacuum-ancilla expectation."""
    check_beta_delta(spec)
    d = spec.dim
    if side == "a":
        return (k * mod_inverse(spec.delta, d) * spec.det) % d
    if side == "b":
        return (-k * mod_inverse(spec.beta, d) * spec.det) % d
    raise ValueError("side must be 'a' or 'b'")


def apply_beamsplitter(spec: BeamsplitterSpec, rho_in: DensityState) -> np.ndarray:
    """The matrix of a two-qudit state conjugated by B_G."""
    return conjugate(beamsplitter(spec), rho_in).matrix


def beamsplitter_output(spec: BeamsplitterSpec, rho: DensityState) -> DensityState:
    """B_G (rho x |0><0|) B_G^dag: a single-qudit input with the vacuum ancilla."""
    if rho.dims != (spec.dim,):
        raise ValueError(f"B_G at d={spec.dim} takes a single {spec.dim}-level input, got dims {rho.dims}")
    vacuum = named_state("basis", [0], dim=spec.dim).density()
    return conjugate(beamsplitter(spec), tensor(rho, vacuum))
