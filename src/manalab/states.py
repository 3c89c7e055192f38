"""State constructors, density-operator algebra, Wigner reconstruction and stabilizer enumeration.

The named qutrit states studied throughout the package:

    strange   |S> = (|1> - |2>)/sqrt(2)
    norrell   |N> = (-|0> + 2|1> - |2>)/sqrt(6)
    t         |T> = (e^{i 2pi/9}|0> + |1> + e^{-i 2pi/9}|2>)/sqrt(3)
    h         |H> = ((1+sqrt3)|0> + |1> + e^{-i 2pi/9}|2>)/sqrt(2(3+sqrt3))
    h_fourier       ((1+sqrt3)|0> + |1> + |2>)/sqrt(2(3+sqrt3))

h and h_fourier share their amplitude magnitudes but differ in one phase:
h_fourier is the +1 eigenstate of the Fourier gate, and it is the variant
whose noisy-mana curve the comparison table and its thresholds describe; h
carries a relative ninth-root phase on |2> and is the variant the long
closed-form L1/Renyi expressions correspond to.  See the README.

Pure stabilizer states for prime d are enumerated as the d+1 mutually
unbiased eigenbases of the Weyl operators: the computational basis plus, for
each r in Z_d, the basis v_n = omega^(inv2*r*n^2 + b*n)/sqrt(d) with
inv2 = (d+1)/2, giving d(d+1) states in total.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadParamCount,
    NegativeEigenvalue,
    NotBipartite,
    ParamOutOfRange,
    UnknownState,
)
from .phasespace import WignerTable, _dim, _from_wigner, _integer_dims, capped, omega_power

# Validation tolerances: hermiticity/trace soft at 1e-10, eigenvalue hard
# floor at -1e-8 (roundoff from products of unitaries is clipped above it).
HERM_TOL = 1e-10
EIG_FLOOR = -1e-8


def _projector_traces(amps: np.ndarray) -> np.ndarray:
    """Tr |a><a| = sum_k a_k conj(a_k), complex, for each amplitude row a of amps (..., D)."""
    return (amps * amps.conj()).sum(axis=-1)


@dataclass(frozen=True)
class PureVector:
    """A normalized state vector: dim amplitudes, its projector's trace within HERM_TOL / 2 of 1.

    That is the trace check_density tests, with half its tolerance: the
    projector and each noisy mixture p|psi><psi| + (1-p) 1/d, whose trace
    deviates p times as much plus rounding, pass check_density.  dim takes
    the rule of DensityState's dims entries, an integer of at least 1.  The
    amplitudes are a read-only copy of a 1-D array; any other shape raises
    ValueError.
    """

    dim: int
    amplitudes: np.ndarray

    def __post_init__(self):
        (dim,) = _integer_dims((self.dim,))
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (dim,):
            raise ValueError(f"expected {dim} amplitudes, got {amps.shape}")
        trace = _projector_traces(amps)
        if not abs(trace - 1.0) <= HERM_TOL / 2:  # a NaN trace fails too
            norm = float(np.linalg.norm(amps))
            raise ValueError(f"vector norm {norm} deviates from 1: its projector's trace is {trace.real}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dim", dim)

    def density(self, dims=None) -> "DensityState":
        dims = (self.dim,) if dims is None else tuple(dims)
        return DensityState(dims, np.outer(self.amplitudes, self.amplitudes.conj()))


def check_density(mats: np.ndarray) -> None:
    """Require Hermitian, unit-trace, positive matrices: one (D, D) or a stack (..., D, D).

    Raises ValueError for a Hermiticity deviation (the stack's largest) or a
    trace (the first) beyond HERM_TOL, NegativeEigenvalue for the stack's
    lowest eigenvalue below EIG_FLOOR.
    """
    with np.errstate(invalid="ignore"):  # inf - inf is NaN
        herm = float(np.abs(mats - mats.conj().swapaxes(-1, -2)).max())
    if not herm <= HERM_TOL:  # a NaN or infinite entry fails too
        raise ValueError(f"matrix is not Hermitian (deviation {herm:.3e})")
    traces = np.ravel(mats.trace(axis1=-2, axis2=-1))
    bad = np.flatnonzero(~(np.abs(traces - 1.0) <= HERM_TOL))  # a NaN trace fails too
    if len(bad):
        raise ValueError(f"trace is {traces[bad[0]].item()}, not 1")
    lo = float(np.linalg.eigvalsh(mats).min())
    if lo < EIG_FLOOR:
        raise NegativeEigenvalue(f"eigenvalue {lo:.3e} below {EIG_FLOOR}")


@dataclass(frozen=True)
class DensityState:
    """Positive unit-trace operator tagged with its subsystem dimensions; matrix is a read-only copy."""

    dims: tuple[int, ...]
    matrix: np.ndarray
    validate: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self):
        dims = _integer_dims(self.dims)
        mat = np.array(self.matrix, dtype=complex)
        total = math.prod(dims)
        if mat.shape != (total, total):
            raise ValueError(f"matrix shape {mat.shape} != ({total},{total})")
        if self.validate:
            check_density(mat)
        mat.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", mat)

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


def reconstruct(table: WignerTable) -> DensityState:
    """Rebuild the density state rho = sum_p W(p) A_p1 x A_p2 x ... ."""
    flat = table.values.reshape([d * d for d in table.dims])
    return DensityState(table.dims, _from_wigner(flat, table.dims))


def maximally_mixed(dim, subsystems: int = 1) -> DensityState:
    d = _dim(dim)
    total = d**subsystems
    return DensityState((d,) * subsystems, np.eye(total, dtype=complex) / total)


def coherent_amplitudes(thetas) -> np.ndarray:
    """(1, e^{i theta_1}, ..., e^{i theta_{d-1}})/sqrt(d) for each row of a (..., d-1) block of phases."""
    thetas = np.asarray(thetas, dtype=float)
    n = thetas.shape[-1] + 1
    amps = np.empty(thetas.shape[:-1] + (n,), dtype=complex)
    amps[..., 0] = 1.0 / math.sqrt(n)  # 1 times 1/sqrt(n), with a +0.0 imaginary part
    amps[..., 1:] = coherent_phases(thetas, n)
    return amps


def coherent_phases(thetas, d: int) -> np.ndarray:
    """e^{i theta} / sqrt(d) for each theta of an array of any shape: the entries 1.. of coherent_amplitudes."""
    return np.exp(1j * np.asarray(thetas, dtype=float)) / math.sqrt(d)


def phi_lambda_amplitudes(lams) -> np.ndarray:
    """(lambda, lambda, sqrt(1 - 2 lambda^2)) for each lambda of an array of any shape, (..., 3); unchecked."""
    lams = np.asarray(lams, dtype=float)
    amps = np.zeros(lams.shape + (3,), dtype=complex)
    amps[..., 0] = lams
    amps[..., 1] = lams
    amps[..., 2] = np.sqrt(np.maximum(1.0 - 2.0 * lams * lams, 0.0))  # 0 just past 1/sqrt(2)
    return amps


def psi_theta_amplitudes(thetas) -> np.ndarray:
    """(cos theta, sin theta, 0) for each theta of an array of any shape, (..., 3); unchecked."""
    thetas = np.asarray(thetas, dtype=float)
    amps = np.zeros(thetas.shape + (3,), dtype=complex)
    amps[..., 0] = np.cos(thetas)
    amps[..., 1] = np.sin(thetas)
    return amps


# the one-parameter qutrit families: each one formula, which named_state
# evaluates on one value after its checks and the figures on a whole axis
FAMILY_AMPLITUDES = {"phi_lambda": phi_lambda_amplitudes, "psi_theta": psi_theta_amplitudes}

_SQRT3 = math.sqrt(3.0)
# the named qutrit states without parameters, built once
_FIXED_QUTRIT_STATES = {
    "strange": PureVector(3, np.array([0.0, 1.0, -1.0], dtype=complex) / math.sqrt(2.0)),
    "norrell": PureVector(3, np.array([-1.0, 2.0, -1.0], dtype=complex) / math.sqrt(6.0)),
    "t": PureVector(3, np.array([np.exp(2j * np.pi / 9), 1.0, np.exp(-2j * np.pi / 9)], dtype=complex) / math.sqrt(3.0)),
    "h": PureVector(
        3, np.array([1.0 + _SQRT3, 1.0, np.exp(-2j * np.pi / 9)], dtype=complex) / math.sqrt(2.0 * (3.0 + _SQRT3))
    ),
    "h_fourier": PureVector(3, np.array([1.0 + _SQRT3, 1.0, 1.0], dtype=complex) / math.sqrt(2.0 * (3.0 + _SQRT3))),
}
# named states defined only at d = 3 (max_coherent and basis take any odd prime)
QUTRIT_STATES = (*_FIXED_QUTRIT_STATES, "phi_lambda", "psi_theta")
STATE_NAMES = (*QUTRIT_STATES, "max_coherent", "basis")


def named_state(name: str, params=(), dim: int | None = None) -> PureVector:
    """Build one of the named pure states; params are finite real numbers (else ParamOutOfRange).

    dim=None means the state's own dimension: 3, or the phase count + 1 for
    max_coherent.  A given dim that disagrees raises ParamOutOfRange.
    """
    params = tuple(float(x) for x in params)
    name = str(name).lower()

    def need(n):
        if len(params) != n:
            raise BadParamCount(f"{name} takes {n} parameter(s), got {len(params)}")

    if name not in STATE_NAMES:
        raise UnknownState(f"unknown state name {name!r}")
    nonfinite = [x for x in params if not math.isfinite(x)]
    if nonfinite:  # no state vector is built from it: its norm would be NaN
        raise ParamOutOfRange(f"{name} parameter {nonfinite[0]} is not finite")
    if name in QUTRIT_STATES and dim not in (None, 3):
        raise ParamOutOfRange(f"{name} is a qutrit state; dim={dim} is not 3")
    if name in _FIXED_QUTRIT_STATES:
        need(0)
        return _FIXED_QUTRIT_STATES[name]
    if name == "phi_lambda":
        need(1)
        lam = params[0]
        if not (0.0 <= lam <= 1.0 / math.sqrt(2.0) + 1e-12):
            raise ParamOutOfRange(f"lambda={lam} outside [0, 1/sqrt(2)]")
        return PureVector(3, phi_lambda_amplitudes(lam))
    if name == "psi_theta":
        need(1)
        return PureVector(3, psi_theta_amplitudes(params[0]))
    if name == "max_coherent":
        d = len(params) + 1
        if dim not in (None, d):
            raise ParamOutOfRange(f"max_coherent with {len(params)} phases has dimension {d}, not dim={dim}")
        try:
            _dim(d)
        except ValueError as exc:
            raise ParamOutOfRange(f"{len(params)} phases do not fit an odd prime dimension") from exc
        return PureVector(d, coherent_amplitudes(params))
    # basis
    need(1)
    j = params[0]
    d = _dim(3 if dim is None else dim)
    if not (j.is_integer() and 0 <= j < d):
        raise ParamOutOfRange(f"basis index {j} is not an integer in [0, {d})")
    return PureVector(d, np.eye(d, dtype=complex)[int(j)])


def noisy_mix(psi: PureVector, p: float) -> DensityState:
    """Depolarized pure state p|psi><psi| + (1-p) 1/d."""
    return DensityState((psi.dim,), noisy_matrices(psi.amplitudes, p))


def check_noise(p) -> np.ndarray:
    """p (one noise value or an array of them) as floats; ParamOutOfRange names the first outside [0, 1]."""
    p = np.asarray(p, dtype=float)
    bad = p[~((p >= 0.0) & (p <= 1.0))]  # NaN fails both comparisons
    if bad.size:
        raise ParamOutOfRange(f"p={float(bad[0])} outside [0, 1]")
    return p


def _row_noise(amps: np.ndarray, p) -> np.ndarray:
    """check_noise(p) for amplitude rows amps (..., d); ValueError unless p is one value or one per row."""
    p = check_noise(p)
    if p.ndim and p.shape != amps.shape[:-1]:
        raise ValueError(f"noise of shape {p.shape} is neither one value nor one per amplitude row {amps.shape[:-1]}")
    return p


def noisy_matrices(amps: np.ndarray, p) -> np.ndarray:
    """p|psi><psi| + (1-p) 1/d for each amplitude row of amps, shape (..., d) -> (..., d, d).

    p is one noise value for every row or one per row, shape (...,); any
    other shape raises ValueError.  The mixtures are evaluated
    component-major, in place in a C-order (d, d, ...) array with the rows
    last, so each numpy loop runs over the rows rather than over d entries;
    the result is its (..., d, d) transposed view.  Each entry has the bits
    of the row-major formula p * (a a^dag) + (1 - p) * eye / d: the in-place
    product and sum only swap the operands of commutative operations.
    """
    p = _row_noise(amps, p)
    d = amps.shape[-1]
    batch = tuple(range(amps.ndim - 1))
    a = amps.transpose(-1, *batch)  # (d, ...)
    eye = np.eye(d).reshape((d, d) + (1,) * len(batch))
    mixed = np.multiply(a[:, None], a[None, :].conj(), order="C")
    mixed *= p
    mixed += (1.0 - p) * eye / d  # on every entry: an off-diagonal -0.0 part becomes +0.0
    return mixed.transpose(*(axis + 2 for axis in batch), 0, 1)


@dataclass(frozen=True)
class NoisyRows:
    """Checked inputs p|psi><psi| + (1-p) 1/d: amplitude rows (..., d) and p, one value or one per row.

    Each row passes PureVector's rule (its projector's trace within
    HERM_TOL / 2 of 1), tested for all rows at once; ValueError names the
    first row that fails.  p passes check_noise and has shape () or the
    rows' (...,); ValueError names both shapes.  By PureVector's margin
    every mixture then passes check_density, so a consumer may skip it.
    Both arrays are read-only copies.
    """

    amplitudes: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        row_traces = _projector_traces(amps).ravel()
        failed = np.flatnonzero(~(np.abs(row_traces - 1.0) <= HERM_TOL / 2))  # a NaN trace fails too
        if len(failed):
            row = failed[0]
            trace = row_traces[row].real
            raise ValueError(f"amplitude row {row} has projector trace {trace}, not within {HERM_TOL / 2} of 1")
        p = np.array(_row_noise(amps, self.p))
        amps.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "p", p)

    def matrices(self) -> np.ndarray:
        """The (..., d, d) mixtures, noisy_matrices(amplitudes, p)."""
        return noisy_matrices(self.amplitudes, self.p)


def tensor(a: DensityState, b: DensityState) -> DensityState:
    """Kronecker product; subsystem a indexes the slower-varying axis."""
    return DensityState(a.dims + b.dims, np.kron(a.matrix, b.matrix), validate=False)


def conjugate(u: np.ndarray, rho: DensityState) -> DensityState:
    """Unitary image u rho u^dag with rho's dims; a unitary keeps the state valid."""
    return DensityState(rho.dims, u @ rho.matrix @ u.conj().T, validate=False)


def partial_trace(rho: DensityState, keep) -> DensityState:
    """Reduce a bipartite state to one subsystem (keep 0/'a' or 1/'b')."""
    if len(rho.dims) != 2:
        raise NotBipartite(f"state has {len(rho.dims)} subsystems, need 2")
    # True == 1 and 1.0 == 1 would find an int key, so only a str or a non-bool int is looked up
    lookup = isinstance(keep, (str, numbers.Integral)) and not isinstance(keep, bool)
    keep = {"a": 0, "b": 1, 0: 0, 1: 1}.get(keep) if lookup else None
    if keep is None:
        raise ValueError("keep must be 'a'/'b'/0/1")
    da, db = rho.dims
    r4 = rho.matrix.reshape(da, db, da, db)
    if keep == 0:
        red = np.einsum("ajbj->ab", r4)
        return DensityState((da,), red)
    red = np.einsum("jajb->ab", r4)
    return DensityState((db,), red)


def enumerate_stabilizer_pure(dim) -> list[PureVector]:
    """All d(d+1) pure stabilizer states for odd prime d up to the local-dimension cap.

    Computational basis plus the d mutually unbiased Weyl eigenbases.
    """
    d = capped(_dim(dim), "stabilizer enumeration")
    inv2 = (d + 1) // 2  # inverse of 2 mod d
    r, b, n = np.indices((d, d, d))
    mubs = omega_power(d, inv2 * r * n * n + b * n).reshape(d * d, d) / math.sqrt(d)
    return [PureVector(d, amps) for amps in np.concatenate([np.eye(d, dtype=complex), mubs])]


def random_pure(d: int, rng: np.random.Generator) -> PureVector:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureVector(d, v / np.linalg.norm(v))


def random_density(d: int, rng: np.random.Generator, rank: int | None = None) -> DensityState:
    """Ginibre-induced random mixed state of full (or given) rank."""
    rank = d if rank is None else rank
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    mat = g @ g.conj().T
    return DensityState((d,), mat / np.trace(mat).real)


# --- JSON state format -----------------------------------------------------
#
# {"dims": [d, ...], "kind": "pure"|"mixed", "data": ...} where data is one
# array of [re, im] pairs of JSON numbers: a vector of pairs for "pure",
# row-major rows of pairs for "mixed".  The kind fixes only the array's rank.


def state_to_json(state) -> str:
    if isinstance(state, PureVector):
        dims, kind, values = [state.dim], "pure", state.amplitudes
    elif isinstance(state, DensityState):
        dims, kind, values = list(state.dims), "mixed", state.matrix
    else:
        raise TypeError(f"cannot serialize {type(state)!r}")
    pairs = np.stack([values.real, values.imag], axis=-1)
    return json.dumps({"dims": dims, "kind": kind, "data": pairs.tolist()})


def state_from_json(text: str) -> DensityState:
    """Parse the JSON state format; pure vectors are returned as projectors."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("state file must hold a JSON object")
    missing = [key for key in ("dims", "kind", "data") if key not in doc]
    if missing:
        raise ValueError(f"state file lacks key(s): {', '.join(missing)}")
    kind = doc["kind"]
    if kind not in ("pure", "mixed"):
        raise ValueError(f"unknown state kind {kind!r}")
    rank = 2 if kind == "pure" else 3
    try:
        dims = _integer_dims(doc["dims"])
    except TypeError as exc:
        raise ValueError(f"malformed state file: {exc}") from exc
    pairs = np.asarray(doc["data"])  # ragged or too deeply nested data raises ValueError
    if pairs.dtype.kind not in "biuf":  # strings, null, objects and integers beyond 64 bits are not numeric here
        raise ValueError("state data holds a value that is not a number, or an integer beyond 64 bits")
    if pairs.ndim != rank or pairs.shape[-1] != 2:
        raise ValueError(f"{kind} state data must be an array of rank {rank} of [re, im] number pairs")
    pairs = np.ascontiguousarray(pairs, dtype=float)
    if not np.isfinite(pairs).all():
        raise ValueError("state data holds a non-finite number (NaN or Infinity)")
    data = pairs.view(complex)[..., 0]  # each pair's bits as complex(re, im), a -0.0 part kept
    if kind == "pure":
        return PureVector(math.prod(dims), data).density(dims)
    return DensityState(dims, data)
