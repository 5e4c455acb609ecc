"""Truncated multi-mode Fock-space states and two-mode exponential unitaries.

Joint objects carry an explicit tuple of per-mode truncations and use
row-major (C-order) composite indexing: the basis state |n_0, n_1, ...>
sits at flat index n_0 * d_1 * d_2 * ... + n_1 * d_2 * ... + ... .
All state payloads are treated as immutable; every operation returns a
new object.

Beamsplitter and two-mode-squeeze unitaries are generated by exponentiating
the Hermitian pair generators (a^dag b + a b^dag) and (a^dag b^dag + a b).
The beamsplitter conserves n_a + n_b and the squeeze conserves n_a - n_b,
so each generator splits into sectors of at most min(d_a, d_b) states on
which it is tridiagonal.  The per-sector eigensystems are cached per
(dim, dim, kind), so sweeps over the angle cost a few small matmuls per
sector and never form a d_a d_b x d_a d_b matrix on a ket.  An undersized
basis shows as weight on the top shell, not as lost trace; each pipeline
measures it on its own state (see :mod:`magnomech.protocol`).  Every
module imports this one, so it holds the one check of each rule: a domain,
:func:`_require` (a [0, 1] argument included), a name from a fixed set,
:func:`_choice`, and a mode index, :func:`_mode`.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

_HERMITICITY_TOL = 1e-10
_KET_NORM_TOL = 1e-12

GENERATOR_KINDS = ("beamsplitter", "two_mode_squeeze")


class _DomainError(ValueError):
    """A ``field`` whose ``value`` breaks its domain ``rule`` (``finite and
    > 0``, say, or ``one of ('kraus', 'ancilla')``)."""

    def __init__(self, field: str, value, rule: str):
        super().__init__(f"{field} must be {rule}, got {value!r}")
        self.field, self.value, self.rule = field, value, rule


def _require(field: str, value, lo: float = 0.0, *,
             closed: bool = False, hi: float = math.inf) -> float:
    """float(value) if lo < value < inf (lo <= value when ``closed``) and
    value <= hi, else :class:`_DomainError` naming ``field``.  NaN fails
    every comparison, so it fails this one; lo = -inf asks for a finite
    value only, ``closed=True, hi=1.0`` for one in [0, 1]."""
    v = float(value)
    if not ((lo <= v if closed else lo < v) and v <= hi and v < math.inf):
        rule = f"in {'[' if closed else '('}{lo:g}, {hi:g}]" if hi < math.inf \
            else "finite" if lo == -math.inf \
            else f"finite and {'>=' if closed else '>'} {lo:g}"
        raise _DomainError(field, v, rule)
    return v


def _require_fields(spec, *names: str, lo: float = 0.0,
                    closed: bool = False) -> None:
    """Store each named field of a frozen spec as checked by :func:`_require`."""
    for name in names:
        object.__setattr__(spec, name, _require(name, getattr(spec, name), lo,
                                                closed=closed))


def _choice(field: str, value, options: tuple):
    """``value`` if it is one of ``options``, else :class:`_DomainError`."""
    if value not in options:
        raise _DomainError(field, value, f"one of {options}")
    return value


def _mode(dims: "ModeDims", mode) -> int:
    """An integer ``mode`` that indexes ``dims``, else TypeError or ValueError."""
    m = operator.index(mode)
    if not 0 <= m < dims.n_modes:
        raise ValueError(f"mode {mode} out of range")
    return m


@dataclass(frozen=True)
class ModeDims:
    """Per-mode truncation sizes of a joint Fock space."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims:
            raise ValueError("need at least one mode")
        if any(d < 2 for d in dims):
            raise ValueError(f"every mode needs dimension >= 2, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def n_modes(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        return int(np.prod(self.dims))

    def flat_index(self, occupations: Sequence[int]) -> int:
        """Row-major flat index of |n_0, n_1, ...>."""
        if len(occupations) != self.n_modes:
            raise ValueError("occupation list does not match mode count")
        for n, d in zip(occupations, self.dims):
            if not 0 <= n < d:
                raise ValueError(f"occupation {n} outside [0, {d})")
        return int(np.ravel_multi_index(tuple(occupations), self.dims))

    def drop(self, mode: int) -> "ModeDims":
        if self.n_modes < 2:
            raise ValueError("cannot drop the only mode")
        mode = _mode(self, mode)
        return ModeDims(self.dims[:mode] + self.dims[mode + 1:])


def _as_dims(dims) -> ModeDims:
    if isinstance(dims, ModeDims):
        return dims
    return ModeDims(tuple(dims))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class FockKet:
    """Pure state on a truncated multi-mode Fock space."""

    __slots__ = ("dims", "amplitudes")

    def __init__(self, dims, amplitudes):
        dims = _as_dims(dims)
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1).copy()
        if amps.size != dims.size:
            raise ValueError(
                f"amplitude vector length {amps.size} does not match "
                f"joint dimension {dims.size}"
            )
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= _KET_NORM_TOL:   # NaN fails it too
            raise ValueError(f"ket norm {norm!r} deviates from 1 beyond {_KET_NORM_TOL}")
        self.dims = dims
        self.amplitudes = _freeze(amps)

    def density_matrix(self) -> "FockDensityMatrix":
        m = np.outer(self.amplitudes, self.amplitudes.conj())
        return FockDensityMatrix(self.dims, m)

    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def _hermiticity_error(m: np.ndarray) -> float:
    """max |m - m^H|; np.max keeps a NaN, so NaN fails every bound."""
    return float(np.max(np.abs(m - m.conj().T)))


class FockDensityMatrix:
    """Density matrix on a truncated multi-mode Fock space.

    Construction checks Hermiticity and the trace bound, and rejects NaN.
    Trace may sit below 1: conditional (branch) states produced by the
    transfer pipeline are carried subnormalized on purpose.  Positivity is
    an O(d^3) check and is not made on construction.
    """

    __slots__ = ("dims", "matrix")

    def __init__(self, dims, matrix):
        dims = _as_dims(dims)
        m = np.asarray(matrix, dtype=complex).copy()
        if m.shape != (dims.size, dims.size):
            raise ValueError(
                f"matrix shape {m.shape} does not match joint dimension {dims.size}"
            )
        # each bound is written "not (value <= bound)" so that NaN fails it
        herm = _hermiticity_error(m)
        if not herm <= _HERMITICITY_TOL:
            raise ValueError(f"matrix deviates from Hermitian by {herm:.3e}")
        tr = complex(m.trace())   # plain floats in the messages
        if not abs(tr.imag) <= _HERMITICITY_TOL:
            raise ValueError(f"trace has imaginary part {tr.imag:.3e}")
        if not 0.0 < tr.real <= 1.0 + 1e-9:
            raise ValueError(f"trace {tr.real!r} outside (0, 1]")
        self.dims = dims
        self.matrix = _freeze(m)

    def trace(self) -> float:
        return float(self.matrix.trace().real)

    def populations(self) -> np.ndarray:
        """Diagonal in the joint number basis (real part)."""
        return self.matrix.diagonal().real.copy()


def vacuum(dims) -> FockDensityMatrix:
    dims = _as_dims(dims)
    m = np.zeros((dims.size, dims.size), dtype=complex)
    m[0, 0] = 1.0
    return FockDensityMatrix(dims, m)


def number_ket(dims, occupations: Sequence[int]) -> FockKet:
    dims = _as_dims(dims)
    amps = np.zeros(dims.size, dtype=complex)
    amps[dims.flat_index(occupations)] = 1.0
    return FockKet(dims, amps)


def tensor(a: FockDensityMatrix, b: FockDensityMatrix) -> FockDensityMatrix:
    """Joint state a (x) b; b's modes are appended after a's."""
    dims = ModeDims(a.dims.dims + b.dims.dims)
    return FockDensityMatrix(dims, np.kron(a.matrix, b.matrix))


def partial_trace(rho: FockDensityMatrix, mode: int) -> FockDensityMatrix:
    """Trace out one mode; remaining modes keep their relative order."""
    dims = rho.dims
    new_dims = dims.drop(mode)
    t = rho.matrix.reshape(dims.dims + dims.dims)
    t = np.trace(t, axis1=mode, axis2=dims.n_modes + mode)
    return FockDensityMatrix(new_dims, t.reshape(new_dims.size, new_dims.size))


def condition_on_vacuum(rho: FockDensityMatrix, mode: int) -> FockDensityMatrix:
    """Project one mode onto vacuum and drop it: <0|rho|0> on that mode.

    The result is the subnormalized branch state; its trace is the
    probability of finding the mode in vacuum.  Raises when that
    probability vanishes (no branch to return).
    """
    dims = rho.dims
    new_dims = dims.drop(mode)
    t = rho.matrix.reshape(dims.dims + dims.dims)
    t = np.take(np.take(t, 0, axis=dims.n_modes + mode), 0, axis=mode)
    block = t.reshape(new_dims.size, new_dims.size)
    if float(block.trace().real) <= 0.0:
        raise ValueError("vacuum branch has zero probability")
    return FockDensityMatrix(new_dims, block)


def partial_transpose(rho: FockDensityMatrix, modes) -> np.ndarray:
    """Transpose the listed mode(s); returns a plain (possibly non-PSD) matrix."""
    dims = rho.dims
    if dims.n_modes < 2:
        raise ValueError("partial transpose needs at least two modes")
    modes = sorted({_mode(dims, k) for k in np.atleast_1d(modes)})
    if not modes:
        raise ValueError("no modes given")
    nm = dims.n_modes
    t = rho.matrix.reshape(dims.dims + dims.dims)
    order = list(range(2 * nm))
    for k in modes:
        order[k], order[nm + k] = order[nm + k], order[k]
    return np.ascontiguousarray(t.transpose(order).reshape(dims.size, dims.size))


def _tridiagonal_sector(na: np.ndarray, nb: np.ndarray, off: np.ndarray,
                        db: int) -> tuple:
    """Flat indices and eigensystem of a generator block with zero diagonal."""
    w, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return _freeze(na * db + nb), _freeze(w), _freeze(v)


@functools.lru_cache(maxsize=16)
def pair_generator_eigensystem(da: int, db: int, kind: str):
    """Per-sector eigensystems of the pair generator on a da x db pair space.

    Returns one ``(flat_indices, eigenvalues, eigenvectors)`` per conserved
    sector, in order of its label: n_a + n_b = 0, 1, ..., da + db - 2 for
    the beamsplitter, n_a - n_b = -(db - 1), ..., da - 1 for the squeeze.
    ``flat_indices`` lists the sector's states |n_a, n_b> by rising n_a
    (row-major index n_a * db + n_b).  On them the generator is
    tridiagonal, and ``eigenvectors`` (real orthogonal) diagonalise it.
    """
    sectors = []
    if _choice("kind", kind, GENERATOR_KINDS) == "beamsplitter":
        # a^dag b |n_a, n_b> = sqrt((n_a + 1) n_b) |n_a + 1, n_b - 1>
        for total in range(da + db - 1):
            na = np.arange(max(0, total - db + 1), min(da, total + 1))
            nb = total - na
            off = np.sqrt((na[:-1] + 1.0) * nb[:-1])
            sectors.append(_tridiagonal_sector(na, nb, off, db))
    else:
        # a^dag b^dag |n_a, n_b> = sqrt((n_a + 1)(n_b + 1)) |n_a + 1, n_b + 1>
        for diff in range(-(db - 1), da):
            na = np.arange(max(0, diff), min(da, db + diff))
            nb = na - diff
            off = np.sqrt((na[:-1] + 1.0) * (nb[:-1] + 1.0))
            sectors.append(_tridiagonal_sector(na, nb, off, db))
    return tuple(sectors)


def two_mode_unitary(da: int, db: int, kind: str, angle: float) -> np.ndarray:
    """exp(-i * angle * K) on the pair space, K the Hermitian pair generator."""
    angle = _require("angle", angle, -math.inf)
    u = np.zeros((da * db, da * db), dtype=complex)
    for idx, w, v in pair_generator_eigensystem(int(da), int(db), kind):
        u[np.ix_(idx, idx)] = (v * np.exp(-1j * angle * w)) @ v.T
    return u


def _apply_pair_matrix(mat: np.ndarray, dims: ModeDims, i: int, j: int,
                       u: np.ndarray) -> np.ndarray:
    """Left-multiply u on ket axes (i, j) and u* on the bra axes: u mat u^H."""
    nm = dims.n_modes
    pair = dims.dims[i] * dims.dims[j]
    t = mat.reshape(dims.dims + dims.dims)
    t = np.moveaxis(t, (i, j), (0, 1))
    shp = t.shape
    t = (u @ t.reshape(pair, -1)).reshape(shp)
    t = np.moveaxis(t, (0, 1), (i, j))
    t = np.moveaxis(t, (nm + i, nm + j), (0, 1))
    shp = t.shape
    t = (u.conj() @ t.reshape(pair, -1)).reshape(shp)
    t = np.moveaxis(t, (0, 1), (nm + i, nm + j))
    return np.ascontiguousarray(t.reshape(mat.shape))


def apply_two_mode_exponential(state, mode_a: int, mode_b: int, kind: str,
                               angle: float):
    """Apply exp(-i*angle*K) coupling two modes of a ket or density matrix.

    kind="beamsplitter" uses K = a^dag b + a b^dag (occupation preserving;
    transferred amplitudes pick up -i per excitation).  kind="two_mode_squeeze"
    uses K = a^dag b^dag + a b.  The truncated exponential is exactly
    unitary, so an undersized basis shows as weight on the top shell, not
    as lost trace; measuring and judging that weight is left to the caller.

    Returns the same type as the input.
    """
    dims = state.dims
    mode_a, mode_b = _mode(dims, mode_a), _mode(dims, mode_b)
    if mode_a == mode_b:
        raise ValueError("the two modes must be distinct")
    if isinstance(state, FockKet):
        # kets never need the dense pair unitary: apply V e^{-i angle w} V^T
        # one conserved sector at a time, from the cached sector eigensystems
        angle = _require("angle", angle, -math.inf)
        pair = dims.dims[mode_a] * dims.dims[mode_b]
        t = state.amplitudes.reshape(dims.dims)
        t = np.moveaxis(t, (mode_a, mode_b), (0, 1))
        shp = t.shape
        t = t.reshape(pair, -1)
        y = np.empty_like(t)
        for idx, w, v in pair_generator_eigensystem(dims.dims[mode_a],
                                                    dims.dims[mode_b], kind):
            y[idx] = v @ (np.exp(-1j * angle * w)[:, None] * (v.T @ t[idx]))
        t = np.moveaxis(y.reshape(shp), (0, 1), (mode_a, mode_b))
        return FockKet(dims, t.reshape(-1))
    u = two_mode_unitary(dims.dims[mode_a], dims.dims[mode_b], kind, angle)
    m = _apply_pair_matrix(state.matrix, dims, mode_a, mode_b, u)
    return FockDensityMatrix(dims, m)


def apply_phase_rotation(state, mode: int, angle: float):
    """Single-mode phase rotation exp(i*angle*n) on kets or density matrices."""
    dims = state.dims
    occ = np.indices(dims.dims)[_mode(dims, mode)].reshape(-1)
    ph = np.exp(1j * _require("angle", angle, -math.inf) * occ)
    if isinstance(state, FockKet):
        return FockKet(dims, state.amplitudes * ph)
    return FockDensityMatrix(dims, state.matrix * np.outer(ph, ph.conj()))
