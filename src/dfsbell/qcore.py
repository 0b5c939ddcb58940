"""Dense state-vector primitives for few-qubit simulation.

A state is a unit vector of at most 2^8 = 256 amplitudes, qubit 1 the most
significant bit of the basis index.  A frame is a ``(..., 2, 2)`` array of
SU(2) matrices that ``check_unitary`` has passed; an entry point that takes
one frame checks it with ``check_frame``.  A wing measurement is a
matrix of bras, one row per outcome: ``turn_table`` and ``collective_turn``
turn it by U^(x4) with no U^(x4) formed, and ``joint_probs`` gives its
outcome-pair probabilities on a two-wing state.  Every turn in the package
is one ``collective_turn`` of the tables that share a stack of frames: it
builds only the monomials of their non-zero columns, once.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

# Default tolerance for analytic identities.  The constructions in this
# package use closed-form coefficients, so deviations beyond this indicate
# a real bug rather than accumulated rounding.  Checks against it read
# ``not err <= ATOL``, so that a NaN fails them.
ATOL = 1e-10

MAX_QUBITS = 8


class SizeError(ValueError):
    """Raised when an operation would exceed the supported qubit count."""


def _norm(a: np.ndarray) -> float:
    """Frobenius norm, cheaper than ``np.linalg.norm`` on small arrays."""
    return math.sqrt(np.vdot(a, a).real)


def _check_integer(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_count(name: str, value, rule: str = "must be >= 1") -> int:
    """``value`` as an int if it is an integer (not a bool or a float) of at
    least 1; otherwise ValueError, ``f"{name} {rule}"`` below 1."""
    if _check_integer(name, value) < 1:
        raise ValueError(f"{name} {rule}")
    return int(value)


def check_bits(bits) -> tuple:
    """``bits`` as a tuple of ints 0 and 1, from a string like "0101" or a
    sequence of integer bits (not bools or floats); ValueError otherwise."""
    bits = tuple(int(b) if isinstance(bits, str) else _check_integer("bit", b)
                 for b in bits)
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0 or 1")
    return bits


def check_finite(*angles) -> None:
    """Raise ValueError unless every angle is finite."""
    if not all(math.isfinite(t) for t in angles):
        raise ValueError(f"angles must be finite, got {angles}")


def _check_qubit_count(dim: int) -> None:
    """Raise SizeError unless ``dim`` is 2^n with n in 1..MAX_QUBITS."""
    n = dim.bit_length() - 1
    if dim != 2**n or not 1 <= n <= MAX_QUBITS:
        raise SizeError(f"dimension {dim} is not 2^n with n in 1..{MAX_QUBITS}")


@dataclass(frozen=True)
class QuantumState:
    """Unit vector over n qubits, qubit 1 = most significant index bit."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex)
        if a.ndim != 1:
            raise ValueError(f"amplitudes must be a vector, got shape {a.shape}")
        _check_qubit_count(a.size)
        nrm = _norm(a)
        if not abs(nrm - 1.0) <= ATOL:
            raise ValueError(f"state norm {nrm} deviates from 1 by more than {ATOL}")
        a.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)

    @property
    def n_qubits(self) -> int:
        return self.amplitudes.size.bit_length() - 1

    def overlap(self, other: "QuantumState") -> complex:
        return complex(self.amplitudes.conj() @ other.amplitudes)


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, unit-trace, positive semidefinite operator on n qubits,
    each within ATOL; ValueError otherwise."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got {m.shape}")
        _check_qubit_count(m.shape[0])
        if not np.linalg.norm(m - m.conj().T) <= ATOL:
            raise ValueError("matrix is not Hermitian within 1e-10")
        if not abs(np.trace(m).real - 1.0) <= ATOL:
            raise ValueError(f"trace {np.trace(m)} deviates from 1")
        if not np.linalg.eigvalsh(m)[0] >= -ATOL:
            raise ValueError("matrix has an eigenvalue below -1e-10")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n_qubits(self) -> int:
        return self.matrix.shape[0].bit_length() - 1


def check_unitary(u) -> np.ndarray:
    """``u`` as an array, after checking that it is a ``(..., 2, 2)`` stack of
    frames each unitary within ATOL; otherwise ValueError."""
    u = np.asarray(u)
    if u.shape[-2:] != (2, 2):
        raise ValueError(f"expected (..., 2, 2) frames, got shape {u.shape}")
    # U^dagger U - I of U = [[a, b], [c, d]] in closed form, g00 and g11 on
    # its diagonal and g01 off it; the squared Frobenius norm is err2
    a, b, c, d = u[..., 0, 0], u[..., 0, 1], u[..., 1, 0], u[..., 1, 1]
    g00 = a.real ** 2 + a.imag ** 2 + c.real ** 2 + c.imag ** 2 - 1.0
    g11 = b.real ** 2 + b.imag ** 2 + d.real ** 2 + d.imag ** 2 - 1.0
    g01 = a.conj() * b + c.conj() * d
    err2 = g00 ** 2 + g11 ** 2 + 2 * (g01.real ** 2 + g01.imag ** 2)
    if not np.all(err2 <= ATOL ** 2):
        raise ValueError("matrix is not unitary within 1e-10")
    return u


def check_frame(u) -> np.ndarray:
    """``u`` as an array, after checking that it is one (2, 2) frame that
    ``check_unitary`` passes, not a stack of them; otherwise ValueError."""
    if np.shape(u) != (2, 2):
        raise ValueError(f"expected one (2, 2) frame, got shape {np.shape(u)}")
    return check_unitary(u)


def basis_state(bits) -> QuantumState:
    """Computational basis state of the bits that ``check_bits`` passes."""
    bits = check_bits(bits)
    amplitudes = np.zeros(2 ** len(bits), dtype=complex)
    index = 0
    for b in bits:
        index = (index << 1) | b
    amplitudes[index] = 1.0
    return QuantumState(amplitudes)


def permute_qubits(s: QuantumState, perm) -> QuantumState:
    """Reorder qubits: output qubit k carries input qubit perm[k-1], for a
    bijection ``perm`` of the integers 1..n; ValueError otherwise."""
    n = s.n_qubits
    perm = tuple(_check_integer("perm label", p) for p in perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"perm {perm} is not a bijection of 1..{n}")
    axes = [p - 1 for p in perm]
    reshaped = s.amplitudes.reshape((2,) * n).transpose(axes)
    return QuantumState(reshaped.reshape(-1))


def kron(factors) -> np.ndarray:
    """Kronecker product of a sequence of ``(..., 2, 2)`` arrays, left to
    right, with leading axes broadcast."""
    factors = iter(factors)
    out = next(factors)
    for m in factors:
        out = out[..., :, None, :, None] * m[..., None, :, None, :]
        out = out.reshape(*out.shape[:-4], 2 * out.shape[-4], 2 * out.shape[-2])
    return out


def axis_rows(theta: float) -> np.ndarray:
    """The two basis bras of one qubit measured at x-z plane angle theta:
    rows (cos t, sin t) for outcome -1 and (sin t, -cos t) for +1.  Unchecked,
    so that exact tests such as test_axis_rows_quarter_turn can evaluate it
    at a sympy symbol."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [s, -c]])


def wing_bras(bras: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The contiguous (..., k, 16) ``bras @ (U^(x4))^dagger`` of (k, 16)
    ``bras`` and (..., 2, 2) frames ``u``: the bras of U^(x4)|w>, one
    ``collective_turn`` of their table, which uses all 35 monomials for
    product bras and det(U)^2's 3 for bras of sector states."""
    uh = u.conj().swapaxes(-1, -2).reshape(-1, 2, 2)
    turned = collective_turn((turn_table(bras),), uh)[0].T
    return np.ascontiguousarray(turned).reshape(*u.shape[:-2], *bras.shape)


# Each degree-4 monomial x_a x_b x_c x_d of U's entries x = (u00, u01, u10,
# u11) as its entries (a, b, c, d), a <= b <= c <= d, in lexicographic order.
_ORDER = np.array(list(itertools.combinations_with_replacement(range(4), 4)))


def _grid_table() -> np.ndarray:
    """The (35, 16, 16) 0/1 matrices T_mu of U^(x4) = sum_mu mu(U) T_mu.
    Entry (I, J) of U^(x4) is the product of the four u[i_q, j_q]: u01 on
    the qubits set in J alone, u10 in I alone and u11 in both."""
    index = {tuple(map(key.count, (1, 2, 3))): mu for mu, key in enumerate(_ORDER.tolist())}
    mu = [index[(~i & j).bit_count(), (i & ~j).bit_count(), (i & j).bit_count()]
          for i in range(16) for j in range(16)]
    t = np.zeros((35, 256), dtype=np.int8)
    t[mu, range(256)] = 1
    return t.reshape(35, 16, 16)


_T = _grid_table()


def frame_monomials(u: np.ndarray, cols) -> np.ndarray:
    """(len(cols), m) complex monomials ``cols`` (indices in ``_grid_table``'s
    order) of the (m, 2, 2) frames, frame last.  Each row is the product
    (x_a x_b)(x_c x_d) of contiguous rows of entries, elementwise over the
    frames, so a frame's monomials do not depend on the other frames or
    columns asked for (test_kept_monomials_are_the_full_stacks_rows).  Rows
    are written in place: gathering the entries by fancy indexing gives the
    same bits, but raised the peak resident set of a fresh-frame run."""
    x = np.ascontiguousarray(u.reshape(-1, 4).T)
    mono = np.empty((len(cols), x.shape[1]), complex)
    for row, (a, b, c, d) in zip(mono, _ORDER[cols].tolist()):
        np.multiply(x[a] * x[b], x[c] * x[d], out=row)
    return mono


def turn_table(rows: np.ndarray, vecs: np.ndarray | None = None) -> np.ndarray:
    """(k r, 35) table whose row (i, j) holds rows[i] T_mu vecs[:, j] for the
    35 monomials mu, so that ``collective_turn`` of it gives rows U^(x4) vecs.
    ``rows`` is (k, 16), ``vecs`` (16, r) or the identity; integer inputs
    give an exact integer table."""
    t = rows @ _T if vecs is None else rows @ (_T @ vecs)
    return np.ascontiguousarray(t.reshape(35, -1).T)


def monomial_turn(table: np.ndarray, mono: np.ndarray) -> np.ndarray:
    """rows U^(x4) vecs for a ``turn_table`` of rows and vecs, cut to some
    c of its 35 columns, and the (c, m) ``frame_monomials`` of those columns
    of m frames: (k r, m) complex, frame last.

    U^(x4) = sum_mu mu(U) T_mu holds for every 2 x 2 matrix, so every turn
    is one real product of a real table with the monomials' interleaved
    real and imaginary parts.  A complex table goes through its stacked
    real and imaginary planes, whose two turns combine as re + i im
    (test_complex_turn_is_the_turn_of_its_planes): OpenBLAS hands a
    complex product to its worker threads at far smaller sizes than a real
    one, and a small product can then wait milliseconds for them.  A
    frame's result depends on the rest of the stack only through that
    product's rounding, within 1e-15 for unit frames, rows and vecs
    (test_collective_turn_of_a_frame_slice_is_that_slice_within_1e_15).
    """
    mono = mono.view(float)
    if table.dtype.kind != "c":
        return (table @ mono).view(complex)
    n = len(table)
    planes = (np.concatenate([table.real, table.imag]) @ mono).view(complex)
    out = planes[n:] * 1j
    out += planes[:n]
    return out


def collective_turn(tables, u: np.ndarray) -> list:
    """The ``monomial_turn`` of each table of ``tables`` by a stack of (m, 2,
    2) frames, as a list, all from one stack of the monomials of the union
    of the tables' non-zero columns
    (test_collective_turn_of_several_tables_builds_their_union_once).  This
    is the one rule by which the package turns a table.  It has no cut: a
    zero column adds only zero terms, and the shorter product agrees with
    the full one within 1e-15 (test_collective_turn_drops_only_zero_columns).
    The integer sector tables are outer products with det(U)^2's
    coefficients (1, -2, 1) on the columns 9, 14 and 23
    (test_sector_tables_are_det_squared_times_the_fixed_table), so each of
    eta's fresh-frame tables turns 3 columns of 35, on a full block of frames
    bit for bit as the full stack does
    (test_fresh_turns_are_the_full_stacks_turns_bit_for_bit)."""
    used = tables[0].any(axis=0)
    for table in tables[1:]:
        used |= table.any(axis=0)
    cols = np.flatnonzero(used)
    mono = frame_monomials(u, cols)
    return [monomial_turn(table[:, cols], mono) for table in tables]


def joint_probs(bras_a: np.ndarray, amp16: np.ndarray, bras_b: np.ndarray) -> np.ndarray:
    """Born probabilities |bras_a M bras_b^T|^2 of every outcome pair, shape
    (..., k_a, k_b), for the two-wing state as a (16, 16) matrix M, Alice's
    index first; the bras broadcast over leading axes."""
    return np.abs(bras_a @ amp16 @ bras_b.swapaxes(-1, -2)) ** 2


def apply_collective(s: QuantumState, u: np.ndarray, wing: str = "all") -> QuantumState:
    """The state with the (2, 2) frame ``u`` applied to every qubit of
    ``wing``: "all", or "alice" (qubits 1-4) or "bob" (5-8) of an 8-qubit
    state.  No operator larger than 16 x 16 is formed."""
    u = check_frame(u)
    n = s.n_qubits
    if wing == "all":
        blocks = [(q, min(4, n - q)) for q in range(0, n, 4)]
    elif wing in ("alice", "bob"):
        if n != 8:
            raise ValueError(f"wing '{wing}' requires an 8-qubit state, got {n}")
        blocks = [(0, 4)] if wing == "alice" else [(4, 4)]
    else:
        raise ValueError(f"unknown wing {wing!r}")
    amplitudes = s.amplitudes
    for first, k in blocks:
        t = amplitudes.reshape(2 ** first, 2 ** k, -1)
        amplitudes = (kron([u] * k) @ t).reshape(-1)
    return QuantumState(amplitudes)


# Maps a quaternion (a, b, c, d) to the flattened SU(2) matrix
# [[a + i b, c + i d], [-c + i d, a - i b]].
_QUAT = np.array([[1, 0, 0, 1], [1j, 0, 0, -1j], [0, 1, -1, 0], [0, 1j, 1j, 0]])


def _haar_matrices(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """(*shape, 2, 2) unchecked SU(2) matrices from one block of normals."""
    q = rng.normal(size=(*shape, 4))
    q /= np.sqrt(q[..., None, :] @ q[..., :, None])[..., 0]
    return (q.reshape(-1, 4) @ _QUAT).reshape(*shape, 2, 2)


def haar_su2(rng: np.random.Generator) -> np.ndarray:
    """One Haar-random SU(2) frame: ``haar_su2_batch`` of shape ()."""
    return haar_su2_batch(rng, ())


def haar_su2_batch(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Independent Haar-random SU(2) matrices as a ``(*shape, 2, 2)`` array,
    checked by ``check_unitary``.

    Four normals per draw, normalized, are a uniform point of S^3, whose
    image under ``_QUAT`` is Haar on SU(2).  A batch of shape S returns the
    prod(S) single ``haar_su2`` draws in row-major order, so batching never
    moves a seeded stream (test_haar_su2_batch_is_the_single_draw_stream).
    """
    return check_unitary(_haar_matrices(rng, shape))


def partial_trace(state: QuantumState, keep) -> DensityOperator:
    """Reduced density operator of the pure ``state`` on the qubits ``keep``
    (1-based integer labels, ascending output order); ValueError for other
    labels."""
    rho = np.outer(state.amplitudes, state.amplitudes.conj())
    n = state.n_qubits
    keep = sorted(_check_integer("keep label", k) for k in keep)
    if not keep:
        raise ValueError("keep set must be nonempty")
    if keep[0] < 1 or keep[-1] > n or len(set(keep)) != len(keep):
        raise ValueError(f"keep {keep} is not a subset of 1..{n}")
    t = rho.reshape((2,) * (2 * n))
    # contract row and column axes of every traced-out qubit
    for q in reversed(range(1, n + 1)):
        if q in keep:
            continue
        m = t.ndim // 2
        t = np.trace(t, axis1=q - 1, axis2=m + q - 1)
    return DensityOperator(t.reshape(2 ** len(keep), 2 ** len(keep)))
