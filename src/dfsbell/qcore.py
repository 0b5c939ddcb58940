"""Dense state-vector primitives for few-qubit simulation.

Everything here is a pure function on small immutable values.  States are
dense complex vectors of dimension at most 2^8 = 256; qubit 1 is the most
significant bit of the basis index, so ``|q1 q2 q3 q4>`` reads left to right.

A wing measurement is a matrix of bras, one row per outcome, and
``joint_probs`` gives its outcome-pair probabilities on a two-wing state.
A turned frame takes one route, a polynomial: U^(x4) = sum_mu mu(U) T_mu over
the 35 monomials mu of degree 4 in U's entries, the T_mu integer 0/1 matrices
that partition the 16 x 16 grid.  ``turn_table`` contracts fixed rows and
vecs with every T_mu once, and ``collective_turn`` gives rows U^(x4) vecs for
a whole stack of frames as one product of that table with their monomials,
frame last; no U^(x4) is formed.  ``wing_bras`` turns a wing's bras through
it; ``kron`` builds product-basis bras and the U^(x k) of
``apply_collective``.

A product basis measures each qubit along an x-z plane direction theta: the
qubit's two outcome bras are the rows of ``axis_rows(theta)``, and
``product_bras`` joins four such rows into the 16 bras of the outcome words.

A frame is a ``(..., 2, 2)`` array of SU(2) matrices, one form for a single
frame and for a stack of them; ``check_unitary`` is its one unitarity check,
and every function that takes a frame from a caller makes it.  Haar frames
come from ``haar_su2_batch``, as every module of the package draws them;
``haar_su2`` is its single draw, the per-draw form the tests rebuild the
batches from, so a batch of shape S consumes the same normals as prod(S)
single draws and returns the same matrices in row-major order: batching a
draw site never moves a seeded stream.  ``check_density`` makes the checks
of ``DensityOperator`` on a whole stack of matrices at once.
"""

from __future__ import annotations

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
    """Frobenius norm; np.linalg.norm costs more than the arithmetic on the
    small arrays that are checked once per draw."""
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


def check_finite(*angles) -> None:
    """Raise ValueError unless every angle is finite."""
    if not all(math.isfinite(t) for t in angles):
        raise ValueError(f"angles must be finite, got {angles}")


def _as_amplitudes(amplitudes) -> np.ndarray:
    a = np.asarray(amplitudes, dtype=complex)
    if a.ndim != 1:
        raise ValueError(f"amplitudes must be a vector, got shape {a.shape}")
    n = a.size.bit_length() - 1
    if a.size != 2**n:
        raise ValueError(f"length {a.size} is not a power of two")
    if n < 1 or n > MAX_QUBITS:
        raise SizeError(f"supported qubit counts are 1..{MAX_QUBITS}, got {n}")
    return a


@dataclass(frozen=True)
class QuantumState:
    """Unit vector over n qubits, qubit 1 = most significant index bit."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = _as_amplitudes(self.amplitudes)
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
    """Hermitian, unit-trace, positive semidefinite operator on n qubits."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got {m.shape}")
        n = m.shape[0].bit_length() - 1
        if m.shape[0] != 2**n or n < 1 or n > MAX_QUBITS:
            raise SizeError(f"dimension {m.shape[0]} is not 2^n with n in 1..{MAX_QUBITS}")
        check_density(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n_qubits(self) -> int:
        return self.matrix.shape[0].bit_length() - 1


def check_density(m: np.ndarray) -> None:
    """Raise ValueError unless every matrix of the ``(..., d, d)`` stack ``m``
    is Hermitian, has unit trace and has no eigenvalue below -ATOL."""
    if not np.all(np.linalg.norm(m - m.conj().swapaxes(-1, -2), axis=(-2, -1)) <= ATOL):
        raise ValueError("matrix is not Hermitian within 1e-10")
    trace = np.trace(m, axis1=-2, axis2=-1)
    if not np.all(np.abs(trace.real - 1.0) <= ATOL):
        raise ValueError(f"trace {trace} deviates from 1")
    if not np.all(np.linalg.eigvalsh(m).min(axis=-1) >= -ATOL):
        raise ValueError("matrix has an eigenvalue below -1e-10")


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


def basis_state(bits) -> QuantumState:
    """Computational basis state from a bit string like "0101" or a bit sequence."""
    bits = [int(b) for b in bits]
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0 or 1")
    amplitudes = np.zeros(2 ** len(bits), dtype=complex)
    index = 0
    for b in bits:
        index = (index << 1) | b
    amplitudes[index] = 1.0
    return QuantumState(amplitudes)


def permute_qubits(s: QuantumState, perm) -> QuantumState:
    """Reorder qubits: output qubit k carries input qubit perm[k-1] (1-based).

    ``perm`` must be a bijection of {1..n} in integers; a transposition such
    as (1, 3, 2, 4) swaps qubits 2 and 3.
    """
    n = s.n_qubits
    perm = tuple(_check_integer("perm label", p) for p in perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"perm {perm} is not a bijection of 1..{n}")
    axes = [p - 1 for p in perm]
    reshaped = s.amplitudes.reshape((2,) * n).transpose(axes)
    return QuantumState(reshaped.reshape(-1))


def kron(factors) -> np.ndarray:
    """Kronecker product of a sequence of ``(..., 2, 2)`` arrays, left to right.

    Leading axes broadcast, so a stack of n unitaries gives n copies of
    U^(x k), and the per-qubit rows of a product basis give its (16, 16)
    bra matrix.
    """
    factors = iter(factors)
    out = next(factors)
    for m in factors:
        out = out[..., :, None, :, None] * m[..., None, :, None, :]
        out = out.reshape(*out.shape[:-4], 2 * out.shape[-4], 2 * out.shape[-2])
    return out


def axis_rows(theta: float) -> np.ndarray:
    """Rows are the two basis bras for one qubit measured at angle theta."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [s, -c]])


def product_bras(thetas) -> np.ndarray:
    """(16, 16) matrix whose row w is the bra of outcome word w."""
    return kron([axis_rows(t) for t in thetas])


def wing_bras(bras: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Bras of one wing's measurement with its frame turned by U^(x4).

    ``bras`` is (k, 16), one row per outcome; ``u`` is (..., 2, 2).  Returns
    the contiguous ``bras @ (U^(x4))^dagger`` of shape (..., k, 16), the bra
    of U^(x4)|w> for each outcome ket |w>: the bras' turn by the adjoints.
    """
    uh = u.conj().swapaxes(-1, -2).reshape(-1, 2, 2)
    turned = collective_turn(turn_table(bras), uh).T
    return np.ascontiguousarray(turned).reshape(*u.shape[:-2], *bras.shape)


# The 10 pair products x_a x_b (a <= b) of U's entries x = (u00, u01, u10,
# u11): a monomial x_a x_b x_c x_d of degree 4 (a <= b <= c <= d) is pair
# (a, b) times a pair of the suffix of _PAIRS that starts at (b, b).
_PAIRS = [(a, b) for a in range(4) for b in range(a, 4)]
_SUFFIX = [_PAIRS.index((b, b)) for _, b in _PAIRS]


def _grid_table() -> np.ndarray:
    """The (35, 16, 16) 0/1 matrices T_mu of U^(x4) = sum_mu mu(U) T_mu.
    Entry (I, J) of U^(x4) is the product of the four u[i_q, j_q]: u01 on
    the qubits set in J alone, u10 in I alone and u11 in both."""
    order = [pair + _PAIRS[k] for pair, s in zip(_PAIRS, _SUFFIX) for k in range(s, 10)]
    index = {tuple(map(key.count, (1, 2, 3))): mu for mu, key in enumerate(order)}
    mu = [index[(~i & j).bit_count(), (i & ~j).bit_count(), (i & j).bit_count()]
          for i in range(16) for j in range(16)]
    t = np.zeros((35, 256), dtype=np.int8)
    t[mu, range(256)] = 1
    return t.reshape(35, 16, 16)


_T = _grid_table()


def _monomials(u: np.ndarray) -> np.ndarray:
    """(35, m) complex monomials of the (m, 2, 2) frames, frame last, in
    ``_grid_table``'s order: 4 multiplies make the 10 pair products, 10 more
    multiply each pair by its suffix of the pairs."""
    x = np.ascontiguousarray(u.reshape(-1, 4).T)
    pairs = np.empty((10, x.shape[1]), complex)
    mono = np.empty((35, x.shape[1]), complex)
    lo = 0
    for a in range(4):
        np.multiply(x[a], x[a:], out=pairs[lo:lo + 4 - a])
        lo += 4 - a
    lo = 0
    for k, s in enumerate(_SUFFIX):
        np.multiply(pairs[k], pairs[s:], out=mono[lo:lo + 10 - s])
        lo += 10 - s
    return mono


def turn_table(rows: np.ndarray, vecs: np.ndarray | None = None) -> np.ndarray:
    """(k r, 35) table whose row (i, j) holds rows[i] T_mu vecs[:, j] for the
    35 monomials mu, so that ``collective_turn`` of it gives rows U^(x4) vecs.

    ``rows`` is (k, 16) and ``vecs`` (16, r), the identity when omitted; the
    table takes their dtype, so integer rows and vecs give an integer table,
    exactly and with no float product.
    """
    t = rows @ _T if vecs is None else rows @ (_T @ vecs)
    return np.ascontiguousarray(t.reshape(35, -1).T)


def collective_turn(table: np.ndarray, u: np.ndarray) -> np.ndarray:
    """rows U^(x4) vecs for the (k r, 35) ``turn_table`` of rows and vecs and
    a stack of (m, 2, 2) frames: (k r, m) complex, frame last.

    U^(x4) = sum_mu mu(U) T_mu holds for every 2 x 2 matrix, unitary or not,
    so the turn is ``table @ monomials(u)``, one product over every frame,
    real on the monomials' float view when the table is real.  A frame's
    result depends on the other frames of the stack only through the BLAS
    product's rounding: within 1e-15 for unitary frames and rows and vecs
    of unit norm
    (``test_collective_turn_of_a_frame_slice_is_that_slice_within_1e_15``).
    """
    mono = _monomials(u)
    if table.dtype.kind == "c":
        return table @ mono
    return (table @ mono.view(float)).view(complex)


def joint_probs(bras_a: np.ndarray, amp16: np.ndarray, bras_b: np.ndarray) -> np.ndarray:
    """Born probabilities |bras_a M bras_b^T|^2 of every outcome pair.

    ``amp16`` is the two-wing state as a (16, 16) matrix M (Alice's index
    first); the bras broadcast over leading axes, so the result has shape
    (..., k_a, k_b).
    """
    return np.abs(bras_a @ amp16 @ bras_b.swapaxes(-1, -2)) ** 2


def apply_collective(s: QuantumState, u: np.ndarray, wing: str = "all") -> QuantumState:
    """Apply the same single-qubit unitary, the (2, 2) frame ``u``, to every
    qubit of the chosen wing.

    ``wing`` is one of "all", "alice" (qubits 1-4), "bob" (qubits 5-8); the
    named wings are only defined for 8-qubit states.  U^(x k) acts on blocks
    of at most four qubits, so no operator larger than 16 x 16 is formed.
    """
    u = check_unitary(u)
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
    return (q @ _QUAT).reshape(*shape, 2, 2)


def haar_su2(rng: np.random.Generator) -> np.ndarray:
    """One Haar-random element of SU(2), a (2, 2) array: the batch of shape
    (), which consumes exactly four normal variates."""
    return haar_su2_batch(rng, ())


def haar_su2_batch(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Independent Haar-random SU(2) matrices as a ``(*shape, 2, 2)`` array.

    A batch of shape S consumes the same normals as prod(S) single
    ``haar_su2`` draws and returns the same matrices, in row-major order,
    so batching never moves a seeded stream.  Every draw passes
    ``check_unitary``, made once for the whole batch.

    Uses the quaternion parametrization: a point (a, b, c, d) drawn uniformly
    on the 3-sphere (four independent standard normals, normalized) maps to

        [[a + i b,  c + i d],
         [-c + i d, a - i b]],

    which has unit determinant a^2 + b^2 + c^2 + d^2 = 1.  Uniformity on S^3
    is exactly the Haar measure of SU(2).
    """
    return check_unitary(_haar_matrices(rng, shape))


def partial_trace(state_or_rho, keep) -> DensityOperator:
    """Trace out all qubits not in ``keep`` (1-based labels, ascending output order)."""
    if isinstance(state_or_rho, QuantumState):
        rho = np.outer(state_or_rho.amplitudes, state_or_rho.amplitudes.conj())
        n = state_or_rho.n_qubits
    elif isinstance(state_or_rho, DensityOperator):
        rho = state_or_rho.matrix
        n = state_or_rho.n_qubits
    else:
        raise TypeError("expected QuantumState or DensityOperator")
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
