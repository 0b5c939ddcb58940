"""Dense state-vector primitives for few-qubit simulation.

Everything here is a pure function on small immutable values.  States are
dense complex vectors of dimension at most 2^8 = 256; qubit 1 is the most
significant bit of the basis index, so ``|q1 q2 q3 q4>`` reads left to right.

A wing measurement is a matrix of bras, one row per outcome, and
``joint_probs`` gives its outcome-pair probabilities on a two-wing state.
A turned frame takes one of two routes: ``wing_bras`` turns the bras by a
collective U^(x4) that ``kron`` builds (``kron`` builds product-basis bras
too), and ``collective_turn`` turns a few state columns instead, one qubit at
a time for a whole stack of frames, without forming U^(x4).  The columns are
shared by every frame or are each frame's own.  Its work arrays grow with
the stack; each frame's result depends on that frame and its columns alone,
so a caller may cut the stack into blocks that fit in cache without changing
a bit of it.

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

    def density(self) -> "DensityOperator":
        """The projector |psi><psi|.  On it the density branch of
        ``decohere.fidelity_samples`` is a second route to the pure-state
        kernel's draws (``test_density_draws_match_the_pure_route``)."""
        return DensityOperator(np.outer(self.amplitudes, self.amplitudes.conj()))

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


def tensor(a: QuantumState, b: QuantumState) -> QuantumState:
    """Kronecker product; a's qubits become the most significant ones."""
    if a.n_qubits + b.n_qubits > MAX_QUBITS:
        raise SizeError(
            f"tensor of {a.n_qubits}+{b.n_qubits} qubits exceeds {MAX_QUBITS}"
        )
    return QuantumState(np.kron(a.amplitudes, b.amplitudes))


def permute_qubits(s: QuantumState, perm) -> QuantumState:
    """Reorder qubits: output qubit k carries input qubit perm[k-1] (1-based).

    ``perm`` must be a bijection of {1..n}; a transposition such as
    (1, 3, 2, 4) swaps qubits 2 and 3.
    """
    n = s.n_qubits
    perm = tuple(int(p) for p in perm)
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
    ``bras @ (U^(x4))^dagger`` of shape (..., k, 16): the bra of U^(x4)|w>
    for each outcome ket |w>.
    """
    return bras @ kron([u] * 4).conj().swapaxes(-1, -2)


def collective_turn(u: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """U^(x4) applied to every column of ``vecs``, for a stack of frames.

    ``u`` is (m, 2, 2); ``vecs`` is (16, r), columns that every frame
    shares, or (16, r, m), each frame's own columns, frame last.  Returns a
    contiguous (16, r, m) array, frame last, so that a product of the result
    with a fixed matrix is one 2-D product over every frame.  The turn goes
    one qubit at a time with the frame axis last, so each product runs over
    m contiguous frames and no U^(x4) is formed.  Qubit steps alternate
    between two buffers, and each output half w[i, 0] t0 + w[i, 1] t1 takes
    its second product in one spare half, so a turn allocates three arrays,
    not new ones per qubit.
    """
    w = np.ascontiguousarray(np.moveaxis(u, 0, -1))  # w[i, j]: entry (i, j) of every frame
    m, r = u.shape[0], vecs.shape[1]
    bufs = np.empty((2, 16 * r * m), np.result_type(u, vecs))
    spare = np.empty(8 * r * m, bufs.dtype)
    t = vecs if vecs.ndim == 3 else vecs[..., None]
    for q in range(4):
        t = t.reshape(2 ** q, 2, -1, t.shape[-1])
        out = bufs[q % 2].reshape(2 ** q, 2, -1, m)
        half = spare.reshape(out[:, 0].shape)
        for i in range(2):
            np.multiply(w[i, 0], t[:, 0], out=out[:, i])
            np.multiply(w[i, 1], t[:, 1], out=half)
            np.add(out[:, i], half, out=out[:, i])
        t = out
    return t.reshape(16, r, m)


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
    keep = sorted(int(k) for k in keep)
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
