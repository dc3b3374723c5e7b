"""Sealed-state construction and the overlap-matrix file format.

Two constructions are supported:

- the general overlap model: the sealed state for message i' is
  sum_j c[i', j] |j>, one unit-norm coefficient row per message;
- the per-qubit product seal: each message bit b is encoded as
  cos(theta)|b> + sin(theta)|1-b>, so the overlap coefficients factor
  into per-bit cos/sin terms.

A sealed state is one read-only, unit-norm amplitude row of length N,
complex although the seals studied here have real coefficients: the
probabilities only use the squared modulus, so generality is free.
Message bit strings map to basis indices big-endian: the first bit of
the string is the most significant bit of the index.

Angles are restricted to [0, pi/4]: beyond pi/4 the flipped bit becomes
more likely than the true one, which only relabels messages.
"""

from __future__ import annotations

import contextlib
import json
import math
import mmap
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import UsageError, ValidationError, check_dim, unit_norm_weights

THETA_MAX = math.pi / 4


def _check_angle(theta: float, error: type[ValueError] = ValidationError) -> None:
    """Raise `error` unless 0 <= theta <= THETA_MAX (NaN fails too)."""
    if not 0.0 <= theta <= THETA_MAX:
        raise error(f"angle {theta} outside [0, pi/4]")


@dataclass(frozen=True, eq=False)
class OverlapMatrix:
    """N x N coefficient matrix; row i' is the sealed state for message i'.

    The rows are checked once here to be unit-norm; `weights` returns
    their |c|^2, which the analysis layer reads instead of the
    coefficients.  Both arrays are read-only.
    """

    coefficients: np.ndarray

    def __init__(self, coefficients) -> None:
        arr = np.array(coefficients, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValidationError(f"overlap matrix must be square, got {arr.shape}")
        unit_norm_weights(arr, "overlap matrix")
        arr.setflags(write=False)
        object.__setattr__(self, "coefficients", arr)

    @property
    def dim(self) -> int:
        return self.coefficients.shape[0]

    @property
    def weights(self) -> np.ndarray:
        """Read-only |c|^2, made on each access so no second N x N array is kept."""
        weights = np.abs(self.coefficients) ** 2
        weights.setflags(write=False)
        return weights

    @classmethod
    def identity(cls, dim: int) -> "OverlapMatrix":
        """Perfect seal: message i' is stored as the basis state |i'>."""
        return cls(np.eye(dim, dtype=complex))


@dataclass(frozen=True)
class ProductSealSpec:
    """Per-qubit seal of a bit string with one rotation angle per bit."""

    bits: str
    thetas: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.bits:
            raise ValidationError("bit string must be non-empty")
        if set(self.bits) - {"0", "1"}:
            raise ValidationError(f"bit string must be binary, got {self.bits!r}")
        object.__setattr__(self, "thetas", tuple(float(t) for t in self.thetas))
        if len(self.thetas) != len(self.bits):
            raise ValidationError(
                f"need one angle per bit: {len(self.bits)} bits, "
                f"{len(self.thetas)} angles"
            )
        for t in self.thetas:
            _check_angle(t)

    @classmethod
    def shared_theta(cls, bits: str, theta: float) -> "ProductSealSpec":
        return cls(bits, (theta,) * len(bits))

    @property
    def dim(self) -> int:
        return 2 ** len(self.bits)

    @property
    def message(self) -> int:
        """Big-endian integer value of the bit string."""
        return int(self.bits, 2)


def _bit_factor(theta: float) -> np.ndarray:
    # 2x2 factor relating a sealed bit to a candidate bit: diagonal cos
    # (bits agree), off-diagonal sin (bits differ).
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [s, c]], dtype=complex)


def overlap_matrix(spec: ProductSealSpec) -> OverlapMatrix:
    """Full overlap matrix of a product seal, varying the message row.

    Entry (i', j') is the product over bit positions of cos(theta_m) when
    bit m of j' equals bit m of i', else sin(theta_m).  The result is
    symmetric with unit-norm rows and columns.
    """
    check_dim(spec.dim)
    factors = [_bit_factor(t) for t in spec.thetas]
    return OverlapMatrix(reduce(np.kron, factors))


def product_states(thetas, messages) -> np.ndarray:
    """Qubit-by-qubit sealed states of a product seal, one row per message.

    Row r is the left-to-right tensor product over bit positions of
    cos(theta)|b> + sin(theta)|1-b>, where b is that bit of messages[r]
    (big-endian).  Each qubit is one broadcast multiply and reshape over
    all rows: the same products in the same order as reduce(np.kron, ...),
    so every row equals the tensor_product of the per-qubit states in
    tests/oracles.py bit for bit.
    """
    thetas = [float(t) for t in thetas]
    if not thetas:
        raise ValidationError("need at least one angle")
    for t in thetas:
        _check_angle(t)
    dim = check_dim(2 ** len(thetas))
    messages = np.asarray(messages)
    if messages.ndim != 1 or messages.dtype.kind not in "iu":
        raise UsageError(f"messages must be a 1-d integer array, got {messages!r}")
    if np.any((messages < 0) | (messages >= dim)):
        raise UsageError(f"messages out of range for dim {dim}: {messages.tolist()}")
    shifts = np.arange(len(thetas) - 1, -1, -1)
    bits = (messages.astype(np.int64)[:, None] >> shifts) & 1
    # row b of the bit factor is the qubit sealing bit b: [cos, sin] or [sin, cos]
    qubits = np.stack(
        [_bit_factor(t)[bits[:, k]] for k, t in enumerate(thetas)], axis=1
    )
    unit_norm_weights(qubits, "qubit states")
    rows = len(messages)
    states = qubits[:, 0]
    for k in range(1, len(thetas)):
        states = (states[:, :, None] * qubits[:, k, None, :]).reshape(rows, 2 ** (k + 1))
    unit_norm_weights(states, "product states")
    return states


def product_seal(spec: ProductSealSpec) -> np.ndarray:
    """Read-only sealed amplitude row of a product seal, built qubit by qubit."""
    row = product_states(spec.thetas, [spec.message])[0]
    row.setflags(write=False)
    return row


# Between the brackets and commas of "rows" only JSON whitespace and the
# bytes of JSON numbers (with json's NaN and Infinity tokens) may appear.
_NUMBER_BYTES = b"0123456789+-.eENaInfity"
_BRACKETS_TO_SPACES = bytes.maketrans(b"[]", b"  ")


def _rows_layout(dim: int) -> bytes:
    """The brackets and commas of a dim x dim array of [re, im] pairs."""
    row = b"[" + b",".join([b"[,]"] * dim) + b"]"
    return b"[" + b",".join([row] * dim) + b"]"


def _map_or_read(fh):
    """An open file's bytes, mapped read-only, or read in full if it cannot be (empty, a pipe)."""
    try:
        return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError):
        return contextlib.nullcontext(fh.read())


@contextlib.contextmanager
def _malformed_overlap_file(path):
    """Raise a ValueError or OverflowError from reading path's JSON as ValidationError."""
    try:
        yield
    except UsageError:
        raise  # a malformed SEALSIM_MAX_DIM is not a fault of the file
    except (ValueError, OverflowError) as exc:
        # not UTF-8 JSON, wrong keys or 'dim', ragged or non-numeric 'rows'
        raise ValidationError(f"{path}: malformed overlap file: {exc!r}") from exc


def _read_overlap_file(path) -> tuple[int, bytes, bytes]:
    """An overlap file's dim, checked against the cap, its head and its unparsed "rows".

    The head is the file with "rows" replaced by null, and "rows" the
    bytes from its opening to its closing bracket; both are copies, so
    they stay what was read if the file changes afterwards.
    """
    with _malformed_overlap_file(path), open(path, "rb") as fh, _map_or_read(fh) as text:
        start, end = text.find(b"["), text.rfind(b"]") + 1
        if start < 0:
            raise ValueError("no 'rows' array")
        # the first '[' opens "rows" and the last ']' closes it: no other
        # value of a well-formed file holds a bracket
        head = text[:start] + b"null" + text[end:]
        pairs = json.loads(head.decode("utf-8"), object_pairs_hook=list)
        if not isinstance(pairs, list) or sorted(key for key, _ in pairs) != ["dim", "rows"]:
            raise ValueError("the file must hold one object with exactly the keys 'dim' and 'rows'")
        fields = dict(pairs)
        dim = fields["dim"]
        if fields["rows"] is not None:
            raise ValueError("'rows' must be an array")
        if type(dim) is not int or dim < 1:
            raise ValueError(f"'dim' must be an integer >= 1, got {dim!r}")
        check_dim(dim)
        return dim, head, text[start:end]


def _parse_overlap_rows(path, dim: int, rows: bytes) -> OverlapMatrix:
    """The overlap matrix whose "rows" _read_overlap_file read from path."""
    with _malformed_overlap_file(path):
        compact = rows.translate(None, b" \t\n\r")
        skeleton = compact.translate(None, _NUMBER_BYTES)
        # testing the length first keeps a huge 'dim' from building a huge layout
        if len(skeleton) != 4 * dim * dim + 2 * dim + 1 or skeleton != _rows_layout(dim):
            raise ValueError(f"'rows' must be a {dim}x{dim} array of [re, im] pairs")
        # a number outside its pair parses as part of the flat list below only
        # by filling a pair's empty slot, so an empty slot is refused here
        if b"[," in compact or b",]" in compact:
            raise ValueError("'rows' holds an empty [re, im] slot")
        del compact, skeleton
        # brackets become spaces, so a number cannot run on across one
        values = json.loads(b"".join((b"[", rows.translate(_BRACKETS_TO_SPACES), b"]")))
        arr = np.array(values, dtype=float).reshape(dim, dim, 2)
        del values
    # a view, not re + 1j * im, whose multiply warns on an infinite part
    return OverlapMatrix(arr.view(np.complex128)[..., 0])


def load_overlap_matrix(path) -> OverlapMatrix:
    """Load an overlap matrix from JSON: {"dim": N, "rows": [[[re, im], ...], ...]}.

    The file must hold one object with exactly the keys "dim", an integer
    N >= 1, and "rows", N rows of N [re, im] number pairs; anything else
    raises ValidationError.  An N above the dimension cap raises
    ResourceError as soon as "dim" is read, before "rows" is checked or
    parsed; until then only the head and tail of a mapped file are read.
    The values are those json.load and np.asarray would give, bit for
    bit, but they are parsed as one flat JSON list: the object is parsed
    with "rows" replaced by null, the brackets and commas of "rows" are
    checked against the N x N x 2 layout, each number inside its pair,
    and the bracket-free number list is parsed once.
    """
    dim, _, rows = _read_overlap_file(path)
    return _parse_overlap_rows(path, dim, rows)


def save_overlap_matrix(matrix: OverlapMatrix, path) -> None:
    """Write an overlap matrix in the JSON schema used by load_overlap_matrix."""
    coeffs = matrix.coefficients
    rows = np.stack([coeffs.real, coeffs.imag], axis=-1).tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"dim": matrix.dim, "rows": rows}, fh)
        fh.write("\n")
