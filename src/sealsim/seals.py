"""Sealed-state construction, the overlap-matrix file format and its cache.

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
import os
import sys
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import UsageError, check_dim, unit_norm_weights

THETA_MAX = math.pi / 4


def _check_angle(theta: float) -> None:
    """Raise UsageError unless 0 <= theta <= THETA_MAX (NaN fails too)."""
    if not 0.0 <= theta <= THETA_MAX:
        raise UsageError(f"angle {theta} outside [0, pi/4]")


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
            raise UsageError(f"overlap matrix must be square, got {arr.shape}")
        if arr.size == 0:
            raise UsageError("overlap matrix must be at least 1 x 1")
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
            raise UsageError("bit string must be non-empty")
        if set(self.bits) - {"0", "1"}:
            raise UsageError(f"bit string must be binary, got {self.bits!r}")
        object.__setattr__(self, "thetas", tuple(float(t) for t in self.thetas))
        if len(self.thetas) != len(self.bits):
            raise UsageError(
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
        raise UsageError("need at least one angle")
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
    rows = len(messages)
    states = qubits[:, 0]
    for k in range(1, len(thetas)):
        states = (states[:, :, None] * qubits[:, k, None, :]).reshape(rows, 2 ** (k + 1))
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
    """An open file's bytes: mapped read-only, or read as they come if it cannot be (empty, a pipe).

    A stream is read in chunks into one buffer.  When its first '[' comes,
    the head before it is checked as if "rows" were null there, so a
    "dim" above the cap raises ResourceError before the rest is read.  A
    head that only the whole stream can judge ("dim" after "rows", say)
    is checked once the stream has ended.
    """
    try:
        return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError):
        pass
    text, start = bytearray(), -1
    # read1 returns what has come; read(n) would wait for n bytes
    while chunk := fh.read1(1 << 16):
        text += chunk
        if start < 0 and (start := text.find(b"[", len(text) - len(chunk))) >= 0:
            with contextlib.suppress(ValueError):  # the full check follows the read
                _head_dim(text[:start] + b"null}")
    return contextlib.nullcontext(text)


@contextlib.contextmanager
def _malformed_overlap_file(path):
    """Raise a ValueError, OverflowError or RecursionError from path's JSON as UsageError."""
    try:
        yield
    except UsageError:
        raise  # a malformed SEALSIM_MAX_DIM is not a fault of the file
    except (ValueError, OverflowError, RecursionError) as exc:
        # not UTF-8 JSON, wrong keys or 'dim', nested too deep, ragged or non-numeric 'rows'
        raise UsageError(f"{path}: malformed overlap file: {exc!r}") from exc


def _head_dim(head) -> int:
    """The "dim" of an overlap file's head, checked against the cap.

    The head is the file's text with "rows" replaced by null.
    """
    pairs = json.loads(head.decode("utf-8"), object_pairs_hook=list)
    if not isinstance(pairs, list) or sorted(key for key, _ in pairs) != ["dim", "rows"]:
        raise ValueError("the file must hold one object with exactly the keys 'dim' and 'rows'")
    fields = dict(pairs)
    dim = fields["dim"]
    if fields["rows"] is not None:
        raise ValueError("'rows' must be an array")
    if type(dim) is not int or dim < 1:
        raise ValueError(f"'dim' must be an integer >= 1, got {dim!r}")
    return check_dim(dim)


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
        return _head_dim(head), head, text[start:end]


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
    raises UsageError.  An N above the dimension cap raises
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


def _cache_entry(head: bytes, rows: bytes) -> str | None:
    """Path of the cached matrix for an overlap file read as head and rows.

    The directory is $XDG_CACHE_HOME/sealsim, else ~/.cache/sealsim;
    None if neither is an absolute path, CPython's built-in BLAKE2 is
    missing or this module's source cannot be read.  The name is a
    BLAKE2b digest of the bytes read and of everything that makes the
    values parsed from them: this module's source, which holds the
    parser and the entry format, the Python and numpy versions and the
    byte order.  So no sealsim reads an entry written under another
    parser, and no machine reads one in another byte order.
    """
    try:
        # the built-in module, not hashlib, which maps OpenSSL's libcrypto
        # and has no BLAKE2 without this module either
        from _blake2 import blake2b
    except ImportError:
        return None
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.join(os.path.expanduser("~"), ".cache")
    if not os.path.isabs(root):
        return None
    try:
        with open(__file__, "rb") as fh:
            source = fh.read()
    except OSError:
        return None
    key = blake2b(digest_size=32)
    versions = (sys.version, np.__version__, sys.byteorder)
    for part in (source, *(v.encode() for v in versions), head, rows):
        # each part's length keeps the split between parts out of the collisions
        key.update(len(part).to_bytes(8, "little"))
        key.update(part)
    return os.path.join(root, "sealsim", key.hexdigest() + ".raw")


def _write_entry(entry: str, coefficients: np.ndarray) -> None:
    """Cache coefficients at entry, beside the newest other entry only.

    So two files that alternate both stay cached, and the directory holds
    at most two matrices; every other file in it, a stale temporary one
    too, is removed.  The file is written under a temporary name and
    renamed, so a reader never sees it half written.  If the directory
    cannot be written the matrix is not cached, silently.
    """
    directory, name = os.path.split(entry)
    temp = f"{entry}.{os.getpid()}.tmp"
    try:
        os.makedirs(directory, exist_ok=True)
        with open(temp, "wb") as fh:
            coefficients.tofile(fh)
        os.replace(temp, entry)
        others = [os.path.join(directory, n) for n in os.listdir(directory) if n != name]
        newest = max((p for p in others if p.endswith(".raw")), key=os.path.getmtime, default=None)
        for other in others:
            if other != newest:
                with contextlib.suppress(OSError):
                    os.unlink(other)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(temp)


def _load_lambda_file(path) -> OverlapMatrix:
    """load_overlap_matrix(path), reusing a matrix cached on disk from the same bytes.

    The commands load their --lambda-file through this, so a fresh
    process does not parse again the numbers of a file it loaded before.
    "dim" is checked against the cap before the cache is looked at.  An
    entry is the matrix's native complex128 bytes; one byte more than
    the matrix is read, so a long entry fails the reshape as a short one
    does and a corrupt one cannot make the loader allocate more.  An
    entry passes OverlapMatrix's checks like a parsed matrix, and a
    matrix is cached only once they accepted it.
    """
    dim, head, rows = _read_overlap_file(path)
    # the key hashes these copies, not the file, which may change meanwhile
    entry = _cache_entry(head, rows)
    if entry is None:
        return _parse_overlap_rows(path, dim, rows)
    try:
        with open(entry, "rb") as fh:
            data = fh.read(16 * dim * dim + 1)
        return OverlapMatrix(np.frombuffer(data, dtype=np.complex128).reshape(dim, dim))
    except (OSError, ValueError):
        pass  # missing, unreadable, of another size, or values OverlapMatrix refuses
    matrix = _parse_overlap_rows(path, dim, rows)
    _write_entry(entry, matrix.coefficients)
    return matrix


def save_overlap_matrix(matrix: OverlapMatrix, path) -> None:
    """Write an overlap matrix in the JSON schema used by load_overlap_matrix."""
    coeffs = matrix.coefficients
    rows = np.stack([coeffs.real, coeffs.imag], axis=-1).tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"dim": matrix.dim, "rows": rows}, fh)
        fh.write("\n")
