"""JSON file formats: matrix files and report files, schema version 1.

Matrix files carry real and imaginary parts as separate row-major 2-d
arrays of binary64. Serialization goes through Python's shortest
round-trip float repr, so numbers survive a save/load cycle bit-exactly.
NaN and infinity are rejected in both directions.

Report files are deterministic given (input, flags, seed) except for the
``timestamp`` field.

Every output, file or stdout, is encoded by ``dumps``: chancert's own JSON
encoder, whose bytes are exactly those of
``json.dumps(obj, sort_keys=True, allow_nan=False, indent=1)``. The standard
library encodes through its C accelerator only without ``indent``, so an
indented dump runs every float through pure-Python generators; ``dumps``
joins a list of floats with one C-level ``map(float.__repr__, ...)``, writes
a matrix a block of rows at a time, and looks each scalar's exact type up
in one table.

Every output file is written by ``save_json``, in place: an existing file
is overwritten and then cut to the new length, never truncated to zero
first, so it keeps its inode and permission bits, and a symlink is followed
to its target. A device or a FIFO is written without truncation. As with a
plain ``open(path, "w")``, a write is neither atomic nor fsynced.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import stat
from dataclasses import dataclass
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .errors import InputScaleError, MatrixFileError
from .linalg import BipartiteLayout, ToleranceConfig

SCHEMA_VERSION = "1"
TOOL_VERSION = "0.1.0"

ROLES = ("choi", "state", "stinespring", "kraus")

# A dilation's or a Kraus operator's entries enter its Choi matrix squared,
# and the Frobenius norms of that matrix to the fourth power. A largest entry
# of magnitude in this range keeps both finite and above the subnormals, with
# room for the sums over the dimensions; outside it the Choi matrix can come
# out zero, or its checks overflow.
OPERATOR_SCALE_RANGE = (2.0**-240, 2.0**240)

# The eigenvalues, marginals and partial transposes of a Choi or state matrix
# are bounded by its dimension times its largest entry magnitude. Keeping that
# product at most this limit keeps them, and sums of two of them, finite.
MATRIX_SCALE_LIMIT = 2.0**1022


@dataclass(frozen=True)
class ParsedMatrix:
    """A matrix file after validation."""

    matrix: np.ndarray
    role: str | None
    layout: BipartiteLayout | None
    dims: tuple[int, ...] | None
    kraus_index: int | None = None
    kraus_count: int | None = None
    digest: str | None = None  # "sha256:<hex>" of the bytes parsed, for a loaded file


def _reject_constant(token: str):
    raise MatrixFileError(f"non-finite number {token!r} is not allowed")


def loads(text: str) -> dict:
    try:
        obj = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise MatrixFileError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise MatrixFileError("invalid JSON: nested too deeply") from exc
    if not isinstance(obj, dict):
        raise MatrixFileError("top-level JSON value must be an object")
    return obj


def dumps(obj: dict) -> str:
    """``obj`` as ``json.dumps(obj, sort_keys=True, allow_nan=False, indent=1)``
    writes it, byte for byte. Dict keys must be strings. A NaN or infinity
    raises ValueError with json's message, any other type TypeError."""
    return _encode(obj, "")


def _float_block(items, inner: str) -> str | None:
    """The body of the list ``items``, written ``len(inner)`` levels deep as
    ``_encode`` writes it, if its entries are all finite floats, joined with
    one ``map(float.__repr__, ...)``, or all non-empty lists of them, a
    matrix, a row at a time and one join; else None."""
    sep = ",\n" + inner
    if type(items[0]) is list:
        rows = [type(row) is list and row and _float_block(row, inner + " ") for row in items]
        if not all(rows):
            return None
        opening, closing = "[\n" + inner + " ", "\n" + inner + "]"
        return opening + (closing + sep + opening).join(rows) + closing
    if not isinstance(items[0], float):
        return None
    try:
        text = sep.join(map(float.__repr__, items))
    except TypeError:  # an entry is not a float
        return None
    # "nan", "inf" and "-inf" are the only float reprs with an "n" in them.
    return None if "n" in text else text


def _finite(x: float) -> str:
    """A float as json writes it, or json's error if it is NaN or infinite."""
    if math.isfinite(x):
        return float.__repr__(x)
    raise ValueError("Out of range float values are not JSON compliant: " + repr(x))


# What ``_encode`` writes for a value of each exact scalar type. A value of a
# subclass, such as np.float64, takes its isinstance tests instead.
_SCALARS = {float: _finite, str: encode_basestring_ascii, int: int.__repr__,
            bool: {True: "true", False: "false"}.get, type(None): lambda _: "null"}


def _encode(obj, indent: str) -> str:
    """``obj`` as ``dumps`` writes it, nested ``len(indent)`` levels deep."""
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    inner = indent + " "
    sep = ",\n" + inner
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = _float_block(obj, inner) or sep.join([_encode(x, inner) for x in obj])
        return "[\n" + inner + body + "\n" + indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = sep.join(
            [encode_basestring_ascii(k) + ": " + _encode(v, inner) for k, v in sorted(obj.items())]
        )
        return "{\n" + inner + body + "\n" + indent + "}"
    for base in (float, str, int):
        if isinstance(obj, base):
            return _SCALARS[base](obj)
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def matrix_file_dict(m: np.ndarray, role=None, layout=None, dims=None, kraus_index=None,
                     kraus_count=None) -> dict:
    """The matrix file of the 2-d array ``m``, already checked, as a value
    object's matrix is, with the fields that are not None. ``dumps`` refuses
    a NaN or an infinity."""
    out: dict = {
        "schema_version": SCHEMA_VERSION,
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }
    if role is not None:
        if role not in ROLES:
            raise MatrixFileError(f"unknown role {role!r}")
        out["role"] = role
    if layout is not None:
        out["layout"] = [layout.d_left, layout.d_right]
    if dims is not None:
        out["dims"] = [int(d) for d in dims]
    if kraus_index is not None:
        out["kraus_index"] = int(kraus_index)
    if kraus_count is not None:
        out["kraus_count"] = int(kraus_count)
    return out


def _is_count(value, least: int = 1) -> bool:
    """True iff ``value`` is a JSON integer (a boolean is not) of at least ``least``."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _number_array(entries, key: str) -> np.ndarray:
    """A list of rows of JSON numbers as a float array. Strings and booleans
    are not numbers; the entry types are read in one pass."""
    try:
        kinds = set(map(type, itertools.chain.from_iterable(entries)))
    except TypeError as exc:
        raise MatrixFileError(f"{key} must be a list of rows of numbers") from exc
    bad = sorted(k.__name__ for k in kinds if k is bool or not issubclass(k, (int, float)))
    if bad:
        raise MatrixFileError(f"{key} entries must be JSON numbers, got {', '.join(bad)}")
    try:
        return np.asarray(entries, dtype=float)
    except (ValueError, OverflowError) as exc:
        raise MatrixFileError(f"re/im arrays are malformed: {exc}") from exc


def parse_matrix_file(obj: dict, digest: str | None = None) -> ParsedMatrix:
    if obj.get("schema_version") != SCHEMA_VERSION:
        raise MatrixFileError(
            f"unsupported schema_version {obj.get('schema_version')!r}, expected {SCHEMA_VERSION!r}"
        )
    for key in ("rows", "cols", "re", "im"):
        if key not in obj:
            raise MatrixFileError(f"missing required field {key!r}")
    rows, cols = obj["rows"], obj["cols"]
    if not (_is_count(rows) and _is_count(cols)):
        raise MatrixFileError("rows and cols must be positive integers")
    re = _number_array(obj["re"], "re")
    im = _number_array(obj["im"], "im")
    if re.shape != (rows, cols) or im.shape != (rows, cols):
        raise MatrixFileError(
            f"re/im shapes {re.shape}/{im.shape} do not match rows x cols = ({rows}, {cols})"
        )
    if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
        raise MatrixFileError("matrix entries must be finite")
    matrix = re + 1j * im

    role = obj.get("role")
    if role is not None and role not in ROLES:
        raise MatrixFileError(f"unknown role {role!r}")

    layout = None
    if obj.get("layout") is not None:
        raw = obj["layout"]
        if not (isinstance(raw, list) and len(raw) == 2 and all(map(_is_count, raw))):
            raise MatrixFileError("layout must be a pair of positive integers [d_left, d_right]")
        layout = BipartiteLayout(*raw)
        if rows != cols or rows != layout.dim:
            raise MatrixFileError(
                f"layout {raw} inconsistent with matrix shape ({rows}, {cols})"
            )

    dims = None
    if obj.get("dims") is not None:
        raw = obj["dims"]
        if not isinstance(raw, list) or not all(map(_is_count, raw)):
            raise MatrixFileError("dims must be a list of positive integers")
        dims = tuple(raw)

    for key, least in (("kraus_index", 0), ("kraus_count", 1)):
        value = obj.get(key)
        if value is not None and not _is_count(value, least):
            raise MatrixFileError(f"{key} must be an integer >= {least}, got {value!r}")

    return ParsedMatrix(
        matrix=matrix,
        role=role,
        layout=layout,
        dims=dims,
        kraus_index=obj.get("kraus_index"),
        kraus_count=obj.get("kraus_count"),
        digest=digest,
    )


def ordered_kraus_files(parsed: list[ParsedMatrix]) -> list[ParsedMatrix]:
    """The files of one Kraus set, in kraus_index order, checked to be complete.

    All files must carry the same dims ``[d_a, d_b]`` and a kraus_index. The
    indices of n files must be 0 .. n-1, each once, and a recorded
    kraus_count must equal n. A partial or repeated set would silently
    describe a different map, so it is rejected.
    """
    if any(p.dims is None or len(p.dims) != 2 for p in parsed):
        raise MatrixFileError("kraus files require dims [d_a, d_b]")
    dims = {p.dims for p in parsed}
    if len(dims) != 1:
        raise MatrixFileError(f"kraus files disagree on dims: {sorted(dims)}")
    n = len(parsed)
    counts = {p.kraus_count for p in parsed} - {None}
    if counts - {n}:
        raise MatrixFileError(f"kraus_count {sorted(counts)} does not match the {n} files given")
    indices = [p.kraus_index for p in parsed]
    if None in indices:
        raise MatrixFileError("every kraus file needs a kraus_index")
    if sorted(indices) != list(range(n)):
        raise MatrixFileError(
            f"kraus_index values {sorted(indices)} are not 0 .. {n - 1}, each once"
        )
    return sorted(parsed, key=lambda p: p.kraus_index)


def require_operator_scale(parsed: list[ParsedMatrix], role: str) -> None:
    """Reject the files of a dilation or a Kraus set whose largest entry
    magnitude lies outside OPERATOR_SCALE_RANGE; all-zero entries pass."""
    largest = max(float(np.abs(p.matrix).max()) for p in parsed)
    low, high = OPERATOR_SCALE_RANGE
    if largest and not low <= largest <= high:
        raise InputScaleError(
            f"the largest {role} entry has magnitude {largest:.3g}, outside "
            f"[{low:.3g}, {high:.3g}]: the Choi matrices, quadratic in the entries, "
            "would underflow or overflow"
        )


def require_matrix_scale(parsed: ParsedMatrix, role: str) -> None:
    """Reject a Choi or state file whose largest entry magnitude times its
    dimension exceeds MATRIX_SCALE_LIMIT."""
    largest = float(np.abs(parsed.matrix).max())
    if largest * parsed.matrix.shape[0] > MATRIX_SCALE_LIMIT:
        raise InputScaleError(
            f"the largest {role} entry has magnitude {largest:.3g}, above "
            f"{MATRIX_SCALE_LIMIT:.3g} / {parsed.matrix.shape[0]} (the dimension): "
            "its spectra would overflow"
        )


def load_matrix(path) -> ParsedMatrix:
    """Read a matrix file once: parse its bytes and record their digest."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise MatrixFileError(f"cannot read {path}: {exc}") from exc
    return parse_matrix_file(loads(data.decode()), bytes_digest(data))


def save_json(path, obj: dict) -> None:
    """Write ``obj`` as a report or matrix file at ``path``, in place.

    Opening without ``O_TRUNC`` keeps a file system from flushing an output
    that was cut to zero bytes and rewritten (ext4's ``auto_da_alloc``). Only
    a regular file is cut to the written length; a device or a FIFO cannot be.
    """
    data = (dumps(obj) + "\n").encode()
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "wb") as f:
            before = os.fstat(fd)
            f.write(data)
            if stat.S_ISREG(before.st_mode) and before.st_size > len(data):
                f.truncate()
    except OSError as exc:
        raise MatrixFileError(f"cannot write {path}: {exc}") from exc


def bytes_digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def text_digest(text: str) -> str:
    return bytes_digest(text.encode())


def report_envelope(command: str, cfg: ToleranceConfig, input_digest: str | None) -> dict:
    """Common header of every report file. Only ``timestamp`` varies between
    identical runs."""
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": TOOL_VERSION,
        "command": command,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "input_digest": input_digest,
        "tolerances": cfg.to_json(),
    }
