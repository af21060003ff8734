"""JSON file formats: matrix files and report files, schema version 1.

Matrix files carry real and imaginary parts as separate row-major 2-d
arrays of binary64. Serialization goes through Python's shortest
round-trip float repr, so numbers survive a save/load cycle bit-exactly.
NaN and infinity are rejected in both directions.

Report files are deterministic given (input, flags, seed) except for the
``timestamp`` field.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import MatrixFileError
from .linalg import BipartiteLayout, ToleranceConfig, as_matrix

SCHEMA_VERSION = "1"
TOOL_VERSION = "0.1.0"

ROLES = ("choi", "state", "stinespring", "kraus")


@dataclass(frozen=True)
class ParsedMatrix:
    """A matrix file after validation."""

    matrix: np.ndarray
    role: str | None
    layout: BipartiteLayout | None
    dims: tuple[int, ...] | None
    kraus_index: int | None = None
    kraus_count: int | None = None


def _reject_constant(token: str):
    raise MatrixFileError(f"non-finite number {token!r} is not allowed")


def loads(text: str) -> dict:
    try:
        obj = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise MatrixFileError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise MatrixFileError("top-level JSON value must be an object")
    return obj


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, allow_nan=False, indent=1)


def matrix_file_dict(
    matrix,
    role: str | None = None,
    layout: BipartiteLayout | None = None,
    dims: tuple[int, ...] | None = None,
    kraus_index: int | None = None,
    kraus_count: int | None = None,
) -> dict:
    m = as_matrix(matrix)
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


def parse_matrix_file(obj: dict) -> ParsedMatrix:
    if obj.get("schema_version") != SCHEMA_VERSION:
        raise MatrixFileError(
            f"unsupported schema_version {obj.get('schema_version')!r}, expected {SCHEMA_VERSION!r}"
        )
    for key in ("rows", "cols", "re", "im"):
        if key not in obj:
            raise MatrixFileError(f"missing required field {key!r}")
    rows, cols = obj["rows"], obj["cols"]
    if not (isinstance(rows, int) and isinstance(cols, int) and rows > 0 and cols > 0):
        raise MatrixFileError("rows and cols must be positive integers")
    try:
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise MatrixFileError(f"re/im arrays are malformed: {exc}") from exc
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
        if not (isinstance(raw, list) and len(raw) == 2):
            raise MatrixFileError("layout must be a pair [d_left, d_right]")
        layout = BipartiteLayout(int(raw[0]), int(raw[1]))
        if rows != cols or rows != layout.dim:
            raise MatrixFileError(
                f"layout {raw} inconsistent with matrix shape ({rows}, {cols})"
            )

    dims = None
    if obj.get("dims") is not None:
        raw = obj["dims"]
        if not isinstance(raw, list) or not all(isinstance(d, int) and d > 0 for d in raw):
            raise MatrixFileError("dims must be a list of positive integers")
        dims = tuple(raw)

    for key, least in (("kraus_index", 0), ("kraus_count", 1)):
        value = obj.get(key)
        if value is not None and not (isinstance(value, int) and value >= least):
            raise MatrixFileError(f"{key} must be an integer >= {least}, got {value!r}")

    return ParsedMatrix(
        matrix=matrix,
        role=role,
        layout=layout,
        dims=dims,
        kraus_index=obj.get("kraus_index"),
        kraus_count=obj.get("kraus_count"),
    )


def ordered_kraus_files(parsed: list[ParsedMatrix]) -> list[ParsedMatrix]:
    """The files of one Kraus set, in kraus_index order, checked to be complete.

    All files must carry the same dims ``[d_a, d_b]`` and a kraus_index. The
    indices of n files must be 0 .. n-1, each once, and a recorded
    kraus_count must equal n. A partial or repeated set would silently
    describe a different map, so it is rejected.
    """
    if any(p.dims is None or len(p.dims) < 2 for p in parsed):
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


def load_matrix(path) -> ParsedMatrix:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise MatrixFileError(f"cannot read {path}: {exc}") from exc
    return parse_matrix_file(loads(text))


def save_json(path, obj: dict) -> None:
    Path(path).write_text(dumps(obj) + "\n")


def file_digest(path) -> str:
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


def text_digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


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
