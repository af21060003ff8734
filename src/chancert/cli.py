"""Command-line front end.

Subcommands: analyze, generate, convert, verify-theorem. All commands are
deterministic given (input, flags, seed); reports differ between identical
runs only in their timestamp.

Exit codes: 0 success, 1 internal error, 2 parse error, 3 precondition
failure, 4 counterexample-or-bug (a proven consistency relation failed).

Default tolerances can be overridden per invocation with --psd-tol,
--rank-tol, --equality-tol, or globally with the environment variables
CHANCERT_PSD_TOL, CHANCERT_RANK_TOL, CHANCERT_EQUALITY_TOL.

Each file role (choi, state, stinespring, kraus) is handled by one role
table: ``_load`` checks a role's files and builds its object, ``ANALYSES``
maps a role to the report ``analyze`` writes, ``CONVERSIONS`` maps a
``(source, target)`` pair to its library route, and ``_payload`` writes a
choi, state or stinespring object for ``generate`` and ``convert``. The
``--as``, ``--from`` and ``--to`` choices are read from these tables.

``main`` may be called repeatedly in one process: the parser is built once,
and flags, environment and handler are read anew on every call. Its first
call sets the process policies that the library leaves to its callers
(``_set_process_policy``). Every parse gives the namespace, or the messages
and exit code, of ``build_parser().parse_args`` (``_parse_args``).
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import itertools
import os
import sys
from pathlib import Path

from numpy.linalg import _umath_linalg

from .channels import (
    ChoiMatrix,
    KrausSet,
    StinespringOperator,
    choi_from_kraus,
    choi_from_stinespring,
    kraus_from_choi,
    kraus_from_stinespring,
    stinespring_from_kraus,
)
from .certify import choi_report, equivalence_check, state_report
from .errors import (
    ChancertError,
    CounterexampleOrBugError,
    DimensionMismatchError,
    FragileSampleError,
    InputScaleError,
    MatrixFileError,
    NonHermitianError,
    NotPositiveSemidefiniteError,
    PurityViolationError,
)
from .generate import GENERATOR_ALGORITHM, GENERATOR_KINDS, SEED_DERIVATION, GeneratorSpec, build
from .harness import run_harness
from .io import (
    ParsedMatrix,
    dumps,
    load_matrix,
    matrix_file_dict,
    ordered_kraus_files,
    report_envelope,
    require_matrix_scale,
    require_operator_scale,
    save_json,
    text_digest,
)
from .linalg import BipartiteLayout, ToleranceConfig

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_COUNTEREXAMPLE = 4

# glibc's mallopt parameters (malloc.h), and what the CLI sets them to: the
# cap of glibc's own dynamic mmap threshold on 64-bit, and twice that.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD, _TRIM_THRESHOLD = 32 << 20, 64 << 20
# Symbol prefixes and suffixes of OpenBLAS's thread-count functions: numpy's
# wheels rename them (scipy_openblas..., 64_ for 64-bit integer builds), a
# system OpenBLAS exports openblas_get_num_threads / openblas_set_num_threads.
_OPENBLAS_PREFIXES = ("scipy_openblas", "openblas")
_OPENBLAS_SUFFIXES = ("64_", "")

ENV_VARS = {
    "psd_tol": "CHANCERT_PSD_TOL",
    "rank_tol": "CHANCERT_RANK_TOL",
    "equality_tol": "CHANCERT_EQUALITY_TOL",
}


def _parse_list(text: str, kind: type, noun: str) -> tuple:
    try:
        return tuple(kind(part) for part in text.split(","))
    except ValueError as exc:
        raise MatrixFileError(f"expected comma-separated {noun}, got {text!r}") from exc


def resolve_tolerances(args) -> ToleranceConfig:
    values = {}
    for name, env in ENV_VARS.items():
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
        elif env in os.environ:
            try:
                values[name] = float(os.environ[env])
            except ValueError as exc:
                raise MatrixFileError(f"{env} must be a number, got {os.environ[env]!r}") from exc
    return ToleranceConfig(**values)


def _emit(obj: dict, output: str | None) -> None:
    if output:
        save_json(output, obj)
    else:
        sys.stdout.write(dumps(obj) + "\n")


# The report of each role that ``analyze`` reads; any other role cannot be analyzed.
ANALYSES = {
    "choi": lambda choi, cfg, path: choi_report(choi, cfg),
    "state": lambda state, cfg, path: state_report(*state, cfg),
    "stinespring": lambda st, cfg, path: equivalence_check(st, cfg, context={"input": str(path)}),
}
# The route of each conversion between the roles that ``convert`` reads; any
# other role cannot be converted, and a role converts to itself unchanged.
CONVERSIONS = {
    ("choi", "kraus"): lambda choi, cfg: kraus_from_choi(choi, cfg),
    ("choi", "stinespring"): lambda choi, cfg: stinespring_from_kraus(kraus_from_choi(choi, cfg)),
    ("kraus", "choi"): lambda kraus, cfg: choi_from_kraus(kraus),
    ("kraus", "stinespring"): lambda kraus, cfg: stinespring_from_kraus(kraus),
    ("stinespring", "choi"): lambda st, cfg: choi_from_stinespring(st),
    ("stinespring", "kraus"): lambda st, cfg: kraus_from_stinespring(st),
}
CONVERTIBLE = tuple(dict.fromkeys(source for source, _ in CONVERSIONS))


def _load(parsed: list[ParsedMatrix], role: str, accepted, verb: str):
    """The object that the files ``parsed`` of ``role`` hold, checked: a
    ChoiMatrix, a KrausSet, a StinespringOperator, or a state's matrix and
    layout. A role not in ``accepted`` cannot be ``verb``; only a Kraus set
    spans several files."""
    if role != "kraus" and len(parsed) != 1:
        raise MatrixFileError(f"role {role!r} expects exactly one input file")
    if role not in accepted:
        raise MatrixFileError(f"role {role!r} cannot be {verb}")
    if role == "kraus":
        ordered = ordered_kraus_files(parsed)
        require_operator_scale(ordered, role)
        return KrausSet(*ordered[0].dims, tuple(p.matrix for p in ordered))
    (p,) = parsed
    if role == "stinespring":
        if p.dims is None or len(p.dims) != 3:
            raise MatrixFileError("stinespring files require dims [d_a, d_b, d_c]")
        require_operator_scale(parsed, role)
        return StinespringOperator(*p.dims, p.matrix)
    require_matrix_scale(p, role)
    layout = p.layout
    if layout is None:
        if p.dims is None or len(p.dims) != 2:
            raise MatrixFileError(f"matrix file needs a layout or two-entry dims to be {verb}")
        layout = BipartiteLayout(*p.dims)
    elif p.dims is not None and p.dims != (layout.d_left, layout.d_right):
        raise MatrixFileError(
            f"dims {list(p.dims)} disagree with layout {[layout.d_left, layout.d_right]}"
        )
    if role == "choi":
        return ChoiMatrix(layout.d_left, layout.d_right, p.matrix)
    return p.matrix, layout


def _payload(obj, role: str) -> dict:
    """The matrix file of a choi, state or stinespring object."""
    if role == "stinespring":
        return matrix_file_dict(obj.matrix, role=role, dims=(obj.d_a, obj.d_b, obj.d_c))
    return matrix_file_dict(obj.matrix, role=role, layout=obj.layout, dims=(obj.d_a, obj.d_b))


def cmd_analyze(args, cfg: ToleranceConfig) -> int:
    parsed = load_matrix(args.input)
    role = args.role or parsed.role
    if role is None:
        raise MatrixFileError(f"input file has no role; pass --as {'|'.join(ANALYSES)}")
    obj = _load([parsed], role, ANALYSES, "analyzed")
    envelope = report_envelope("analyze", cfg, parsed.digest)
    envelope["role"] = role
    envelope["analysis"] = ANALYSES[role](obj, cfg, args.input).to_json()
    _emit(envelope, args.output)
    return EXIT_OK


def cmd_generate(args, cfg: ToleranceConfig) -> int:
    spec = GeneratorSpec(
        kind=args.kind,
        dims=_parse_list(args.dims, int, "integers") if args.dims else (),
        params=_parse_list(args.params, float, "numbers") if args.params else (),
        seed=args.seed,
        index=args.index,
        normalize_columns=args.normalize,
    )
    role, obj = build(spec)
    payload = _payload(obj, role)
    payload["generator"] = spec.to_json()
    _emit(payload, args.output)
    return EXIT_OK


def cmd_convert(args, cfg: ToleranceConfig) -> int:
    parsed = [load_matrix(path) for path in args.inputs]
    role = args.source or parsed[0].role
    if role is None:
        raise MatrixFileError(f"input files have no role; pass --from {'|'.join(CONVERTIBLE)}")
    obj = _load(parsed, role, CONVERTIBLE, "converted")
    target = args.target
    if role != target:
        obj = CONVERSIONS[role, target](obj, cfg)
    if target != "kraus":
        _emit(_payload(obj, target), args.output)
        return EXIT_OK
    if not args.output:
        raise MatrixFileError("converting to kraus requires --output")
    base = Path(args.output)
    stem = base.name[: -len(base.suffix)] if base.suffix else base.name
    count = len(obj.operators)
    for index, op in enumerate(obj.operators):
        payload = matrix_file_dict(
            op, role="kraus", dims=(obj.d_a, obj.d_b), kraus_index=index, kraus_count=count
        )
        path = base.with_name(f"{stem}.k{index:02d}{base.suffix or '.json'}")
        save_json(path, payload)
        sys.stdout.write(str(path) + "\n")
    return EXIT_OK


def cmd_verify_theorem(args, cfg: ToleranceConfig) -> int:
    dims = _parse_list(args.dims, int, "integers")
    if len(dims) != 3 or min(dims) < 1:
        raise MatrixFileError("--dims must be three positive integers d_a,d_b,d_c")
    if args.trials < 1:
        raise MatrixFileError("--trials must be at least 1")

    result = run_harness(dims, args.trials, args.seed, cfg)

    digest = text_digest(f"verify-theorem dims={dims} trials={args.trials} seed={args.seed}")
    envelope = report_envelope("verify-theorem", cfg, digest)
    envelope.update(
        {
            "trials": args.trials,
            "dims": list(dims),
            "seed": args.seed,
            "generator": {"algorithm": GENERATOR_ALGORITHM, "seed_derivation": SEED_DERIVATION},
            "counts": result.counts,
            "counterexamples": result.counterexamples,
        }
    )
    _emit(envelope, args.output)
    return EXIT_COUNTEREXAMPLE if result.counterexamples else EXIT_OK


def _openblas_thread_controls():
    """``(get, set)`` thread-count functions of the OpenBLAS numpy loaded, or None.

    They are looked up on a handle of numpy's linalg extension, which is
    loaded with numpy and links its BLAS; a lookup on a library's handle
    also searches the libraries it links. The handle is opened with
    ``RTLD_NOLOAD``, so nothing is ever loaded; None when numpy's BLAS is
    another library.
    """
    mode = getattr(os, "RTLD_NOLOAD", None)
    if mode is None:
        return None
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__, mode=mode)
    except OSError:
        return None
    for prefix, suffix in itertools.product(_OPENBLAS_PREFIXES, _OPENBLAS_SUFFIXES):
        try:
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            set_threads = getattr(lib, f"{prefix}_set_num_threads{suffix}")
        except AttributeError:
            continue
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        return get_threads, set_threads
    return None


@functools.cache
def _set_process_policy() -> None:
    """Hold numpy's OpenBLAS to one thread, and have glibc's malloc keep
    freed heap memory, for the rest of the process; neither is restored.

    At desk-scale dimensions BLAS worker threads buy no wall time (a 64x64
    ``eigvalsh`` takes as long on one thread as on two) and double the CPU
    time. glibc's default raises the trim threshold only to twice
    the largest mapped block freed so far, below the working set that each
    harness chunk frees (about 2.3 MiB at (4, 4, 16)), so the heap top went
    back to the kernel after every chunk and was page-faulted in again by
    the next one: about 520 minor faults per 50-trial command there. Here
    arrays below 32 MiB come from the heap, and up to 64 MiB of free heap
    top stays mapped. Setting either value turns glibc's dynamic rule off,
    so both are set; glibc has no getter to restore them with. Both
    policies are process-wide, so they are for the owner of the process,
    and ``run_harness`` and ``equivalence_check`` leave them alone. Each
    does nothing where its library is missing: numpy's BLAS is not
    OpenBLAS, or the C library has no ``mallopt``. Neither changes a number:
    the CI smokes and the benchmark corpora give the same output bytes on one
    BLAS thread as on two, and the same matrices are computed in memory
    from another place.
    """
    controls = _openblas_thread_controls()
    if controls is not None:
        _, set_threads = controls
        set_threads(1)
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # TypeError: no CDLL(None), as on Windows
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of this process, built on the first call; parsing never
    changes it. Its ``commands`` attribute maps each subcommand's name to the
    parser of its arguments."""
    parser = argparse.ArgumentParser(
        prog="chancert",
        description="Certify completely positive maps: representations, PPT tests, "
        "rank witnesses, and complementary-pair consistency checks.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--psd-tol", dest="psd_tol", type=float, default=None,
                        help="relative eigenvalue negativity allowance (default 1e-9)")
    common.add_argument("--rank-tol", dest="rank_tol", type=float, default=None,
                        help="relative singular value cutoff (default 1e-8)")
    common.add_argument("--equality-tol", dest="equality_tol", type=float, default=None,
                        help="relative Frobenius matrix equality tolerance (default 1e-9)")
    common.add_argument("--output", default=None, help="write the result to this path")

    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", parents=[common],
                             help="run the predicate suite on a matrix file")
    analyze.add_argument("input", help="matrix file to analyze")
    analyze.add_argument("--as", dest="role", choices=tuple(ANALYSES),
                         default=None, help="interpretation of the input (default: file role)")

    generate = sub.add_parser("generate", parents=[common],
                              help="generate a channel, state, or dilation file")
    generate.add_argument("--kind", required=True, choices=GENERATOR_KINDS)
    generate.add_argument("--dims", default=None, help="comma-separated dimensions")
    generate.add_argument("--params", default=None, help="comma-separated weights (schur)")
    generate.add_argument("--seed", type=int, default=None,
                          help="any non-negative integer, used whole (random-stinespring)")
    generate.add_argument("--index", type=int, default=None,
                          help="use the index-th harness sample's stream (random-stinespring)")
    generate.add_argument("--normalize", action="store_true",
                          help="normalize dilation columns (random-stinespring)")

    convert = sub.add_parser("convert", parents=[common],
                             help="convert between choi, kraus, and stinespring files")
    convert.add_argument("inputs", nargs="+", help="input file(s); kraus sets span several")
    convert.add_argument("--to", dest="target", required=True, choices=CONVERTIBLE)
    convert.add_argument("--from", dest="source", choices=CONVERTIBLE,
                         default=None, help="source representation (default: file role)")

    verify = sub.add_parser("verify-theorem", parents=[common],
                            help="Monte-Carlo consistency harness over random dilations")
    verify.add_argument("--trials", type=int, required=True)
    verify.add_argument("--dims", required=True, help="d_a,d_b,d_c")
    verify.add_argument("--seed", type=int, required=True,
                        help="any non-negative integer, used whole")

    parser.commands = {"analyze": analyze, "generate": generate, "convert": convert,
                       "verify-theorem": verify}
    return parser


def _parse_args(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``: the same namespace, or the same
    output and exit. A valid command line is parsed by its subcommand's
    parser alone, which spares the full parser's second scan of argv. Help,
    an unknown command, an empty argv and unrecognized arguments go to the
    full parser, whose messages name the whole program."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extras = command.parse_known_args(argv[1:])
        if not extras:
            return argparse.Namespace(command=argv[0], **vars(args))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    _set_process_policy()
    args = _parse_args(argv)
    # Looked up per call, so a wrapper installed on a cmd_* handler applies.
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        cfg = resolve_tolerances(args)
        return handler(args, cfg)
    except MatrixFileError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except (
        DimensionMismatchError,
        InputScaleError,
        NonHermitianError,
        NotPositiveSemidefiniteError,
        FragileSampleError,
    ) as exc:
        sys.stderr.write(f"precondition failed: {exc}\n")
        return EXIT_PRECONDITION
    except (CounterexampleOrBugError, PurityViolationError) as exc:
        sys.stderr.write(f"counterexample or bug: {exc}\n")
        return EXIT_COUNTEREXAMPLE
    except ChancertError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
