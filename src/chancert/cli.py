"""Command-line front end.

Subcommands: analyze, generate, convert, verify-theorem. All commands are
deterministic given (input, flags, seed); reports differ between identical
runs only in their timestamp.

Exit codes: 0 success, 1 internal error, 2 parse error, 3 precondition
failure, 4 counterexample-or-bug (a proven consistency relation failed).

Default tolerances can be overridden per invocation with --psd-tol,
--rank-tol, --equality-tol, or globally with the environment variables
CHANCERT_PSD_TOL, CHANCERT_RANK_TOL, CHANCERT_EQUALITY_TOL.

``main`` may be called repeatedly in one process: the parser is built once,
and flags, environment and handler are read anew on every call.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

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
from .generate import GENERATOR_ALGORITHM, SEED_DERIVATION, GeneratorSpec, build
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
from .linalg import BipartiteLayout, ToleranceConfig, single_threaded_blas

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_COUNTEREXAMPLE = 4

ENV_VARS = {
    "psd_tol": "CHANCERT_PSD_TOL",
    "rank_tol": "CHANCERT_RANK_TOL",
    "equality_tol": "CHANCERT_EQUALITY_TOL",
}


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise MatrixFileError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise MatrixFileError(f"expected comma-separated numbers, got {text!r}") from exc


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


def _bipartite_layout(parsed: ParsedMatrix) -> BipartiteLayout:
    if parsed.layout is not None:
        return parsed.layout
    if parsed.dims is not None and len(parsed.dims) == 2:
        return BipartiteLayout(*parsed.dims)
    raise MatrixFileError("matrix file needs a layout or two-entry dims to be analyzed")


def _choi_from_parsed(parsed: ParsedMatrix) -> ChoiMatrix:
    require_matrix_scale(parsed, "choi")
    layout = _bipartite_layout(parsed)
    return ChoiMatrix(layout.d_left, layout.d_right, parsed.matrix)


def _stinespring_from_parsed(parsed: ParsedMatrix) -> StinespringOperator:
    if parsed.dims is None or len(parsed.dims) != 3:
        raise MatrixFileError("stinespring files require dims [d_a, d_b, d_c]")
    require_operator_scale([parsed], "stinespring")
    d_a, d_b, d_c = parsed.dims
    return StinespringOperator(d_a, d_b, d_c, parsed.matrix)


def cmd_analyze(args, cfg: ToleranceConfig) -> int:
    parsed = load_matrix(args.input)
    role = args.role or parsed.role
    if role is None:
        raise MatrixFileError("input file has no role; pass --as choi|state|stinespring")
    envelope = report_envelope("analyze", cfg, parsed.digest)
    envelope["role"] = role
    if role == "choi":
        report = choi_report(_choi_from_parsed(parsed), cfg)
    elif role == "state":
        require_matrix_scale(parsed, "state")
        report = state_report(parsed.matrix, _bipartite_layout(parsed), cfg)
    elif role == "stinespring":
        st = _stinespring_from_parsed(parsed)
        report = equivalence_check(st, cfg, context={"input": str(args.input)})
    else:
        raise MatrixFileError(f"role {role!r} cannot be analyzed")
    envelope["analysis"] = report.to_json()
    _emit(envelope, args.output)
    return EXIT_OK


def cmd_generate(args, cfg: ToleranceConfig) -> int:
    spec = GeneratorSpec(
        kind=args.kind,
        dims=_parse_ints(args.dims) if args.dims else (),
        params=_parse_floats(args.params) if args.params else (),
        seed=args.seed,
        index=args.index,
        normalize_columns=args.normalize,
    )
    role, obj = build(spec)
    if role in ("choi", "state"):
        layout = obj.layout
        payload = matrix_file_dict(
            obj.matrix, role=role, layout=layout, dims=(obj.d_a, obj.d_b)
        )
    else:
        payload = matrix_file_dict(
            obj.matrix, role="stinespring", dims=(obj.d_a, obj.d_b, obj.d_c)
        )
    payload["generator"] = spec.to_json()
    _emit(payload, args.output)
    return EXIT_OK


def _load_source(args) -> tuple[str, object]:
    parsed = [load_matrix(path) for path in args.inputs]
    role = args.source or parsed[0].role
    if role is None:
        raise MatrixFileError("input files have no role; pass --from choi|kraus|stinespring")
    if role == "kraus":
        ordered = ordered_kraus_files(parsed)
        require_operator_scale(ordered, "kraus")
        d_a, d_b = ordered[0].dims[:2]
        return role, KrausSet(d_a, d_b, tuple(p.matrix for p in ordered))
    if len(parsed) != 1:
        raise MatrixFileError(f"role {role!r} expects exactly one input file")
    if role == "choi":
        return role, _choi_from_parsed(parsed[0])
    if role == "stinespring":
        return role, _stinespring_from_parsed(parsed[0])
    raise MatrixFileError(f"role {role!r} cannot be converted")


def cmd_convert(args, cfg: ToleranceConfig) -> int:
    role, obj = _load_source(args)
    target = args.target

    if target == "choi":
        if role == "choi":
            choi = obj
        elif role == "kraus":
            choi = choi_from_kraus(obj)
        else:
            choi = choi_from_stinespring(obj)
        payload = matrix_file_dict(
            choi.matrix, role="choi", layout=choi.layout, dims=(choi.d_a, choi.d_b)
        )
        _emit(payload, args.output)
        return EXIT_OK

    if target == "stinespring":
        if role == "stinespring":
            st = obj
        elif role == "kraus":
            st = stinespring_from_kraus(obj)
        else:
            st = stinespring_from_kraus(kraus_from_choi(obj, cfg))
        payload = matrix_file_dict(st.matrix, role="stinespring", dims=(st.d_a, st.d_b, st.d_c))
        _emit(payload, args.output)
        return EXIT_OK

    if target == "kraus":
        if role == "kraus":
            kraus = obj
        elif role == "stinespring":
            kraus = kraus_from_stinespring(obj)
        else:
            kraus = kraus_from_choi(obj, cfg)
        if not args.output:
            raise MatrixFileError("converting to kraus requires --output")
        base = Path(args.output)
        stem = base.name[: -len(base.suffix)] if base.suffix else base.name
        count = len(kraus.operators)
        for index, op in enumerate(kraus.operators):
            payload = matrix_file_dict(
                op,
                role="kraus",
                dims=(kraus.d_a, kraus.d_b),
                kraus_index=index,
                kraus_count=count,
            )
            path = base.with_name(f"{stem}.k{index:02d}{base.suffix or '.json'}")
            save_json(path, payload)
            sys.stdout.write(str(path) + "\n")
        return EXIT_OK

    raise MatrixFileError(f"unknown conversion target {target!r}")


def cmd_verify_theorem(args, cfg: ToleranceConfig) -> int:
    dims = _parse_ints(args.dims)
    if len(dims) != 3 or min(dims) < 1:
        raise MatrixFileError("--dims must be three positive integers d_a,d_b,d_c")
    if args.trials < 1:
        raise MatrixFileError("--trials must be at least 1")

    # BLAS threads are process-wide policy, so the CLI sets it, not run_harness.
    with single_threaded_blas():
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of this process, built on the first call; parsing never changes it."""
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
    analyze.add_argument("--as", dest="role", choices=("choi", "state", "stinespring"),
                         default=None, help="interpretation of the input (default: file role)")

    generate = sub.add_parser("generate", parents=[common],
                              help="generate a channel, state, or dilation file")
    generate.add_argument("--kind", required=True,
                          choices=("identity", "transpose", "dephasing", "depolarizing",
                                   "schur", "tiles", "random-stinespring"))
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
    convert.add_argument("--to", dest="target", required=True,
                         choices=("choi", "kraus", "stinespring"))
    convert.add_argument("--from", dest="source", choices=("choi", "kraus", "stinespring"),
                         default=None, help="source representation (default: file role)")

    verify = sub.add_parser("verify-theorem", parents=[common],
                            help="Monte-Carlo consistency harness over random dilations")
    verify.add_argument("--trials", type=int, required=True)
    verify.add_argument("--dims", required=True, help="d_a,d_b,d_c")
    verify.add_argument("--seed", type=int, required=True,
                        help="any non-negative integer, used whole")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
