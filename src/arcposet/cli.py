"""Command-line front end.

Every operation of the library is reachable here: diagram inspection and
transforms, family enumeration, poset export, complex construction,
homology, and the named verification checks.  Exit codes: 0 success,
1 verification failure, 2 malformed input, 3 resource cap exceeded.  A
reader that closes stdout early (``arcposet ... | head -1``) ends the
command quietly, with exit code 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from .complexes import build_T, read_facets, reduced_homology, write_facets
from .diagram import (
    block_list,
    block_matrix,
    crossing_count,
    free_sites,
    is_binary,
    is_proper,
    is_regular,
    parse,
    tautology_number,
    to_text,
)
from .errors import InvalidArgumentError, InvariantError, ResourceLimitError
from .families import build_family, family_names
from .matrix import SymmetricMatrix
from .transform import blow_up, canonicalize, dual, equivalent, realize_matrix
from .verify import check_names, run_check

SCHEMA = 1

# the commands that bound their work by the global --cap; the rest refuse it
CAPPED_COMMANDS = ("realize", "enum", "poset", "complex", "homology")


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps({"schema": SCHEMA, **payload}, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InvalidArgumentError(f"cannot read {what} file {path!r}: {exc}") from exc


def _write_text(path: str, text: str, what: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InvalidArgumentError(f"cannot write {what} file {path!r}: {exc}") from exc


def _load_matrix(source: str) -> SymmetricMatrix:
    text = source if source.lstrip().startswith("{") else _read_text(source, "matrix")
    return SymmetricMatrix.from_json(text)


def _parse_params(text: str | None) -> dict[str, int]:
    params: dict[str, int] = {}
    if not text:
        return params
    for part in text.split(","):
        name, _, value = part.partition("=")
        name = name.strip()
        if name in params:
            raise InvalidArgumentError(f"parameter {name!r} given twice")
        try:
            params[name] = int(value)
        except ValueError:
            raise InvalidArgumentError(f"bad parameter {part!r}; expected name=int") from None
    return params


def _cmd_inspect(args) -> int:
    diagram = parse(args.diagram)
    text, free = to_text(diagram), free_sites(diagram)
    blocks, matrix = block_list(diagram), block_matrix(diagram)
    binary, proper, regular = is_binary(diagram), is_proper(diagram), is_regular(diagram)
    crossings, tautology = crossing_count(diagram), tautology_number(diagram)
    payload = {
        "diagram": text,
        "free_sites": list(free),
        "blocks": [list(b) for b in blocks],
        "block_matrix": [list(row) for row in matrix.rows],
        "binary": binary,
        "proper": proper,
        "regular": regular,
        "crossings": crossings,
        "tautology": tautology,
    }
    lines = [
        f"diagram: {text}",
        f"free sites: {' '.join(map(str, free))}",
        "blocks: " + " | ".join("{" + ",".join(map(str, b)) + "}" for b in blocks),
        f"block matrix: {matrix.to_json()}",
        f"binary: {binary}  proper: {proper}  regular: {regular}",
        f"crossings: {crossings}  tautology: {tautology}",
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_transform(args) -> int:
    diagram = parse(args.diagram)
    operation = {"canonicalize": canonicalize, "dual": dual, "blowup": blow_up}[args.command]
    result = operation(diagram)
    _emit(args, {"diagram": to_text(result)}, [to_text(result)])
    return 0


def _cmd_equiv(args) -> int:
    first = parse(args.first)
    second = parse(args.second)
    verdict = equivalent(first, second)
    _emit(
        args,
        {"equivalent": verdict},
        ["equivalent" if verdict else "not equivalent"],
    )
    return 0


def _cmd_realize(args) -> int:
    matrix = _load_matrix(args.matrix)
    diagram = realize_matrix(matrix) if args.cap is None else realize_matrix(matrix, cap=args.cap)
    _emit(args, {"diagram": to_text(diagram)}, [to_text(diagram)])
    return 0


def _build_family(args):
    return build_family(args.family, cap=args.cap, **_parse_params(args.params))


def _cmd_enum(args) -> int:
    poset = _build_family(args)
    keys = [to_text(e) if hasattr(e, "arcs") else e.to_json() for e in poset.elements]
    _emit(args, {"family": args.family, "count": len(keys), "elements": keys}, keys)
    return 0


def _cmd_poset(args) -> int:
    poset = _build_family(args)
    if args.dot:
        _write_text(args.dot, poset.to_dot(name="family") + "\n", "DOT")
    stats = poset.stats_text()
    lines = [stats] if args.stats or not args.dot else []
    payload = {"family": args.family, "stats": stats}
    if args.dot:
        payload["dot"] = args.dot
    _emit(args, payload, lines)
    return 0


def _cmd_complex(args) -> int:
    m, k = args.T
    complex_ = build_T(m, k) if args.cap is None else build_T(m, k, cap=args.cap)
    text = write_facets(complex_)
    if args.facets:
        _write_text(args.facets, text, "facet")
        _emit(
            args,
            {"facets": args.facets, "count": len(complex_.masks)},
            [f"{len(complex_.masks)} facets written to {args.facets}"],
        )
    else:
        _emit(
            args,
            {"count": len(complex_.masks), "facet_lines": text.splitlines()},
            text.splitlines(),
        )
    return 0


def _cmd_homology(args) -> int:
    complex_ = read_facets(_read_text(args.facets, "facet"))
    homology = reduced_homology(complex_) if args.cap is None else reduced_homology(complex_, cap=args.cap)
    lines = homology.report_lines()
    payload = {
        "groups": {
            str(d): {"betti": b, "torsion": list(t)}
            for d, (b, t) in sorted(homology.groups.items())
        }
    }
    _emit(args, payload, lines)
    return 0


def _cmd_verify(args) -> int:
    grid = None
    if args.grid:
        grid = []
        for chunk in args.grid:
            for point in chunk.split(";"):
                if point.strip():
                    grid.append(_parse_params(point))
    report = run_check(args.check, grid)
    lines = []
    payload_points = []
    for point in report.points:
        status = "pass" if point.passed else "FAIL"
        params = ",".join(f"{k}={v}" for k, v in point.params.items())
        lines.append(f"{report.check}[{params}]: {status} -- {point.detail}")
        payload_points.append(
            {"params": point.params, "passed": point.passed, "detail": point.detail}
        )
    lines.append(f"{report.check}: {'pass' if report.passed else 'FAIL'}")
    _emit(
        args,
        {"check": report.check, "passed": report.passed, "points": payload_points},
        lines,
    )
    return 0 if report.passed else 1


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and reused by every
    later ``run`` in the process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="arcposet",
        description="Arc diagrams, block matrices, posets and homology.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument(
        "--cap", type=int, default=None, help="size/search cap for " + ", ".join(CAPPED_COMMANDS)
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="free sites, blocks, block matrix, predicates")
    p.add_argument("diagram")
    p.set_defaults(func=_cmd_inspect)

    for name, help_text in (
        ("canonicalize", "unique regular representative"),
        ("dual", "half-site dual"),
        ("blowup", "split multi-arc sites"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("diagram")
        p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("equiv", help="block-matrix equivalence of two diagrams")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("realize", help="proper diagram realizing a matrix")
    p.add_argument("matrix", help="matrix JSON file or literal JSON")
    p.set_defaults(func=_cmd_realize)

    for name, help_text in (
        ("enum", "list the members of a family"),
        ("poset", "family poset stats and DOT export"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--family", required=True, choices=family_names())
        p.add_argument("--params", help="comma-separated name=int, e.g. f=4,k=1,r=0")
        if name == "poset":
            p.add_argument("--dot", help="write the cover digraph to this DOT file")
            p.add_argument("--stats", action="store_true")
            p.set_defaults(func=_cmd_poset)
        else:
            p.set_defaults(func=_cmd_enum)

    p = sub.add_parser("complex", help="build a multitriangulation complex")
    p.add_argument("--T", nargs=2, type=int, metavar=("m", "k"), required=True)
    p.add_argument("--facets", help="write facets to this file")
    p.set_defaults(func=_cmd_complex)

    p = sub.add_parser("homology", help="reduced integral homology of a facet list")
    p.add_argument("--facets", required=True)
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("verify", help="run a named verification check")
    p.add_argument("--check", required=True, choices=check_names())
    p.add_argument(
        "--grid",
        action="append",
        help="grid points like f=4,k=1 (repeat or separate with ';')",
    )
    p.set_defaults(func=_cmd_verify)
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        if args.cap is not None:
            if args.cap < 0:
                raise InvalidArgumentError(f"--cap must be >= 0, got {args.cap}")
            if args.command not in CAPPED_COMMANDS:
                raise InvalidArgumentError(f"{args.command} takes no --cap")
        return args.func(args)
    except InvalidArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: point stdout at the null device so that the
        # interpreter's last flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    main()
