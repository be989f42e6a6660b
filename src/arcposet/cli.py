"""Command-line front end.

Every operation of the library is reachable here: diagram inspection and
transforms, family enumeration, poset export, complex construction,
homology, and the named verification checks.  Exit codes: 0 success,
1 verification failure, 2 malformed input, 3 resource cap exceeded.  A
reader that closes stdout early (``arcposet ... | head -1``) ends the
command quietly, with exit code 0.

The command line is read from the tables ``GLOBAL_OPTIONS`` and
``COMMANDS``: global options first, then the command, then its arguments,
each option as ``--name value`` or ``--name=value`` (no abbreviations).
A malformed command line ends in one ``error:`` line and exit code 2;
``-h``/``--help`` prints the usage text.
"""

from __future__ import annotations

import json
import os
import re
import sys
from collections.abc import Callable, Sequence
from types import SimpleNamespace
from typing import NamedTuple

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
    except UnicodeDecodeError as exc:
        reason = f"{exc.reason} at byte {exc.start}"
        raise InvalidArgumentError(f"{what} file {path!r} is not UTF-8 text: {reason}") from exc


def _write_text(path: str, text: str, what: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InvalidArgumentError(f"cannot write {what} file {path!r}: {exc}") from exc


def _load_matrix(source: str) -> SymmetricMatrix:
    text = source if source.lstrip().startswith("{") else _read_text(source, "matrix")
    return SymmetricMatrix.from_json(text)


def _integer(text: str) -> int:
    """The integer ``text`` writes in ASCII digits, after an optional '-'.
    Anything else raises ``ValueError``, such as the '+', '_', spaces and
    other scripts' digits that ``int`` accepts."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


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
            params[name] = _integer(value.strip())
        except ValueError:
            raise InvalidArgumentError(f"bad parameter {part!r}; expected name=int") from None
    return params


def _cmd_inspect(args) -> int:
    diagram = parse(args.diagram)
    # order f+1, f the length less the distinct endpoints: refused over the
    # default cap before anything of the diagram's length is built
    order = diagram.length - len({site for arc in diagram.arcs for site in arc}) + 1
    if order * order > 10_000_000:
        message = f"inspect would print a block matrix of order {order} ({order * order} entries)"
        raise ResourceLimitError(message + ", over cap 10000000", bound=10_000_000)
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


class Option(NamedTuple):
    """One ``--name`` option, read into the attribute ``name``.  It takes
    ``arity`` values, each converted by ``kind`` (arity 0: a flag, True when
    given); ``choices``, when set, is called for the values accepted.  A
    ``repeat`` option collects its values in a list; for any other, the
    last one given wins."""

    metavar: str
    help: str
    arity: int = 1
    kind: Callable[[str], object] = str
    choices: Callable[[], Sequence[str]] | None = None
    required: bool = False
    repeat: bool = False
    default: object = None


class Command(NamedTuple):
    """One command: its handler, its help line, its positionals (each read
    into the attribute of that name) and its options."""

    handler: Callable[[SimpleNamespace], int]
    help: str
    positionals: tuple[str, ...]
    options: dict[str, Option]


# the options given before the command
GLOBAL_OPTIONS = {
    "--format": Option(
        "FORMAT", 'output format, text by default; JSON carries "schema": 1',
        choices=lambda: ("text", "json"), default="text",
    ),
    "--cap": Option("N", "size/search cap for " + ", ".join(CAPPED_COMMANDS), kind=_integer),
}

_FAMILY_OPTIONS = {
    "--family": Option("NAME", "the family", choices=family_names, required=True),
    "--params": Option("PARAMS", "comma-separated name=int, e.g. f=4,k=1,r=0"),
}

COMMANDS = {
    "inspect": Command(_cmd_inspect, "free sites, blocks, block matrix, predicates", ("diagram",), {}),
    "canonicalize": Command(_cmd_transform, "unique regular representative", ("diagram",), {}),
    "dual": Command(_cmd_transform, "half-site dual", ("diagram",), {}),
    "blowup": Command(_cmd_transform, "split multi-arc sites", ("diagram",), {}),
    "equiv": Command(_cmd_equiv, "block-matrix equivalence of two diagrams", ("first", "second"), {}),
    "realize": Command(_cmd_realize, "proper diagram realizing a matrix (JSON file or literal)", ("matrix",), {}),
    "enum": Command(_cmd_enum, "list the members of a family", (), _FAMILY_OPTIONS),
    "poset": Command(
        _cmd_poset,
        "family poset stats and DOT export",
        (),
        {
            **_FAMILY_OPTIONS,
            "--dot": Option("FILE", "write the cover digraph to this DOT file"),
            "--stats": Option("", "print the stats line (the default without --dot)", arity=0, default=False),
        },
    ),
    "complex": Command(
        _cmd_complex,
        "build a multitriangulation complex",
        (),
        {
            "--T": Option("M K", "the m-gon and k of T(m,k)", arity=2, kind=_integer, required=True),
            "--facets": Option("FILE", "write facets to this file"),
        },
    ),
    "homology": Command(
        _cmd_homology,
        "reduced integral homology of a facet list",
        (),
        {"--facets": Option("FILE", "the facet file, one facet per line", required=True)},
    ),
    "verify": Command(
        _cmd_verify,
        "run a named verification check",
        (),
        {
            "--check": Option("NAME", "the check to run", choices=check_names, required=True),
            "--grid": Option("POINTS", "grid points like f=4,k=1 (repeat or separate with ';')", repeat=True),
        },
    ),
}

_HELP = ("-h", "--help")
_NEGATIVE_NUMBER = re.compile(r"-[0-9]+$|-[0-9]*\.[0-9]+$")


def _is_option(token: str) -> bool:
    """True for a token read as an option name: one that starts with '-'
    and is neither '-' alone nor a negative number, which are values."""
    return token.startswith("-") and token != "-" and not _NEGATIVE_NUMBER.match(token)


def _read_option(argv: list[str], at: int, options: dict[str, Option], args: SimpleNamespace, where: str) -> int:
    """Read the option at ``argv[at]``, given as ``--name value`` or
    ``--name=value``, into ``args``; return the index after it."""
    name, inline, text = argv[at].partition("=")
    option = options.get(name)
    if option is None:
        if name in GLOBAL_OPTIONS:
            raise InvalidArgumentError(f"{name} is a global option: give it before the command")
        raise InvalidArgumentError(f"{where} has no option {name}")
    if option.arity == 0:
        if inline:
            raise InvalidArgumentError(f"{name} takes no value")
        setattr(args, name[2:], True)
        return at + 1
    if inline and option.arity == 1:
        texts, at = [text], at + 1
    else:
        texts, at = argv[at + 1 : at + 1 + option.arity], at + 1 + option.arity
        if inline or len(texts) < option.arity or any(map(_is_option, texts)):
            raise InvalidArgumentError(f"{name} needs {option.metavar}")
    values = []
    for text in texts:
        try:
            value = option.kind(text)
        except ValueError:
            raise InvalidArgumentError(f"{name} needs an integer, got {text!r}") from None
        if option.choices and value not in option.choices():
            raise InvalidArgumentError(f"{name} must be one of {', '.join(option.choices())}, got {text!r}")
        values.append(value)
    value = values[0] if option.arity == 1 else values
    setattr(args, name[2:], (getattr(args, name[2:]) or []) + [value] if option.repeat else value)
    return at


def _parse(argv: list[str]) -> SimpleNamespace | str:
    """The command line ``argv`` read by the tables: global options, the
    command, then its positionals and options in any order (all after a
    ``--`` are positionals).  Returns a namespace holding ``command``,
    ``func`` (its handler) and each positional and option under its name,
    or the usage text when ``-h``/``--help`` is given.  A malformed
    command line raises ``InvalidArgumentError``."""
    args = SimpleNamespace(**{name[2:]: option.default for name, option in GLOBAL_OPTIONS.items()})
    at = 0
    while at < len(argv) and _is_option(argv[at]):
        if argv[at] in _HELP:
            return _usage()
        at = _read_option(argv, at, GLOBAL_OPTIONS, args, "arcposet")
    if at == len(argv) or argv[at] not in COMMANDS:
        given = f"unknown command {argv[at]!r}" if at < len(argv) else "no command given"
        raise InvalidArgumentError(f"{given}; expected one of {', '.join(COMMANDS)}")
    name = argv[at]
    command = COMMANDS[name]
    args.command, args.func = name, command.handler
    for option_name, option in command.options.items():
        setattr(args, option_name[2:], option.default)
    positionals = []
    at += 1
    while at < len(argv):
        token = argv[at]
        if token == "--":
            positionals += argv[at + 1 :]
            break
        if token in _HELP:
            return _usage(name)
        if _is_option(token):
            at = _read_option(argv, at, command.options, args, name)
        else:
            positionals.append(token)
            at += 1
    if len(positionals) > len(command.positionals):
        raise InvalidArgumentError(f"{name} takes no argument {positionals[len(command.positionals)]!r}")
    missing = [p.upper() for p in command.positionals[len(positionals) :]]
    missing += [o for o, option in command.options.items() if option.required and getattr(args, o[2:]) is None]
    if missing:
        raise InvalidArgumentError(f"{name} needs {' and '.join(missing)}")
    for positional, value in zip(command.positionals, positionals):
        setattr(args, positional, value)
    return args


def _usage(name: str | None = None) -> str:
    """The usage text of the command line, or of command ``name``."""

    def synopsis(option_name: str, option: Option) -> str:
        text = f"{option_name} {option.metavar}".rstrip()
        return text if option.required else f"[{text}]"

    def rows(options: dict[str, Option]) -> list[str]:
        return [
            f"  {synopsis(option_name, option):<18} {option.help}"
            + (f" (one of {', '.join(option.choices())})" if option.choices else "")
            for option_name, option in options.items()
        ]

    head = "usage: arcposet " + " ".join(synopsis(*item) for item in GLOBAL_OPTIONS.items())
    if name is None:
        lines = [
            f"{head} COMMAND ...",
            "",
            "Arc diagrams, block matrices, posets and homology.",
            "",
            "global options, given before the command:",
            *rows(GLOBAL_OPTIONS),
            "",
            "commands (arcposet COMMAND --help for the arguments of one):",
            *(f"  {command:<18} {spec.help}" for command, spec in COMMANDS.items()),
        ]
    else:
        command = COMMANDS[name]
        words = [name, *map(str.upper, command.positionals)]
        words += [synopsis(*item) for item in command.options.items()]
        lines = [f"{head} {' '.join(words)}", "", command.help]
        if command.options:
            lines += ["", *rows(command.options)]
    return "\n".join(lines)


def run(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):
            print(args)
            return 0
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
