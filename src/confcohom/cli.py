"""Command-line front end: parse the inputs, run a route, render the answer.

Each subcommand runs one library route; ``confcohom.checks`` compares the
answer with an independent route and builds the document's ``checks``
entries.  The document is deterministic: identical inputs produce
byte-identical output, and holds its polynomials as values until
:func:`render`.  Success exits 0; a refusal, argparse's usage errors
included, writes one JSON line to stderr and exits with the code its
``ConfcohomError`` class names (see :mod:`confcohom.errors`).

Each command checks its hypotheses (exit 2), then one gate of
:mod:`confcohom.limits` (exit 5), before it parses any input whose size grows
with m (exit 3); ``poincare`` reads both from its target's ``checks.TARGETS`` row.

A call is one short process, so each command imports every layer past
``confspace`` only if it runs it, and only once its gates have passed: ``fm``
compiles no combinatorics, and a refusal none of the layers it refuses.
"""

from __future__ import annotations

import argparse
import json
import os.path
import re
import sys

from . import checks, confspace, limits
from .confspace import BUILTIN_SPACES, SpaceSpec
from .errors import ConfcohomError, ConsistencyError, InputParseError
from .polyarith import BiPoly, LaurentPoly

EXIT_OK = 0

_SPACE_FILE_REQUIRED = {"name", "poincare_c", "dim", "i_acyclic"}
_SPACE_FILE_OPTIONAL = {"orientable", "connected"}


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------


def load_space(spec: str) -> SpaceSpec:
    """Resolve ``spec`` as a built-in space name or a JSON file path."""
    if spec in BUILTIN_SPACES:
        return BUILTIN_SPACES[spec]
    if not os.path.exists(spec):
        raise InputParseError(
            f"unknown space {spec!r}: not a built-in "
            f"({', '.join(sorted(BUILTIN_SPACES))}) and no such file"
        )
    try:
        with open(spec, encoding="utf-8") as handle:
            data = json.load(handle)
    except json.JSONDecodeError as exc:
        raise InputParseError(f"invalid JSON in {os.path.normpath(spec)}: {exc}") from exc
    except (OSError, ValueError) as exc:  # undecodable bytes, or an int past the digit limit
        raise InputParseError(
            f"cannot read space file {os.path.normpath(spec)}: {exc}"
        ) from exc
    return space_from_document(data)


def space_from_document(data) -> SpaceSpec:
    if not isinstance(data, dict):
        raise InputParseError("space file must be a JSON object")
    keys = set(data)
    unknown = keys - _SPACE_FILE_REQUIRED - _SPACE_FILE_OPTIONAL
    if unknown:
        raise InputParseError(f"unknown keys in space file: {sorted(unknown)}")
    missing = _SPACE_FILE_REQUIRED - keys
    if missing:
        raise InputParseError(f"space file is missing keys: {sorted(missing)}")
    coeffs = data["poincare_c"]
    if not isinstance(coeffs, list) or not all(
        isinstance(c, int) and not isinstance(c, bool) for c in coeffs
    ):
        raise InputParseError("poincare_c must be a list of integers")
    return SpaceSpec(
        name=data["name"],
        pc=LaurentPoly.from_coeffs(coeffs),
        dim=data["dim"],
        i_acyclic=data["i_acyclic"],
        orientable=data.get("orientable", False),
        connected=data.get("connected", True),
    )


def parse_cycle_type(text: str, m: int) -> CycleType:
    """Parse ``1^a,2^b,...``; a bare ``d`` means one d-cycle."""
    from .combinat import CycleType

    mult = [0] * m if m else []
    total = 0
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if "^" in token:
            d_str, x_str = token.split("^", 1)
        else:
            d_str, x_str = token, "1"
        try:
            d, x = int(d_str), int(x_str)
        except ValueError as exc:
            raise InputParseError(f"bad cycle-type token {token!r}") from exc
        if d < 1 or x < 0:
            raise InputParseError(f"bad cycle-type token {token!r}")
        if d > m:
            raise InputParseError(f"cycle length {d} exceeds m = {m}")
        mult[d - 1] += x
        total += d * x
    if total != m:
        raise InputParseError(
            f"cycle type {text!r} covers {total} letters, expected {m}"
        )
    return CycleType(m, tuple(mult))


def parse_generators(text: str, m: int) -> list[Permutation]:
    """Parse 1-based cycle notation: ``(1 2 3);(4 5)`` or ``(1,2,3)``; a
    generator without parentheses is one cycle."""
    from .groups import Permutation

    gens = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        # alternately the text between the cycles and a cycle's body
        parts = re.split(r"\(([^()]*)\)", chunk)
        outside = "".join(parts[::2])
        if "(" in outside or ")" in outside:
            raise InputParseError(f"unbalanced parentheses in {chunk!r}")
        if len(parts) > 1 and outside.strip():
            raise InputParseError(f"text outside the cycles in {chunk!r}")
        cycles = []
        for body in parts[1::2] or [chunk]:
            try:
                cycle = [int(p) for p in body.replace(",", " ").split()]
            except ValueError as exc:
                raise InputParseError(f"bad cycle {body!r}") from exc
            if any(p < 1 or p > m for p in cycle):
                raise InputParseError(f"cycle {body!r} out of range for m = {m}")
            cycles.append(cycle)
        try:
            gens.append(Permutation.from_cycles(m, cycles))
        except ValueError as exc:
            raise InputParseError(str(exc)) from exc
    return gens


def parse_range(text: str) -> tuple[int, int]:
    try:
        lo_str, hi_str = text.split("..", 1)
        lo, hi = int(lo_str), int(hi_str)
    except ValueError as exc:
        raise InputParseError(f"bad range {text!r}, expected m0..m1") from exc
    if lo > hi:
        raise InputParseError(f"empty range {text!r}")
    return lo, hi


def require_arg(ok: bool, message: str) -> None:
    """Reject an argument outside the domain of the engine it feeds."""
    if not ok:
        raise InputParseError(message)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def render(document: dict, fmt: str) -> str:
    """The document as sorted JSON, each polynomial an exponent map, or as
    plain or LaTeX text, each polynomial printed by its ``format``."""
    if fmt == "json":
        return json.dumps(document, sort_keys=True, indent=2, default=_exp_map) + "\n"
    latex = fmt == "latex"
    result = document["result"]
    if result.get("kind") in ("polynomial", "bivariate"):
        shown = [result["coefficients"].format(latex=latex)]
    elif result.get("kind") == "series":
        entries = sorted(result["entries"].items())
        shown = [f"{ctype}: {entry.format(latex=latex)}" for ctype, entry in entries]
    else:
        shown = [json.dumps(result, sort_keys=True)]
    lines = [f"command: {document['command']}"]
    lines += [f"  {key}: {value}" for key, value in sorted(document["inputs"].items())]
    lines += ["result:"] + [f"  {line}" for line in shown]
    if document["checks"]:
        lines.append("checks:")
    for check in document["checks"]:
        lines.append(f"  [{'pass' if check['passed'] else 'FAIL'}] {check['name']}")
    return "\n".join(lines) + "\n"


def _exp_map(value) -> dict[str, int]:
    if isinstance(value, (LaurentPoly, BiPoly)):
        return value.to_exp_map()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _poly_result(poly: LaurentPoly) -> dict:
    return {"kind": "polynomial", "coefficients": poly}


def _document(command: str, inputs: dict, result, named) -> dict:
    """The result document of one command; ``named`` are its check pairs."""
    entries = checks.entries(named)
    return {"command": command, "inputs": inputs, "result": result, "checks": entries}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_poincare(args) -> dict:
    space = load_space(args.space)
    m, l, target = args.m, args.l, args.target
    row = checks.TARGETS[target]
    inputs = {"space": space.name, "m": m, "target": target}
    if row.takes_l:
        require_arg(l is not None, f"target {target!r} requires --l")
        require_arg(1 <= l <= m, f"target {target!r} needs 1 <= --l <= --m")
        inputs["l"] = l
    else:
        require_arg(l is None, f"target {target!r} takes no --l")
    least = row.least_m
    message = f"target {target!r} needs --m >= {least}" if least else "--m must be nonnegative"
    require_arg(m >= least, message)
    for flag in row.requires:
        confspace.require(space, flag)
    row.gate(space, m, l)
    poly = row.route(space, m, l)
    return _document("poincare", inputs, _poly_result(poly), row.check(space, m, l, poly))


def cmd_character(args) -> dict:
    space = load_space(args.space)
    m = args.m
    require_arg(m >= 0, "--m must be nonnegative")
    if args.all:
        require_arg(args.cycle_type is None, "character takes --cycle-type or --all, not both")
        confspace.require(space, "i_acyclic")
        limits.check_series(m, space.pc)
        from . import charseries

        series = charseries.config_series(space, m)
        entries = {str(ctype): entry for ctype, entry in series.values.items()}
        result = {"kind": "series", "entries": entries}
        inputs = {"space": space.name, "m": m, "cycle_type": "all"}
        named = checks.character_series(space, m, series)
    else:
        require_arg(bool(args.cycle_type), "character requires --cycle-type or --all")
        confspace.require(space, "i_acyclic")
        limits.check_m(m)  # before the cycle type, whose size grows with m, is parsed
        ctype = parse_cycle_type(args.cycle_type, m)
        from . import charseries

        poly = charseries.config_trace(space, ctype)
        result = _poly_result(poly)
        inputs = {"space": space.name, "m": m, "cycle_type": str(ctype)}
        named = checks.character_trace(space, ctype, poly)
    return _document("character", inputs, result, named)


def cmd_universal(args) -> dict:
    closed = bool(args.closed)
    l, m = args.l, args.m
    require_arg(1 <= l <= m, "universal needs 1 <= --l <= --m")
    limits.check_closed_form(m, l, closed=closed)
    from . import strata

    q = strata.universal_poly(l, m, closed)
    return _document(
        "universal",
        {"l": l, "m": m, "closed": closed},
        {"kind": "bivariate", "coefficients": q},
        checks.universal(q, l, m, closed),
    )


def cmd_quotient(args) -> dict:
    space = load_space(args.space)
    m = args.m
    require_arg(m >= 0, "--m must be nonnegative")
    confspace.require(space, "i_acyclic")
    limits.check_series(m, space.pc)  # before the generators are parsed
    gens = parse_generators(args.generators, m) if args.generators else []
    from . import charseries, groups

    order, counts = groups.subgroup_class_counts(gens, m)  # refuses a group past the cap first
    series = charseries.config_series(space, m)
    counted = sum(counts.values())
    if counted != order:
        raise ConsistencyError(f"class counts sum to {counted}, not to the group order {order}")
    poly = charseries.quotient_poincare(series, counts, order)
    inputs = {"space": space.name, "m": m, "generators": args.generators or "", "order": order}
    return _document(
        "quotient", inputs, _poly_result(poly), checks.quotient(space, m, order, poly)
    )


def cmd_stability(args) -> dict:
    space = load_space(args.space)
    m_range = parse_range(args.range)
    require_arg(args.i >= 0 and args.a >= 0, "--i and --a must be nonnegative")
    require_arg(
        max(m_range[0], args.a + 1, 1) <= m_range[1],
        f"range {args.range!r} has no m with m >= 1 and m > --a",
    )
    confspace.require_stability_hypotheses(space)
    limits.check_series(m_range[1], space.pc)
    from . import repstab

    report = repstab.stability_report(space, args.i, args.a, m_range)
    rows = {}
    for core in report.table.cores():
        key = "(" + ",".join(str(p) for p in core) + ")"
        rows[key] = {str(m): v for m, v in sorted(report.table.rows[core].items())}
    result = {
        "kind": "multiplicity-table",
        "degree": report.degree,
        "defect": report.defect,
        "m": list(report.table.m_values),
        "rows": rows,
        "betti": {str(m): v for m, v in sorted(report.betti.items())},
        "poly_degree": report.poly_degree,
    }
    inputs = {"space": space.name, "i": args.i, "a": args.a, "range": args.range}
    named = report.verdicts() + checks.stability(space, report)
    return _document("stability", inputs, result, named)


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def cmd_selftest(_args) -> dict:
    from .selftest import run_checks

    results = run_checks()
    failed = sum(1 for _name, ok in results if not ok)
    return _document(
        "selftest", {}, {"passed": len(results) - failed, "failed": failed}, results
    )


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors, in the parser and each subparser, exit 3 with the one
    JSON line, not with argparse's usage text and exit 2 (a hypothesis's)."""

    def error(self, message):
        raise InputParseError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="confcohom",
        description="Exact cohomological invariants of generalized configuration spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_space(p):
        p.add_argument(
            "--space",
            required=True,
            help="built-in space name or path to a JSON space file",
        )

    def add_format(p):
        p.add_argument("--format", choices=("json", "plain", "latex"), default="json")

    p = sub.add_parser("poincare", help="Poincaré polynomials of one space family")
    add_space(p)
    p.add_argument(
        "--target",
        required=True,
        choices=tuple(checks.TARGETS),
    )
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--l", type=int)
    add_format(p)
    p.set_defaults(fn=cmd_poincare)

    p = sub.add_parser("character", help="graded trace of one permutation class")
    add_space(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--cycle-type", dest="cycle_type")
    p.add_argument("--all", action="store_true")
    add_format(p)
    p.set_defaults(fn=cmd_character)

    p = sub.add_parser("universal", help="universal two-variable stratum polynomial")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--closed", action="store_true")
    add_format(p)
    p.set_defaults(fn=cmd_universal)

    p = sub.add_parser("quotient", help="Poincaré polynomial of a subgroup quotient")
    add_space(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--generators", default="", help='e.g. "(1 2 3);(1 2)"')
    add_format(p)
    p.set_defaults(fn=cmd_quotient)

    p = sub.add_parser("stability", help="multiplicity stability across a range of m")
    add_space(p)
    p.add_argument("--i", type=int, required=True, help="cohomological degree")
    p.add_argument("--a", type=int, default=0, help="defect: m minus distinct values")
    p.add_argument("--range", required=True, help="m0..m1")
    add_format(p)
    p.set_defaults(fn=cmd_stability)

    p = sub.add_parser("selftest", help="run built-in cross-validation suite")
    add_format(p)
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        limits.max_m()  # a malformed CONFCOHOM_MAX_M fails every command
        document = args.fn(args)
        text = render(document, args.format)
    except SystemExit:  # --help wrote the usage; a usage error raises InputParseError
        return EXIT_OK
    except ConfcohomError as exc:
        return _emit_error(exc)
    except ValueError as exc:  # CPython's int-to-str digit limit (CVE-2020-10735)
        if "integer string conversion" not in str(exc):
            raise
        return _emit_error(limits.int_str_refusal())
    sys.stdout.write(text)
    if document["command"] == "selftest" and document["result"]["failed"]:
        return ConsistencyError.exit_code
    return EXIT_OK


def _emit_error(exc: ConfcohomError) -> int:
    """Write the refusal's JSON payload to stderr; return its exit code."""
    payload = {"category": exc.category, "message": str(exc)}
    if getattr(exc, "flag", None):
        payload["flag"] = exc.flag
    sys.stderr.write(json.dumps({"error": payload}, sort_keys=True) + "\n")
    return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
