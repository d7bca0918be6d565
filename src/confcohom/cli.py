"""Command-line front end.

Subcommands dispatch to the library engines and emit a deterministic
result document: identical inputs produce byte-identical output.  Exit
codes: 0 success, 2 hypothesis violation, 3 input parse error, 4 internal
consistency failure, 5 cost cap exceeded.

A call is one short process, so each command imports ``charseries``,
``oracles``, ``repstab`` and ``selftest`` only if it runs them: the closed
forms compile no trace-series code.
"""

from __future__ import annotations

import argparse
import json
import os.path
import sys
from math import factorial

from . import confspace, limits
from .combinat import (
    CycleType,
    Permutation,
    all_cycle_types,
    group_closure,
    representative,
    subgroup_class_counts,
    symmetric_counts,
)
from .confspace import BUILTIN_SPACES, SpaceSpec
from .errors import (
    ConsistencyError,
    CostCapExceeded,
    HypothesisViolation,
    InputParseError,
)
from .polyarith import BiPoly, LaurentPoly

EXIT_OK = 0
EXIT_HYPOTHESIS = 2
EXIT_PARSE = 3
EXIT_CONSISTENCY = 4
EXIT_COST = 5

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
    except (OSError, UnicodeDecodeError) as exc:
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
    if not isinstance(data["dim"], int) or isinstance(data["dim"], bool):
        raise InputParseError("dim must be an integer")
    for flag in ("i_acyclic", "orientable", "connected"):
        if flag in data and not isinstance(data[flag], bool):
            raise InputParseError(f"{flag} must be a boolean")
    return SpaceSpec(
        name=str(data["name"]),
        pc=LaurentPoly.from_coeffs(coeffs),
        dim=data["dim"],
        i_acyclic=data["i_acyclic"],
        orientable=data.get("orientable", False),
        connected=data.get("connected", True),
    )


def parse_cycle_type(text: str, m: int) -> CycleType:
    """Parse ``1^a,2^b,...``; a bare ``d`` means one d-cycle."""
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
    """Parse 1-based cycle notation: ``(1 2 3);(4 5)`` or ``(1,2,3)``."""
    gens = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        cycles = []
        depth_content: list[str] = []
        if chunk.count("(") != chunk.count(")"):
            raise InputParseError(f"unbalanced parentheses in {chunk!r}")
        inner = chunk
        while "(" in inner:
            start = inner.index("(")
            end = inner.find(")", start)
            if end < 0:
                raise InputParseError(f"unbalanced parentheses in {chunk!r}")
            depth_content.append(inner[start + 1 : end])
            inner = inner[end + 1 :]
        if not depth_content:
            depth_content = [chunk]
        for body in depth_content:
            pts = [p for p in body.replace(",", " ").split() if p]
            try:
                cycle = [int(p) for p in pts]
            except ValueError as exc:
                raise InputParseError(f"bad cycle {body!r}") from exc
            if any(p < 1 or p > m for p in cycle):
                raise InputParseError(f"cycle {body!r} out of range for m = {m}")
            cycles.append(cycle)
        try:
            gens.append(Permutation.from_cycles(m, cycles, one_based=True))
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
    if fmt == "json":
        return json.dumps(document, sort_keys=True, indent=2) + "\n"
    lines = [f"command: {document['command']}"]
    for key, value in sorted(document.get("inputs", {}).items()):
        lines.append(f"  {key}: {value}")
    result = document.get("result")
    lines.append("result:")
    lines.extend(_render_result_lines(result, fmt))
    checks = document.get("checks", [])
    if checks:
        lines.append("checks:")
        for check in checks:
            status = "pass" if check["passed"] else "FAIL"
            lines.append(f"  [{status}] {check['name']}")
    return "\n".join(lines) + "\n"


def _render_result_lines(result, fmt: str) -> list[str]:
    latex = fmt == "latex"

    def to_text(exp_map) -> str:
        return LaurentPoly.from_exp_map(exp_map).format(latex=latex)

    if isinstance(result, dict) and result.get("kind") == "polynomial":
        return ["  " + to_text(result["coefficients"])]
    if isinstance(result, dict) and result.get("kind") == "bivariate":
        return ["  " + BiPoly.from_exp_map(result["coefficients"]).format(latex=latex)]
    if isinstance(result, dict) and result.get("kind") == "series":
        return [
            f"  {ctype}: " + to_text(entry)
            for ctype, entry in sorted(result["entries"].items())
        ]
    return ["  " + json.dumps(result, sort_keys=True)]


def _poly_result(poly: LaurentPoly) -> dict:
    return {"kind": "polynomial", "coefficients": poly.to_exp_map()}


def _check(name: str, passed: bool) -> dict:
    return {"name": name, "passed": bool(passed)}


def _oracle_triangle(space: SpaceSpec, m: int, series) -> bool:
    """Compare the counting routes at m points with the enumeration oracle.

    The chain reconstruction must rebuild ``series``, the configuration
    character; every stratum series below it, counted by grouping cycles,
    must equal the trace summed over the enumerated stable set partitions.
    """
    from . import charseries, oracles

    if oracles.reconstruct_config_series(space, m) != series:
        return False
    for distinct in range(1, m):
        counted = charseries.exactly_series(space, distinct, m)
        for ctype in all_cycle_types(m):
            alpha = representative(ctype)
            if oracles.exactly_trace(space, distinct, m, alpha) != counted[ctype]:
                return False
    return True


def _charseries():
    """The trace-series layer, which only the commands that average import."""
    from . import charseries

    return charseries


# poincare target -> engine(space, m, l); only the strata read ``l``
_POINCARE_ENGINES = {
    "fm": lambda space, m, l: confspace.poincare_config(space, m),
    "delta": lambda space, m, l: confspace.poincare_exactly(space, l, m),
    "delta_le": lambda space, m, l: confspace.poincare_at_most(space, l, m),
    "ordinary": lambda space, m, l: confspace.poincare_config_ordinary(space, m),
    "cf": lambda space, m, l: _charseries().poincare_cyclic_config(space, m),
    "bf": lambda space, m, l: _charseries().poincare_unordered_config(space, m),
    "sym": lambda space, m, l: _charseries().poincare_symmetric_product(space, m),
    "cyc": lambda space, m, l: _charseries().poincare_cyclic_product(space, m),
}


def _universal_evaluation(name: str, q: BiPoly, space: SpaceSpec, poly: LaurentPoly) -> dict:
    """Q(P := pc, T) against the stratum polynomial computed directly."""
    return _check(name, q.eval_P(space.pc) == poly)


def _poincare_checks(
    space: SpaceSpec, target: str, m: int, l: int | None, poly: LaurentPoly
) -> list[dict]:
    """Compare the ``poincare`` answer ``poly`` with an independent route."""
    if target in ("fm", "ordinary"):
        # the Euler characteristic is integer arithmetic, no polynomial
        # product; duality in dimension m*dim multiplies it by (-1)^(m*dim)
        sign = (-1) ** (m * space.dim) if target == "ordinary" else 1
        euler = poly.eval_at_int(-1) == sign * confspace.euler_char_config(space, m)
        return [_check("euler-characteristic", euler)]
    if target in ("delta", "delta_le"):
        q = confspace.universal_poly(l, m, target == "delta_le")
        return [_universal_evaluation("universal-polynomial-evaluation", q, space, poly)]
    if target == "sym":
        from . import oracles

        oracle = oracles.symmetric_product_generating_function(space.pc, m)
        return [_check("generating-function", oracle == poly)]
    from . import charseries

    if target == "bf":
        # the route is Newton's recurrence; the class-size average of the
        # trace series is the independent road to the same polynomial
        series = charseries.config_series(space, m)
        oracle = charseries.quotient_poincare(series, symmetric_counts(m), factorial(m))
        return [_check("subgroup-averaging", oracle == poly)]
    # The cyclic quotients average traces over the rotation group, listed
    # element by element, independently of their divisor sums.
    rotation = [Permutation.from_cycles(m, [list(range(1, m + 1))], one_based=True)]
    trace = {"cf": charseries.config_trace, "cyc": charseries.power_trace}[target]
    order, counts = group_closure(rotation, m)
    oracle = charseries._average(lambda ctype: trace(space, ctype), counts, order)
    return [_check("subgroup-averaging", oracle == poly)]


def _all_poincare_checks_pass(cases) -> bool:
    """Run the ``poincare`` checks over (space, target, m, l) cases; a case
    with no check fails."""
    for space, target, m, l in cases:
        poly = _POINCARE_ENGINES[target](space, m, l)
        checks = _poincare_checks(space, target, m, l, poly)
        if not checks or not all(check["passed"] for check in checks):
            return False
    return True


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_poincare(args) -> dict:
    space = load_space(args.space)
    m, l, target = args.m, args.l, args.target
    if target in ("delta", "delta_le"):
        require_arg(l is not None, f"target {target!r} requires --l")
        require_arg(1 <= l <= m, f"target {target!r} needs 1 <= --l <= --m")
    elif target == "fm":
        require_arg(m >= 0, "--m must be nonnegative")
    else:
        require_arg(m >= 1, f"target {target!r} needs --m >= 1")
    poly = _POINCARE_ENGINES[target](space, m, l)
    inputs = {"space": space.name, "m": m, "target": target}
    if l is not None:
        inputs["l"] = l
    return {
        "command": "poincare",
        "inputs": inputs,
        "result": _poly_result(poly),
        "checks": _poincare_checks(space, target, m, l, poly),
    }


def cmd_character(args) -> dict:
    space = load_space(args.space)
    m = args.m
    require_arg(m >= 0, "--m must be nonnegative")
    from . import charseries

    checks = []
    if args.all:
        series = charseries.config_series(space, m)
        if m <= 6:
            checks.append(_check("oracle-triangle", _oracle_triangle(space, m, series)))
        result = {
            "kind": "series",
            "entries": {
                str(ctype): entry.to_exp_map()
                for ctype, entry in sorted(
                    series.values.items(), key=lambda kv: kv[0].parts, reverse=True
                )
            },
        }
        inputs = {"space": space.name, "m": m, "cycle_type": "all"}
    else:
        if not args.cycle_type:
            raise InputParseError("character requires --cycle-type or --all")
        ctype = parse_cycle_type(args.cycle_type, m)
        poly = charseries.config_trace(space, ctype)
        if ctype == CycleType.identity(m):
            same = poly.negate_var() == confspace.poincare_config(space, m)
            checks.append(_check("identity-entry-is-poincare", same))
        result = _poly_result(poly)
        inputs = {"space": space.name, "m": m, "cycle_type": str(ctype)}
    return {"command": "character", "inputs": inputs, "result": result, "checks": checks}


def cmd_universal(args) -> dict:
    closed = bool(args.closed)
    require_arg(1 <= args.l <= args.m, "universal needs 1 <= --l <= --m")
    q = confspace.universal_poly(args.l, args.m, closed)
    reference = BUILTIN_SPACES["c"]
    direct = _POINCARE_ENGINES["delta_le" if closed else "delta"](reference, args.m, args.l)
    return {
        "command": "universal",
        "inputs": {"l": args.l, "m": args.m, "closed": closed},
        "result": {"kind": "bivariate", "coefficients": q.to_exp_map()},
        "checks": [
            _universal_evaluation("evaluates-on-reference-space", q, reference, direct)
        ],
    }


def cmd_quotient(args) -> dict:
    space = load_space(args.space)
    m = args.m
    require_arg(m >= 0, "--m must be nonnegative")
    gens = parse_generators(args.generators, m) if args.generators else []
    from . import charseries

    # the hypothesis and the cycle-type cap come before the group is built
    series = charseries.config_series(space, m)
    order, counts = subgroup_class_counts(gens, m)
    counted = sum(counts.values())
    if counted != order:
        raise ConsistencyError(f"class counts sum to {counted}, not to the group order {order}")
    poly = charseries.quotient_poincare(series, counts, order)
    # the action on configurations is free, so the quotient's Euler
    # characteristic is the configuration space's divided by the order
    euler = poly.eval_at_int(-1) * order == confspace.euler_char_config(space, m)
    return {
        "command": "quotient",
        "inputs": {
            "space": space.name,
            "m": m,
            "generators": args.generators or "",
            "order": order,
        },
        "result": _poly_result(poly),
        "checks": [_check("euler-characteristic-average", euler)],
    }


def cmd_stability(args) -> dict:
    space = load_space(args.space)
    m_range = parse_range(args.range)
    require_arg(args.i >= 0 and args.a >= 0, "--i and --a must be nonnegative")
    require_arg(
        max(m_range[0], args.a + 1, 1) <= m_range[1],
        f"range {args.range!r} has no m with m >= 1 and m > --a",
    )
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
    checks = [_check(name, ok) for name, ok in report.verdicts()]
    return {
        "command": "stability",
        "inputs": {
            "space": space.name,
            "i": args.i,
            "a": args.a,
            "range": args.range,
        },
        "result": result,
        "checks": checks,
    }


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def cmd_selftest(_args) -> dict:
    from .selftest import run_checks

    results = run_checks(_all_poincare_checks_pass, _oracle_triangle)
    checks = [_check(name, ok) for name, ok in results]
    failed = sum(1 for _name, ok in results if not ok)
    return {
        "command": "selftest",
        "inputs": {},
        "result": {"passed": len(results) - failed, "failed": failed},
        "checks": checks,
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        choices=tuple(_POINCARE_ENGINES),
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; report those as parse errors to
        # keep exit code 2 reserved for hypothesis violations
        return EXIT_OK if exc.code in (0, None) else EXIT_PARSE
    try:
        limits.cycle_type_max_m()  # a malformed CONFCOHOM_MAX_M fails every command
        document = args.fn(args)
        text = render(document, args.format)
    except HypothesisViolation as exc:
        _emit_error("hypothesis-violation", exc, flag=exc.flag)
        return EXIT_HYPOTHESIS
    except InputParseError as exc:
        _emit_error("input-parse-error", exc)
        return EXIT_PARSE
    except CostCapExceeded as exc:
        _emit_error("cost-cap-exceeded", exc)
        return EXIT_COST
    except ConsistencyError as exc:
        _emit_error("consistency-error", exc)
        return EXIT_CONSISTENCY
    except ValueError as exc:  # CPython's int-to-str digit limit (CVE-2020-10735)
        if "integer string conversion" not in str(exc):
            raise
        limit = sys.get_int_max_str_digits()
        message = f"the result has integers past the int-to-str limit of {limit} digits"
        _emit_error("cost-cap-exceeded", message)
        return EXIT_COST
    sys.stdout.write(text)
    if document["command"] == "selftest" and document["result"]["failed"]:
        return EXIT_CONSISTENCY
    return EXIT_OK


def _emit_error(category: str, exc: Exception | str, flag: str | None = None) -> None:
    payload = {"error": {"category": category, "message": str(exc)}}
    if flag:
        payload["error"]["flag"] = flag
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
