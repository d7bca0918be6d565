"""Seeded inputs of the benchmark workloads.

Everything the program under test receives is generated here: space
descriptions (the JSON document format the CLI reads), library queries as a
function name plus positional arguments, and CLI argv lists.  The seed draws
the spaces and the query order; the sizes are fixed per workload, so the cost
of a pass is comparable across seeds.

A space argument is written ``{"space": name}`` and resolved against the
pass's ``spaces`` table.  Every query carries a ``key`` that names it
independently of the seed's ordering; recorded answer digests are keyed by
it.  CLI queries also carry ``expect_exit`` and, for successful runs, a
``ref`` -- the library query whose answer the CLI result must equal.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("strata", "closed_forms", "cli_session")

#: Punctured planes pc = aT + T^2 are drawn with ``a`` from this range.
PLANE_PUNCTURES = (1, 2, 3, 4)


def _space(name: str, coeffs: list[int], dim: int) -> dict:
    return {
        "name": name,
        "poincare_c": coeffs,
        "dim": dim,
        "i_acyclic": True,
        "orientable": True,
        "connected": True,
    }


def plane(a: int) -> dict:
    return _space(f"plane_a{a}", [0, a, 1], 2)


C = _space("c", [0, 0, 1], 2)
R3 = _space("r3", [0, 0, 0, 1], 3)

SIZES = {
    "full": {
        "exactly_both": (4, 8),
        "exactly_one": (4, 9),
        "reconstruct_m": 7,
        "strata_stability_hi": (9, 8),
        "config_m": (1000, 1500),
        "at_most_m": 60,
        "at_most_l": (10, 20, 30),
        "series_m": 12,
        "closed_stability_hi": 12,
        "quotient_m": 8,
    },
    "smoke": {
        "exactly_both": (2, 4),
        "exactly_one": (3, 5),
        "reconstruct_m": 4,
        "strata_stability_hi": (5, 5),
        "config_m": (20, 30),
        "at_most_m": 8,
        "at_most_l": (2, 3, 4),
        "series_m": 5,
        "closed_stability_hi": 5,
        "quotient_m": 5,
    },
}


def draw(seed: int) -> tuple[int, int]:
    """The two distinct puncture counts a seed selects."""
    a, b = random.Random(seed).sample(PLANE_PUNCTURES, 2)
    return a, b


def all_draws():
    """Every draw any seed can make (used to record answer digests)."""
    return itertools.permutations(PLANE_PUNCTURES, 2)


def _lib(fn: str, *args) -> dict:
    parts = [fn] + [a["space"] if isinstance(a, dict) else str(a) for a in args]
    return {"key": "|".join(parts), "fn": fn, "args": list(args)}


def _strata(sp: dict, size: dict) -> list[dict]:
    a, b = {"space": sp["A"]["name"]}, {"space": sp["B"]["name"]}
    hi2, hi3 = size["strata_stability_hi"]
    # The second plane at the same (l, m) reuses the set_partitions cache.
    queries = [_lib("exactly_series", s, *size["exactly_both"]) for s in (a, b)]
    queries.append(_lib("exactly_series", a, *size["exactly_one"]))
    queries.append(_lib("reconstruct_config_series", {"space": "c"}, size["reconstruct_m"]))
    queries.append(_lib("stability_report", a, 2, 2, [1, hi2]))
    queries.append(_lib("stability_report", {"space": "r3"}, 2, 3, [1, hi3]))
    return queries


def _closed_forms(sp: dict, size: dict) -> list[dict]:
    a = {"space": sp["A"]["name"]}
    m, series_m = size["at_most_m"], size["series_m"]
    queries = [_lib("poincare_config", a, n) for n in size["config_m"]]
    for l in size["at_most_l"]:
        queries.append(_lib("poincare_at_most", a, l, m))
        queries.append(_lib("universal_poly", l, m, True))
    for s in (a, {"space": "c"}, {"space": "r3"}):
        for fn in (
            "config_series",
            "poincare_unordered_config",
            "poincare_symmetric_product",
            "poincare_cyclic_product",
        ):
            queries.append(_lib(fn, s, series_m))
    queries.append(_lib("stability_report", a, 1, 0, [1, size["closed_stability_hi"]]))
    return queries


def _cli(argv: list[str], ref: dict | None = None, expect_exit: int = 0) -> dict:
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    return {
        "key": "cli|" + " ".join(argv),
        "argv": argv,
        "format": fmt,
        "expect_exit": expect_exit,
        "ref": ref,
    }


def _cli_session(sp: dict, size: dict) -> list[dict]:
    name = sp["A"]["name"]
    path = space_file(name)
    a = {"space": name}
    c, r3 = {"space": "c"}, {"space": "r3"}
    qm = size["quotient_m"]
    full_cycle = "(" + " ".join(str(i) for i in range(1, qm + 1)) + ")"

    def poincare(spec, target, m, ref, *extra):
        return _cli(["poincare", "--space", spec, "--target", target, "--m", str(m), *extra], ref)

    def lib(fn, *args):
        return {"fn": fn, "args": list(args)}

    return [
        poincare(path, "fm", 40, lib("poincare_config", a, 40)),
        poincare(path, "fm", 40, lib("poincare_config", a, 40), "--format", "plain"),
        poincare("c", "fm", 30, lib("poincare_config", c, 30), "--format", "latex"),
        _cli(["poincare", "--space", path, "--target", "delta", "--l", "4", "--m", "10"],
             lib("poincare_exactly", a, 4, 10)),
        _cli(["poincare", "--space", "c", "--target", "delta", "--l", "3", "--m", "8",
              "--format", "plain"], lib("poincare_exactly", c, 3, 8)),
        _cli(["poincare", "--space", path, "--target", "delta_le", "--l", "5", "--m", "12"],
             lib("poincare_at_most", a, 5, 12)),
        poincare("c", "ordinary", 20, lib("poincare_config_ordinary", c, 20)),
        poincare(path, "ordinary", 12, lib("poincare_config_ordinary", a, 12),
                 "--format", "latex"),
        poincare(path, "cf", 8, lib("poincare_cyclic_config", a, 8)),
        poincare("c", "cf", 12, lib("poincare_cyclic_config", c, 12)),
        poincare("c", "bf", 6, lib("poincare_unordered_config", c, 6)),
        poincare(path, "bf", 10, lib("poincare_unordered_config", a, 10), "--format", "plain"),
        poincare(path, "sym", 10, lib("poincare_symmetric_product", a, 10)),
        poincare("r3", "sym", 8, lib("poincare_symmetric_product", r3, 8), "--format", "latex"),
        poincare(path, "cyc", 10, lib("poincare_cyclic_product", a, 10)),
        poincare("r3", "cyc", 9, lib("poincare_cyclic_product", r3, 9)),
        _cli(["character", "--space", path, "--m", "6", "--cycle-type", "2^2,1^2"],
             lib("config_trace", a, "1^2,2^2")),
        _cli(["character", "--space", "c", "--m", "8", "--cycle-type", "1^8"],
             lib("config_trace", c, "1^8")),
        _cli(["character", "--space", "c", "--m", "6", "--cycle-type", "3^2", "--format", "plain"],
             lib("config_trace", c, "3^2")),
        _cli(["character", "--space", path, "--m", "5", "--all"], lib("config_series", a, 5)),
        _cli(["character", "--space", "r3", "--m", "7", "--all"], lib("config_series", r3, 7)),
        _cli(["universal", "--l", "3", "--m", "6", "--closed"], lib("universal_poly", 3, 6, True)),
        _cli(["universal", "--l", "5", "--m", "12"], lib("universal_poly", 5, 12, False)),
        _cli(["universal", "--l", "4", "--m", "10", "--closed"], lib("universal_poly", 4, 10, True)),
        _cli(["quotient", "--space", path, "--m", str(qm), "--generators", "(1 2);" + full_cycle],
             lib("quotient", a, qm, "symmetric")),
        _cli(["quotient", "--space", "c", "--m", "6", "--generators", "(1 2 3 4 5 6)"],
             lib("quotient", c, 6, "(1 2 3 4 5 6)")),
        _cli(["quotient", "--space", path, "--m", "6", "--generators", "(1 2 3)(4 5 6)"],
             lib("quotient", a, 6, "(1 2 3)(4 5 6)")),
        _cli(["quotient", "--space", "r3", "--m", "5"], lib("quotient", r3, 5, "")),
        _cli(["stability", "--space", "c", "--i", "1", "--a", "0", "--range", "1..8"],
             lib("stability_report", c, 1, 0, [1, 8])),
        _cli(["stability", "--space", path, "--i", "1", "--a", "1", "--range", "2..10"],
             lib("stability_report", a, 1, 1, [2, 10])),
        _cli(["stability", "--space", "r3", "--i", "2", "--a", "0", "--range", "1..8"],
             lib("stability_report", r3, 2, 0, [1, 8])),
        _cli(["selftest"], lib("selftest")),
        _cli(["selftest", "--format", "plain"], lib("selftest")),
        _cli(["poincare", "--space", "klein_pointed", "--target", "fm", "--m", "3"], None, 2),
        _cli(["character", "--space", "klein_pointed", "--m", "4", "--all"], None, 2),
        _cli(["stability", "--space", "klein_pointed", "--i", "1", "--range", "1..4"], None, 2),
        _cli(["poincare", "--space", "no_such_space", "--target", "fm", "--m", "3"], None, 3),
        _cli(["quotient", "--space", "c", "--m", "4", "--generators", "(1 5)"], None, 3),
        _cli(["character", "--space", "c", "--m", "13", "--all"], None, 5),
        _cli(["character", "--space", "c", "--m", "14", "--cycle-type", "14"], None, 5),
    ]


_BUILDERS = {"strata": _strata, "closed_forms": _closed_forms, "cli_session": _cli_session}


def space_file(name: str) -> str:
    """Checkout-relative path of the JSON file a seeded space is written to."""
    return f"perfbench/out/spaces/{name}.json"


def generate(workload: str, seed: int, size: str = "full", draw_ab=None) -> dict:
    """The inputs of one pass: spaces, and queries in seeded order."""
    a, b = draw(seed) if draw_ab is None else draw_ab
    sp = {"A": plane(a), "B": plane(b)}
    queries = _BUILDERS[workload](sp, SIZES[size])
    random.Random(f"order-{seed}").shuffle(queries)
    for i, q in enumerate(queries):
        q["id"] = i
    spaces = {s["name"]: s for s in (sp["A"], sp["B"], C, R3)}
    return {"workload": workload, "seed": seed, "size": size, "spaces": spaces, "queries": queries}
