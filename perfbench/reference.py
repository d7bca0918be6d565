"""Independent reference checker for benchmark answers.

Nothing here imports confcohom.  Expected values come from plain-integer
recurrences and closed forms re-derived in this file:

* Stirling numbers S(m, l) and c(m, k) from their additive recurrences;
* rising products prod_{i<m}(pc + iT), checked in full for small m and, for
  large m, by evaluation at T = 1, at T = -1 (the Euler characteristic
  prod(pc(-1) - i)) and at fixed points modulo a prime;
* the trace formula prod_d prod_{i<x_d}(B_d - i d T^d) for the symmetric-group
  character series, and the averages over groups built on it;
* the plane's unordered polynomial T^(2m) + T^(2m-1);
* the identity entry of an exact-stratum series, S(m,l) * rising(pc, l)(-T);
* Borel-Moore Betti numbers of strata and hook-length dimensions for
  stability tables;
* CLI exit codes and that every reported check passed.

An answer has the schema of the CLI's JSON ``result`` field, whether it came
from the CLI or from a library call.  ``Checker`` returns, for each answer, a
list of human-readable disagreements; an empty list means it is correct.
"""

from __future__ import annotations

import hashlib
import json
import re
from functools import lru_cache
from math import comb, factorial, gcd

MOD = (1 << 61) - 1
EVAL_POINTS = (3, 10**6 + 3, 987654321987)
#: Above this m a rising product is checked by evaluation, not term by term.
FULL_PRODUCT_MAX_M = 200


# ---------------------------------------------------------------------------
# sparse polynomials: {exponent: coefficient} and {(p_exp, t_exp): coefficient}
# ---------------------------------------------------------------------------


def padd(a: dict, b: dict, scale: int = 1) -> dict:
    out = dict(a)
    for e, v in b.items():
        out[e] = out.get(e, 0) + scale * v
    return {e: v for e, v in out.items() if v}


def pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            e = _add_exp(e1, e2)
            out[e] = out.get(e, 0) + v1 * v2
    return {e: v for e, v in out.items() if v}


def _add_exp(e1, e2):
    if isinstance(e1, tuple):
        return (e1[0] + e2[0], e1[1] + e2[1])
    return e1 + e2


def ppow(a: dict, n: int) -> dict:
    out = {0: 1}
    for _ in range(n):
        out = pmul(out, a)
    return out


def substitute(a: dict, d: int) -> dict:
    """f(T^d)."""
    return {e * d: v for e, v in a.items()}


def negate_var(a: dict) -> dict:
    """f(-T)."""
    return {e: (-v if e % 2 else v) for e, v in a.items()}


def divexact(a: dict, n: int) -> dict | None:
    out = {}
    for e, v in a.items():
        q, r = divmod(v, n)
        if r:
            return None
        out[e] = q
    return out


def evaluate(a: dict, x: int, mod: int | None = None) -> int:
    if mod is None:
        return sum(v * x**e for e, v in a.items())
    return sum(v % mod * pow(x, e, mod) for e, v in a.items()) % mod


def pc_poly(space: dict) -> dict:
    return {e: v for e, v in enumerate(space["poincare_c"]) if v}


# ---------------------------------------------------------------------------
# integer sequences
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def stirling2_row(m: int) -> tuple[int, ...]:
    """S(m, 0..m) by the recurrence S(m,l) = S(m-1,l-1) + l S(m-1,l)."""
    row = [1]
    for n in range(1, m + 1):
        row = [0] + [row[l - 1] + l * (row[l] if l < n else 0) for l in range(1, n + 1)]
    return tuple(row)


def stirling2(m: int, l: int) -> int:
    return stirling2_row(m)[l] if 0 <= l <= m else 0


@lru_cache(maxsize=None)
def stirling1_row(m: int) -> tuple[int, ...]:
    """Unsigned c(m, 0..m) by the recurrence c(m,k) = c(m-1,k-1) + (m-1) c(m-1,k)."""
    row = [1]
    for n in range(1, m + 1):
        row = [0] + [row[k - 1] + (n - 1) * (row[k] if k < n else 0) for k in range(1, n + 1)]
    return tuple(row)


def integer_partitions(m: int, max_part: int | None = None):
    if m == 0:
        yield ()
        return
    for part in range(min(m, max_part or m), 0, -1):
        for rest in integer_partitions(m - part, part):
            yield (part,) + rest


def mult_of(parts) -> dict[int, int]:
    mult: dict[int, int] = {}
    for p in parts:
        mult[p] = mult.get(p, 0) + 1
    return mult


def ctype_key(mult: dict[int, int]) -> str:
    """Same spelling as the CLI: ``1^2,2^1``."""
    return ",".join(f"{d}^{x}" for d, x in sorted(mult.items()) if x)


def parse_ctype(key: str) -> dict[int, int]:
    mult: dict[int, int] = {}
    for token in key.split(","):
        d, x = token.split("^")
        mult[int(d)] = mult.get(int(d), 0) + int(x)
    return mult


def class_size(mult: dict[int, int], m: int) -> int:
    denom = 1
    for d, x in mult.items():
        denom *= factorial(x) * d**x
    return factorial(m) // denom


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _mobius(n: int) -> int:
    value, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            value = -value
        p += 1
    return -value if n > 1 else value


def _phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def hook_dimension(shape: tuple[int, ...]) -> int:
    conj = [sum(1 for r in shape if r > j) for j in range(shape[0])] if shape else []
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= (row - j) + (conj[j] - i) - 1
    return factorial(sum(shape)) // hooks


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def rising(pc: dict, m: int) -> dict:
    """prod_{i<m} (pc + i T)."""
    out = {0: 1}
    for i in range(m):
        out = pmul(out, padd(pc, {1: i}))
    return out


def rising_value(pc: dict, m: int, x: int, mod: int | None = None) -> int:
    base = evaluate(pc, x, mod)
    out = 1
    for i in range(m):
        out = out * (base + i * x)
        if mod is not None:
            out %= mod
    return out


def trace(space: dict, mult: dict[int, int]) -> dict:
    """prod_d prod_{i<x_d} (B_d(T) - i d T^d), B_d = sum_{e|d} mu(d/e) T^(d-e) N(T^e)."""
    n = negate_var(pc_poly(space))
    out = {0: 1}
    for d, x in mult.items():
        b = {}
        for e in _divisors(d):
            mu = _mobius(d // e)
            if mu:
                b = padd(b, pmul(substitute(n, e), {d - e: 1}), mu)
        for i in range(x):
            out = pmul(out, padd(b, {d: -i * d}))
    return out


def power_trace(space: dict, mult: dict[int, int]) -> dict:
    """prod over cycles of N(T^d): the trace on the cartesian power."""
    n = negate_var(pc_poly(space))
    out = {0: 1}
    for d, x in mult.items():
        out = pmul(out, ppow(substitute(n, d), x))
    return out


def average(space: dict, counts: dict[str, int], order: int, fn=trace) -> dict | None:
    total: dict = {}
    for key, count in counts.items():
        total = padd(total, fn(space, parse_ctype(key)), count)
    averaged = divexact(total, order)
    return None if averaged is None else negate_var(averaged)


def symmetric_counts(m: int) -> dict[str, int]:
    return {ctype_key(mult_of(p)): class_size(mult_of(p), m) for p in integer_partitions(m)}


def cyclic_counts(m: int) -> dict[str, int]:
    counts: dict[str, int] = {}
    for d in _divisors(m):
        key = ctype_key({d: m // d})
        counts[key] = counts.get(key, 0) + _phi(d)
    return counts


def permutation_group_counts(cycles_text: str, m: int) -> tuple[int, dict[str, int]]:
    """Powers of the single permutation written in 1-based cycle notation."""
    images = list(range(m))
    for body in re.findall(r"\(([^)]*)\)", cycles_text):
        pts = [int(p) - 1 for p in body.split()]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a] = b
    counts: dict[str, int] = {}
    power = list(range(m))
    while True:
        key = ctype_key(mult_of(_cycle_lengths(power)))
        counts[key] = counts.get(key, 0) + 1
        power = [images[p] for p in power]
        if power == list(range(m)):
            return sum(counts.values()), counts


def _cycle_lengths(images: list[int]) -> list[int]:
    seen, lengths = set(), []
    for start in range(len(images)):
        n, j = 0, start
        while j not in seen:
            seen.add(j)
            j = images[j]
            n += 1
        if n:
            lengths.append(n)
    return lengths


def symmetric_product(space: dict, m: int) -> dict:
    """Coefficient of t^m in prod_k (1 + T^k t)^b_k [k odd], (1 - T^k t)^-b_k [k even]."""
    series = [{0: 1}] + [{} for _ in range(m)]
    for k, b in pc_poly(space).items():
        factor = [
            {k * j: comb(b, j) if k % 2 else comb(b + j - 1, j)} for j in range(m + 1)
        ]
        new = [{} for _ in range(m + 1)]
        for i in range(m + 1):
            for j in range(m + 1 - i):
                new[i + j] = padd(new[i + j], pmul(series[i], factor[j]))
        series = new
    return series[m]


def strata_sum(pc: dict, l: int, m: int, closed: bool) -> dict:
    """sum_a (-1)^a S(m, l-a) rising(pc, l-a) T^a over a < l (a = 0 only if open)."""
    total: dict = {}
    for a in range(l if closed else 1):
        term = pmul(rising(pc, l - a), {a: stirling2(m, l - a) * (-1) ** a})
        total = padd(total, term)
    return total


def universal(l: int, m: int, closed: bool) -> dict:
    """The strata sum with P in place of pc, as {(p_exp, t_exp): coefficient}."""
    total: dict = {}
    for a in range(l if closed else 1):
        prod = {(0, 0): 1}
        for i in range(l - a):
            prod = pmul(prod, {(1, 0): 1, (0, 1): i} if i else {(1, 0): 1})
        prod = pmul(prod, {(0, a): stirling2(m, l - a) * (-1) ** a})
        total = padd(total, prod)
    return total


# ---------------------------------------------------------------------------
# answers in the CLI result schema
# ---------------------------------------------------------------------------


def poly_of(answer) -> dict:
    if not isinstance(answer, dict) or answer.get("kind") != "polynomial":
        raise ValueError(f"not a polynomial answer: {str(answer)[:80]}")
    return {int(e): v for e, v in answer["coefficients"].items()}


def series_of(answer) -> dict[str, dict]:
    if not isinstance(answer, dict) or answer.get("kind") != "series":
        raise ValueError(f"not a series answer: {str(answer)[:80]}")
    return {
        ctype_key(parse_ctype(k)): {int(e): v for e, v in entry.items()}
        for k, entry in answer["entries"].items()
    }


def bipoly_of(answer) -> dict:
    if not isinstance(answer, dict) or answer.get("kind") != "bivariate":
        raise ValueError(f"not a bivariate answer: {str(answer)[:80]}")
    out = {}
    for key, v in answer["coefficients"].items():
        i, j = key.split(",")
        out[(int(i), int(j))] = v
    return out


def _compare(name: str, got: dict, want: dict | None) -> list[str]:
    if want is None:
        return [f"{name}: reference average is not integral"]
    if got != want:
        diff = sorted(set(got.items()) ^ set(want.items()))[:3]
        return [f"{name}: differs from reference, e.g. {diff}"]
    return []


def _check_rising(space: dict, m: int, got: dict, name: str) -> list[str]:
    pc = pc_poly(space)
    if m <= FULL_PRODUCT_MAX_M:
        if pc == {2: 1}:
            row = stirling1_row(m)
            want = {m + k: row[k] for k in range(m + 1) if row[k]}
        else:
            want = rising(pc, m)
        return _compare(name, got, want)
    out = []
    if evaluate(got, 1) != rising_value(pc, m, 1):
        out.append(f"{name}: value at T=1 is not prod(pc(1)+i)")
    if evaluate(got, -1) != rising_value(pc, m, -1):
        out.append(f"{name}: value at T=-1 is not the Euler characteristic prod(pc(-1)-i)")
    for x in EVAL_POINTS:
        if evaluate(got, x, MOD) != rising_value(pc, m, x, MOD):
            out.append(f"{name}: value at T={x} mod 2^61-1 differs")
    return out


def _full_series(space: dict, m: int) -> dict[str, dict]:
    return {
        ctype_key(mult_of(p)): trace(space, mult_of(p)) for p in integer_partitions(m)
    }


def _check_stability(space: dict, degree: int, defect: int, lo: int, hi: int, got) -> list[str]:
    if not isinstance(got, dict) or got.get("kind") != "multiplicity-table":
        return ["stability: not a multiplicity table"]
    ms = [m for m in range(max(lo, defect + 1, 1), hi + 1)]
    out = []
    if got["m"] != ms or got["degree"] != degree or got["defect"] != defect:
        out.append("stability: wrong m range, degree or defect")
    pc = pc_poly(space)
    for m in ms:
        l = m - defect
        want = stirling2(m, l) * rising(pc, l).get(l * space["dim"] - degree, 0)
        if got["betti"].get(str(m)) != want:
            out.append(f"stability: Betti number at m={m} is not {want}")
        dims = 0
        for core_key, row in got["rows"].items():
            if not row.get(str(m)):
                continue
            core = tuple(int(p) for p in core_key.strip("()").split(",") if p)
            first = m - sum(core)
            shape = ((first,) if first > 0 else ()) + core
            dims += row[str(m)] * hook_dimension(shape)
        if dims != want:
            out.append(f"stability: multiplicities at m={m} give dimension {dims}, not {want}")
    return out


def expected_problems(fn: str, args: list, spaces: dict, answer) -> list[str]:
    """Compare one answer with the reference for library query ``fn(*args)``."""
    args = [spaces[a["space"]] if isinstance(a, dict) else a for a in args]
    if fn in ("poincare_config", "poincare_config_ordinary"):
        space, m = args
        got = poly_of(answer)
        if fn == "poincare_config_ordinary":
            got = {m * space["dim"] - e: v for e, v in got.items()}
        return _check_rising(space, m, got, fn)
    if fn in ("poincare_exactly", "poincare_at_most"):
        space, l, m = args
        want = strata_sum(pc_poly(space), l, m, fn == "poincare_at_most")
        return _compare(fn, poly_of(answer), want)
    if fn == "universal_poly":
        l, m, closed = args
        got = bipoly_of(answer)
        out = _compare(fn, got, universal(l, m, closed))
        if any(i + j != l for i, j in got):
            out.append(f"{fn}: not homogeneous of degree {l}")
        return out
    if fn in ("config_series", "reconstruct_config_series"):
        space, m = args
        got = series_of(answer)
        want = _full_series(space, m)
        return [
            f"{fn}: entry {k} differs from the trace formula"
            for k in sorted(set(got) | set(want))
            if got.get(k) != want.get(k)
        ]
    if fn == "config_trace":
        space, key = args
        return _compare(fn, poly_of(answer), trace(space, parse_ctype(key)))
    if fn == "exactly_series":
        space, l, m = args
        got = series_of(answer)
        want_keys = {ctype_key(mult_of(p)) for p in integer_partitions(m)}
        if set(got) != want_keys:
            return [f"{fn}: entries are not indexed by the cycle types of S_{m}"]
        identity = ctype_key({1: m})
        want = negate_var({e: stirling2(m, l) * v for e, v in rising(pc_poly(space), l).items()})
        out = _compare(f"{fn} identity entry", got[identity], want)
        total: dict = {}
        for key, entry in got.items():
            total = padd(total, entry, class_size(parse_ctype(key), m))
        averaged = divexact(total, factorial(m))
        if averaged is None or any(v < 0 for v in negate_var(averaged).values()):
            out.append(f"{fn}: S_{m}-average is not a Poincare polynomial")
        return out
    if fn == "poincare_unordered_config":
        space, m = args
        got = poly_of(answer)
        out = _compare(fn, got, average(space, symmetric_counts(m), factorial(m)))
        chi = evaluate(pc_poly(space), -1)
        if evaluate(got, -1) != _binomial(chi, m):
            out.append(f"{fn}: Euler characteristic is not binom({chi}, {m})")
        if space["poincare_c"] == [0, 0, 1] and m >= 2 and got != {2 * m: 1, 2 * m - 1: 1}:
            out.append(f"{fn}: plane answer is not T^{2 * m} + T^{2 * m - 1}")
        return out
    if fn == "poincare_cyclic_config":
        space, m = args
        return _compare(fn, poly_of(answer), average(space, cyclic_counts(m), m))
    if fn == "poincare_symmetric_product":
        space, m = args
        return _compare(fn, poly_of(answer), symmetric_product(space, m))
    if fn == "poincare_cyclic_product":
        space, m = args
        return _compare(fn, poly_of(answer), average(space, cyclic_counts(m), m, power_trace))
    if fn == "quotient":
        space, m, group = args
        if group == "symmetric":
            order, counts = factorial(m), symmetric_counts(m)
        else:
            order, counts = permutation_group_counts(group, m)
        return _compare(fn, poly_of(answer), average(space, counts, order))
    if fn == "stability_report":
        space, degree, defect, (lo, hi) = args
        return _check_stability(space, degree, defect, lo, hi, answer)
    if fn == "selftest":
        if answer != {"failed": 0, "passed": answer.get("passed")} or not answer["passed"]:
            return ["selftest: some checks failed"]
        return []
    raise ValueError(f"no reference for {fn}")


def _binomial(n: int, k: int) -> int:
    """Generalized binomial coefficient; n may be negative."""
    value = 1
    for i in range(k):
        value = value * (n - i)
    return value // factorial(k)


# ---------------------------------------------------------------------------
# CLI documents
# ---------------------------------------------------------------------------

_TERM = re.compile(r"([+-]?)\s*(\d*)(T(?:\^\{?(-?\d+)\}?)?)?")


def parse_rendered_poly(text: str) -> dict:
    """Read back a plain or LaTeX polynomial such as ``T^{6} - 2T^{5} + 1``."""
    out: dict[int, int] = {}
    text = text.strip()
    if text == "0":
        return out
    pos = 0
    while pos < len(text):
        match = _TERM.match(text, pos)
        if not match or match.end() == pos:
            raise ValueError(f"cannot parse polynomial {text!r}")
        sign, digits, t, exp = match.groups()
        coeff = int(digits) if digits else 1
        e = (int(exp) if exp else 1) if t else 0
        out[e] = out.get(e, 0) + (-coeff if sign == "-" else coeff)
        pos = match.end()
        while pos < len(text) and text[pos] == " ":
            pos += 1
    return {e: v for e, v in out.items() if v}


def cli_answer(query: dict, stdout: str):
    """The part of a CLI output that answer digests cover.

    JSON output: command, inputs and result.  Plain and LaTeX output: the
    lines of the ``result:`` section.  The ``checks`` section is left out so
    that the form of the checks may change; every check must still pass.
    """
    if query["format"] == "json":
        doc = json.loads(stdout)
        return {k: doc[k] for k in ("command", "inputs", "result")}
    lines = stdout.splitlines()
    start = lines.index("result:") + 1
    end = lines.index("checks:") if "checks:" in lines else len(lines)
    return lines[start:end]


def cli_problems(query: dict, spaces: dict, exit_code: int, stdout: str) -> list[str]:
    if exit_code != query["expect_exit"]:
        return [f"exit code {exit_code}, expected {query['expect_exit']}"]
    if query["expect_exit"] != 0:
        return [] if not stdout else ["a refused command wrote to stdout"]
    ref = query["ref"]
    if query["format"] == "json":
        doc = json.loads(stdout)
        failed = [c["name"] for c in doc.get("checks", []) if not c.get("passed")]
        out = [f"check {name} did not pass" for name in failed]
        return out + expected_problems(ref["fn"], ref["args"], spaces, doc["result"])
    out = [f"check line {line.strip()!r}" for line in stdout.splitlines()
           if line.strip().startswith("[FAIL]")]
    result = cli_answer(query, stdout)
    if ref["fn"] == "selftest":
        answer = json.loads(result[0])
    else:
        got = parse_rendered_poly(result[0])
        answer = {"kind": "polynomial", "coefficients": {str(e): v for e, v in got.items()}}
    return out + expected_problems(ref["fn"], ref["args"], spaces, answer)


def digest(answer) -> str:
    blob = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class Checker:
    """Checks every answer of a run.

    Verdicts are remembered per query and output, so repeated passes that
    produce the same bytes are checked once; the recorded digest is compared
    every time.
    """

    def __init__(self, spaces: dict, recorded: dict[str, str]):
        self.spaces = spaces
        self.recorded = recorded
        self.digest_checked = 0
        self._verdicts: dict[tuple[str, str], list[str]] = {}

    def library(self, query: dict, answer, error: str | None) -> list[str]:
        if error is not None:
            return [f"raised {error}"]
        answer_digest = digest(answer)
        return self._verdict(query, answer_digest, answer_digest, lambda: expected_problems(
            query["fn"], query["args"], self.spaces, answer))

    def cli(self, query: dict, exit_code: int, stdout: str) -> list[str]:
        if exit_code != 0 or query["expect_exit"] != 0:
            return cli_problems(query, self.spaces, exit_code, stdout)
        try:
            answer = cli_answer(query, stdout)
        except (ValueError, KeyError) as exc:
            return [f"unreadable output: {exc}"]
        return self._verdict(query, digest(answer), digest(stdout), lambda: cli_problems(
            query, self.spaces, exit_code, stdout))

    def _verdict(self, query: dict, answer_digest: str, output_digest: str, check) -> list[str]:
        key = (query["key"], output_digest)
        if key not in self._verdicts:
            try:
                self._verdicts[key] = check()
            except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
                self._verdicts[key] = [f"malformed answer: {type(exc).__name__}: {exc}"]
        problems = list(self._verdicts[key])
        recorded = self.recorded.get(query["key"])
        if recorded is not None:
            self.digest_checked += 1
            if recorded != answer_digest:
                problems.append("answer differs from the recorded digest")
        return problems
