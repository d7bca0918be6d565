"""Run one pass of a workload in a fresh process.

Reads a pass description (JSON) on stdin and writes one JSON document on
stdout.  Modes:

* ``library`` -- call the library functions in query order;
* ``cli`` -- run each argv as ``python -m confcohom.cli`` in its own process;
* ``cli_inprocess`` -- call ``confcohom.cli.main(argv)`` in this process, as
  the traced run does.

Only the queries themselves are timed; ``wall_s`` is the sum of their times.
With ``calibrate`` set to ``loop`` or ``spawn``, the pass also times
``calibrate.loop`` (or a fresh interpreter running it) about every
``CALIBRATE_EVERY_S`` seconds and returns the samples as ``calib_s``; their
time is left out of the query times.  Answers are converted to the CLI's
JSON result schema after the timed section, for the reference checker.  Peak
RSS is this process's own (library) or that of its largest child (cli).
"""

from __future__ import annotations

import io
import json
import os
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

CLI_TIMEOUT_S = 150
CALIBRATE_EVERY_S = 0.2

sys.path.insert(0, str(Path(__file__).resolve().parent))


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _space_spec(confcohom, doc: dict):
    return confcohom.SpaceSpec(
        name=doc["name"],
        pc=confcohom.LaurentPoly.from_coeffs(doc["poincare_c"]),
        dim=doc["dim"],
        i_acyclic=doc["i_acyclic"],
        orientable=doc["orientable"],
        connected=doc["connected"],
    )


def _resolve(arg, spaces):
    if isinstance(arg, dict):
        return spaces[arg["space"]]
    if isinstance(arg, list):
        return tuple(arg)
    return arg


def _core_key(core) -> str:
    return "(" + ",".join(str(p) for p in core) + ")"


def to_answer(value):
    """The CLI's JSON result schema for a library return value."""
    kind = type(value).__name__
    if kind == "LaurentPoly":
        return {"kind": "polynomial", "coefficients": value.to_exp_map()}
    if kind == "BiPoly":
        return {"kind": "bivariate", "coefficients": value.to_exp_map()}
    if kind == "TraceSeries":
        entries = {str(ct): v.to_exp_map() for ct, v in value.values.items()}
        return {"kind": "series", "entries": entries}
    if kind == "StabilityReport":
        table = value.table
        return {
            "kind": "multiplicity-table",
            "degree": value.degree,
            "defect": value.defect,
            "m": list(table.m_values),
            "rows": {
                _core_key(core): {str(m): v for m, v in sorted(table.rows[core].items())}
                for core in table.cores()
            },
            "betti": {str(m): v for m, v in sorted(value.betti.items())},
            "poly_degree": value.poly_degree,
        }
    raise TypeError(f"no answer schema for {kind}")


def _start_calibrator(spec):
    if not spec.get("calibrate"):
        return None
    import calibrate

    cal = calibrate.Calibrator(CALIBRATE_EVERY_S, spawn=spec["calibrate"] == "spawn")
    cal.start()
    return cal


def _begin(cal) -> tuple[float, float]:
    if cal:
        cal.between()
        return time.perf_counter(), cal.spent
    return time.perf_counter(), 0.0


def _seconds(cal, begun: tuple[float, float]) -> float:
    """Time since ``_begin``, less the calibration loop's share of it."""
    t0, spent = begun
    return time.perf_counter() - t0 - (cal.spent - spent if cal else 0.0)


def _finish(doc: dict, timings: list[float], cal) -> dict:
    doc["wall_s"] = sum(timings)
    if cal:
        cal.stop()
        doc["calib_s"] = cal.samples
    return doc


def _start_tracer(spec):
    if not spec["trace"]:
        return None
    import tracer

    t = tracer.Tracer()
    tracer.install(t)
    return t


def run_library(spec: dict) -> dict:
    import confcohom

    spaces = {name: _space_spec(confcohom, doc) for name, doc in spec["spaces"].items()}
    calls = [(q["fn"], [_resolve(a, spaces) for a in q["args"]]) for q in spec["queries"]]
    tr = _start_tracer(spec)
    cal = _start_calibrator(spec)
    timings, values = [], []
    for i, (fn, args) in enumerate(calls):
        if tr:
            tr.query = i
        begun = _begin(cal)
        try:
            values.append((getattr(confcohom, fn)(*args), None))
        except Exception as exc:  # noqa: BLE001 - a failed query is recorded, the pass goes on
            values.append((None, f"{type(exc).__name__}: {exc}"))
        timings.append(_seconds(cal, begun))
    out = _finish({}, timings, cal)
    rss = _peak_rss_mb(resource.RUSAGE_SELF)
    results = []
    for seconds, (value, error) in zip(timings, values):
        answer = None
        if error is None:
            try:
                answer = to_answer(value)
            except TypeError as exc:
                error = str(exc)
        results.append({"seconds": seconds, "answer": answer, "error": error})
    out.update(peak_rss_mb=rss, results=results)
    if tr:
        out["trace"] = _trace_output(tr, spec)
    return out


def run_cli(spec: dict) -> dict:
    root = spec["root"]
    cal = _start_calibrator(spec)
    timings, results = [], []
    for q in spec["queries"]:
        begun = _begin(cal)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "confcohom.cli", *q["argv"]],
                cwd=root,
                capture_output=True,
                text=True,
                timeout=CLI_TIMEOUT_S,
            )
            result = {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
        except subprocess.TimeoutExpired:
            result = {"exit": None, "stdout": "", "stderr": "", "error": "timed out"}
        timings.append(_seconds(cal, begun))
        results.append(result)
    doc = _finish({}, timings, cal)
    for seconds, result in zip(timings, results):
        result["seconds"] = seconds
    doc.update(peak_rss_mb=_peak_rss_mb(resource.RUSAGE_CHILDREN), results=results)
    return doc


def run_cli_inprocess(spec: dict) -> dict:
    import confcohom.cli  # noqa: F401 - binds the module the tracer wraps

    tr = _start_tracer(spec)
    cli = sys.modules["confcohom.cli"]
    timings, results = [], []
    for i, q in enumerate(spec["queries"]):
        if tr:
            tr.query = i
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(list(q["argv"]))
            result = {"exit": code}
        except Exception as exc:  # noqa: BLE001 - a traceback counts as a failed query
            result = {"exit": None, "error": f"{type(exc).__name__}: {exc}"}
        timings.append(time.perf_counter() - t0)
        result.update(stdout=out.getvalue(), stderr=err.getvalue())
        results.append(result)
    for seconds, result in zip(timings, results):
        result["seconds"] = seconds
    doc = {"wall_s": sum(timings), "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_SELF),
           "results": results}
    if tr:
        doc["trace"] = _trace_output(tr, spec)
    return doc


def _trace_output(tr, spec: dict) -> dict:
    import tracer

    # The character recursion stays unwrapped; its cache tells the work done.
    # Each pass is a fresh process, so the cache started empty.
    chars = sys.modules["confcohom.repstab"].symmetric_group_character.cache_info()
    tr.counts["repstab.character_evals"] += chars.misses
    tr.counts["repstab.character_cache_hits"] += chars.hits
    span_file = spec.get("span_file")
    if span_file:
        with open(span_file, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "query", "outer"],
                       "spans": tr.spans}, fh, separators=(",", ":"))
    return {"spans": len(tr.spans), "counts": dict(tr.counts), "times": tracer.summarize(tr.spans)}


MODES = {"library": run_library, "cli": run_cli, "cli_inprocess": run_cli_inprocess}


def main() -> int:
    spec = json.load(sys.stdin)
    if spec["mode"] != "cli":
        import confcohom

        src = os.path.realpath(os.path.join(spec["root"], "src"))
        if not os.path.realpath(confcohom.__file__).startswith(src + os.sep):
            sys.stderr.write(f"confcohom imported from {confcohom.__file__}, not {src}\n")
            return 1
    json.dump(MODES[spec["mode"]](spec), sys.stdout, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
