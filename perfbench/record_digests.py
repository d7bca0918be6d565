"""Record the answer digests that later runs must reproduce byte for byte.

Runs every query that any seed can generate (all draws of the seeded
spaces, full sizes) once, checks each answer against the reference, and
writes ``perfbench/digests.json``.  Run it from a source checkout at the
commit whose answers become the reference::

    python3 perfbench/record_digests.py
"""

from __future__ import annotations

import json
import sys

import run
import reference
import workloads


def universe(workload: str) -> dict:
    spaces, queries = {}, {}
    for draw_ab in workloads.all_draws():
        spec = workloads.generate(workload, 0, "full", draw_ab)
        spaces.update(spec["spaces"])
        for q in spec["queries"]:
            queries.setdefault(q["key"], q)
    ordered = sorted(queries.values(), key=lambda q: q["key"])
    return {"workload": workload, "spaces": spaces, "queries": ordered}


def main() -> int:
    digests, bad = {}, []
    for workload in workloads.WORKLOADS:
        spec = universe(workload)
        run.write_space_files(spec)
        mode = "cli" if workload == "cli_session" else "library"
        doc = run.run_pass(spec, mode, False, 3600, None)
        checker = reference.Checker(spec["spaces"], {})
        for q, r in zip(spec["queries"], doc["results"]):
            if "argv" in q:
                problems = checker.cli(q, r["exit"], r["stdout"])
                if r["exit"] == 0 and not problems:
                    digests[q["key"]] = reference.digest(reference.cli_answer(q, r["stdout"]))
            else:
                problems = checker.library(q, r["answer"], r["error"])
                if not problems:
                    digests[q["key"]] = reference.digest(r["answer"])
            if problems:
                bad.append((q["key"], problems))
        print(f"{workload}: {len(spec['queries'])} queries", file=sys.stderr)
    for key, problems in bad:
        print(f"NOT RECORDED {key}: {problems}", file=sys.stderr)
    (run.HERE / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
