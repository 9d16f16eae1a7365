"""Compare two sets of benchmark results, metric by metric.

Usage, from the root of the repository:

    python3 bench/compare.py BASE.txt NEW.txt

Each file holds the standard output of one or more ``bench/run.py``
runs.  For every workload and metric the script prints both medians,
the change as a share of the base median, and, for end-to-end metrics,
whether the change exceeds the bound in BENCHMARK.json.  It refuses
(exit 2) to compare results whose backends, Python or numpy versions
differ, because those change every timing at once.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ENVIRONMENT_KEYS = ("backend", "python", "numpy")


def records(path: str) -> list[dict]:
    out = []
    for line in Path(path).read_text().splitlines():
        if line.startswith('{"record"'):
            out.append(json.loads(line)["record"])
    if not out:
        raise SystemExit(f"error: no benchmark records in {path}")
    return out


def environments(recs: list[dict]) -> set[tuple]:
    return {tuple(r["environment"][k] for k in ENVIRONMENT_KEYS) for r in recs}


def medians(recs: list[dict]) -> dict[tuple[str, str], float]:
    values: dict[tuple[str, str], list[float]] = {}
    for r in recs:
        for name, metric in r["metrics"].items():
            values.setdefault((r["workload"], name), []).append(metric["value"])
    return {key: statistics.median(v) for key, v in values.items()}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 bench/compare.py BASE.txt NEW.txt", file=sys.stderr)
        return 2
    base, new = records(argv[0]), records(argv[1])
    envs = environments(base) | environments(new)
    if len(envs) != 1:
        print(f"error: results come from different environments {sorted(envs)} "
              f"({', '.join(ENVIRONMENT_KEYS)}); refusing to compare", file=sys.stderr)
        return 2
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    base_m, new_m = medians(base), medians(new)
    worse = 0
    for key in sorted(base_m.keys() & new_m.keys()):
        b, n = base_m[key], new_m[key]
        change = (n - b) / b if b else 0.0
        verdict = ""
        if key[1] in bounds:
            bound, better = bounds[key[1]]
            loss = -change if better == "higher" else change
            verdict = "REGRESSION" if loss > bound else "ok"
            worse += loss > bound
        print(f"{key[0]:<14} {key[1]:<32} {b:>14.6g} {n:>14.6g} {change:>+8.1%} {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
