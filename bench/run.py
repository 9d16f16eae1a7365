"""groupgraphs benchmark: one workload, one seed, one process.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload recognize --seed 1 --seconds 20 --trace 0

Workloads: recognize, enumerate, cli_construct (see bench/README.md).
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of a traced replay.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the full record (environment, seed, composition, sample counts and
the first failures).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

# one thread per workload process; must be set before numpy loads its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import gen  # noqa: E402  (after the thread settings: gen loads numpy)
import oracle  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
IMPORT_CODE = f"import sys; sys.path.insert(0, {str(SRC)!r}); import groupgraphs, groupgraphs.cli"

WORKLOADS = ("recognize", "enumerate", "cli_construct")
#: every run has at least this many latency samples, so that the 90th
#: percentile always has at least 10 samples beyond it
MIN_SAMPLES = 100
#: seconds of --seconds per block: sizes a run, whatever the machine's speed
BLOCK_SECONDS = {"recognize": 1.25, "enumerate": 2.5, "cli_construct": 5.0}
SETUP_SPAWNS = 7
IMPORTTIME_SPAWNS = 3

# package modules, imported from the checkout by load()
cli = graphs = symmetry = spans = None


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


# -- statistics ---------------------------------------------------------------


def tail_percentile(values: list[float], q: float, min_beyond: int = 10) -> float | None:
    """Nearest-rank q-quantile, or None unless at least min_beyond samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    if len(ordered) - rank < min_beyond:
        return None
    return ordered[rank - 1]


# -- environment ----------------------------------------------------------------


def commit() -> str:
    """The checkout's commit, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy
    import groupgraphs
    return {"backend": groupgraphs.backend_name(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(), "commit": commit()}


def spawn_seconds(extra: list[str]) -> tuple[float, str]:
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, *extra, "-c", IMPORT_CODE], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return time.perf_counter() - t0, done.stderr


def setup_seconds() -> float:
    """Median wall time from spawning an interpreter until the package and CLI are imported."""
    spawn_seconds([])  # writes the bytecode caches of a fresh checkout
    return statistics.median(spawn_seconds([])[0] for _ in range(SETUP_SPAWNS))


def import_seconds() -> float:
    """Median cumulative import time of groupgraphs and groupgraphs.cli (-X importtime)."""
    samples = []
    for _ in range(IMPORTTIME_SPAWNS):
        total = 0
        for line in spawn_seconds(["-X", "importtime"])[1].splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() in ("groupgraphs", "groupgraphs.cli") \
                    and fields[2].startswith(" ") and not fields[2].startswith("  "):
                total += int(fields[1])
        samples.append(total / 1e6)
    return statistics.median(samples)


# -- items ----------------------------------------------------------------------


@dataclass
class Outcome:
    latency: float
    verdict: object          # compared between the untraced and the traced pass
    failure: str | None      # why the answer is wrong, or None


def run_graph_item(workload: str, item, tracer=None) -> Outcome:
    decode = graphs.from_digraph6 if item.expect["directed"] else graphs.from_graph6
    t0 = time.perf_counter()
    try:
        graph = decode(item.payload)
        if workload == "recognize":
            result = symmetry.is_cayley(graph)
        else:
            auts = symmetry.automorphisms(graph)
            vt = symmetry.is_vertex_transitive(graph)
    except Exception as exc:  # a failing item is counted and the run goes on
        return Outcome(time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}")
    latency = time.perf_counter() - t0
    failure = oracle.check_decoded(item, graph)
    if workload == "recognize":
        verdict = (bool(result), None if result else result.reason.value)
        failure = failure or oracle.check_recognize(item, graph, result)
    else:
        verdict = (len(auts), vt)
        failure = failure or oracle.check_enumerate(item, graph, auts, vt)
    return Outcome(latency, verdict, failure)


def run_cli_item(workload: str, item, tracer=None) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(item.payload))
    except SystemExit as exc:  # argparse rejects bad argv this way
        code = exc.code
    except Exception as exc:
        return Outcome(time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}")
    latency = time.perf_counter() - t0
    text = out.getvalue()
    if tracer is not None:
        tracer.counts["graphs.bytes_out"] += len(text.encode())
    verdict = (code, hashlib.sha256(text.encode()).hexdigest())
    return Outcome(latency, verdict, oracle.check_cli(item, code, text, err.getvalue()))


# -- runs -------------------------------------------------------------------------


def fixed_items(workload: str) -> list:
    return gen.cli_fixed_items() if workload == "cli_construct" else []


def block_count(workload: str, seconds: float) -> int:
    """Blocks in a run: fixed by --seconds, so the item set depends only on seed and seconds."""
    fixed = len(fixed_items(workload))
    per_block = len(gen.BLOCKS[workload](0, 0))
    return max(round(seconds / BLOCK_SECONDS[workload]), math.ceil((MIN_SAMPLES - fixed) / per_block))


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    """Closed loop, one client: the fixed items, then the run's blocks, one item at a time."""
    runner = run_cli_item if workload == "cli_construct" else run_graph_item
    block_of = gen.BLOCKS[workload]
    start = time.perf_counter()
    blocks = block_count(workload, seconds)
    outcomes = [runner(workload, item) for item in fixed_items(workload)]
    for block in range(blocks):
        outcomes += [runner(workload, item) for item in block_of(seed, block)]
    latencies = [o.latency for o in outcomes]
    p90 = tail_percentile(latencies, 0.9)
    metrics = {
        "items_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    if p90 is not None:
        metrics["latency_p90_ms"] = (1e3 * p90, "ms")
    return {
        "outcomes": outcomes,
        "metrics": metrics,
        "detail": {"blocks": blocks, "samples": len(latencies), "wall_s": time.perf_counter() - start,
                   "composition_per_block": gen.composition(block_of(seed, 0)),
                   "fixed_items": [" ".join(i.payload) for i in fixed_items(workload)]},
    }


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    """After a warm-up pass over the first block, pairs of passes (untraced, then traced)
    until --seconds have passed."""
    runner = run_cli_item if workload == "cli_construct" else run_graph_item
    block = gen.BLOCKS[workload](seed, 0)
    items = fixed_items(workload) + block
    start = time.perf_counter()
    outcomes = [runner(workload, item) for item in block]  # warm-up pass, not timed
    plain_totals, traced_totals, layers = [], [], []
    while not plain_totals or time.perf_counter() - start < seconds:
        plain = [runner(workload, item) for item in items]
        tracer = spans.Tracer()
        with spans.Probes(tracer):
            traced = [runner(workload, item, tracer) for item in items]
        for p, t in zip(plain, traced):
            if t.failure is None and p.failure is None and t.verdict != p.verdict:
                t.failure = f"traced verdict {t.verdict} differs from untraced {p.verdict}"
        outcomes += plain + traced
        plain_totals.append(sum(o.latency for o in plain))
        traced_totals.append(sum(o.latency for o in traced))
        layers.append(spans.layer_metrics(tracer))
    exact = [{k: v for k, v in layer.items() if v[1] != "s"} for layer in layers]
    metrics = {name: (statistics.median(layer[name][0] for layer in layers), unit)
               if unit == "s" else (value, unit) for name, (value, unit) in layers[0].items()}
    metrics["trace.overhead_s"] = (statistics.median(traced_totals) - statistics.median(plain_totals), "s")
    metrics["cli.import_s"] = (import_seconds(), "s")
    if any(counts != exact[0] for counts in exact):
        outcomes.append(Outcome(0.0, None, "per-layer counts differ between repeated passes"))
    return {
        "outcomes": outcomes,
        "metrics": metrics,
        "detail": {"pairs": len(layers), "items_per_pass": len(items),
                   "composition": gen.composition(items),
                   "untraced_pass_s": plain_totals, "traced_pass_s": traced_totals},
    }


def load() -> str | None:
    """Import the package from the checkout's src/, or say why it cannot be."""
    global cli, graphs, symmetry, spans
    if not (SRC / "groupgraphs" / "__init__.py").is_file():
        return f"{SRC / 'groupgraphs'} not found; run from the root of a source checkout"
    sys.path.insert(0, str(SRC))
    import groupgraphs
    if Path(groupgraphs.__file__).resolve().parent != (SRC / "groupgraphs").resolve():
        return f"imported groupgraphs from {groupgraphs.__file__}, not from {SRC}"
    from groupgraphs import cli, graphs, symmetry
    import spans
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    problem = load()
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    setup = setup_seconds() if not args.trace else None
    run = (traced_run if args.trace else timed_run)(args.workload, args.seed, args.seconds)
    metrics = run["metrics"]
    if setup is not None:
        metrics["setup_s"] = (setup, "s")
    failures = [o.failure for o in run["outcomes"] if o.failure is not None]
    result = {
        "correct": not failures,
        "attempted": len(run["outcomes"]),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), **run["detail"],
              "error_rate": len(failures) / len(run["outcomes"]), "first_failures": failures[:10],
              "metrics": result["metrics"]}
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
