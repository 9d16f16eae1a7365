"""Tests of the benchmark itself: generator, percentile rule, oracles, failure counting.

Run from the root of the repository:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import io
import random
import sys
from contextlib import redirect_stdout
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402

run.ROOT = BENCH.parent
run.SRC = run.ROOT / "src"
assert run.load() is None

from groupgraphs import symmetry  # noqa: E402


def brute_force_count(adj: np.ndarray) -> int:
    """|Aut| by filtering all n! permutations."""
    n = len(adj)
    return sum(1 for p in permutations(range(n)) if (adj[np.ix_(p, p)] == adj).all())


def naive_power_arc(table: np.ndarray, x: int, y: int) -> bool:
    """x -> y iff y != x is among x, x^2, ..., x^(2n), by repeated multiplication."""
    power = x
    for _ in range(2 * len(table)):
        if power == y and x != y:
            return True
        power = int(table[power, x])
    return False


# -- generator ------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(gen.BLOCKS))
def test_generator_is_deterministic_for_a_seed(workload):
    block = gen.BLOCKS[workload]
    first = [(i.stratum, i.payload, i.expect) for i in block(7, 2)]
    again = [(i.stratum, i.payload, i.expect) for i in block(7, 2)]
    other = [(i.stratum, i.payload, i.expect) for i in block(8, 2)]
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", sorted(gen.BLOCKS))
def test_composition_does_not_depend_on_the_seed(workload):
    block = gen.BLOCKS[workload]
    assert {str(gen.composition(block(seed, 0))) for seed in range(5)} == {
        str(gen.composition(block(0, 0)))}


def test_recognize_keeps_the_high_aut_stratum_and_n_at_most_12():
    items = gen.recognize_block(3, 0)
    assert gen.composition(items)["high_aut"] == 10
    assert all(len(i.expect["rows"]) <= 12 for i in items)


# -- percentile rule ------------------------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    assert run.tail_percentile([float(x) for x in range(99)], 0.9) is None
    values = [float(x) for x in range(100)]
    assert run.tail_percentile(values, 0.9) == 89.0
    assert run.tail_percentile(values[::-1], 0.9) == 89.0


# -- oracles against brute force ----------------------------------------------------


@pytest.mark.parametrize("spec", ["Z6", "S3", "D4", "Q8", "Z2xZ4", "A4", "Dic3", "Z3xZ3"])
def test_tables_satisfy_the_group_axioms(spec):
    t = gen.spec_table(spec)
    n = len(t)
    e = gen.identity_of(t)
    assert (np.sort(t, axis=1) == np.arange(n)).all() and (np.sort(t, axis=0).T == np.arange(n)).all()
    assert (t[e] == np.arange(n)).all() and (t[:, e] == np.arange(n)).all()
    assert (t[t] == t[:, t]).all()  # (ab)c == a(bc)


@pytest.mark.parametrize("spec", ["Z12", "D6", "Q8", "A4", "Z2xZ6", "S4"])
def test_power_adjacency_matches_the_definition(spec):
    t = gen.spec_table(spec)
    naive = np.array([[naive_power_arc(t, x, y) for y in range(len(t))] for x in range(len(t))])
    assert (gen.power_adjacency(t) == naive).all()


def test_cayley_adjacency_matches_the_definition():
    t = gen.spec_table("D5")
    inv = gen.inverses_of(t)
    members = [1, 4, 7]
    adj = gen.cayley_adjacency(t, members)
    want = np.array([[int(t[inv[g], h]) in members for h in range(10)] for g in range(10)])
    assert (adj == want).all()


def test_graph6_encoder_matches_the_package():
    rng = random.Random(1)
    for n in range(1, 10):
        adj = np.triu(np.array([[rng.random() < 0.5 for _ in range(n)] for _ in range(n)]), 1)
        adj = adj | adj.T
        assert run.graphs.from_graph6(gen.encode(adj, False)).rows == gen.rows_of(adj)
        arcs = np.array([[u != v and rng.random() < 0.5 for v in range(n)] for u in range(n)])
        assert run.graphs.from_digraph6(gen.encode(arcs, True)).rows == gen.rows_of(arcs)


def test_known_automorphism_counts_agree_with_brute_force():
    cases = gen._bench_kernel_cases() + gen._relabelled_enumerate_cases()
    small = [(name, adj, count) for name, adj, _, count, _ in cases if len(adj) <= 8]
    assert small
    for name, adj, count in small:
        assert brute_force_count(adj) == count, name


def test_frucht_and_tietze_are_cubic_and_not_vertex_transitive():
    for adj in (gen.frucht(), gen.tietze()):
        assert (adj.sum(axis=1) == 3).all() and (adj == adj.T).all()
        assert not symmetry.is_vertex_transitive(run.graphs.SimpleGraph(gen.rows_of(adj)))


def test_theorem_rows_match_brute_force_classification():
    for row, (_, spec) in zip(oracle.theorem_rows(), gen.CATALOG):
        t = gen.spec_table(spec)
        n = len(t)
        adj = gen.power_adjacency(t)
        pg = adj | adj.T
        complete = bool(pg.sum() == n * (n - 1))
        assert row["pg_complete"] == complete == row["cyclic_p_group"]


# -- failures are counted -------------------------------------------------------------


def test_right_answers_pass_every_check():
    for item in gen.recognize_block(5, 0)[:20] + gen.enumerate_block(5, 0)[:6]:
        workload = "recognize" if "cayley" in item.expect else "enumerate"
        assert run.run_graph_item(workload, item).failure is None


def test_a_wrong_verdict_is_a_failure(monkeypatch):
    item = next(i for i in gen.recognize_block(1, 0) if i.stratum == "high_aut")
    monkeypatch.setattr(symmetry, "is_cayley",
                        lambda graph: symmetry.NotCayley(symmetry.NotCayleyReason.NOT_REGULAR_DEGREE))
    assert run.run_graph_item("recognize", item).failure is not None


def test_a_wrong_automorphism_list_is_a_failure(monkeypatch):
    item = next(i for i in gen.enumerate_block(1, 0) if i.expect["name"] == "Petersen")
    real = symmetry.automorphisms
    monkeypatch.setattr(symmetry, "automorphisms", lambda graph: real(graph)[:-1])
    assert run.run_graph_item("enumerate", item).failure is not None


def test_a_wrong_cli_output_is_a_failure():
    item = gen._power_item("power_small", "Z60", False, "json")
    assert run.run_cli_item("cli_construct", item).failure is None
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.cli.main(list(item.payload)) == 0
    text = out.getvalue()
    assert oracle.check_cli(item, 0, text, "") is None
    assert oracle.check_cli(item, 0, text.replace("[0, 1]", "[0, 2]", 1), "") is not None
    assert oracle.check_cli(item, 2, "", "error: bad spec") is not None


def test_an_injected_wrong_answer_raises_the_failure_count(monkeypatch):
    monkeypatch.setattr(symmetry, "is_cayley", lambda graph: symmetry.NotCayley(
        symmetry.NotCayleyReason.NO_REGULAR_SUBGROUP))
    result = run.timed_run("recognize", 1, 0.01)
    failed = sum(o.failure is not None for o in result["outcomes"])
    assert 0 < failed < len(result["outcomes"])
