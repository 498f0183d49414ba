"""The benchmark's tracer rebinds module attributes; every layer it wraps
must still see calls when the CLI solves through its algorithm table."""

from fractions import Fraction
from pathlib import Path

from netupgrade import cli, generate, imst_random, mst_uniform

BENCHMARK_DIR = Path(__file__).resolve().parent.parent / "benchmark"


def test_tracer_counts_every_layer_through_the_cli(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCHMARK_DIR))
    import tracing

    graph, dag = tmp_path / "g.json", tmp_path / "d.json"
    assert cli.main(["gen", "--kind", "imst", "--n", "6", "--m", "9", "--seed", "3",
                     "--budget", "8", "--out", str(graph)]) == 0
    assert cli.main(["gen", "--kind", "wildag", "--n", "7", "--m", "12", "--seed", "11",
                     "--budget", "7", "--out", str(dag)]) == 0
    # (algorithm, instance, the layers that run must reach once each)
    runs = [("wildag-exact", dag, ("dag_dp",)), ("wildag-fptas", dag, ("dag_dp",)),
            ("twocost", graph, ("two_cost", "instances.expand")),
            ("imst", graph, ("imst_random",)), ("uimst", graph, ("mst_uniform",))]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for algo, path, layers in runs:
            before = tracer.calls.copy()
            assert cli.main(["solve", "--algo", algo, "--in", str(path),
                             "--seed", "5", "--no-timing"]) == 0
            assert [tracer.calls[layer] - before[layer] for layer in layers] == [
                1] * len(layers), algo
            if algo == "twocost":
                # the solver enters each multiplier search through lambda_search,
                # and builds its trees and chains through the wrapped names
                seen = {layer: tracer.calls[layer] - before[layer] for layer in (
                    "two_cost.lambda_search", "two_cost.lagrangian_tree", "two_cost.swap_chain")}
                assert seen["two_cost.lambda_search"] >= 1
                # (13: the probe's closed form skips one forest before its tree)
                assert (seen["two_cost.lagrangian_tree"], seen["two_cost.swap_chain"]) == (13, 2)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.calls["cli"] == tracer.calls["serialization.parse"] == len(runs)


def test_tracer_sees_one_validation_and_one_relaxation_per_graph(monkeypatch):
    """Repeated library solves on one graph, as the tree-resample workload
    runs them: the counters its speed rests on."""
    monkeypatch.syspath_prepend(str(BENCHMARK_DIR))
    import tracing

    graph = generate.gen_random_graph(9, 16, max_len=40, seed=21)
    budget = sum(e.ladder[-1].cost for e in graph.edges) // 3
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for seed in range(8):
            config = imst_random.RandomizedConfig(Fraction(3, 10), Fraction(1, 5), seed)
            imst_random.imst_solve(graph, budget, config)
        for k in range(graph.n):
            mst_uniform.uimst_half_approx(graph, k)
    finally:
        tracer.uninstall()
    _times, counts, _hit_ratio = tracer.metrics()
    assert counts["imst_random.solves"] == 8
    assert counts["instances.validate.calls"] == 1
    assert counts["imst_random.relax.calls"] == 1
    assert counts["mst_uniform.mst.calls"] <= 2


def test_tracer_sees_two_reachability_walks_per_fptas_solve(monkeypatch):
    """Validation's walk from the source, which the source-sink edges reuse,
    and one walk back from the sink; the scaling unit and the frontier DP
    share the edges."""
    monkeypatch.syspath_prepend(str(BENCHMARK_DIR))
    import tracing
    from netupgrade import dag_dp

    dag = generate.gen_random_dag(12, 30, max_len=500, seed=8)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        dag_dp.wildag_fptas(dag, 12, Fraction(1, 3))
    finally:
        tracer.uninstall()
    _times, counts, _hit_ratio = tracer.metrics()
    assert counts["instances.reach.calls"] == 2


def test_tracer_sees_one_parse_and_one_validation_per_dag_solve(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCHMARK_DIR))
    import tracing

    dag = tmp_path / "d.json"
    assert cli.main(["gen", "--kind", "wildag", "--n", "9", "--m", "20", "--seed", "4",
                     "--budget", "6", "--out", str(dag)]) == 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["solve", "--algo", "wildag-exact", "--in", str(dag),
                         "--no-timing"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    _times, counts, _hit_ratio = tracer.metrics()
    assert counts["serialization.parse.calls"] == 1
    assert counts["instances.validate.calls"] == 1


def test_tracer_times_every_imst_trial(monkeypatch):
    """The sample layer wraps the one draw every trial makes, so it counts
    the trials the returned results record and its time is not zero."""
    monkeypatch.syspath_prepend(str(BENCHMARK_DIR))
    import tracing

    graph = generate.gen_random_graph(9, 16, max_len=40, levels=3, seed=21)
    budget = sum(e.ladder[-1].cost for e in graph.edges) // 3
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for seed, trials in enumerate((None, 1, 40)):
            config = imst_random.RandomizedConfig(Fraction(3, 10), Fraction(1, 5), seed, trials)
            imst_random.imst_solve(graph, budget, config)
    finally:
        tracer.uninstall()
    times, counts, _hit_ratio = tracer.metrics()
    assert counts["imst_random.trials"] > 0
    assert tracer.calls["imst_random.sample"] == counts["imst_random.trials"]
    assert times["imst_random.sample_ms"] > 0
