import json
from pathlib import Path

import pytest

from netupgrade.cli import VERIFY_FIELDS, main
from netupgrade.serialization import instance_hash, parse

GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def gen_file(tmp_path, capsys, *extra):
    path = tmp_path / "inst.json"
    code, _out, _err = run(capsys, "gen", "--kind", "imst", "--n", "6",
                           "--m", "9", "--seed", "3", "--budget", "8",
                           "--out", str(path), *extra)
    assert code == 0
    return path


def test_gen_writes_canonical_file_and_hash(tmp_path, capsys):
    path = gen_file(tmp_path, capsys)
    code, out, _ = run(capsys, "gen", "--kind", "imst", "--n", "6", "--m", "9",
                       "--seed", "3", "--budget", "8", "--out", str(path))
    meta = json.loads(out)
    assert meta["hash"] == "289aa45b1d7e99d2"
    doc = json.loads(path.read_text())
    assert doc["kind"] == "imst" and len(doc["edges"]) == 9
    # without --out the document goes to stdout and its hash to stderr
    code, out, err = run(capsys, "gen", "--kind", "imst", "--n", "6", "--m", "9",
                         "--seed", "3", "--budget", "8")
    assert code == 0 and out == path.read_text()
    assert json.loads(err) == {"hash": instance_hash(parse(out.encode()))} == meta


def test_gen_knapsack_reports_known_optimum(tmp_path, capsys):
    path = tmp_path / "kp.json"
    code, out, _ = run(capsys, "gen", "--kind", "wildag", "--knapsack",
                       "3,4,5", "1,2,3", "--budget", "4", "--out", str(path))
    assert code == 0
    assert json.loads(out)["known_optimum"] == 8


def test_solve_outputs_json_result(tmp_path, capsys):
    path = gen_file(tmp_path, capsys)
    code, out, _ = run(capsys, "solve", "--algo", "exact-imst",
                       "--in", str(path), "--no-timing")
    assert code == 0
    doc = json.loads(out)
    assert doc["objective"] == 41 and doc["feasible"] is True
    assert doc["spend"] <= doc["budget"] == 8
    assert all(set(e) == {"id", "level"} for e in doc["edges"])


def test_solve_timing_flag(tmp_path, capsys):
    path = gen_file(tmp_path, capsys)
    _, with_t, _ = run(capsys, "solve", "--algo", "uimst", "--k", "2",
                       "--in", str(path))
    _, without_t, _ = run(capsys, "solve", "--algo", "uimst", "--k", "2",
                          "--in", str(path), "--no-timing")
    assert "wall_ms" in json.loads(with_t)
    assert "wall_ms" not in json.loads(without_t)


def test_solve_is_byte_deterministic_without_timing(tmp_path, capsys):
    path = gen_file(tmp_path, capsys)
    outs = set()
    for _ in range(3):
        _, out, _ = run(capsys, "solve", "--algo", "imst", "--in", str(path),
                        "--seed", "7", "--no-timing")
        outs.add(out)
    assert len(outs) == 1


def test_solve_budget_override(tmp_path, capsys):
    path = gen_file(tmp_path, capsys)
    _, out, _ = run(capsys, "solve", "--algo", "exact-imst", "--in", str(path),
                    "--budget", "0", "--no-timing")
    # zero-cost improvement levels remain available at budget 0
    assert json.loads(out)["objective"] == 24


def test_wildag_pipeline(tmp_path, capsys):
    path = tmp_path / "d.json"
    run(capsys, "gen", "--kind", "wildag", "--n", "7", "--m", "12",
        "--seed", "11", "--budget", "7", "--out", str(path))
    _, out, _ = run(capsys, "solve", "--algo", "wildag-exact",
                    "--in", str(path), "--no-timing")
    assert json.loads(out)["objective"] == 32
    _, out, _ = run(capsys, "solve", "--algo", "wildag-fptas",
                    "--epsilon", "0.3", "--in", str(path), "--no-timing")
    doc = json.loads(out)
    assert doc["objective"] >= (1 - 0.3) * 32 and doc["feasible"]


def test_exit_code_usage_errors(tmp_path, capsys):
    path = gen_file(tmp_path, capsys)
    assert run(capsys, "solve", "--algo", "nope", "--in", str(path))[0] == 2
    assert run(capsys, "solve", "--algo", "wildag-exact", "--in", str(path))[0] == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run(capsys, "solve", "--algo", "uimst", "--in", str(bad))[0] == 2
    missing = tmp_path / "missing.json"
    assert run(capsys, "solve", "--algo", "uimst", "--in", str(missing))[0] == 2
    assert run(capsys, "gen", "--kind", "imst", "--n", "6") == (
        2, "", "error: --n and --m are required without --knapsack\n")
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--algo", "twocost", "--in", str(path), "--epsilon", "abc"])
    assert exc.value.code == 2 and "not a number: 'abc'" in capsys.readouterr().err


def test_exit_code_oracle_guard(tmp_path, capsys):
    path = tmp_path / "big.json"
    run(capsys, "gen", "--kind", "imst", "--n", "12", "--m", "20",
        "--seed", "0", "--budget", "5", "--out", str(path))
    code, _, err = run(capsys, "solve", "--algo", "exact-imst", "--in", str(path))
    assert code == 4
    assert "oracle" in err


@pytest.mark.parametrize("algo, message", [
    ("exact-twocost", "no budget-feasible spanning tree exists"),
    ("exact-imst", "no spanning tree exists"),
])
def test_exit_code_infeasible(algo, message, tmp_path, capsys):
    path = gen_file(tmp_path, capsys)
    code, out, err = run(capsys, "solve", "--algo", algo, "--budget", "-1",
                         "--in", str(path))
    assert (code, out, err) == (3, "", f"infeasible: {message}\n")


@pytest.mark.parametrize("algo", ["twocost", "imst", "exact-twocost", "exact-imst"])
def test_negative_budget_is_infeasible_for_every_budgeted_tree_algo(algo, tmp_path, capsys):
    path = gen_file(tmp_path, capsys)
    code, out, err = run(capsys, "solve", "--algo", algo, "--budget", "-1",
                         "--in", str(path))
    assert (code, out) == (3, "")
    assert err.startswith("infeasible: ") and err.count("\n") == 1


def test_uimst_reports_a_spend_over_budget_as_infeasible(tmp_path, capsys):
    # uimst caps the upgrade count, not the spend: the budget only grades it
    path = tmp_path / "g5.json"
    assert run(capsys, "gen", "--kind", "imst", "--n", "5", "--m", "7", "--seed", "1",
               "--out", str(path))[0] == 0
    code, out, _ = run(capsys, "solve", "--algo", "uimst", "--k", "4", "--budget", "0",
                       "--no-timing", "--in", str(path))
    doc = json.loads(out)
    assert code == 0 and doc["spend"] > 0
    assert '"feasible":false' in out


def test_verify_emits_csv(capsys):
    code, out, _ = run(capsys, "verify", "--algo", "twocost", "--count", "2",
                       "--size", "5", "--seed", "11")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("instance,hash,algo,")
    assert len(lines) == 3
    assert all(line.endswith("True") for line in lines[1:])


def test_verify_unknown_algo(capsys):
    assert run(capsys, "verify", "--algo", "nope", "--count", "1")[0] == 2


@pytest.mark.parametrize("argv", [
    ("verify", "--algo", "nope", "--count", "1"),
    ("verify", "--algo", "nope", "--count", "0"),
    ("verify", "--algo", "exact-wisdag", "--count", "0"),
    ("bench", "--algo", "nope", "--sizes", "8"),
    ("bench", "--algo", "imst", "--sizes", ""),
])
def test_unsupported_algo_is_rejected_before_the_csv_header(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {argv[0]} does not support algorithm {argv[2]!r}\n"


@pytest.mark.parametrize("argv, message", [
    (("--algo", "twocost", "--epsilon", "0"), "eps must be positive"),
    (("--algo", "imst", "--epsilon", "2"), "epsilon must be in (0, 1)"),
    (("--algo", "uimst", "--size", "0"), "--size must be at least 1 for uimst"),
    (("--algo", "wildag-exact", "--size", "1"), "--size must be at least 2 for wildag-exact"),
])
def test_verify_rejects_a_solver_argument_before_the_csv_header(argv, message, capsys):
    code, out, err = run(capsys, "verify", *argv, "--count", "1")
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_bench_empty_sweep_is_header_only(capsys):
    code, out, _ = run(capsys, "bench", "--algo", "wildag-uniform",
                       "--sizes", "")
    assert code == 0
    assert out.strip() == "algo,n,m,W,epsilon,wall_ms,objective"


def test_bench_rows(capsys):
    code, out, _ = run(capsys, "bench", "--algo", "wildag-fptas",
                       "--sizes", "16", "--epsilons", "1/2,1/4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "wildag-fptas"


@pytest.mark.parametrize("algo, size", [
    ("uimst", "1"), ("twocost", "1"), ("imst", "1"), ("wildag-exact", "2"),
])
def test_verify_serves_the_smallest_size(algo, size, capsys):
    code, out, err = run(capsys, "verify", "--algo", algo, "--count", "1", "--size", size)
    header, row = out.splitlines()
    assert (code, err, header) == (0, "", ",".join(VERIFY_FIELDS))
    assert row.split(",")[3] == size and row.endswith(",True")


@pytest.mark.parametrize("argv, message", [
    (("--algo", "wildag-uniform", "--sizes", "1"), "--sizes must be at least 2 for wildag-uniform"),
    (("--algo", "wildag-fptas", "--sizes", "10", "--epsilons", "0"), "eps must be in (0, 1)"),
    (("--algo", "wildag-exact", "--sizes", "8,0"), "--sizes must be at least 2 for wildag-exact"),
])
def test_bench_rejects_a_solver_argument_before_the_header(argv, message, capsys):
    assert run(capsys, "bench", *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, bad", [
    (("--epsilons", "1/0"), "--epsilons: not a number: '1/0'"),
    (("--epsilons", "abc"), "--epsilons: not a number: 'abc'"),
    (("--sizes", "x"), "--sizes: not an integer: 'x'"),
])
def test_bench_rejects_a_bad_list_item_as_a_usage_error(argv, bad, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--algo", "wildag-fptas", *argv])
    out = capsys.readouterr()
    assert (exc.value.code, out.out) == (2, "")
    assert out.err.startswith("usage: ") and out.err.endswith(f"error: argument {bad}\n")


@pytest.mark.parametrize("algo, runs", [("uimst", 6), ("twocost", 1), ("imst", 20)])
def test_verify_grades_the_entry_solve_runs(algo, runs, capsys, monkeypatch):
    from netupgrade import cli
    from netupgrade.instances import TreeSolution

    calls = []

    def no_guarantee(graph, budget, opts):
        calls.append(opts)
        return TreeSolution({}, 0, 10 ** 9)  # too short for uimst, over budget for the rest

    monkeypatch.setitem(cli.TREE_ALGOS, algo, no_guarantee)
    code, out, err = run(capsys, "verify", "--algo", algo, "--count", "1", "--seed", "1")
    assert (code, err, len(calls)) == (0, "", runs)
    assert out.splitlines()[1].endswith(",False")


def test_verify_fails_a_uniform_path_that_overspends(capsys, monkeypatch):
    # the oracle's longest path, but spending one unit past the budget
    import dataclasses

    from netupgrade import cli, oracle

    def overspent(dag, budget, opts):
        path = oracle.exact_wildag(dag, budget)[1]
        return dataclasses.replace(path, total_spend=budget + 1)

    monkeypatch.setitem(cli.DAG_ALGOS, "wildag-uniform", overspent)
    code, out, err = run(capsys, "verify", "--algo", "wildag-uniform", "--count", "1",
                         "--seed", "1")
    assert (code, err) == (0, "")
    assert out.splitlines()[1].endswith(",False")


SHORTEST = ["wisdag-exact", "wisdag-fptas", "wisdag-uniform"]


@pytest.mark.parametrize("algo", SHORTEST)
def test_verify_grades_the_shortest_path_entries(algo, capsys):
    code, out, err = run(capsys, "verify", "--algo", algo, "--count", "12", "--size", "7",
                         "--seed", "5")
    rows = out.splitlines()[1:]
    assert (code, err, len(rows)) == (0, "", 12)
    assert all(f",{algo}," in row and row.endswith(",True") for row in rows)


@pytest.mark.parametrize("algo", SHORTEST)
@pytest.mark.parametrize("miss", ["longer", "overspent"])
def test_verify_fails_a_shortest_path_that_misses_its_guarantee(algo, miss, capsys, monkeypatch):
    # the oracle's shortest path, made longer than (1 + eps) * OPT or one unit over budget
    import dataclasses

    from netupgrade import cli, oracle

    def missed(dag, budget, opts):
        path = oracle.exact_wisdag(dag, budget)[1]
        if miss == "longer":
            return dataclasses.replace(path, total_length=2 * path.total_length + 1)
        return dataclasses.replace(path, total_spend=budget + 1)

    monkeypatch.setitem(cli.DAG_ALGOS, algo, missed)
    code, out, err = run(capsys, "verify", "--algo", algo, "--count", "1", "--seed", "1")
    assert (code, err) == (0, "")
    assert out.splitlines()[1].endswith(",False")


def test_verify_ratio_of_a_longer_path_to_a_zero_optimum_is_infinite(capsys, monkeypatch):
    # seed 7's shortest path has length 0; a path of length 1 is no 1.0 ratio
    import dataclasses

    from netupgrade import cli, oracle

    def longer(dag, budget, opts):
        path = oracle.exact_wisdag(dag, budget)[1]
        assert path.total_length == 0
        return dataclasses.replace(path, total_length=1)

    monkeypatch.setitem(cli.DAG_ALGOS, "wisdag-exact", longer)
    code, out, err = run(capsys, "verify", "--algo", "wisdag-exact", "--count", "1",
                         "--size", "7", "--seed", "7")
    assert (code, err) == (0, "")
    assert out.splitlines()[1].endswith(",0,0.0,inf,False")


def test_seed_env_default(tmp_path, capsys, monkeypatch):
    path = gen_file(tmp_path, capsys)
    argv = ["solve", "--algo", "uimst", "--k", "1", "--in", str(path), "--no-timing"]
    monkeypatch.setenv("NETUPGRADE_SEED", "99")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["seed"] == 99
    # the environment is read only when --seed is absent
    monkeypatch.setenv("NETUPGRADE_SEED", "abc")
    code, out, _ = run(capsys, *argv, "--seed", "3")
    assert code == 0 and json.loads(out)["seed"] == 3


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_imst_takes_a_delta_below_the_smallest_float(command, tmp_path, capsys):
    # 1e-400 parses as an exact rational; as a float it would be 0.0
    argv = (["solve", "--algo", "imst", "--in", str(gen_file(tmp_path, capsys)), "--no-timing"]
            if command == "solve" else ["verify", "--algo", "imst", "--count", "1", "--trials", "2"])
    code, out, err = run(capsys, *argv, "--delta", "1e-400")
    assert (code, err) == (0, "") and out


def test_oversized_vertex_count_exits_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "kind": "imst", "n": 10**30, "budget": 1,
        "edges": [{"id": 0, "u": 0, "v": 1, "ladder": [[1, 0]]}],
        "directed": False}))
    code, out, err = run(capsys, "solve", "--algo", "uimst", "--in", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "vertex count" in err


@pytest.mark.parametrize("exc", [OverflowError, MemoryError])
def test_oversized_input_errors_exit_2_without_traceback(exc, capsys, monkeypatch):
    from netupgrade import cli

    def boom(_args):
        raise exc()

    monkeypatch.setattr(cli, "cmd_solve", boom)
    code, _out, err = run(capsys, "solve", "--algo", "uimst", "--in", "x.json")
    assert code == 2
    assert err == f"error: input too large ({exc.__name__})\n"


# Runs whose error text differs from the golden file on purpose.  A uniform
# solver given unequal costs on a DAG that also fails validation in its
# direction reports the violations (the cost check comes after validation),
# and the path oracles validate before enumerating instead of failing inside
# their knapsack.
CHANGED_STDERR = {("up", "wisdag-uniform"), ("down", "wildag-uniform"),
                  ("up", "exact-wisdag"), ("down", "exact-wildag"),
                  ("equal", "exact-wisdag"), ("equal-down", "exact-wildag")}


def _golden_files(tmp_path) -> dict:
    paths = {}
    for name, doc in GOLDEN["instances"].items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(doc)
    return paths


def test_cli_output_matches_golden(tmp_path, capsys):
    """Every solve algorithm on a graph and on increasing, decreasing and
    equal-cost DAGs, plus every verify algorithm, print what the CLI printed
    before one algorithm table replaced its per-command dispatch
    (tests/data/cli_golden.json): the same exit code and stdout, and the same
    stderr outside CHANGED_STDERR."""
    paths = _golden_files(tmp_path)
    for case in GOLDEN["solve"]:
        code, out, err = run(capsys, "solve", "--in", str(paths[case["instance"]]),
                             *case["args"])
        assert (code, out) == (case["code"], case["out"]), case
        if (case["instance"], case["args"][1]) in CHANGED_STDERR:
            assert err.startswith("error: edge ") and err.count("\n") == 1, case
        else:
            assert err == case["err"], case
    for case in GOLDEN["verify"]:
        assert run(capsys, "verify", *case["args"]) == (
            case["code"], case["out"], case["err"]), case


@pytest.mark.parametrize("oracle_algo, solver_algo, instance", [
    ("exact-wildag", "wildag-exact", "down"),
    ("exact-wisdag", "wisdag-exact", "up"),
])
def test_path_oracle_reports_the_solvers_validation_error(
        oracle_algo, solver_algo, instance, tmp_path, capsys):
    path = str(_golden_files(tmp_path)[instance])
    expected = run(capsys, "solve", "--algo", solver_algo, "--in", path)
    assert expected[0] == 2 and "improved length" in expected[2]
    assert run(capsys, "solve", "--algo", oracle_algo, "--in", path) == expected


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_imst_rejects_nonpositive_trials_before_the_header(trials, capsys):
    code, out, err = run(capsys, "verify", "--algo", "imst", "--count", "1",
                         "--size", "4", "--trials", trials)
    assert (code, out, err) == (2, "", "error: --trials must be positive\n")


def test_verify_rejects_a_negative_count_before_the_header(capsys):
    assert run(capsys, "verify", "--algo", "uimst", "--count", "-1") == (
        2, "", "error: --count must be nonnegative\n")
    code, out, _err = run(capsys, "verify", "--algo", "uimst", "--count", "0")
    assert (code, out.splitlines()) == (0, [",".join(VERIFY_FIELDS)])


@pytest.mark.parametrize("cost", [0, 1])
@pytest.mark.parametrize("algo", ["wildag-uniform", "wisdag-uniform"])
def test_uniform_rejects_a_negative_budget_whatever_the_upgrade_cost(
        algo, cost, tmp_path, capsys):
    ladder = [[3, 0], [5, cost]] if algo == "wildag-uniform" else [[5, 0], [3, cost]]
    doc = {"kind": "wildag", "n": 3, "budget": 1,
           "edges": [{"id": 0, "u": 0, "v": 1, "ladder": ladder},
                     {"id": 1, "u": 1, "v": 2, "ladder": ladder}],
           "source": 0, "sink": 2, "directed": True}
    path = tmp_path / "free.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "solve", "--algo", algo, "--in", str(path),
               "--budget", "-1", "--no-timing") == (
        2, "", "error: improvement count must be nonnegative\n")
    code, out, _err = run(capsys, "solve", "--algo", algo, "--in", str(path),
                          "--budget", "0", "--no-timing")
    assert code == 0 and json.loads(out)["feasible"] is True


@pytest.mark.parametrize("data,message", [
    (b'\xff', "error: $: invalid UTF-8: "),
    (b'[' * 100_000, "error: $: invalid JSON: nested too deeply"),
], ids=["bad-utf8", "deep"])
def test_undecodable_input_exits_2_with_one_line(data, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    code, out, err = run(capsys, "solve", "--algo", "wildag-exact", "--in", str(path))
    assert code == 2 and out == ""
    assert err.startswith(message) and err.count("\n") == 1


def test_seed_default_follows_the_env_between_calls(tmp_path, capsys, monkeypatch):
    path = gen_file(tmp_path, capsys)
    seeds = []
    for value in ("5", "6"):
        monkeypatch.setenv("NETUPGRADE_SEED", value)
        code, out, _ = run(capsys, "solve", "--algo", "uimst", "--k", "1",
                           "--in", str(path), "--no-timing")
        assert code == 0
        seeds.append(json.loads(out)["seed"])
    assert seeds == [5, 6]


@pytest.mark.parametrize("value", ["abc", "", "1.5"])
def test_non_integer_seed_env_exits_2_with_one_line(value, tmp_path, capsys, monkeypatch):
    path = gen_file(tmp_path, capsys)
    monkeypatch.setenv("NETUPGRADE_SEED", value)
    code, out, err = run(capsys, "solve", "--algo", "uimst", "--k", "1", "--in", str(path))
    assert code == 2 and out == ""
    assert err == f"error: NETUPGRADE_SEED must be an integer, got {value!r}\n"


@pytest.mark.parametrize("algo,flag,message", [
    ("twocost", "--epsilon", "eps must be positive"),
    ("imst", "--epsilon", "epsilon must be in (0, 1)"),
    ("imst", "--delta", "delta must be in (0, 1)"),
    ("wildag-fptas", "--epsilon", "eps must be in (0, 1)"),
    ("wisdag-fptas", "--epsilon", "eps must be positive"),
])
def test_solve_passes_a_zero_epsilon_or_delta_to_the_solver(algo, flag, message,
                                                            tmp_path, capsys):
    # 0 is a given value, not a missing one: the solver's own check rejects it
    if algo in ("twocost", "imst"):
        path = gen_file(tmp_path, capsys)
    else:
        path = tmp_path / "d.json"
        assert run(capsys, "gen", "--kind", "wildag", "--n", "7", "--m", "12", "--seed",
                   "11", "--budget", "7", "--out", str(path))[0] == 0
    code, out, err = run(capsys, "solve", "--algo", algo, "--in", str(path),
                         flag, "0", "--no-timing")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("algo,flag,message", [
    ("twocost", "--epsilon", "eps must be positive"),
    ("imst", "--delta", "delta must be in (0, 1)"),
    ("wildag-fptas", "--epsilon", "eps must be in (0, 1)"),
])
def test_verify_passes_a_zero_epsilon_or_delta_to_the_solver(algo, flag, message, capsys):
    code, _out, err = run(capsys, "verify", "--algo", algo, "--count", "1",
                          "--size", "5", "--trials", "2", flag, "0")
    assert (code, err) == (2, f"error: {message}\n")


def _falling_graph_file(tmp_path):
    """The golden graph with every ladder's lengths reversed: a minimizing
    instance, whose upgrades never lengthen an edge."""
    doc = json.loads(GOLDEN["instances"]["graph"])
    for edge in doc["edges"]:
        lengths = [length for length, _cost in reversed(edge["ladder"])]
        edge["ladder"] = [[length, cost] for length, (_l, cost) in zip(lengths, edge["ladder"])]
    path = tmp_path / "falling.json"
    path.write_text(json.dumps(doc))
    return path


def test_uimst_rejects_a_falling_graph_with_one_line(tmp_path, capsys):
    path = _falling_graph_file(tmp_path)
    code, out, err = run(capsys, "solve", "--algo", "uimst", "--k", "2", "--in", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: edge ") and err.count("\n") == 1
    assert "ladder lengths not nondecreasing" in err


@pytest.mark.parametrize("argv", [
    ["--algo", "imst", "--minimize"],
    ["--algo", "twocost"],
    ["--algo", "exact-imst"],
    ["--algo", "exact-twocost"],
])
def test_a_falling_graph_solves_where_either_direction_is_read(argv, tmp_path, capsys):
    code, out, err = run(capsys, "solve", "--in", str(_falling_graph_file(tmp_path)),
                         *argv, "--no-timing")
    assert (code, err) == (0, "") and json.loads(out)["feasible"] is True


def test_minimize_rejects_the_rising_golden_graph(tmp_path, capsys):
    path = _golden_files(tmp_path)["graph"]
    code, out, err = run(capsys, "solve", "--algo", "imst", "--minimize", "--in", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: edge ") and err.count("\n") == 1
    assert "ladder lengths not nonincreasing" in err
