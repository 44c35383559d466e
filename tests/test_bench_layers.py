"""The schedule of tools/bench_layers.py, with its measuring child stubbed out."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_layers.py"


@pytest.fixture
def tool(monkeypatch):
    """The tool as a module, its child runner replaced by a stub that
    records (tree, layer) and returns a time and, off start-up, a page
    fault count that grow with each call of the layer (counted per layer,
    so that the paired ratios of the last layers stay clear of 1 at three
    decimals)."""
    spec = importlib.util.spec_from_file_location("bench_layers", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.calls = []

    def child(src, cwd, op, n, *args):
        layer = (op, n, *args)
        module.calls.append((src.parent.name, layer))
        k = sum(call[1] == layer for call in module.calls)
        result = {"s": 0.01 * k, "maxrss_mib": 1.0}
        if op != "startup":
            result["minflt"] = 100 * k
        return result

    monkeypatch.setattr(module, "_child", child)
    return module


def _tree(root: Path, name: str) -> str:
    (root / name / "src" / "reinhardt").mkdir(parents=True)
    (root / name / "src" / "reinhardt" / "__init__.py").write_text("x = 1\n")
    return f"{name}={root / name}"


def _layers(calls):
    """The calls grouped by layer, in the order the layers ran."""
    layers: dict = {}
    for tree, layer in calls:
        layers.setdefault(layer, []).append(tree)
    return layers


def _layer_count(tool, sizes):
    return (
        len(sizes) + 2 * len(tool.SAVE_LOAD_N) + len(tool.SETS_N) + len(tool.SET_N)
        + len(tool.TABLE_WINDOWS) + len(tool.SEQUENCE) + len(tool.MEMBERSHIP) + len(tool.REACH)
        + len(tool.CLASSIFY_BASE) + len(tool.CLASSIFY) + len(tool.ENUMERATION) * len(tool.ENUMERATION_N)
        + len(tool.SUITES) + 2 + len(tool.STARTUP_ARGV)
    )


def test_two_trees_get_rounds_children_per_layer(tool, tmp_path):
    out = tmp_path / "out.json"
    tool.main(["--tree", _tree(tmp_path, "a"), "--tree", _tree(tmp_path, "b"),
               "--out", str(out), "--sizes", "1000", "2000"])
    layers = _layers(tool.calls)
    assert len(layers) == _layer_count(tool, [1000, 2000])
    for trees in layers.values():
        assert sorted(trees) == ["a"] * tool.ROUNDS + ["b"] * tool.ROUNDS
    runs = json.loads(out.read_text())["runs"]
    assert set(runs) == {"a", "b"}
    assert runs["a"]["interleaved_with"] == ["b"]
    assert runs["a"]["rounds"] == tool.ROUNDS
    assert set(runs["b"]["build_table"]) == {"1000", "2000"}
    assert set(runs["b"]["set_command"]) == {str(n) for n in tool.SET_N}
    assert set(runs["b"]["sets"]) == {str(n) for n in tool.SETS_N}
    assert set(runs["b"]["classify_base"]) == {f"{n}, {dim}" for n, dim in tool.CLASSIFY_BASE}
    assert set(runs["b"]["reach"]) == {str(10**30), str(10**100)}
    assert {f"{10**100}, {10**200 - 2}", f"{10**30}, {10**60 - 4}"} <= set(runs["b"]["classify"])
    assert "set_on_demand" not in runs["b"]
    assert set(runs["b"]["table_command"]) == {f"{a}..{b}" for a, b in tool.TABLE_WINDOWS}
    assert {"100000..100001", "1000000..1000001"} <= set(runs["b"]["table_command"])
    assert set(runs["b"]["sequence_command"]) == {f"{n} {fmt}" for n, fmt in tool.SEQUENCE}
    assert {"1004 csv", "100000 json", "1000000 csv", "1000000 json"} <= set(
        runs["b"]["sequence_command"]
    )
    assert len(runs["b"]["startup"]) == 2 + len(tool.STARTUP_ARGV)
    # the stub's times grow with each call, so the tree that goes second
    # in a round reads higher: b reads lower in the rounds it leads
    for section in ("build_table", "startup"):
        for layer in runs["b"][section].values():
            ratio = layer["ratio"]
            assert ratio["lower_in"] == tool.ROUNDS // 2
            assert ratio["quartiles"][0] < 1 < ratio["quartiles"][1]
            assert 0.95 < ratio["median"] < 1.05
        assert all("ratio" not in layer for layer in runs["a"][section].values())
    assert "minflt" in runs["a"]["build_table"]["1000"]
    assert all("minflt" not in layer for layer in runs["a"]["startup"].values())


def test_each_tree_goes_first_in_half_the_rounds(tool, tmp_path):
    tool.main(["--tree", _tree(tmp_path, "a"), "--tree", _tree(tmp_path, "b"),
               "--out", str(tmp_path / "out.json"), "--sizes", "1000"])
    for trees in _layers(tool.calls).values():
        rounds = [trees[i : i + 2] for i in range(0, len(trees), 2)]
        assert all(sorted(pair) == ["a", "b"] for pair in rounds)
        assert [pair[0] for pair in rounds].count("a") == tool.ROUNDS // 2


def test_a_refused_command_records_no_time(tool, tmp_path, monkeypatch):
    # tree a refuses `sequence --max-n 10^6`, as a tree with a row limit does
    timed = tool._child

    def child(src, cwd, op, n, *args):
        result = timed(src, cwd, op, n, *args)
        if src.parent.name == "a" and op == "cli_sequence" and n == 10**6:
            return result | {"s": None, "exit": 1, "refused": "error: rows stop"}
        return result

    monkeypatch.setattr(tool, "_child", child)
    out = tmp_path / "out.json"
    tool.main(["--tree", _tree(tmp_path, "a"), "--tree", _tree(tmp_path, "b"),
               "--out", str(out), "--sizes", "1000"])
    layers = json.loads(out.read_text())["runs"]
    for fmt in ("csv", "json"):
        a, b = (layers[t]["sequence_command"][f"1000000 {fmt}"] for t in "ab")
        assert a["refused"] == "error: rows stop" and a["s"] is None
        assert "s_quartiles" not in a and a["maxrss_mib"] == 1.0
        assert b["s"] > 0 and "ratio" not in b
    assert "ratio" in layers["b"]["sequence_command"]["100000 csv"]


def test_one_tree_writes_its_label_and_keeps_other_runs(tool, tmp_path):
    out = tmp_path / "out.json"
    out.write_text(json.dumps({"runs": {"old": {"src_lines": 1}}}))
    tool.main(["--tree", _tree(tmp_path, "only"), "--out", str(out), "--sizes", "1000"])
    layers = _layers(tool.calls)
    assert len(layers) == _layer_count(tool, [1000])
    assert all(trees == ["only"] * tool.ROUNDS for trees in layers.values())
    runs = json.loads(out.read_text())["runs"]
    assert runs["old"] == {"src_lines": 1}
    assert runs["only"]["interleaved_with"] == []
    assert runs["only"]["src_lines"] == 1
    # the stub's times for build_table(1000) are 0.01 .. 0.01 * ROUNDS
    build = runs["only"]["build_table"]["1000"]
    assert build["s"] == round(0.01 * (tool.ROUNDS + 1) / 2, 4)
    assert build["s_quartiles"][0] < build["s"] < build["s_quartiles"][1]
    assert build["minflt"] == round(100 * (tool.ROUNDS + 1) / 2) and "ratio" not in build


def _real_child(tmp_path, op, n, *args):
    """The real measuring child, not the stub, run against this tree."""
    spec = importlib.util.spec_from_file_location("bench_layers_real", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    src = (TOOL.parents[1] / "src").resolve()
    return module._child(src, str(tmp_path), op, n, *args)


def test_the_set_command_child_runs_against_a_tree(tmp_path):
    # `set` in-process, caches cleared
    result = _real_child(tmp_path, "cli_set", 30)
    assert result["exit"] == 0 and result["s"] > 0 and result["maxrss_mib"] > 0


def test_the_table_command_child_runs_against_a_tree(tmp_path):
    # `table --min-n 2 --max-n 30 --cache t.rdim --force` in-process: this tree
    # reads no cache, so the file is never made
    result = _real_child(tmp_path, "cli_table", 30, "2", "t.rdim")
    assert result["exit"] == 0 and result["s"] > 0 and result["maxrss_mib"] > 0
    assert list(tmp_path.iterdir()) == []


def test_the_sequence_command_child_runs_against_a_tree(tmp_path):
    # `sequence --max-n 30` in-process, in each format
    for fmt in ("csv", "json"):
        result = _real_child(tmp_path, "cli_sequence", 30, fmt)
        assert result["exit"] == 0 and result["s"] > 0 and result["maxrss_mib"] > 0
    # one it refuses gives the error and no time
    result = _real_child(tmp_path, "cli_sequence", 0, "csv")
    assert result["exit"] == 1 and result["s"] is None
    assert result["refused"] == "error: max_n must be positive, got 0"


def test_the_sets_and_base_children_run_against_a_tree(tmp_path):
    # sets[n] above K = 52 of a built n_max = 100 table: n = 53, 62, ..., 98;
    # and classify's base at n = 80, where 80^2 - 2 is unrealizable
    result = _real_child(tmp_path, "sets", 100)
    assert result["sets"] == 6 and result["s"] > 0 and result["maxrss_mib"] > 0
    result = _real_child(tmp_path, "base", 80, "6398")
    assert result["status"] == "unrealizable" and result["s"] > 0


def test_the_reach_and_classify_children_run_against_a_tree(tmp_path):
    # cold reach(10^30) with its memo; classify at 10^30 and one it refuses
    result = _real_child(tmp_path, "reach", 10**30)
    assert result["s"] > 0 and 0 < result["memo"] < 1000
    result = _real_child(tmp_path, "classify", 10**30, str(10**60 - 2))
    assert (result["exit"], result["answer"]) == (0, "status,unrealizable") and result["s"] > 0
    result = _real_child(tmp_path, "classify", 1, "3")
    assert result["exit"] == 1 and result["s"] is None and "answer" not in result
    assert result["refused"] == "error: classification needs n >= 2, got 1"


def test_the_suite_child_runs_a_suite_with_or_without_n_lo(tmp_path):
    # a report-only suite over 2..30, and the growth suite over 0..30
    for op, args in (("verify_noncompact_growth", ("2",)), ("verify_growth_sequence", ())):
        result = _real_child(tmp_path, op, 30, *args)
        assert result["s"] > 0 and result["maxrss_mib"] > 0
