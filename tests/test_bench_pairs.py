"""scripts/bench_pairs.py: the pair summary, and one short run of two trees."""
import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_summary_counts_wins_ties_and_the_parent_spread():
    got = bench_pairs.summarize("lower", [4.0, 2.0, 3.0, 5.0, 1.0], [3.0, 2.0, 1.0, 6.0, 0.5])
    assert (got["change_wins"], got["ties"], got["pairs"]) == (3, 1, 5)
    assert got["parent"] == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert got["parent_iqr"] == 2.0
    assert got["median_change_rel"] == (2.0 - 3.0) / 3.0
    assert bench_pairs.summarize("higher", [1.0, 2.0], [2.0, 1.0])["change_wins"] == 1


def test_a_tree_against_itself_gives_equal_digests():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    trees = {"parent": str(ROOT), "change": str(ROOT)}
    run = bench_pairs.run_workload(trees, "exact_roundtrip", 2, 0.01, better)
    assert (run["seeds"], run["first"], run["digests_equal"]) == \
        ([101, 102], ["parent", "change"], True)
    assert run["failed_prefix"]["parent"] == run["failed_prefix"]["change"]
    assert sorted(run["metrics"]) == sorted(better)
    assert run["metrics"]["ok_share"]["parent_runs"] == run["metrics"]["ok_share"]["change_runs"]
