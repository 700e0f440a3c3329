import importlib.util
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

COMMAND = ["perfbench/run.py", "--seconds", "35"]


def summary(parent, change, better="lower"):
    """bench_pairs' summary of one metric "m" (bound 0.25) over pairs of these values."""
    pairs = [{"parent": {"metrics": {"m": {"value": p}}}, "change": {"metrics": {"m": {"value": c}}}}
             for p, c in zip(parent, change)]
    spec = [{"name": "m", "unit": "ms", "better": better, "bound": 0.25}]
    return bench_pairs.summarize(pairs, spec)["m"]


def test_ties_count_for_neither_side_and_higher_flips_the_direction():
    parent, change = [2.0, 2.0, 2.0, 2.0], [1.0, 1.0, 3.0, 2.0]
    assert summary(parent, change)["change_wins"] == 2
    assert summary(parent, change, better="higher")["change_wins"] == 1


PARENT = [10.0 + 0.2 * k for k in range(10)]  # quartiles 10.45 and 11.35, 0.9 apart


@pytest.mark.parametrize("change, wins, wide", [
    ([p - 1.0 for p in PARENT], 10, True),
    ([p - 5.0 for p in PARENT[:9]] + [PARENT[9] + 0.1], 9, True),
    ([p - 5.0 for p in PARENT[:8]] + [p + 0.1 for p in PARENT[8:]], 8, True),
    ([p - 0.5 for p in PARENT], 10, False),
])
def test_gain_rule_needs_nine_tenths_won_and_a_gap_wider_than_the_parents_iqr(change, wins, wide):
    s = summary(PARENT, change)
    q1, median, q3 = s["parent_q1_median_q3"]
    assert s["change_wins"] == wins
    assert (median - s["change_q1_median_q3"][1] > q3 - q1) == wide
    assert s["gain_rule_met"] == (wins >= 9 and wide)


@pytest.mark.parametrize("better, at_bound, past_bound", [
    ("lower", 1.25, 1.2501),
    ("higher", 0.75, 0.7499),
])
def test_worse_than_bound_trips_just_past_the_bound(better, at_bound, past_bound):
    parent = [1.0] * 4
    assert not summary(parent, [at_bound] * 4, better)["worse_than_bound"]
    assert summary(parent, [past_bound] * 4, better)["worse_than_bound"]


def test_progress_line_gives_each_metrics_relative_change():
    names = ["setup_s", "wall_s", "peak_rss_mb", "lqa_step_ms", "sgd_step_ms", "adam_step_ms"]
    spec = [{"name": n, "unit": "ms", "better": "lower", "bound": 0.25} for n in names]
    parent = dict(zip(names, [0.04, 12.0, 100.0, 30.0, 16.0, 0.0]))
    change = dict(zip(names, [0.02, 12.3, 100.1, 30.0, 15.2, 1.0]))
    pair = {"seed": 903, "first": "change"}
    for side, values in (("parent", parent), ("change", change)):
        pair[side] = {"metrics": {n: {"value": v} for n, v in values.items()}}
    assert bench_pairs.progress_line("mlp-mnist", pair, spec) == (
        "mlp-mnist seed 903: setup_s -50.0% wall_s +2.5% peak_rss_mb +0.1% "
        "lqa_step_ms +0.0% sgd_step_ms -5.0% adam_step_ms n/a")


def stub_tree(tmp_path, body):
    tree = tmp_path / "parent"
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(body)
    return str(tree)


def test_run_side_returns_the_result_and_env_line(tmp_path):
    tree = stub_tree(tmp_path, "print('env: numpy x')\nprint('{\"workload\": \"mlp-mnist\"}')\n")
    result, env = bench_pairs.run_side(tree, COMMAND, "mlp-mnist", 901)
    assert result == {"workload": "mlp-mnist"} and env == "env: numpy x"


def test_a_failed_side_ends_with_its_stderr(tmp_path):
    tree = stub_tree(tmp_path, (
        "import sys\n"
        "print('run failed: lqa seed 901: diverged', file=sys.stderr)\n"
        "raise SystemExit('no round finished without a failed run')\n"
    ))
    with pytest.raises(SystemExit) as exc:
        bench_pairs.run_side(tree, COMMAND, "mlp-mnist", 901, trace=1)
    msg = str(exc.value)
    assert msg.startswith("error: parent side, mlp-mnist seed 901: perfbench exited with status 1\n")
    assert "run failed: lqa seed 901: diverged\nno round finished without a failed run" in msg


def test_run_counts_sum_each_sides_failed_and_attempted_runs_over_the_pairs(tmp_path):
    # the stub's result reads its counts off the seed: seed 902 failed 2 of 23 runs
    tree = stub_tree(tmp_path, (
        "import json, sys\n"
        "seed = int(sys.argv[sys.argv.index('--seed') + 1])\n"
        "print('env: numpy x')\n"
        "print(json.dumps({'correct': seed != 902, 'attempted': 21 + seed - 900, 'failed': 2 * (seed == 902)}))\n"
    ))
    pairs = []
    for parent_seed, change_seed in ((901, 902), (902, 903)):
        pairs.append({"parent": bench_pairs.run_side(tree, COMMAND, "mlp-mnist", parent_seed)[0],
                      "change": bench_pairs.run_side(tree, COMMAND, "mlp-mnist", change_seed)[0]})
    counts = bench_pairs.run_counts(pairs)
    assert counts == {"parent": {"failed": 2, "attempted": 22 + 23, "not_correct": 1},
                      "change": {"failed": 2, "attempted": 23 + 24, "not_correct": 1}}
    assert bench_pairs.counts_line("mlp-mnist", counts) == (
        "mlp-mnist runs: parent failed 2/45, 1 pairs not correct; change failed 2/47, 1 pairs not correct")
