"""The A/B script ``tools/ab_bench.py``: its reading of ``perfbench/run.py``'s
result line, its no-regression verdicts and the shape of the file it
writes.  The script is loaded from its path and never run here; a run
times two checkouts for minutes."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("ab_bench", ROOT / "tools" / "ab_bench.py")
ab_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_bench)

# what run.py prints for one timed run: progress lines, then one JSON line
RUN_OUTPUT = """\
  eval texture=3 0.245 s rss=28.9 MiB
  eval_s                                                       0.245006 s
{"correct": true, "attempted": 12, "failed": 0, "metrics": {\
"eval_s": {"value": 0.245006, "unit": "s"}, \
"blocks_per_s": {"value": 391.827, "unit": "blocks/s"}, \
"setup_s": {"value": 0.183525, "unit": "s"}, \
"peak_rss_mb": {"value": 28.90625, "unit": "MiB"}, \
"output_match_frac": {"value": 1.0, "unit": "fraction"}}}
"""


def end_to_end():
    return json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def test_parse_run_reads_the_last_line():
    run = ab_bench.parse_run(RUN_OUTPUT)
    assert (run["correct"], run["attempted"], run["failed"]) == (True, 12, 0)
    assert run["metrics"] == {"eval_s": 0.245006, "blocks_per_s": 391.827, "setup_s": 0.183525,
                              "peak_rss_mb": 28.90625, "output_match_frac": 1.0}
    # every end-to-end metric of the benchmark is one run.py reports
    assert set(run["metrics"]) == {m["name"] for m in end_to_end()}


@pytest.mark.parametrize("stdout", ["", "perfbench: no sources\n", '{"correct": true}\n',
                                    "[1, 2]\n"])
def test_parse_run_rejects_other_output(stdout):
    with pytest.raises(ValueError):
        ab_bench.parse_run(stdout)


def pair(seed, base_eval, head_eval):
    def run(eval_s):
        out = ab_bench.parse_run(RUN_OUTPUT)
        out["metrics"]["eval_s"] = eval_s
        return {**out, "rc": 0}

    return {"seed": seed, "first": "base" if seed % 2 else "head",
            "base": run(base_eval), "head": run(head_eval)}


def test_report_schema():
    pairs = [pair(1, 0.50, 0.40), pair(2, 0.40, 0.45), pair(3, 0.60, 0.30), pair(4, 0.30, 0.30)]
    out = ab_bench.report({"base": "a" * 40, "head": "b" * 40}, {"pairs": 4},
                          {"large-blocks": pairs}, end_to_end(), {"nproc": 2})
    assert set(out) == {"commits", "settings", "machine", "workloads"}
    json.dumps(out)  # the file is JSON
    w = out["workloads"]["large-blocks"]
    assert w["pairs"] == pairs
    assert w["failed_runs"] == {"base": 0, "head": 0}
    assert set(w["summary"]) == {m["name"] for m in end_to_end()}
    ev = w["summary"]["eval_s"]
    assert set(ev) == {"better", "base", "head", "change_frac", "head_wins", "base_wins", "pairs",
                       "bound", "verdict"}
    assert (ev["bound"], ev["verdict"]) == (0.24, "unresolved")  # base IQR 0.15 s, median 0.45 s
    assert set(ev["base"]) == {"median", "q1", "q3", "iqr", "n"}
    assert (ev["base"]["median"], ev["head"]["median"]) == (pytest.approx(0.45), 0.35)
    assert ev["base"]["iqr"] == pytest.approx(ev["base"]["q3"] - ev["base"]["q1"])
    assert ev["change_frac"] == pytest.approx(0.35 / 0.45 - 1)
    # lower is better: the head wins seeds 1 and 3, the base seed 2, seed 4 ties
    assert (ev["head_wins"], ev["base_wins"], ev["pairs"]) == (2, 1, 4)
    # higher is better: equal values win nothing
    assert w["summary"]["output_match_frac"]["head_wins"] == 0


def test_a_metric_one_run_lacks_is_left_out_of_that_pair():
    pairs = [pair(1, 0.5, 0.4), pair(2, 0.5, 0.4)]
    del pairs[1]["head"]["metrics"]["eval_s"]  # a failed eval reports no eval_s
    ev = ab_bench.summarize(pairs, end_to_end())["eval_s"]
    assert ev["pairs"] == 1 and ev["base"] == {"median": 0.5, "q1": 0.5, "q3": 0.5, "iqr": 0.0,
                                                "n": 1}


@pytest.mark.parametrize("how", ["crash", "no result", "wrong output", "failed eval"])
def test_a_failing_run_is_counted_for_its_tree(how):
    pairs = [pair(1, 0.5, 0.4), pair(2, 0.5, 0.4), pair(3, 0.5, 0.4)]
    run = pairs[1]["head"]
    if how == "crash":
        run["rc"] = 1
    elif how == "no result":  # what run_tree keeps of unparseable output
        pairs[1]["head"] = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}, "rc": 0}
    elif how == "wrong output":
        run["correct"] = False
    else:
        run["failed"] = 1
    w = ab_bench.report({}, {}, {"large-blocks": pairs}, end_to_end(), {})["workloads"][
        "large-blocks"]
    assert w["failed_runs"] == {"base": 0, "head": 1}
    if how == "no result":  # the summary alone would show a clean 2/2
        assert (w["summary"]["eval_s"]["head_wins"], w["summary"]["eval_s"]["pairs"]) == (2, 2)


def test_each_ab_is_appended_to_the_file(tmp_path):
    out = tmp_path / "ab.json"
    first = ab_bench.report({"base": "a", "head": "b"}, {}, {"large-blocks": [pair(1, 0.5, 0.4)]},
                            end_to_end(), {})
    second = ab_bench.report({"base": "a", "head": "c"}, {}, {"small-blocks": [pair(1, 0.3, 0.2)]},
                             end_to_end(), {})
    ab_bench.append_report(out, first)
    ab_bench.append_report(out, second)
    assert json.loads(out.read_text()) == {"runs": [first, second]}


def test_trees_unpack_to_paths_of_equal_length():
    assert len({len(name) for name in ab_bench.TREES}) == 1


# (base runs, head runs, better, bound, verdict); bounds are fractions of
# the base median, so 0.24 of a 0.5 s median allows 0.12 s
VERDICTS = [
    ([0.50, 0.49, 0.51, 0.50], [0.52, 0.53, 0.51, 0.52], "lower", 0.24, "no worse"),
    ([0.50, 0.49, 0.51, 0.50], [0.62, 0.61, 0.63, 0.62], "lower", 0.24, "no worse"),
    ([0.50, 0.49, 0.51, 0.50], [0.63, 0.62, 0.64, 0.63], "lower", 0.24, "worse"),
    ([0.50, 0.49, 0.51, 0.50], [0.40, 0.38, 0.41, 0.39], "lower", 0.24, "no worse"),
    # the base's IQR (0.3 s) exceeds 0.24 of its 0.6 s median
    ([0.30, 0.50, 0.70, 0.90], [0.31, 0.49, 0.72, 0.88], "lower", 0.24, "unresolved"),
    ([0.30, 0.50, 0.70, 0.90], [0.90, 1.00, 1.10, 1.20], "lower", 0.24, "unresolved"),
    # ... unless every head run beats every base run
    ([0.30, 0.50, 0.70, 0.90], [0.20, 0.25, 0.28, 0.29], "lower", 0.24, "no worse"),
    ([0.30, 0.50, 0.70, 0.90], [0.20, 0.25, 0.28, 0.30], "lower", 0.24, "unresolved"),
    ([400.0, 410.0, 390.0, 400.0], [300.0, 310.0, 290.0, 300.0], "higher", 0.24, "worse"),
    ([400.0, 410.0, 390.0, 400.0], [320.0, 330.0, 310.0, 320.0], "higher", 0.24, "no worse"),
    ([100.0, 300.0, 500.0, 700.0], [710.0, 800.0, 900.0, 990.0], "higher", 0.24, "no worse"),
    ([31.60, 31.55, 31.62, 31.58], [31.78, 31.80, 31.75, 31.79], "lower", 0.1, "no worse"),
    ([31.60, 31.55, 31.62, 31.58], [34.90, 34.95, 34.80, 34.85], "lower", 0.1, "worse"),
    ([1.0] * 4, [1.0] * 4, "higher", 0.01, "no worse"),
    ([1.0] * 4, [1.0, 1.0, 0.9, 0.9], "higher", 0.01, "worse"),
    ([0.5], [0.7], "lower", 0.24, "worse"),
]


@pytest.mark.parametrize("base,head,way,bound,want", VERDICTS)
def test_verdict_on_canned_runs(base, head, way, bound, want):
    assert ab_bench.verdict(base, head, way, bound) == want


def test_each_metric_gets_its_bound_and_verdict():
    # eval_s worse by 40% on steady runs; every other metric equal
    pairs = [pair(seed, 0.50, 0.70) for seed in range(1, 5)]
    summary = ab_bench.summarize(pairs, end_to_end())
    assert {name: m["bound"] for name, m in summary.items()} == {
        m["name"]: m["bound"] for m in end_to_end()}
    assert {name: m["verdict"] for name, m in summary.items()} == {
        "eval_s": "worse", "blocks_per_s": "no worse", "setup_s": "no worse",
        "peak_rss_mb": "no worse", "output_match_frac": "no worse"}
