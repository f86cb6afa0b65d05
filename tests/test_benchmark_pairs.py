"""The verdict rule of ``python -m benchmarks.pairs``, on the runs
EXPERIMENTS.md "Block engine" prints (ten alternating pairs, seeds
20-29, ``host_us_per_call``; bound 25%), the workload choice and
summary of a multi-workload run, and the summary of
``python -m benchmarks.interleave``."""

import json

from benchmarks import interleave
from benchmarks.pairs import (ROOT, parse, quartiles, report, summary,
                              verdict, workloads)

MIX_TRAIN_PARENT = [17345.7, 16974.8, 17585.0, 17090.0, 16733.6,
                    17084.3, 16416.8, 17270.4, 16938.7, 17204.2]
MIX_TRAIN_CHANGE = [3844.8, 4151.6, 3790.9, 3783.2, 3941.2,
                    3851.7, 3909.2, 3913.8, 4092.4, 3854.6]
STORM_STOCK_PARENT = [54.3, 55.0, 56.5, 52.2, 51.4, 79.2, 72.4, 53.3,
                      54.9, 54.3]
STORM_STOCK_CHANGE = [56.7, 56.5, 55.8, 52.1, 51.6, 53.0, 55.3, 77.5,
                      53.9, 53.4]


def test_quartiles_are_the_published_ones():
    q1, median, q3 = quartiles(MIX_TRAIN_PARENT)
    assert (round(q1), round(median), round(q3)) == (16948, 17087, 17254)


def test_a_gain_in_every_pair_is_met():
    assert verdict(MIX_TRAIN_PARENT, MIX_TRAIN_CHANGE, "lower", 0.25) == "met"


def test_six_pairs_of_ten_resolve_nothing():
    assert verdict(STORM_STOCK_PARENT, STORM_STOCK_CHANGE, "lower",
                   0.25) == "no difference resolved"


def test_losses():
    assert verdict(MIX_TRAIN_CHANGE, MIX_TRAIN_PARENT, "lower",
                   0.25) == "worse"
    # peak_rss_mb of the same section: +5.8% in every pair, bound 10%.
    parent = [53.85, 53.87, 53.90, 53.86, 53.88, 53.84, 53.91, 53.87,
              53.89, 53.86]
    change = [value + 3.1 for value in parent]
    assert verdict(parent, change, "lower", 0.10) == "worse, inside the bound"
    assert verdict(parent, change, "higher", 0.10) == "met"


def test_a_spread_wider_than_the_bound_is_unresolved():
    parent = [10.0, 18.0, 11.0, 19.0, 10.5, 18.5, 11.5, 19.5, 10.2, 18.2]
    change = [18.0, 10.0, 19.0, 11.0, 18.5, 10.5, 19.5, 11.5, 18.2, 10.2]
    assert verdict(parent, change, "lower", 0.25) == "unresolved"


def test_ties_count_for_neither_side():
    parent = [10.0] * 10
    change = [10.0] * 9 + [9.0]
    assert verdict(parent, change, "lower", 0.25) == "no difference resolved"


BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_declared_workload_by_default():
    assert workloads(parse(["--parent", "HEAD"]), BENCHMARK) == [
        entry["name"] for entry in BENCHMARK["workloads"]]
    assert len(BENCHMARK["workloads"]) == 5


def test_workload_repeats_in_the_order_given():
    args = parse(["--parent", "HEAD", "--workload", "mix_train",
                  "--workload", "storm_full"])
    assert workloads(args, BENCHMARK) == ["mix_train", "storm_full"]


def _runs(host, model, failed=0):
    return [{"metrics": {"host_us_per_call": {"value": value},
                         "model_device_cycles": {"value": model}},
             "failed": failed, "attempted": 100} for value in host]


def test_summary_rows_and_status(capsys):
    benchmark = {"end_to_end": [
        {"name": "host_us_per_call", "unit": "us", "better": "lower",
         "bound": 0.25},
        {"name": "model_device_cycles", "unit": "cycles",
         "better": "lower", "bound": 0.02},
    ]}
    status, gained = report(benchmark, {
        "parent": _runs(MIX_TRAIN_PARENT, 7.0),
        "change": _runs(MIX_TRAIN_CHANGE, 7.0)})
    assert status == 0
    assert [(name, round(ratio, 3), won, said)
            for name, ratio, won, said in gained] == [
        ("host_us_per_call", 0.227, "10/10", "met"),
        ("model_device_cycles", 1.0, None, "identical")]
    status, lost = report(benchmark, {
        "parent": _runs(MIX_TRAIN_CHANGE, 7.0),
        "change": _runs(MIX_TRAIN_PARENT, 8.0)})
    assert status == 1
    assert [row[3] for row in lost] == ["worse", "differs"]
    capsys.readouterr()
    text = summary({"mix_train": gained, "storm_full": lost})
    lines = text.splitlines()
    assert len(lines) == 5
    assert lines[1].split() == ["mix_train", "host_us_per_call", "0.227",
                                "10/10", "met"]
    assert lines[2].split() == ["mix_train", "model_device_cycles",
                                "1.000", "-", "identical"]
    assert lines[3].split()[:2] == ["storm_full", "host_us_per_call"]
    assert lines[3].split()[-1] == "worse"


def test_interleave_summary_reads_the_ledger_estimator():
    """p25 is ``host_us_per_call``'s lower quartile, the same number
    ``quartiles`` gives as q1."""
    rows = interleave.summary(MIX_TRAIN_PARENT, MIX_TRAIN_CHANGE)
    assert list(rows) == ["parent", "change", "change/parent"]
    assert rows["parent"][0] == quartiles(MIX_TRAIN_PARENT)[0]
    assert [round(value, 2) for value in rows["parent"]] == [16947.73,
                                                             17087.15]
    assert [round(value, 2) for value in rows["change"]] == [3846.53,
                                                             3881.9]
    assert [round(value, 4) for value in rows["change/parent"]] == [
        0.227, 0.2272]
    lines = interleave.render(rows).splitlines()
    assert lines[1].split() == ["parent", "16947.73", "17087.15"]
    assert lines[3].split() == ["change/parent", "0.227", "0.227"]


def test_interleave_summary_of_one_round():
    rows = interleave.summary([40.0], [30.0])
    assert rows == {"parent": (40.0, 40.0), "change": (30.0, 30.0),
                    "change/parent": (0.75, 0.75)}
