"""tools/ledger.py: parsing perfbench output and merging runs into a ledger."""
import importlib.util
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

END_TO_END = [{"name": "throughput_sps", "better": "higher"},
              {"name": "batch_ms.p50", "better": "lower"}]


@pytest.fixture(scope="module")
def ledger():
    """tools/ledger.py, imported without writing bytecode beside it."""
    spec = importlib.util.spec_from_file_location(
        "tools_ledger", os.path.join(ROOT, "tools", "ledger.py"))
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def canned_output(sps, p50, digest="abc123", sha="f00d"):
    """The lines of one untraced perfbench run that the ledger reads."""
    env = {"numpy": "2.4.6", "git_sha": sha, "load_1m_at_start": 0.5}
    final = {"correct": True, "attempted": 10, "failed": 0,
             "metrics": {"throughput_sps": {"value": sps, "unit": "1/s"},
                         "batch_ms.p50": {"value": p50, "unit": "ms"}}}
    return "\n".join([
        "perfbench eval-desk seed=1 seconds=30 trace=0",
        "environment " + json.dumps(env),
        f"  throughput_sps {sps} 1/s",
        "detail {}", "notes {}", f"digest {digest}", json.dumps(final)])


def run(ledger, checkout, seed, sps, p50, **kw):
    record = ledger.parse_run(canned_output(sps, p50, **kw))
    record.update(workload="eval-desk", checkout=checkout, seed=seed)
    return record


def test_parse_keeps_environment_digest_and_metrics(ledger):
    record = ledger.parse_run(canned_output(2000.0, 9.5, digest="0e79", sha="beef"))
    assert record["environment"]["git_sha"] == "beef"
    assert record["digest"] == "0e79"
    assert record["metrics"] == {"throughput_sps": 2000.0, "batch_ms.p50": 9.5}
    assert (record["correct"], record["attempted"], record["failed"]) == (True, 10, 0)


def test_merge_gives_quartiles_and_seed_paired_wins(ledger):
    base_sps = [100.0, 110.0, 120.0, 130.0, 140.0]
    change_sps = [150.0, 105.0, 160.0, 170.0, 180.0]  # seed 2 loses
    runs = []
    for seed, (b, c) in enumerate(zip(base_sps, change_sps), start=1):
        runs += [run(ledger, "parent", seed, b, 10.0), run(ledger, "change", seed, c, 8.0)]
    runs.append({"workload": "eval-desk", "checkout": "change", "seed": 6, "error": "exit 1"})
    merged = ledger.merge(runs, ["parent", "change"], END_TO_END)["eval-desk"]

    parent = merged["checkouts"]["parent"]
    assert parent["runs"] == 5 and parent["failed_runs"] == 0
    assert parent["metrics"]["throughput_sps"] == {"median": 120.0, "q1": 110.0,
                                                   "q3": 130.0, "n": 5}
    change = merged["checkouts"]["change"]
    assert change["runs"] == 6 and change["failed_runs"] == 1
    assert change["metrics"]["throughput_sps"]["n"] == 5

    sps = merged["pairs"]["throughput_sps"]  # seed 6 failed on the change side: a loss
    assert (sps["pairs"], sps["wins"], sps["losses"], sps["ties"]) == (6, 4, 2, 0)
    assert sps["median_gap"] == 40.0 and sps["base_iqr"] == 20.0
    assert not sps["gain_shown"]  # 4/6 is under nine tenths
    p50 = merged["pairs"]["batch_ms.p50"]  # lower is better: seeds 1-5 won, seed 6 lost
    assert (p50["pairs"], p50["wins"], p50["losses"]) == (6, 5, 1)
    assert (p50["median_gap"], p50["base_iqr"]) == (-2.0, 0.0)
    assert not p50["gain_shown"]
    assert merged["digests_equal"] is False  # seed 6 failed on one side only
    # a ratio for each seed both sides measured; none for the failed seed 6
    assert sps["ratios"] == {str(s): c / b for s, (b, c)
                             in enumerate(zip(base_sps, change_sps), start=1)}
    assert p50["ratios"] == {str(s): 0.8 for s in range(1, 6)}


def test_change_side_failures_block_a_gain(ledger):
    """Winning every measured pair shows no gain while the change fails more seeds."""
    runs = []
    for seed in range(1, 21):
        runs.append(run(ledger, "parent", seed, 100.0 + seed % 3, 10.0))
        if seed == 20:  # 19/20 pairs won would pass nine tenths on its own
            runs.append({"workload": "eval-desk", "checkout": "change", "seed": seed,
                         "error": "exit 1"})
        else:
            runs.append(run(ledger, "change", seed, 200.0, 5.0))
    pairs = ledger.merge(runs, ["parent", "change"], END_TO_END)["eval-desk"]["pairs"]
    sps = pairs["throughput_sps"]
    assert (sps["pairs"], sps["wins"], sps["losses"]) == (20, 19, 1)
    assert not sps["gain_shown"]

    runs.append({"workload": "eval-desk", "checkout": "parent", "seed": 21, "error": "exit 1"})
    runs.append(run(ledger, "change", 21, 200.0, 5.0))
    sps = ledger.merge(runs, ["parent", "change"], END_TO_END)["eval-desk"]["pairs"]["throughput_sps"]
    assert (sps["pairs"], sps["wins"], sps["losses"]) == (21, 20, 1)
    assert sps["gain_shown"]  # one failure on each side, and 20/21 pairs won


def test_fewer_than_ten_pairs_show_no_gain(ledger):
    runs = []
    for seed in range(1, 6):
        runs += [run(ledger, "parent", seed, 100.0 + seed, 10.0),
                 run(ledger, "change", seed, 200.0, 5.0)]
    sps = ledger.merge(runs, ["parent", "change"], END_TO_END)["eval-desk"]["pairs"]["throughput_sps"]
    assert (sps["pairs"], sps["wins"], sps["median_gap"], sps["base_iqr"]) == (5, 5, 97.0, 2.0)
    assert not sps["gain_shown"]  # 5/5 won by a wide gap, but a gain needs 10 pairs


def test_all_seeds_failed_on_one_side_still_reports_pairs(ledger):
    runs = [run(ledger, "parent", seed, 100.0, 10.0) for seed in (1, 2, 3)]
    runs += [{"workload": "eval-desk", "checkout": "change", "seed": seed, "error": "exit 1"}
             for seed in (1, 2, 3)]
    sps = ledger.merge(runs, ["parent", "change"], END_TO_END)["eval-desk"]["pairs"]["throughput_sps"]
    assert (sps["pairs"], sps["wins"], sps["losses"], sps["median_gap"]) == (3, 0, 3, None)
    assert not sps["gain_shown"] and sps["ratios"] == {}


def test_one_checkout_has_no_pairs(ledger):
    runs = [run(ledger, "change", seed, 100.0 + seed, 9.0) for seed in (1, 2, 3)]
    merged = ledger.merge(runs, ["change"], END_TO_END)["eval-desk"]
    assert "pairs" not in merged
    assert merged["checkouts"]["change"]["digests"] == ["abc123"]
    assert merged["checkouts"]["change"]["metrics"]["throughput_sps"]["median"] == 102.0
