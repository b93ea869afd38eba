"""Percentiles with their sample counts, and the oltp-mix final-state check."""

import statistics

import pytest

from measure import MixLedger, check_mix_invariants, median, percentile, supported_percentile


def test_percentile_carries_sample_count():
    assert percentile([3.0, 1.0, 2.0], 50.0) == (2.0, 3)
    assert percentile([5.0], 95.0) == (5.0, 1)


def test_percentile_interpolates_like_inclusive_quantiles():
    samples = [0.7, 1.9, 0.2, 4.4, 3.1, 2.6, 9.0, 5.5]
    quartiles = statistics.quantiles(samples, n=4, method="inclusive")
    assert percentile(samples, 25.0)[0] == pytest.approx(quartiles[0])
    assert percentile(samples, 75.0)[0] == pytest.approx(quartiles[2])
    assert median(samples) == statistics.median(samples)


def test_percentile_ends_are_min_and_max():
    samples = list(range(1, 101))
    assert percentile(samples, 0.0) == (1, 100)
    assert percentile(samples, 100.0) == (100, 100)
    assert percentile(samples, 95.0)[0] == pytest.approx(95.05)


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50.0)
    with pytest.raises(ValueError):
        percentile([1.0], 101.0)


def test_supported_percentile_needs_ten_samples_beyond():
    assert supported_percentile(10) is None
    assert supported_percentile(20) == 50.0
    assert supported_percentile(199) == 90.0
    assert supported_percentile(200) == 95.0
    assert supported_percentile(1000) == 99.0


def _ledger(**kwargs) -> MixLedger:
    return MixLedger(**{"inserts": 3, "inserted_balance": 30, "update_delta": 7, **kwargs})


def test_mix_invariants_hold_for_the_right_state():
    assert check_mix_invariants(100, 1000, _ledger(), 103, 1037.0) == []


def test_mix_invariants_catch_a_lost_insert():
    problems = check_mix_invariants(100, 1000, _ledger(), 102, 1037.0)
    assert len(problems) == 1 and "count(*) is 102" in problems[0]


def test_mix_invariants_catch_a_lost_update():
    problems = check_mix_invariants(100, 1000, _ledger(), 103, 1030.0)
    assert len(problems) == 1 and "sum(balance) is 1030.0" in problems[0]


def test_mix_invariants_report_both_when_both_break():
    assert len(check_mix_invariants(100, 1000, _ledger(), 99, 0.0)) == 2


def test_ledgers_merge_across_clients():
    merged = _ledger(wrong=["a"]).merge(_ledger(wrong=["b"]))
    assert (merged.inserts, merged.inserted_balance, merged.update_delta) == (6, 60, 14)
    assert merged.wrong == ["a", "b"]
