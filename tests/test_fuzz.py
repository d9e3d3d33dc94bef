import random

from limitgames.algebra import PeriodicSet
from limitgames.fuzz import (
    MAX_PERIOD,
    WINDOW_LIMIT,
    check_canonical,
    check_mask,
    random_set,
    run_suite,
)


def test_suite_passes_and_is_deterministic():
    a = run_suite(seed=11, count=60)
    b = run_suite(seed=11, count=60)
    assert a.ok and b.ok
    assert a == b
    assert "60 random triples" in a.describe()


def test_zero_count_is_trivially_ok():
    report = run_suite(seed=5, count=0)
    assert report.ok and report.checked == 0


def test_random_sets_respect_bounds():
    rng = random.Random(3)
    slack = WINDOW_LIMIT + MAX_PERIOD
    for _ in range(50):
        s = random_set(rng)
        assert 1 <= s.neg_period <= MAX_PERIOD
        assert 1 <= s.pos_period <= MAX_PERIOD
        assert -slack <= s.lo <= s.hi <= slack
        assert check_canonical(s) is None


def test_check_canonical_catches_bad_instances():
    # Raw constructor bypasses canonicalization: a period-2 rule with both
    # residues active is really period 1.
    absent = (1, frozenset())
    bad = PeriodicSet(2, frozenset({0, 1}), 0, 0, absent, (), absent, (), 2, frozenset())
    message = check_canonical(bad)
    assert message is not None and "canonical" in message
    # A window cell that just restates the tail rule must be absorbed.
    bad2 = PeriodicSet(
        1, frozenset(), -2, 2, absent, (), absent, (2,), 2, frozenset({0})
    )
    assert check_canonical(bad2) is not None
    # A half described against a rule other than the one with the fewest
    # exceptions: [1, 3] lists all three members against absent, where
    # present lists none.
    bad3 = PeriodicSet(1, frozenset(), 0, 3, absent, (0,), absent, (1, 2, 3), 1, frozenset())
    assert check_canonical(bad3) is not None


def test_check_mask_catches_a_wrong_mask(monkeypatch):
    s = PeriodicSet.ray(3, 2)
    assert check_mask(s) is None
    monkeypatch.setattr(PeriodicSet, "rank_mask_block", lambda self, start, count: 0)
    assert "rank mask" in check_mask(s)


def test_failure_report_shape():
    report = run_suite(seed=1, count=3)
    assert report.ok and report.counterexample is None
    assert report.seed == 1
