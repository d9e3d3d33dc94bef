import itertools
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pointwise_algebra as pointwise
from limitgames.algebra import (
    MAX_LISTED,
    MAX_PERIOD,
    Cardinality,
    LimitError,
    PeriodicSet,
    PeriodLimitError,
    all_integers,
    even_nonnegatives,
    naturals,
    negative_integers,
    odd_positives,
    q_set,
    universe_elem,
    universe_index,
    y_set,
)
from limitgames.families import LabeledExample, RevealedSet

# Independent reference predicates for the named languages.
REF = {
    "O": lambda x: x > 0 and x % 2 == 1,
    "E": lambda x: x >= 0 and x % 2 == 0,
    "I": lambda x: True,
    "N": lambda x: x < 0,
    "nat": lambda x: x >= 0,
}


def ref_universe(n):
    # Zigzag 0, 1, -1, 2, -2, ... built by stepping, independent of the
    # closed form under test.
    out = [0]
    k = 1
    while len(out) < n:
        out.append(k)
        out.append(-k)
        k += 1
    return out[:n]


def test_universe_elem_examples():
    assert universe_elem(1) == 0
    assert universe_elem(2) == 1
    assert universe_elem(3) == -1
    assert universe_elem(4) == 2
    assert universe_elem(100) == ref_universe(100)[99] == 50


def test_universe_order_matches_reference():
    ref = ref_universe(500)
    assert [universe_elem(i) for i in range(1, 501)] == ref


def test_universe_roundtrip():
    for i in range(1, 10_001):
        assert universe_index(universe_elem(i)) == i


def test_universe_elem_rejects_bad_rank():
    with pytest.raises(ValueError):
        universe_elem(0)


def test_membership_examples():
    assert 2 in y_set(0)
    assert -1 not in odd_positives()
    assert -7 in q_set(1)


@pytest.mark.parametrize(
    "lang,ref",
    [
        (odd_positives(), REF["O"]),
        (even_nonnegatives(), REF["E"]),
        (all_integers(), REF["I"]),
        (negative_integers(), REF["N"]),
        (naturals(), REF["nat"]),
    ],
)
def test_named_languages_match_reference(lang, ref):
    for x in range(-300, 301):
        assert (x in lang) == ref(x), x


def test_parameterized_families_match_reference():
    for a in range(6):
        lang = y_set(a)
        for x in range(-50, 51):
            assert (x in lang) == (-a <= x <= 0 or REF["E"](x))
    for b in range(1, 6):
        lang = q_set(b)
        for x in range(-50, 51):
            assert (x in lang) == (x <= -b or REF["O"](x))


def test_difference_identities():
    I, O, E, N = all_integers(), odd_positives(), even_nonnegatives(), negative_integers()
    diff = I - y_set(0)
    # Brute-force check of the identity on a wide window before asserting
    # the exact canonical equality.
    for x in range(-200, 201):
        assert (x in diff) == (x in q_set(1))
    assert diff == q_set(1)
    assert I - (N | E) == O
    assert (E - I).cardinality().is_empty


def test_cardinality_examples():
    O, E, N = odd_positives(), even_nonnegatives(), negative_integers()
    assert (O - E).cardinality().is_infinite
    assert (E - (N | E)).cardinality().is_empty
    assert (y_set(0) - E).cardinality().is_empty  # 0 is a member of E


def test_cardinality_finite_counts():
    assert PeriodicSet.finite({3, 5, -9}).cardinality() == Cardinality.of_count(3)
    assert Cardinality.of_count(0) == Cardinality.empty()
    assert PeriodicSet.finite(()).cardinality().is_empty


def test_subset_examples():
    O, I = odd_positives(), all_integers()
    assert O.issubset(I)
    assert not I.issubset(O)
    assert y_set(0).issubset(y_set(3))
    assert y_set(0) < y_set(3)


def test_prefix_examples():
    assert even_nonnegatives().prefix(4) == (0, 2)
    assert odd_positives().prefix(2) == (1,)
    assert PeriodicSet.finite({99}).prefix(5) == ()


def test_prefix_matches_brute_force():
    langs = [odd_positives(), q_set(2), y_set(3), negative_integers()]
    ref = ref_universe(64)
    for lang in langs:
        for m in (1, 7, 33, 64):
            assert lang.prefix(m) == tuple(x for x in ref[:m] if x in lang)


def test_enumeration_examples():
    E, I = even_nonnegatives(), all_integers()
    assert list(itertools.islice(E.iter_universe_order(), 5)) == [0, 2, 4, 6, 8]
    assert list(itertools.islice(q_set(1).iter_universe_order(), 5)) == [1, -1, -2, 3, -3]
    assert list(itertools.islice(I.iter_universe_order(), 5)) == [0, 1, -1, 2, -2]


def test_enumeration_terminates_for_finite_sets():
    assert list(PeriodicSet.finite({4, -2}).iter_universe_order()) == [-2, 4]
    assert list(PeriodicSet.empty().iter_universe_order()) == []


def sample(*xs):
    r = RevealedSet()
    for x in xs:
        r.add(LabeledExample(x, 1))
    return r


def seen_forms(*xs):
    """``xs`` as each kind of argument ``first_not_in`` takes."""
    return (sample(*xs),)


def test_first_not_in():
    O = odd_positives()
    for seen in seen_forms(1, 3):
        assert O.first_not_in(seen) == 5
    for seen in seen_forms():
        assert O.first_not_in(seen) == 1
    fin = PeriodicSet.finite({1, -300})
    for seen in seen_forms(1, -300):
        assert fin.first_not_in(seen) is None
    for seen in seen_forms(1):
        assert fin.first_not_in(seen) == -300
    for seen in seen_forms(*range(-200, 200)):
        assert O.first_not_in(seen) == 201
        assert PeriodicSet.empty().first_not_in(seen) is None


def test_rank_mask_block_matches_prefix():
    for lang in (q_set(3), y_set(2), even_nonnegatives()):
        mask = lang.rank_mask_block(1, 40)
        members = {universe_index(x) for x in lang.prefix(40)}
        for rank in range(1, 41):
            assert bool(mask >> (rank - 1) & 1) == (rank in members)
        # Block starting mid-stream.
        tail = lang.rank_mask_block(17, 10)
        for i in range(10):
            assert bool(tail >> i & 1) == (universe_elem(17 + i) in lang)


def test_membership_range_matches_contains():
    for lang in (q_set(2), y_set(4), PeriodicSet.ray(-5, -3), PeriodicSet.finite({0})):
        got = lang.membership_range(-40, 40)
        assert got == [x in lang for x in range(-40, 41)]


def test_period_limit():
    # Each operation checks the period, or the lcm, before the work that
    # grows with it: canonicalizing one tail, combining two, comparing a
    # piece's rule with a tail, and negating a tail.
    with pytest.raises(PeriodLimitError, match="MAX_PERIOD"):
        PeriodicSet.ray(0, MAX_PERIOD + 1)
    with pytest.raises(PeriodLimitError, match="90300"):
        PeriodicSet.ray(0, 300) | PeriodicSet.ray(0, 301)
    with pytest.raises(PeriodLimitError, match="90300"):
        PeriodicSet.ray(-1, -300) | PeriodicSet.ray(0, 301)
    absent = (1, frozenset())
    raw = PeriodicSet(10**9, frozenset({0}), 0, 0, absent, (), absent, (), 1, frozenset())
    with pytest.raises(PeriodLimitError):
        raw.complement()
    # At the limit the operations still run.
    s = PeriodicSet.ray(0, 256) | PeriodicSet.ray(0, 255)
    assert s.pos_period == 256 * 255 <= MAX_PERIOD and 510 in s and 511 not in s
    assert s.complement().complement() == s


def test_listed_limit():
    # A bounded periodic run is stored point by point: canonicalizing one
    # whose half lists more than MAX_LISTED points against its rule fails
    # before the listing.
    with pytest.raises(LimitError, match="MAX_LISTED"):
        odd_positives() & PeriodicSet.ray(10**9, -1)
    # A set stored in a few fields may still hold too many window members
    # to list: ``window`` counts them from the halves first.
    wide = PeriodicSet.ray(-(10**9), 1) - PeriodicSet.finite({5})
    assert wide.pos_exceptions == (5,)
    with pytest.raises(LimitError, match="MAX_LISTED"):
        wide.window
    # Both still list at the limit, and not one point past it.
    run = naturals() & PeriodicSet.ray(MAX_LISTED - 1, -1)
    assert len(run.window) == MAX_LISTED
    with pytest.raises(LimitError, match="MAX_LISTED"):
        (naturals() & PeriodicSet.ray(MAX_LISTED, -1)).window
    # The odd numbers up to 2 * MAX_LISTED + 1 leave out MAX_LISTED points.
    half = odd_positives() & PeriodicSet.ray(2 * MAX_LISTED + 1, -1)
    assert len(half.pos_exceptions) == MAX_LISTED
    with pytest.raises(LimitError, match="MAX_LISTED"):
        odd_positives() & PeriodicSet.ray(2 * MAX_LISTED + 3, -1)


def test_build_validates():
    with pytest.raises(ValueError):
        PeriodicSet.build(0, (), 0, 0, (), 1, ())
    with pytest.raises(ValueError):
        PeriodicSet.build(1, (), 1, 0, (), 1, ())
    with pytest.raises(ValueError):
        PeriodicSet.build(2, {2}, 0, 0, (), 1, ())
    with pytest.raises(ValueError):
        PeriodicSet.build(1, (), 0, 0, {5}, 1, ())
    with pytest.raises(ValueError):
        PeriodicSet.ray(3, 0)


# ----------------------------------------------------------------------
# Randomized laws
# ----------------------------------------------------------------------

@st.composite
def periodic_set(draw):
    neg_period = draw(st.integers(1, 6))
    pos_period = draw(st.integers(1, 6))
    neg_residues = draw(st.sets(st.integers(0, neg_period - 1)))
    pos_residues = draw(st.sets(st.integers(0, pos_period - 1)))
    lo = draw(st.integers(-10, 10))
    hi = draw(st.integers(lo, 10))
    window = draw(st.sets(st.integers(lo, hi)))
    return PeriodicSet.build(
        neg_period, neg_residues, lo, hi, window, pos_period, pos_residues
    )


periodic_sets = periodic_set()


def _agree_window(*sets):
    period = 1
    for s in sets:
        period = period * s.neg_period * s.pos_period
    return 3 * period + 16


@settings(max_examples=120, deadline=None)
@given(periodic_sets, periodic_sets)
def test_ops_match_pointwise_oracle(a, b):
    w = _agree_window(a, b)
    for x in range(-w, w + 1):
        assert ((x in a) or (x in b)) == (x in (a | b))
        assert ((x in a) and (x in b)) == (x in (a & b))
        assert ((x in a) and not (x in b)) == (x in (a - b))
        assert (x not in a) == (x in a.complement())


@settings(max_examples=120, deadline=None)
@given(periodic_sets, periodic_sets)
def test_equality_is_pointwise_agreement(a, b):
    w = _agree_window(a, b)
    agree = all((x in a) == (x in b) for x in range(-w, w + 1))
    assert (a == b) == agree


@settings(max_examples=80, deadline=None)
@given(periodic_sets, periodic_sets, periodic_sets)
def test_boolean_laws(a, b, c):
    assert a | b == b | a
    assert a & b == b & a
    assert (a | b) | c == a | (b | c)
    assert (a & b) & c == a & (b & c)
    assert (a | b).complement() == a.complement() & b.complement()
    assert a - b == a & b.complement()


@settings(max_examples=80, deadline=None)
@given(periodic_sets)
def test_cardinality_matches_brute_force(s):
    card = s.cardinality()
    w = _agree_window(s)
    count = sum(s.membership_range(-w, w))
    if card.is_infinite:
        assert s.neg_residues or s.pos_residues
    else:
        assert count == (0 if card.is_empty else card.count)


@settings(max_examples=80, deadline=None)
@given(periodic_sets, st.integers(1, 40))
def test_prefix_monotone(s, m):
    p, q = s.prefix(m), s.prefix(m + 1)
    assert set(p) <= set(q)
    assert len(p) <= m


@settings(max_examples=80, deadline=None)
@given(periodic_sets, st.integers(0, 300), st.sets(st.integers(-400, 400)))
def test_first_not_in_sample_matches_rank_scan(s, k, extra):
    # The mask scan over a sample's rank bits against the rank-by-rank scan,
    # with the first k members seen so the answer may lie past a chunk.
    seen = set(itertools.islice(pointwise.iter_universe_order(s), k)) | extra
    assert s.first_not_in(sample(*seen)) == pointwise.first_not_in(s, seen)


@st.composite
def spread_set(draw):
    """A few points spread over thousands of ranks, with a ray or its
    complement, so the walk meets empty chunks and jumps over them."""
    points = PeriodicSet.finite(draw(st.sets(st.integers(-3000, 3000), max_size=6)))
    ray = PeriodicSet.ray(draw(st.integers(-3000, 3000)), draw(st.sampled_from([-5, -2, -1, 1, 3])))
    op = draw(st.sampled_from(["points", "or", "sub", "complement"]))
    if op == "points":
        return points
    if op == "or":
        return points | ray
    if op == "sub":
        return ray - points
    return (points | ray).complement()


@settings(max_examples=80, deadline=None)
@given(st.one_of(periodic_sets, spread_set()), st.integers(0, 7000), st.integers(0, 40))
def test_walk_matches_rank_scan(s, m, k):
    # The chunked walk against the rank-by-rank scans: a prefix cut at any
    # rank, the first members, and every member of a finite set.
    assert s.prefix(m) == pointwise.prefix(s, m)
    walk = s.iter_universe_order()
    assert list(itertools.islice(walk, k)) == list(
        itertools.islice(pointwise.iter_universe_order(s), k)
    )
    if not s.cardinality().is_infinite:
        assert list(s.iter_universe_order()) == list(pointwise.iter_universe_order(s))
    seen = set(s.prefix(m))
    assert s.first_not_in(sample(*seen)) == pointwise.first_not_in(s, seen)


# Far-out sets the walk must cross by jumping over empty chunks, each read
# in a fresh interpreter whose address space is capped at 1 GB: the first
# members, a prefix cut at a rank among them, and the first member outside
# an empty sample.  Each line is (expression, first members, cut, prefix).
POWERS = [10**k for k in range(40)]
SPARSE = [3**k for k in range(40)]
FAR_OUT = [
    ("Ray(1000000000,1)", [10**9 + i for i in range(5)], 2 * 10**9 + 4, [10**9 + i for i in range(3)]),
    ("Ray(1000000000,-1)", [0, 1, -1, 2, -2], 4, [0, 1, -1, 2]),
    ("Fin{1000000000}", [10**9], 2 * 10**9 - 1, []),
    ("Fin{" + ",".join(map(str, POWERS)) + "}", POWERS, 2 * 10**20, POWERS[:21]),
    (
        "Fin{" + ",".join(map(str, SPARSE)) + "} | Ray(" + str(3**41) + ",1)",
        SPARSE + [3**41 + i for i in range(5)],
        2 * 3**41 + 1,
        SPARSE + [3**41],
    ),
]

_FAR_OUT_SCRIPT = """
import itertools, json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from limitgames.families import RevealedSet
from limitgames.setspec import parse
expr, count, cut = json.loads(sys.argv[1])
start = time.perf_counter()
s = parse(expr)
first = list(itertools.islice(s.iter_universe_order(), count))
prefix = s.prefix(cut)
free = s.first_not_in(RevealedSet())
print(json.dumps([first, prefix, free, time.perf_counter() - start]))
"""


@pytest.mark.parametrize("expr,first,cut,prefix", FAR_OUT, ids=range(len(FAR_OUT)))
def test_far_out_walk_is_bounded(expr, first, cut, prefix):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    args = json.dumps([expr, len(first), cut])
    proc = subprocess.run(
        [sys.executable, "-c", _FAR_OUT_SCRIPT, args],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    got_first, got_prefix, free, seconds = json.loads(proc.stdout)
    assert got_first == first and got_prefix == prefix
    assert free == first[0]
    assert seconds < 2.0
