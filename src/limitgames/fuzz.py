"""Seeded randomized property checks for the set algebra.

Each iteration draws random eventually periodic sets (periods up to 12,
windows inside [-64, 64]) and verifies the Boolean operations against a
pointwise brute-force oracle over a window stretching three full combined
periods past the explicit region, plus canonical-form and cardinality
invariants and rank masks tested rank by rank.  Deterministic for a fixed
seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import lcm

from .algebra import PeriodicSet, universe_elem

MAX_PERIOD = 12
WINDOW_LIMIT = 64


def random_set(rng: random.Random) -> PeriodicSet:
    neg_period = rng.randint(1, MAX_PERIOD)
    pos_period = rng.randint(1, MAX_PERIOD)
    neg_residues = [r for r in range(neg_period) if rng.random() < 0.4]
    pos_residues = [r for r in range(pos_period) if rng.random() < 0.4]
    lo = rng.randint(-WINDOW_LIMIT, WINDOW_LIMIT)
    hi = rng.randint(lo, WINDOW_LIMIT)
    window = [x for x in range(lo, hi + 1) if rng.random() < 0.5]
    return PeriodicSet.build(
        neg_period, neg_residues, lo, hi, window, pos_period, pos_residues
    )


def check_canonical(s: PeriodicSet) -> str | None:
    """A canonical set must survive re-canonicalization unchanged."""
    rebuilt = PeriodicSet.build(
        s.neg_period,
        s.neg_residues,
        s.lo,
        s.hi,
        s.window,
        s.pos_period,
        s.pos_residues,
    )
    if rebuilt != s:
        return f"not canonical: {s!r} re-canonicalizes to {rebuilt!r}"
    return None


def check_mask(s: PeriodicSet) -> str | None:
    """Rank masks over the window and a full period of each tail, and over
    a block inside that range, must match membership tested one rank at a
    time."""
    width = 2 * (max(-s.lo, s.hi) + max(s.neg_period, s.pos_period)) + 2
    full = sum(1 << i for i in range(width) if universe_elem(i + 1) in s)
    inner, size = width // 3 + 1, width // 2
    for start, count, expected in (
        (1, width, full),
        (inner, size, full >> (inner - 1) & ((1 << size) - 1)),
        (width, 0, 0),
    ):
        if s.rank_mask_block(start, count) != expected:
            return f"rank mask of {s!r} over ranks [{start}, {start + count}) is wrong"
    return None


def _oracle_window(*sets: PeriodicSet) -> tuple[int, int]:
    period = 1
    for s in sets:
        period = lcm(period, s.neg_period, s.pos_period)
    return -3 * period - WINDOW_LIMIT, 3 * period + WINDOW_LIMIT


def check_pair(a: PeriodicSet, b: PeriodicSet, c: PeriodicSet) -> str | None:
    """All pairwise/systemic properties for one random triple; None when clean."""
    for s in (a, b, c):
        failure = check_canonical(s)
        if failure:
            return failure

    lo, hi = _oracle_window(a, b)
    table_a = a.membership_range(lo, hi)
    table_b = b.membership_range(lo, hi)
    # Each operation is computed once and its result checked by every
    # property below that names it.
    union, meet, diff = a | b, a & b, a - b
    ops = [
        ("union", union, [p or q for p, q in zip(table_a, table_b)]),
        ("intersection", meet, [p and q for p, q in zip(table_a, table_b)]),
        ("difference", diff, [p and not q for p, q in zip(table_a, table_b)]),
    ]
    for name, result, expected in ops:
        if result.membership_range(lo, hi) != expected:
            return f"{name} disagrees with the pointwise oracle on [{lo}, {hi}]"
        failure = check_canonical(result)
        if failure:
            return f"{name} result {failure}"

    for s in (a, diff):
        failure = check_mask(s)
        if failure:
            return failure

    # Cardinality classification against brute force.
    for s in (a, b, diff):
        card = s.cardinality()
        count = sum(s.membership_range(*_oracle_window(s)))
        if card.is_infinite:
            if not (s.neg_residues or s.pos_residues):
                return "infinite cardinality without tail residues"
        else:
            expected_count = 0 if card.is_empty else card.count
            if count != expected_count:
                return f"finite cardinality {card} but brute count {count}"

    # Equality is pointwise agreement on the extended window.
    agree = table_a == table_b
    if (a == b) != agree:
        return "canonical equality disagrees with pointwise agreement"

    # Algebra laws.
    if union != b | a or meet != b & a:
        return "commutativity failed"
    if union | c != a | (b | c):
        return "union associativity failed"
    if meet & c != a & (b & c):
        return "intersection associativity failed"
    not_a, not_b = a.complement(), b.complement()
    if union.complement() != not_a & not_b:
        return "De Morgan (union) failed"
    if meet.complement() != not_a | not_b:
        return "De Morgan (intersection) failed"
    if diff != a & not_b:
        return "difference != intersection with complement"

    # Prefix growth.
    p8, p9 = a.prefix(8), a.prefix(9)
    if not set(p8) <= set(p9) or len(p8) > 8:
        return "prefix monotonicity failed"
    return None


@dataclass
class FuzzReport:
    ok: bool
    checked: int
    counterexample: str | None = None
    seed: int = 0

    def describe(self) -> str:
        if self.ok:
            return f"ok: {self.checked} random triples checked (seed {self.seed})"
        return (
            f"FAILED after {self.checked} triples (seed {self.seed}): "
            f"{self.counterexample}"
        )


def run_suite(seed: int, count: int) -> FuzzReport:
    rng = random.Random(seed)
    for i in range(count):
        a, b, c = random_set(rng), random_set(rng), random_set(rng)
        failure = check_pair(a, b, c)
        if failure:
            return FuzzReport(False, i + 1, f"{failure}\n  a={a!r}\n  b={b!r}\n  c={c!r}", seed)
    return FuzzReport(True, count, None, seed)
