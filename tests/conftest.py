"""Shared deterministic generators for fuzzed inputs, and reference oracles
(the set-based twins of the ``james_monoid`` bitmask stage engine among them)."""

from __future__ import annotations

import itertools
import random
from typing import Sequence

from tauword import free_words as fw
from tauword import rearrange as ra
from tauword import word_expr as we
from tauword.james_monoid import FiniteSpaceModel, Tuple_, Word, q_tuple


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


def nonzero(rng: random.Random, lo: int = -3, hi: int = 3) -> int:
    while True:
        e = rng.randint(lo, hi)
        if e:
            return e


def random_raw_syllables(rng, max_syllables=10, max_letter=6):
    return [
        (rng.randint(1, max_letter), rng.randint(-3, 3))
        for _ in range(rng.randint(0, max_syllables))
    ]


def random_word(rng, max_syllables=10, max_letter=6) -> fw.ReducedWord:
    return fw.reduce(
        (rng.randint(1, max_letter), nonzero(rng)) for _ in range(rng.randint(0, max_syllables))
    )


def random_zero_sum_word(rng, max_pairs=10, max_letter=6) -> fw.ReducedWord:
    """Word with zero exponent sum for every letter (paired syllables, shuffled)."""
    syls = []
    for _ in range(rng.randint(0, max_pairs)):
        letter = rng.randint(1, max_letter)
        e = nonzero(rng)
        syls.append((letter, e))
        syls.append((letter, -e))
    rng.shuffle(syls)
    return fw.reduce(syls)


def random_finite_expr(rng, depth=2, max_letter=8) -> we.WordExpr:
    if depth == 0 or rng.random() < 0.4:
        return we.Letter(rng.randint(1, max_letter), nonzero(rng))
    if rng.random() < 0.3:
        return we.Inverse(random_finite_expr(rng, depth - 1, max_letter))
    return we.Concat(
        tuple(random_finite_expr(rng, depth - 1, max_letter) for _ in range(rng.randint(0, 3)))
    )


def random_template_body(rng) -> we.WordExpr:
    leaves = []
    for _ in range(rng.randint(1, 3)):
        leaf = we.SymLetter(rng.randint(1, 4), rng.randint(1, 3), nonzero(rng, -2, 2))
        leaves.append(we.Inverse(leaf) if rng.random() < 0.3 else leaf)
    return leaves[0] if len(leaves) == 1 else we.Concat(tuple(leaves))


def random_zero_eta_body(rng) -> we.WordExpr:
    coef = rng.randint(1, 3)
    if rng.random() < 0.6:
        a = we.SymLetter(rng.randint(1, 3), coef, nonzero(rng, -2, 2))
        b = we.SymLetter(rng.randint(1, 3), coef, nonzero(rng, -2, 2))
        return we.commutator_expr(a, b)
    leaf = we.SymLetter(rng.randint(1, 3), coef, nonzero(rng, -2, 2))
    return we.Concat((leaf, we.Inverse(leaf)))


def zero_sum_word_expr(rng) -> we.WordExpr:
    w = random_zero_sum_word(rng, max_pairs=4)
    return we.Concat(tuple(we.Letter(l, e) for l, e in w.syllables))


def random_seq_spec(rng, zero_eta=False) -> we.SeqSpec:
    if zero_eta:
        prefix = tuple(zero_sum_word_expr(rng) for _ in range(rng.randint(0, 2)))
    else:
        prefix = tuple(random_finite_expr(rng) for _ in range(rng.randint(0, 3)))
    if rng.random() < 0.35:
        tail: we.TailRule = we.Trivial()
    else:
        maker = random_zero_eta_body if zero_eta else random_template_body
        tail = we.Template(tuple(maker(rng) for _ in range(rng.randint(1, 2))))
    return we.SeqSpec(prefix, tail)


def random_product(rng, zero_eta=False) -> we.WordExpr:
    spec = random_seq_spec(rng, zero_eta)
    return we.OmegaProd(spec) if rng.random() < 0.5 else we.TauProd(spec)


def random_expr(rng) -> we.WordExpr:
    roll = rng.random()
    if roll < 0.5:
        return random_product(rng)
    if roll < 0.65:
        return we.Inverse(random_product(rng))
    if roll < 0.8:
        return we.Concat(
            (random_finite_expr(rng), random_product(rng), random_finite_expr(rng))
        )
    return random_finite_expr(rng, depth=3)


def random_zero_eta_expr(rng) -> we.WordExpr:
    roll = rng.random()
    if roll < 0.55:
        return random_product(rng, zero_eta=True)
    if roll < 0.75:
        return we.Concat((zero_sum_word_expr(rng), random_product(rng, zero_eta=True)))
    return zero_sum_word_expr(rng)


def random_bijection(rng, max_support=12) -> ra.BijectionSpec:
    def atom():
        if rng.random() < 0.5:
            pool = list(range(1, max_support + 1))
            rng.shuffle(pool)
            cycles = []
            while len(pool) >= 2 and rng.random() < 0.7:
                size = rng.randint(2, min(4, len(pool)))
                cycles.append(tuple(pool[:size]))
                del pool[:size]
            return ra.FiniteSupport(tuple(cycles))
        period = rng.randint(2, 4)
        perm = list(range(period))
        rng.shuffle(perm)
        return ra.BlockPermute(period, tuple(perm))

    if rng.random() < 0.3:
        return ra.Compose(tuple(atom() for _ in range(rng.randint(2, 3))))
    return atom()


def equal_up_to_by_levels(a, b, n_max: int) -> we.EqualityResult:
    """Reference for ``equal_up_to``: both sides projected afresh at every level."""
    for n in range(1, n_max + 1):
        wa, wb = we.project(a, n), we.project(b, n)
        if wa != wb:
            return we.EqualityResult(False, n, wa, wb)
    return we.EqualityResult(True)


def swapped_pair(rng, max_letter=10) -> tuple[we.WordExpr, we.WordExpr]:
    """A product and its copy with two adjacent prefix letters swapped."""
    spec = random_product(rng).spec
    i, j = rng.sample(range(1, max_letter + 1), 2)
    pair = (we.Letter(i, nonzero(rng)), we.Letter(j, nonzero(rng)))
    at = rng.randint(0, len(spec.prefix))
    make = we.OmegaProd if rng.random() < 0.5 else we.TauProd
    left = make(we.SeqSpec(spec.prefix[:at] + pair + spec.prefix[at:], spec.tail))
    right = make(we.SeqSpec(spec.prefix[:at] + pair[::-1] + spec.prefix[at:], spec.tail))
    return left, right


class SpecMismatchError(ValueError):
    """A standard-neighbourhood spec does not fit the word."""


class EmptyFiberError(ValueError):
    """Requested ambient length is shorter than the word."""


def fiber(m: FiniteSpaceModel, w: Word, n: int) -> set[Tuple_]:
    """All n-tuples mapping to w: insert n - |w| basepoint entries."""
    if n < len(w):
        raise EmptyFiberError(f"ambient length {n} < word length {len(w)}")
    out = set()
    for positions in itertools.combinations(range(n), len(w)):
        t = [m.base] * n
        for p, letter in zip(positions, w):
            t[p] = letter
        out.add(tuple(t))
    return out


def standard_nbhd(
    m: FiniteSpaceModel,
    w: Word,
    letter_opens: Sequence,
    base_open,
    n: int,
) -> tuple[frozenset[Tuple_], frozenset[Word]]:
    """Union of product boxes over the fiber of w, and its word image.

    letter_opens[j] is an open set containing w[j] but not the basepoint;
    base_open is an open set containing the basepoint and fills the
    remaining slots.
    """
    us = [frozenset(u) for u in letter_opens]
    v = frozenset(base_open)
    if len(us) != len(w):
        raise SpecMismatchError(f"{len(us)} opens for a word of length {len(w)}")
    if n < len(w):
        raise SpecMismatchError(f"ambient length {n} < word length {len(w)}")
    for j, u in enumerate(us):
        if not m.is_open(u):
            raise SpecMismatchError(f"U_{j + 1} is not open")
        if m.base in u:
            raise SpecMismatchError(f"U_{j + 1} contains the basepoint")
        if w[j] not in u:
            raise SpecMismatchError(f"letter {w[j]!r} not in U_{j + 1}")
    if not m.is_open(v):
        raise SpecMismatchError("V is not open")
    if m.base not in v:
        raise SpecMismatchError("V does not contain the basepoint")
    tuples: set[Tuple_] = set()
    for positions in itertools.combinations(range(n), len(w)):
        slots: list[frozenset[str]] = [v] * n
        for j, p in enumerate(positions):
            slots[p] = us[j]
        tuples.update(itertools.product(*slots))
    n_set = frozenset(tuples)
    return n_set, frozenset(q_tuple(m, t) for t in n_set)


def check_saturated(m: FiniteSpaceModel, tuples, n: int) -> bool:
    """True iff the tuple set is a union of fibers of the length-n quotient."""
    tuples = frozenset(tuples)
    image = {q_tuple(m, t) for t in tuples}
    preimage: set[Tuple_] = set()
    for w in image:
        preimage.update(fiber(m, w, n))
    return preimage == tuples
