"""Shared deterministic generators for fuzzed inputs, and reference oracles
(the set-based twins of the ``james_monoid`` bitmask stage engine, the
search, tuple-pass and per-spec twins of its minimal opens, fiber counts
and neighbourhood statistics, the
scan-based twins of the ``orders`` embedding and extension, the sorting
twin of the letter-peeling ``commutator_decompose``, the recursive twins
of the ``word_expr`` leaf walk, the sampled twin of the folded
``Compose.eventual_structure`` and the letter-scanning twin of
``specker.wedge_images`` among them)."""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from typing import Callable, Optional, Sequence

from tauword import free_words as fw
from tauword import james_monoid as jm
from tauword import rearrange as ra
from tauword import specker as sp
from tauword import word_expr as we
from tauword.james_monoid import FiniteSpaceModel, ModelError, Word
from tauword.orders import (
    _CEILING,
    CantorComponent,
    IntegersZeta,
    Omega,
    OmegaPlusOmega,
    OrderSpec,
    Rationals,
    compare,
    least_component_in,
    theta,
    theta_inv,
)

Tuple_ = tuple[str, ...]  # a point of the n-th power of a model


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


def random_nested_bijection(rng, depth: int = 3) -> ra.BijectionSpec:
    """A ``random_bijection``, or a composition of 0-3 nested ones down to ``depth``."""
    if depth == 0 or rng.random() < 0.3:
        return random_bijection(rng)
    return ra.Compose(tuple(random_nested_bijection(rng, depth - 1) for _ in range(rng.randint(0, 3))))


def compose_structure_by_sampling(phi: ra.Compose) -> ra.EventualStructure:
    """Reference for ``Compose.eventual_structure``: the composite evaluated on one
    period beyond the folded bound, then checked on three more periods."""
    # in application order, each stage must see inputs beyond its own
    # bound; inputs shrink by at most the minimum offset of earlier stages
    applied = [p.eventual_structure() for p in reversed(phi.parts)]
    period = 1
    for st in applied:
        period = math.lcm(period, st.period)
    bound = 0
    shift = 0
    for st in applied:
        bound = max(bound, st.bound - shift)
        shift += min(st.offsets)
    bound = -(-bound // period) * period  # align so offsets index by (k-1) % period
    offsets = tuple(
        phi.evaluate(bound + 1 + t) - (bound + 1 + t) for t in range(period)
    )
    structure = ra.EventualStructure(bound, period, offsets)
    for k in range(bound + 1, bound + 3 * period + 1):
        if phi.evaluate(k) != k + structure.offset_at(k):
            raise RuntimeError(f"composition is not residue-offset beyond {bound} (at {k})")
    return structure


def equal_up_to_by_levels(a, b, n_max: int) -> we.EqualityResult:
    """Reference for ``equal_up_to``: both sides projected afresh at every level."""
    for n in range(1, n_max + 1):
        wa, wb = we.project(a, n), we.project(b, n)
        if wa != wb:
            return we.EqualityResult(False, n, wa, wb)
    return we.EqualityResult(True)


def project_by_recursion(e: we.WordExpr, n: int) -> fw.ReducedWord:
    """Reference for ``word_expr._project``: one recursive call per node, each
    factor reduced on its own and every concatenation reduced again."""
    if isinstance(e, we.Letter):
        return fw.reduce([(e.index, e.exp)]) if e.index <= n else fw.IDENTITY
    if isinstance(e, we.Concat):
        return fw.concat_all([project_by_recursion(f, n) for f in e.factors])
    if isinstance(e, we.Inverse):
        return fw.invert(project_by_recursion(e.of, n))
    if isinstance(e, we.OmegaProd):
        factors = we.contributing_factors(e.spec, n)
        return fw.concat_all([project_by_recursion(factors[m], n) for m in sorted(factors)])
    if isinstance(e, we.TauProd):
        factors = we.contributing_factors(e.spec, n)
        order = sorted(factors, key=lambda m: Fraction(2 * m + 1, 1 << m.bit_length()))  # the dyadic key
        return fw.concat_all([project_by_recursion(factors[m], n) for m in order])
    raise TypeError(f"cannot project {type(e).__name__}")


def collect_eta_by_recursion(e: we.WordExpr, sign: int, consts: dict[int, int], aps: list) -> None:
    """Reference for the reading in ``word_expr._eta``: the signed exponent sum
    of each constant letter goes to ``consts``, each symbolic leaf to ``aps``
    as ``(base, coef, signed exp)``."""
    if isinstance(e, we.Letter):
        consts[e.index] = consts.get(e.index, 0) + sign * e.exp
        if consts[e.index] == 0:
            del consts[e.index]
    elif isinstance(e, we.SymLetter):
        aps.append((e.base, e.coef, sign * e.exp))
    elif isinstance(e, we.Concat):
        for f in e.factors:
            collect_eta_by_recursion(f, sign, consts, aps)
    elif isinstance(e, we.Inverse):
        collect_eta_by_recursion(e.of, -sign, consts, aps)
    elif isinstance(e, (we.OmegaProd, we.TauProd)):
        for f in e.spec.prefix:
            collect_eta_by_recursion(f, sign, consts, aps)
        if isinstance(e.spec.tail, we.Template):
            for body in e.spec.tail.bodies:
                collect_eta_by_recursion(body, sign, consts, aps)
    else:
        raise TypeError(f"cannot collect {type(e).__name__}")


# (shape, path of the chain's first node, path step per level): the deepest node
# of ``nesting_chain(shape, levels)`` sits at head + step * (levels - head level)
NESTING_CHAINS = [
    ("concat", "expr", ".factors[0]"),
    ("inverse", "expr", ".of"),
    ("prefix", "expr.prefix[0]", ".factors[0]"),
    ("body", "expr.tail.bodies[0]", ".of"),
]


def nesting_chain(shape: str, levels: int) -> we.WordExpr:
    """An expression whose deepest node is ``levels`` below the root: a chain of
    concats or inverses around a letter, or an omega product whose prefix holds
    a concat chain or whose template body is an inverse chain."""
    e = we.SymLetter(1, 1, 1) if shape == "body" else we.Letter(1, 1)
    for _ in range(levels if shape in ("concat", "inverse") else levels - 1):
        e = we.Inverse(e) if shape in ("inverse", "body") else we.Concat((e,))
    if shape == "prefix":
        return we.OmegaProd(we.SeqSpec((e,), we.Trivial()))
    if shape == "body":
        return we.OmegaProd(we.SeqSpec((), we.Template((e,))))
    return e


def nesting_chain_json(shape: str, levels: int) -> dict:
    """The canonical JSON of ``nesting_chain(shape, levels)``, built directly, since
    ``to_json`` refuses a chain past ``MAX_NESTING``."""
    e: dict = {"type": "letter", "index": 1, "exp": 1}
    if shape == "body":
        e = {"type": "letter", "base": 1, "coef": 1, "exp": 1}
    for _ in range(levels if shape in ("concat", "inverse") else levels - 1):
        e = {"type": "inverse", "of": e} if shape in ("inverse", "body") else {"type": "concat", "factors": [e]}
    if shape == "prefix":
        return {"type": "omega", "prefix": [e], "tail": {"kind": "trivial"}}
    if shape == "body":
        return {"type": "omega", "prefix": [], "tail": {"kind": "template", "body": e}}
    return e


def too_deep_path(head: str, step: str) -> str:
    """The path of the first node past ``MAX_NESTING`` in a ``NESTING_CHAINS`` chain."""
    head_level = 0 if head == "expr" else 1
    return head + step * (we.MAX_NESTING + 1 - head_level)


def reassemble(pairs: Sequence[tuple[fw.ReducedWord, fw.ReducedWord]]) -> fw.ReducedWord:
    """Multiply out a commutator decomposition (the round-trip oracle)."""
    return fw.concat_all([fw.commutator(a, b) for a, b in pairs])


def commutator_decompose_by_sorting(w: fw.ReducedWord) -> list[tuple[fw.ReducedWord, fw.ReducedWord]]:
    """Reference for ``commutator_decompose``: write w as an explicit product
    of commutators by insertion-sorting its syllables.

    Moving syllable ``a`` left across the maximal out-of-order block ``B``
    rewrites ``P B a S`` as ``(P [B, a] P^-1) P a B S``, emitting one
    conjugated commutator per moved syllable.  The fully sorted word merges
    per letter to exponent zero, i.e. to the identity, so the emitted
    commutators multiply out to w.
    """
    if fw.exponent_sums(w):
        raise fw.NotInCommutatorSubgroupError(
            f"nonzero exponent sums {fw.exponent_sums(w)}: not in the commutator subgroup"
        )
    pairs: list[tuple[fw.ReducedWord, fw.ReducedWord]] = []
    syls = list(w.syllables)
    for i in range(1, len(syls)):
        letter = syls[i][0]
        j = i
        while j > 0 and syls[j - 1][0] > letter:
            j -= 1
        if j == i:
            continue
        prefix = syls[:j]
        block = syls[j:i]
        a = syls[i]
        inv_prefix = [(l, -e) for l, e in reversed(prefix)]
        left = fw.reduce(prefix + block + inv_prefix)
        right = fw.reduce(prefix + [a] + inv_prefix)
        if fw.commutator(left, right):
            pairs.append((left, right))
        syls[j:i + 1] = [a] + block
    return pairs


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


def q_tuple(m: FiniteSpaceModel, t: Sequence[str]) -> Word:
    """Drop basepoint entries, preserving order."""
    for x in t:
        if x not in m.points:
            raise ModelError(f"tuple entry {x!r} is not a model point")
    return tuple(x for x in t if x != m.base)


def concat_words(a: Word, b: Word) -> Word:
    return tuple(a) + tuple(b)


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


def minimal_open_by_search(m: FiniteSpaceModel, w: Word, n: int) -> frozenset[Word]:
    """Reference for ``james_monoid.minimal_open``: a breadth-first search of w's up-closure."""
    seen = {w}
    frontier = [w]
    while frontier:
        nxt = []
        for u in frontier:
            for v in jm.word_successors(m, u, n):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return frozenset(seen)


def topology_report_by_search(m: FiniteSpaceModel, n: int, min_open=minimal_open_by_search) -> jm.TopologyReport:
    """Reference for ``james_monoid.topologies_agree``: one minimal-open search per stage word and stage."""
    stage = set(jm.words_up_to(m, n))
    quotient = {w: min_open(m, w, n) for w in stage}
    agree = True
    stable = True
    certificate = None
    for k, flag in ((n + 1, "agree"), (n + 2, "stable")):
        for w in sorted(stage):
            sub = frozenset(u for u in min_open(m, w, k) if len(u) <= n)
            if sub != quotient[w]:
                if flag == "agree":
                    agree = False
                stable = False
                if certificate is None:
                    certificate = (w, quotient[w], sub)
        if not stable:
            break
    return jm.TopologyReport(
        n=n,
        agree=agree,
        stable=stable,
        certificate=certificate,
        stage_t1=all(quotient[w] == frozenset([w]) for w in stage),
        base_closed=m.base_is_closed,
        model_t1=m.is_t1,
        closed_in_next=jm.stage_closed_in_next(m, n),
    )


def fiber_counts_by_tuples(m: FiniteSpaceModel, n: int) -> Counter:
    """Reference for ``james_monoid.fiber_counts_by_pass``: one pass over every tuple of the n-th power."""
    return Counter(q_tuple(m, t) for t in itertools.product(m.points, repeat=n))


def word_nbhd_stats_by_specs(tables: jm.Stage, w: Word) -> dict:
    """Reference for ``james_monoid.word_nbhd_stats``: one mask and one saturation test per spec."""
    base = tables.model.base
    per_letter = [[o for o in tables.opens if x in o and base not in o] for x in w]
    sizes = []
    saturated = 0
    for us in itertools.product(*per_letter):
        for v in tables.base_opens:
            mask = jm.nbhd_mask(tables, w, us, v)
            sizes.append(mask.bit_count())
            saturated += jm.mask_saturated(tables, mask)
    return {
        "specs": len(sizes),
        "saturated": saturated,
        "smallest": min(sizes, default=0),
        "largest": max(sizes, default=0),
    }


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    if not a or not b:
        return []
    if len(a[0]) != len(b):
        raise ValueError(f"cannot multiply a {len(a)}x{len(a[0])} by a {len(b)}x{len(b[0])} matrix")
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _scaled_keys(ms: Sequence[int]) -> list[int]:
    """The keys (2m+1)/2^L of the components ms, as integers on one scale 2^k."""
    k = max((m.bit_length() for m in ms), default=0)
    return [(2 * m + 1) << (k - m.bit_length()) for m in ms]


class ScanEmbedding:
    """Reference for ``orders.Embedding``: the scan-based placement.

    Canonical order embedding of a source order into the components.

    Elements are placed in index order; element i goes to the least-numbered
    component fitting strictly between the images of its already-placed
    neighbours, with the fixed ceiling component 1 = (1/3, 2/3) as a
    global upper bound.  The ceiling keeps images of upper-unbounded sources
    bounded above by a component.  Deterministic and memoized; placing index
    n touches only the n-1 earlier placements.

    The memo is internal mutable state: use an instance from one thread, or
    guard it externally.
    """

    def __init__(self, spec: OrderSpec):
        self.spec = spec
        self._images: list[int] = []  # component number of source index i at i-1
        self._membership: dict[int, Optional[int]] = {}

    def ensure(self, count: int) -> None:
        if self.spec.size is not None:
            count = min(count, self.spec.size)
        while len(self._images) < count:
            self._place_next()

    def _place_next(self) -> None:
        i = len(self._images) + 1
        keys = _scaled_keys(self._images)
        left: list[tuple[int, int]] = []  # (key, component number)
        right: list[tuple[int, int]] = []
        for j, pair in enumerate(zip(keys, self._images), start=1):
            side = self.spec.cmp(j, i)
            if side == 0:
                raise ValueError(f"source indices {j} and {i} compare equal")
            (left if side < 0 else right).append(pair)
        lower = max(left)[1] if left else None
        upper = min(right)[1] if right else _CEILING
        self._images.append(least_component_in(lower, upper))

    def __call__(self, i: int) -> CantorComponent:
        return theta(self.image_index(i))

    def image_index(self, i: int) -> int:
        """Component number of the image of source index i."""
        self.spec.check_index(i)
        self.ensure(i)
        return self._images[i - 1]

    def index_of_component(self, m: int, max_steps: int = 200000) -> Optional[int]:
        """Source index mapped to component m, or None if m is never hit.

        Decided by simulating placements with a per-source stopping rule:
        finite sources are exhausted; for omega, zeta, and omega+omega the
        image frontiers are monotone, so a candidate is excluded once the
        relevant frontier passes it; the rationals source provably hits every
        component left of the ceiling.
        """
        if m in self._membership:
            return self._membership[m]
        result = self._decide_membership(m, max_steps)
        self._membership[m] = result
        return result

    def _decide_membership(self, m: int, max_steps: int) -> Optional[int]:
        if compare(m, _CEILING) >= 0:
            return None  # images live strictly left of the ceiling
        for i, img in enumerate(self._images, start=1):
            if img == m:
                return i
        spec = self.spec
        if spec.size is not None:
            self.ensure(spec.size)
            for i, img in enumerate(self._images, start=1):
                if img == m:
                    return i
            return None
        for _ in range(max_steps):
            if self._excluded(m):
                return None
            self._place_next()
            if self._images[-1] == m:
                return len(self._images)
        raise RuntimeError(f"membership of component {m} undecided after {max_steps} steps")

    def _excluded(self, m: int) -> bool:
        if not self._images:
            return False
        *keys, target = _scaled_keys([*self._images, m])
        spec = self.spec
        if isinstance(spec, Omega):
            return max(keys) > target
        if isinstance(spec, IntegersZeta):
            return min(keys) < target < max(keys)
        if isinstance(spec, OmegaPlusOmega):
            first, second = keys[0::2], keys[1::2]
            if first and target < max(first):
                return True  # below the first copy's ascending frontier
            if len(second) >= 2 and second[0] < target < max(second):
                return True  # strictly inside the second copy's span
            return False
        if isinstance(spec, Rationals):
            return False  # every component left of the ceiling is eventually hit
        raise RuntimeError(f"no membership rule for source {spec}")


class CountingExtendedBijection:
    """Reference for ``orders.ExtendedBijection``: the counting-rank ``phi``.

    Bijection of all components extending nu o psi o mu^-1.

    Component numbers in the image of mu map through psi; the rest are
    matched to the complement of nu's image in increasing numeric order.
    phi is the induced bijection of component numbers.
    """

    def __init__(self, mu, nu, psi: Callable[[int], int]):
        self.mu = mu
        self.nu = nu
        self.psi = psi
        self._phi_cache: dict[int, int] = {}

    def phi(self, n: int) -> int:
        if n in self._phi_cache:
            return self._phi_cache[n]
        i = self.mu.index_of_component(n)
        if i is not None:
            result = self.nu.image_index(self.psi(i))
        else:
            rank = sum(
                1 for j in range(1, n + 1) if self.mu.index_of_component(j) is None
            )
            result = self._nth_complement_of_nu(rank)
        self._phi_cache[n] = result
        return result

    def component_map(self, c: CantorComponent) -> CantorComponent:
        return theta(self.phi(theta_inv(c)))

    def _nth_complement_of_nu(self, rank: int) -> int:
        count = 0
        j = 0
        while count < rank:
            j += 1
            if self.nu.index_of_component(j) is None:
                count += 1
        return j


def wedge_images_by_scan(v: sp.SpeckerVector, presentations, blocks: int) -> list[dict]:
    """Reference for ``specker.wedge_images``: every candidate letter is scanned for every block."""
    declared, repeat_from, letter_map = presentations
    if not declared:
        raise ValueError("presentations file declares no blocks")
    if letter_map and not v.has_finite_support:
        raise ValueError("an explicit letter map needs a finite-support image")
    if letter_map:
        support = [i + 1 for i, a in enumerate(v.prefix) if a != 0]
        missing = [L for L in support if L not in letter_map]
        if missing:
            raise ValueError(f"letters outside the declared map: {missing}")
    candidates = sorted(set(range(1, blocks + 1)) | set(letter_map))
    cycle = declared[repeat_from:]
    rows = []
    for k in range(1, blocks + 1):
        block = declared[k - 1] if k <= len(declared) else cycle[(k - len(declared) - 1) % len(cycle)]
        gens = block["generators"]
        coords = [0] * gens
        for letter in candidates:
            blk, gen = letter_map.get(letter, (letter, 1))
            if blk != k:
                continue
            if not 1 <= gen <= gens:
                raise ValueError(f"letter {letter} maps to missing generator {gen} in block {k}")
            coords[gen - 1] += v.at(letter)
        rank, torsion, image = sp.h1_image(block.get("relators", []), gens, coords)
        rows.append({"block": k, "free_rank": rank, "torsion": torsion, "image": image})
    return rows
