"""Word combinatorics and point-set checks for reduced products of words.

A finite based Alexandrov model is a finite poset with a basepoint; its open
sets are the up-sets, the minimal open neighbourhood of x is up(x), and {x}
is closed iff x is minimal.  Words over the non-basepoint points form the
free monoid; the length-n stage carries the quotient topology from the n-th
power of the model, where a tuple maps to the word obtained by dropping
basepoint entries.

Everything here is exhaustive and exact, and no check repeats work.
``stage_tables`` builds a stage once (tuple i of the n-th power is bit i,
with fiber masks and per-slot masks of every open set).  A standard
neighbourhood is an OR of ANDs of slot masks; each distinct one is checked
for saturation against the fiber masks once, and a word of length n, which
fills every slot, has one neighbourhood for every V.  Fibers are counted by
pushing the power through the quotient one slot at a time.  Minimal open
sets come from one memoised walk of the successor relation per stage, as
masks over one word-to-bit map shared by stages n to n + 2, so the quotient
topology on stage n is compared with the subspace topology from stages n + 1
and n + 2 by masking.  The set-based routines, the minimal-open search and
the tuple-pass fiber count live in the tests as oracles.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Sequence
from functools import cached_property
from math import comb

from ._frozen import Frozen


class ModelError(ValueError):
    pass


class SizeBoundError(ValueError):
    """Model or stage exceeds the exhaustive-check bounds."""


MAX_POINTS = 4  # points of a model, in every exhaustive check
MAX_N = 3  # the stage of the neighbourhood, saturation and topology checks
MAX_FIBER_N = 8  # the power whose fibers are enumerated


def _check_sweep_n(n: int) -> None:
    """The stages a neighbourhood or saturation sweep covers: 1 <= n <= MAX_N."""
    if n < 1:
        raise SizeBoundError(f"neighbourhood sweeps need n >= 1, got n={n}")
    if n > MAX_N:
        raise SizeBoundError(f"neighbourhood sweeps are bounded to n <= {MAX_N}")


Word = tuple[str, ...]


class FiniteSpaceModel(Frozen):
    """Finite poset with basepoint; opens are up-sets of the stored order."""

    _fields = ("points", "base", "le")  # le: the reflexive-transitive order, the pairs (x, y) with x <= y

    @cached_property
    def _ups(self) -> dict[str, frozenset[str]]:
        """The up-set of every point, computed once per model."""
        return {x: frozenset(y for y in self.points if (x, y) in self.le) for x in self.points}

    def up(self, x: str) -> frozenset[str]:
        return self._ups[x]

    def down(self, x: str) -> frozenset[str]:
        return frozenset(y for y, ups in self._ups.items() if x in ups)

    def letters(self) -> tuple[str, ...]:
        return tuple(p for p in self.points if p != self.base)

    def opens(self) -> list[frozenset[str]]:
        """All open sets (up-sets), smallest first."""
        pts = self.points
        subsets = (frozenset(p for i, p in enumerate(pts) if bits >> i & 1) for bits in range(1 << len(pts)))
        return sorted(filter(self.is_open, subsets), key=lambda s: (len(s), sorted(s)))

    def is_open(self, s) -> bool:
        s = frozenset(s)
        return s <= self._ups.keys() and all(self._ups[x] <= s for x in s)

    @property
    def is_t1(self) -> bool:
        # finite T1 = discrete = trivial order
        return all(x == y for x, y in self.le)

    @property
    def base_is_closed(self) -> bool:
        return self.down(self.base) == frozenset([self.base])


def model(points: Sequence[str], base: str, strict_pairs: Sequence[tuple[str, str]]) -> FiniteSpaceModel:
    """Build a model from generating order pairs (x, y) meaning x <= y.

    The reflexive-transitive closure is taken; antisymmetry is then checked.
    """
    pts = tuple(points)
    if len(set(pts)) != len(pts):
        raise ModelError("duplicate points")
    if base not in pts:
        raise ModelError(f"basepoint {base!r} not among the points")
    rel = {(p, p) for p in pts}
    for x, y in strict_pairs:
        if x not in pts or y not in pts:
            raise ModelError(f"order pair ({x!r}, {y!r}) uses unknown points")
        rel.add((x, y))
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(rel), list(rel)):
            if b == c and (a, d) not in rel:
                rel.add((a, d))
                changed = True
    for x, y in rel:
        if x != y and (y, x) in rel:
            raise ModelError(f"order is not antisymmetric: {x!r} <= {y!r} <= {x!r}")
    return FiniteSpaceModel(pts, base, frozenset(rel))


def parse_model(text: str) -> FiniteSpaceModel:
    """Parse ``points: e a b; base: e; le: e<a, a<b`` (';' or newlines)."""
    sections: dict[str, str] = {}
    for chunk in text.replace("\n", ";").split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise ModelError(f"cannot parse section {chunk!r}")
        key, value = chunk.split(":", 1)
        sections[key.strip()] = value.strip()
    if "points" not in sections or "base" not in sections:
        raise ModelError("model file needs 'points:' and 'base:' sections")
    points = sections["points"].split()
    base = sections["base"]
    pairs = []
    for pair in sections.get("le", "").split(","):
        pair = pair.strip()
        if not pair:
            continue
        if "<" not in pair:
            raise ModelError(f"order pair {pair!r} must look like x<y")
        x, y = (t.strip() for t in pair.split("<", 1))
        pairs.append((x, y))
    return model(points, base, pairs)


def render_model(m: FiniteSpaceModel) -> str:
    pairs = sorted((x, y) for x, y in m.le if x != y)
    le = ", ".join(f"{x}<{y}" for x, y in pairs)
    return f"points: {' '.join(m.points)}; base: {m.base}; le: {le}"


# ---------------------------------------------------------------------------
# Words and the quotient maps
# ---------------------------------------------------------------------------


def words_up_to(m: FiniteSpaceModel, n: int) -> list[Word]:
    letters = m.letters()
    out: list[Word] = []
    for length in range(n + 1):
        out.extend(itertools.product(letters, repeat=length))
    return out


# ---------------------------------------------------------------------------
# Quotient topology on the length-filtered stages
# ---------------------------------------------------------------------------


def word_successors(m: FiniteSpaceModel, w: Word, n: int) -> set[Word]:
    """One-step specializations of w inside the length-n stage.

    Single-slot moves generate the saturation preorder: replace a letter by
    something in its minimal open, delete a letter whose minimal open
    contains the basepoint, or insert a letter from the basepoint's minimal
    open when a slot is free.  Simultaneous product-order moves decompose
    into these without exceeding the ambient length.
    """
    out: set[Word] = set()
    for i, x in enumerate(w):
        for y in m.up(x):
            if y == x:
                continue
            if y == m.base:
                out.add(w[:i] + w[i + 1 :])
            else:
                out.add(w[:i] + (y,) + w[i + 1 :])
    if len(w) < n:
        for y in m.up(m.base):
            if y == m.base:
                continue
            for i in range(len(w) + 1):
                out.add(w[:i] + (y,) + w[i:])
    return out


def _open_walk(m: FiniteSpaceModel, n: int, bit: dict[Word, int]):
    """Memoised minimal opens in the length-n stage, as masks: word u is bit ``bit[u]``, and a
    word not in ``bit`` gets the next bit.  The minimal open of w is {w} with those of its
    successors; a successor step raises the sum of |down(x)| - |down(base)| over the letters,
    so the walk ends, below depth 40 within the bounds, and lists each word's successors once."""
    memo: dict[Word, int] = {}

    def walk(w: Word) -> int:
        mask = memo.get(w)
        if mask is None:
            mask = 1 << bit.setdefault(w, len(bit))
            for v in word_successors(m, w, n):
                mask |= walk(v)
            memo[w] = mask
        return mask

    return walk


def _words_in(mask: int, bit: dict[Word, int]) -> frozenset[Word]:
    words, out = list(bit), []  # words[i] has bit i
    while mask:
        out.append(words[(mask & -mask).bit_length() - 1])
        mask &= mask - 1
    return frozenset(out)


def minimal_open(m: FiniteSpaceModel, w: Word, n: int) -> frozenset[Word]:
    """Minimal open set of w in the quotient topology of the length-n stage."""
    bit: dict[Word, int] = {}
    return _words_in(_open_walk(m, n, bit)(w), bit)


def quotient_min_opens(m: FiniteSpaceModel, n: int) -> dict[Word, frozenset[Word]]:
    bit: dict[Word, int] = {}
    walk = _open_walk(m, n, bit)
    masks = {w: walk(w) for w in words_up_to(m, n)}
    return {w: _words_in(mask, bit) for w, mask in masks.items()}


def stage_closed_in_next(m: FiniteSpaceModel, n: int) -> bool:
    """Is the length-<=n stage closed in the length-(n+1) quotient stage?

    Equivalent to the set of basepoint-free (n+1)-tuples being an up-set,
    checked exhaustively.
    """
    tuples = itertools.product(m.letters(), repeat=n + 1)
    return not any(m.base in m.up(x) for t in tuples for x in t)


class TopologyReport(Frozen):
    _fields = ("n", "agree", "stable", "certificate", "stage_t1", "base_closed", "model_t1", "closed_in_next")


def topologies_agree(m: FiniteSpaceModel, n: int) -> TopologyReport:
    """Compare the quotient topology on the length-n stage with the subspace
    topology induced by the length-(n+1) quotient (and length-(n+2) as a
    stability check), via minimal open sets.

    Also reports whether the stage is T1, whether the basepoint is closed,
    and whether the stage is closed in the next one.
    """
    if len(m.points) > MAX_POINTS or n > MAX_N:
        raise SizeBoundError(
            f"bounds exceeded: {len(m.points)} points (max {MAX_POINTS}), n={n} (max {MAX_N})"
        )
    if n < 0:
        raise SizeBoundError(f"the topology check needs n >= 0, got n={n}")
    bit = {w: i for i, w in enumerate(words_up_to(m, n + 2))}  # by length: the stage is the low bits
    stage = sorted(words_up_to(m, n))
    stage_bits = (1 << len(stage)) - 1
    walk = _open_walk(m, n, bit)
    quotient = {w: walk(w) for w in stage}
    agree = True
    stable = True
    certificate = None
    for k, flag in ((n + 1, "agree"), (n + 2, "stable")):
        walk = _open_walk(m, k, bit)
        for w in stage:
            sub = walk(w) & stage_bits
            if sub != quotient[w]:
                if flag == "agree":
                    agree = False
                stable = False
                if certificate is None:
                    certificate = (w, _words_in(quotient[w], bit), _words_in(sub, bit))
        if not stable:
            break
    stage_t1 = all(quotient[w] == 1 << bit[w] for w in stage)
    return TopologyReport(
        n=n,
        agree=agree,
        stable=stable,
        certificate=certificate,
        stage_t1=stage_t1,
        base_closed=m.base_is_closed,
        model_t1=m.is_t1,
        closed_in_next=stage_closed_in_next(m, n),
    )


# ---------------------------------------------------------------------------
# Exhaustive model enumeration (for sweeps)
# ---------------------------------------------------------------------------

_POINT_NAMES = ("e", "a", "b", "c")


def all_models(max_points: int = MAX_POINTS) -> list[FiniteSpaceModel]:
    """Every labeled poset on at most max_points points with basepoint 'e'."""
    if max_points > MAX_POINTS:
        raise ValueError(f"max_points = {max_points} exceeds MAX_POINTS = {MAX_POINTS}")
    out = []
    for size in range(1, max_points + 1):
        pts = _POINT_NAMES[:size]
        pairs = [(x, y) for x in pts for y in pts if x != y]
        for bits in range(1 << len(pairs)):
            rel = {pairs[i] for i in range(len(pairs)) if bits >> i & 1}
            if not _is_strict_order(rel):
                continue
            out.append(FiniteSpaceModel(pts, "e", frozenset(rel | {(p, p) for p in pts})))
    return out


def _is_strict_order(rel: set[tuple[str, str]]) -> bool:
    for x, y in rel:
        if (y, x) in rel:
            return False
    for x, y in rel:
        for y2, z in rel:
            if y == y2 and (x, z) not in rel:
                return False
    return True


def canonical_key(m: FiniteSpaceModel):
    """Canonical form under relabelings of the non-basepoint points."""
    others = m.letters()
    best = None
    for perm in itertools.permutations(others):
        relabel = {m.base: "e"}
        relabel.update({p: _POINT_NAMES[i + 1] for i, p in enumerate(perm)})
        key = (len(m.points), tuple(sorted((relabel[x], relabel[y]) for x, y in m.le)))
        if best is None or key < best:
            best = key
    return best


# ---------------------------------------------------------------------------
# The bitmask stage engine: standard neighbourhoods and their saturation
# ---------------------------------------------------------------------------


class Stage(Frozen):
    """The length-<=n stage of one model as bitmasks: tuple i of the n-th power is bit i,
    and slot_masks[slot][open] holds the tuples with that slot in that open."""

    _fields = ("model", "n", "opens", "base_opens", "tuples", "fiber_mask", "slot_masks")


def stage_tables(m: FiniteSpaceModel, n: int) -> Stage:
    """Build the stage of ambient length n once; every neighbourhood check reads it."""
    tuples = list(itertools.product(m.points, repeat=n))
    fiber_mask: dict[Word, int] = {}
    for i, t in enumerate(tuples):
        w = tuple(x for x in t if x != m.base)
        fiber_mask[w] = fiber_mask.get(w, 0) | 1 << i
    opens = m.opens()
    return Stage(
        model=m,
        n=n,
        opens=opens,
        base_opens=[o for o in opens if m.base in o],
        tuples=tuples,
        fiber_mask=fiber_mask,
        slot_masks=[
            {o: sum(1 << i for i, t in enumerate(tuples) if t[slot] in o) for o in opens}
            for slot in range(n)
        ],
    )


def nbhd_mask(tables: Stage, w: Word, us: Sequence[frozenset[str]], v: frozenset[str]) -> int:
    """The standard neighbourhood of w with letter opens us and basepoint open v.

    It is the union, over the positions of the letters of w among the n
    slots, of the box with U_j at the j-th letter's slot and V elsewhere.
    """
    everything = (1 << len(tables.tuples)) - 1
    mask = 0
    for positions in itertools.combinations(range(tables.n), len(w)):
        slots = [v] * tables.n
        for p, u in zip(positions, us):
            slots[p] = u
        box = everything
        for masks, o in zip(tables.slot_masks, slots):
            box &= masks[o]
        mask |= box
    return mask


def mask_saturated(tables: Stage, mask: int) -> bool:
    """True iff the tuple mask is a union of fibers."""
    acc = 0
    for fmask in tables.fiber_mask.values():
        if fmask & mask:
            acc |= fmask
    return acc == mask


def word_nbhd_stats(tables: Stage, w: Word) -> dict:
    """Tabulate every standard neighbourhood of one word in the stage.

    'Every' means every choice of opens U_j containing the j-th letter but
    not the basepoint, and V containing the basepoint.
    """
    base = tables.model.base
    per_letter = [[o for o in tables.opens if x in o and base not in o] for x in w]
    # A word of length n fills every slot, so its one box never reads V: it
    # stands for all of base_opens.
    vs = tables.base_opens[:1] if len(w) == tables.n else tables.base_opens
    weight = len(tables.base_opens) // len(vs)
    masks = Counter(nbhd_mask(tables, w, us, v) for us in itertools.product(*per_letter) for v in vs)
    sizes = [mask.bit_count() for mask in masks]
    return {
        "specs": weight * masks.total(),
        "saturated": weight * sum(count for mask, count in masks.items() if mask_saturated(tables, mask)),
        "smallest": min(sizes, default=0),
        "largest": max(sizes, default=0),
    }


def sweep_standard_nbhds(m: FiniteSpaceModel, n: int) -> tuple[int, int]:
    """Check saturation of every standard neighbourhood at ambient length n.

    Returns (number checked, number saturated), summed by ``word_nbhd_stats``
    over every word of length <= n on one stage (1 <= n <= MAX_N).
    """
    _check_sweep_n(n)
    tables = stage_tables(m, n)
    stats = [word_nbhd_stats(tables, w) for w in words_up_to(m, n)]
    return sum(s["specs"] for s in stats), sum(s["saturated"] for s in stats)


def fiber_counts_by_pass(m: FiniteSpaceModel, n: int) -> dict[Word, int]:
    """Count the tuples of the n-th power over each word, one slot at a time: the new
    slot holds the basepoint (the word stays) or a letter x (the word gains x)."""
    letters = m.letters()
    counts = Counter({(): 1})
    for _ in range(n):
        grown = Counter(counts)
        for w, count in counts.items():
            for x in letters:
                grown[w + (x,)] += count
        counts = grown
    return counts


def expected_fiber_count(n: int, length: int) -> int:
    return comb(n, length)


def fiber_rows(m: FiniteSpaceModel, n: int) -> list[dict]:
    """Fiber size of each reduced word over the n-th power (0 <= n <= MAX_FIBER_N), and the expected C(n, length)."""
    if n < 0:
        raise SizeBoundError(f"fiber enumeration needs n >= 0, got n={n}")
    if n > MAX_FIBER_N:
        raise SizeBoundError(f"fiber enumeration is bounded to n <= {MAX_FIBER_N}")
    counts = fiber_counts_by_pass(m, n)
    rows = []
    for w in sorted(counts, key=lambda w: (len(w), w)):
        expected = expected_fiber_count(n, len(w))
        rows.append({"word": " ".join(w) or "(empty)", "count": counts[w], "expected": expected,
                     "ok": counts[w] == expected})
    return rows


def nbhd_rows(m: FiniteSpaceModel, n: int) -> list[dict]:
    """``word_nbhd_stats`` of every word of length <= n, on one stage (1 <= n <= MAX_N)."""
    _check_sweep_n(n)
    stage = stage_tables(m, n)
    return [{"word": " ".join(w) or "(empty)", **word_nbhd_stats(stage, w)}
            for w in sorted(words_up_to(m, n), key=lambda w: (len(w), w))]
