"""Exact arithmetic in free groups on generators l1, l2, l3, ...

Words are kept in run-length (syllable) form: a freely reduced word is a
sequence of (letter_index, exponent) pairs with positive letter indices,
nonzero exponents, and distinct adjacent letters.  The empty sequence is the
identity.  Letters are indexed from 1.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from ._frozen import Frozen


class MalformedWordError(ValueError):
    """Raised for syllables with non-positive letter indices."""


class NotInCommutatorSubgroupError(ValueError):
    """Raised when a word with a nonzero exponent sum is decomposed."""


Syllable = tuple[int, int]


def _reduce_syllables(raw: Iterable[Syllable]) -> tuple[Syllable, ...]:
    stack: list[list[int]] = []
    for letter, exp in raw:
        if letter < 1:
            raise MalformedWordError(f"letter index must be positive, got {letter}")
        if exp == 0:
            continue
        if stack and stack[-1][0] == letter:
            stack[-1][1] += exp
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([letter, exp])
    return tuple((l, e) for l, e in stack)


class ReducedWord(Frozen):
    """A freely reduced word, e.g. l1 l2^-1 l3^2.

    Use :func:`reduce` (or the arithmetic operators) to build instances; the
    constructor trusts its input to already be reduced.
    """

    _fields = ("syllables",)
    __slots__ = _fields

    def __init__(self, syllables: tuple[Syllable, ...] = ()) -> None:
        object.__setattr__(self, "syllables", syllables)

    def __mul__(self, other: "ReducedWord") -> "ReducedWord":
        return concat(self, other)

    def __invert__(self) -> "ReducedWord":
        return invert(self)

    def __bool__(self) -> bool:
        return bool(self.syllables)

    @property
    def is_identity(self) -> bool:
        return not self.syllables

    @property
    def syllable_count(self) -> int:
        return len(self.syllables)

    @property
    def length(self) -> int:
        """Word length counting letters with multiplicity."""
        return sum(abs(e) for _, e in self.syllables)

    def max_letter(self) -> int:
        """Largest letter index used; 0 for the identity."""
        return max((l for l, _ in self.syllables), default=0)

    def __str__(self) -> str:
        return render_word(self)

    def __repr__(self) -> str:
        return f"ReducedWord({render_word(self)!r})"


IDENTITY = ReducedWord()


def reduce(raw: Iterable[Syllable]) -> ReducedWord:
    """Freely reduce a raw syllable sequence.

    Adjacent syllables of the same letter are merged and zero exponents
    dropped, repeatedly, which suffices for full free reduction of a
    concatenation of syllables.
    """
    return ReducedWord(_reduce_syllables(raw))


def word(*syllables: Syllable) -> ReducedWord:
    """Convenience constructor: ``word((1, 1), (2, -1))`` = l1 l2^-1."""
    return reduce(syllables)


def concat(a: ReducedWord, b: ReducedWord) -> ReducedWord:
    if not a.syllables:
        return b
    if not b.syllables:
        return a
    return reduce(a.syllables + b.syllables)


def concat_all(words: Sequence[ReducedWord]) -> ReducedWord:
    out: list[Syllable] = []
    for w in words:
        out.extend(w.syllables)
    return reduce(out)


def invert(a: ReducedWord) -> ReducedWord:
    return ReducedWord(tuple((l, -e) for l, e in reversed(a.syllables)))


def power(a: ReducedWord, n: int) -> ReducedWord:
    if n < 0:
        return power(invert(a), -n)
    return concat_all([a] * n)


def commutator(a: ReducedWord, b: ReducedWord) -> ReducedWord:
    return concat_all([a, b, invert(a), invert(b)])


def delete_above(w: ReducedWord, n: int) -> ReducedWord:
    """Delete every syllable with letter index > n and re-reduce.

    This is the homomorphism onto the free group on l1..ln, compatible with
    the tower: deleting above n+1 and then above n equals deleting above n.
    """
    return reduce(s for s in w.syllables if s[0] <= n)


def delete_letter(w: ReducedWord, n: int) -> ReducedWord:
    """Delete every syllable with letter index exactly n and re-reduce."""
    return reduce(s for s in w.syllables if s[0] != n)


def exponent_sum(w: ReducedWord, n: int) -> int:
    """Total exponent of letter n in w (the winding number around circle n)."""
    return sum(e for l, e in w.syllables if l == n)


def exponent_sums(w: ReducedWord) -> dict[int, int]:
    out: dict[int, int] = {}
    for l, e in w.syllables:
        out[l] = out.get(l, 0) + e
    return {l: e for l, e in out.items() if e != 0}


def commutator_decompose(w: ReducedWord) -> list[tuple[ReducedWord, ReducedWord]]:
    """Write w as an explicit product of commutators.

    Requires every letter's exponent sum to be zero.  The returned pairs
    satisfy ``reduce(prod [a_i, b_i]) == w`` and there are at most
    ``w.syllable_count`` of them.

    Strategy: peel the letters off in increasing order.  With x the smallest
    letter, ``w = u_0 x^e_1 u_1 ... x^e_k u_k``, ``U_i = u_0 ... u_i`` and
    ``E_i = e_1 + ... + e_i`` (``E_k = 0``), moving each power of x to the
    right gives ``w = prod_i [x^E_(i-1) U_(i-1) x^-E_(i-1), x^e_i] * U_k``,
    and ``U_k = delete_letter(w, x)`` is peeled next.  So every pair is
    ``(a, x^e)`` with ``a`` in letters >= x; it is trivial, and skipped,
    exactly when ``U_(i-1)`` reduces to the identity.
    """
    if exponent_sums(w):
        raise NotInCommutatorSubgroupError(
            f"nonzero exponent sums {exponent_sums(w)}: not in the commutator subgroup"
        )
    pairs: list[tuple[ReducedWord, ReducedWord]] = []
    while w.syllables:
        x = min(l for l, _ in w.syllables)
        before: list[Syllable] = []  # u_0 ... u_(i-1)
        total = 0  # E_(i-1)
        for letter, exp in w.syllables:
            if letter != x:
                before.append((letter, exp))
                continue
            if u := reduce(before):
                pairs.append((reduce([(x, total), *u.syllables, (x, -total)]), ReducedWord(((x, exp),))))
            total += exp
        w = delete_letter(w, x)
    return pairs


def reassemble(pairs: Sequence[tuple[ReducedWord, ReducedWord]]) -> ReducedWord:
    """Multiply out a commutator decomposition (the round-trip oracle)."""
    return concat_all([commutator(a, b) for a, b in pairs])


def render_word(w: ReducedWord) -> str:
    """Plain-text syntax: ``l1 l2^-1 l3^2``; the identity renders as ``1``."""
    if w.is_identity:
        return "1"
    parts = []
    for l, e in w.syllables:
        parts.append(f"l{l}" if e == 1 else f"l{l}^{e}")
    return " ".join(parts)


def parse_word(text: str) -> ReducedWord:
    """Parse the plain-text word syntax (whitespace-separated syllables)."""
    text = text.strip()
    if text in ("", "1"):
        return IDENTITY
    raw: list[Syllable] = []
    for token in text.split():
        body = token
        exp = 1
        if "^" in token:
            body, exp_text = token.split("^", 1)
            try:
                exp = int(exp_text)
            except ValueError:
                raise MalformedWordError(f"bad exponent in {token!r}") from None
        if not body.startswith("l"):
            raise MalformedWordError(f"syllable {token!r} must look like l<index>[^exp]")
        try:
            letter = int(body[1:])
        except ValueError:
            raise MalformedWordError(f"bad letter index in {token!r}") from None
        raw.append((letter, exp))
    return reduce(raw)
