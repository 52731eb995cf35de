"""Finitely described bijections of the positive integers.

Three constructors (disjoint finite cycles, periodic block permutations,
and compositions) plus the two special rules used in rearrangement experiments:
the 4-periodic swap that turns a flattened commutator sequence into
consecutive inverse pairs, and the sparse embedding k = 2^j - 1 that places a
given bijection on a thin set and fixes everything else.

Every spec evaluates anywhere, has a computable inverse, and (except sparse
embeddings) is eventually a residue-offset map: beyond a bound, phi(k) =
k + offset[(k-1) mod P].  That structure is what lets an infinite product
expression stay finitely described after rearrangement.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm

from ._frozen import Frozen


class MalformedBijectionError(ValueError):
    """Overlapping cycles, non-permutation residues, and similar, in the composition entry ``path``, if any."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.message, self.path = message, path


class EventualStructure(Frozen):
    """phi(k) = k + offsets[(k-1) % period] for all k > bound."""

    _fields = ("bound", "period", "offsets")

    def __init__(self, bound: int, period: int, offsets: tuple[int, ...]) -> None:
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "offsets", offsets)

    def offset_at(self, k: int) -> int:
        return self.offsets[(k - 1) % self.period]


class BijectionSpec(Frozen):
    def evaluate(self, k: int) -> int:
        raise NotImplementedError

    def inverse(self) -> "BijectionSpec":
        raise NotImplementedError

    def eventual_structure(self) -> EventualStructure:
        raise NotImplementedError

    def preserving_bound(self, at_least: int) -> int:
        """A bound B >= at_least with {1..B} mapped onto itself.

        Beyond its bound the spec permutes each period-block, so any aligned
        multiple of the period works.
        """
        st = self.eventual_structure()
        base = max(at_least, st.bound, 1)
        return -(-base // st.period) * st.period

    def to_json(self) -> dict:
        raise NotImplementedError

    def __call__(self, k: int) -> int:
        return self.evaluate(k)


class FiniteSupport(BijectionSpec):
    """Product of disjoint cycles of positive integers, identity elsewhere."""

    _fields = ("cycles",)

    def __init__(self, cycles: tuple[tuple[int, ...], ...]) -> None:
        seen: set[int] = set()
        for cycle in cycles:
            for x in cycle:
                if x < 1:
                    raise MalformedBijectionError(f"cycle entry {x} must be positive")
                if x in seen:
                    raise MalformedBijectionError(f"cycles overlap at {x}")
                seen.add(x)
        object.__setattr__(self, "cycles", cycles)

    @cached_property
    def _cycle_table(self) -> dict[int, int]:
        """Each moved point's image, built on first use."""
        table = {}
        for cycle in self.cycles:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                table[a] = b
        return table

    def evaluate(self, k: int) -> int:
        if k < 1:
            raise ValueError("domain is the positive integers")
        return self._cycle_table.get(k, k)

    def inverse(self) -> "FiniteSupport":
        return FiniteSupport(tuple(tuple(reversed(c)) for c in self.cycles))

    def eventual_structure(self) -> EventualStructure:
        bound = max((x for c in self.cycles for x in c), default=0)
        return EventualStructure(bound, 1, (0,))

    def to_json(self) -> dict:
        return {"kind": "finite", "cycles": [list(c) for c in self.cycles]}


class BlockPermute(BijectionSpec):
    """Permutes each block {jP+1, ..., (j+1)P} by a fixed residue permutation.

    k with residue c = (k-1) mod P maps to the position with residue perm[c]
    in the same block.
    """

    _fields = ("period", "perm")

    def __init__(self, period: int, perm: tuple[int, ...]) -> None:
        if period < 1:
            raise MalformedBijectionError("period must be positive")
        if len(perm) != period or sorted(perm) != list(range(period)):
            raise MalformedBijectionError(
                f"perm {perm} is not a permutation of 0..{period - 1}"
            )
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "perm", perm)

    def evaluate(self, k: int) -> int:
        if k < 1:
            raise ValueError("domain is the positive integers")
        block, c = divmod(k - 1, self.period)
        return block * self.period + self.perm[c] + 1

    def inverse(self) -> "BlockPermute":
        inv = [0] * self.period
        for c, target in enumerate(self.perm):
            inv[target] = c
        return BlockPermute(self.period, tuple(inv))

    def eventual_structure(self) -> EventualStructure:
        offsets = tuple(self.perm[c] - c for c in range(self.period))
        return EventualStructure(0, self.period, offsets)

    def to_json(self) -> dict:
        return {"kind": "block", "period": self.period, "perm": list(self.perm)}


class Compose(BijectionSpec):
    """Composition, evaluated right to left: Compose([f, g])(k) = f(g(k))."""

    _fields = ("parts",)

    def __init__(self, parts: tuple[BijectionSpec, ...]) -> None:
        object.__setattr__(self, "parts", parts)

    def evaluate(self, k: int) -> int:
        for part in reversed(self.parts):
            k = part.evaluate(k)
        return k

    def inverse(self) -> "Compose":
        return Compose(tuple(p.inverse() for p in reversed(self.parts)))

    def eventual_structure(self) -> EventualStructure:
        # in application order, each stage must see inputs beyond its own bound; inputs shrink
        # by at most the minimum offsets of earlier stages.  Beyond the bound the earlier stages
        # move k to k + a, a = offsets[(k-1) % period], and st.period divides the new period: exact
        bound, shift, period, offsets = 0, 0, 1, (0,)
        for st in (p.eventual_structure() for p in reversed(self.parts)):
            bound = max(bound, st.bound - shift)
            shift += min(st.offsets)
            period = lcm(period, st.period)
            a = [offsets[c % len(offsets)] for c in range(period)]
            offsets = tuple(a[c] + st.offsets[(c + a[c]) % st.period] for c in range(period))
        bound = -(-bound // period) * period  # align so offsets index by (k-1) % period
        return EventualStructure(bound, period, offsets)

    def to_json(self) -> dict:
        return {"kind": "compose", "of": [p.to_json() for p in self.parts]}


def identity() -> FiniteSupport:
    return FiniteSupport(())


def transposition(a: int, b: int) -> FiniteSupport:
    return FiniteSupport(((a, b),))


def eh_shuffle() -> BlockPermute:
    """The 4-periodic swap of each block's middle two positions.

    Applied to the flattened factor sequence a, b, a^-1, b^-1, a', b', ... of
    a product of commutators, it produces consecutive inverse pairs
    a, a^-1, b, b^-1, ..., so every projection collapses to the identity.
    """
    return BlockPermute(4, (0, 2, 1, 3))


NAMED = {"identity": identity, "eh_shuffle": eh_shuffle}


class SparseEmbed:
    """Bijection acting as ``2^k - 1 -> 2^{inner(k)} - 1`` and fixing the rest.

    The complement of {2^k - 1} is matched to itself in increasing order,
    i.e. pointwise fixed: the canonical completion of the partial rule.
    """

    def __init__(self, inner: BijectionSpec):
        self.inner = inner

    def evaluate(self, k: int) -> int:
        if k < 1:
            raise ValueError("domain is the positive integers")
        j = (k + 1).bit_length() - 1
        if k == 2**j - 1:
            return 2 ** self.inner.evaluate(j) - 1
        return k

    def inverse(self) -> "SparseEmbed":
        return SparseEmbed(self.inner.inverse())

    def preserving_bound(self, at_least: int) -> int:
        # 2^K - 1 works whenever the inner bijection maps {1..K} onto itself
        k = max(at_least, 1).bit_length()  # the least k >= 1 with 2^k - 1 >= at_least
        k = self.inner.preserving_bound(k)
        return 2**k - 1

    def __call__(self, k: int) -> int:
        return self.evaluate(k)


def sparse_embed(inner: BijectionSpec) -> SparseEmbed:
    return SparseEmbed(inner)


def is_bijection(phi, bound: int) -> bool:
    """Bounded verification that phi permutes {1..bound}.

    Exact when the image of {1..bound} is {1..bound} (block-aligned bounds,
    finite support inside the bound).  Otherwise tolerates boundary effects:
    injectivity on {1..bound} plus coverage of {1..bound - d} where d is the
    largest displacement observed.
    """
    values = [phi.evaluate(k) if hasattr(phi, "evaluate") else phi(k) for k in range(1, bound + 1)]
    if not values:
        return True  # the empty range is trivially permuted
    if len(set(values)) != bound or min(values) < 1:
        return False
    if sorted(values) == list(range(1, bound + 1)):
        return True
    d = max(abs(v - k) for k, v in enumerate(values, start=1))
    covered = set(values)
    return all(m in covered for m in range(1, bound - d + 1))


def bijection_from_json(obj) -> BijectionSpec:
    if not isinstance(obj, dict):
        raise MalformedBijectionError(f"a bijection must be an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    try:
        if kind == "finite":
            return FiniteSupport(tuple(_int_list(c, "cycle") for c in _list(obj["cycles"], "cycles")))
        if kind == "block":
            period = obj["period"]
            if type(period) is not int:
                raise MalformedBijectionError(f"period must be an integer, got {period!r}")
            return BlockPermute(period, _int_list(obj["perm"], "perm"))
        if kind == "compose":
            parts = []
            for i, p in enumerate(_list(obj["of"], "of")):
                try:
                    parts.append(bijection_from_json(p))
                except MalformedBijectionError as exc:
                    where = f"of[{i}].{exc.path}" if exc.path else f"of[{i}]"  # such as of[0].of[1]
                    raise MalformedBijectionError(exc.message, where) from None
            return Compose(tuple(parts))
    except KeyError as exc:  # a required field of this bijection; nested ones raise their own error
        raise MalformedBijectionError(f"missing field {exc.args[0]!r} in a {kind} bijection") from None
    raise MalformedBijectionError(f"unknown bijection kind {kind!r}")


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise MalformedBijectionError(f"{what} must be a list, got {value!r}")
    return value


def _int_list(value, what: str) -> tuple[int, ...]:
    """The entries of a JSON list of integers; floats, strings and bools are rejected."""
    if any(type(x) is not int for x in _list(value, what)):
        raise MalformedBijectionError(f"{what} entries must be integers, got {value!r}")
    return tuple(value)
