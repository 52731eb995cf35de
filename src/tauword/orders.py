"""Middle-third complementary intervals, ordered by exact dyadic keys.

The open intervals removed when building the middle-third Cantor set form a
countable dense linear order (order type of the rationals).  Component k of
level n has length 3^-n; enumerating levels in order and slots left to right
gives the pairing m <-> (level, slot) with m = 2^(level-1) + slot - 1 used to
place the factors of a transfinite concatenation.

Only the order of the components matters, and the Cantor function maps
component m of level L = m.bit_length() order-isomorphically onto the dyadic
rational (2m+1)/2^L - 1.  Every comparison and placement is decided on the
dyadic keys (2m+1)/2^L with integer arithmetic; the ternary endpoints ``lo``
and ``hi`` of a component are exact but serve only for display.

Also provides canonical order embeddings of the supported countable orders
into the components, and extension of a bijection between two embedded
sources to a bijection of all components (hence of their indices).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Callable, Sequence
from fractions import Fraction

from ._frozen import Frozen


# the ternary number with digit 2 at each set bit of a byte, 0 elsewhere
_TERNARY_OF_BYTE = [sum(2 * 3**i for i in range(8) if b >> i & 1) for b in range(256)]


class CantorComponent(Frozen):
    """Removed open interval I(level, slot); its position is its dyadic key."""

    _fields = ("level", "slot")
    __slots__ = _fields

    def __init__(self, level: int, slot: int) -> None:
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "slot", slot)

    @property
    def lo(self) -> Fraction:
        return Fraction(3 * self._parent_left() + 1, 3**self.level)

    @property
    def hi(self) -> Fraction:
        return Fraction(3 * self._parent_left() + 2, 3**self.level)

    def _parent_left(self) -> int:
        # left end of the parent closed interval times 3^(level-1): its
        # ternary digits are in {0, 2}, one 2 for each set bit of slot-1
        bits = self.slot - 1
        left = 0
        for byte in bits.to_bytes((bits.bit_length() + 7) // 8, "big"):
            left = left * 3**8 + _TERNARY_OF_BYTE[byte]
        return left

    def __lt__(self, other: "CantorComponent") -> bool:
        return compare(theta_inv(self), theta_inv(other)) < 0

    def __le__(self, other: "CantorComponent") -> bool:
        return compare(theta_inv(self), theta_inv(other)) <= 0

    def __str__(self) -> str:
        return f"I({self.level},{self.slot}) = ({self.lo}, {self.hi})"


def component(level: int, slot: int) -> CantorComponent:
    """The slot-th removed interval of the given level, counted left to right."""
    if level < 1 or not 1 <= slot <= 2 ** (level - 1):
        raise ValueError(f"no component at level {level}, slot {slot}")
    return CantorComponent(level, slot)


def _level(m: int) -> int:
    if m < 1:
        raise ValueError("component numbers start at 1")
    return m.bit_length()


def theta(m: int) -> CantorComponent:
    """Component number m in the level-major enumeration."""
    level = _level(m)
    return CantorComponent(level, m - (1 << (level - 1)) + 1)


def theta_inv(c: CantorComponent) -> int:
    return 2 ** (c.level - 1) + c.slot - 1


def compare(m1: int, m2: int) -> int:
    """-1, 0, or 1 as component m1 lies left of, equals, or lies right of m2."""
    if m1 == m2:
        return 0
    # cross-multiplied dyadic keys (2m+1) / 2^L
    a = (2 * m1 + 1) << _level(m2)
    b = (2 * m2 + 1) << _level(m1)
    return -1 if a < b else 1


def position_key(m: int) -> Fraction:
    """Sort key ordering component numbers by position: the dyadic (2m+1)/2^L."""
    return Fraction(2 * m + 1, 1 << _level(m))


def least_component_in(lower: int | None, upper: int | None) -> int:
    """Smallest component number strictly between components lower and upper.

    None stands for the left resp. right end of [0, 1], whose keys are 1 and
    2.  The answer is the key with the smallest denominator strictly between
    the two keys.  On a common scale 2^k with one spare bit, the candidate
    numerators are x+1 .. y, and the one with the most trailing zero bits is
    y with every bit below the highest bit where x and y differ cleared.
    That bit is set in y, so y shifted down to it is the odd numerator 2m+1,
    and one more shift gives m.
    """
    a, la = (1, 0) if lower is None else (2 * lower + 1, _level(lower))
    b, lb = (2, 0) if upper is None else (2 * upper + 1, _level(upper))
    k = max(la, lb) + 1
    x, y = a << (k - la), (b << (k - lb)) - 1
    if x >= y:
        raise ValueError(f"no component between components {lower} and {upper}")
    return y >> (x ^ y).bit_length()


# ---------------------------------------------------------------------------
# Countable order specs and their canonical embeddings.
# ---------------------------------------------------------------------------


class OrderSpec:
    """A countable linear order on index set 1..size (or all of N if infinite).

    ``key(i)`` maps an index to a totally ordered value; indices are compared
    through their keys.
    """

    size: int | None = None
    name = "order"

    def key(self, i: int):
        raise NotImplementedError

    def cmp(self, i: int, j: int) -> int:
        a, b = self.key(i), self.key(j)
        return -1 if a < b else (0 if a == b else 1)

    def check_index(self, i: int) -> None:
        if i < 1 or (self.size is not None and i > self.size):
            raise ValueError(f"index {i} outside source of {self}")

    def __str__(self) -> str:
        return self.name


class FiniteChain(OrderSpec):
    def __init__(self, size: int):
        if size < 0:
            raise ValueError("size must be nonnegative")
        self.size = size
        self.name = f"chain({size})"

    def key(self, i: int):
        return i


class ExplicitFinite(OrderSpec):
    """Finite order given by a list of comparable values (e.g. ints, Fractions)."""

    def __init__(self, values: Sequence):
        self.values = list(values)
        self.size = len(self.values)
        self.name = f"explicit({self.size})"
        for a in range(self.size):
            for b in range(self.size):
                if (self.values[a] < self.values[b]) == (self.values[b] < self.values[a]) and a != b:
                    raise ValueError("comparator is not a total order on the values")

    def key(self, i: int):
        return self.values[i - 1]


class Omega(OrderSpec):
    name = "omega"

    def key(self, i: int):
        return i


class OmegaPlusOmega(OrderSpec):
    """Two increasing copies, the first entirely below the second.

    Odd indices enumerate the first copy, even indices the second.
    """

    name = "omega+omega"

    def key(self, i: int):
        return (0, (i + 1) // 2) if i % 2 == 1 else (1, i // 2)


class IntegersZeta(OrderSpec):
    """Order type of the integers; indices zigzag 0, 1, -1, 2, -2, ..."""

    name = "zeta"

    def key(self, i: int):
        if i == 1:
            return 0
        return i // 2 if i % 2 == 0 else -(i // 2)


class Rationals(OrderSpec):
    """Order type of the rationals; indices enumerate 0, +-1, +-1/2, ...

    Positive rationals come from the Stern diatomic sequence, each exactly
    once; the enumeration interleaves 0, positives, and negatives.
    """

    name = "rationals"

    def key(self, i: int) -> Fraction:
        if i == 1:
            return Fraction(0)
        q = _stern_rational(i // 2)
        return q if i % 2 == 0 else -q


def _fusc(n: int) -> int:
    a, b = 1, 0
    while n:
        if n & 1:
            b += a
        else:
            a += b
        n >>= 1
    return b


def _stern_rational(n: int) -> Fraction:
    return Fraction(_fusc(n), _fusc(n + 1))


def order_spec(name: str) -> OrderSpec:
    """The order named omega, omega+omega, zeta, rationals, or chainN (also chain(N))."""
    named = {"omega": Omega, "omega+omega": OmegaPlusOmega, "zeta": IntegersZeta, "rationals": Rationals}
    if name in named:
        return named[name]()
    if name.startswith("chain"):
        try:
            return FiniteChain(int(name[5:].strip("()")))
        except ValueError:
            pass
    raise ValueError(f"unknown order spec {name!r} (use omega, omega+omega, zeta, rationals, chainN)")


_CEILING = 1  # component 1 = (1/3, 2/3) bounds every image above


class Embedding:
    """Canonical order embedding of a source order into the components.

    Elements are placed in index order; element i goes to the least-numbered
    component fitting strictly between the images of its already-placed
    neighbours, with the fixed ceiling component 1 = (1/3, 2/3) as a
    global upper bound.  The ceiling keeps images of upper-unbounded sources
    bounded above by a component.  Deterministic and memoized.

    Placement preserves the source order, so the images sorted by source key
    are also sorted by position: the neighbours of a new index are the
    images beside its key's insertion point, found by bisection.  The
    components no index maps to are found by one ascending scan and kept in
    a sorted list.

    The memo is internal mutable state: use an instance from one thread, or
    guard it externally.
    """

    def __init__(self, spec: OrderSpec):
        self.spec = spec
        self._images: list[int] = []  # component number of source index i at i-1
        self._keys: list = []  # placed source keys, ascending
        self._ascending: list[int] = []  # their images, hence ascending in position
        self._membership: dict[int, int | None] = {}  # every placed image is entered
        self._missed: list[int] = []  # component numbers no index maps to, ascending
        self._scanned = 0  # components 1.._scanned are decided

    def ensure(self, count: int) -> None:
        if self.spec.size is not None:
            count = min(count, self.spec.size)
        while len(self._images) < count:
            self._place_next()

    def _place_next(self) -> None:
        i = len(self._images) + 1
        key = self.spec.key(i)
        p = bisect_left(self._keys, key)
        if p < len(self._keys) and self._keys[p] == key:
            j = self._images.index(self._ascending[p]) + 1
            raise ValueError(f"source indices {j} and {i} compare equal")
        lower = self._ascending[p - 1] if p else None
        upper = self._ascending[p] if p < len(self._ascending) else _CEILING
        m = least_component_in(lower, upper)
        self._images.append(m)
        self._keys.insert(p, key)
        self._ascending.insert(p, m)
        self._membership[m] = i

    def __call__(self, i: int) -> CantorComponent:
        return theta(self.image_index(i))

    def image_index(self, i: int) -> int:
        """Component number of the image of source index i."""
        self.spec.check_index(i)
        self.ensure(i)
        return self._images[i - 1]

    def index_of_component(self, m: int, max_steps: int = 200000) -> int | None:
        """Source index mapped to component m, or None if m is never hit.

        Decided by simulating placements with a per-source stopping rule:
        finite sources are exhausted; for omega, zeta, and omega+omega the
        image frontiers are monotone, so a candidate is excluded once the
        relevant frontier passes it; the rationals source provably hits every
        component left of the ceiling.
        """
        if m not in self._membership:
            self._membership[m] = self._decide_membership(m, max_steps)
        return self._membership[m]

    def _decide_membership(self, m: int, max_steps: int) -> int | None:
        # placed images are already in the memo, so m is none of them
        if compare(m, _CEILING) >= 0:
            return None  # images live strictly left of the ceiling
        if self.spec.size is not None:
            self.ensure(self.spec.size)
            return self._membership.get(m)
        for _ in range(max_steps):
            if self._excluded(m):
                return None
            self._place_next()
            if self._images[-1] == m:
                return len(self._images)
        raise RuntimeError(f"membership of component {m} undecided after {max_steps} steps")

    def _excluded(self, m: int) -> bool:
        images = self._images
        if not images:
            return False
        spec = self.spec
        if isinstance(spec, Omega):
            return compare(images[-1], m) > 0  # the images ascend
        if isinstance(spec, IntegersZeta):
            return compare(self._ascending[0], m) < 0 < compare(self._ascending[-1], m)
        if isinstance(spec, OmegaPlusOmega):
            # odd indices ascend through the first copy, even ones through the second
            n = len(images)
            if compare(m, images[(n - 1) // 2 * 2]) < 0:
                return True  # below the first copy's frontier, the last odd-index image
            # strictly inside the second copy's span, from index 2 to the last even index
            return n >= 4 and compare(images[1], m) < 0 < compare(images[n // 2 * 2 - 1], m)
        if isinstance(spec, Rationals):
            return False  # every component left of the ceiling is eventually hit
        raise RuntimeError(f"no membership rule for source {spec}")

    def missed_through(self, n: int) -> int:
        """How many of the components 1..n no source index maps to."""
        while self._scanned < n:
            self._scan_next()
        return bisect_right(self._missed, n)

    def nth_missed(self, rank: int) -> int:
        """The rank-th smallest component number no source index maps to."""
        while len(self._missed) < rank:
            self._scan_next()
        return self._missed[rank - 1]

    def _scan_next(self) -> None:
        self._scanned += 1
        if self.index_of_component(self._scanned) is None:
            self._missed.append(self._scanned)


def back_and_forth_embed(spec: OrderSpec) -> Embedding:
    """Canonical order embedding of the given countable order."""
    return Embedding(spec)


PsiLike = dict | Sequence | Callable[[int], int]


def _as_callable(psi: PsiLike) -> Callable[[int], int]:
    if callable(psi):
        return psi
    if isinstance(psi, dict):
        return lambda i: psi[i]
    return lambda i: psi[i - 1]


class ExtendedBijection:
    """Bijection of all components extending nu o psi o mu^-1.

    Component numbers in the image of mu map through psi; the rest are
    matched to the complement of nu's image in increasing numeric order.
    phi is the induced bijection of component numbers.
    """

    def __init__(self, mu: Embedding, nu: Embedding, psi: Callable[[int], int]):
        self.mu = mu
        self.nu = nu
        self.psi = psi

    def phi(self, n: int) -> int:
        i = self.mu.index_of_component(n)
        if i is not None:
            return self.nu.image_index(self.psi(i))
        return self.nu.nth_missed(self.mu.missed_through(n))

    def component_map(self, c: CantorComponent) -> CantorComponent:
        return theta(self.phi(theta_inv(c)))


def extend_bijection(
    mu: Embedding, nu: Embedding, psi: PsiLike
) -> tuple[ExtendedBijection, Callable[[int], int]]:
    """Extend a bijection of embedded sources to all components.

    Returns the component-level bijection and the induced map of component
    numbers.  For finite sources, psi is checked to be a bijection of the
    index sets; the commuting square Psi o mu = nu o psi holds by
    construction on every queried index.
    """
    psi_fn = _as_callable(psi)
    if mu.spec.size is not None or nu.spec.size is not None:
        if mu.spec.size != nu.spec.size:
            raise ValueError("psi cannot be a bijection: source sizes differ")
        size = mu.spec.size or 0
        image = sorted(psi_fn(i) for i in range(1, size + 1))
        if image != list(range(1, size + 1)):
            raise ValueError("psi is not a bijection of the source index sets")
    ext = ExtendedBijection(mu, nu, psi_fn)
    return ext, ext.phi
