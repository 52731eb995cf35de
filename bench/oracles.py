"""Answers known without the code under test.

Everything here works on the benchmark's own JSON inputs and on the text of
the reports, with plain integers and strings.  Nothing is imported from
``tauword``: each oracle re-derives its answer from the mathematics (naive
stack reduction, ternary addresses of the middle-third intervals, dyadic
images of the Cantor function, determinantal divisors, binomials), so a
defect in the library cannot hide in its own check.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm

# ---------------------------------------------------------------------------
# Free words: naive stack reduction on unit letters
# ---------------------------------------------------------------------------


def stack_reduce(units):
    """Freely reduce a sequence of signed unit letters (+l or -l)."""
    out: list[int] = []
    for u in units:
        if out and out[-1] == -u:
            out.pop()
        else:
            out.append(u)
    return out


def syllables_to_units(syllables):
    units = []
    for letter, exp in syllables:
        units.extend([letter if exp > 0 else -letter] * abs(exp))
    return units


def render_units(units) -> str:
    """The library's word syntax: ``l1 l2^-1 l3^2``; identity is ``1``."""
    if not units:
        return "1"
    parts = []
    for letter, group in itertools.groupby(units, key=abs):
        exp = sum(1 if u > 0 else -1 for u in group)
        parts.append(f"l{letter}" if exp == 1 else f"l{letter}^{exp}")
    return " ".join(parts)


def parse_units(text: str):
    text = text.strip()
    if text in ("", "1"):
        return []
    syllables = []
    for token in text.split():
        body, _, exp = token.partition("^")
        syllables.append((int(body[1:]), int(exp) if exp else 1))
    return syllables_to_units(syllables)


# ---------------------------------------------------------------------------
# Expressions (the benchmark's JSON form): factors, projections, eta
# ---------------------------------------------------------------------------


def bodies_of(prod):
    tail = prod["tail"]
    if tail["kind"] == "trivial":
        return []
    return tail["bodies"] if "bodies" in tail else [tail["body"]]


def instantiate(body, j):
    kind = body["type"]
    if kind == "letter":
        if "index" in body:
            return body
        return {"type": "letter", "index": body["base"] + body["coef"] * j, "exp": body.get("exp", 1)}
    if kind == "concat":
        return {"type": "concat", "factors": [instantiate(f, j) for f in body["factors"]]}
    return {"type": "inverse", "of": instantiate(body["of"], j)}


def factor(prod, m):
    """Factor m (1-based) of an infinite product, or None for the identity."""
    prefix = prod["prefix"]
    if m <= len(prefix):
        return prefix[m - 1]
    bodies = bodies_of(prod)
    if not bodies:
        return None
    t = m - len(prefix) - 1
    return instantiate(bodies[t % len(bodies)], t // len(bodies))


def leaves(e, sign=1):
    """(letter or (base, coef), exp * sign) for every leaf, left to right."""
    kind = e["type"]
    if kind == "letter":
        key = e["index"] if "index" in e else (e["base"], e["coef"])
        yield key, sign * e.get("exp", 1)
    elif kind == "concat":
        for f in e["factors"]:
            yield from leaves(f, sign)
    elif kind == "inverse":
        yield from leaves(e["of"], -sign)
    else:
        for f in e["prefix"]:
            yield from leaves(f, sign)
        for b in bodies_of(e):
            yield from leaves(b, sign)


def finite_units(e, n):
    """Unreduced unit letters of a finite expression with letters > n deleted."""
    kind = e["type"]
    if kind == "letter":
        if e["index"] > n:
            return []
        exp = e.get("exp", 1)
        return [e["index"] if exp > 0 else -e["index"]] * abs(exp)
    if kind == "concat":
        return [u for f in e["factors"] for u in finite_units(f, n)]
    return [-u for u in reversed(finite_units(e["of"], n))]


def contributing(prod, n):
    """Every factor index whose factor has a letter <= n, by a plain scan."""
    bodies = bodies_of(prod)
    reach = 0
    for b in bodies:
        for (base, coef), _ in leaves(b):
            reach = max(reach, (n - base) // coef + 1 if n >= base else 0)
    top = len(prod["prefix"]) + len(bodies) * reach
    out = []
    for m in range(1, top + 1):
        f = factor(prod, m)
        if f is not None and any(letter <= n for letter, _ in leaves(f)):
            out.append(m)
    return out


def ternary_address(m: int) -> str:
    """Address of removed interval m: its left end is 0.d1 d2 ... d(L-1) 1 in base 3.

    Level L = bit length of m; the L-1 bits below the top bit of m pick the
    ternary digits 0 or 2.  An address never is a proper prefix of another
    (the digit 1 only ends one), so string order is the left-to-right order.
    """
    bits = bin(m)[3:]
    return bits.replace("1", "2") + "1"


def project(e, n, phi_inverse=None):
    """Naive projection into the free group on l1..ln, as reduced units.

    ``phi_inverse`` rearranges an omega product: factor k of the result is
    factor phi(k) of ``e``, so original factor m lands at k = phi_inverse(m).
    """
    kind = e["type"]
    if kind not in ("omega", "tau"):
        return stack_reduce(_expr_units(e, n))
    ms = contributing(e, n)
    if kind == "tau":
        ms.sort(key=ternary_address)
    elif phi_inverse is not None:
        ms.sort(key=phi_inverse)
    units = []
    for m in ms:
        units.extend(finite_units(factor(e, m), n))
    return stack_reduce(units)


def _expr_units(e, n):
    kind = e["type"]
    if kind in ("omega", "tau"):
        return project(e, n)
    if kind == "concat":
        return [u for f in e["factors"] for u in _expr_units(f, n)]
    if kind == "inverse":
        return [-u for u in reversed(_expr_units(e["of"], n))]
    return finite_units(e, n)


def eta(e, horizon):
    """Exponent sum of every letter 1..horizon over all (infinitely many) factors."""
    out = [0] * (horizon + 1)
    for key, exp in leaves(e):
        if isinstance(key, int):
            if key <= horizon:
                out[key] += exp
        else:
            base, coef = key
            for letter in range(base, horizon + 1, coef):
                out[letter] += exp
    return out[1:]


# ---------------------------------------------------------------------------
# Eventually periodic vectors in the report syntax "prefix; cycle"
# ---------------------------------------------------------------------------


def parse_vector(text: str):
    prefix, _, cycle = text.partition(";")
    return [int(t) for t in prefix.split()], [int(t) for t in cycle.split()]


def vector_at(vec, n: int) -> int:
    prefix, cycle = vec
    if n <= len(prefix):
        return prefix[n - 1]
    return cycle[(n - len(prefix) - 1) % len(cycle)]


def vector_horizon(*vecs) -> int:
    """A coordinate range past every prefix that spans two common periods."""
    return max(len(p) for p, _ in vecs) + 2 * lcm(*(len(c) for _, c in vecs))


# ---------------------------------------------------------------------------
# Middle-third components and canonical order embeddings
# ---------------------------------------------------------------------------


def component_text(m: int) -> str:
    """The report line for component m: ``I(L,s) = (lo, hi)`` in lowest terms."""
    level = m.bit_length()
    slot = m - (1 << (level - 1)) + 1
    num = 0
    for digit in ternary_address(m)[:-1]:
        num = 3 * num + int(digit)
    den = 3**level
    # 3*num + 1 and 3*num + 2 are prime to 3, so both ends are in lowest terms
    return f"I({level},{slot}) = ({Fraction(3 * num + 1, den)}, {Fraction(3 * num + 2, den)})"


def dyadic(m: int) -> Fraction:
    """Value of the Cantor function on component m: (2s - 1) / 2^L.

    It maps the components onto the dyadic rationals in (0, 1) and keeps
    their order; component numbers grow with the denominator.
    """
    level = m.bit_length()
    slot = m - (1 << (level - 1)) + 1
    return Fraction(2 * slot - 1, 1 << level)


def component_of_dyadic(d: Fraction) -> int:
    level = d.denominator.bit_length() - 1
    slot = (d.numerator + 1) // 2
    return (1 << (level - 1)) + slot - 1


def least_dyadic_between(a: Fraction, b: Fraction) -> Fraction:
    """The dyadic with the smallest denominator strictly between a and b."""
    level = 1
    while True:
        k = (a.numerator << level) // a.denominator + 1
        if Fraction(k, 1 << level) < b:
            return Fraction(k, 1 << level)
        level += 1


def source_key(order: str, i: int):
    """Position of source index i in omega, omega+omega or zeta."""
    if order == "omega":
        return i
    if order == "omega+omega":
        return (0, (i + 1) // 2) if i % 2 else (1, i // 2)
    if order == "zeta":
        return 0 if i == 1 else (i // 2 if i % 2 == 0 else -(i // 2))
    raise ValueError(f"no oracle for order {order!r}")


class OracleEmbedding:
    """Canonical embedding simulated on dyadic images.

    Element i goes to the least-numbered component strictly between the
    images of its placed neighbours, below the ceiling component 1 (dyadic
    1/2).  Least-numbered means smallest dyadic denominator.
    """

    CEILING = Fraction(1, 2)

    def __init__(self, order: str):
        self.order = order
        self.keys: list = []
        self.images: list[Fraction] = []
        self._index: dict[Fraction, int] = {}
        self._decided: dict[int, object] = {}
        self._cw = [Fraction(1)]  # Calkin-Wilf sequence, grown on demand

    def _key(self, i: int):
        """Source order key; the rationals enumerate 0, then +-q over Calkin-Wilf q."""
        if self.order != "rationals":
            return source_key(self.order, i)
        if i == 1:
            return Fraction(0)
        while len(self._cw) < i // 2:
            q = self._cw[-1]
            self._cw.append(1 / (2 * (q.numerator // q.denominator) - q + 1))
        q = self._cw[i // 2 - 1]
        return q if i % 2 == 0 else -q

    def ensure(self, count: int) -> None:
        while len(self.images) < count:
            i = len(self.images) + 1
            key = self._key(i)
            lo, hi = Fraction(0), self.CEILING
            for k, img in zip(self.keys, self.images):
                if k < key:
                    lo = max(lo, img)
                else:
                    hi = min(hi, img)
            self.keys.append(key)
            self.images.append(least_dyadic_between(lo, hi))
            self._index[self.images[-1]] = i

    def image(self, i: int) -> int:
        self.ensure(i)
        return component_of_dyadic(self.images[i - 1])

    def index_of(self, m: int, limit: int = 4096):
        """Source index with image m, or None once no later index can hit m."""
        if m not in self._decided:
            self._decided[m] = self._search(dyadic(m), limit)
        return self._decided[m]

    def _search(self, target: Fraction, limit: int):
        if target >= self.CEILING:
            return None
        for i in range(1, limit + 1):
            self.ensure(i)
            if self._index.get(target) is not None:
                return self._index[target]
            if self._excluded(target, i):
                return None
        raise RuntimeError(f"oracle could not decide {target} in {limit} steps")

    def _excluded(self, target: Fraction, count: int) -> bool:
        if self.order == "rationals":
            return False  # the rationals reach every component below the ceiling
        imgs = self.images[:count]
        if self.order == "omega":
            return imgs[-1] > target  # images increase with the index
        if self.order == "zeta":
            return min(imgs) < target < max(imgs)  # later images leave the span
        first, second = imgs[0::2], imgs[1::2]  # omega+omega: the two copies
        if first and target < max(first):
            return True
        return len(second) >= 2 and second[0] < target < max(second)


# ---------------------------------------------------------------------------
# Integer matrices: determinantal divisors and Smith-form certificates
# ---------------------------------------------------------------------------


def det(m) -> int:
    """Determinant by cofactor expansion (the matrices here are at most 4x4)."""
    if not m:
        return 1
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def invariant_factors(a) -> list[int]:
    """Nonzero invariant factors d_k = D_k / D_(k-1), D_k the gcd of k-minors."""
    rows, cols = len(a), len(a[0])
    out, prev = [], 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rs in itertools.combinations(range(rows), k):
            for cs in itertools.combinations(range(cols), k):
                g = gcd(g, det([[a[r][c] for c in cs] for r in rs]))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def homology(relators, generators: int):
    """(free rank, torsion) of Z^generators modulo the relator rows."""
    if not relators:
        return generators, []
    factors = invariant_factors(relators)
    return generators - len(factors), [d for d in factors if d != 1]


def snf_certificate_holds(a, s, u, v) -> bool:
    """U A V = S, S diagonal with a divisibility chain, |det U| = |det V| = 1."""
    if matmul(matmul(u, a), v) != s or abs(det(u)) != 1 or abs(det(v)) != 1:
        return False
    diag = [s[i][i] for i in range(min(len(s), len(s[0])))]
    off = any(x for i, row in enumerate(s) for j, x in enumerate(row) if i != j)
    chain = all(x >= 0 for x in diag) and all(
        (y % x == 0) if x else y == 0 for x, y in zip(diag, diag[1:])
    )
    return not off and chain and [d for d in diag if d] == invariant_factors(a)


# ---------------------------------------------------------------------------
# Finite based posets
# ---------------------------------------------------------------------------


def binomial(n: int, k: int) -> int:
    """Entry (n, k) of Pascal's triangle, built row by row."""
    row = [1]
    for _ in range(n):
        row = [1] + [x + y for x, y in zip(row, row[1:])] + [1]
    return row[k] if 0 <= k <= n else 0


def up_sets(points, le):
    """Every up-set of the order (the open sets of the Alexandrov topology)."""
    out = []
    for r in range(len(points) + 1):
        for chosen in itertools.combinations(points, r):
            s = set(chosen)
            if all(y in s for x in s for y in points if (x, y) in le):
                out.append(frozenset(s))
    return out


def standard_nbhd_count(points, base, le, word) -> int:
    """Standard neighbourhoods of a word: one open per letter avoiding the basepoint, one V at it."""
    opens = up_sets(points, le)
    count = sum(1 for o in opens if base in o)
    for letter in word:
        count *= sum(1 for o in opens if letter in o and base not in o)
    return count


def words_up_to(letters, n):
    out = []
    for length in range(n + 1):
        out.extend(itertools.product(letters, repeat=length))
    return out


# ---------------------------------------------------------------------------
# Bijections of the positive integers (the benchmark's JSON form)
# ---------------------------------------------------------------------------


def bijection(spec):
    """A callable evaluating the JSON bijection, built without the library."""
    kind = spec["kind"]
    if kind == "finite":
        table = {}
        for cycle in spec["cycles"]:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                table[a] = b
        return lambda k: table.get(k, k)
    if kind == "block":
        period, perm = spec["period"], spec["perm"]
        return lambda k: (k - 1) // period * period + perm[(k - 1) % period] + 1
    parts = [bijection(p) for p in reversed(spec["of"])]

    def composed(k):
        for part in parts:
            k = part(k)
        return k

    return composed


def inverse_bijection(spec):
    kind = spec["kind"]
    if kind == "finite":
        return {"kind": "finite", "cycles": [list(reversed(c)) for c in spec["cycles"]]}
    if kind == "block":
        inv = [0] * spec["period"]
        for c, target in enumerate(spec["perm"]):
            inv[target] = c
        return {"kind": "block", "period": spec["period"], "perm": inv}
    return {"kind": "compose", "of": [inverse_bijection(p) for p in reversed(spec["of"])]}
