"""Eventually periodic integer sequences as a computable slice of Z^N.

A vector is a finite prefix followed by a cycle repeated forever.  This class
of sequences is closed under addition, negation, and the difference map, and
it contains every vector needed here: unit vectors, the all-ones vector, and
tail vectors that are 0 on an initial segment and constant afterwards.

Also hosts the two quotient equalities used by the computations (modulo the
finite-support subgroup, and modulo the subgroup generated by consecutive
unit-vector differences), and Smith normal form for integer matrices.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import lcm

from ._frozen import Frozen


class SpeckerVector(Frozen):
    """Canonical form: primitive cycle, minimal prefix.

    Canonical means the cycle is not a repetition of a shorter cycle and the
    last prefix entry differs from the cycle entry that would replace it, so
    two instances are equal iff they agree coordinatewise.
    """

    _fields = ("prefix", "cycle")
    __slots__ = _fields

    def __init__(self, prefix: tuple[int, ...], cycle: tuple[int, ...]) -> None:
        if not cycle:
            raise ValueError("cycle must be nonempty")
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "cycle", cycle)

    def at(self, n: int) -> int:
        """Coordinate n (1-based)."""
        if n < 1:
            raise ValueError("coordinates are 1-based")
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        return self.cycle[(n - len(self.prefix) - 1) % len(self.cycle)]

    def coords(self, n: int) -> list[int]:
        """The first n coordinates as a list."""
        return [self.at(i) for i in range(1, n + 1)]

    @property
    def is_zero(self) -> bool:
        return not self.prefix and self.cycle == (0,)

    @property
    def has_finite_support(self) -> bool:
        return self.cycle == (0,)

    def support_sum(self) -> int:
        """Sum of all coordinates; defined only for finite support."""
        if not self.has_finite_support:
            raise ValueError("infinite support has no coordinate sum")
        return sum(self.prefix)

    def __add__(self, other: "SpeckerVector") -> "SpeckerVector":
        p = max(len(self.prefix), len(other.prefix))
        period = lcm(len(self.cycle), len(other.cycle))
        prefix = [self.at(n) + other.at(n) for n in range(1, p + 1)]
        cycle = [self.at(n) + other.at(n) for n in range(p + 1, p + period + 1)]
        return vector(prefix, cycle)

    def __neg__(self) -> "SpeckerVector":
        return SpeckerVector(
            tuple(-a for a in self.prefix), tuple(-a for a in self.cycle)
        )

    def __sub__(self, other: "SpeckerVector") -> "SpeckerVector":
        return self + (-other)

    def scale(self, c: int) -> "SpeckerVector":
        return vector([c * a for a in self.prefix], [c * a for a in self.cycle])

    def __str__(self) -> str:
        return render_vector(self)

    def __repr__(self) -> str:
        return f"SpeckerVector({render_vector(self)!r})"


def vector(prefix: Sequence[int], cycle: Sequence[int]) -> SpeckerVector:
    """Build a vector in canonical form from any prefix/cycle description."""
    cyc = list(cycle) if cycle else [0]
    # primitive cycle: shrink to the shortest period
    for d in range(1, len(cyc) + 1):
        if len(cyc) % d == 0 and cyc == cyc[:d] * (len(cyc) // d):
            cyc = cyc[:d]
            break
    pre = list(prefix)
    # minimal prefix: absorb trailing entries that the cycle already produces
    while pre and pre[-1] == cyc[-1]:
        pre.pop()
        cyc = [cyc[-1]] + cyc[:-1]
    return SpeckerVector(tuple(pre), tuple(cyc))


ZERO = vector([], [0])


def unit(n: int) -> SpeckerVector:
    """The unit vector with 1 in coordinate n and 0 elsewhere."""
    if n < 1:
        raise ValueError("coordinates are 1-based")
    return vector([0] * (n - 1) + [1], [0])


def all_ones() -> SpeckerVector:
    return vector([], [1])


def tail_ones(n: int) -> SpeckerVector:
    """0 in coordinates 1..n-1 and 1 from coordinate n on."""
    return vector([0] * (n - 1), [1])


def finite_support_eq(v: SpeckerVector, w: SpeckerVector) -> bool:
    """Equality modulo the finite-support subgroup of Z^N."""
    return (v - w).has_finite_support


def in_consecutive_diff_subgroup(u: SpeckerVector) -> bool:
    """Membership in the subgroup generated by e_n - e_{n+1}, n >= 1.

    That subgroup is exactly the finite-support vectors with coordinate sum
    zero: each generator qualifies, and conversely a finite-support sum-zero
    vector telescopes as sum_n c_n (e_n - e_{n+1}) with c_n the n-th partial
    sum.
    """
    return u.has_finite_support and u.support_sum() == 0


def telescope_coefficients(u: SpeckerVector) -> list[int]:
    """Coefficients c with u = sum c[n-1] * (e_n - e_{n+1}); requires membership."""
    if not in_consecutive_diff_subgroup(u):
        raise ValueError("vector is not in the consecutive-difference subgroup")
    coeffs = []
    total = 0
    for a in u.prefix:
        total += a
        coeffs.append(total)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def ha_eq(v: SpeckerVector, w: SpeckerVector) -> bool:
    """Equality modulo N = <e_n - e_{n+1}>: finite-support difference with sum 0."""
    return in_consecutive_diff_subgroup(v - w)


def difference_map(v: SpeckerVector) -> SpeckerVector:
    """(a1, a2, a3, ...) -> (a1, a2 - a1, a3 - a2, ...).

    Sends the finite-support subgroup onto N = <e_n - e_{n+1}> and induces an
    isomorphism (Z^N / finite support) -> (Z^N / N).
    """
    p = len(v.prefix) + 1
    period = len(v.cycle)
    prefix = [v.at(1)] + [v.at(n) - v.at(n - 1) for n in range(2, p + 1)]
    cycle = [v.at(n) - v.at(n - 1) for n in range(p + 1, p + period + 1)]
    return vector(prefix, cycle)


def ha_canonical_rep(v: SpeckerVector) -> SpeckerVector:
    """Canonical representative of v's coset modulo N = <e_n - e_{n+1}>.

    Two vectors are N-equivalent iff they share the same eventual cycle (with
    phase) and the same total excess over that cycle.  The representative is
    the pure periodic extension of v's tail, plus the excess in coordinate 1.
    """
    tail = vector([], _phase_aligned_cycle(v))
    excess = sum(v.at(n) - tail.at(n) for n in range(1, len(v.prefix) + 1))
    return tail + unit(1).scale(excess) if excess else tail


def _phase_aligned_cycle(v: SpeckerVector) -> list[int]:
    # cycle rotated so that repeating it from coordinate 1 matches v's tail
    L = len(v.cycle)
    shift = len(v.prefix) % L
    return list(v.cycle[-shift:] + v.cycle[:-shift]) if shift else list(v.cycle)


def griffiths_image(v: SpeckerVector) -> tuple[str, tuple[SpeckerVector, SpeckerVector]]:
    """Image in the trivial group, with the odd/even splitting certificate.

    Every vector splits as v_odd + v_even (supported on odd resp. even
    coordinates); each summand factors through a contractible cone, so the
    image is always trivial.
    """
    period = lcm(len(v.cycle), 2)
    p = len(v.prefix)
    odd_prefix = [v.at(n) if n % 2 == 1 else 0 for n in range(1, p + 1)]
    odd_cycle = [v.at(n) if n % 2 == 1 else 0 for n in range(p + 1, p + period + 1)]
    v_odd = vector(odd_prefix, odd_cycle)
    return "trivial", (v_odd, v - v_odd)


def render_vector(v: SpeckerVector) -> str:
    """Textual form ``prefix; cycle``, e.g. ``0 1 -1; 0`` or ``; 1``."""
    prefix = " ".join(str(a) for a in v.prefix)
    cycle = " ".join(str(a) for a in v.cycle)
    return f"{prefix}; {cycle}" if prefix else f"; {cycle}"


def parse_vector(text: str) -> SpeckerVector:
    if ";" not in text:
        raise ValueError("vector syntax is 'prefix; cycle', e.g. '; 1'")
    prefix_text, cycle_text = text.split(";", 1)
    prefix = [int(t) for t in prefix_text.split()]
    cycle = [int(t) for t in cycle_text.split()]
    if not cycle:
        raise ValueError("cycle part must be nonempty")
    return vector(prefix, cycle)


# ---------------------------------------------------------------------------
# Integer matrices: Smith normal form and H1 of a finite presentation.
# ---------------------------------------------------------------------------

Matrix = list[list[int]]


def parse_matrix(text: str) -> Matrix:
    """Whitespace-separated integer rows, one row per line."""
    rows = [[int(t) for t in line.split()] for line in text.strip().splitlines() if line.strip()]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    return rows


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def det(m: Matrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def smith_normal_form(a: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Return (S, U, V) with U*A*V = S diagonal, d_i | d_{i+1}, det U, det V = +-1.

    Elementary row/column reduction with explicit accumulation of U and V;
    no modular shortcuts, exact arbitrary-precision arithmetic throughout.

    Step t ends only once its pivot divides the whole trailing submatrix, and
    later steps only combine rows and columns inside that submatrix, so every
    later pivot is a multiple of it: the divisibility chain holds by
    construction.  Pivots are made positive and a zero trailing submatrix
    ends the loop, so the zero diagonal entries come last.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if any(len(row) != cols for row in a):
        raise ValueError("ragged matrix")
    s = [row[:] for row in a]
    u = identity_matrix(rows)
    v = identity_matrix(cols)

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        # row dst += c * row src
        for j in range(cols):
            s[dst][j] += c * s[src][j]
        for j in range(rows):
            u[dst][j] += c * u[src][j]

    def add_col(src, dst, c):
        for row in s:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]

    def pivot_search(t):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if s[i][j] != 0 and (best is None or abs(s[i][j]) < abs(s[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(rows, cols):
        pos = pivot_search(t)
        if pos is None:
            break
        i, j = pos
        if i != t:
            swap_rows(i, t)
        if j != t:
            swap_cols(j, t)
        # clear row and column t, restarting whenever a remainder shrinks the pivot
        while True:
            restart = False
            for i in range(t + 1, rows):
                if s[i][t] != 0:
                    q = s[i][t] // s[t][t]
                    add_row(t, i, -q)
                    if s[i][t] != 0:
                        swap_rows(i, t)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, cols):
                if s[t][j] != 0:
                    q = s[t][j] // s[t][t]
                    add_col(t, j, -q)
                    if s[t][j] != 0:
                        swap_cols(j, t)
                        restart = True
                        break
            if restart:
                continue
            # make the pivot divide the rest of the submatrix
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if s[i][j] % s[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if s[t][t] < 0:
            negate_row(t)
        t += 1

    return s, u, v


def h1_from_presentation(relators: Matrix, generators: int | None = None) -> tuple[int, list[int]]:
    """Structure of Z^g modulo the row lattice of the relator matrix.

    Returns (free rank, nontrivial invariant factors).  ``generators``
    defaults to the column count and must be given for an empty relator list.
    """
    if generators is None:
        if not relators:
            raise ValueError("generator count required with no relators")
        generators = len(relators[0])
    rank, torsion, _ = h1_image(relators, generators, [0] * generators)
    return rank, torsion


def h1_image(
    relators: Matrix, generators: int, x: Sequence[int]
) -> tuple[int, list[int], list[int]]:
    """Z^generators modulo the relator rows, and the class of x in it.

    Returns (free rank, nontrivial invariant factors, image).  With
    U*A*V = S the Smith normal form of the relator matrix A, the image is
    x*V with coordinate j reduced modulo the diagonal entry d_j when d_j > 0;
    one Smith normal form gives all three.
    """
    if len(x) != generators:
        raise ValueError(f"vector of length {len(x)} for {generators} generators")
    for row in relators:
        if len(row) != generators:
            raise ValueError(f"relator width {len(row)} != declared generators {generators}")
    if not relators:
        return generators, [], list(x)
    s, _, v = smith_normal_form(relators)
    diag = [s[i][i] for i in range(min(len(relators), generators))]
    image = [sum(x[i] * v[i][j] for i in range(generators)) for j in range(generators)]
    image = [c % diag[j] if j < len(diag) and diag[j] > 0 else c for j, c in enumerate(image)]
    nonzero = [d for d in diag if d != 0]
    return generators - len(nonzero), [d for d in nonzero if d != 1], image


# ---------------------------------------------------------------------------
# Shrinking wedges: block presentations and per-block homology images.
# ---------------------------------------------------------------------------


def presentations_from_json(obj) -> tuple[list[dict], int, dict[int, tuple[int, int]]]:
    """The blocks, ``repeat_from`` and letter map of a presentations object, checked strictly.

    A malformed field raises ``ValueError`` naming it.  An empty ``blocks``
    list is returned unchecked; ``wedge_images`` rejects it.
    """
    if not isinstance(obj, dict) or not isinstance(obj.get("blocks"), list):
        raise ValueError("expected an object with a 'blocks' list")
    blocks = obj["blocks"]
    for k, block in enumerate(blocks, start=1):
        rows = block.get("relators", []) if isinstance(block, dict) else None
        int_rows = isinstance(rows, list) and all(
            isinstance(r, list) and all(type(x) is int for x in r) for r in rows
        )
        if not int_rows or type(block.get("generators")) is not int:
            raise ValueError(f"block {k} needs integer 'generators' and a list of integer 'relators' rows")
    if not blocks:
        return blocks, 0, {}
    repeat_from = obj.get("repeat_from", len(blocks) - 1)
    if type(repeat_from) is not int or not 0 <= repeat_from < len(blocks):
        raise ValueError(f"repeat_from: expected an integer in 0..{len(blocks) - 1}, got {repeat_from!r}")
    letters = obj.get("letters", {})
    if not isinstance(letters, dict):
        raise ValueError(f"letters: expected an object, got {type(letters).__name__}")
    letter_map = {}
    for key, entry in letters.items():
        if not key.isdecimal() or int(key) < 1:
            raise ValueError(f"letters[{key!r}]: expected a letter number >= 1")
        if not isinstance(entry, dict):
            raise ValueError(f"letters[{key!r}]: expected an object, got {type(entry).__name__}")
        for field in ("block", "gen"):
            value = entry.get(field)
            if type(value) is not int or value < 1:
                raise ValueError(f"letters[{key!r}].{field}: expected an integer >= 1, got {value!r}")
        letter_map[int(key)] = (entry["block"], entry["gen"])
    return blocks, repeat_from, letter_map


def wedge_images(
    v: SpeckerVector, presentations: tuple[list[dict], int, dict[int, tuple[int, int]]], blocks: int
) -> list[dict]:
    """H1 of each of the first ``blocks`` wedge blocks (free rank, torsion) and the image of v in it.

    Blocks past the declared ones cycle from ``repeat_from``.  Letter l maps
    to the generator given by the letter map, by default generator 1 of
    block l; the image sums the coordinates of v over the letters of a block.
    """
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
    targets: dict[int, list[tuple[int, int]]] = {}  # block -> its (letter, generator) pairs, letters ascending
    for letter in sorted(set(range(1, blocks + 1)) | set(letter_map)):
        blk, gen = letter_map.get(letter, (letter, 1))
        targets.setdefault(blk, []).append((letter, gen))
    cycle = declared[repeat_from:]
    rows = []
    for k in range(1, blocks + 1):
        block = declared[k - 1] if k <= len(declared) else cycle[(k - len(declared) - 1) % len(cycle)]
        gens = block["generators"]
        coords = [0] * gens
        for letter, gen in targets.get(k, ()):
            if not 1 <= gen <= gens:
                raise ValueError(f"letter {letter} maps to missing generator {gen} in block {k}")
            coords[gen - 1] += v.at(letter)
        rank, torsion, image = h1_image(block.get("relators", []), gens, coords)
        rows.append({"block": k, "free_rank": rank, "torsion": torsion, "image": image})
    return rows
