from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st

from tauword import specker as sp

from conftest import make_rng, mat_mul, wedge_images_by_scan

vectors = st.builds(
    sp.vector,
    st.lists(st.integers(-5, 5), max_size=5),
    st.lists(st.integers(-5, 5), min_size=1, max_size=4),
)


def random_vector(rng, max_prefix=5, max_cycle=4, bound=5):
    prefix = [rng.randint(-bound, bound) for _ in range(rng.randint(0, max_prefix))]
    cycle = [rng.randint(-bound, bound) for _ in range(rng.randint(1, max_cycle))]
    return sp.vector(prefix, cycle)


# ---------------------------------------------------------------------------
# canonical form and arithmetic
# ---------------------------------------------------------------------------


def test_canonicalization_examples():
    assert sp.vector([1, 1, 1], [1]) == sp.all_ones()
    assert sp.vector([], [2, 2]) == sp.vector([], [2])
    assert sp.vector([0, 1], [0, 1]) == sp.vector([], [0, 1])
    assert sp.unit(2) == sp.vector([0, 1], [0])


@given(vectors, vectors)
def test_eq_matches_coordinatewise_comparison(v, w):
    horizon = 3 * lcm(len(v.cycle), len(w.cycle)) + len(v.prefix) + len(w.prefix) + 2
    assert (v == w) == (v.coords(horizon) == w.coords(horizon))


def test_arithmetic_closure_fuzzed():
    rng = make_rng(201)
    for _ in range(1000):
        v, w = random_vector(rng), random_vector(rng)
        s = v + w
        horizon = len(s.prefix) + 3 * len(s.cycle) + 8
        assert s.coords(horizon) == [a + b for a, b in zip(v.coords(horizon), w.coords(horizon))]
        # canonical-form invariants
        cyc = list(s.cycle)
        for d in range(1, len(cyc)):
            if len(cyc) % d == 0:
                assert cyc != cyc[:d] * (len(cyc) // d)
        if s.prefix:
            assert s.prefix[-1] != s.cycle[-1]
        assert (-v) + v == sp.ZERO


def test_add_examples():
    assert sp.all_ones() + sp.all_ones().scale(-1) == sp.ZERO
    assert sp.unit(2) + sp.unit(2) == sp.vector([0, 2], [0])
    # the tail vector that is 0 on two coordinates and 1 afterwards
    a3 = sp.all_ones() - sp.unit(1) - sp.unit(2)
    assert a3 == sp.tail_ones(3)
    assert a3.coords(5) == [0, 0, 1, 1, 1]


# ---------------------------------------------------------------------------
# quotient equalities
# ---------------------------------------------------------------------------


def test_finite_support_eq_examples():
    assert sp.finite_support_eq(sp.all_ones(), sp.all_ones() + sp.unit(5))
    assert not sp.finite_support_eq(sp.all_ones(), sp.ZERO)
    for n in (2, 3, 7):
        assert sp.finite_support_eq(sp.tail_ones(1), sp.tail_ones(n))


def test_ha_eq_examples():
    assert sp.ha_eq(sp.unit(1), sp.unit(2))
    assert not sp.ha_eq(sp.unit(1), sp.unit(2).scale(2))
    rng = make_rng(202)
    for _ in range(50):
        v = random_vector(rng)
        assert sp.ha_eq(v, v)


def test_consecutive_diff_membership_via_telescoping():
    rng = make_rng(203)
    for _ in range(300):
        # random finite-support vector with zero sum
        entries = [rng.randint(-4, 4) for _ in range(rng.randint(0, 6))]
        entries.append(-sum(entries))
        u = sp.vector(entries, [0])
        assert sp.in_consecutive_diff_subgroup(u)
        coeffs = sp.telescope_coefficients(u)
        rebuilt = sp.ZERO
        for n, c in enumerate(coeffs, start=1):
            rebuilt = rebuilt + (sp.unit(n) - sp.unit(n + 1)).scale(c)
        assert rebuilt == u


def test_difference_map_examples():
    assert sp.difference_map(sp.all_ones()) == sp.unit(1)
    assert sp.difference_map(sp.unit(2) - sp.unit(3)) == sp.vector([0, 1, -2, 1], [0])
    assert sp.difference_map(sp.ZERO) == sp.ZERO


def test_difference_map_is_induced_isomorphism():
    # finite-support equality of (v, w) corresponds to ha-equality of images
    rng = make_rng(204)
    for _ in range(500):
        v, w = random_vector(rng), random_vector(rng)
        assert sp.finite_support_eq(v, w) == sp.ha_eq(sp.difference_map(v), sp.difference_map(w))


def test_difference_map_forward_of_spec_statement():
    rng = make_rng(205)
    for _ in range(500):
        v, w = random_vector(rng), random_vector(rng)
        if sp.ha_eq(v, w):
            assert sp.finite_support_eq(sp.difference_map(v), sp.difference_map(w))


def test_eventually_constant_difference_not_in_consecutive_diff_subgroup():
    # the reverse direction of the statement above fails: D(e1) has finite
    # support although e1 is not in N (its coordinate sum is 1)
    v, w = sp.unit(1), sp.ZERO
    assert sp.finite_support_eq(sp.difference_map(v), sp.difference_map(w))
    assert not sp.ha_eq(v, w)


def test_ha_canonical_rep():
    rng = make_rng(206)
    for _ in range(300):
        v = random_vector(rng)
        rep = sp.ha_canonical_rep(v)
        assert sp.ha_eq(v, rep)
        w = v + sp.vector([rng.randint(-3, 3) for _ in range(rng.randint(1, 4))] + [0], [0])
        w = w - sp.unit(rng.randint(1, 6)).scale((w - v).support_sum())
        assert sp.ha_eq(v, w)
        assert sp.ha_canonical_rep(w) == rep
    assert sp.ha_canonical_rep(sp.unit(1) - sp.unit(2)).is_zero


def test_griffiths_image():
    verdict, (odd, even) = sp.griffiths_image(sp.all_ones())
    assert verdict == "trivial"
    assert odd.coords(6) == [1, 0, 1, 0, 1, 0]
    assert even.coords(6) == [0, 1, 0, 1, 0, 1]
    verdict, (odd, even) = sp.griffiths_image(sp.unit(7))
    assert (odd, even) == (sp.unit(7), sp.ZERO)
    rng = make_rng(207)
    for _ in range(200):
        v = random_vector(rng)
        verdict, (o, e) = sp.griffiths_image(v)
        assert verdict == "trivial"
        assert o + e == v
        assert all(o.at(n) == 0 for n in range(2, 12, 2))
        assert all(e.at(n) == 0 for n in range(1, 12, 2))


def test_vector_text_round_trip():
    rng = make_rng(208)
    for _ in range(200):
        v = random_vector(rng)
        assert sp.parse_vector(sp.render_vector(v)) == v
    assert sp.render_vector(sp.all_ones()) == "; 1"
    assert sp.parse_vector("0 1 -1; 0") == sp.unit(2) - sp.unit(3)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def random_matrix(rng, max_dim=4, bound=5):
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def test_mat_mul_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="2x3 by a 2x1"):
        mat_mul([[1, 2, 3], [4, 5, 6]], [[1], [2]])


def assert_valid_snf(a):
    s, u, v = sp.smith_normal_form(a)
    assert mat_mul(mat_mul(u, a), v) == s
    assert abs(sp.det(u)) == 1
    assert abs(sp.det(v)) == 1
    diag = [s[i][i] for i in range(min(len(s), len(s[0])))]
    for i in range(len(s)):
        for j in range(len(s[0])):
            if i != j:
                assert s[i][j] == 0
    for d1, d2 in zip(diag, diag[1:]):
        assert d1 >= 0 and d2 >= 0
        if d1 == 0:
            assert d2 == 0
        else:
            assert d2 % d1 == 0
    return diag


def test_snf_examples():
    assert assert_valid_snf([[2, 0], [0, 3]]) == [1, 6]
    assert assert_valid_snf([[2, 4], [6, 8]]) == [2, 4]
    s, u, v = sp.smith_normal_form([[0, 0], [0, 0]])
    assert s == [[0, 0], [0, 0]]
    assert u == sp.identity_matrix(2)
    assert v == sp.identity_matrix(2)


def test_snf_fuzzed():
    rng = make_rng(209)
    for _ in range(300):
        a = random_matrix(rng, max_dim=5, bound=5)
        assert_valid_snf(a)


def invariant_factors_by_minors(a):
    """Independent oracle: determinantal divisors d_k = gcd of k x k minors."""
    from itertools import combinations

    rows, cols = len(a), len(a[0])
    divisors = [1]
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rsel in combinations(range(rows), k):
            for csel in combinations(range(cols), k):
                minor = sp.det([[a[i][j] for j in csel] for i in rsel])
                g = gcd(g, abs(minor))
        divisors.append(g)
        if g == 0:
            break
    factors = []
    for k in range(1, len(divisors)):
        if divisors[k] == 0:
            break
        factors.append(divisors[k] // divisors[k - 1])
    return factors


def test_snf_against_determinantal_divisors():
    rng = make_rng(210)
    for _ in range(200):
        a = random_matrix(rng, max_dim=4, bound=5)
        diag = assert_valid_snf(a)
        expected = invariant_factors_by_minors(a)
        assert [d for d in diag if d != 0] == expected


def test_snf_chain_holds_on_diagonals_out_of_divisibility_order():
    # diagonal inputs whose entries do not divide each other in order: the
    # pivot rule alone leaves the chain d_i | d_{i+1} and the zeros last
    rng = make_rng(211)
    for _ in range(300):
        n = rng.randint(2, 4)
        entries = [rng.choice([0, 2, 3, 4, 5, 6, 9, 10, 12]) for _ in range(n)]
        a = [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
        diag = assert_valid_snf(a)
        assert [d for d in diag if d != 0] == invariant_factors_by_minors(a)


def test_h1_examples():
    assert sp.h1_from_presentation([], generators=2) == (2, [])
    assert sp.h1_from_presentation([[2]]) == (0, [2])
    assert sp.h1_from_presentation([[0, 0]]) == (2, [])


def test_h1_image_examples_and_width_checks():
    assert sp.h1_image([], 2, [1, -1]) == (2, [], [1, -1])
    assert sp.h1_image([[2]], 1, [3]) == (0, [2], [1])
    assert sp.h1_image([[0, 0]], 2, [4, 5]) == (2, [], [4, 5])
    with pytest.raises(ValueError, match="relator width 1"):
        sp.h1_image([[3]], 2, [0, 0])
    with pytest.raises(ValueError, match="relator width 1"):
        sp.h1_image([[2, 4], [6]], 2, [0, 0])
    with pytest.raises(ValueError, match="length 2 for 1 generators"):
        sp.h1_image([[3]], 1, [1, 2])
    with pytest.raises(ValueError, match="relator width 1"):
        sp.h1_from_presentation([[3]], generators=2)


def test_h1_image_is_the_quotient_map(monkeypatch):
    # the image is constant on cosets of the relator lattice, and rank and
    # torsion agree with the determinantal divisors; one SNF per call
    calls = []
    snf = sp.smith_normal_form
    monkeypatch.setattr(sp, "smith_normal_form", lambda a: calls.append(1) or snf(a))
    rng = make_rng(213)
    for _ in range(150):
        a = random_matrix(rng, max_dim=4, bound=5)
        g = len(a[0])
        x = [rng.randint(-9, 9) for _ in range(g)]
        r = [rng.randint(-3, 3) for _ in range(len(a))]
        shifted = [x[j] + sum(r[i] * a[i][j] for i in range(len(a))) for j in range(g)]
        calls.clear()
        rank, torsion, image = sp.h1_image(a, g, x)
        assert len(calls) == 1
        factors = invariant_factors_by_minors(a)
        assert (rank, torsion) == (g - len(factors), [f for f in factors if f > 1])
        assert sp.h1_image(a, g, shifted)[2] == image
        relator_sum = [sum(r[i] * a[i][j] for i in range(len(a))) for j in range(g)]
        assert sp.h1_image(a, g, relator_sum)[2] == [0] * g
        if rank == g:  # no relation has any effect
            assert image == [sum(x[i] * v for i, v in enumerate(col)) for col in zip(*snf(a)[2])]


def cokernel_structure_by_enumeration(a):
    """Brute-force oracle for a full-rank 3x3 relator matrix.

    The quotient embeds in (Q/Z)^3 by v -> frac(B^-1 v) with B the relator
    basis; elements are enumerated by closing {0} under the generator cosets,
    and the invariant factors are recovered from the counts of elements
    killed by each prime power.
    """
    n = len(a)
    binv = _fraction_inverse(a)
    gens = []
    for j in range(n):
        col = [binv[i][j] for i in range(n)]
        gens.append(tuple(x - int(x // 1) for x in col))

    def add(x, y):
        return tuple((xi + yi) % 1 for xi, yi in zip(x, y))

    zero = tuple(Fraction(0) for _ in range(n))
    group = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = add(x, g)
                if y not in group:
                    group.add(y)
                    nxt.append(y)
        frontier = nxt
    order = len(group)
    factors = [1] * n
    remaining = order
    p = 2
    while remaining > 1:
        if remaining % p == 0:
            vals = _prime_valuations(group, p, n)
            for i, v in enumerate(sorted(vals)):
                factors[i] *= p**v
            while remaining % p == 0:
                remaining //= p
        p += 1
    return [f for f in factors if f > 1]


def _fraction_inverse(a):
    n = len(a)
    aug = [[Fraction(a[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _prime_valuations(group, p, n):
    # the count of elements killed by p^j is p^(sum_i min(j, v_i));
    # successive differences of those exponents say how many v_i are >= j
    sums = []
    j = 0
    while True:
        j += 1
        nj = sum(1 for x in group if all((p**j * xi) % 1 == 0 for xi in x))
        t = 0
        while nj % p == 0:
            nj //= p
            t += 1
        sums.append(t)
        if j > 1 and sums[-1] == sums[-2]:
            break
        if j > 64:
            raise AssertionError("runaway prime valuation search")
    vals = [0] * n
    for idx, total in enumerate(sums):
        increment = total - (sums[idx - 1] if idx else 0)
        for i in range(n - increment, n):
            vals[i] = idx + 1
    return vals


def test_h1_against_cokernel_enumeration():
    rng = make_rng(211)
    done = 0
    while done < 40:
        a = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        d = sp.det(a)
        if d == 0 or abs(d) > 60:
            continue
        rank, torsion = sp.h1_from_presentation(a)
        assert rank == 0
        expected = cokernel_structure_by_enumeration(a)
        assert torsion == expected
        done += 1


def test_h1_against_minors_all_ranks():
    rng = make_rng(212)
    for _ in range(120):
        a = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        rank, torsion = sp.h1_from_presentation(a)
        factors = invariant_factors_by_minors(a)
        assert rank == 3 - len(factors)
        assert torsion == [f for f in factors if f > 1]


def test_parse_matrix():
    assert sp.parse_matrix("1 2\n3 4") == [[1, 2], [3, 4]]
    with pytest.raises(ValueError):
        sp.parse_matrix("1 2\n3")


def test_wedge_blocks_past_the_declared_ones_cycle_from_repeat_from():
    blocks = [{"generators": 1}, {"generators": 1, "relators": [[2]]}, {"generators": 1, "relators": [[3]]}]
    pres = sp.presentations_from_json({"blocks": blocks, "repeat_from": 1})
    rows = sp.wedge_images(sp.all_ones(), pres, 6)
    assert [r["torsion"] for r in rows] == [[], [2], [3], [2], [3], [2]]
    assert [r["image"] for r in rows] == [[1], [1], [1], [1], [1], [1]]
    with pytest.raises(ValueError, match="declares no blocks"):
        sp.wedge_images(sp.all_ones(), sp.presentations_from_json({"blocks": [], "repeat_from": 7}), 1)


def _wedge_outcome(images, v, pres, blocks):
    try:
        return images(v, pres, blocks)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_wedge_images_match_the_scan_oracle_on_seeded_maps():
    rng = make_rng(4242)
    errors = 0
    for _ in range(300):
        declared = []
        for _ in range(rng.randint(1, 4)):
            gens = rng.randint(1, 3)
            rows = [[rng.randint(-3, 3) for _ in range(gens)] for _ in range(rng.randint(0, 2))]
            declared.append({"generators": gens, "relators": rows})
        blocks = rng.randint(0, 12)
        # letters past --blocks, several letters per block, and some generators a block lacks
        letters = {
            str(letter): {"block": rng.randint(1, blocks + 2), "gen": rng.randint(1, 4)}
            for letter in rng.sample(range(1, 16), rng.randint(0, 8))
        }
        pres = sp.presentations_from_json(
            {"blocks": declared, "repeat_from": rng.randrange(len(declared)), "letters": letters}
        )
        # now and then a letter outside the map, or an infinite support
        support = [int(k) for k in letters] + [16] * (rng.random() < 0.1)
        prefix = [0] * max(support, default=0)
        for letter in support:
            prefix[letter - 1] = rng.randint(-4, 4)
        v = sp.vector(prefix, [rng.randint(-2, 2)] if rng.random() < 0.2 else [0])
        expected = _wedge_outcome(wedge_images_by_scan, v, pres, blocks)
        assert _wedge_outcome(sp.wedge_images, v, pres, blocks) == expected
        errors += isinstance(expected, str)
    assert 30 < errors < 270  # both rows and errors are compared
