from fractions import Fraction

import pytest

from hypothesis import given, settings, strategies as st

from tauword import orders

from conftest import CountingExtendedBijection, ScanEmbedding, make_rng

SENTINEL = Fraction(1, 3)


def test_theta_examples():
    assert orders.theta(1) == orders.component(1, 1)
    assert (orders.theta(1).lo, orders.theta(1).hi) == (Fraction(1, 3), Fraction(2, 3))
    assert (orders.theta(2).lo, orders.theta(2).hi) == (Fraction(1, 9), Fraction(2, 9))
    assert (orders.theta(3).lo, orders.theta(3).hi) == (Fraction(7, 9), Fraction(8, 9))
    assert orders.theta(2).level == 2 and orders.theta(2).slot == 1
    assert orders.theta(3).slot == 2


def test_theta_inverse_and_exact_endpoints():
    seen = []
    for m in range(1, 4097):
        c = orders.theta(m)
        assert orders.theta_inv(c) == m
        assert c.hi - c.lo == Fraction(1, 3**c.level)
        assert 0 < c.lo < c.hi < 1
        seen.append(c)
    # pairwise disjoint: sort by position and compare neighbours
    seen.sort(key=lambda c: c.lo)
    for a, b in zip(seen, seen[1:]):
        assert a.hi <= b.lo
        assert a.hi != b.lo  # endpoints are never shared


def test_compare_examples():
    assert orders.compare(2, 1) == -1
    assert orders.compare(1, 3) == -1
    assert orders.compare(5, 5) == 0
    assert orders.compare(3, 2) == 1


def test_compare_same_level_matches_slot_order():
    for level in (3, 4):
        ms = [2 ** (level - 1) + k - 1 for k in range(1, 2 ** (level - 1) + 1)]
        for a, b in zip(ms, ms[1:]):
            assert orders.compare(a, b) == -1


def address_string(m):
    """Independent order oracle: ternary address of component m.

    The parent interval of a level-n component is addressed by n-1 digits in
    {0, 2} (binary expansion of slot-1); appending the digit 1 marks the
    removed middle third.  Lexicographic order of these strings (padded with
    nothing: '1' sorts between '0' and '2') equals positional order, with no
    rational arithmetic involved.
    """
    c = orders.theta(m)
    bits = c.level - 1
    digits = []
    rem = c.slot - 1
    for i in range(bits):
        digits.append("2" if rem >> (bits - 1 - i) & 1 else "0")
    return "".join(digits) + "1"


def test_compare_matches_address_string_oracle():
    for m1 in range(1, 200):
        for m2 in range(1, 200):
            expected = (address_string(m1) > address_string(m2)) - (
                address_string(m1) < address_string(m2)
            )
            assert orders.compare(m1, m2) == expected


def brute_force_least(lo, hi, max_m=4096):
    best = None
    for m in range(1, max_m + 1):
        c = orders.theta(m)
        if (lo is None or c.lo >= lo) and (hi is None or c.hi <= hi):
            best = c
            break
    return best


def dyadic_key(m: int) -> Fraction:
    """The position of component m as the dyadic rational (2m+1)/2^L, L = m.bit_length()."""
    return Fraction(2 * m + 1, 1 << m.bit_length())


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _check_position_keys(m1: int, m2: int, top: int) -> None:
    k1, k2 = orders.position_key(m1, top), orders.position_key(m2, top)
    assert type(k1) is int and k1 == dyadic_key(m1) * 2**top  # the dyadic key, scaled exactly
    assert _sign(k1 - k2) == _sign(dyadic_key(m1) - dyadic_key(m2)) == orders.compare(m1, m2)


# component numbers of up to 300 bits, spread evenly over the levels
_components = st.integers(1, 300).flatmap(lambda level: st.integers(1 << (level - 1), (1 << level) - 1))


@settings(max_examples=400, deadline=None)
@given(_components, _components, st.integers(0, 5))
def test_position_key_orders_as_the_dyadic_key_and_compare(m1, m2, spare):
    _check_position_keys(m1, m2, max(m1.bit_length(), m2.bit_length()) + spare)


def test_position_key_on_equal_levels_and_neighbours_across_levels():
    rng = make_rng(2626)
    for _ in range(300):
        level = rng.randint(1, 300)
        m = rng.randint(1 << (level - 1), (1 << level) - 1)
        first, last = 1 << (level - 1), (1 << level) - 1
        # the same level, the parent, the two children and the ends of the neighbouring levels
        others = [m, first, last, max(m - 1, 1), m + 1, max(m // 2, 1), 2 * m, 2 * m + 1,
                  max(first - 1, 1), 2 * first, 4 * last + 3]
        for other in others:
            top = max(m.bit_length(), other.bit_length()) + rng.randint(0, 3)
            _check_position_keys(m, other, top)
            _check_position_keys(other, m, top)
        # the two children of m sit directly left and right of it
        top = level + 1
        assert orders.position_key(2 * m, top) < orders.position_key(m, top) < orders.position_key(2 * m + 1, top)


def test_least_component_in_against_brute_force():
    # bounds are neighbouring component numbers (None = an end of [0, 1]),
    # the only bounds Embedding ever passes
    rng = make_rng(301)
    for _ in range(250):
        p, q = sorted(rng.sample(range(1, 256), 2), key=address_string)
        end = rng.randrange(4)
        if end == 1:
            p = None
        elif end == 2:
            q = None
        lower_lo = orders.theta(p).hi if p is not None else None
        upper_hi = orders.theta(q).lo if q is not None else None
        expected = brute_force_least(lower_lo, upper_hi)
        assert orders.least_component_in(p, q) == orders.theta_inv(expected), (p, q)
    assert orders.theta(orders.least_component_in(None, None)) == orders.theta(1)
    assert orders.theta(orders.least_component_in(None, 1)) == orders.theta(2)
    for p, q in ((3, 2), (5, 5), (0, 1)):
        with pytest.raises(ValueError):
            orders.least_component_in(p, q)


def ternary_endpoints(m):
    """(lo, hi) of component m summed from its ternary address, digit by digit."""
    lo = sum(Fraction(int(d), 3**i) for i, d in enumerate(address_string(m), start=1))
    return lo, lo + Fraction(1, 3 ** m.bit_length())


def test_endpoints_past_the_integer_string_digit_limit():
    """At level 5000, slot - 1 has more bits than an int may have decimal
    digits in a string conversion; lo and hi are still exact."""
    level = 5000
    rng = make_rng(307)
    for m in (1 << (level - 1), (1 << level) - 1, rng.randrange(1 << (level - 1), 1 << level)):
        numerator = 0
        for digit in address_string(m):
            numerator = 3 * numerator + int(digit)
        c = orders.theta(m)
        assert c.level == level
        assert (c.lo, c.hi) == (Fraction(numerator, 3**level), Fraction(numerator + 1, 3**level))


def test_order_spec_parses_every_order_name():
    for name in ("omega", "omega+omega", "zeta", "rationals"):
        assert str(orders.order_spec(name)) == name
    assert orders.order_spec("chain(5)").size == orders.order_spec("chain5").size == 5
    for name in ("chainx", "chain(-1)", "Omega", ""):
        with pytest.raises(ValueError, match="unknown order spec"):
            orders.order_spec(name)


def test_deep_levels_against_address_oracle():
    rng = make_rng(305)
    for _ in range(200):
        level = rng.randint(30, 64)
        m = rng.randrange(1 << (level - 1), 1 << level)
        c = orders.theta(m)
        assert (c.lo, c.hi) == ternary_endpoints(m)
        depth = rng.randint(1, 8)
        others = [
            rng.randrange(1 << (rng.randint(30, 64) - 1), 1 << 64),
            m ^ 1,  # sibling: the parent lies between
            (m << depth) | rng.randrange(1 << depth),  # a descendant
            m >> depth,  # an ancestor
        ]
        for other in others:
            a, b = address_string(m), address_string(other)
            assert orders.compare(m, other) == (a > b) - (a < b)
            p, q = (m, other) if a < b else (other, m)
            for lower, upper in ((p, q), (None, q), (p, None)):
                lo = address_string(lower) if lower is not None else ""
                hi = address_string(upper) if upper is not None else "3"

                def between(r):
                    return lo < address_string(r) < hi

                r = orders.least_component_in(lower, upper)
                assert between(r), (lower, upper, r)
                # no proper tree ancestor lies between, so r is the least
                k = 1
                while r >> k:
                    assert not between(r >> k), (lower, upper, r, k)
                    k += 1


ALL_SPECS = [
    orders.FiniteChain(3),
    orders.FiniteChain(7),
    orders.ExplicitFinite([Fraction(1, 2), Fraction(-3), Fraction(5, 7), Fraction(0)]),
    orders.Omega(),
    orders.OmegaPlusOmega(),
    orders.IntegersZeta(),
    orders.Rationals(),
]


def test_embeddings_order_preserving_on_sampled_pairs():
    rng = make_rng(302)
    for spec in ALL_SPECS:
        emb = orders.back_and_forth_embed(spec)
        top = spec.size if spec.size is not None else 120
        pairs = 0
        while pairs < 200:
            i, j = rng.randint(1, top), rng.randint(1, top)
            if i == j:
                continue
            ci, cj = emb(i), emb(j)
            assert (spec.cmp(i, j) < 0) == (ci < cj), (spec.name, i, j)
            assert ci != cj
            pairs += 1


def test_embeddings_bounded_above_by_a_component():
    # every image sits strictly left of the ceiling component
    for spec in ALL_SPECS:
        emb = orders.back_and_forth_embed(spec)
        top = spec.size if spec.size is not None else 60
        for i in range(1, top + 1):
            assert emb(i).hi <= SENTINEL


def test_omega_embedding_strictly_increasing():
    emb = orders.back_and_forth_embed(orders.Omega())
    images = [emb(i) for i in range(1, 201)]
    for a, b in zip(images, images[1:]):
        assert a < b


def test_embedding_deterministic():
    for spec_maker in (orders.Omega, orders.Rationals, lambda: orders.FiniteChain(5)):
        a = orders.back_and_forth_embed(spec_maker())
        b = orders.back_and_forth_embed(spec_maker())
        top = a.spec.size or 30
        assert [orders.theta_inv(a(i)) for i in range(1, top + 1)] == [
            orders.theta_inv(b(i)) for i in range(1, top + 1)
        ]


def test_finite_chain_embedding_frozen_values():
    emb = orders.back_and_forth_embed(orders.FiniteChain(3))
    assert [orders.theta_inv(emb(i)) for i in (1, 2, 3)] == [2, 5, 11]
    assert emb(1) < emb(2) < emb(3)


def test_explicit_finite_rejects_duplicates():
    with pytest.raises(ValueError):
        orders.ExplicitFinite([1, 1, 2])


@pytest.mark.parametrize("values", [[{1}, {2}], [{1}, {2}, {1, 2}], [{1, 2}, {1}, {3}]])
def test_explicit_finite_rejects_incomparable_values(values):
    with pytest.raises(ValueError, match="^comparator is not a total order on the values$"):
        orders.ExplicitFinite([frozenset(v) for v in values])


def test_explicit_finite_checks_totality_in_n_log_n_comparisons():
    comparisons = 0

    class Counted(int):
        def __lt__(self, other):
            nonlocal comparisons
            comparisons += 1
            return int(self) < int(other)

    values = [Counted(v) for v in make_rng(34).sample(range(10**6), 3000)]
    spec = orders.ExplicitFinite(values)
    assert spec.size == 3000 and [spec.key(i) for i in (1, 3000)] == [values[0], values[-1]]
    assert comparisons < 20 * 3000  # every pair would take about 9,000,000


def test_membership_found_and_excluded():
    for spec in ALL_SPECS:
        emb = orders.back_and_forth_embed(spec)
        top = spec.size if spec.size is not None else 40
        image_indices = [emb.image_index(i) for i in range(1, top + 1)]
        for i, m in enumerate(image_indices, start=1):
            assert emb.index_of_component(m) == i, spec.name
        # components at or right of the ceiling are never hit
        assert emb.index_of_component(1) is None
        assert emb.index_of_component(3) is None
        # a left-of-ceiling component not among the first images
        missing = next(
            m for m in range(2, 4096) if orders.theta(m).hi <= SENTINEL and m not in image_indices
        )
        result = emb.index_of_component(missing)
        if spec.size is not None:
            assert result is None
        elif isinstance(spec, orders.Rationals):
            assert result is not None and result > top
        elif result is not None:
            assert result > top


def test_embedding_images_match_scan_oracle():
    for spec in ALL_SPECS:
        top = spec.size if spec.size is not None else 300
        emb, oracle = orders.Embedding(spec), ScanEmbedding(spec)
        got = [emb.image_index(i) for i in range(1, top + 1)]
        assert got == [oracle.image_index(i) for i in range(1, top + 1)], spec.name


def test_membership_matches_scan_oracle():
    for spec in ALL_SPECS:
        # the rationals decide m only by placing every component up to m's level
        bound = 512 if isinstance(spec, orders.Rationals) else 1500
        emb, oracle = orders.Embedding(spec), ScanEmbedding(spec)
        got = [emb.index_of_component(m) for m in range(1, bound)]
        assert got == [oracle.index_of_component(m) for m in range(1, bound)], spec.name
        # the same answers once many images are already placed
        warm = orders.Embedding(spec)
        warm.ensure(300)
        assert [warm.index_of_component(m) for m in range(1, bound)] == got, spec.name


def test_has_between_matches_a_search_over_the_keys():
    for spec in [*ALL_SPECS, orders.FiniteChain(0), orders.ExplicitFinite([])]:
        n = spec.size if spec.size is not None else 30
        # a gap between or beyond the first n keys that holds a key holds one of the first 4n + 4
        keys = [spec.key(i) for i in range(1, (spec.size if spec.size is not None else 4 * n + 4) + 1)]
        ends = [None, *keys[:n]]
        for a in ends:
            for b in ends:
                if a is not None and b is not None and not a < b:
                    continue
                found = any((a is None or a < k) and (b is None or k < b) for k in keys)
                expected = found or isinstance(spec, orders.Rationals)  # the rationals are dense and unbounded
                assert spec.has_between(a, b) == expected, (spec.name, a, b)


class _ReverseOmega(orders.OrderSpec):
    """omega*: 1 > 2 > 3 > ...; defines only its keys and the gap rule."""

    name = "omega*"

    def key(self, i):
        return -i

    def has_between(self, a, b):
        return a is None or (b or 0) - a > 1


def test_membership_of_an_order_outside_the_library():
    spec = _ReverseOmega()
    # omega* sends index i to the leftmost component 2^i of level i + 1, so
    # the components below 2^12 are hit among the first 12 indices or never
    scan = ScanEmbedding(spec)
    placed = [scan.image_index(i) for i in range(1, 13)]
    assert placed == [2**i for i in range(1, 13)]
    emb = orders.Embedding(spec)
    got = [emb.index_of_component(m) for m in range(1, 2**12)]
    assert got == [placed.index(m) + 1 if m in placed else None for m in range(1, 2**12)]


class _Ties(orders.OrderSpec):
    name = "ties"

    def key(self, i):
        return i // 2


def test_equal_keys_rejected_like_scan_oracle():
    for make in (orders.Embedding, ScanEmbedding):
        with pytest.raises(ValueError, match="^source indices 2 and 3 compare equal$"):
            make(_Ties()).ensure(3)


def _extension_cases():
    perm = {1: 3, 2: 1, 3: 2, 4: 7, 5: 5, 6: 4, 7: 6}
    values = [Fraction(3), Fraction(-1), Fraction(7, 2), Fraction(0), Fraction(2), Fraction(11), Fraction(-5)]
    return [
        # i <-> -i on the integers
        (orders.IntegersZeta(), orders.IntegersZeta(), lambda i: i if i == 1 else i + 1 - 2 * (i % 2)),
        # the two copies swapped
        (orders.OmegaPlusOmega(), orders.OmegaPlusOmega(), lambda i: i + 1 if i % 2 else i - 1),
        (orders.FiniteChain(7), orders.FiniteChain(7), perm.__getitem__),
        (orders.FiniteChain(7), orders.ExplicitFinite(values), perm.__getitem__),
        (orders.Omega(), orders.IntegersZeta(), lambda i: i),
    ]


def test_phi_matches_counting_oracle():
    for mu_spec, nu_spec, psi in _extension_cases():
        oracle = CountingExtendedBijection(ScanEmbedding(mu_spec), ScanEmbedding(nu_spec), psi)
        expected = [oracle.phi(n) for n in range(1, 400)]
        _, phi = orders.extend_bijection(orders.Embedding(mu_spec), orders.Embedding(nu_spec), psi)
        assert [phi(n) for n in range(1, 400)] == expected, (mu_spec.name, nu_spec.name)
        # queried from the top down, the scans start deep and fill in below
        _, phi = orders.extend_bijection(orders.Embedding(mu_spec), orders.Embedding(nu_spec), psi)
        assert [phi(n) for n in range(399, 0, -1)] == expected[::-1], (mu_spec.name, nu_spec.name)


def test_phi_asks_each_membership_a_bounded_number_of_times(monkeypatch):
    calls = []
    lookup = orders.Embedding.index_of_component
    monkeypatch.setattr(
        orders.Embedding, "index_of_component", lambda self, m: calls.append(m) or lookup(self, m)
    )
    mu = orders.Embedding(orders.FiniteChain(5))
    nu = orders.Embedding(orders.FiniteChain(5))
    _, phi = orders.extend_bijection(mu, nu, {1: 2, 2: 1, 3: 3, 4: 5, 5: 4})
    queried = [phi(n) for n in range(1, 501)]
    assert sorted(queried) == list(range(1, 501))
    # one lookup per query, plus one per component as each complement is scanned once
    assert len(calls) <= 3 * 500


def test_extend_bijection_identity_cases():
    for spec_maker in (orders.Omega, lambda: orders.FiniteChain(6)):
        mu = orders.back_and_forth_embed(spec_maker())
        ext, phi = orders.extend_bijection(mu, mu, lambda i: i)
        assert [phi(n) for n in range(1, 101)] == list(range(1, 101))


def test_extend_bijection_swap_example():
    mu = orders.back_and_forth_embed(orders.FiniteChain(2))
    nu = orders.back_and_forth_embed(orders.FiniteChain(2))
    ext, phi = orders.extend_bijection(mu, nu, {1: 2, 2: 1})
    assert ext.component_map(mu(1)) == nu(2)
    assert ext.component_map(mu(2)) == nu(1)
    queried = [phi(n) for n in range(1, 60)]
    assert len(set(queried)) == len(queried)


def test_extend_bijection_commuting_square_fuzzed_finite():
    rng = make_rng(303)
    for _ in range(40):
        size = rng.randint(1, 7)
        mu = orders.back_and_forth_embed(orders.FiniteChain(size))
        values = [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(size)]
        while len(set(values)) != size:
            values = [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(size)]
        nu = orders.back_and_forth_embed(orders.ExplicitFinite(values))
        perm = list(range(1, size + 1))
        rng.shuffle(perm)
        psi = {i: perm[i - 1] for i in range(1, size + 1)}
        ext, phi = orders.extend_bijection(mu, nu, psi)
        for i in range(1, size + 1):
            assert ext.component_map(mu(i)) == nu(psi[i])
        queried = [phi(n) for n in range(1, 501)]
        assert len(set(queried)) == len(queried)


def test_extend_bijection_round_trip_is_identity():
    # extending psi and extending its inverse compose to the identity on
    # component numbers, certifying bijectivity of the extension
    rng = make_rng(304)
    for _ in range(10):
        size = rng.randint(1, 6)
        mu = orders.back_and_forth_embed(orders.FiniteChain(size))
        nu = orders.back_and_forth_embed(orders.FiniteChain(size))
        perm = list(range(1, size + 1))
        rng.shuffle(perm)
        psi = {i: perm[i - 1] for i in range(1, size + 1)}
        psi_inv = {v: k for k, v in psi.items()}
        _, phi = orders.extend_bijection(mu, nu, psi)
        _, phi_back = orders.extend_bijection(nu, mu, psi_inv)
        for n in range(1, 120):
            assert phi_back(phi(n)) == n


def test_extend_bijection_rejects_non_bijection():
    mu = orders.back_and_forth_embed(orders.FiniteChain(3))
    nu = orders.back_and_forth_embed(orders.FiniteChain(3))
    with pytest.raises(ValueError):
        orders.extend_bijection(mu, nu, {1: 1, 2: 1, 3: 3})
    nu2 = orders.back_and_forth_embed(orders.FiniteChain(4))
    with pytest.raises(ValueError):
        orders.extend_bijection(mu, nu2, {1: 1, 2: 2, 3: 3})


def test_rationals_enumeration_is_injective_and_dense_start():
    spec = orders.Rationals()
    values = [spec.key(i) for i in range(1, 300)]
    assert len(set(values)) == len(values)
    assert Fraction(0) in values and Fraction(1) in values and Fraction(-1, 2) in values
