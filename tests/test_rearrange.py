import json

import pytest

from tauword import rearrange as ra

from conftest import compose_structure_by_sampling, make_rng, random_bijection, random_nested_bijection


def test_evaluate_examples():
    assert ra.identity().evaluate(7) == 7
    phi = ra.FiniteSupport(((1, 3),))
    assert phi.evaluate(1) == 3
    assert phi.evaluate(2) == 2
    assert phi.evaluate(3) == 1
    eh = ra.eh_shuffle()
    assert eh.evaluate(2) == 3
    assert eh.evaluate(3) == 2
    assert eh.evaluate(4) == 4


def test_eh_shuffle_values():
    eh = ra.eh_shuffle()
    assert [eh.evaluate(k) for k in range(1, 7)] == [1, 3, 2, 4, 5, 7]
    for j in range(1, 50):
        assert eh.evaluate(4 * j - 3) == 4 * j - 3
        assert eh.evaluate(4 * j - 2) == 4 * j - 1
        assert eh.evaluate(4 * j - 1) == 4 * j - 2
        assert eh.evaluate(4 * j) == 4 * j
    assert ra.is_bijection(eh, 1000)


def test_malformed_specs():
    with pytest.raises(ra.MalformedBijectionError):
        ra.FiniteSupport(((1, 2), (2, 3)))
    with pytest.raises(ra.MalformedBijectionError):
        ra.FiniteSupport(((0, 1),))
    with pytest.raises(ra.MalformedBijectionError):
        ra.BlockPermute(3, (0, 0, 2))


def test_compose_right_to_left():
    f = ra.FiniteSupport(((1, 2),))
    g = ra.FiniteSupport(((2, 3),))
    fg = ra.Compose((f, g))
    # g first: 2 -> 3, then f: 3 -> 3
    assert fg.evaluate(2) == 3
    # g: 1 -> 1, then f: 1 -> 2
    assert fg.evaluate(1) == 2


def test_compose_with_inverse_is_identity():
    rng = make_rng(401)
    for _ in range(60):
        phi = random_bijection(rng)
        both = ra.Compose((phi, phi.inverse()))
        for k in rng.sample(range(1, 2000), 500 // 60 + 5):
            assert both.evaluate(k) == k
    phi = random_bijection(make_rng(402))
    both = ra.Compose((phi.inverse(), phi))
    assert all(both.evaluate(k) == k for k in range(1, 501))


def test_block_permute_preserves_blocks_setwise():
    rng = make_rng(403)
    for _ in range(50):
        period = rng.randint(2, 5)
        perm = list(range(period))
        rng.shuffle(perm)
        phi = ra.BlockPermute(period, tuple(perm))
        for j in range(6):
            block = set(range(j * period + 1, (j + 1) * period + 1))
            assert {phi.evaluate(k) for k in block} == block


def test_eventual_structure_matches_evaluation():
    rng = make_rng(404)
    for _ in range(120):
        phi = random_bijection(rng)
        st = phi.eventual_structure()
        for k in range(st.bound + 1, st.bound + 4 * st.period + 1):
            assert phi.evaluate(k) == k + st.offset_at(k)


def test_inverse_fuzzed():
    rng = make_rng(405)
    for _ in range(80):
        phi = random_bijection(rng)
        inv = phi.inverse()
        for k in range(1, 60):
            assert inv.evaluate(phi.evaluate(k)) == k


def test_sparse_embed_identity_inner():
    psi = ra.sparse_embed(ra.identity())
    assert all(psi.evaluate(k) == k for k in range(1, 501))


def test_sparse_embed_transposition():
    psi = ra.sparse_embed(ra.transposition(1, 2))
    assert psi.evaluate(1) == 3
    assert psi.evaluate(3) == 1
    fixed = [k for k in range(1, 200) if k not in (1, 3)]
    assert all(psi.evaluate(k) == k for k in fixed)
    assert ra.is_bijection(psi, 512)


def test_sparse_embed_rule():
    rng = make_rng(406)
    for _ in range(30):
        inner = random_bijection(rng, max_support=6)
        psi = ra.sparse_embed(inner)
        for k in range(1, 10):
            assert psi.evaluate(2**k - 1) == 2 ** inner.evaluate(k) - 1
        inv = psi.inverse()
        for k in range(1, 300):
            assert inv.evaluate(psi.evaluate(k)) == k


def test_is_bijection_fuzzed():
    rng = make_rng(407)
    for _ in range(100):
        phi = random_bijection(rng)
        st = phi.eventual_structure()
        bound = (max(st.bound, 20) // st.period + 1) * st.period
        assert ra.is_bijection(phi, bound)


def test_is_bijection_rejects_non_injective():
    class Collapse:
        def evaluate(self, k):
            return max(1, k - 1)

    assert not ra.is_bijection(Collapse(), 10)


def test_is_bijection_empty_range():
    assert ra.is_bijection(ra.identity(), 0)
    assert ra.is_bijection(ra.eh_shuffle(), 0)
    assert ra.is_bijection(lambda k: k + 1, 0)


def test_finite_support_table_built_once():
    phi = ra.FiniteSupport(((2, 5, 9), (1, 4)))
    assert [phi.evaluate(k) for k in range(1, 11)] == [4, 5, 3, 1, 9, 6, 7, 8, 2, 10]
    table = phi._cycle_table
    phi.evaluate(3)
    assert phi._cycle_table is table
    assert phi == ra.FiniteSupport(((2, 5, 9), (1, 4)))
    assert hash(phi) == hash(ra.FiniteSupport(((2, 5, 9), (1, 4))))


def _compositions(phi):
    """Every composition in phi, with its nesting depth."""
    stack = [(phi, 1)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, ra.Compose):
            yield node, depth
            stack.extend((part, depth + 1) for part in node.parts)


def test_compose_structure_is_the_sampled_structure():
    rng = make_rng(409)
    seen = {"depth3": 0, "empty": 0, "negative": 0, "past_period": 0}
    for _ in range(2000):
        phi = random_nested_bijection(rng)
        if not isinstance(phi, ra.Compose):
            phi = ra.Compose((phi,))
        st = phi.eventual_structure()
        assert st == compose_structure_by_sampling(phi), phi
        nodes = list(_compositions(phi))
        seen["depth3"] += max(depth for _, depth in nodes) >= 3
        seen["empty"] += any(not node.parts for node, _ in nodes)
        seen["negative"] += min(st.offsets) < 0
        seen["past_period"] += st.bound > st.period
    assert ra.Compose(()).eventual_structure() == ra.EventualStructure(0, 1, (0,))
    assert all(seen.values()), seen


def test_json_round_trip():
    rng = make_rng(408)
    for _ in range(60):
        phi = random_bijection(rng)
        again = ra.bijection_from_json(json.loads(json.dumps(phi.to_json())))
        assert again == phi
    assert ra.bijection_from_json({"kind": "finite", "cycles": [[1, 3]]}) == ra.transposition(1, 3)
    assert ra.bijection_from_json({"kind": "block", "period": 4, "perm": [0, 2, 1, 3]}) == ra.eh_shuffle()
    with pytest.raises(ra.MalformedBijectionError):
        ra.bijection_from_json({"kind": "mystery"})


@pytest.mark.parametrize(
    "blob",
    [
        {"kind": "finite", "cycles": [["a", 2]]},
        {"kind": "finite", "cycles": [[True, 2]]},
        {"kind": "finite", "cycles": [[1.0, 2]]},
        {"kind": "finite", "cycles": {"1": 2}},
        {"kind": "block", "period": 4.0, "perm": [0, 2, 1, 3]},
        {"kind": "block", "period": 2, "perm": [1, False]},
        {"kind": "compose", "of": {"kind": "finite", "cycles": []}},
        [{"kind": "finite", "cycles": []}],
    ],
)
def test_json_decoding_rejects_non_integers_and_wrong_shapes(blob):
    with pytest.raises(ra.MalformedBijectionError):
        ra.bijection_from_json(blob)


def test_block_perm_length_is_checked_before_the_period_is_spelled_out():
    with pytest.raises(ra.MalformedBijectionError, match=r"perm \(0,\) is not a permutation of 0\.\.999999999999$"):
        ra.bijection_from_json({"kind": "block", "period": 10**12, "perm": [0]})


@pytest.mark.parametrize(
    "blob, message",
    [
        ({"kind": "compose", "of": [{"kind": "block", "perm": [0]}]}, "of[0]: missing field 'period' in a block bijection"),
        (
            {"kind": "compose", "of": [{"kind": "finite", "cycles": []}, {"kind": "compose", "of": [{"kind": "zzz"}]}]},
            "of[1].of[0]: unknown bijection kind 'zzz'",
        ),
        ({"kind": "compose", "of": [{"kind": "finite", "cycles": [[1, 2], [2, 3]]}]}, "of[0]: cycles overlap at 2"),
        ({"kind": "compose", "of": 3}, "of must be a list, got 3"),
    ],
    ids=["missing_field", "nested_kind", "constructor", "top_level"],
)
def test_composition_errors_name_their_entry(blob, message):
    with pytest.raises(ra.MalformedBijectionError) as info:
        ra.bijection_from_json(blob)
    assert str(info.value) == message
