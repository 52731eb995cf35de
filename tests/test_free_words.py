import pytest
from hypothesis import given, strategies as st

from tauword import free_words as fw

from conftest import commutator_decompose_by_sorting, make_rng, random_word, random_zero_sum_word, reassemble

syllable = st.tuples(st.integers(1, 8), st.integers(-4, 4))
raw_words = st.lists(syllable, max_size=12)


def test_reduce_examples():
    assert fw.reduce([(1, 1), (2, 1), (2, -1), (3, 1)]) == fw.word((1, 1), (3, 1))
    assert fw.reduce([]) == fw.IDENTITY
    assert fw.reduce([(1, 1), (1, 1)]) == fw.word((1, 2))


def test_reduce_rejects_bad_letters():
    with pytest.raises(fw.MalformedWordError):
        fw.reduce([(0, 1)])
    with pytest.raises(fw.MalformedWordError):
        fw.reduce([(-2, 1)])


@given(raw_words)
def test_reduce_idempotent(raw):
    w = fw.reduce(raw)
    assert fw.reduce(w.syllables) == w


@given(raw_words)
def test_reduced_invariants(raw):
    w = fw.reduce(raw)
    assert all(e != 0 for _, e in w.syllables)
    assert all(a[0] != b[0] for a, b in zip(w.syllables, w.syllables[1:]))


def test_concat_invert_examples():
    l1 = fw.word((1, 1))
    assert fw.concat(l1, fw.invert(l1)) == fw.IDENTITY
    assert fw.invert(fw.word((1, 1), (2, 1))) == fw.word((2, -1), (1, -1))
    assert fw.concat(fw.word((1, 1), (2, 1)), fw.word((2, 1), (3, 1))) == fw.word(
        (1, 1), (2, 2), (3, 1)
    )


def test_group_laws_fuzzed():
    rng = make_rng(101)
    for _ in range(1000):
        a, b, c = (random_word(rng) for _ in range(3))
        assert fw.concat(fw.concat(a, b), c) == fw.concat(a, fw.concat(b, c))
        assert fw.concat(a, fw.IDENTITY) == a
        assert fw.concat(fw.IDENTITY, a) == a
        assert fw.concat(a, fw.invert(a)) == fw.IDENTITY
        assert fw.concat(fw.invert(a), a) == fw.IDENTITY


def test_power_and_operator_sugar():
    l1l2 = fw.parse_word("l1 l2")
    assert fw.power(l1l2, 0) == fw.IDENTITY
    assert fw.power(l1l2, 2) == fw.parse_word("l1 l2 l1 l2")
    assert fw.power(l1l2, -1) == fw.invert(l1l2)
    assert l1l2 * ~l1l2 == fw.IDENTITY
    assert bool(l1l2) and not bool(fw.IDENTITY)


def test_delete_above_examples():
    w = fw.word((1, 1), (3, 1), (2, 1), (3, -1))
    assert fw.delete_above(w, 2) == fw.word((1, 1), (2, 1))
    assert fw.delete_above(fw.word((2, 1), (1, 1), (2, -1)), 1) == fw.word((1, 1))
    assert fw.delete_above(fw.word((3, 1), (1, 1), (3, -1), (1, -1)), 2) == fw.IDENTITY


def test_delete_above_tower_fuzzed():
    rng = make_rng(102)
    for _ in range(500):
        w = random_word(rng, max_letter=8)
        n = rng.randint(1, 8)
        m = rng.randint(n, 9)
        assert fw.delete_above(fw.delete_above(w, m), n) == fw.delete_above(w, n)


def test_exponent_sum_examples():
    assert fw.exponent_sum(fw.word((1, 1), (2, 1), (1, -1), (2, -1)), 1) == 0
    assert fw.exponent_sum(fw.word((1, 2)), 1) == 2
    assert fw.exponent_sum(fw.word((1, 1), (2, 1)), 3) == 0


@given(raw_words, raw_words, st.integers(1, 8))
def test_exponent_sum_homomorphism(raw_a, raw_b, n):
    a, b = fw.reduce(raw_a), fw.reduce(raw_b)
    assert fw.exponent_sum(fw.concat(a, b), n) == fw.exponent_sum(a, n) + fw.exponent_sum(b, n)


def test_commutator_decompose_examples():
    c = fw.word((1, 1), (2, 1), (1, -1), (2, -1))
    pairs = fw.commutator_decompose(c)
    assert len(pairs) == 1
    assert reassemble(pairs) == c
    assert fw.commutator_decompose(fw.IDENTITY) == []
    w = fw.word((1, 1), (2, 1), (1, 1), (2, -1), (1, -2))
    pairs = fw.commutator_decompose(w)
    assert reassemble(pairs) == w


def test_commutator_decompose_requires_zero_sums():
    with pytest.raises(fw.NotInCommutatorSubgroupError):
        fw.commutator_decompose(fw.word((1, 1)))
    with pytest.raises(fw.NotInCommutatorSubgroupError):
        fw.commutator_decompose(fw.word((1, 1), (2, 1), (1, -1)))


def test_commutator_decompose_round_trip_fuzzed():
    rng = make_rng(103)
    for _ in range(500):
        w = random_zero_sum_word(rng)
        assert w.syllable_count <= 20
        pairs = fw.commutator_decompose(w)
        assert reassemble(pairs) == w
        assert len(pairs) <= max(w.syllable_count, 1)


def test_decomposition_letters_stay_inside_word():
    rng = make_rng(104)
    for _ in range(200):
        w = random_zero_sum_word(rng)
        if w.is_identity:
            continue
        letters = {l for l, _ in w.syllables}
        for a, b in fw.commutator_decompose(w):
            assert {l for l, _ in a.syllables} <= letters
            assert {l for l, _ in b.syllables} <= letters


def peeling_words(count=500):
    rng = make_rng(106)
    return [random_zero_sum_word(rng, max_pairs=16, max_letter=8) for _ in range(count)]


def test_commutator_decompose_peels_letters_in_order():
    peeled = 0
    for w in peeling_words():
        x = 0
        for a, b in fw.commutator_decompose(w):
            assert len(b.syllables) == 1  # b = l_y^e
            y = b.syllables[0][0]
            assert y >= x
            assert a and min(l for l, _ in a.syllables) >= y
            x = y
            peeled += 1
    assert peeled > 500


@pytest.mark.parametrize(
    "decompose", [fw.commutator_decompose, commutator_decompose_by_sorting], ids=["peeling", "sorting"]
)
def test_decompositions_reassemble_within_pair_bound(decompose):
    for w in peeling_words():
        pairs = decompose(w)
        assert reassemble(pairs) == w
        assert len(pairs) <= w.syllable_count


def test_text_round_trip():
    rng = make_rng(105)
    for _ in range(200):
        w = random_word(rng)
        assert fw.parse_word(fw.render_word(w)) == w
    assert fw.render_word(fw.IDENTITY) == "1"
    assert fw.parse_word("1") == fw.IDENTITY
    assert fw.parse_word("l1 l2^-1 l3^2") == fw.word((1, 1), (2, -1), (3, 2))
    with pytest.raises(fw.MalformedWordError):
        fw.parse_word("x3")
