import itertools
import re

import pytest

from tauword import james_monoid as jm

from conftest import (
    EmptyFiberError,
    SpecMismatchError,
    check_saturated,
    concat_words,
    fiber,
    fiber_counts_by_tuples,
    make_rng,
    minimal_open_by_search,
    q_tuple,
    standard_nbhd,
    topology_report_by_search,
    word_nbhd_stats_by_specs,
)


CHAIN = jm.model(["e", "a", "b"], "e", [("e", "a"), ("a", "b")])
DISCRETE3 = jm.model(["e", "a", "b"], "e", [])
POINT = jm.model(["e"], "e", [])
INVERTED = jm.model(["e", "a"], "e", [("a", "e")])  # basepoint not closed


def test_model_validation():
    with pytest.raises(jm.ModelError):
        jm.model(["e", "e"], "e", [])
    with pytest.raises(jm.ModelError):
        jm.model(["a"], "e", [])
    with pytest.raises(jm.ModelError):
        jm.model(["e", "a"], "e", [("e", "a"), ("a", "e")])
    with pytest.raises(jm.ModelError):
        jm.model(["e"], "e", [("e", "x")])


def test_opens_form_topology():
    for m in jm.all_models(3):
        opens = m.opens()
        assert frozenset() in opens and frozenset(m.points) in opens
        for s, t in itertools.product(opens, repeat=2):
            assert (s | t) in opens
            assert (s & t) in opens


def test_up_sets_computed_once_without_changing_equality():
    m = jm.model(["e", "a", "b"], "e", [("e", "a"), ("a", "b")])
    fresh = jm.model(["e", "a", "b"], "e", [("e", "a"), ("a", "b")])
    assert m.up("a") is m.up("a") == frozenset({"a", "b"})
    assert m.down("a") == frozenset({"e", "a"})
    assert m == fresh and hash(m) == hash(fresh)
    assert {m: 1}[fresh] == 1


def test_model_text_round_trip():
    text = jm.render_model(CHAIN)
    again = jm.parse_model(text)
    assert again == CHAIN
    parsed = jm.parse_model("points: e a b; base: e; le: e<a, a<b")
    assert parsed == CHAIN
    with pytest.raises(jm.ModelError):
        jm.parse_model("base: e")


def test_q_and_concat_examples():
    assert q_tuple(DISCRETE3, ("a", "e", "b")) == ("a", "b")
    assert q_tuple(DISCRETE3, ("e", "e")) == ()
    assert concat_words(("a",), ("b", "a")) == ("a", "b", "a")
    assert len(concat_words(("a",), ("b", "a"))) == 3


def test_q_compatible_with_tuple_concatenation():
    rng = make_rng(606)
    for _ in range(200):
        t1 = tuple(rng.choice(DISCRETE3.points) for _ in range(rng.randint(0, 4)))
        t2 = tuple(rng.choice(DISCRETE3.points) for _ in range(rng.randint(0, 4)))
        assert q_tuple(DISCRETE3, t1 + t2) == concat_words(
            q_tuple(DISCRETE3, t1), q_tuple(DISCRETE3, t2)
        )


def test_q_compatible_with_basepoint_insertion():
    rng = make_rng(601)
    for _ in range(200):
        letters = [rng.choice(DISCRETE3.letters()) for _ in range(rng.randint(0, 4))]
        t = list(letters)
        for _ in range(rng.randint(0, 3)):
            t.insert(rng.randint(0, len(t)), "e")
        assert q_tuple(DISCRETE3, tuple(t)) == tuple(letters)


def test_monoid_laws():
    rng = make_rng(602)
    words = [tuple(rng.choice("ab") for _ in range(rng.randint(0, 3))) for _ in range(60)]
    for a, b, c in zip(words, words[1:], words[2:]):
        assert concat_words(concat_words(a, b), c) == concat_words(a, concat_words(b, c))
        assert concat_words(a, ()) == a
        assert concat_words((), a) == a


def test_fiber_examples():
    assert len(fiber(DISCRETE3, ("a",), 3)) == 3
    assert fiber(DISCRETE3, (), 4) == {("e", "e", "e", "e")}
    assert fiber(DISCRETE3, ("a", "b"), 2) == {("a", "b")}
    with pytest.raises(EmptyFiberError):
        fiber(DISCRETE3, ("a", "b"), 1)


def test_fiber_counts_binomial():
    for n in range(0, 6):
        for w in jm.words_up_to(DISCRETE3, min(n, 3)):
            if len(w) <= n:
                assert len(fiber(DISCRETE3, w, n)) == jm.expected_fiber_count(n, len(w))


def test_standard_nbhd_chain_example():
    u1 = frozenset({"a", "b"})
    v = frozenset({"e", "a", "b"})
    n_set, image = standard_nbhd(CHAIN, ("a",), [u1], v, 2)
    expected = {
        t
        for t in itertools.product(CHAIN.points, repeat=2)
        if t[0] in u1 or t[1] in u1
    }
    assert n_set == expected
    assert check_saturated(CHAIN, n_set, 2)


def test_standard_nbhd_disjoint_boxes():
    u1, u2, v = frozenset({"a"}), frozenset({"b"}), frozenset({"e"})
    n_set, _ = standard_nbhd(DISCRETE3, ("a", "b"), [u1, u2], v, 3)
    boxes = []
    for positions in itertools.combinations(range(3), 2):
        slots = [v] * 3
        slots[positions[0]] = u1
        slots[positions[1]] = u2
        boxes.append(set(itertools.product(*slots)))
    for i, j in itertools.combinations(range(len(boxes)), 2):
        assert not (boxes[i] & boxes[j])
    assert n_set == set().union(*boxes)


def test_standard_nbhd_spec_mismatch():
    with pytest.raises(SpecMismatchError):
        standard_nbhd(DISCRETE3, ("a",), [frozenset({"b"})], frozenset({"e"}), 2)
    with pytest.raises(SpecMismatchError):
        standard_nbhd(DISCRETE3, ("a",), [frozenset({"a", "e"})], frozenset({"e"}), 2)
    with pytest.raises(SpecMismatchError):
        standard_nbhd(DISCRETE3, ("a",), [frozenset({"a"})], frozenset({"a"}), 2)
    with pytest.raises(SpecMismatchError):
        standard_nbhd(DISCRETE3, ("a", "b"), [frozenset({"a"}), frozenset({"b"})], frozenset({"e"}), 1)


def test_standard_nbhds_open_in_power():
    # unions of open boxes are up-sets of the power order
    rng = make_rng(605)
    models = jm.all_models(3)
    for _ in range(40):
        m = rng.choice(models)
        n = rng.randint(1, 3)
        opens = m.opens()
        for w in jm.words_up_to(m, n):
            per_letter = [[o for o in opens if w[j] in o and m.base not in o] for j in range(len(w))]
            for us in itertools.product(*per_letter):
                for v in (o for o in opens if m.base in o):
                    n_set, _ = standard_nbhd(m, w, us, v, n)
                    for t in n_set:
                        for i, x in enumerate(t):
                            for y in m.up(x):
                                assert t[:i] + (y,) + t[i + 1 :] in n_set
                    break  # one V per U-combination keeps this quick
            if len(w) == n:
                break


def test_nbhd_images_open_in_quotient():
    # a set is open in a finite quotient stage iff it contains the minimal
    # open set of each of its words
    rng = make_rng(607)
    for m in (CHAIN, DISCRETE3, INVERTED):
        for n in (1, 2):
            opens = m.opens()
            for w in jm.words_up_to(m, n):
                per_letter = [
                    [o for o in opens if w[j] in o and m.base not in o] for j in range(len(w))
                ]
                combos = list(itertools.product(*per_letter))
                if not combos:
                    continue
                us = rng.choice(combos)
                for v in (o for o in opens if m.base in o):
                    _, image = standard_nbhd(m, w, us, v, n)
                    for word in image:
                        assert jm.minimal_open(m, word, n) <= image


def test_word_nbhd_stats():
    stats = jm.word_nbhd_stats(jm.stage_tables(DISCRETE3, 2), ("a",))
    assert stats["specs"] == stats["saturated"] > 0
    assert 0 < stats["smallest"] <= stats["largest"] <= 9


def test_check_saturated_examples():
    assert not check_saturated(DISCRETE3, {("a", "e")}, 2)
    assert check_saturated(DISCRETE3, set(itertools.product(DISCRETE3.points, repeat=2)), 2)
    assert check_saturated(DISCRETE3, set(), 2)


def test_sweep_matches_public_check():
    for m in (CHAIN, DISCRETE3, INVERTED):
        for n in (1, 2):
            tables = jm.stage_tables(m, n)
            opens = m.opens()
            for w in jm.words_up_to(m, n):
                per_letter = [
                    [o for o in opens if w[j] in o and m.base not in o] for j in range(len(w))
                ]
                for us in itertools.product(*per_letter):
                    for v in (o for o in opens if m.base in o):
                        mask = jm.nbhd_mask(tables, w, us, v)
                        tuples = {tables.tuples[i] for i in range(len(tables.tuples)) if mask >> i & 1}
                        direct, _ = standard_nbhd(m, w, us, v, n)
                        assert tuples == direct
                        assert jm.mask_saturated(tables, mask) == check_saturated(m, tuples, n)


# ---------------------------------------------------------------------------
# quotient topology: word-level reachability vs tuple-level saturation oracle
# ---------------------------------------------------------------------------


def min_open_tuplewise(m: jm.FiniteSpaceModel, w, n):
    """Independent oracle: saturation fixpoint over explicit tuple sets."""
    words = {w}
    while True:
        tuples = set()
        for u in words:
            tuples |= fiber(m, u, n)
        lifted = set()
        for t in tuples:
            lifted |= set(itertools.product(*[m.up(x) for x in t]))
        new_words = {q_tuple(m, t) for t in lifted} | words
        if new_words == words:
            return frozenset(words)
        words = new_words


def test_minimal_open_matches_tuplewise_oracle():
    for m in jm.all_models(3):
        for n in (1, 2, 3):
            for w in jm.words_up_to(m, n):
                assert jm.minimal_open(m, w, n) == min_open_tuplewise(m, w, n), (m, w, n)


def test_minimal_open_matches_tuplewise_oracle_sampled_4pt():
    rng = make_rng(604)
    models = [m for m in jm.all_models(4) if len(m.points) == 4]
    for m in rng.sample(models, 12):
        for n in (1, 2):
            for w in jm.words_up_to(m, n):
                assert jm.minimal_open(m, w, n) == min_open_tuplewise(m, w, n)


def test_topologies_agree_examples():
    rep = jm.topologies_agree(DISCRETE3, 2)
    assert rep.agree and rep.stable and rep.stage_t1 and rep.model_t1
    rep = jm.topologies_agree(POINT, 1)
    assert rep.agree and rep.stable
    rep = jm.topologies_agree(CHAIN, 2)
    assert rep.agree
    assert rep.base_closed and rep.closed_in_next
    rep = jm.topologies_agree(INVERTED, 2)
    assert rep.agree
    assert not rep.base_closed and not rep.closed_in_next and not rep.stage_t1


def test_concatenation_monotone_for_specialization():
    # finite-model continuity of stage concatenation: specializing both
    # factors specializes the product (checked through minimal open sets)
    for m in jm.all_models(3):
        for n1, n2 in [(1, 1), (1, 2), (2, 1)]:
            mo_a = jm.quotient_min_opens(m, n1)
            mo_b = jm.quotient_min_opens(m, n2)
            mo_ab = jm.quotient_min_opens(m, n1 + n2)
            for a in jm.words_up_to(m, n1):
                for b in jm.words_up_to(m, n2):
                    target = mo_ab[concat_words(a, b)]
                    for a2 in mo_a[a]:
                        for b2 in mo_b[b]:
                            assert concat_words(a2, b2) in target


def test_closed_in_next_iff_base_closed():
    for m in jm.all_models(3):
        for n in (1, 2):
            assert jm.stage_closed_in_next(m, n) == m.base_is_closed


def test_topology_size_bounds():
    big = jm.model(["e", "a", "b", "c", "d"], "e", [])
    with pytest.raises(jm.SizeBoundError):
        jm.topologies_agree(big, 2)
    with pytest.raises(jm.SizeBoundError):
        jm.topologies_agree(DISCRETE3, 4)


def test_sweep_and_fiber_bounds_name_the_bound_that_failed():
    for sweep in (jm.nbhd_rows, jm.sweep_standard_nbhds):
        for n, message in ((0, "neighbourhood sweeps need n >= 1, got n=0"),
                           (jm.MAX_N + 1, f"neighbourhood sweeps are bounded to n <= {jm.MAX_N}")):
            with pytest.raises(jm.SizeBoundError, match=f"^{re.escape(message)}$"):
                sweep(CHAIN, n)
        assert sweep(CHAIN, 1) and sweep(CHAIN, jm.MAX_N)
    with pytest.raises(jm.SizeBoundError, match=r"^fiber enumeration needs n >= 0, got n=-1$"):
        jm.fiber_rows(CHAIN, -1)
    with pytest.raises(jm.SizeBoundError, match=f"^fiber enumeration is bounded to n <= {jm.MAX_FIBER_N}$"):
        jm.fiber_rows(CHAIN, jm.MAX_FIBER_N + 1)
    assert [r["count"] for r in jm.fiber_rows(CHAIN, 0)] == [1]


def test_canonical_key_identifies_isomorphic_models():
    m1 = jm.model(["e", "a", "b"], "e", [("e", "a")])
    m2 = jm.model(["e", "a", "b"], "e", [("e", "b")])
    assert jm.canonical_key(m1) == jm.canonical_key(m2)
    assert jm.canonical_key(m1) != jm.canonical_key(CHAIN)


def test_all_models_counts():
    # labeled posets on 1..4 points: 1, 3, 19, 219
    models = jm.all_models(4)
    by_size = {}
    for m in models:
        by_size[len(m.points)] = by_size.get(len(m.points), 0) + 1
    assert by_size == {1: 1, 2: 3, 3: 19, 4: 219}
    assert len(models) == 242


def test_all_models_refuses_more_points_than_max_points():
    # only MAX_POINTS point names exist; more points would repeat the 4-point models
    assert jm.MAX_POINTS == 4
    with pytest.raises(ValueError, match="MAX_POINTS"):
        jm.all_models(5)


# ---------------------------------------------------------------------------
# the stage kernels against their search, tuple-pass and per-spec twins
# ---------------------------------------------------------------------------

ALL_MODELS = jm.all_models(4)
DISCRETE4 = jm.model(["e", "a", "b", "c"], "e", [])


def test_fiber_counts_match_tuple_pass():
    for m in ALL_MODELS:
        for n in range(7):
            assert jm.fiber_counts_by_pass(m, n) == fiber_counts_by_tuples(m, n), (m, n)
    assert jm.fiber_counts_by_pass(DISCRETE4, 8) == fiber_counts_by_tuples(DISCRETE4, 8)


def test_minimal_opens_and_topology_reports_match_search():
    # every stage word of stages n <= 3, at stages n, n + 1 and n + 2
    for m in ALL_MODELS:
        searched = {}  # one search per (word, stage), shared with the report oracle

        def search(m, w, k):
            if (w, k) not in searched:
                searched[w, k] = minimal_open_by_search(m, w, k)
            return searched[w, k]

        for k in range(jm.MAX_N + 3):
            opens = jm.quotient_min_opens(m, k)
            assert opens.keys() == set(jm.words_up_to(m, k))
            for w in jm.words_up_to(m, min(k, jm.MAX_N)):
                assert opens[w] == search(m, w, k), (m, w, k)
        for n in range(jm.MAX_N + 1):
            assert jm.topologies_agree(m, n) == topology_report_by_search(m, n, search), (m, n)


def test_word_nbhd_stats_match_per_spec_loop():
    for m in ALL_MODELS:
        for n in range(1, jm.MAX_N + 1):
            tables = jm.stage_tables(m, n)
            for w in jm.words_up_to(m, n):
                assert jm.word_nbhd_stats(tables, w) == word_nbhd_stats_by_specs(tables, w), (m, n, w)
