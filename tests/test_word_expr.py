import json
import re

import pytest

from tauword import free_words as fw
from tauword import rearrange as ra
from tauword import specker as sp
from tauword import word_expr as we

from hypothesis import given, settings, strategies as st

from conftest import (
    NESTING_CHAINS,
    collect_eta_by_recursion,
    equal_up_to_by_levels,
    make_rng,
    nesting_chain,
    nesting_chain_json,
    nonzero,
    project_by_recursion,
    random_bijection,
    random_expr,
    random_finite_expr,
    random_nested_bijection,
    random_product,
    random_zero_eta_expr,
    swapped_pair,
    too_deep_path,
)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_identity_expression_through_pipeline():
    e = we.identity_expr()
    assert we.validate(e) == []
    assert we.project(e, 5) == fw.IDENTITY
    assert we.eta(e) == sp.ZERO
    assert we.equal_up_to(e, we.Concat((e, e)), 8).equal
    spec = we.commutator_factorization(e, 4)
    assert all(we.project(we.OmegaProd(spec), n).is_identity for n in range(1, 5))


def test_validate_builtins_ok():
    for builtin in we.BUILTINS.values():
        assert we.validate(builtin()) == []


def test_validate_flags_constant_letter_in_tail():
    bad = we.OmegaProd(we.SeqSpec((), we.Template((we.SymLetter(1, 0, 1),))))
    report = we.validate(bad)
    assert any("constant letter in tail" in line for line in report)
    bad2 = we.OmegaProd(we.SeqSpec((), we.Template((we.Letter(1, 1),))))
    assert any("constant letter in tail" in line for line in we.validate(bad2))


def test_validate_trivial_tail_with_prefix_ok():
    e = we.OmegaProd(we.SeqSpec((we.Letter(1, 1),), we.Trivial()))
    assert we.validate(e) == []


def test_validate_flags_bad_nodes():
    assert we.validate(we.Letter(0, 1))
    assert we.validate(we.Letter(1, 0))
    assert we.validate(we.SymLetter(1, 1, 1))  # symbolic leaf outside a body
    nested = we.OmegaProd(we.SeqSpec((we.ell_infinity(),), we.Trivial()))
    assert any("nested infinite product" in line for line in we.validate(nested))
    report = we.validate(we.Concat((we.Letter(2, 1), we.Letter(0, 5))))
    assert any("factors[1]" in line for line in report)


def test_operations_reject_invalid():
    bad = we.OmegaProd(we.SeqSpec((), we.Template((we.SymLetter(1, 0, 1),))))
    with pytest.raises(we.ValidationError):
        we.project(bad, 3)
    with pytest.raises(we.ValidationError):
        we.eta(bad)


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def test_project_builtin_examples():
    assert we.project(we.ell_infinity(), 3) == fw.parse_word("l1 l2 l3")
    assert we.project(we.ell_tau(), 2) == fw.parse_word("l2 l1")
    assert we.project(we.ell_tau(), 3) == fw.parse_word("l2 l1 l3")
    assert we.project(we.Letter(5, -2), 4) == fw.IDENTITY


def test_project_commutator_template():
    e = we.commutator_product()
    assert we.project(e, 2) == fw.parse_word("l1 l2 l1^-1 l2^-1")
    # brute-force expansion of the first few factors agrees
    words = []
    for k in range(5):
        factor = we.instantiate(e.spec.tail.bodies[0], k)
        words.append(we.project(we.Concat((factor,)), 2))
    assert fw.concat_all(words) == we.project(e, 2)


def test_project_step_one_commutator_template():
    # factor k is the commutator of l(1+k) and l(2+k); at level 2 only the
    # k=0 factor survives whole, while k=1 contributes l2 l2^-1 and cancels
    body = we.commutator_expr(we.SymLetter(1, 1, 1), we.SymLetter(2, 1, 1))
    e = we.OmegaProd(we.SeqSpec((), we.Template((body,))))
    assert we.project(e, 2) == fw.parse_word("l1 l2 l1^-1 l2^-1")
    expanded = fw.concat_all(
        [we.project(we.Concat((we.instantiate(body, k),)), 2) for k in range(5)]
    )
    assert expanded == we.project(e, 2)
    assert we.eta(e) == sp.ZERO


def test_project_tower_fuzzed():
    rng = make_rng(501)
    for _ in range(150):
        e = random_expr(rng)
        for n in range(1, 13):
            assert fw.delete_above(we.project(e, n + 1), n) == we.project(e, n)


def test_projection_tower_matches_each_level_fuzzed():
    rng = make_rng(506)
    for _ in range(100):
        e = random_expr(rng)
        n = rng.randint(0, 14)
        assert we.projection_tower(e, n) == [we.project(e, k) for k in range(1, n + 1)]


def test_project_concat_of_products():
    e = we.Concat((we.ell_infinity(), we.Inverse(we.ell_infinity())))
    for n in range(1, 8):
        assert we.project(e, n) == fw.IDENTITY


# ---------------------------------------------------------------------------
# eta
# ---------------------------------------------------------------------------


def test_eta_examples():
    assert we.eta(we.ell_infinity()) == sp.all_ones()
    assert we.eta(we.ell_tau()) == sp.all_ones()
    assert we.eta(we.commutator_product()) == sp.ZERO
    assert we.eta(we.Letter(5, -2)) == sp.unit(5).scale(-2)


def test_eta_matches_projection_sums_fuzzed():
    rng = make_rng(502)
    for _ in range(120):
        e = random_expr(rng)
        v = we.eta(e)
        w = we.project(e, 14)
        for n in range(1, 15):
            assert v.at(n) == fw.exponent_sum(w, n), (e, n)


def test_eta_is_homomorphism():
    rng = make_rng(503)
    for _ in range(100):
        a, b = random_expr(rng), random_expr(rng)
        assert we.eta(we.Concat((a, b))) == we.eta(a) + we.eta(b)
        assert we.eta(we.Inverse(a)) == -we.eta(a)


# ---------------------------------------------------------------------------
# equality evidence
# ---------------------------------------------------------------------------


def test_equal_up_to_tau_vs_omega():
    result = we.equal_up_to(we.ell_infinity(), we.ell_tau(), 2)
    assert not result.equal
    assert result.witness_level == 2
    assert result.left == fw.parse_word("l1 l2")
    assert result.right == fw.parse_word("l2 l1")


def test_equal_up_to_reflexive_and_trivial():
    rng = make_rng(504)
    e = random_expr(rng)
    assert we.equal_up_to(e, e, 10).equal
    assert we.equal_up_to(
        we.Concat((we.Letter(1, 1), we.Inverse(we.Letter(1, 1)))), we.identity_expr(), 10
    ).equal


def _equality_pairs(rng):
    """Seeded pairs: unrelated, reflexive, omega against tau, rearranged, swapped."""
    for _ in range(40):
        yield random_expr(rng), random_expr(rng)
        e = random_expr(rng)
        yield e, we.Inverse(we.Inverse(e))
        spec = random_product(rng).spec
        yield we.OmegaProd(spec), we.TauProd(spec)
        p = random_product(rng)
        yield p, we.apply_bijection(p, random_bijection(rng))
        yield swapped_pair(rng)


def test_equal_up_to_matches_level_by_level_oracle_fuzzed():
    rng = make_rng(507)
    witnesses = set()
    for a, b in _equality_pairs(rng):
        n_max = rng.randint(0, 16)
        got = we.equal_up_to(a, b, n_max)
        # EqualityResult equality compares equal, witness_level, left and right
        assert got == equal_up_to_by_levels(a, b, n_max), (a, b, n_max)
        witnesses.add(got.witness_level)
    # both verdicts and a spread of witness levels were exercised
    assert None in witnesses and len(witnesses) > 6


def test_equal_up_to_swapped_letters_witness():
    a = we.OmegaProd(we.SeqSpec((we.Letter(3), we.Letter(7)), we.Trivial()))
    b = we.OmegaProd(we.SeqSpec((we.Letter(7), we.Letter(3)), we.Trivial()))
    result = we.equal_up_to(a, b, 20)
    assert (result.witness_level, str(result.left), str(result.right)) == (7, "l3 l7", "l7 l3")
    assert we.equal_up_to(a, b, 6).equal
    assert we.equal_up_to(a, b, 0).equal


# ---------------------------------------------------------------------------
# rearrangement
# ---------------------------------------------------------------------------


def test_apply_bijection_identity():
    rng = make_rng(505)
    for _ in range(20):
        p = random_product(rng)
        q = we.apply_bijection(p, ra.identity())
        for n in range(1, 13):
            assert we.project(q, n) == we.project(p, n)


def test_apply_bijection_transposition_example():
    q = we.apply_bijection(we.ell_infinity(), ra.transposition(1, 3))
    assert we.project(q, 3) == fw.parse_word("l3 l2 l1")
    assert we.project(q, 4) == fw.parse_word("l3 l2 l1 l4")


def test_apply_bijection_factorwise_fuzzed():
    rng = make_rng(506)
    cases = [(random_product(rng), random_bijection(rng)) for _ in range(80)]
    cases += [(random_product(rng), random_nested_bijection(rng)) for _ in range(80)]
    for p, phi in cases:
        q = we.apply_bijection(p, phi)
        assert type(q) is type(p)
        for k in range(1, 70):
            assert we.factor_at(q.spec, k) == we.factor_at(p.spec, phi.evaluate(k)), (p, phi, k)


def test_apply_bijection_eta_invariant_fuzzed():
    rng = make_rng(507)
    for _ in range(100):
        p = random_product(rng)
        phi = random_bijection(rng)
        assert we.eta(we.apply_bijection(p, phi)) == we.eta(p)


def test_eh_shuffle_collapses_flattened_commutators():
    p = we.flattened_commutator_product()
    q = we.apply_bijection(p, ra.eh_shuffle())
    for n in range(1, 13):
        assert we.project(q, n).is_identity
    assert we.eta(q) == we.eta(p) == sp.ZERO


def test_rearrangement_changes_projection_but_not_eta():
    p = we.ell_infinity()
    q = we.apply_bijection(p, ra.transposition(1, 2))
    result = we.equal_up_to(p, q, 12)
    assert not result.equal
    assert we.eta(p) == we.eta(q)
    # and a fuzz search also produces such a witness
    rng = make_rng(508)
    found = False
    for _ in range(200):
        p = random_product(rng)
        phi = random_bijection(rng)
        q = we.apply_bijection(p, phi)
        if not we.equal_up_to(p, q, 12).equal:
            assert we.eta(p) == we.eta(q)
            found = True
            break
    assert found


def test_apply_bijection_trivial_tail_with_sparse_embed():
    p = we.OmegaProd(
        we.SeqSpec((we.Letter(1, 1), we.Letter(2, 1), we.Letter(3, 1)), we.Trivial())
    )
    psi = ra.sparse_embed(ra.transposition(1, 2))
    q = we.apply_bijection(p, psi)
    for k in range(1, 40):
        assert we.factor_at(q.spec, k) == we.factor_at(p.spec, psi.evaluate(k))
    # factor 1 of p (= l1) now sits at position psi^-1(1) = 3
    assert we.factor_at(q.spec, 3) == we.Letter(1, 1)
    assert we.eta(q) == we.eta(p)


def test_apply_bijection_template_requires_offset_structure():
    with pytest.raises(we.ClosureError):
        we.apply_bijection(we.ell_infinity(), ra.sparse_embed(ra.identity()))


def test_apply_bijection_rejects_non_products():
    with pytest.raises(TypeError):
        we.apply_bijection(we.Letter(1, 1), ra.identity())


# ---------------------------------------------------------------------------
# commutator factorization
# ---------------------------------------------------------------------------


def test_factorization_single_commutator():
    e = we.Concat(
        (we.Letter(1, 1), we.Letter(2, 1), we.Letter(1, -1), we.Letter(2, -1))
    )
    spec = we.commutator_factorization(e, 6)
    assert isinstance(spec.tail, we.Trivial)
    product = we.OmegaProd(spec)
    for n in range(1, 7):
        assert we.project(product, n) == we.project(e, n)
    stage1 = we.project(we.Concat((spec.prefix[0],)), 99)
    assert stage1 == fw.parse_word("l1 l2 l1^-1 l2^-1")


def test_factorization_already_factored():
    e = we.commutator_product()
    assert we.commutator_factorization(e, 12) == e.spec
    for n in range(1, 13):
        assert we.project(we.OmegaProd(we.commutator_factorization(e, 12)), n) == we.project(e, n)


def test_factorization_requires_zero_eta():
    with pytest.raises(we.HypothesisViolationError):
        we.commutator_factorization(we.ell_infinity(), 5)


def test_factorization_fuzzed_round_trip():
    rng = make_rng(509)
    for _ in range(60):
        e = random_zero_eta_expr(rng)
        assert we.eta(e).is_zero
        spec = we.commutator_factorization(e, 10)
        product = we.OmegaProd(spec)
        for n in range(1, 11):
            assert we.project(product, n) == we.project(e, n)
        for stage_index, stage in enumerate(spec.prefix, start=1):
            m = we.finite_min_letter(stage)
            assert m is None or m >= stage_index
            assert we._is_commutator_blocks(stage)


def check_stages_are_letter_quotients(e, depth):
    """Stage n multiplies out to beta_{n-1} beta_n^-1, where beta_0 is the
    depth-level projection and beta_n deletes letter n from beta_{n-1}, and
    each of its commutators is [a, l_n^e] with a in letters >= n."""
    spec = we.commutator_factorization(e, depth)
    assert len(spec.prefix) == depth
    beta = we.project(e, depth)
    for n, stage in enumerate(spec.prefix, start=1):
        beta_next = fw.delete_letter(beta, n)
        assert we.project(stage, depth) == fw.concat(beta, fw.invert(beta_next))
        for block in stage.factors:
            a, b, inv_a, inv_b = block.factors
            assert isinstance(b, we.Letter) and b.index == n
            assert (inv_a, inv_b) == (we.Inverse(a), we.Inverse(b))
            assert we.finite_min_letter(a) >= n
        beta = beta_next
    assert beta.is_identity


def test_factorization_stages_are_letter_quotients_fuzzed():
    rng = make_rng(511)
    checked = 0
    while checked < 40:
        e = random_zero_eta_expr(rng)
        if isinstance(e, we.OmegaProd) and we._already_factored(e.spec):
            continue
        check_stages_are_letter_quotients(e, rng.randint(1, 40))
        checked += 1


@pytest.mark.parametrize("depth", [1, 2, 7, 20, 40])
def test_factorization_stages_are_letter_quotients_tau_commutators(depth):
    check_stages_are_letter_quotients(we.TauProd(we.commutator_product().spec), depth)


# ---------------------------------------------------------------------------
# double-sequence flattenings (the order type stays out of the grammar)
# ---------------------------------------------------------------------------


def test_finite_double_flattenings_agree_in_eta_not_in_projection():
    size = 3
    factors = {
        (m, n): we.Letter(2 * m + 3 * n, 1) for m in range(1, size + 1) for n in range(1, size + 1)
    }
    rows = we.Concat(
        tuple(factors[(m, n)] for m in range(1, size + 1) for n in range(1, size + 1))
    )
    cols = we.Concat(
        tuple(factors[(m, n)] for n in range(1, size + 1) for m in range(1, size + 1))
    )
    assert we.eta(rows) == we.eta(cols)
    assert not we.equal_up_to(rows, cols, 16).equal


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


def test_json_round_trip_fuzzed():
    rng = make_rng(510)
    for _ in range(120):
        e = random_expr(rng)
        blob = json.dumps(we.to_json(e), sort_keys=True)
        again = we.from_json(json.loads(blob))
        assert again == e


def test_json_schema_shapes():
    blob = we.to_json(we.ell_tau())
    assert blob["type"] == "tau"
    assert blob["prefix"] == []
    assert blob["tail"]["kind"] == "template"
    assert blob["tail"]["body"] == {"type": "letter", "base": 1, "coef": 1, "exp": 1}
    assert we.to_json(we.Letter(2, -1)) == {"type": "letter", "index": 2, "exp": -1}
    multi = we.apply_bijection(we.ell_infinity(), ra.eh_shuffle())
    tail = we.to_json(multi)["tail"]
    assert tail["kind"] == "template" and "bodies" in tail
    assert we.from_json(we.to_json(multi)) == multi


def test_json_rejects_unknown():
    with pytest.raises(we.ValidationError):
        we.from_json({"type": "mystery"})


@pytest.mark.parametrize(
    "blob, where",
    [
        ([{"type": "letter", "index": 1}], "expr: expected an object, got list"),
        ({"type": "omega", "prefix": [], "tail": 5}, "expr.tail: expected an object, got int"),
        ({"type": "concat", "factors": None}, "expr.factors: expected a list"),
        ({"type": "tau", "prefix": {}, "tail": {"kind": "trivial"}}, "expr.prefix: expected a list"),
        (
            {"type": "omega", "prefix": [], "tail": {"kind": "template", "bodies": "ab"}},
            "expr.tail.bodies: expected a list",
        ),
        (
            {"type": "concat", "factors": [{"type": "letter", "index": 1}, {"type": "letter", "index": 1.7, "exp": 2.9}]},
            "expr.factors[1].index: expected an integer, got 1.7",
        ),
        ({"type": "letter", "index": True}, "expr.index: expected an integer, got True"),
        ({"type": "letter", "index": 2, "exp": "3"}, "expr.exp: expected an integer, got '3'"),
        (
            {"type": "tau", "prefix": [], "tail": {"kind": "template", "body": {"type": "letter", "base": 1, "coef": 1.0}}},
            "expr.tail.body.coef: expected an integer, got 1.0",
        ),
        ({"type": "inverse", "of": {"type": "letter", "index": 1, "exp": False}}, "expr.of.exp: expected an integer"),
    ],
)
def test_json_decoding_is_strict_with_paths(blob, where):
    with pytest.raises(we.ValidationError, match=re.escape(where)):
        we.from_json(blob)


# ---------------------------------------------------------------------------
# the leaf walk and the nesting limit
# ---------------------------------------------------------------------------


def nested_expr(rng, levels):
    """A chain of ``levels`` concat and inverse nodes around a letter; beside the
    chain, the concats hold letters, finite expressions and products."""
    e = we.Letter(rng.randint(1, 8), nonzero(rng))
    for level in range(levels - 1, -1, -1):  # the level of the node built in this step
        if rng.random() < 0.4:
            e = we.Inverse(e)
            continue
        roll = rng.random()
        if level + 5 <= we.MAX_NESTING and roll < 0.1:
            side = random_expr(rng)  # at most four levels below its own
        elif level + 3 <= we.MAX_NESTING and roll < 0.4:
            side = random_finite_expr(rng)
        else:
            side = we.Letter(rng.randint(1, 8), nonzero(rng))
        e = we.Concat((side, e) if rng.random() < 0.5 else (e, side))
    return e


def test_walk_agrees_with_the_recursive_oracles_fuzzed():
    rng = make_rng(1515)
    exprs = [random_finite_expr(rng, depth=4) for _ in range(40)]
    exprs += [random_expr(rng) for _ in range(80)]
    exprs += [nested_expr(rng, rng.randint(1, we.MAX_NESTING)) for _ in range(15)]
    exprs += [nested_expr(rng, we.MAX_NESTING) for _ in range(5)]
    for e in exprs:
        assert we.validate(e) == []
        for n in range(1, 13):
            assert we.project(e, n) == project_by_recursion(e, n)
        consts, aps = {}, []
        collect_eta_by_recursion(e, 1, consts, aps)
        expected = [
            consts.get(n, 0) + sum(exp for base, coef, exp in aps if n >= base and (n - base) % coef == 0)
            for n in range(1, 61)
        ]
        assert we.eta(e).coords(60) == expected


@pytest.mark.parametrize("shape, head, step", NESTING_CHAINS, ids=[c[0] for c in NESTING_CHAINS])
def test_nesting_limit_holds_for_every_node_type(shape, head, step):
    assert we.validate(nesting_chain(shape, we.MAX_NESTING)) == []
    deep = nesting_chain(shape, we.MAX_NESTING + 1)
    assert we.validate(deep) == [f"{too_deep_path(head, step)}: nested deeper than {we.MAX_NESTING} levels"]


@pytest.mark.parametrize("shape, head, step", NESTING_CHAINS, ids=[c[0] for c in NESTING_CHAINS])
def test_to_json_stops_at_the_nesting_limit(shape, head, step):
    assert we.to_json(nesting_chain(shape, we.MAX_NESTING)) == nesting_chain_json(shape, we.MAX_NESTING)
    for levels in (we.MAX_NESTING + 1, 5000):
        deep = nesting_chain(shape, levels)
        with pytest.raises(we.ValidationError) as info:
            we.to_json(deep)
        assert info.value.report == we.validate(deep)
        assert str(info.value) == f"{too_deep_path(head, step)}: nested deeper than {we.MAX_NESTING} levels"


@pytest.mark.parametrize("shape", [c[0] for c in NESTING_CHAINS])
def test_a_chain_far_past_the_limit_is_reported_not_recursed(shape):
    deep = nesting_chain(shape, 5000)
    report = we.validate(deep)
    assert len(report) == 1 and report[0].endswith(f": nested deeper than {we.MAX_NESTING} levels")
    with pytest.raises(we.ValidationError):
        we.project(deep, 2)


def test_finite_word_reads_letters_above_any_level():
    a, b = we.Letter(2 * 10**9, 1), we.Letter(2 * 10**9 + 1, 1)
    assert str(we.finite_word(we.commutator_expr(a, b))) == (
        "l2000000000 l2000000001 l2000000000^-1 l2000000001^-1"
    )
    with pytest.raises(TypeError):
        we.finite_word(we.OmegaProd(we.SeqSpec((a,), we.Trivial())))


_words = st.sampled_from(
    ["type", "kind", "letter", "concat", "inverse", "omega", "tau", "trivial", "template", "finite", "block",
     "compose", "index", "exp", "base", "coef", "factors", "of", "prefix", "tail", "body", "bodies", "cycles",
     "period", "perm"]
)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.integers() | st.floats(allow_nan=False) | _words,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_words, inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(_json_values)
def test_decoders_raise_only_their_input_errors(obj):
    try:
        we.validate(we.from_json(obj))
    except we.ValidationError:
        pass
    try:
        ra.bijection_from_json(obj)
    except ra.MalformedBijectionError:
        pass
