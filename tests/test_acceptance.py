"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Everything here is exact (integer/rational arithmetic); there are no
numeric tolerances to tune.
"""

import json
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from tauword import cli
from tauword import free_words as fw
from tauword import james_monoid as jm
from tauword import orders
from tauword import rearrange as ra
from tauword import specker as sp
from tauword import word_expr as we

from conftest import (
    fiber,
    make_rng,
    random_bijection,
    random_expr,
    random_product,
    random_zero_eta_expr,
)
from test_specker import (
    assert_valid_snf,
    cokernel_structure_by_enumeration,
    invariant_factors_by_minors,
    random_vector,
)

DATA = Path(__file__).parent / "data"


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number:2d}: PASS - {description}")


def test_criterion_01_projection_tower():
    with criterion(1, "projection tower compatible with letter deletion (500 fuzzed, n <= 12)"):
        rng = make_rng(9001)
        for _ in range(500):
            e = random_expr(rng)
            words = [we.project(e, n) for n in range(1, 14)]
            for n in range(1, 13):
                assert fw.delete_above(words[n], n) == words[n - 1]


def test_criterion_02_tau_vs_omega():
    with criterion(2, "tau vs omega order: same letter counts, different level-2 projections"):
        result = we.equal_up_to(we.ell_infinity(), we.ell_tau(), 2)
        assert not result.equal
        assert result.witness_level == 2
        assert result.left == fw.parse_word("l1 l2")
        assert result.right == fw.parse_word("l2 l1")
        assert we.eta(we.ell_infinity()) == sp.all_ones()
        assert we.eta(we.ell_tau()) == sp.all_ones()


def test_criterion_03_eh_shuffle():
    with criterion(3, "4-periodic middle swap collapses the flattened commutator product"):
        p = we.flattened_commutator_product()
        q = we.apply_bijection(p, ra.eh_shuffle())
        for n in range(1, 13):
            assert we.project(q, n).is_identity


def test_criterion_04_eta_invariance():
    with criterion(4, "letter-count vector invariant under rearrangement (300 fuzzed pairs)"):
        rng = make_rng(9004)
        for _ in range(300):
            p = random_product(rng)
            phi = random_bijection(rng)
            assert we.eta(we.apply_bijection(p, phi)) == we.eta(p)


def test_criterion_05_commutator_factorization():
    with criterion(5, "commutator factorization matches projections, stage n in letters >= n (200 fuzzed)"):
        rng = make_rng(9005)
        for _ in range(200):
            e = random_zero_eta_expr(rng)
            spec = we.commutator_factorization(e, 10)
            product = we.OmegaProd(spec)
            for n in range(1, 11):
                assert we.project(product, n) == we.project(e, n)
            for stage_index, stage in enumerate(spec.prefix, start=1):
                low = we.finite_min_letter(stage)
                assert low is None or low >= stage_index


def test_criterion_06_harmonic_archipelago_isomorphism():
    with criterion(6, "difference map carries finite-support cosets to consecutive-difference cosets (500 fuzzed)"):
        rng = make_rng(9006)
        for _ in range(500):
            v, w = random_vector(rng), random_vector(rng)
            dv, dw = sp.difference_map(v), sp.difference_map(w)
            # the induced map is an isomorphism: equality of finite-support
            # cosets corresponds exactly to equality of the image cosets
            assert sp.finite_support_eq(v, w) == sp.ha_eq(dv, dw)
            # and consecutive-difference cosets map into finite-support cosets
            if sp.ha_eq(v, w):
                assert sp.finite_support_eq(dv, dw)
        for n in range(1, 51):
            image = sp.difference_map(sp.unit(n) - sp.unit(n + 1))
            assert image.has_finite_support


def test_criterion_07_griffiths_triviality():
    with criterion(7, "odd/even split reassembles exactly and the image is trivial (200 fuzzed)"):
        rng = make_rng(9007)
        for _ in range(200):
            v = random_vector(rng)
            verdict, (odd, even) = sp.griffiths_image(v)
            assert verdict == "trivial"
            assert odd + even == v
            horizon = len(v.prefix) + 2 * len(v.cycle) + 8
            for n in range(1, horizon):
                if n % 2 == 0:
                    assert odd.at(n) == 0
                else:
                    assert even.at(n) == 0


def test_criterion_08_james_fibers():
    with criterion(8, "fiber sizes are binomial coefficients (3 letters, n <= 8, exhaustive)"):
        m = jm.model(["e", "a", "b", "c"], "e", [])
        rng = make_rng(9008)
        for n in range(0, 9):
            counts = jm.fiber_counts_by_pass(m, n)
            assert sum(counts.values()) == 4**n
            for w, count in counts.items():
                assert count == jm.expected_fiber_count(n, len(w))
            for w in rng.sample(sorted(counts), min(6, len(counts))):
                assert len(fiber(m, w, n)) == counts[w]


def test_criterion_09_saturation_and_topology():
    with criterion(9, "standard nbhds saturated + topologies agree on all models <= 4 points, n <= 3"):
        models = jm.all_models(4)
        assert len(models) == 242
        classes: dict = {}
        for m in models:
            classes.setdefault(jm.canonical_key(m), []).append(m)
        for reps in classes.values():
            m = reps[0]
            for n in (1, 2, 3):
                checked, saturated = jm.sweep_standard_nbhds(m, n)
                assert checked == saturated
                rep = jm.topologies_agree(m, n)
                assert rep.agree and rep.stable, jm.render_model(m)
                if rep.base_closed:
                    assert rep.closed_in_next
                if rep.model_t1:
                    assert rep.stage_t1
        # every model belongs to a verified class
        assert sum(len(v) for v in classes.values()) == len(models)
        # guard the isomorphism reduction: re-check sampled non-representatives
        rng = make_rng(9009)
        others = [m for reps in classes.values() for m in reps[1:]]
        for m in rng.sample(others, 8):
            for n in (1, 2):
                checked, saturated = jm.sweep_standard_nbhds(m, n)
                assert checked == saturated
                rep = jm.topologies_agree(m, n)
                assert rep.agree and rep.stable


def test_criterion_10_smith_normal_form():
    with criterion(10, "SNF with unimodular certificates (300 fuzzed) and cokernel cross-check"):
        rng = make_rng(9010)
        for _ in range(300):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            a = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
            assert_valid_snf(a)
        checked_full_rank = 0
        for _ in range(400):
            a = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            rank, torsion = sp.h1_from_presentation(a)
            factors = invariant_factors_by_minors(a)
            assert rank == 3 - len(factors)
            assert torsion == [f for f in factors if f > 1]
            d = sp.det(a)
            if d != 0 and abs(d) <= 60 and checked_full_rank < 25:
                assert torsion == cokernel_structure_by_enumeration(a)
                checked_full_rank += 1
        assert checked_full_rank == 25


def test_criterion_11_order_machinery():
    with criterion(11, "component enumeration exact to 4096; embeddings and extension commute"):
        positions = []
        for m in range(1, 4097):
            c = orders.theta(m)
            assert orders.theta_inv(c) == m
            assert c.hi - c.lo == Fraction(1, 3**c.level)
            positions.append(c)
        positions.sort(key=lambda c: c.lo)
        for a, b in zip(positions, positions[1:]):
            assert a.hi < b.lo
        rng = make_rng(9011)
        specs = [
            orders.FiniteChain(6),
            orders.Omega(),
            orders.OmegaPlusOmega(),
            orders.IntegersZeta(),
            orders.Rationals(),
        ]
        for spec in specs:
            emb = orders.back_and_forth_embed(spec)
            top = spec.size if spec.size is not None else 100
            done = 0
            while done < 200:
                i, j = rng.randint(1, top), rng.randint(1, top)
                if i == j:
                    continue
                assert (spec.cmp(i, j) < 0) == (emb(i) < emb(j))
                done += 1
        for _ in range(25):
            size = rng.randint(1, 6)
            mu = orders.back_and_forth_embed(orders.FiniteChain(size))
            values = []
            while len(set(values)) != size:
                values = [Fraction(rng.randint(-30, 30), rng.randint(1, 7)) for _ in range(size)]
            nu = orders.back_and_forth_embed(orders.ExplicitFinite(values))
            perm = list(range(1, size + 1))
            rng.shuffle(perm)
            psi = {i: perm[i - 1] for i in range(1, size + 1)}
            ext, phi = orders.extend_bijection(mu, nu, psi)
            for i in range(1, size + 1):
                assert ext.component_map(mu(i)) == nu(psi[i])
            seen = [phi(n) for n in range(1, 200)]
            assert len(set(seen)) == len(seen)


GOLDEN_COMMANDS = {
    "golden_h.json": ["abelianize", "--target", "H", "--builtin", "ell_tau", "--seed", "7", "--format", "json"],
    "golden_ha.json": ["abelianize", "--target", "HA", "--builtin", "ell_tau", "--seed", "7", "--format", "json"],
    "golden_griffiths.json": [
        "abelianize", "--target", "griffiths", "--builtin", "ell_infinity", "--seed", "7", "--format", "json",
    ],
}


def test_criterion_12_cli_golden_reports(capsys):
    with criterion(12, "reproduction reports byte-identical across runs and golden files"):
        for name, argv in GOLDEN_COMMANDS.items():
            runs = []
            for _ in range(2):
                assert cli.main(list(argv)) == 0
                runs.append(capsys.readouterr().out)
            assert runs[0] == runs[1]
            golden = (DATA / name).read_text()
            assert runs[0] == golden
            json.loads(runs[0])  # stays valid canonical JSON
