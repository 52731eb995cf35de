"""Tests of the benchmark itself: generators, oracles, and tracing hygiene.

Run with ``PYTHONPATH=src python -m pytest bench``.
"""

from __future__ import annotations

import json
import math
import random

import pytest

import oracles as orc
import run
import tracing
import workloads
from tauword import cli, free_words, james_monoid, orders, rearrange, specker, word_expr


def _inputs(wl):
    """The ops of a workload with each input path replaced by the file's text."""
    def resolve(arg):
        return open(arg).read() if arg.startswith("/") else arg

    return [(op.kind, op.malformed, [resolve(a) for a in op.argv] if op.argv else None) for op in wl.ops]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(name, tmp_path):
    first = workloads.build(name, 5, tmp_path / "a")
    second = workloads.build(name, 5, tmp_path / "b")
    other = workloads.build(name, 6, tmp_path / "c")
    assert _inputs(first) == _inputs(second)
    assert _inputs(first) != _inputs(other)
    assert [kind for kind, _ in first.inputs] == [kind for kind, _ in second.inputs]


def test_word_oracles_agree_with_library():
    rng = random.Random(3)
    for _ in range(200):
        syls = [(rng.randint(1, 5), rng.choice((-2, -1, 1, 2))) for _ in range(rng.randint(0, 12))]
        units = orc.stack_reduce(orc.syllables_to_units(syls))
        assert orc.render_units(units) == str(free_words.reduce(syls))
        assert orc.parse_units(orc.render_units(units)) == units
    for _ in range(60):
        kind = rng.choice(("omega", "tau"))
        e = workloads.random_product(rng, rng.randrange(6), kind)
        lib = word_expr.from_json(e)
        for n in range(1, 9):
            assert orc.render_units(orc.project(e, n)) == str(word_expr.project(lib, n))
        v = word_expr.eta(lib)
        assert orc.eta(e, 30) == v.coords(30)
        again = workloads.reexpress(rng, e)
        assert word_expr.equal_up_to(lib, word_expr.from_json(again), 12).equal


def test_order_oracles_agree_with_library():
    for m in list(range(1, 300)) + [2**40 + 12345]:
        assert orc.component_text(m) == str(orders.theta(m))
    rng = random.Random(4)
    for _ in range(300):
        a, b = rng.randint(1, 5000), rng.randint(1, 5000)
        want = (orc.ternary_address(a) > orc.ternary_address(b)) - (orc.ternary_address(a) < orc.ternary_address(b))
        assert orders.compare(a, b) == want
    for name in workloads.ORDERS:
        emb = orders.back_and_forth_embed(workloads._order_spec(orders, name))
        oracle = orc.OracleEmbedding(name)
        assert [emb.image_index(i) for i in range(1, 40)] == [oracle.image(i) for i in range(1, 40)]
        assert [emb.index_of_component(m) for m in range(1, 200)] == [oracle.index_of(m) for m in range(1, 200)]


def test_algebra_oracles_agree_with_library():
    rng = random.Random(5)
    for _ in range(100):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        assert orc.homology(a, cols) == specker.h1_from_presentation(a, cols)
        assert orc.snf_certificate_holds(a, *specker.smith_normal_form(a))
    for n in range(10):
        for k in range(n + 1):
            assert orc.binomial(n, k) == math.comb(n, k)
    for m in james_monoid.all_models(3)[:20]:
        letters = [p for p in m.points if p != m.base]
        total = sum(orc.standard_nbhd_count(m.points, m.base, set(m.le), w) for w in orc.words_up_to(letters, 2))
        assert total == james_monoid.sweep_standard_nbhds(m, 2)[0]
    spec = {"kind": "compose", "of": [{"kind": "block", "period": 3, "perm": [2, 0, 1]},
                                      {"kind": "finite", "cycles": [[1, 5, 7], [2, 9]]}]}
    lib = rearrange.bijection_from_json(spec)
    phi, inv = orc.bijection(spec), orc.bijection(orc.inverse_bijection(spec))
    assert [phi(k) for k in range(1, 40)] == [lib.evaluate(k) for k in range(1, 40)]
    assert [inv(phi(k)) for k in range(1, 40)] == list(range(1, 40))


def _plant(op, outcome):
    """A wrong answer of the same shape as the real outcome of the op."""
    if op.call is not None:  # library ops return lists of component or source indices
        return [(x or 0) + 1 for x in outcome]
    rc, out = outcome
    r = json.loads(out)
    kind = op.kind
    if kind == "equal.swapped":
        r["witness"]["n"] += 1
    elif kind.startswith("equal"):
        r["equal"] = False
    elif kind.startswith("shuffle"):
        r["projections"][1]["after"] = "l1 l2^3"
    elif kind == "factor":
        first = r["stages"][0]["word"]
        r["stages"][0]["word"] = "l1 l2 l1^-1 l2^-1" + ("" if first == "1" else " " + first)
    elif kind == "project":
        r["word"] += " l1"
    elif kind == "orders.embed":
        r["rows"][-1]["m"] += 1
    elif kind == "orders.compare":
        r["result"] = "equal"
    elif kind == "orders.theta":
        r["slot"] += 1
    elif kind == "james.fibers":
        r["rows"][-1]["count"] += 1
        r["rows"][-1]["expected"] += 1
    elif kind == "james.nbhd":
        r["rows"][-1]["specs"] += 1
        r["rows"][-1]["saturated"] += 1
    elif kind == "james.saturation":
        r["neighborhoods"] += 1
        r["saturated"] += 1
    elif kind == "james.topology":
        r["model_t1"] = not r["model_t1"]
    elif kind == "wedge":
        r["blocks"][0]["torsion"] = r["blocks"][0]["torsion"] + [2]
    elif kind == "abelianize.HA":
        r["coset_rep"] = "7 " + r["coset_rep"]
    elif kind == "abelianize.griffiths":
        r["odd_part"] = "7 " + r["odd_part"]
    else:
        raise AssertionError(f"no planted answer for {kind}")
    return rc, json.dumps(r)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_each_check_accepts_the_library_and_rejects_a_planted_answer(name, tmp_path):
    wl = workloads.build(name, 2, tmp_path)
    seen = set()
    for op in sorted(wl.ops, key=lambda op: len(" ".join(op.argv or []))):
        if op.kind in seen or op.malformed:
            continue
        seen.add(op.kind)
        outcome = op.run(cli)
        assert op.check(outcome), op.kind
        assert not op.check(_plant(op, outcome)), op.kind
    assert len(seen) == len({op.kind for op in wl.ops if not op.malformed})
    malformed = [op for op in wl.ops if op.malformed]
    assert malformed and all(op.check((1, "")) and not op.check((0, "{}")) for op in malformed)


def test_no_wrapper_survives_a_traced_run(tmp_path, capsys):
    originals = {f: getattr(word_expr, f) for f in ("reduce", "concat_all", "project", "ensure_valid")}
    argv = ["equal", "--builtin", "ell_tau", "--builtin", "ell_infinity", "--depth", "4", "--format", "json"]
    assert cli.main(argv) == 2
    plain = capsys.readouterr().out
    with tracing.Tracer() as tracer:
        assert tracing.installed_wrappers()
        assert tracer.op("equal", lambda: cli.main(argv)) == 2
    assert capsys.readouterr().out == plain
    assert tracing.installed_wrappers() == []
    assert {f: getattr(word_expr, f) for f in originals} == originals
    assert word_expr.reduce is free_words.reduce
    metrics = tracer.metrics()
    assert metrics["cli.main.calls"] == 1 and metrics["orders.position_key.calls"] > 0
    assert metrics["word_expr.equal_up_to.s"] <= metrics["cli.main.s"]
    assert abs(sum(metrics[f"{m}.self_share"] for m in tracing.MODULES) - 1) < 1e-9
    tracer.write(tmp_path / "spans")
    header = json.loads((tmp_path / "spans.json").read_text())
    assert header["ops"] == [["equal", 0, header["count"]]]
    assert (tmp_path / "spans.bin").stat().st_size == header["count"] * (2 + 4 + 8 + 8)


def test_harrell_davis_quantiles():
    assert run.harrell_davis([7.0] * 100, 0.9) == pytest.approx(7.0)
    xs = [float(i) for i in range(1, 102)]
    assert run.harrell_davis(xs, 0.5) == pytest.approx(51.0)
    assert 88.0 < run.harrell_davis(xs, 0.9) < 94.0
    # moving one op across the 90th rank moves the estimate a little, not by a whole gap
    jumpy = sorted([1.0] * 89 + [10.0] * 11)
    lifted = sorted([1.0] * 88 + [10.0] * 12)
    assert run.harrell_davis(lifted, 0.9) - run.harrell_davis(jumpy, 0.9) < 9.0 / 2
