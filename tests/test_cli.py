import itertools
import json
from pathlib import Path

import pytest

from tauword import cli, james_monoid as jm, orders, rearrange as ra, word_expr as we

from conftest import (
    NESTING_CHAINS,
    check_saturated,
    equal_up_to_by_levels,
    nesting_chain,
    nesting_chain_json,
    standard_nbhd,
    too_deep_path,
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_project_builtin(capsys):
    code, out, _ = run(capsys, "project", "--builtin", "ell_tau", "--n", "3")
    assert code == 0
    assert out.strip() == "l2 l1 l3"


def test_eta_builtin(capsys):
    code, out, _ = run(capsys, "eta", "--builtin", "ell_infinity")
    assert code == 0
    assert out.strip() == "; 1"


def test_equal_exit_codes(capsys):
    code, out, _ = run(
        capsys, "equal", "--builtin", "ell_infinity", "--builtin", "ell_tau", "--depth", "2"
    )
    assert code == 2
    assert "n=2" in out
    code, out, _ = run(
        capsys, "equal", "--builtin", "ell_infinity", "--builtin", "ell_infinity", "--depth", "5"
    )
    assert code == 0


def test_input_errors(capsys):
    code, _, err = run(capsys, "project", "--builtin", "nonsense", "--n", "2")
    assert code == 1 and "unknown builtin" in err
    code, _, err = run(capsys, "project", "--expr", "/does/not/exist.json", "--n", "2")
    assert code == 1
    code, _, err = run(capsys, "equal", "--builtin", "ell_tau", "--depth", "2")
    assert code == 1 and "expected 2" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["equal", "--builtin", "ell_infinity", "--builtin", "ell_infinity"],
        ["shuffle", "--builtin", "ell_infinity", "--named", "eh_shuffle"],
        ["factor", "--builtin", "commutator_product"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_depth_rejected(capsys, argv):
    code, out, err = run(capsys, *argv, "--depth", "-1")
    assert code == 1
    assert out == ""
    assert "--depth must be non-negative" in err
    code, _, _ = run(capsys, *argv, "--depth", "0")
    assert code == 0


def test_expression_file_and_json_format(tmp_path, capsys):
    path = tmp_path / "expr.json"
    path.write_text(json.dumps(we.to_json(we.ell_tau())))
    code, out, _ = run(capsys, "project", "--expr", str(path), "--n", "2", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["word"] == "l2 l1"
    assert out == json.dumps(blob, sort_keys=True, separators=(",", ":")) + "\n"


def test_invalid_expression_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"type": "omega", "prefix": [], "tail": {"kind": "template", "body": {"type": "letter", "base": 1, "coef": 0, "exp": 1}}}))
    code, _, err = run(capsys, "project", "--expr", str(path), "--n", "2")
    assert code == 1
    assert "constant letter" in err


def test_shuffle_eh_collapses(capsys):
    code, out, _ = run(
        capsys,
        "shuffle",
        "--builtin",
        "flattened_commutator_product",
        "--named",
        "eh_shuffle",
        "--depth",
        "6",
        "--format",
        "json",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["eta_invariant"] is True
    assert blob["all_projections_identity"] is True


def test_shuffle_with_bijection_file(tmp_path, capsys):
    path = tmp_path / "phi.json"
    path.write_text(json.dumps({"kind": "finite", "cycles": [[1, 3]]}))
    code, out, _ = run(
        capsys, "shuffle", "--builtin", "ell_infinity", "--bijection", str(path), "--depth", "3"
    )
    assert code == 0
    assert "l3 l2 l1" in out


def test_shuffle_bad_bijection_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "block", "period": 3, "perm": [0, 0, 1]}))
    code, _, err = run(capsys, "shuffle", "--builtin", "ell_infinity", "--bijection", str(path))
    assert code == 1 and "permutation" in err
    code, _, err = run(capsys, "shuffle", "--builtin", "ell_infinity")
    assert code == 1 and "--bijection" in err


def test_factor_command(tmp_path, capsys):
    expr = we.Concat((we.Letter(1, 1), we.Letter(2, 1), we.Letter(1, -1), we.Letter(2, -1)))
    path = tmp_path / "comm.json"
    path.write_text(json.dumps(we.to_json(expr)))
    code, out, _ = run(capsys, "factor", "--expr", str(path), "--depth", "5", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["projections_match"] is True
    assert blob["stages"][0]["word"] == "l1 l2 l1^-1 l2^-1"
    code, out, err = run(capsys, "factor", "--builtin", "ell_tau", "--depth", "3")
    assert (code, out, err) == (1, "", "error: winding vector is nonzero\n")


@pytest.mark.parametrize(
    "builtin, projections", [("flattened_commutator_product", 2), ("commutator_product", 0)]
)
def test_factor_projects_the_input_once(capsys, monkeypatch, builtin, projections):
    """One depth projection of the input, one of the stages; an already-factored
    input (commutator_product) is its own factorization and needs neither."""
    seen = []
    project = we._project

    def spy(e, n):
        if isinstance(e, (we.OmegaProd, we.TauProd)):
            seen.append(n)
        return project(e, n)

    monkeypatch.setattr(we, "_project", spy)
    code, out, _ = run(capsys, "factor", "--builtin", builtin, "--depth", "30")
    assert code == 0 and out.endswith("projections match input up to depth 30: True\n")
    assert seen == [30] * projections


def test_abelianize_targets(capsys, tmp_path):
    code, out, _ = run(capsys, "abelianize", "--target", "H", "--builtin", "ell_tau")
    assert code == 0 and "; 1" in out
    # an expression whose image is a generator of the killed subgroup
    expr = we.Concat((we.Letter(1, 1), we.Letter(2, -1)))
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(we.to_json(expr)))
    code, out, _ = run(capsys, "abelianize", "--target", "HA", "--expr", str(path), "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["trivial"] is True
    code, out, _ = run(capsys, "abelianize", "--target", "griffiths", "--builtin", "ell_infinity", "--format", "json")
    blob = json.loads(out)
    assert blob["image"] == "trivial"
    assert blob["odd_part"] == "; 1 0"
    assert blob["even_part"] == "; 0 1"


MODEL_TEXT = "points: e a b; base: e; le: e<a, a<b"


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text(MODEL_TEXT)
    return str(path)


def test_james_fibers(model_file, capsys):
    code, out, _ = run(capsys, "james", "--model", model_file, "--check", "fibers", "--n", "3", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert all(row["ok"] for row in blob["rows"])
    empty = next(r for r in blob["rows"] if r["word"] == "(empty)")
    assert empty["count"] == 1


def test_james_nbhd_table(model_file, capsys):
    code, out, _ = run(capsys, "james", "--model", model_file, "--check", "nbhd", "--n", "2", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert all(row["specs"] == row["saturated"] for row in blob["rows"])


def test_james_saturation_and_topology(model_file, capsys):
    code, out, _ = run(capsys, "james", "--model", model_file, "--check", "saturation", "--n", "2", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["neighborhoods"] == blob["saturated"] > 0
    code, out, _ = run(capsys, "james", "--model", model_file, "--check", "topology", "--n", "2", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["agree"] and blob["stable"]
    assert blob["base_closed"] and blob["closed_in_next"]


def test_james_bounds(model_file, capsys):
    code, out, err = run(capsys, "james", "--model", model_file, "--check", "topology", "--n", "5")
    assert (code, out, err) == (1, "", "error: bounds exceeded: 3 points (max 4), n=5 (max 3)\n")


def nbhd_rows_by_oracle(m: jm.FiniteSpaceModel, n: int) -> list[dict]:
    """The ``james --check nbhd`` rows, built from the set-based oracles."""
    opens = m.opens()
    rows = []
    for w in sorted(jm.words_up_to(m, n), key=lambda w: (len(w), w)):
        per_letter = [[o for o in opens if x in o and m.base not in o] for x in w]
        sizes, saturated = [], 0
        for us in itertools.product(*per_letter):
            for v in (o for o in opens if m.base in o):
                tuples, _ = standard_nbhd(m, w, us, v, n)
                sizes.append(len(tuples))
                saturated += check_saturated(m, tuples, n)
        rows.append({
            "word": " ".join(w) or "(empty)",
            "specs": len(sizes),
            "saturated": saturated,
            "smallest": min(sizes, default=0),
            "largest": max(sizes, default=0),
        })
    return rows


@pytest.mark.parametrize("n", [1, 2])
def test_james_nbhd_and_saturation_match_set_based_oracle(tmp_path, capsys, n):
    for i, m in enumerate(jm.all_models(3)):
        path = tmp_path / f"model{i}.txt"
        path.write_text(jm.render_model(m))
        rows = nbhd_rows_by_oracle(m, n)
        all_saturated = all(r["specs"] == r["saturated"] for r in rows)
        code, out, _ = run(capsys, "james", "--model", str(path), "--check", "nbhd", "--n", str(n), "--format", "json")
        assert json.loads(out)["rows"] == rows, jm.render_model(m)
        assert code == (0 if all_saturated else 2)
        code, out, _ = run(
            capsys, "james", "--model", str(path), "--check", "saturation", "--n", str(n), "--format", "json"
        )
        blob = json.loads(out)
        assert blob["neighborhoods"] == sum(r["specs"] for r in rows)
        assert blob["saturated"] == sum(r["saturated"] for r in rows)
        assert code == (0 if all_saturated else 2)


@pytest.mark.parametrize("check", ["nbhd", "saturation"])
def test_james_builds_one_stage_per_call(model_file, capsys, monkeypatch, check):
    built = []
    real = jm.stage_tables
    monkeypatch.setattr(jm, "stage_tables", lambda m, n: built.append(n) or real(m, n))
    code, _, _ = run(capsys, "james", "--model", model_file, "--check", check, "--n", "3")
    assert code == 0
    assert built == [3]


@pytest.mark.parametrize(
    "blob, where",
    [
        ([{"type": "letter", "index": 1, "exp": 1}, {"type": "letter", "index": 2, "exp": 1}], "expr: expected an object"),
        ({"type": "omega", "prefix": [], "tail": 5}, "expr.tail: expected an object"),
        (
            {"type": "concat", "factors": [{"type": "letter", "index": 1, "exp": 1}, {"type": "letter", "index": 1.7, "exp": 2.9}]},
            "expr.factors[1].index: expected an integer, got 1.7",
        ),
        ({"type": "letter", "index": True, "exp": 1}, "expr.index: expected an integer, got True"),
    ],
    ids=["json_list", "tail_int", "float_leaf", "bool_index"],
)
def test_malformed_expression_is_input_error(tmp_path, capsys, blob, where):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    code, out, err = run(capsys, "eta", "--expr", str(path))
    assert code == 1 and out == ""
    assert where in err and "Traceback" not in err


@pytest.mark.parametrize(
    "blob, where",
    [
        ({"kind": "finite", "cycles": [["a", 2]]}, "cycle entries must be integers"),
        ({"kind": "block", "period": 4.0, "perm": [0, 2, 1, 3]}, "period must be an integer, got 4.0"),
    ],
    ids=["str_cycle_entry", "float_period"],
)
def test_malformed_bijection_is_input_error(tmp_path, capsys, blob, where):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    code, out, err = run(capsys, "shuffle", "--builtin", "ell_infinity", "--bijection", str(path))
    assert code == 1 and out == ""
    assert where in err and "Traceback" not in err


@pytest.mark.parametrize(
    "blob, where",
    [
        ({"type": "letter"}, "expr: missing field 'index' or 'base'"),
        (
            {"type": "concat", "factors": [{"type": "letter", "exp": 2}]},
            "expr.factors[0]: missing field 'index' or 'base'",
        ),
        (
            {"type": "omega", "prefix": [], "tail": {"kind": "template", "body": {"type": "letter", "base": 1}}},
            "expr.tail.body: missing field 'coef'",
        ),
        ({"type": "concat"}, "expr: missing field 'factors'"),
        ({"type": "inverse"}, "expr: missing field 'of'"),
        ({"type": "omega", "tail": {"kind": "trivial"}}, "expr: missing field 'prefix'"),
        ({"type": "tau", "prefix": []}, "expr: missing field 'tail'"),
        ({"type": "omega", "prefix": [], "tail": {}}, "expr.tail: missing field 'kind'"),
        ({"type": "tau", "prefix": [], "tail": {"kind": "template"}}, "expr.tail: missing field 'body' or 'bodies'"),
        (
            {"type": "concat", "factors": [{"type": "letter", "index": 1}, {"type": "lettr", "index": 2}]},
            "expr.factors[1]: unknown expression type 'lettr'",
        ),
        ({"type": "omega", "prefix": [], "tail": {"kind": "zzz"}}, "expr.tail: unknown tail kind 'zzz'"),
    ],
    ids=[
        "letter",
        "nested_letter",
        "coef",
        "factors",
        "of",
        "prefix",
        "tail",
        "tail_kind",
        "template_body",
        "unknown_type",
        "unknown_tail_kind",
    ],
)
def test_missing_expression_field_is_input_error(tmp_path, capsys, blob, where):
    path = write_json(tmp_path, "bad.json", blob)
    code, out, err = run(capsys, "eta", "--expr", path)
    assert (code, out, err) == (1, "", f"error: cannot read expression {path!r}: {where}\n")


@pytest.mark.parametrize(
    "blob, where",
    [
        ({"kind": "finite"}, "missing field 'cycles' in a finite bijection"),
        ({"kind": "block", "perm": [1, 0]}, "missing field 'period' in a block bijection"),
        ({"kind": "block", "period": 2}, "missing field 'perm' in a block bijection"),
        ({"kind": "compose"}, "missing field 'of' in a compose bijection"),
        ({"kind": "compose", "of": [{"kind": "block"}]}, "of[0]: missing field 'period' in a block bijection"),
    ],
    ids=["cycles", "period", "perm", "of", "nested_period"],
)
def test_missing_bijection_field_is_input_error(tmp_path, capsys, blob, where):
    path = write_json(tmp_path, "bad.json", blob)
    code, out, err = run(capsys, "shuffle", "--builtin", "ell_infinity", "--bijection", path)
    assert (code, out, err) == (1, "", f"error: cannot read bijection {path!r}: {where}\n")


@pytest.mark.parametrize(
    "blocks",
    [
        [{"relators": []}],
        [[1, 2]],
        [{"generators": 2.0, "relators": []}],
        [{"generators": 1, "relators": 3}],
        [{"generators": 1, "relators": [4]}],
    ],
    ids=["no_generators", "list_block", "float_generators", "int_relators", "int_relator_row"],
)
def test_malformed_presentation_block_is_input_error(tmp_path, capsys, blocks):
    path = tmp_path / "pres.json"
    path.write_text(json.dumps({"blocks": blocks}))
    code, out, err = run(capsys, "wedge", "--presentations", str(path), "--builtin", "ell_tau", "--blocks", "1")
    assert code == 1 and out == ""
    assert "block 1 needs integer 'generators'" in err and "Traceback" not in err


def test_orders_commands(capsys):
    code, out, _ = run(capsys, "orders", "theta", "5")
    assert code == 0
    assert out.strip() == "I(3,2) = (7/27, 8/27)"
    code, out, _ = run(capsys, "orders", "compare", "2", "1")
    assert code == 0 and "less" in out
    code, out, _ = run(capsys, "orders", "embed", "omega", "--count", "4", "--format", "json")
    blob = json.loads(out)
    assert [row["m"] for row in blob["rows"]] == [2, 5, 11, 23]
    code, _, err = run(capsys, "orders", "embed", "mystery")
    assert code == 1


PRESENTATIONS = {
    "blocks": [{"generators": 1, "relators": []}],
    "repeat_from": 0,
}


def test_wedge_free_blocks(tmp_path, capsys):
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(PRESENTATIONS))
    code, out, _ = run(
        capsys, "wedge", "--presentations", str(path), "--builtin", "ell_tau", "--blocks", "5", "--format", "json"
    )
    assert code == 0
    blob = json.loads(out)
    assert [b["image"] for b in blob["blocks"]] == [[1]] * 5
    assert all(b["free_rank"] == 1 and b["torsion"] == [] for b in blob["blocks"])


def test_wedge_torsion_kill(tmp_path, capsys):
    pres = {
        "blocks": [
            {"generators": 1, "relators": []},
            {"generators": 1, "relators": [[2]]},
        ],
        "repeat_from": 0,
    }
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(pres))
    expr = we.Letter(2, 2)  # l2 squared lands in the torsion block
    epath = tmp_path / "expr.json"
    epath.write_text(json.dumps(we.to_json(expr)))
    code, out, _ = run(
        capsys, "wedge", "--presentations", str(path), "--expr", str(epath), "--blocks", "3", "--format", "json"
    )
    assert code == 0
    blob = json.loads(out)
    block2 = blob["blocks"][1]
    assert block2["torsion"] == [2]
    assert block2["image"] == [0]


def test_wedge_empty_expression(tmp_path, capsys):
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(PRESENTATIONS))
    epath = tmp_path / "empty.json"
    epath.write_text(json.dumps(we.to_json(we.identity_expr())))
    code, out, _ = run(
        capsys, "wedge", "--presentations", str(path), "--expr", str(epath), "--blocks", "4", "--format", "json"
    )
    blob = json.loads(out)
    assert [b["image"] for b in blob["blocks"]] == [[0]] * 4


def test_wedge_letter_outside_map(tmp_path, capsys):
    pres = dict(PRESENTATIONS)
    pres["letters"] = {"1": {"block": 1, "gen": 1}}
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(pres))
    epath = tmp_path / "expr.json"
    epath.write_text(json.dumps(we.to_json(we.Letter(2, 1))))
    code, _, err = run(capsys, "wedge", "--presentations", str(path), "--expr", str(epath))
    assert code == 1 and "outside the declared map" in err


def test_wedge_relator_width_mismatch_is_input_error(tmp_path, capsys):
    path = tmp_path / "pres.json"
    path.write_text(json.dumps({"blocks": [{"generators": 2, "relators": [[3]]}]}))
    code, out, err = run(capsys, "wedge", "--presentations", str(path), "--builtin", "ell_tau", "--blocks", "1")
    assert code == 1 and out == ""
    assert "relator width 1" in err and "Traceback" not in err


def write_json(tmp_path, name, blob):
    path = tmp_path / name
    path.write_text(json.dumps(blob))
    return str(path)


def letter_file(tmp_path, index=1):
    return write_json(tmp_path, "letter.json", we.to_json(we.Letter(index, 1)))


@pytest.mark.parametrize(
    "extra, where",
    [
        ({"repeat_from": 1.5}, "repeat_from: expected an integer in 0..0, got 1.5"),
        ({"repeat_from": 5}, "repeat_from: expected an integer in 0..0, got 5"),
        ({"repeat_from": -3}, "repeat_from: expected an integer in 0..0, got -3"),
        ({"repeat_from": True}, "repeat_from: expected an integer in 0..0, got True"),
        ({"letters": {"1": {"block": 1, "gen": "x"}}}, "letters['1'].gen: expected an integer >= 1, got 'x'"),
        ({"letters": {"1": {"block": 0, "gen": 1}}}, "letters['1'].block: expected an integer >= 1, got 0"),
        ({"letters": {"1": {"gen": 1}}}, "letters['1'].block: expected an integer >= 1, got None"),
        ({"letters": {"1": [1, 1]}}, "letters['1']: expected an object, got list"),
        ({"letters": {"x": {"block": 1, "gen": 1}}}, "letters['x']: expected a letter number >= 1"),
        ({"letters": [1]}, "letters: expected an object, got list"),
    ],
    ids=[
        "float_repeat_from",
        "repeat_from_past_end",
        "negative_repeat_from",
        "bool_repeat_from",
        "str_gen",
        "zero_block",
        "missing_block",
        "list_letter_entry",
        "letter_key_not_a_number",
        "letters_list",
    ],
)
def test_malformed_presentations_fields_are_input_errors(tmp_path, capsys, extra, where):
    pres = write_json(tmp_path, "pres.json", {"blocks": [{"generators": 1, "relators": []}], **extra})
    code, out, err = run(
        capsys, "wedge", "--expr", letter_file(tmp_path), "--presentations", pres, "--blocks", "3"
    )
    assert (code, out) == (1, "")
    assert err == f"error: cannot read presentations {pres!r}: {where}\n"


@pytest.mark.parametrize(
    "blob, message",
    [
        ({"blocks": []}, "presentations file declares no blocks"),
        ([{"generators": 1}], "expected an object with a 'blocks' list"),
        ({"blocks": 5}, "expected an object with a 'blocks' list"),
    ],
    ids=["no_blocks", "top_level_list", "int_blocks"],
)
def test_presentations_without_blocks_are_input_errors(tmp_path, capsys, blob, message):
    pres = write_json(tmp_path, "pres.json", blob)
    code, out, err = run(capsys, "wedge", "--expr", letter_file(tmp_path), "--presentations", pres)
    assert (code, out) == (1, "")
    assert message in err and "Traceback" not in err


def test_wedge_letter_map_errors(tmp_path, capsys):
    pres = write_json(
        tmp_path, "pres.json", {"blocks": [{"generators": 1}], "letters": {"1": {"block": 1, "gen": 2}}}
    )
    code, out, err = run(capsys, "wedge", "--expr", letter_file(tmp_path), "--presentations", pres)
    assert (code, out, err) == (1, "", "error: letter 1 maps to missing generator 2 in block 1\n")
    code, out, err = run(capsys, "wedge", "--builtin", "ell_infinity", "--presentations", pres)
    assert (code, out, err) == (1, "", "error: an explicit letter map needs a finite-support image\n")


def deep_inverse_file(tmp_path, depth=50000):
    """An expression file nesting ``depth`` inverse nodes, too deep for ``json``
    to decode on Python 3.10 to 3.13, written as text because ``json.dumps``
    itself recurses once per level."""
    path = tmp_path / "deep.json"
    leaf = json.dumps(we.to_json(we.Letter(1, 1)))
    path.write_text('{"type": "inverse", "of": ' * depth + leaf + "}" * depth)
    return str(path)


def test_deeply_nested_json_is_input_error(tmp_path, capsys):
    deep = deep_inverse_file(tmp_path)
    code, out, err = run(capsys, "project", "--expr", deep, "--n", "2")
    assert (code, out) == (1, "") and "Traceback" not in err
    assert err.startswith(f"error: cannot read expression {deep!r}: maximum recursion depth")
    code, out, err = run(capsys, "shuffle", "--builtin", "ell_infinity", "--bijection", deep)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read bijection {deep!r}: maximum recursion depth")
    code, out, err = run(capsys, "wedge", "--builtin", "ell_tau", "--presentations", deep)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read presentations {deep!r}: maximum recursion depth")


@pytest.mark.parametrize("shape, head, step", NESTING_CHAINS, ids=[c[0] for c in NESTING_CHAINS])
def test_nesting_limit_is_one_input_error(tmp_path, capsys, shape, head, step):
    chain = nesting_chain(shape, we.MAX_NESTING)
    ok = write_json(tmp_path, "ok.json", we.to_json(chain))
    assert run(capsys, "project", "--expr", ok, "--n", "2") == (0, f"{we.project(chain, 2)}\n", "")
    deep = write_json(tmp_path, "deep.json", nesting_chain_json(shape, we.MAX_NESTING + 1))
    where = too_deep_path(head, step).replace("tail.bodies[0]", "tail.body")  # one body is written as 'body'
    code, out, err = run(capsys, "project", "--expr", deep, "--n", "2")
    assert (code, out, err) == (
        1, "", f"error: cannot read expression {deep!r}: {where}: nested deeper than {we.MAX_NESTING} levels\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["wedge", "--builtin", "ell_tau", "--presentations", "P", "--blocks", "-3"], "--blocks must be non-negative, got -3"),
        (["orders", "embed", "omega", "--count", "-5"], "--count must be non-negative, got -5"),
    ],
    ids=["blocks", "count"],
)
def test_negative_counts_are_input_errors(capsys, argv, message):
    argv = [str(SAMPLES / "circle_wedge.json") if a == "P" else a for a in argv]
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


def test_zero_counts_give_empty_reports(capsys):
    code, out, _ = run(capsys, "wedge", "--builtin", "ell_tau", "--presentations", str(SAMPLES / "circle_wedge.json"),
                       "--blocks", "0")
    assert (code, out) == (0, "\n")
    code, out, _ = run(capsys, "orders", "embed", "omega", "--count", "0", "--format", "json")
    assert code == 0 and json.loads(out)["rows"] == []


def test_factor_prints_stages_in_letters_above_a_billion(tmp_path, capsys):
    a, b = we.Letter(2 * 10**9, 1), we.Letter(2 * 10**9 + 1, 1)
    path = write_json(tmp_path, "F.json", we.to_json(we.OmegaProd(we.SeqSpec((we.commutator_expr(a, b),), we.Trivial()))))
    code, out, _ = run(capsys, "factor", "--expr", path, "--depth", "5")
    assert (code, out) == (
        0, "stage 1: l2000000000 l2000000001 l2000000000^-1 l2000000001^-1\n"
        "projections match input up to depth 5: True\n",
    )


def test_factor_at_depth_zero_needs_a_positive_level(capsys):
    code, out, err = run(capsys, "factor", "--builtin", "flattened_commutator_product", "--depth", "0")
    assert (code, out, err) == (1, "", "error: projection level must be positive\n")


def test_orders_embed_finite_chain_and_unknown_spec(capsys):
    code, out, _ = run(capsys, "orders", "embed", "chain(4)", "--count", "10")
    assert code == 0
    assert out.splitlines() == [
        "1 -> I(2,1) = (1/9, 2/9)",
        "2 -> I(3,2) = (7/27, 8/27)",
        "3 -> I(4,4) = (25/81, 26/81)",
        "4 -> I(5,8) = (79/243, 80/243)",
    ]
    code, out, err = run(capsys, "orders", "embed", "chainx")
    assert (code, out) == (1, "")
    assert err.startswith("error: unknown order spec 'chainx'")


def test_orders_embed_count_is_bounded(capsys):
    bound = cli.MAX_EMBED_COUNT
    code, out, err = run(capsys, "orders", "embed", "omega", "--count", str(bound + 1))
    assert (code, out, err) == (1, "", f"error: --count must be at most {bound}, got {bound + 1}\n")
    # omega climbs fastest (one level per index); its last row at the bound renders
    last = orders.back_and_forth_embed(orders.Omega())(bound)
    assert last.level == bound + 1
    assert str(last) and json.dumps(orders.theta_inv(last))


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_orders_theta_is_bounded(capsys, fmt):
    bits = cli.MAX_THETA_BITS
    assert bits == 9012
    # the largest component number renders its 4300-digit endpoints
    code, out, err = run(capsys, "orders", "theta", str((1 << bits) - 1), "--format", fmt)
    assert (code, err) == (0, "")
    assert f"/{3 ** bits}" in out
    code, out, err = run(capsys, "orders", "theta", str(1 << bits), "--format", fmt)
    assert (code, out) == (1, "")
    assert err == f"error: m must be below 2^{bits}, got a number of {bits + 1} bits\n"
    assert "Exceeds the limit" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--check", "fibers", "--n", "9"], "fiber enumeration is bounded to n <= 8"),
        (["--check", "nbhd", "--n", "4"], "neighbourhood sweeps are bounded to n <= 3"),
    ],
    ids=["fibers_n9", "nbhd_n4"],
)
def test_james_size_bounds_are_input_errors(model_file, capsys, argv, message):
    code, out, err = run(capsys, "james", "--model", model_file, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_james_rejects_a_model_over_the_point_bound(tmp_path, capsys):
    path = tmp_path / "model5.txt"
    path.write_text("points: e a b c d; base: e; le: e<a")
    code, out, err = run(capsys, "james", "--model", str(path), "--check", "fibers", "--n", "2")
    assert (code, out, err) == (1, "", "error: model has 5 points, bound is 4\n")


def test_shuffle_input_errors(tmp_path, capsys):
    code, out, err = run(capsys, "shuffle", "--builtin", "ell_tau", "--named", "nope")
    assert (code, out, err) == (1, "", "error: unknown named bijection 'nope'\n")
    code, out, err = run(capsys, "shuffle", "--expr", letter_file(tmp_path), "--named", "identity")
    assert (code, out, err) == (1, "", "error: rearrangement applies to infinite products\n")


SAMPLES = Path(__file__).parent.parent / "samples"


def test_sample_files_work(capsys):
    code, out, _ = run(capsys, "project", "--expr", str(SAMPLES / "tau_squares.json"), "--n", "2")
    assert code == 0 and out.strip() == "l2^2 l1^2"
    code, out, _ = run(capsys, "factor", "--expr", str(SAMPLES / "commutators.json"), "--depth", "8")
    assert code == 0 and "True" in out
    code, out, _ = run(
        capsys,
        "shuffle",
        "--builtin",
        "ell_infinity",
        "--bijection",
        str(SAMPLES / "swap_first_two.json"),
        "--depth",
        "2",
    )
    assert code == 0 and "l2 l1" in out
    code, _, _ = run(capsys, "james", "--model", str(SAMPLES / "chain_model.txt"), "--check", "topology", "--n", "2")
    assert code == 0
    code, out, _ = run(
        capsys,
        "wedge",
        "--presentations",
        str(SAMPLES / "circle_wedge.json"),
        "--builtin",
        "ell_tau",
        "--blocks",
        "4",
        "--format",
        "json",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["blocks"][1]["torsion"] == [3]


def test_mixed_expr_sources_keep_order(tmp_path, capsys):
    path = tmp_path / "tau.json"
    path.write_text(json.dumps(we.to_json(we.ell_tau())))
    # file first, builtin second: left word is the tau projection
    code, out, _ = run(
        capsys, "equal", "--expr", str(path), "--builtin", "ell_infinity", "--depth", "2", "--format", "json"
    )
    assert code == 2
    blob = json.loads(out)
    assert blob["witness"] == {"n": 2, "left": "l2 l1", "right": "l1 l2"}


@pytest.mark.parametrize(
    "argv, option",
    [
        (["project", "--builtin", "ell_tau", "--n", "abc"], "--n"),
        (["project", "--builtin", "ell_tau"], "--n"),
        (["frobnicate"], "frobnicate"),
        (["james", "--model", "M", "--check", "sweep", "--n", "2"], "--check"),
    ],
    ids=["invalid_int", "missing_option", "unknown_subcommand", "unknown_choice"],
)
def test_usage_errors_are_input_errors(capsys, argv, option):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "usage:" not in err
    assert option in err


def test_help_paths():
    for argv in (["--help"], ["project", "--help"], ["orders", "--help"], ["orders", "embed", "--help"]):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 0


def test_reports_deterministic(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "abelianize", "--target", "HA", "--builtin", "ell_tau", "--seed", "7", "--format", "json"
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def _canonical(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def _config(depth: int) -> dict:
    return {"depth": depth, "seed": 0, "budget": 200}


def shuffle_report_by_levels(expr, phi, depth: int) -> str:
    """The shuffle JSON report with both sides projected afresh at every level."""
    shuffled = we.apply_bijection(expr, phi)
    eta_before, eta_after = we.eta(expr), we.eta(shuffled)
    projections = []
    for n in range(1, depth + 1):
        before, after = we.project(expr, n), we.project(shuffled, n)
        projections.append({"n": n, "before": str(before), "after": str(after)})
    return _canonical({
        "command": "shuffle",
        "eta_before": str(eta_before),
        "eta_after": str(eta_after),
        "eta_invariant": eta_before == eta_after,
        "projections": projections,
        "all_projections_identity": all(we.project(shuffled, n).is_identity for n in range(1, depth + 1)),
        "config": _config(depth),
    })


def factor_report_by_levels(expr, depth: int) -> str:
    """The factor JSON report with the projections compared at every level."""
    spec = we.commutator_factorization(expr, depth)
    verified = equal_up_to_by_levels(we.OmegaProd(spec), expr, depth).equal
    return _canonical({
        "command": "factor",
        "depth": depth,
        "stages": [{"stage": i, "word": str(we.project(stage, 10**9))} for i, stage in enumerate(spec.prefix, start=1)],
        "projections_match": verified,
        "config": _config(depth),
    })


def _expr_arg(source: str) -> list[str]:
    return ["--expr", str(SAMPLES / source)] if source.endswith(".json") else ["--builtin", source]


def _expr_of(source: str) -> we.WordExpr:
    if source.endswith(".json"):
        return we.from_json(json.loads((SAMPLES / source).read_text()))
    return we.BUILTINS[source]()


@pytest.mark.parametrize("depth", [0, 1, 2, 7, 16])
@pytest.mark.parametrize(
    "source, bijection",
    [
        ("tau_squares.json", "swap_first_two.json"),
        ("ell_infinity", "swap_first_two.json"),
        ("ell_tau", "eh_shuffle"),
        ("flattened_commutator_product", "eh_shuffle"),
    ],
)
def test_shuffle_report_matches_level_by_level_oracle(capsys, source, bijection, depth):
    if bijection.endswith(".json"):
        phi_arg = ["--bijection", str(SAMPLES / bijection)]
        phi = ra.bijection_from_json(json.loads((SAMPLES / bijection).read_text()))
    else:
        phi_arg = ["--named", bijection]
        phi = ra.eh_shuffle()
    code, out, _ = run(capsys, "shuffle", *_expr_arg(source), *phi_arg, "--depth", str(depth), "--format", "json")
    assert code == 0
    assert out == shuffle_report_by_levels(_expr_of(source), phi, depth)


@pytest.mark.parametrize("depth", [1, 3, 8, 16])
@pytest.mark.parametrize("source", ["commutators.json", "commutator_product", "flattened_commutator_product"])
def test_factor_report_matches_level_by_level_oracle(capsys, source, depth):
    code, out, _ = run(capsys, "factor", *_expr_arg(source), "--depth", str(depth), "--format", "json")
    expected = factor_report_by_levels(_expr_of(source), depth)
    assert code == (0 if json.loads(expected)["projections_match"] else 2)
    assert out == expected


def test_parser_built_once_without_state_leaking_between_calls(tmp_path, capsys):
    path = tmp_path / "tau.json"
    path.write_text(json.dumps(we.to_json(we.ell_tau())))
    calls = [
        ["project", "--builtin", "ell_tau", "--n", "4", "--seed", "3", "--format", "json"],
        ["project", "--expr", str(path), "--n", "4", "--format", "json"],
        ["equal", "--expr", str(path), "--builtin", "ell_infinity", "--depth", "3", "--format", "json"],
        ["equal", "--builtin", "ell_infinity", "--builtin", "ell_infinity"],
        ["equal", "--builtin", "ell_tau"],  # one expression: input error
        ["eta", "--builtin", "ell_infinity", "--expr", str(path)],  # two expressions: input error
        ["orders", "embed", "zeta", "--count", "4", "--format", "json"],
        ["orders", "compare", "2", "3"],
        ["shuffle", "--builtin", "ell_infinity", "--named", "eh_shuffle", "--depth", "3"],
        ["shuffle", "--builtin", "ell_infinity", "--depth", "3"],  # no bijection: input error
        ["eta", "--builtin", "ell_tau", "--format", "json"],
    ]
    cli.build_parser.cache_clear()
    warm = [run(capsys, *argv) for argv in calls]
    assert cli.build_parser.cache_info().misses == 1
    for argv, got in zip(calls, warm):
        cli.build_parser.cache_clear()  # the reference run gets a fresh parser
        assert run(capsys, *argv) == got, argv


GOLDEN = Path(__file__).parent / "data"
GOLDEN_REPORTS = {
    "wedge_circle": [
        "wedge", "--presentations", str(SAMPLES / "circle_wedge.json"), "--expr", str(SAMPLES / "tau_squares.json"),
        "--blocks", "6",
    ],
    **{
        f"james_{check}": ["james", "--model", str(SAMPLES / "chain_model.txt"), "--check", check, "--n", "2"]
        for check in ("fibers", "nbhd", "saturation", "topology")
    },
    **{
        f"embed_{name}": ["orders", "embed", order, "--count", "12"]
        for name, order in [
            ("omega", "omega"),
            ("omega_plus_omega", "omega+omega"),
            ("zeta", "zeta"),
            ("rationals", "rationals"),
            ("chain5", "chain(5)"),
        ]
    },
    "factor_commutators": ["factor", "--expr", str(SAMPLES / "commutators.json"), "--depth", "8"],
    "shuffle_swap": [
        "shuffle", "--expr", str(SAMPLES / "tau_squares.json"), "--bijection", str(SAMPLES / "swap_first_two.json"),
        "--depth", "4",
    ],
}


@pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_report_matches_golden_file(capsys, name, fmt, suffix):
    code, out, err = run(capsys, *GOLDEN_REPORTS[name], "--format", fmt)
    assert (code, out, err) == (0, (GOLDEN / f"golden_{name}.{suffix}").read_text(), "")
