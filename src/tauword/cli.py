"""Batch command line front end.

Subcommands: project, eta, equal, shuffle, factor, abelianize, james, orders,
wedge.  Input files are canonical JSON for expressions and bijections, plain
text for models, presentations, and vectors.  Reports render as text or as
canonical JSON (sorted keys, no floats); identical inputs and seed produce
byte-identical JSON reports.

Exit codes: 0 success, 1 input error, 2 a conclusive negative verdict
(inequality witness or a failed property check).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import free_words, james_monoid, orders, rearrange, specker, word_expr


class InputError(Exception):
    pass


class _ExprArg(argparse.Action):
    """Collect --expr FILE and --builtin NAME in command-line order."""

    def __call__(self, parser, namespace, values, option_string=None):
        kind = "builtin" if option_string == "--builtin" else "file"
        items = getattr(namespace, "exprs", None) or []
        items.append((kind, values))
        namespace.exprs = items


def _add_expr_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--expr", action=_ExprArg, metavar="FILE", help="expression file (canonical JSON)")
    p.add_argument(
        "--builtin",
        action=_ExprArg,
        metavar="NAME",
        help=f"built-in expression: {', '.join(sorted(word_expr.BUILTINS))}",
    )


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--depth", type=int, default=12, help="truncation depth (default 12)")
    p.add_argument("--seed", type=int, default=0, help="seed echoed into reports")
    p.add_argument("--budget", type=int, default=200, help="fuzz budget echoed into reports")
    p.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")


def _load_exprs(ns, want: int) -> list[word_expr.WordExpr]:
    items = getattr(ns, "exprs", None) or []
    if len(items) != want:
        raise InputError(f"expected {want} expression(s), got {len(items)}")
    out = []
    for kind, value in items:
        if kind == "builtin":
            if value not in word_expr.BUILTINS:
                raise InputError(f"unknown builtin {value!r}")
            expr = word_expr.BUILTINS[value]()
        else:
            try:
                with open(value) as fh:
                    expr = word_expr.from_json(json.load(fh))
            except (OSError, json.JSONDecodeError, RecursionError, word_expr.ValidationError) as exc:
                raise InputError(f"cannot read expression {value!r}: {exc}") from exc
        report = word_expr.validate(expr)
        if report:
            raise InputError("invalid expression: " + "; ".join(report))
        out.append(expr)
    return out


def _emit(report: dict, lines: list[str], fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        sys.stdout.write("\n".join(lines) + "\n")


def _config_echo(ns) -> dict:
    return {"depth": ns.depth, "seed": ns.seed, "budget": ns.budget}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_project(ns) -> int:
    (expr,) = _load_exprs(ns, 1)
    w = word_expr.project(expr, ns.n)
    report = {"command": "project", "n": ns.n, "word": str(w), "config": _config_echo(ns)}
    _emit(report, [str(w)], ns.fmt)
    return 0


def cmd_eta(ns) -> int:
    (expr,) = _load_exprs(ns, 1)
    v = word_expr.eta(expr)
    report = {"command": "eta", "vector": str(v), "config": _config_echo(ns)}
    _emit(report, [str(v)], ns.fmt)
    return 0


def cmd_equal(ns) -> int:
    a, b = _load_exprs(ns, 2)
    result = word_expr.equal_up_to(a, b, ns.depth)
    report = {
        "command": "equal",
        "depth": ns.depth,
        "equal": result.equal,
        "config": _config_echo(ns),
    }
    lines = []
    if result.equal:
        lines.append(f"equal up to depth {ns.depth} (evidence, not proof)")
    else:
        report["witness"] = {
            "n": result.witness_level,
            "left": str(result.left),
            "right": str(result.right),
        }
        lines.append(
            f"different: witness n={result.witness_level}: "
            f"{result.left} vs {result.right}"
        )
    _emit(report, lines, ns.fmt)
    return 0 if result.equal else 2


def _load_bijection(ns) -> rearrange.BijectionSpec:
    if ns.named:
        named = {
            "identity": rearrange.identity,
            "eh_shuffle": rearrange.eh_shuffle,
        }
        if ns.named not in named:
            raise InputError(f"unknown named bijection {ns.named!r}")
        return named[ns.named]()
    if not ns.bijection:
        raise InputError("need --bijection FILE or --named NAME")
    try:
        with open(ns.bijection) as fh:
            return rearrange.bijection_from_json(json.load(fh))
    except (OSError, json.JSONDecodeError, RecursionError, rearrange.MalformedBijectionError) as exc:
        raise InputError(f"cannot read bijection {ns.bijection!r}: {exc}") from exc


def cmd_shuffle(ns) -> int:
    (expr,) = _load_exprs(ns, 1)
    phi = _load_bijection(ns)
    try:
        shuffled = word_expr.apply_bijection(expr, phi)
    except (word_expr.ClosureError, TypeError) as exc:
        raise InputError(str(exc)) from exc
    eta_before = word_expr.eta(expr)
    eta_after = word_expr.eta(shuffled)
    befores = word_expr.projection_tower(expr, ns.depth)
    afters = word_expr.projection_tower(shuffled, ns.depth)
    projections = [
        {"n": n, "before": str(before), "after": str(after)}
        for n, (before, after) in enumerate(zip(befores, afters), start=1)
    ]
    all_identity = all(after.is_identity for after in afters)
    report = {
        "command": "shuffle",
        "eta_before": str(eta_before),
        "eta_after": str(eta_after),
        "eta_invariant": eta_before == eta_after,
        "projections": projections,
        "all_projections_identity": all_identity,
        "config": _config_echo(ns),
    }
    lines = [f"eta invariant: {report['eta_invariant']} ({eta_before})"]
    lines += [f"n={p['n']}: {p['before']}  ->  {p['after']}" for p in projections]
    lines.append(f"all shuffled projections identity: {all_identity}")
    _emit(report, lines, ns.fmt)
    return 0


def cmd_factor(ns) -> int:
    (expr,) = _load_exprs(ns, 1)
    spec = word_expr.commutator_factorization(expr, ns.depth)
    verified = word_expr.equal_up_to(word_expr.OmegaProd(spec), expr, ns.depth).equal
    stages = []
    for i, stage in enumerate(spec.prefix, start=1):
        stages.append({"stage": i, "word": str(_finite_word(stage))})
    report = {
        "command": "factor",
        "depth": ns.depth,
        "stages": stages,
        "projections_match": verified,
        "config": _config_echo(ns),
    }
    lines = [f"stage {s['stage']}: {s['word']}" for s in stages]
    lines.append(f"projections match input up to depth {ns.depth}: {verified}")
    _emit(report, lines, ns.fmt)
    return 0 if verified else 2


def _finite_word(e: word_expr.WordExpr) -> free_words.ReducedWord:
    return word_expr.project(e, 10**9)


def cmd_abelianize(ns) -> int:
    (expr,) = _load_exprs(ns, 1)
    v = word_expr.eta(expr)
    if ns.target == "H":
        report = {"command": "abelianize", "target": "H", "image": str(v)}
        lines = [f"image in the full product group: {v}"]
    elif ns.target == "HA":
        rep = specker.ha_canonical_rep(v)
        report = {
            "command": "abelianize",
            "target": "HA",
            "eta": str(v),
            "coset_rep": str(rep),
            "trivial": rep.is_zero,
            "difference_image": str(specker.difference_map(v)),
        }
        lines = [
            f"eta: {v}",
            f"canonical coset representative: {rep}",
            f"trivial coset: {rep.is_zero}",
        ]
    elif ns.target == "griffiths":
        verdict, (odd, even) = specker.griffiths_image(v)
        report = {
            "command": "abelianize",
            "target": "griffiths",
            "image": verdict,
            "odd_part": str(odd),
            "even_part": str(even),
        }
        lines = [
            f"image: {verdict}",
            f"odd/even splitting certificate: {odd} + {even}",
        ]
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown target {ns.target!r}")
    report["config"] = _config_echo(ns)
    _emit(report, lines, ns.fmt)
    return 0


def _load_model(path: str) -> james_monoid.FiniteSpaceModel:
    try:
        with open(path) as fh:
            return james_monoid.parse_model(fh.read())
    except (OSError, james_monoid.ModelError) as exc:
        raise InputError(f"cannot read model {path!r}: {exc}") from exc


def cmd_james(ns) -> int:
    m = _load_model(ns.model)
    if len(m.points) > ns.max_points:
        raise InputError(f"model has {len(m.points)} points, bound is {ns.max_points}")
    n = ns.n
    if ns.check == "fibers" and not 0 <= n <= 8:
        raise InputError("fiber enumeration is bounded to n <= 8")
    if ns.check in ("nbhd", "saturation") and not 1 <= n <= ns.max_n:
        raise InputError(f"neighbourhood sweeps are bounded to n <= {ns.max_n}")
    lines: list[str] = []
    failed = False
    if ns.check == "fibers":
        counts = james_monoid.fiber_counts_by_pass(m, n)
        rows = []
        for w in sorted(counts, key=lambda w: (len(w), w)):
            expected = james_monoid.expected_fiber_count(n, len(w))
            ok = counts[w] == expected
            failed = failed or not ok
            rows.append(
                {"word": " ".join(w) or "(empty)", "count": counts[w], "expected": expected, "ok": ok}
            )
            lines.append(f"{rows[-1]['word']}: {counts[w]} (expected {expected}) {'ok' if ok else 'FAIL'}")
        report = {"command": "james", "check": "fibers", "n": n, "rows": rows}
    elif ns.check == "nbhd":
        rows = []
        stage = james_monoid.stage_tables(m, n)
        for w in sorted(james_monoid.words_up_to(m, n), key=lambda w: (len(w), w)):
            stats = james_monoid.word_nbhd_stats(stage, w)
            failed = failed or stats["specs"] != stats["saturated"]
            rows.append({"word": " ".join(w) or "(empty)", **stats})
            lines.append(
                f"{rows[-1]['word']}: {stats['specs']} neighborhoods, "
                f"{stats['saturated']} saturated, smallest {stats['smallest']}, largest {stats['largest']}"
            )
        report = {"command": "james", "check": "nbhd", "n": n, "rows": rows}
    elif ns.check == "saturation":
        checked, saturated = james_monoid.sweep_standard_nbhds(m, n)
        failed = checked != saturated
        report = {
            "command": "james",
            "check": "saturation",
            "n": n,
            "neighborhoods": checked,
            "saturated": saturated,
        }
        lines.append(f"standard neighborhoods at n={n}: {checked}, saturated: {saturated}")
    elif ns.check == "topology":
        rep = james_monoid.topologies_agree(m, n, ns.max_points, ns.max_n)
        failed = not (rep.agree and rep.stable)
        report = {
            "command": "james",
            "check": "topology",
            "n": n,
            "agree": rep.agree,
            "stable": rep.stable,
            "stage_t1": rep.stage_t1,
            "model_t1": rep.model_t1,
            "base_closed": rep.base_closed,
            "closed_in_next": rep.closed_in_next,
        }
        lines += [
            f"quotient vs subspace topology at n={n}: {'agree' if rep.agree else 'DIFFER'}",
            f"stable under one more stage: {rep.stable}",
            f"stage T1: {rep.stage_t1} (model T1: {rep.model_t1})",
            f"basepoint closed: {rep.base_closed}; stage closed in next: {rep.closed_in_next}",
        ]
    else:  # pragma: no cover
        raise InputError(f"unknown check {ns.check!r}")
    report["config"] = _config_echo(ns)
    _emit(report, lines, ns.fmt)
    return 2 if failed else 0


def cmd_orders(ns) -> int:
    if ns.action == "theta":
        c = orders.theta(ns.m)
        report = {
            "command": "orders",
            "action": "theta",
            "m": ns.m,
            "level": c.level,
            "slot": c.slot,
            "lo": str(c.lo),
            "hi": str(c.hi),
        }
        lines = [str(c)]
    elif ns.action == "compare":
        r = orders.compare(ns.m, ns.m2)
        word = {-1: "less", 0: "equal", 1: "greater"}[r]
        report = {"command": "orders", "action": "compare", "m1": ns.m, "m2": ns.m2, "result": word}
        lines = [f"component {ns.m} is {word} than component {ns.m2}"]
    elif ns.action == "embed":
        spec = _order_spec(ns.order)
        emb = orders.back_and_forth_embed(spec)
        count = ns.count if spec.size is None else min(ns.count, spec.size)
        rows = []
        lines = []
        for i in range(1, count + 1):
            c = emb(i)
            rows.append({"i": i, "m": orders.theta_inv(c), "component": str(c)})
            lines.append(f"{i} -> {c}")
        report = {"command": "orders", "action": "embed", "order": ns.order, "rows": rows}
    else:  # pragma: no cover
        raise InputError(f"unknown orders action {ns.action!r}")
    report["config"] = _config_echo(ns)
    _emit(report, lines, ns.fmt)
    return 0


def _order_spec(name: str) -> orders.OrderSpec:
    table = {
        "omega": orders.Omega,
        "omega+omega": orders.OmegaPlusOmega,
        "zeta": orders.IntegersZeta,
        "rationals": orders.Rationals,
    }
    if name in table:
        return table[name]()
    if name.startswith("chain"):
        try:
            return orders.FiniteChain(int(name[5:].strip("()")))
        except ValueError:
            pass
    raise InputError(f"unknown order spec {name!r} (use omega, omega+omega, zeta, rationals, chainN)")


def _load_presentations(path: str) -> tuple[list[dict], int, dict[int, tuple[int, int]]]:
    """The blocks, ``repeat_from`` and letter map of a presentations file, checked strictly."""
    try:
        with open(path) as fh:
            pres = json.load(fh)
        if not isinstance(pres, dict) or not isinstance(pres.get("blocks"), list):
            raise ValueError("expected an object with a 'blocks' list")
        blocks = pres["blocks"]
        for k, block in enumerate(blocks, start=1):
            rows = block.get("relators", []) if isinstance(block, dict) else None
            int_rows = isinstance(rows, list) and all(
                isinstance(r, list) and all(type(x) is int for x in r) for r in rows
            )
            if not int_rows or type(block.get("generators")) is not int:
                raise ValueError(f"block {k} needs integer 'generators' and a list of integer 'relators' rows")
        if not blocks:
            raise InputError("presentations file declares no blocks")
        repeat_from = pres.get("repeat_from", len(blocks) - 1)
        if type(repeat_from) is not int or not 0 <= repeat_from < len(blocks):
            raise ValueError(f"repeat_from: expected an integer in 0..{len(blocks) - 1}, got {repeat_from!r}")
        letters = pres.get("letters", {})
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
    except (OSError, RecursionError, ValueError) as exc:
        raise InputError(f"cannot read presentations {path!r}: {exc}") from exc
    return blocks, repeat_from, letter_map


def cmd_wedge(ns) -> int:
    (expr,) = _load_exprs(ns, 1)
    blocks, repeat_from, letter_map = _load_presentations(ns.presentations)

    def block_for(k: int) -> dict:
        if k <= len(blocks):
            return blocks[k - 1]
        cycle = blocks[repeat_from:]
        return cycle[(k - len(blocks) - 1) % len(cycle)]

    def letter_target(letter: int) -> tuple[int, int]:
        return letter_map.get(letter, (letter, 1))

    v = word_expr.eta(expr)
    if letter_map and not v.has_finite_support:
        raise InputError("an explicit letter map needs a finite-support image")
    if letter_map:
        support = [i + 1 for i, a in enumerate(v.prefix) if a != 0]
        missing = [L for L in support if L not in letter_map]
        if missing:
            raise InputError(f"letters outside the declared map: {missing}")
    candidates = set(range(1, ns.blocks + 1)) | set(letter_map)
    out_blocks = []
    lines = []
    for k in range(1, ns.blocks + 1):
        block = block_for(k)
        gens = block["generators"]
        relators = block.get("relators", [])
        coords = [0] * gens
        for letter in sorted(candidates):
            blk, gen = letter_target(letter)
            if blk != k:
                continue
            if not 1 <= gen <= gens:
                raise InputError(f"letter {letter} maps to missing generator {gen} in block {k}")
            coords[gen - 1] += v.at(letter)
        rank, torsion, reduced = specker.h1_image(relators, gens, coords)
        out_blocks.append(
            {"block": k, "free_rank": rank, "torsion": torsion, "image": reduced}
        )
        lines.append(
            f"block {k}: H1 rank {rank}, torsion {torsion or 'none'}, image {reduced}"
        )
    report = {"command": "wedge", "blocks": out_blocks, "config": _config_echo(ns)}
    _emit(report, lines, ns.fmt)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``tauword`` parser, built once per process; parsing never mutates it."""
    parser = argparse.ArgumentParser(
        prog="tauword",
        description="Exact computations with infinite and transfinite word concatenations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("project", help="project an expression into the free group on l1..ln")
    _add_expr_args(p)
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("eta", help="letter-count vector of an expression")
    _add_expr_args(p)
    _add_common(p)
    p.set_defaults(func=cmd_eta)

    p = sub.add_parser("equal", help="compare two expressions at all levels up to a depth")
    _add_expr_args(p)
    _add_common(p)
    p.set_defaults(func=cmd_equal)

    p = sub.add_parser("shuffle", help="apply a bijection to an infinite product and report")
    _add_expr_args(p)
    _add_common(p)
    p.add_argument("--bijection", metavar="FILE")
    p.add_argument("--named", metavar="NAME", help="identity or eh_shuffle")
    p.set_defaults(func=cmd_shuffle)

    p = sub.add_parser("factor", help="commutator factorization of a zero-eta expression")
    _add_expr_args(p)
    _add_common(p)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("abelianize", help="image of an expression in a target quotient")
    _add_expr_args(p)
    _add_common(p)
    p.add_argument("--target", choices=("H", "HA", "griffiths"), required=True)
    p.set_defaults(func=cmd_abelianize)

    p = sub.add_parser("james", help="fiber/neighbourhood/topology checks on a finite model")
    _add_common(p)
    p.add_argument("--model", required=True, metavar="FILE")
    p.add_argument("--check", choices=("fibers", "nbhd", "saturation", "topology"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-points", type=int, default=4, dest="max_points")
    p.add_argument("--max-n", type=int, default=3, dest="max_n")
    p.set_defaults(func=cmd_james)

    p = sub.add_parser("orders", help="component arithmetic and canonical embeddings")
    order_sub = p.add_subparsers(dest="action", required=True)
    q = order_sub.add_parser("theta")
    q.add_argument("m", type=int)
    _add_common(q)
    q.set_defaults(func=cmd_orders, action="theta")
    q = order_sub.add_parser("compare")
    q.add_argument("m", type=int)
    q.add_argument("m2", type=int)
    _add_common(q)
    q.set_defaults(func=cmd_orders, action="compare")
    q = order_sub.add_parser("embed")
    q.add_argument("order")
    q.add_argument("--count", type=int, default=10)
    _add_common(q)
    q.set_defaults(func=cmd_orders, action="embed")

    p = sub.add_parser("wedge", help="per-block homology images for a shrinking wedge")
    _add_expr_args(p)
    _add_common(p)
    p.add_argument("--presentations", required=True, metavar="FILE")
    p.add_argument("--blocks", type=int, default=12)
    p.set_defaults(func=cmd_wedge)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        if ns.depth < 0:
            raise InputError(f"--depth must be non-negative, got {ns.depth}")
        return ns.func(ns)
    except (InputError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
