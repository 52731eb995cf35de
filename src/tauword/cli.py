"""Batch command line front end.

Subcommands: project, eta, equal, shuffle, factor, abelianize, james, orders,
wedge.  Input files are JSON for expressions, bijections and presentations,
plain text for models; the library modules decode them and compute.  Reports
render as text or as canonical JSON (sorted keys, no floats); identical inputs
and seed produce byte-identical JSON reports.

Exit codes: 0 success, 1 input error, 2 a conclusive negative verdict
(inequality witness or a failed property check).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import james_monoid, orders, rearrange, specker, word_expr


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error (exit 1), not argparse's exit 2, the negative-verdict code."""

    def error(self, message):
        raise InputError(message)


# Omega images climb one level per index, so an embed report's last endpoints have
# about count/2 digits: below Python's 4300-digit int-to-str limit, in a report of 20 MB.
MAX_EMBED_COUNT = 4000
# Component m lies on level m.bit_length(), and its endpoints have the denominator 3^level:
# 3^9012 is the largest such power within Python's 4300-digit int-to-str limit.
MAX_THETA_BITS = 9012


def _add_expr_args(p: argparse.ArgumentParser) -> None:
    """--expr FILE and --builtin NAME, collected in command-line order as (kind, value) pairs."""
    p.add_argument("--expr", action="append", dest="exprs", type=lambda v: ("file", v), metavar="FILE",
                   help="expression file (canonical JSON)")
    p.add_argument(
        "--builtin",
        action="append",
        dest="exprs",
        type=lambda v: ("builtin", v),
        metavar="NAME",
        help=f"built-in expression: {', '.join(sorted(word_expr.BUILTINS))}",
    )


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--depth", type=int, default=12, help="truncation depth (default 12)")
    p.add_argument("--seed", type=int, default=0, help="seed echoed into reports")
    p.add_argument("--budget", type=int, default=200, help="fuzz budget echoed into reports")
    p.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")


def _read(path: str, what: str, decode, errors: tuple):
    """``decode`` of the open file; an exception in ``errors`` becomes a ``cannot read`` input error."""
    try:
        with open(path) as fh:
            return decode(fh)
    except errors as exc:
        raise InputError(f"cannot read {what} {path!r}: {exc}") from exc


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
            expr = _read(value, "expression", lambda fh: word_expr.from_json(json.load(fh)),
                         (OSError, json.JSONDecodeError, RecursionError, word_expr.ValidationError))
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
        if ns.named not in rearrange.NAMED:
            raise InputError(f"unknown named bijection {ns.named!r}")
        return rearrange.NAMED[ns.named]()
    if not ns.bijection:
        raise InputError("need --bijection FILE or --named NAME")
    return _read(ns.bijection, "bijection", lambda fh: rearrange.bijection_from_json(json.load(fh)),
                 (OSError, json.JSONDecodeError, RecursionError, rearrange.MalformedBijectionError))


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
    spec, verified = word_expr.factor(expr, ns.depth)
    stages = [
        {"stage": i, "word": str(word_expr.finite_word(stage))} for i, stage in enumerate(spec.prefix, start=1)
    ]
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
    else:
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
    report["config"] = _config_echo(ns)
    _emit(report, lines, ns.fmt)
    return 0


def cmd_james(ns) -> int:
    m = _read(ns.model, "model", lambda fh: james_monoid.parse_model(fh.read()), (OSError, james_monoid.ModelError))
    if len(m.points) > james_monoid.MAX_POINTS:
        raise InputError(f"model has {len(m.points)} points, bound is {james_monoid.MAX_POINTS}")
    n = ns.n
    if ns.check in ("nbhd", "saturation") and not 1 <= n <= james_monoid.MAX_N:
        raise InputError(f"neighbourhood sweeps are bounded to n <= {james_monoid.MAX_N}")
    report = {"command": "james", "check": ns.check, "n": n}
    if ns.check == "fibers":
        rows = report["rows"] = james_monoid.fiber_rows(m, n)
        failed = not all(r["ok"] for r in rows)
        lines = [f"{r['word']}: {r['count']} (expected {r['expected']}) {'ok' if r['ok'] else 'FAIL'}" for r in rows]
    elif ns.check == "nbhd":
        rows = report["rows"] = james_monoid.nbhd_rows(m, n)
        failed = any(r["specs"] != r["saturated"] for r in rows)
        lines = [
            f"{r['word']}: {r['specs']} neighborhoods, "
            f"{r['saturated']} saturated, smallest {r['smallest']}, largest {r['largest']}"
            for r in rows
        ]
    elif ns.check == "saturation":
        checked, saturated = james_monoid.sweep_standard_nbhds(m, n)
        failed = checked != saturated
        report.update(neighborhoods=checked, saturated=saturated)
        lines = [f"standard neighborhoods at n={n}: {checked}, saturated: {saturated}"]
    else:
        rep = james_monoid.topologies_agree(m, n)
        failed = not (rep.agree and rep.stable)
        flags = ("agree", "stable", "stage_t1", "model_t1", "base_closed", "closed_in_next")
        report.update({flag: getattr(rep, flag) for flag in flags})
        lines = [
            f"quotient vs subspace topology at n={n}: {'agree' if rep.agree else 'DIFFER'}",
            f"stable under one more stage: {rep.stable}",
            f"stage T1: {rep.stage_t1} (model T1: {rep.model_t1})",
            f"basepoint closed: {rep.base_closed}; stage closed in next: {rep.closed_in_next}",
        ]
    report["config"] = _config_echo(ns)
    _emit(report, lines, ns.fmt)
    return 2 if failed else 0


def cmd_orders(ns) -> int:
    if ns.action == "theta":
        if ns.m >= 1 << MAX_THETA_BITS:
            raise InputError(f"m must be below 2^{MAX_THETA_BITS}, got a number of {ns.m.bit_length()} bits")
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
    else:
        spec = orders.order_spec(ns.order)
        if ns.count > MAX_EMBED_COUNT:
            raise InputError(f"--count must be at most {MAX_EMBED_COUNT}, got {ns.count}")
        emb = orders.back_and_forth_embed(spec)
        count = ns.count if spec.size is None else min(ns.count, spec.size)
        rows = []
        lines = []
        for i in range(1, count + 1):
            c = emb(i)
            rows.append({"i": i, "m": orders.theta_inv(c), "component": str(c)})
            lines.append(f"{i} -> {c}")
        report = {"command": "orders", "action": "embed", "order": ns.order, "rows": rows}
    report["config"] = _config_echo(ns)
    _emit(report, lines, ns.fmt)
    return 0


def cmd_wedge(ns) -> int:
    (expr,) = _load_exprs(ns, 1)
    pres = _read(ns.presentations, "presentations", lambda fh: specker.presentations_from_json(json.load(fh)),
                 (OSError, RecursionError, ValueError))
    rows = specker.wedge_images(word_expr.eta(expr), pres, ns.blocks)
    lines = [f"block {r['block']}: H1 rank {r['free_rank']}, torsion {r['torsion'] or 'none'}, image {r['image']}"
             for r in rows]
    report = {"command": "wedge", "blocks": rows, "config": _config_echo(ns)}
    _emit(report, lines, ns.fmt)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``tauword`` parser, built once per process; parsing never mutates it."""
    parser = _Parser(
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
    p.set_defaults(func=cmd_james)

    p = sub.add_parser("orders", help="component arithmetic and canonical embeddings")
    order_sub = p.add_subparsers(dest="action", required=True)
    q = order_sub.add_parser("theta")
    q.add_argument("m", type=int, help=f"component number, 1 <= m < 2^{MAX_THETA_BITS}")
    _add_common(q)
    q.set_defaults(func=cmd_orders, action="theta")
    q = order_sub.add_parser("compare")
    q.add_argument("m", type=int)
    q.add_argument("m2", type=int)
    _add_common(q)
    q.set_defaults(func=cmd_orders, action="compare")
    q = order_sub.add_parser("embed")
    q.add_argument("order")
    q.add_argument("--count", type=int, default=10, help=f"indices to embed, at most {MAX_EMBED_COUNT}")
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
    try:
        ns = build_parser().parse_args(argv)
        for flag in ("depth", "blocks", "count"):  # blocks and count belong to some subcommands only
            if getattr(ns, flag, 0) < 0:
                raise InputError(f"--{flag} must be non-negative, got {getattr(ns, flag)}")
        return ns.func(ns)
    except (InputError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
