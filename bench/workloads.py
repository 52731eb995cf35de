"""Seeded workloads: input files, operations, and the check for each result.

A workload is a pool of operations ("ops").  An op is one in-process
``tauword.cli.main(argv)`` call with ``--format json``, except the order
membership and bijection-extension ops, which have no subcommand and call
``Embedding.index_of_component`` and ``extend_bijection`` on one long-lived
``Embedding`` per order.  Every op carries a check built from ``oracles``;
checks run outside the timed region.

Sizes are stratified: an op family of k ops draws its size from k equal
slices of its range, one value per slice, so every seed gets the same spread
of sizes and the op latencies cover a continuous range without clusters.

Every workload also holds a fixed share of malformed inputs (a JSON list as
the expression, ``"tail": 5``, float ``index``/``exp``, ragged relator rows,
``--depth -1``).  Their expected result is exit code 1 with no exception
escaping ``cli.main``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import oracles as orc

WORKLOADS = ("omega_verdicts", "tau_order", "finite_models")


@dataclass
class Op:
    """One timed operation and the check of its outcome.

    ``argv`` ops return ``(exit code, stdout)``; library ops return whatever
    ``call`` returns.  ``check`` gets that outcome and says whether it is right.
    """

    kind: str
    check: Callable[[Any], bool]
    argv: Optional[list[str]] = None
    call: Optional[Callable[[], Any]] = None
    malformed: bool = False

    def run(self, cli):
        if self.call is not None:
            return self.call()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(self.argv)
        return rc, out.getvalue()


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # (parser name, path) for every generated input, decoded once by set-up
    inputs: list[tuple[str, str]] = field(default_factory=list)
    # ops run once before timing, so lazy memos are warm as users would see them
    warmup: list[Op] = field(default_factory=list)


# ---------------------------------------------------------------------------
# JSON expression builders
# ---------------------------------------------------------------------------


def letter(index, exp=1):
    return {"type": "letter", "index": index, "exp": exp}


def sym(base, coef, exp=1):
    return {"type": "letter", "base": base, "coef": coef, "exp": exp}


def concat(*factors):
    return {"type": "concat", "factors": list(factors)}


def inverse(of):
    return {"type": "inverse", "of": of}


def commutator(a, b):
    return concat(a, b, inverse(a), inverse(b))


def product(kind, prefix, bodies):
    tail = {"kind": "template", "bodies": list(bodies)} if bodies else {"kind": "trivial"}
    return {"type": kind, "prefix": list(prefix), "tail": tail}


def nonzero(rng, lo=-2, hi=2):
    while True:
        e = rng.randint(lo, hi)
        if e:
            return e


def stratified(rng, lo, hi, k, log=False):
    """k sizes, one drawn uniformly from each of k equal slices of [lo, hi]
    (slices of equal ratio with ``log``)."""
    if log:
        return [lo * (hi / lo) ** ((i + rng.random()) / k) for i in range(k)]
    return [lo + (hi - lo) * (i + rng.random()) / k for i in range(k)]


def zero_sum_word(rng, pairs, max_letter):
    syls = []
    for _ in range(pairs):
        a, e = rng.randint(1, max_letter), nonzero(rng)
        syls += [(a, e), (a, -e)]
    rng.shuffle(syls)
    return concat(*(letter(a, e) for a, e in syls))


def zero_eta_body(rng, coef, commutator_body):
    if commutator_body:
        return commutator(sym(rng.randint(1, 3), coef, nonzero(rng)), sym(rng.randint(1, 3), coef, nonzero(rng)))
    leaf = sym(rng.randint(1, 3), coef, nonzero(rng))
    return concat(leaf, inverse(leaf))


# The shape of a generated product (prefix length, bodies, leaves, slopes) sets
# its cost, so it is fixed by the op's slot i; the seed picks letters,
# exponents and inverses.  Every seed then gets the same mix of op costs.


def zero_eta_product(rng, i):
    """An omega product with zero letter counts that is not already in factored form."""
    prefix = [zero_sum_word(rng, 1 + (i + k) % 4, 10) for k in range(i % 3)]
    coef = 1 + i % 2
    leaf = sym(rng.randint(1, 3), coef, nonzero(rng))
    # the x x^-1 body is not a commutator block, so the stage peeling always runs
    bodies = [concat(leaf, inverse(leaf))] + [zero_eta_body(rng, coef, i % 4 < 2) for _ in range(i // 2 % 2)]
    rng.shuffle(bodies)
    return product("omega", prefix, bodies)


def random_product(rng, i, kind="omega", max_coef=3):
    prefix = [concat(*(letter(rng.randint(1, 8), nonzero(rng)) for _ in range(2))) for _ in range(i % 3)]
    bodies = []
    for q in range(1 + i % 2):
        leaves = [sym(rng.randint(1, 4), 1 + (i + q + k) % max_coef, nonzero(rng)) for k in range(1 + (i + q) % 3)]
        leaves = [inverse(x) if rng.random() < 0.3 else x for x in leaves]
        bodies.append(leaves[0] if len(leaves) == 1 else concat(*leaves))
    return product(kind, prefix, bodies)


def reexpress(rng, e):
    """The same product written differently: nested concat, double inverse,
    and the first round of tail factors moved into the prefix."""
    prefix = [concat(f) if rng.random() < 0.5 else inverse(inverse(f)) for f in e["prefix"]]
    bodies = orc.bodies_of(e)
    prefix += [orc.instantiate(b, 0) for b in bodies]
    return product(e["type"], prefix, [_shift(b) for b in bodies])


def _shift(body):
    kind = body["type"]
    if kind == "letter":
        return sym(body["base"] + body["coef"], body["coef"], body.get("exp", 1))
    if kind == "concat":
        return concat(*(_shift(f) for f in body["factors"]))
    return inverse(_shift(body["of"]))


# ---------------------------------------------------------------------------
# Report checks
# ---------------------------------------------------------------------------


def report(outcome, rc):
    """The parsed JSON report when the exit code is rc, else None."""
    code, out = outcome
    return json.loads(out) if code == rc and out else None


def expect_rejected(outcome) -> bool:
    return outcome[0] == 1 and not outcome[1]


def check_equal(outcome, witness=None, left=None, right=None) -> bool:
    if witness is None:
        r = report(outcome, 0)
        return r is not None and r["equal"] is True
    r = report(outcome, 2)
    if r is None or r["equal"] is not False or r["witness"]["n"] != witness:
        return False
    return (r["witness"]["left"] == orc.render_units(orc.project(left, witness))
            and r["witness"]["right"] == orc.render_units(orc.project(right, witness)))


def check_shuffle(outcome, expr, phi, depth, collapses) -> bool:
    r = report(outcome, 0)
    if r is None or not r["eta_invariant"] or r["eta_before"] != r["eta_after"]:
        return False
    if len(r["projections"]) != depth:
        return False
    if collapses:
        return r["all_projections_identity"] and all(p["after"] == "1" for p in r["projections"])
    inv = orc.bijection(orc.inverse_bijection(phi))
    for p in r["projections"][:6]:
        n = p["n"]
        if p["before"] != orc.render_units(orc.project(expr, n)):
            return False
        if p["after"] != orc.render_units(orc.project(expr, n, phi_inverse=inv)):
            return False
    identity = all(p["after"] == "1" for p in r["projections"])
    return r["all_projections_identity"] == identity


def check_factor(outcome, expr, depth) -> bool:
    r = report(outcome, 0)
    if r is None or not r["projections_match"]:
        return False
    stages = [orc.parse_units(s["word"]) for s in r["stages"]]
    # stage k is a product of commutators of words in letters >= k
    if any(abs(u) < k for k, st in enumerate(stages, start=1) for u in st):
        return False
    for n in range(1, min(depth, 6) + 1):
        multiplied = orc.stack_reduce([u for st in stages for u in st if abs(u) <= n])
        if multiplied != orc.project(expr, n):
            return False
    return True


# ---------------------------------------------------------------------------
# Workload builders
# ---------------------------------------------------------------------------


class _Builder:
    def __init__(self, name: str, seed: int, workdir: Path):
        self.rng = random.Random(f"{name}:{seed}")
        self.workdir = workdir
        self.count = 0
        self.ops: list[Op] = []
        self.inputs: list[tuple[str, str]] = []

    def file(self, obj, parser: Optional[str], suffix=".json") -> str:
        """Write one input; set-up decodes it with ``parser`` (None: malformed, not decoded)."""
        self.count += 1
        path = self.workdir / f"in{self.count:04d}{suffix}"
        path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
        if parser is not None:
            self.inputs.append((parser, str(path)))
        return str(path)

    def expr(self, e) -> list[str]:
        return ["--expr", self.file(e, "expr")]

    def cli(self, kind, argv, check, malformed=False):
        self.ops.append(Op(kind, check, argv=argv + ["--format", "json"], malformed=malformed))

    def malformed(self, kinds):
        """One op per malformed input kind; each must exit 1 without a traceback."""
        bad = {
            "json_list": [letter(1), letter(2)],
            "tail_int": {"type": "omega", "prefix": [], "tail": 5},
            "float_leaf": concat(letter(1), {"type": "letter", "index": 1.7, "exp": 2.9}),
        }
        for kind in kinds:
            if kind == "depth_neg":
                argv = ["equal", "--builtin", "ell_infinity", "--builtin", "ell_infinity", "--depth", "-1"]
            elif kind.startswith("ragged"):
                rows = [[2, 4], [6]] if kind == "ragged_rows" else [[3]]
                pres = {"blocks": [{"generators": 2, "relators": rows}]}
                argv = ["wedge", *self.expr(letter(1)), "--presentations", self.file(pres, None),
                        "--blocks", "1"]
            else:
                argv = ["eta", "--expr", self.file(bad[kind], None)]
            self.cli(f"malformed.{kind}", argv, expect_rejected, malformed=True)

    def done(self, name, warmup=()) -> Workload:
        ops = self.ops
        self.rng.shuffle(ops)
        return Workload(name, ops, self.inputs, list(warmup))


def build(name: str, seed: int, workdir: Path) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    b = _Builder(name, seed, workdir)
    return {"omega_verdicts": _omega_verdicts, "tau_order": _tau_order, "finite_models": _finite_models}[name](b)


def _omega_verdicts(b: _Builder) -> Workload:
    rng = b.rng
    # equal: re-expressed pairs, the two commutator products, and swapped pairs
    for i, depth in enumerate(stratified(rng, 30, 120, 14)):
        d = int(depth)
        e = random_product(rng, i)
        b.cli("equal.reexpressed", ["equal", *b.expr(e), *b.expr(reexpress(rng, e)), "--depth", str(d)],
              check_equal)
    for depth in stratified(rng, 40, 130, 10):
        names = ["commutator_product", "flattened_commutator_product"]
        rng.shuffle(names)
        b.cli("equal.commutators", ["equal", "--builtin", names[0], "--builtin", names[1], "--depth", str(int(depth))],
              check_equal)
    for i, depth in enumerate(stratified(rng, 30, 120, 14)):
        d = int(depth)
        left = random_product(rng, i)
        hi = d - rng.randint(0, 3)  # the witness level sets the cost: keep it near the depth
        lo = rng.randint(1, hi - 1)
        pair = [letter(lo, nonzero(rng)), letter(hi, nonzero(rng))]
        rng.shuffle(pair)
        at = rng.randint(0, len(left["prefix"]))
        left["prefix"][at:at] = pair
        right = dict(left, prefix=left["prefix"][:at] + pair[::-1] + left["prefix"][at + 2:])
        b.cli("equal.swapped", ["equal", *b.expr(left), *b.expr(right), "--depth", str(d)],
              lambda o, n=hi, l=left, r=right: check_equal(o, n, l, r))
    # shuffle: eh_shuffle collapses flattened commutator products
    for depth in stratified(rng, 10, 60, 12):
        d = int(depth)
        c = rng.randint(2, 3)
        a0, b0 = rng.sample(range(1, c + 1), 2)
        e = product("omega", [], [sym(a0, c), sym(b0, c), sym(a0, c, -1), sym(b0, c, -1)])
        b.cli("shuffle.eh", ["shuffle", *b.expr(e), "--named", "eh_shuffle", "--depth", str(d)],
              lambda o, e=e, d=d: check_shuffle(o, e, None, d, True))
    # block permutations, compositions, and finite-support bijections of many cycles
    cycles = stratified(rng, 80, 240, 8)
    for i, depth in enumerate(stratified(rng, 5, 40, 24)):
        d = int(depth)
        e = random_product(rng, i)
        period = 2 + i % 5
        perm = list(range(period))
        rng.shuffle(perm)
        block = {"kind": "block", "period": period, "perm": perm}
        if i % 3 == 0:
            phi = block
        else:
            ncycles = int(cycles[i // 3]) if i % 3 == 2 else 2 + i % 5
            pool = rng.sample(range(1, 3 * ncycles + 1), 2 * ncycles)
            finite = {"kind": "finite", "cycles": [pool[2 * k:2 * k + 2] for k in range(ncycles)]}
            phi = {"kind": "compose", "of": [block, finite]} if i % 3 == 1 else finite
        kind = {"block": "shuffle.block", "compose": "shuffle.compose", "finite": "shuffle.finite"}[phi["kind"]]
        b.cli(kind, ["shuffle", *b.expr(e), "--bijection", b.file(phi, "bijection"), "--depth", str(d)],
              lambda o, e=e, p=phi, d=d: check_shuffle(o, e, p, d, False))
    for i, depth in enumerate(stratified(rng, 20, 120, 22)):
        d = int(depth)
        e = zero_eta_product(rng, i)
        b.cli("factor", ["factor", *b.expr(e), "--depth", str(d)], lambda o, e=e, d=d: check_factor(o, e, d))
    b.malformed(["json_list", "tail_int", "float_leaf", "depth_neg"])
    return b.done("omega_verdicts")


ORDERS = ("rationals", "zeta", "omega+omega", "omega")


def _tau_order(b: _Builder) -> Workload:
    from tauword import orders

    rng = b.rng
    # log-spaced n: fewer long projections, so more passes fit in a run
    for i, n in enumerate(stratified(rng, 500, 6000, 16, log=True)):
        n = int(n)
        if i % 3 == 0:
            e = product("tau", [], [sym(1, 1, rng.choice((1, 2, -1)))])
        else:
            e = random_product(rng, i, "tau", max_coef=2)
        b.cli("project", ["project", *b.expr(e), "--n", str(n)],
              lambda o, e=e, n=n: (r := report(o, 0)) is not None and r["word"] == orc.render_units(orc.project(e, n)))
    for i, count in enumerate(stratified(rng, 10, 90, 16)):
        order, count = ORDERS[i % 4], int(count)
        b.cli("orders.embed", ["orders", "embed", order, "--count", str(count)],
              lambda o, order=order, c=count: _check_embed(o, order, c))
    for _ in range(20):
        m1, m2 = rng.randint(1, 1 << 40), rng.randint(1, 1 << 40)
        b.cli("orders.compare", ["orders", "compare", str(m1), str(m2)], lambda o, m1=m1, m2=m2: _check_compare(o, m1, m2))
        m = rng.randint(1, 1 << 40)
        b.cli("orders.theta", ["orders", "theta", str(m)],
              lambda o, m=m: (r := report(o, 0)) is not None
              and f"I({r['level']},{r['slot']}) = ({r['lo']}, {r['hi']})" == orc.component_text(m))
    # library ops on one long-lived embedding per order; the warm-up fills the memos
    embeddings = {name: orders.back_and_forth_embed(_order_spec(orders, name)) for name in ORDERS}
    oracle = {name: orc.OracleEmbedding(name) for name in ORDERS}
    warmup = []
    for i in range(16):
        name = ORDERS[i % 4]
        top = 512 if name == "rationals" else 4096
        ms = sorted(rng.sample(range(1, top), 24))
        op = Op("orders.membership", lambda r, n=name, ms=ms: r == [oracle[n].index_of(m) for m in ms],
                call=lambda e=embeddings[name], ms=ms: [e.index_of_component(m) for m in ms])
        b.ops.append(op)
        warmup.append(op)
    for i in range(8):
        name = ORDERS[1 + i % 3]  # psi below permutes indices of an infinite source
        support = rng.sample(range(1, 40), 6)
        psi_map = dict(zip(support, rng.sample(support, len(support))))
        ns = rng.sample(range(1, 400), 12)

        def extend(e=embeddings[name], psi_map=psi_map, ns=ns):
            _, phi = orders.extend_bijection(e, e, lambda i: psi_map.get(i, i))
            return [phi(n) for n in ns]

        op = Op("orders.extend", lambda r, n=name, p=psi_map, ns=ns: r == _oracle_extension(oracle[n], p, ns), call=extend)
        b.ops.append(op)
        warmup.append(op)
    b.malformed(["json_list", "tail_int", "float_leaf", "depth_neg"])
    return b.done("tau_order", warmup)


def _order_spec(orders, name):
    return {"omega": orders.Omega, "omega+omega": orders.OmegaPlusOmega,
            "zeta": orders.IntegersZeta, "rationals": orders.Rationals}[name]()


def _check_embed(outcome, order, count) -> bool:
    r = report(outcome, 0)
    if r is None or [row["i"] for row in r["rows"]] != list(range(1, count + 1)):
        return False
    emb = orc.OracleEmbedding(order)
    return all(row["m"] == emb.image(row["i"]) and row["component"] == orc.component_text(row["m"])
               for row in r["rows"])


def _check_compare(outcome, m1, m2) -> bool:
    r = report(outcome, 0)
    a, b = orc.ternary_address(m1), orc.ternary_address(m2)
    return r is not None and r["result"] == ("less" if a < b else "equal" if a == b else "greater")


def _oracle_extension(emb: orc.OracleEmbedding, psi_map, ns):
    """phi(n): through psi on the embedded image, else the rank-th missed component."""
    def missed_rank(n):
        return sum(1 for j in range(1, n + 1) if emb.index_of(j) is None)

    out = []
    for n in ns:
        i = emb.index_of(n)
        if i is not None:
            out.append(emb.image(psi_map.get(i, i)))
            continue
        rank, j = missed_rank(n), 0
        while rank:
            j += 1
            rank -= emb.index_of(j) is None
        out.append(j)
    return out


def _finite_models(b: _Builder) -> Workload:
    from tauword import james_monoid

    rng = b.rng
    # Models ordered by isomorphism class and size.  Slot j of a family takes
    # the class at a fixed position of that order, and the seed picks one
    # labelled copy of it: every seed gets the same spread of model costs.
    models = james_monoid.all_models(4)
    classes = sorted({james_monoid.canonical_key(m) for m in models if len(m.points) >= 3})

    def seeded_copy(pos):
        key = classes[int(pos)]
        return rng.choice([m for m in models if james_monoid.canonical_key(m) == key])

    def model_file(m):
        le = ", ".join(f"{x}<{y}" for x, y in sorted(m.le) if x != y)
        return b.file(f"points: {' '.join(m.points)}; base: {m.base}; le: {le}\n", "model", ".txt")

    for check, k in {"saturation": 18, "topology": 18, "nbhd": 12}.items():
        for j in range(k):
            m = seeded_copy(len(classes) * (j + 0.5) / k)
            b.cli(f"james.{check}", ["james", "--model", model_file(m), "--check", check, "--n", "3"],
                  lambda o, m=m, c=check: _check_james(o, m, c, 3))
    for i, n in enumerate(stratified(rng, 3, 9, 18)):
        m, n = rng.choice([m for m in models if len(m.points) == 3 + i % 2]), int(n)  # cost: points^n
        b.cli("james.fibers", ["james", "--model", model_file(m), "--check", "fibers", "--n", str(n)],
              lambda o, m=m, n=n: _check_james(o, m, "fibers", n))
    for i, nblocks in enumerate(stratified(rng, 4, 13, 24)):
        nblocks = int(nblocks)
        blocks = []
        for q in range(1 + i % 4):
            g = 1 + (i + q) % 4
            rows = [[rng.randint(-6, 6) for _ in range(g)] for _ in range((i + q) % 5)]
            blocks.append({"generators": g, "relators": rows})
        pres = {"blocks": blocks, "repeat_from": rng.randint(0, len(blocks) - 1)}
        e = random_product(rng, i)
        b.cli("wedge", ["wedge", *b.expr(e), "--presentations", b.file(pres, "presentation"),
                        "--blocks", str(nblocks)],
              lambda o, e=e, p=pres, k=nblocks: _check_wedge(o, e, p, k))
    for target in ("HA", "griffiths"):
        for i in range(18):
            e = random_product(rng, i)
            b.cli(f"abelianize.{target}", ["abelianize", *b.expr(e), "--target", target],
                  lambda o, e=e, t=target: _check_abelianize(o, e, t))
    b.malformed(["ragged_rows", "ragged_width", "json_list", "tail_int", "float_leaf", "depth_neg"])
    return b.done("finite_models")


def _check_james(outcome, m, check, n) -> bool:
    r = report(outcome, 0)
    if r is None:
        return False
    points, base, le = m.points, m.base, set(m.le)
    letters = [p for p in points if p != base]
    words = sorted(orc.words_up_to(letters, n), key=lambda w: (len(w), w))
    if check == "fibers":
        return [row["word"] for row in r["rows"]] == [" ".join(w) or "(empty)" for w in words] and all(
            row["count"] == row["expected"] == orc.binomial(n, len(w)) and row["ok"]
            for row, w in zip(r["rows"], words))
    if check == "nbhd":
        return len(r["rows"]) == len(words) and all(
            row["specs"] == row["saturated"] == orc.standard_nbhd_count(points, base, le, w)
            for row, w in zip(r["rows"], words))
    if check == "saturation":
        total = sum(orc.standard_nbhd_count(points, base, le, w) for w in words)
        return r["neighborhoods"] == r["saturated"] == total
    trivial_order = all(x == y for x, y in le)
    return (r["agree"] and r["stable"]
            and r["model_t1"] == trivial_order
            and r["base_closed"] == all(y == base for y, x in le if x == base)
            and r["closed_in_next"] == all(y != base for x, y in le if x != base)
            and (r["stage_t1"] or not trivial_order))


def _check_wedge(outcome, e, pres, nblocks) -> bool:
    from tauword import specker

    r = report(outcome, 0)
    if r is None or len(r["blocks"]) != nblocks:
        return False
    blocks, start = pres["blocks"], pres["repeat_from"]
    counts = orc.eta(e, nblocks)
    for k, out in enumerate(r["blocks"], start=1):
        block = blocks[k - 1] if k <= len(blocks) else blocks[start:][(k - len(blocks) - 1) % len(blocks[start:])]
        g, rows = block["generators"], block["relators"]
        if (out["free_rank"], out["torsion"]) != orc.homology(rows, g):
            return False
        coords = [counts[k - 1]] + [0] * (g - 1)
        if not rows:
            if out["image"] != coords:
                return False
            continue
        s, u, v = specker.smith_normal_form(rows)
        if not orc.snf_certificate_holds(rows, s, u, v):
            return False
        diag = [s[i][i] for i in range(min(len(s), g))]
        moved = [sum(coords[i] * v[i][j] for i in range(g)) for j in range(g)]
        want = [x % diag[j] if j < len(diag) and diag[j] > 0 else x for j, x in enumerate(moved)]
        if out["image"] != want:
            return False
    return True


def _check_abelianize(outcome, e, target) -> bool:
    r = report(outcome, 0)
    if r is None:
        return False
    if target == "griffiths":
        odd, even = orc.parse_vector(r["odd_part"]), orc.parse_vector(r["even_part"])
        h = orc.vector_horizon(odd, even) + 8
        v = orc.eta(e, h)
        return r["image"] == "trivial" and all(
            orc.vector_at(odd, n) + orc.vector_at(even, n) == v[n - 1]
            and orc.vector_at(odd if n % 2 == 0 else even, n) == 0
            for n in range(1, h + 1))
    vec, rep, diff = (orc.parse_vector(r[k]) for k in ("eta", "coset_rep", "difference_image"))
    h = orc.vector_horizon(vec, rep, diff) + 8
    v = orc.eta(e, h)
    if any(orc.vector_at(vec, n) != v[n - 1] for n in range(1, h + 1)):
        return False
    if any(orc.vector_at(diff, n) != v[n - 1] - (v[n - 2] if n > 1 else 0) for n in range(1, h + 1)):
        return False
    # the representative differs from eta by a finite-support vector of sum 0
    delta = [v[n - 1] - orc.vector_at(rep, n) for n in range(1, h + 1)]
    tail = max(len(vec[0]), len(rep[0]))
    same_coset = all(x == 0 for x in delta[tail:]) and sum(delta) == 0
    trivial = all(x == 0 for x in v[tail:]) and sum(v) == 0
    return same_coset and r["trivial"] == trivial
