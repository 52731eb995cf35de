"""Finitely described loop expressions over the circle alphabet l1, l2, ...

An expression is a letter power, a finite concatenation, an inverse, or an
infinite product of a null family of factors.  Infinite products come in two
flavours that share the same factor data: an omega product concatenates its
factors in index order 1, 2, 3, ..., while a tau product places factor m on
the m-th removed middle-third interval and reads the factors in the left to
right order of those intervals (a dense order).

Factor data is a finite prefix of explicit factors followed by a tail rule:
either all remaining factors are the identity, or they are produced by
template bodies cycled round-robin, whose letter leaves are affine in the
instance number with positive slope.  That slope keeps the family null: any
fixed letter occurs in only finitely many factors, and the set of factors
touching letters <= n is computable, which is what makes projections into
the free groups exact.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import lcm

from . import orders
from ._frozen import Frozen
# concat_all is not called here; bench/test_bench.py checks that tracing restores this module's binding of it
from .free_words import ReducedWord, Syllable, commutator_decompose, concat_all, delete_above, reduce  # noqa: F401
from .rearrange import is_bijection
from .specker import SpeckerVector, vector


class ValidationError(ValueError):
    def __init__(self, report: list[str]):
        super().__init__("; ".join(report))
        self.report = report


class ClosureError(ValueError):
    """The expression class is not closed under the requested rearrangement."""


class HypothesisViolationError(ValueError):
    """An operation's kernel hypothesis (zero winding vector) fails."""


class WordExpr(Frozen):
    """Base class for expression nodes."""

    __slots__ = ()


class Letter(WordExpr):
    _fields = ("index", "exp")
    __slots__ = _fields

    def __init__(self, index: int, exp: int = 1) -> None:
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "exp", exp)


class SymLetter(WordExpr):
    """Template leaf: instance j is the letter base + coef*j."""

    _fields = ("base", "coef", "exp")
    __slots__ = _fields

    def __init__(self, base: int, coef: int, exp: int = 1) -> None:
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "coef", coef)
        object.__setattr__(self, "exp", exp)


class Concat(WordExpr):
    _fields = ("factors",)
    __slots__ = _fields

    def __init__(self, factors: tuple[WordExpr, ...] = ()) -> None:
        object.__setattr__(self, "factors", factors)


class Inverse(WordExpr):
    _fields = ("of",)
    __slots__ = _fields

    def __init__(self, of: WordExpr) -> None:
        object.__setattr__(self, "of", of)


class Trivial(Frozen):
    __slots__ = ()


class Template(Frozen):
    """Tail factors bodies[t % len(bodies)] instantiated at t // len(bodies)."""

    _fields = ("bodies",)
    __slots__ = _fields

    def __init__(self, bodies: tuple[WordExpr, ...]) -> None:
        object.__setattr__(self, "bodies", bodies)


TailRule = Trivial | Template


class SeqSpec(Frozen):
    _fields = ("prefix", "tail")
    __slots__ = _fields

    def __init__(self, prefix: tuple[WordExpr, ...], tail: TailRule) -> None:
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "tail", tail)


class OmegaProd(WordExpr):
    _fields = ("spec",)
    __slots__ = _fields

    def __init__(self, spec: SeqSpec) -> None:
        object.__setattr__(self, "spec", spec)


class TauProd(WordExpr):
    _fields = ("spec",)
    __slots__ = _fields

    def __init__(self, spec: SeqSpec) -> None:
        object.__setattr__(self, "spec", spec)


def identity_expr() -> Concat:
    return Concat(())


def word_to_expr(w: ReducedWord) -> WordExpr:
    letters = tuple(Letter(l, e) for l, e in w.syllables)
    return letters[0] if len(letters) == 1 else Concat(letters)


def commutator_expr(a: WordExpr, b: WordExpr) -> Concat:
    return Concat((a, b, Inverse(a), Inverse(b)))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

# Every node is one level below its parent, whatever its type.  The decoder,
# ``validate`` and ``to_json`` reject deeper nodes, which keeps the recursive tree
# builders far below the interpreter's recursion limit; the readers walk an
# explicit stack.
MAX_NESTING = 100


def _too_deep(path: str) -> str:
    return f"{path}: nested deeper than {MAX_NESTING} levels"


def validate(e: WordExpr) -> list[str]:
    """Return a list of invariant violations (empty means valid)."""
    report: list[str] = []
    _validate(e, "expr", report, in_body=False, in_finite=False, level=0)
    return report


def ensure_valid(e: WordExpr) -> None:
    report = validate(e)
    if report:
        raise ValidationError(report)


def _validate(e: WordExpr, path: str, report: list[str], in_body: bool, in_finite: bool, level: int) -> None:
    if level > MAX_NESTING:
        report.append(_too_deep(path))
    elif isinstance(e, Letter):
        if in_body:
            report.append(f"{path}: constant letter in tail")
        if e.index < 1:
            report.append(f"{path}: letter index {e.index} must be positive")
        if e.exp == 0:
            report.append(f"{path}: letter exponent must be nonzero")
    elif isinstance(e, SymLetter):
        if not in_body:
            report.append(f"{path}: symbolic letter outside a template body")
        if e.coef < 1:
            report.append(f"{path}: constant letter in tail (coef {e.coef} < 1)")
        if e.base < 1:
            report.append(f"{path}: symbolic base {e.base} must be positive")
        if e.exp == 0:
            report.append(f"{path}: letter exponent must be nonzero")
    elif isinstance(e, Concat):
        for i, f in enumerate(e.factors):
            _validate(f, f"{path}.factors[{i}]", report, in_body, in_finite, level + 1)
    elif isinstance(e, Inverse):
        _validate(e.of, f"{path}.of", report, in_body, in_finite, level + 1)
    elif isinstance(e, (OmegaProd, TauProd)):
        if in_body or in_finite:
            report.append(f"{path}: nested infinite product")
            return
        spec = e.spec
        for i, f in enumerate(spec.prefix):
            _validate(f, f"{path}.prefix[{i}]", report, in_body=False, in_finite=True, level=level + 1)
        if isinstance(spec.tail, Template):
            if not spec.tail.bodies:
                report.append(f"{path}.tail: template with no bodies")
            for q, body in enumerate(spec.tail.bodies):
                _validate(body, f"{path}.tail.bodies[{q}]", report, in_body=True, in_finite=True, level=level + 1)
        elif not isinstance(spec.tail, Trivial):
            report.append(f"{path}.tail: unknown tail rule {type(spec.tail).__name__}")
    else:
        report.append(f"{path}: unknown node {type(e).__name__}")


# ---------------------------------------------------------------------------
# Built-in expressions
# ---------------------------------------------------------------------------


def ell_infinity() -> OmegaProd:
    """The omega-ordered concatenation whose m-th factor is the letter lm."""
    return OmegaProd(SeqSpec((), Template((SymLetter(1, 1, 1),))))


def ell_tau() -> TauProd:
    """The same factors read in the dense middle-third-interval order."""
    return TauProd(SeqSpec((), Template((SymLetter(1, 1, 1),))))


def commutator_product() -> OmegaProd:
    """Product whose k-th factor is the commutator of l(2k-1) and l(2k)."""
    return OmegaProd(
        SeqSpec((), Template((commutator_expr(SymLetter(1, 2, 1), SymLetter(2, 2, 1)),)))
    )


def flattened_commutator_product() -> OmegaProd:
    """The same product with each commutator spread over four factors.

    Factor sequence: a1, b1, a1^-1, b1^-1, a2, b2, ... where ak = l(2k-1),
    bk = l(2k); this is the sequence rearrangement bijections act on.
    """
    return OmegaProd(
        SeqSpec(
            (),
            Template(
                (
                    SymLetter(1, 2, 1),
                    SymLetter(2, 2, 1),
                    SymLetter(1, 2, -1),
                    SymLetter(2, 2, -1),
                )
            ),
        )
    )


BUILTINS = {
    "ell_infinity": ell_infinity,
    "ell_tau": ell_tau,
    "commutator_product": commutator_product,
    "flattened_commutator_product": flattened_commutator_product,
}


# ---------------------------------------------------------------------------
# Factor access and projections
# ---------------------------------------------------------------------------


def _leaves(e: WordExpr) -> Iterator[tuple[WordExpr, int]]:
    """Every node of e that is not a Concat or an Inverse, with its sign, in word order.

    An inverse flips the sign of its operand and reads its factors in reverse.
    Products are yielded whole, for the caller to expand.
    """
    stack = [(e, 1)]
    while stack:
        node, sign = stack.pop()
        if isinstance(node, Concat):
            stack.extend((f, sign) for f in (node.factors if sign < 0 else reversed(node.factors)))
        elif isinstance(node, Inverse):
            stack.append((node.of, -sign))
        else:
            yield node, sign


def _letters(e: WordExpr) -> Iterator[Syllable]:
    """The letters of a finite expression as signed syllables, in word order."""
    for leaf, sign in _leaves(e):
        if not isinstance(leaf, Letter):
            raise TypeError(f"not a finite expression: {type(leaf).__name__}")
        yield leaf.index, sign * leaf.exp


def instantiate(body: WordExpr, j: int, scale: int = 0) -> WordExpr:
    """Instance j of a template body, whose symbolic leaves become the letters base + coef*j;
    with a nonzero scale, the body whose instance u is instance j + scale*u of this one."""
    if isinstance(body, SymLetter):
        base = body.base + body.coef * j
        return SymLetter(base, body.coef * scale, body.exp) if scale else Letter(base, body.exp)
    if isinstance(body, Letter):
        return body
    if isinstance(body, Concat):
        return Concat(tuple(instantiate(f, j, scale) for f in body.factors))
    if isinstance(body, Inverse):
        return Inverse(instantiate(body.of, j, scale))
    raise TypeError(f"cannot instantiate {type(body).__name__}")


def factor_at(spec: SeqSpec, m: int) -> WordExpr:
    """Factor m (1-based) of an infinite product's factor sequence."""
    if m < 1:
        raise ValueError("factors are indexed from 1")
    r = len(spec.prefix)
    if m <= r:
        return spec.prefix[m - 1]
    if isinstance(spec.tail, Trivial):
        return identity_expr()
    bodies = spec.tail.bodies
    t = m - r - 1
    return instantiate(bodies[t % len(bodies)], t // len(bodies))


def finite_min_letter(e: WordExpr) -> int | None:
    """Smallest letter index in a finite (fully instantiated) expression."""
    return min((index for index, _ in _letters(e)), default=None)


def contributing_factors(spec: SeqSpec, n: int) -> dict[int, WordExpr]:
    """All factor indices whose factor uses some letter <= n."""
    out: dict[int, WordExpr] = {}
    r = len(spec.prefix)
    for i, f in enumerate(spec.prefix, start=1):
        if any(index <= n for index, _ in _letters(f)):
            out[i] = f
    if isinstance(spec.tail, Template):
        bodies = spec.tail.bodies
        slots: set[int] = set()
        for q, body in enumerate(bodies):
            for leaf, _ in _leaves(body):
                if isinstance(leaf, SymLetter):
                    for j in range((n - leaf.base) // leaf.coef + 1):
                        slots.add(j * len(bodies) + q)
        for t in slots:
            out[r + 1 + t] = instantiate(bodies[t % len(bodies)], t // len(bodies))
    return out


def project(e: WordExpr, n: int) -> ReducedWord:
    """The image of the expression in the free group on l1..ln.

    Letters above n are deleted; omega factors contribute in index order, tau
    factors in the left-to-right order of their middle-third intervals.
    Compatible with the deletion tower: deleting above n from the level-(n+1)
    projection gives the level-n projection.
    """
    if n < 1:
        raise ValueError("projection level must be positive")
    ensure_valid(e)
    return _project(e, n)


def finite_word(e: WordExpr) -> ReducedWord:
    """The reduced word of a finite expression, such as a factorization stage."""
    ensure_valid(e)
    return reduce(_letters(e))


def projection_tower(e: WordExpr, n: int) -> list[ReducedWord]:
    """The projections at levels 1..n, in that order.

    Only level n is projected; each lower level is ``delete_above`` of the
    level above it, which the deletion tower makes equal to its projection.
    """
    if n < 1:
        return []
    words = [project(e, n)]
    for k in range(n - 1, 0, -1):
        words.append(delete_above(words[-1], k))
    words.reverse()
    return words


def _project(e: WordExpr, n: int) -> ReducedWord:
    """Each product is read as its contributing factors in product order, in one walk; one reduction."""
    syllables: list[Syllable] = []
    for node, sign in _leaves(e):
        if isinstance(node, (OmegaProd, TauProd)):
            factors = contributing_factors(node.spec, n)
            key = orders.position_key if isinstance(node, TauProd) else None
            node = Concat(tuple(factors[m] for m in sorted(factors, key=key)))
        syllables += (s for s in _letters(node if sign > 0 else Inverse(node)) if s[0] <= n)
    return reduce(syllables)


def eta(e: WordExpr) -> SpeckerVector:
    """Total exponent sum of every letter, as an eventually periodic vector.

    Coordinate n agrees with the exponent sum of letter n in any projection
    at level m >= n; the result is exact over all (infinitely many) factors.
    """
    ensure_valid(e)
    return _eta(e)


def _eta(e: WordExpr) -> SpeckerVector:
    consts: dict[int, int] = {}
    aps: list[tuple[int, int, int]] = []
    for node, sign in _leaves(e):
        if isinstance(node, (OmegaProd, TauProd)):  # its prefix factors and symbolic tail bodies
            tail = node.spec.tail
            node = Concat(node.spec.prefix + (tail.bodies if isinstance(tail, Template) else ()))
        for leaf, s in _leaves(node):
            if isinstance(leaf, SymLetter):
                aps.append((leaf.base, leaf.coef, sign * s * leaf.exp))
            else:
                consts[leaf.index] = consts.get(leaf.index, 0) + sign * s * leaf.exp
    start = max(
        [i for i, c in consts.items() if c] + [base for base, _, _ in aps], default=0
    )
    period = 1
    for _, coef, _ in aps:
        period = lcm(period, coef)

    def coord(n: int) -> int:
        total = consts.get(n, 0)
        for base, coef, exp in aps:
            if n >= base and (n - base) % coef == 0:
                total += exp
        return total

    prefix = [coord(n) for n in range(1, start + 1)]
    cycle = [coord(n) for n in range(start + 1, start + period + 1)]
    return vector(prefix, cycle)


class EqualityResult(Frozen):
    _fields = ("equal", "witness_level", "left", "right")
    __slots__ = _fields

    def __init__(
        self,
        equal: bool,
        witness_level: int | None = None,
        left: ReducedWord | None = None,
        right: ReducedWord | None = None,
    ) -> None:
        object.__setattr__(self, "equal", equal)
        object.__setattr__(self, "witness_level", witness_level)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __bool__(self) -> bool:
        return self.equal


def equal_up_to(a: WordExpr, b: WordExpr, n_max: int) -> EqualityResult:
    """Compare projections at every level up to n_max.

    A failure is a conclusive inequality (with the smallest failing level and
    both words); agreement at all levels is evidence, not proof.

    Each side is projected once, at n_max.  By the deletion tower the
    level-n projection is ``delete_above`` of the level-n_max one, so
    agreement at n_max implies agreement at every lower level, and a
    disagreement at level k persists at every level above k.  The smallest
    failing level is therefore found by bisection over ``delete_above``.
    """
    ensure_valid(a)
    ensure_valid(b)
    if n_max < 1:
        return EqualityResult(True)
    top_a = _project(a, n_max)
    top_b = _project(b, n_max)
    if top_a == top_b:
        return EqualityResult(True)
    lo, hi = 1, n_max  # the projections differ at hi; find the smallest such level
    while lo < hi:
        mid = (lo + hi) // 2
        if delete_above(top_a, mid) == delete_above(top_b, mid):
            lo = mid + 1
        else:
            hi = mid
    return EqualityResult(False, lo, delete_above(top_a, lo), delete_above(top_b, lo))


# ---------------------------------------------------------------------------
# Rearrangement
# ---------------------------------------------------------------------------


def apply_bijection(p: WordExpr, phi) -> WordExpr:
    """Rearranged product: factor k of the result is factor phi(k) of p.

    Products with trivial tails accept any bijection with a computable
    inverse (only finitely many factors matter).  Template tails require phi
    to be eventually a residue-offset map (finite support, block permutation,
    or composition); the rearranged tail is represented by refining the
    bodies into lcm(period, body count) interleaved bodies.
    """
    if not isinstance(p, (OmegaProd, TauProd)):
        raise TypeError("rearrangement applies to infinite products")
    ensure_valid(p)
    spec = p.spec
    r = len(spec.prefix)
    make = OmegaProd if isinstance(p, OmegaProd) else TauProd

    if isinstance(spec.tail, Trivial):
        inverse = phi.inverse()
        cut = max((inverse.evaluate(m) for m in range(1, r + 1)), default=0)
        if not is_bijection(phi, phi.preserving_bound(max(cut, r, 8))):
            raise ClosureError("bijection check failed on the essential range")
        new_prefix = tuple(factor_at(spec, phi.evaluate(k)) for k in range(1, cut + 1))
        return make(SeqSpec(new_prefix, Trivial()))

    if not hasattr(phi, "eventual_structure"):
        raise ClosureError(
            "template tails require an eventually residue-offset bijection"
        )
    st = phi.eventual_structure()
    bodies = spec.tail.bodies
    q_count = len(bodies)
    big = lcm(st.period, q_count)
    low = max(st.bound, r + max(0, -min(st.offsets)))
    cut = (low // big + 1) * big
    if not is_bijection(phi, cut):
        raise ClosureError("bijection check failed below the tail cut")
    new_prefix = tuple(factor_at(spec, phi.evaluate(k)) for k in range(1, cut + 1))
    new_bodies = []
    for t0 in range(big):
        s0 = t0 + cut + st.offsets[t0 % st.period] - r  # >= 1, since cut > low >= r - min(st.offsets)
        new_bodies.append(instantiate(bodies[s0 % q_count], s0 // q_count, big // q_count))
    return make(SeqSpec(new_prefix, Template(tuple(new_bodies))))


# ---------------------------------------------------------------------------
# Commutator factorization
# ---------------------------------------------------------------------------


def commutator_factorization(e: WordExpr, depth: int = 12) -> SeqSpec:
    """Factor an expression with zero winding vector into commutator stages.

    The returned factor sequence has stage n a finite product of commutators
    of words in letters >= n, and its projections agree with the input's at
    every level up to the requested depth.  The stages are read off one
    ``commutator_decompose`` of the depth-level projection, which peels the
    letters in increasing order: stage n holds its pairs ``(a, l_n^e)``.
    An input already in factored form (a product of commutator blocks whose
    stage-n factor stays in letters >= n) is returned unchanged.
    """
    return _factorization(e, depth)[0]


def factor(e: WordExpr, depth: int = 12) -> tuple[SeqSpec, bool]:
    """The commutator factorization of e, and whether its projections agree with e's up to depth.

    The input is projected once; an input already in factored form is its own factorization.
    """
    spec, top = _factorization(e, depth)
    return spec, top is None or _project(OmegaProd(spec), depth) == top


def _factorization(e: WordExpr, depth: int) -> tuple[SeqSpec, ReducedWord | None]:
    """The factorization and the depth projection it was read from (None if already factored)."""
    ensure_valid(e)
    if not _eta(e).is_zero:
        raise HypothesisViolationError("winding vector is nonzero")
    if isinstance(e, OmegaProd) and _already_factored(e.spec):
        return e.spec, None
    if depth < 1:
        raise ValueError("projection level must be positive")
    top = _project(e, depth)
    stages: list[list[WordExpr]] = [[] for _ in range(depth)]
    for a, b in commutator_decompose(top):
        stages[b.syllables[0][0] - 1].append(commutator_expr(word_to_expr(a), word_to_expr(b)))
    return SeqSpec(tuple(Concat(tuple(stage)) for stage in stages), Trivial()), top


def _already_factored(spec: SeqSpec) -> bool:
    for i, f in enumerate(spec.prefix, start=1):
        m = finite_min_letter(f)
        if not _is_commutator_blocks(f) or (m is not None and m < i):
            return False
    if isinstance(spec.tail, Trivial):
        return True
    r = len(spec.prefix)
    q_count = len(spec.tail.bodies)
    for q, body in enumerate(spec.tail.bodies):
        if not _is_commutator_blocks(body):
            return False
        for leaf, _ in _leaves(body):
            if isinstance(leaf, SymLetter) and (leaf.base < r + 1 + q or leaf.coef < q_count):
                return False
    return True


def _is_commutator_blocks(e: WordExpr) -> bool:
    """A concatenation of commutator blocks x y x^-1 y^-1, flat or nested."""
    if not isinstance(e, Concat):
        return False
    fs = e.factors
    i = 0
    while i < len(fs):
        if isinstance(fs[i], Concat) and _is_inverse_quad(fs[i].factors):
            i += 1
        elif _is_inverse_quad(fs[i : i + 4]):
            i += 4
        else:
            return False
    return True


def _is_inverse_quad(fs) -> bool:
    if len(fs) != 4:
        return False
    a, b, ia, ib = fs
    return (
        isinstance(ia, Inverse) and ia.of == a and isinstance(ib, Inverse) and ib.of == b
    )


# ---------------------------------------------------------------------------
# Canonical JSON form
# ---------------------------------------------------------------------------


def to_json(e: WordExpr) -> dict:
    """Canonical JSON of e; a tree nested deeper than ``MAX_NESTING`` raises
    ``ValidationError`` with the report of ``validate``."""

    def encode(node: WordExpr, level: int) -> dict:
        if level > MAX_NESTING:
            raise ValidationError(validate(e))
        if isinstance(node, Letter):
            return {"type": "letter", "index": node.index, "exp": node.exp}
        if isinstance(node, SymLetter):
            return {"type": "letter", "base": node.base, "coef": node.coef, "exp": node.exp}
        if isinstance(node, Concat):
            return {"type": "concat", "factors": [encode(f, level + 1) for f in node.factors]}
        if isinstance(node, Inverse):
            return {"type": "inverse", "of": encode(node.of, level + 1)}
        if isinstance(node, (OmegaProd, TauProd)):
            kind = "omega" if isinstance(node, OmegaProd) else "tau"
            if isinstance(node.spec.tail, Trivial):
                tail: dict = {"kind": "trivial"}
            elif len(node.spec.tail.bodies) == 1:
                tail = {"kind": "template", "body": encode(node.spec.tail.bodies[0], level + 1)}
            else:
                tail = {
                    "kind": "template",
                    "bodies": [encode(b, level + 1) for b in node.spec.tail.bodies],
                }
            return {
                "type": kind,
                "prefix": [encode(f, level + 1) for f in node.spec.prefix],
                "tail": tail,
            }
        raise TypeError(f"cannot serialize {type(node).__name__}")

    return encode(e, 0)


def from_json(obj) -> WordExpr:
    """Decode canonical JSON strictly; a malformed node, or one nested deeper than
    ``MAX_NESTING``, raises ``ValidationError`` naming its path, such as
    ``expr.factors[1].index``."""
    return _decode(obj, "expr", 0)


def _decode(obj, path: str, level: int) -> WordExpr:
    if level > MAX_NESTING:
        raise ValidationError([_too_deep(path)])
    node = _json_object(obj, path)
    kind = node.get("type")
    try:
        if kind == "letter":
            if "index" in node:
                return Letter(_json_int(node["index"], f"{path}.index"), _json_int(node.get("exp", 1), f"{path}.exp"))
            if "base" not in node:
                raise ValidationError([f"{path}: missing field 'index' or 'base'"])
            return SymLetter(
                _json_int(node["base"], f"{path}.base"),
                _json_int(node["coef"], f"{path}.coef"),
                _json_int(node.get("exp", 1), f"{path}.exp"),
            )
        if kind == "concat":
            return Concat(_decode_all(node["factors"], f"{path}.factors", level + 1))
        if kind == "inverse":
            return Inverse(_decode(node["of"], f"{path}.of", level + 1))
        if kind in ("omega", "tau"):
            tail_path = f"{path}.tail"
            tail_obj = _json_object(node["tail"], tail_path)
            if "kind" not in tail_obj:
                raise ValidationError([f"{tail_path}: missing field 'kind'"])
            if tail_obj["kind"] == "trivial":
                tail: TailRule = Trivial()
            elif tail_obj["kind"] == "template":
                if "bodies" in tail_obj:
                    tail = Template(_decode_all(tail_obj["bodies"], f"{tail_path}.bodies", level + 1))
                elif "body" in tail_obj:
                    tail = Template((_decode(tail_obj["body"], f"{tail_path}.body", level + 1),))
                else:
                    raise ValidationError([f"{tail_path}: missing field 'body' or 'bodies'"])
            else:
                raise ValidationError([f"{tail_path}: unknown tail kind {tail_obj['kind']!r}"])
            spec = SeqSpec(_decode_all(node["prefix"], f"{path}.prefix", level + 1), tail)
            return OmegaProd(spec) if kind == "omega" else TauProd(spec)
    except KeyError as exc:  # a required field of this node; nested nodes raise ValidationError
        raise ValidationError([f"{path}: missing field {exc.args[0]!r}"]) from None
    raise ValidationError([f"{path}: unknown expression type {kind!r}"])


def _decode_all(items, path: str, level: int) -> tuple[WordExpr, ...]:
    if not isinstance(items, list):
        raise ValidationError([f"{path}: expected a list, got {type(items).__name__}"])
    return tuple(_decode(item, f"{path}[{i}]", level) for i, item in enumerate(items))


def _json_object(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ValidationError([f"{path}: expected an object, got {type(obj).__name__}"])
    return obj


def _json_int(value, path: str) -> int:
    if type(value) is not int:  # rejects floats, strings and bools
        raise ValidationError([f"{path}: expected an integer, got {value!r}"])
    return value
