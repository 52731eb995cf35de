"""Layer size sweep: one call per layer at two or three sizes, timed untraced.

It re-measures the cost-growth table of the layers (projection, embedding
placement, equality, factorization, bijection evaluation) so that growth can
be compared with the mathematics, e.g. n log n for a tau projection.
"""

from __future__ import annotations

import random
import time


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def run(seed: int) -> dict[str, float]:
    from tauword import orders, rearrange, word_expr as we

    out: dict[str, float] = {}
    for name in ("ell_tau", "ell_infinity"):
        expr = we.BUILTINS[name]()
        for n in (1000, 4000, 16000):
            out[f"word_expr.project.{name}_n{n // 1000}k.s"] = _timed(lambda: we.project(expr, n))
    specs = {"omega": orders.Omega, "omega_plus_omega": orders.OmegaPlusOmega,
             "zeta": orders.IntegersZeta, "rationals": orders.Rationals}
    for name, spec in specs.items():
        for count in (100, 300):
            emb = orders.back_and_forth_embed(spec())
            out[f"orders.Embedding.ensure.{name}_n{count}.s"] = _timed(lambda: emb.ensure(count))
    comm, flat = we.commutator_product(), we.flattened_commutator_product()
    for depth in (100, 300):
        out[f"word_expr.equal_up_to.commutators_depth{depth}.s"] = _timed(lambda: we.equal_up_to(comm, flat, depth))
    tau_comm = we.TauProd(comm.spec)
    for depth in (100, 200):
        out[f"word_expr.commutator_factorization.tau_commutators_depth{depth}.s"] = _timed(
            lambda: we.commutator_factorization(tau_comm, depth))
    rng = random.Random(seed)
    for cycles in (500, 2000):
        points = rng.sample(range(1, 4 * cycles + 1), 2 * cycles)
        phi = rearrange.FiniteSupport(tuple((points[2 * k], points[2 * k + 1]) for k in range(cycles)))
        args = [rng.randint(1, 4 * cycles) for _ in range(200)]
        out[f"rearrange.FiniteSupport.evaluate.cycles{cycles}_x200.s"] = _timed(
            lambda: [phi.evaluate(k) for k in args])
    return out
