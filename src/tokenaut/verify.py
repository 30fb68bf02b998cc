"""Verification pipelines comparing computed and predicted groups.

Each pipeline builds a token graph (and, for products, the base's
automorphism group), builds the matching explicit generators on them
with the constructions' cores (``_bipartite_generators``,
``_product_generators``), which rebuild nothing and re-check no factor,
computes the token graph's automorphism group with the search oracle, and
reports. The generators, certified edge by edge by their construction,
seed the token graph's search (``automorphism_group``'s body,
``_automorphism_group``, which does not check them again); on a graph
with twins, as every bipartite instance's token graph is, their
class images seed the twin quotient's walk. The search's result carries
the order the generators generate (``AutResult.known_order``), read off
the walk's own chain (times the twins' factorials), or taken by
``bounded_order`` when the twin transpositions leave a class unjoined, so
nothing here sifts or counts again. The report's fields:

* generators_certified: every constructed generator passed the edge check;
  when one fails, the report fails and the other certificates are false;
* subgroup_certified: the generated group sits inside the computed group
  (every generator passed the edge check) and its order equals the
  prediction exactly;
* equality: computed order matches predicted order on top of the
  subgroup certificate (the report-level invariant).

For Cartesian products the predicted subgroup order is asserted but full
equality is a recorded observation only (conjecture_flag), never a
failure. The cube and product pipelines share one body, whose searches
run under the guard's node budget; scale guards turn oversized requests
into refusals, not crashes. Outside its JSON form, a report carries what
``tokenaut generators`` prints, so both commands run one pipeline.
"""

from __future__ import annotations

import time
from math import comb, prod

from .constructions import (PredictedAut, _bipartite_generators,
                            _product_generators, check_factors, check_primes,
                            predicted_order, predicted_order_cube,
                            predicted_order_product)
from .errors import CertificationError, ScaleGuardExceeded
from .graphs import (BipartiteSpec, Graph, cartesian_product, complete_graph,
                     product_label)
from .perms import Permutation
from .search import _automorphism_group, automorphism_group
from .tokens import token_graph


class ScaleGuard:
    """Desk-scale limits: vertex count of the graph under search and the
    number of search-tree nodes the automorphism search may visit."""

    __slots__ = ("max_vertices", "max_nodes")

    def __init__(self, max_vertices: int = 300, max_nodes: int = 10_000_000):
        self.max_vertices = max_vertices
        self.max_nodes = max_nodes

    def require_vertices(self, count: int, what: str) -> None:
        if count > self.max_vertices:
            # A count can be too long to print; its bit length never is.
            bits = count.bit_length()
            size = count if bits <= 64 else f"at least 2^{bits - 1}"
            raise ScaleGuardExceeded(
                f"{what} has {size} vertices, over the guard's "
                f"{self.max_vertices}; raise max_vertices to proceed")


DEFAULT_GUARD = ScaleGuard()


class VerificationReport:
    """One pipeline run's orders, certificates and verdict. ``to_dict``
    leaves out the prediction's tag, the certified generators and the
    order they generate (both None when one failed the edge check)."""

    __slots__ = ("instance", "computed_order", "predicted_order",
                 "generators_certified", "subgroup_certified", "equality",
                 "conjecture_flag", "wall_time", "node_count",
                 "structure_tag", "generators", "generated_order")

    def __init__(self, instance: str, computed_order: str,
                 predicted_order: str, generators_certified: bool,
                 subgroup_certified: bool, equality: bool,
                 conjecture_flag: bool | None, wall_time: float,
                 node_count: int, structure_tag: str = "",
                 generators: tuple[Permutation, ...] | None = None,
                 generated_order: int | None = None):
        self.instance = instance
        self.computed_order = computed_order
        self.predicted_order = predicted_order
        self.generators_certified = generators_certified
        self.subgroup_certified = subgroup_certified
        self.equality = equality
        self.conjecture_flag = conjecture_flag
        self.wall_time = wall_time
        self.node_count = node_count
        self.structure_tag = structure_tag
        self.generators = generators
        self.generated_order = generated_order

    @property
    def passed(self) -> bool:
        """Whether every asserted check holds. Order equality is asserted
        for the closed-form instances; for products it is the recorded
        conjecture observation, so only the certificates are asserted."""
        if self.conjecture_flag is None:
            return self.equality
        return self.generators_certified and self.subgroup_certified

    def to_dict(self) -> dict:
        return {
            "instance": self.instance,
            "computed_order": self.computed_order,
            "predicted_order": self.predicted_order,
            "generators_certified": self.generators_certified,
            "subgroup_certified": self.subgroup_certified,
            "equality": self.equality,
            "conjecture_flag": self.conjecture_flag,
            "wall_time": self.wall_time,
            "node_count": self.node_count,
        }


def _constructed(build, *args):
    """The generators a construction certified edge by edge, or None when
    one of them failed the check."""
    try:
        return build(*args)
    except CertificationError:
        return None


def _finish(instance: str, gens, pred: PredictedAut, conjectured: bool,
            started: float, aut_result) -> VerificationReport:
    """Report on the generators from ``_constructed``: certified ones, or
    None for a construction whose generator failed the edge check."""
    computed = aut_result.group.order()
    certified = gens is not None
    sub_order = aut_result.known_order if certified else None
    if sub_order is not None and computed % sub_order != 0:
        raise AssertionError("subgroup order fails Lagrange divisibility")
    subgroup_certified = sub_order == pred.order
    equality = computed == pred.order and subgroup_certified
    return VerificationReport(
        instance=instance,
        computed_order=str(computed),
        predicted_order=str(pred.order),
        generators_certified=certified,
        subgroup_certified=subgroup_certified,
        equality=equality,
        conjecture_flag=(computed == pred.order) if conjectured else None,
        wall_time=time.perf_counter() - started,
        node_count=aut_result.node_count,
        structure_tag=pred.structure_tag,
        generators=tuple(gens) if certified else None,
        generated_order=sub_order,
    )


def verify_bipartite(m: int, n: int, k: int,
                     guard: ScaleGuard = DEFAULT_GUARD) -> VerificationReport:
    """Compare the computed automorphism group of the k-token graph of
    K_{m,n} with the closed-form prediction; equality is asserted. The
    constructed generators come first and seed the token graph's search."""
    spec = BipartiteSpec(m, n)
    guard.require_vertices(comb(m + n, k), f"{k}-token graph of K{m},{n}")
    started = time.perf_counter()
    # The prediction refuses a k out of range before anything is built. It
    # runs after the guard: for m = 2 its order has over C(n, k-1) bits.
    pred = predicted_order(m, n, k)
    tg = token_graph(spec.graph(), k)
    gens = _constructed(_bipartite_generators, spec, tg)
    aut = _automorphism_group(tg.graph, guard.max_nodes, tuple(gens or ()))
    return _finish(f"bipartite(m={m},n={n},k={k})", gens, pred, False,
                   started, aut)


def verify_cube(r: int, guard: ScaleGuard = DEFAULT_GUARD) -> VerificationReport:
    """Compare the computed group of the 2-token graph of the r-cube with
    2^(r-1) * 2^r * r!; equality is asserted. The default guard admits
    r = 3 and r = 4 only."""
    if r < 3:
        raise ValueError(f"prediction needs r >= 3, got r={r}")
    guard.require_vertices(comb(1 << r, 2), f"2-token graph of Q{r}")
    # r copies of K2 are connected primes, so no factor check runs.
    factors = [complete_graph(2) for _ in range(r)]
    return _verify_2_token(factors, cartesian_product(factors),
                           f"cube(r={r})", guard, predicted_order_cube(r))


def verify_product(factors: list[Graph],
                   guard: ScaleGuard = DEFAULT_GUARD) -> VerificationReport:
    """Certify the swap-plus-lift subgroup of the 2-token graph of a
    product of primes at order exactly 2^(r-1) * |Aut(base)|; whether it
    is the whole group is recorded as the conjecture observation. The
    factors are checked, and the guard run, before the product is built;
    the primality checks, which cost more, run after the guard."""
    check_factors(factors)
    name = product_label(factors)
    guard.require_vertices(comb(prod(f.n for f in factors), 2),
                           f"2-token graph of {name}")
    check_primes(factors)
    return _verify_2_token(factors, cartesian_product(factors),
                           f"product({name})", guard)


def _verify_2_token(factors: list[Graph], product: Graph, instance: str,
                    guard: ScaleGuard,
                    closed_form: PredictedAut | None = None) -> VerificationReport:
    """The pipeline behind ``verify_cube`` and ``verify_product``. A
    closed-form prediction is asserted; without one, the prediction is
    2^(r-1) * |Aut(base)| and equality with it is the conjecture. The
    base's group and the constructed generators come first, so that the
    generators seed the token graph's search."""
    started = time.perf_counter()
    tg = token_graph(product, 2)
    base_group = automorphism_group(product, max_nodes=guard.max_nodes).group
    gens = _constructed(_product_generators, factors, tg, base_group)
    aut = _automorphism_group(tg.graph, guard.max_nodes, tuple(gens or ()))
    pred = closed_form or predicted_order_product(factors, base_group)
    return _finish(instance, gens, pred, closed_form is None, started, aut)
