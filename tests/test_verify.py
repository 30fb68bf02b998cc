"""Verification pipelines: reports, certificates, and scale refusals."""

from collections import Counter

import pytest

from tokenaut import (
    CertificationError,
    Permutation,
    ScaleGuard,
    ScaleGuardExceeded,
    automorphism_group,
    bipartite_generators,
    bounded_order,
    complete_bipartite,
    complete_graph,
    graph_from_edges,
    path_graph,
    predicted_order,
    schreier_sims,
    token_graph,
    verify_bipartite,
    verify_cube,
    verify_product,
)


def test_bipartite_closed_forms_hold():
    for m, n, k, order in ((2, 3, 2, 48), (3, 3, 3, 144), (2, 2, 2, 48),
                           (1, 3, 2, 12)):
        rep = verify_bipartite(m, n, k)
        assert rep.computed_order == str(order)
        assert rep.predicted_order == str(order)
        assert rep.generators_certified
        assert rep.subgroup_certified
        assert rep.equality
        assert rep.conjecture_flag is None
        assert rep.passed
        assert rep.node_count >= 1 and rep.wall_time >= 0


def test_cube_closed_form_holds():
    rep = verify_cube(3)
    assert rep.computed_order == rep.predicted_order == "192"
    assert rep.passed and rep.equality
    assert rep.conjecture_flag is None
    assert rep.instance == "cube(r=3)"


def test_product_certifies_subgroup_and_records_conjecture():
    rep = verify_product([complete_graph(2), path_graph(3)])
    assert rep.predicted_order == "8"
    assert rep.generators_certified and rep.subgroup_certified
    assert rep.conjecture_flag is not None  # recorded, not asserted
    assert rep.passed
    # equality of the full group remains an observation
    assert rep.conjecture_flag == (rep.computed_order == rep.predicted_order)


def test_product_conjecture_flag_can_be_false_without_failing():
    # K2 x K3 = circular ladder; subgroup 2 * 12 = 24 sits strictly inside
    rep = verify_product([complete_graph(2), complete_graph(3)])
    assert rep.subgroup_certified
    assert rep.predicted_order == "24"
    if rep.computed_order != rep.predicted_order:
        assert rep.conjecture_flag is False
        assert rep.passed  # certificates hold even when equality fails


def test_failed_generator_certificate_fails_the_report(monkeypatch):
    # Every side swap replaced by a transposition of a vertex of the
    # smallest and one of the largest degree, which no automorphism is.
    from tokenaut import constructions

    def bad_swap(spec, k, family):
        degree = [len(nb) for nb in token_graph(spec.graph(), k).graph.nbrs]
        return Permutation.from_cycles(len(degree), [
            (degree.index(min(degree)), degree.index(max(degree)))])

    monkeypatch.setattr(constructions, "side_swap_bipartite", bad_swap)
    with pytest.raises(CertificationError):
        constructions.bipartite_generators(2, 3, 2)
    rep = verify_bipartite(2, 3, 2)
    assert rep.computed_order == rep.predicted_order == "48"
    assert not rep.generators_certified
    assert not rep.subgroup_certified and not rep.equality
    assert not rep.passed
    assert rep.to_dict()["generators_certified"] is False


def test_report_dict_round_trip():
    rep = verify_bipartite(2, 3, 2)
    d = rep.to_dict()
    assert d["instance"] == "bipartite(m=2,n=3,k=2)"
    assert set(d) == {
        "instance", "computed_order", "predicted_order",
        "generators_certified", "subgroup_certified", "equality",
        "conjecture_flag", "wall_time", "node_count",
    }


def test_scale_guard_refuses_large_instances():
    with pytest.raises(ScaleGuardExceeded):
        verify_cube(5)
    with pytest.raises(ScaleGuardExceeded):
        verify_bipartite(2, 10, 6)
    with pytest.raises(ScaleGuardExceeded):
        verify_bipartite(2, 3, 2, guard=ScaleGuard(max_vertices=5))
    # node budget refusals surface the same way
    with pytest.raises(ScaleGuardExceeded):
        verify_cube(4, guard=ScaleGuard(max_nodes=2))


def test_scale_guard_message_names_the_instance():
    with pytest.raises(ScaleGuardExceeded, match="Q5"):
        verify_cube(5)


def test_verify_product_input_validation():
    with pytest.raises(ValueError):
        verify_product([complete_graph(2)])
    with pytest.raises(ValueError):
        verify_product([complete_graph(2), graph_from_edges(2, [])])
    with pytest.raises(ValueError, match="factor 1 has fewer than 2"):
        verify_product([complete_graph(2), complete_graph(1)])
    with pytest.raises(ValueError):
        verify_cube(2)


def test_determinism():
    a = verify_bipartite(2, 4, 2)
    b = verify_bipartite(2, 4, 2)
    assert a.to_dict() | {"wall_time": 0} == b.to_dict() | {"wall_time": 0}
    assert a.node_count == b.node_count


def test_pipelines_build_each_artifact_once(monkeypatch):
    from tokenaut import constructions, verify

    calls = Counter()
    # verify hands its certified generators to the search's body, which
    # counts as a search.
    for module, names in ((verify, ("token_graph", "automorphism_group",
                                    "_automorphism_group")),
                          (constructions, ("token_graph", "automorphism_group"))):
        for name in names:
            def counted(*args, _real=getattr(module, name),
                        _name=name.lstrip("_"), **kw):
                calls[_name] += 1
                return _real(*args, **kw)
            monkeypatch.setattr(module, name, counted)
    # one token graph; the token-graph search plus one base search
    verify_product([complete_graph(2), path_graph(3)])
    assert calls == {"token_graph": 1, "automorphism_group": 2}
    calls.clear()
    verify_cube(3)
    assert calls == {"token_graph": 1, "automorphism_group": 2}
    calls.clear()
    verify_bipartite(2, 4, 2)
    assert calls == {"token_graph": 1, "automorphism_group": 1}


def test_a_seed_short_of_aut_keeps_the_verdict_and_orders(monkeypatch):
    # verify seeds the walk of F2(Q4) with its constructed generators. Less
    # one coordinate swap they still generate Aut (the lifts conjugate the
    # other swaps onto it), and the walk proves it with no order call; less
    # one lift they do not, the walk finds generators of its own, and the
    # order of the rest is taken as before.
    from tokenaut import constructions, verify

    degrees = order_route(monkeypatch)
    full = constructions.product_subgroup_generators([complete_graph(2)] * 4)
    for drop, want, calls in ((0, 3072, []), (3, 128, [120])):
        def fewer(*args, _drop=drop, **kwargs):
            gens = constructions.product_subgroup_generators(*args, **kwargs)
            return gens[:_drop] + gens[_drop + 1:]

        monkeypatch.setattr(verify, "product_subgroup_generators", fewer)
        rest = full[:drop] + full[drop + 1:]
        assert schreier_sims(rest).order() == want
        rep = verify_cube(4)
        assert (rep.computed_order, rep.predicted_order) == ("3072", "3072")
        assert rep.generated_order == want
        assert rep.generators_certified
        assert rep.subgroup_certified == rep.equality == rep.passed \
            == (want == 3072)
        assert degrees == calls
        degrees.clear()


def test_constructed_generators_are_certified_once(monkeypatch):
    # Each pipeline checks its constructed generators edge by edge in the
    # construction, and hands them to the search's body, which does not
    # check them again as known automorphisms. The searches' other checks
    # (of no known automorphism for the base, of no lifted generator when
    # the quotient's walk finds none) are empty.
    from tokenaut import constructions, search

    checks = []

    def recorded(gens, g, what):
        if gens:
            checks.append(what)
        return certify(gens, g, what)

    certify = search.certify
    monkeypatch.setattr(constructions, "certify", recorded)
    monkeypatch.setattr(search, "certify", recorded)
    verify_cube(3)
    assert checks == ["constructed product generator"]
    checks.clear()
    verify_bipartite(2, 5, 3)
    assert checks == ["constructed bipartite generator"]


def test_bipartite_chain_instances_make_no_order_call(monkeypatch):
    # verify seeds the twin quotient's walk with the class images of the
    # constructed generators. On these instances the walk finds nothing of
    # its own and the side swaps connect every class of twins, so the
    # generated order is the computed one, with no bounded_order call.
    degrees = order_route(monkeypatch)
    for n, k in ((5, 3), (6, 3), (7, 3), (5, 4), (6, 4)):
        rep = verify_bipartite(2, n, k)
        assert rep.passed, (n, k)
        assert rep.generated_order == int(rep.computed_order) \
            == predicted_order(2, n, k).order, (n, k)
    assert degrees == []


def test_a_bipartite_seed_short_of_aut_keeps_the_verdict_and_orders(
        monkeypatch):
    # F3(K_{2,5}) has 35 vertices in 25 twin classes. Less one side swap,
    # the generators still give Aut, but one pair of twins has no
    # transposition, so the order is taken at full degree; less the
    # Y-cycle's lift, they give 2^11, taken at the quotient's degree, and
    # the report fails.
    from tokenaut import constructions, verify

    degrees = order_route(monkeypatch)
    for drop, want, calls in ((0, 122880, [35]), (11, 2048, [25])):
        def fewer(*args, _drop=drop, **kwargs):
            gens = constructions.bipartite_generators(*args, **kwargs)
            return gens[:_drop] + gens[_drop + 1:]

        monkeypatch.setattr(verify, "bipartite_generators", fewer)
        rep = verify_bipartite(2, 5, 3)
        assert (rep.computed_order, rep.predicted_order) == ("122880", "122880")
        assert rep.generated_order == want
        assert rep.generators_certified
        assert rep.subgroup_certified == rep.equality == rep.passed \
            == (want == 122880)
        assert degrees == calls
        degrees.clear()


def order_route(monkeypatch):
    """The degrees of the ``bounded_order`` calls that the search makes for
    the order of the known automorphisms."""
    from tokenaut import search

    degrees = []

    def recorded(gens, bound, degree=None):
        degrees.append(degree)
        return bounded_order(gens, bound, degree=degree)

    monkeypatch.setattr(search, "bounded_order", recorded)
    return degrees


def test_class_image_orders_match_schreier_sims(monkeypatch):
    # The constructed generators' transpositions join each pair of twins,
    # so their order is |T| times that of their class images. With all of
    # them the quotient's walk finds nothing of its own, which proves that
    # order to be the group's; less the Y-cycle's lift the walk finds
    # generators, and the images' order is taken at the quotient's degree.
    # Without one side swap a pair has no transposition, and the order
    # comes from the generators themselves.
    degrees = order_route(monkeypatch)
    for n, k in ((5, 3), (6, 4)):
        tg = token_graph(complete_bipartite(2, n), k)
        gens = bipartite_generators(2, n, k, tg)
        quotient = len(automorphism_group(tg.graph).group.classes)
        assert quotient < tg.graph.n
        for seed, calls in ((gens, []), (gens[:-1], [quotient]),
                            (gens[1:], [tg.graph.n])):
            want = schreier_sims(seed, degree=tg.graph.n).order()
            assert automorphism_group(tg.graph, known=seed).known_order == want
            assert degrees == calls, (n, k)
            degrees.clear()


def test_dropping_a_side_swap_takes_the_full_degree_fallback(monkeypatch):
    # F5(K_{2,10}): 792 vertices, 210 side swaps. The Y-lifts conjugate the
    # remaining swaps onto the dropped one, so the order is unchanged.
    degrees = order_route(monkeypatch)
    tg = token_graph(complete_bipartite(2, 10), 5)
    gens = bipartite_generators(2, 10, 5, tg)
    res = automorphism_group(tg.graph, known=gens[1:])
    assert res.known_order == res.group.order() \
        == predicted_order(2, 10, 5).order
    assert degrees == [792]


def test_disconnected_transpositions_take_the_fallback(monkeypatch):
    # K_{3,4}: transpositions (3 4) and (5 6) leave the class {3,4,5,6}
    # in two pieces, so they do not give Sym of it; with (4 5) they do, and
    # the quotient, two classes of different sizes, has no automorphism
    # but the identity, so the order needs no chain at all. (2 3) joins
    # the two sides, so it is no automorphism, and the search refuses it.
    degrees = order_route(monkeypatch)
    g = complete_bipartite(3, 4)
    pieces = [Permutation.from_cycles(7, [c])
              for c in ((0, 1), (1, 2), (3, 4), (5, 6))]
    assert automorphism_group(g, known=pieces).known_order == 24
    assert degrees.pop() == 7
    joined = pieces + [Permutation.from_cycles(7, [(4, 5)])]
    assert automorphism_group(g, known=joined).known_order == 144
    assert degrees == []
    outside = pieces + [Permutation.from_cycles(7, [(2, 3)])]
    with pytest.raises(CertificationError):
        automorphism_group(g, known=outside)
