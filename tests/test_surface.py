"""Semantic layer: the ribbon graph, neighbourhoods, complements, packings."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twistcert import lickorish as lk
from twistcert import surface as sf


def report(g, names, fill=True):
    return sf.min_enclosing_subsurface(sf.lickorish_surface(g), names, fill=fill)


def _capped_genus(rg):
    """Reference: genus of the closed surface obtained by capping all faces."""
    chi = len(rg.vertices) - len(rg.arcs) + len(rg.faces)
    if chi % 2:
        raise sf.SurfaceError("odd Euler characteristic after capping")
    return (2 - chi) // 2


def test_build_counts_g2():
    rg = sf.lickorish_surface(2)
    # four crossings: a1b1, a2b2, b1g1, b2g1; arcs double that
    assert len(rg.vertices) == 4
    assert len(rg.arcs) == 8
    assert len(rg.vertices) - len(rg.arcs) == -4  # a neighbourhood's euler characteristic, 2 - 3g
    assert len(rg.faces) == 2  # -4 + F = 2 - 2*2
    assert _capped_genus(rg) == 2


def test_build_rejects_low_genus():
    with pytest.raises(sf.SurfaceError):
        sf.lickorish_surface(1)


def test_capped_genus_matches_target():
    for g in range(2, 13):
        rg = sf.lickorish_surface(g)
        assert len(rg.vertices) == 3 * g - 2
        assert len(rg.arcs) == 2 * (3 * g - 2)
        assert _capped_genus(rg) == g, f"capping failed at g={g}"


def test_face_tracing_uses_each_dart_once():
    for g in (2, 3, 4):
        rg = sf.lickorish_surface(g)
        darts = [d for cycle in rg.faces for d in cycle]
        assert sorted(darts) == list(range(4 * len(rg.vertices)))


def test_vertices_alternate_curves():
    rg = sf.lickorish_surface(3)
    for c in rg.vertices:
        assert c.curve_x != c.curve_y
    # an arc ends on the even slots of a crossing on its curve_x, the odd ones on its curve_y
    for arc in rg.arcs:
        for d in arc.darts:
            c = rg.vertices[d // 4]
            assert arc.curve == (c.curve_y if d % 2 else c.curve_x)


def test_curves_close_up():
    for g in (2, 3, 4):
        rg = sf.lickorish_surface(g)
        by_curve = {}
        for arc in rg.arcs:
            by_curve.setdefault(arc.curve, []).append(arc)
        assert set(by_curve) == set(lk.curve_names(g))
        # each curve has as many arcs as crossings on it
        for name, arcs in by_curve.items():
            crossings = sum(1 for c in rg.vertices if name in (c.curve_x, c.curve_y))
            assert len(arcs) == crossings, name


def test_annulus_around_single_curve():
    rep = report(2, ["a1"])
    assert (rep.genus, rep.boundary_count) == (0, 2)
    assert len(rep.complement_components) == 1
    assert rep.euler_char == 0


def test_two_chain_neighbourhood():
    rep = report(2, ["a1", "b1"])
    assert (rep.genus, rep.boundary_count) == (1, 1)
    assert rep.complement_components == ((1, 1),)


def test_aa_window_g3():
    rep = report(3, ["a1", "b1", "g1", "b2", "a2"])
    assert (rep.genus, rep.boundary_count) == (2, 1)
    assert len(rep.complement_components) == 1
    # raw, the same five-chain has two boundary circles and a disk piece
    raw = report(3, ["a1", "b1", "g1", "b2", "a2"], fill=False)
    assert (raw.genus, raw.boundary_count) == (2, 2)
    assert (0, 1) in raw.complement_components


def test_full_system_fills():
    for g in (2, 3, 4):
        rep = report(g, lk.curve_names(g))
        assert (rep.genus, rep.boundary_count) == (g, 0)
        assert rep.complement_components == ()
        raw = report(g, lk.curve_names(g), fill=False)
        assert raw.complement_components == tuple([(0, 1)] * g)


def test_census_examples():
    rg2 = sf.lickorish_surface(2)
    assert sf.complement_census(rg2, lk.curve_names(2)) == []
    assert sf.complement_census(rg2, ["a1", "b1"]) == [(1, 1)]
    rg3 = sf.lickorish_surface(3)
    assert sf.complement_census(rg3, ["a1", "b1", "g1", "b2", "a2"]) == [(1, 1)]
    # disconnected sets are allowed here
    assert sf.complement_census(rg2, ["a1", "a2"], fill=False) == [(0, 4)]


def test_min_enclosing_rejects_bad_input():
    rg = sf.lickorish_surface(2)
    with pytest.raises(sf.SurfaceError):
        sf.min_enclosing_subsurface(rg, [])
    with pytest.raises(sf.SurfaceError):
        sf.min_enclosing_subsurface(rg, ["a1", "a2"])  # disconnected


def test_euler_characteristic_additivity():
    """Neighbourhood plus complement always rebuilds the closed surface."""
    for g in (2, 3, 4):
        rg = sf.lickorish_surface(g)
        for mask in range(1, 1 << (3 * g - 1)):
            if not lk.is_connected_mask(g, mask):
                continue
            s = lk.CurveSet(g, mask)
            for fill in (False, True):
                rep = sf.min_enclosing_subsurface(rg, s, fill=fill)
                total = rep.euler_char + sum(2 - 2 * h - b for h, b in rep.complement_components)
                assert total == 2 - 2 * g, (g, s.sorted_members(), fill)


def test_euler_characteristic_additivity_sampled_higher_genus():
    import random

    rng = random.Random(11)
    for g in (5, 6):
        rg = sf.lickorish_surface(g)
        names = lk.curve_names(g)
        checked = 0
        while checked < 300:
            size = rng.randint(1, len(names))
            s = lk.CurveSet.of(g, rng.sample(names, size))
            if not lk.is_connected_mask(g, s.mask):
                continue
            checked += 1
            for fill in (False, True):
                rep = sf.min_enclosing_subsurface(rg, s, fill=fill)
                total = rep.euler_char + sum(2 - 2 * h - b for h, b in rep.complement_components)
                assert total == 2 - 2 * g, (g, s.sorted_members(), fill)


def test_chain_neighbourhoods_via_tree_paths():
    """Independent chain enumeration: every path in the intersection tree
    is a chain; raw neighbourhoods must match the chain lemma."""
    for g in (2, 3, 6):
        rg = sf.lickorish_surface(g)
        adj = lk.adjacency(g)
        names = lk.curve_names(g)

        def path_between(u, v):
            prev = {u: None}
            frontier = [u]
            while frontier:
                cur = frontier.pop()
                for nb in adj[cur]:
                    if nb not in prev:
                        prev[nb] = cur
                        frontier.append(nb)
            out = [v]
            while prev[out[-1]] is not None:
                out.append(prev[out[-1]])
            return out

        checked = 0
        for i, u in enumerate(names):
            for v in names[i:]:
                chain = [u] if u == v else path_between(u, v)
                m = len(chain)
                rep = sf.min_enclosing_subsurface(rg, chain, fill=False)
                want = (m // 2, 1) if m % 2 == 0 else ((m - 1) // 2, 2)
                assert (rep.genus, rep.boundary_count) == want, (g, chain)
                checked += 1
        assert checked == (3 * g - 1) * (3 * g) // 2


def test_handedness_pattern_is_load_bearing():
    """Negative control: giving both g-crossing families the same
    handedness produces a consistent surface but the wrong window
    enclosures, so the frozen pattern is not arbitrary."""
    rg = _name_built_surface(4, (0, 0, 0))
    supp = lk.Window(2, 3, 0, 0).support(4)
    rep = sf.min_enclosing_subsurface(rg, supp, fill=True)
    assert (rep.genus, rep.boundary_count) != (2, 1)
    good = sf.lickorish_surface(4)
    rep = sf.min_enclosing_subsurface(good, supp, fill=True)
    assert (rep.genus, rep.boundary_count) == (2, 1)


def _name_built_surface(g, chirality):
    """Reference builder that keys crossings by curve-name pairs and
    parses each curve's index from its name."""
    bit_ab, bit_bg, bit_gb = chirality
    crossings = []
    vertex_id = {}

    def add_crossing(curve_x, curve_y, flipped):
        vertex_id[(curve_x, curve_y)] = len(crossings)
        crossings.append(sf.Crossing(curve_x, curve_y, flipped))

    for i in range(1, g + 1):
        add_crossing(f"a{i}", f"b{i}", bool(bit_ab))
    for i in range(1, g):
        add_crossing(f"b{i}", f"g{i}", bool(bit_bg))
    for i in range(1, g):
        add_crossing(f"b{i + 1}", f"g{i}", bool(bit_gb))

    def ports(curve, vx):
        v = vertex_id[vx]
        c = crossings[v]
        if curve == c.curve_x:
            return 4 * v + 0, 4 * v + 2
        if not c.flipped:
            return 4 * v + 1, 4 * v + 3
        return 4 * v + 3, 4 * v + 1

    def itinerary(curve):
        kind, idx = curve[0], int(curve[1:])
        if kind == "a":
            return [(curve, f"b{idx}")]
        if kind == "g":
            return [(f"b{idx}", curve), (f"b{idx + 1}", curve)]
        stops = []
        if idx > 1:
            stops.append((curve, f"g{idx - 1}"))
        stops.append((f"a{idx}", curve))
        if idx < g:
            stops.append((curve, f"g{idx}"))
        return stops

    arcs = []
    for curve in lk.curve_names(g):
        stops = itinerary(curve)
        for k, stop in enumerate(stops):
            nxt = stops[(k + 1) % len(stops)]
            arcs.append(sf.Arc(curve, (ports(curve, stop)[1], ports(curve, nxt)[0])))
    return sf.RibbonGraph(g, crossings, arcs)


@pytest.mark.parametrize("chirality", list(itertools.product((0, 1), repeat=3)))
def test_surface_matches_name_built_reference(chirality):
    # the surface is the reference built with the frozen handedness, and
    # differs from the reference built with any other
    frozen = chirality == (sf._CHIRALITY_AB, sf._CHIRALITY_BG, sf._CHIRALITY_GB)
    for g in range(2, 13):
        rg, ref = sf.lickorish_surface(g), _name_built_surface(g, chirality)
        assert (rg.vertices == ref.vertices) == frozen, g
        if frozen:
            assert rg.arcs == ref.arcs, g
            assert rg.faces == ref.faces, g


# ---------------------------------------------------------------------------
# packings


def test_fit1_example():
    plan = sf.pack_subsurfaces(5, "fit1", 2)
    assert len(plan.marked_pieces) == 2
    assert all(plan.pieces[m] == (2, 1) for m in plan.marked_pieces)
    assert sf.assembly_problems(plan, 5) == []


def test_fit3_example():
    plan = sf.pack_subsurfaces(7, "fit3", 3)
    assert len(plan.marked_pieces) == 2  # floor(6/3)
    assert all(plan.pieces[m] == (3, 2) for m in plan.marked_pieces)
    assert sf.assembly_problems(plan, 7) == []


def test_fit2_example():
    plan = sf.pack_subsurfaces(4, "fit2", 2)
    assert len(plan.marked_pieces) == 2
    assert all(plan.pieces[m] == (1, 3) for m in plan.marked_pieces)
    assert sf.assembly_problems(plan, 4) == []


def test_pack_rejects_zero_counts():
    with pytest.raises(sf.SurfaceError):
        sf.pack_subsurfaces(3, "fit1", 4)
    with pytest.raises(sf.SurfaceError):
        sf.pack_subsurfaces(3, "fit3", 3)
    with pytest.raises(sf.SurfaceError):
        sf.pack_subsurfaces(3, "fit2", 0)
    with pytest.raises(sf.SurfaceError):
        sf.pack_subsurfaces(3, "badkind", 1)


def test_assembly_rejects_unglued_slot():
    plan = sf.pack_subsurfaces(5, "fit1", 2)
    broken = sf.AssemblyPlan(plan.pieces, plan.gluings[:-1], plan.marked_pieces)
    problems = sf.assembly_problems(broken, 5)
    assert any("unglued" in p for p in problems)
    assert sf.assembly_problems(broken, 5)


def test_assembly_rejects_wrong_genus():
    plan = sf.pack_subsurfaces(5, "fit1", 2)
    assert sf.assembly_problems(plan, 6)


def test_assembly_rejects_separating_marked_piece():
    # a marked two-boundary piece strung on a line, not a cycle: removing
    # it disconnects the assembly
    pieces = ((1, 1), (1, 2), (1, 1))
    gluings = ((0, 0, 1, 0), (1, 1, 2, 0))
    plan = sf.AssemblyPlan(pieces, gluings, (1,))
    problems = sf.assembly_problems(plan, 3)
    assert any("disconnects" in p for p in problems)


@st.composite
def _gluing_graphs(draw):
    """(pieces, edges, marked pieces) of a random gluing multigraph."""
    n = draw(st.integers(1, 9))
    piece = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(piece, piece), max_size=14))
    return n, edges, tuple(draw(st.lists(piece, max_size=n)))


@settings(max_examples=300, deadline=None)
@given(_gluing_graphs())
@example((3, [(0, 1)], (2, 0)))  # two components, one a lone marked piece
@example((3, [(0, 1), (2, 2)], (2, 1)))  # the lone piece glued to itself
@example((4, [(0, 1), (2, 2)], (2, 3)))  # three components, two of them lone pieces
@example((0, [], ()))  # no pieces
def test_assembly_marked_cut_pieces_match_brute_force(graph):
    """Random gluing multigraphs, self-loops and repeated gluings
    included: a marked piece is reported as disconnecting exactly when
    deleting it (brute force) leaves the rest of the graph disconnected."""
    n, edges, marked = graph
    slots = [0] * n
    gluings = []
    for a, b in edges:
        gluings.append((a, slots[a], b, slots[b] + (a == b)))
        slots[a] += 1
        slots[b] += 1
    plan = sf.AssemblyPlan(tuple((0, b) for b in slots), tuple(gluings), marked)

    def connected(nodes):
        seen, frontier = set(), [min(nodes)] if nodes else []
        while frontier:
            v = frontier.pop()
            if v not in seen:
                seen.add(v)
                frontier += [u for a, b in edges if v in (a, b) for u in (a, b) if u in nodes]
        return seen == nodes

    everything = set(range(n))
    expected = [f"removing marked piece {m} disconnects the assembly"
                for m in marked if not connected(everything - {m})]
    problems = sf.assembly_problems(plan, 1)
    assert [p for p in problems if p.startswith("removing")] == expected
    assert ("gluing graph is not connected" in problems) == (not connected(everything))


def test_assembly_self_gluing_cases():
    # single two-boundary piece closed into a torus-like cycle
    plan = sf.pack_subsurfaces(3, "fit3", 2)
    assert plan.pieces == ((2, 2),)
    assert sf.assembly_problems(plan, 3) == []
    plan = sf.pack_subsurfaces(2, "fit2", 2)
    assert sf.assembly_problems(plan, 2) == []


def test_fit_counts_sweep():
    for g in range(1, 13):
        for ell in range(1, g + 1):
            assert len(sf.pack_subsurfaces(g, "fit1", ell).marked_pieces) == g // ell
            assert len(sf.pack_subsurfaces(g, "fit2", ell).marked_pieces) == g // ell
            if ell <= g - 1:
                assert len(sf.pack_subsurfaces(g, "fit3", ell).marked_pieces) == (g - 1) // ell


def test_subsurface_report_rejects_wrong_euler_characteristic():
    with pytest.raises(sf.SurfaceError):
        sf.SubsurfaceReport(genus=1, boundary_count=1, complement_components=(), euler_char=0)


def test_subsurface_report_validates_on_replace():
    report = sf.SubsurfaceReport(genus=1, boundary_count=1, complement_components=((2, 1),), euler_char=-1)
    with pytest.raises(sf.SurfaceError):
        report._replace(genus=2)
    assert report._replace(genus=2, euler_char=-3).genus == 2


def test_enclosure_refuses_odd_euler_parity(monkeypatch):
    """A measured chi of 0 with one boundary circle fits no surface:
    2 - chi - boundary is odd, so the genus would be floored."""
    class OddRestriction:
        def __init__(self, rg, mask):
            self.ss_crossings, self.rfaces, self.complement = 0, [0], [(1, 1)]

    monkeypatch.setattr(sf, "_Restriction", OddRestriction)
    with pytest.raises(sf.SurfaceError):
        sf.min_enclosing_subsurface(sf.lickorish_surface(2), ["a1"])


def _reference_restriction(rg, mask):
    """(ss_crossings, rfaces, sorted complement (genus, boundary)) of a
    curve subset, by the one-find-per-bump union-find over faces and
    dropped arcs that the table-driven kernel replaced."""
    names = lk.curve_names(rg.genus)
    kept = {names[i] for i in range(len(names)) if mask >> i & 1}
    arc_in = [arc.curve in kept for arc in rg.arcs]
    vert_in = [(c.curve_x in kept, c.curve_y in kept) for c in rg.vertices]
    n_darts, n_faces = 4 * len(rg.vertices), len(rg.faces)
    iota, dart_arc, dart_face = rg._iota, rg._dart_arc, rg._dart_face
    in_s = [arc_in[dart_arc[d]] for d in range(n_darts)]

    seen = [False] * n_darts
    rfaces = []
    for start in range(n_darts):
        if seen[start] or not in_s[start]:
            continue
        cycle, d = [], start
        while not seen[d]:
            seen[d] = True
            cycle.append(d)
            e = iota[d]
            d = next((e & ~3) | ((e + k) & 3) for k in range(1, 5) if in_s[(e & ~3) | ((e + k) & 3)])
        rfaces.append(tuple(cycle))

    parent = list(range(n_faces + len(rg.arcs)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    def corner(v, k):
        return dart_face[iota[4 * v + k]]

    def node(v, k):
        return n_faces + dart_arc[4 * v + k]

    for a_idx, arc in enumerate(rg.arcs):
        if not arc_in[a_idx]:
            for d in arc.darts:
                union(n_faces + a_idx, dart_face[d])
    for v, (x_in, y_in) in enumerate(vert_in):
        if not x_in and not y_in:
            for other in [corner(v, k) for k in (1, 2, 3)] + [node(v, k) for k in range(4)]:
                union(corner(v, 0), other)
        elif not (x_in and y_in):
            s = 0 if x_in else 1
            for base in (s, s + 2):
                union(corner(v, base % 4), corner(v, (base + 1) % 4))
                union(corner(v, base % 4), node(v, (base + 1) % 4))
    chi, bnd = {}, {}

    def bump(x, delta):
        chi[find(x)] = chi.get(find(x), 0) + delta

    for f in range(n_faces):
        bump(f, 1)
    for a_idx, arc in enumerate(rg.arcs):
        if arc_in[a_idx]:
            for d in arc.darts:
                bump(dart_face[d], -1)
        else:
            bump(n_faces + a_idx, -1)
    for v, (x_in, y_in) in enumerate(vert_in):
        if x_in and y_in:
            for k in range(4):
                bump(corner(v, k), 1)
        elif x_in or y_in:
            s = 0 if x_in else 1
            bump(corner(v, s), 1)
            bump(corner(v, s + 2), 1)
        else:
            bump(corner(v, 0), 1)
    for cycle in rfaces:
        roots = {find(dart_face[d]) for d in cycle}
        assert len(roots) == 1
        root = roots.pop()
        bnd[root] = bnd.get(root, 0) + 1
    census = sorted(((2 - chi[r] - bnd[r]) // 2, bnd[r]) for r in chi)
    ss = sum(1 for x_in, y_in in vert_in if x_in and y_in)
    return ss, rfaces, census


def test_restriction_kernel_matches_reference_union_find():
    import random

    rng = random.Random(7)
    cases = [(g, None, range(1, 1 << (3 * g - 1))) for g in (2, 3, 4)]
    cases += [(g, None, [rng.randrange(1, 1 << (3 * g - 1)) for _ in range(500)]) for g in (6, 7, 8)]
    # the face rule holds for any rotation system, so every handedness triple
    cases += [(g, chirality, range(1, 1 << (3 * g - 1)))
              for g in (2, 3) for chirality in itertools.product((0, 1), repeat=3)]
    for g, chirality, masks in cases:  # every nonempty mask, disconnected ones included
        rg = sf.lickorish_surface(g) if chirality is None else _name_built_surface(g, chirality)
        for mask in masks:
            r = sf._Restriction(rg, mask)
            ss, rfaces, census = _reference_restriction(rg, mask)
            assert r.ss_crossings == ss, (g, chirality, mask)
            assert r.rfaces == rfaces, (g, chirality, mask)
            assert sorted(r.complement) == census, (g, chirality, mask)
