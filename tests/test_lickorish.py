"""Syntactic layer: curve ids, connectivity, chains, windows, claims."""

from __future__ import annotations

import functools
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistcert import lickorish as lk
from twistcert import surface as sf
from twistcert import sweeps


def cs(g, *names):
    return lk.CurveSet.of(g, names)


def _lam(g):
    """Reference: the full generator set (3g-1 curves)."""
    lk._check_genus(g)
    return lk.CurveSet(g, (1 << (3 * g - 1)) - 1)


def _intersecting_pairs(g):
    """Reference: the :func:`~twistcert.lickorish.crossing_pairs` by curve id."""
    names = lk.curve_names(g)
    return [(names[x], names[y]) for x, y in lk.crossing_pairs(g)]


def _windows(g):
    """Reference: every (lo, hi, lt, rt) that is a window at genus g, as a
    Window: lo <= hi within 1..g, a g end only where there is a g curve,
    and a lone handle only with a g end."""
    return [lk.Window(lo, hi, lt, rt)
            for lo in range(1, g + 1) for hi in range(lo, g + 1) for lt in (0, 1) for rt in (0, 1)
            if (lo >= 2 or not lt) and (hi <= g - 1 or not rt) and (hi > lo or lt or rt)]


def _named_support(w, g):
    """Reference: the window's curves by name, a and b of handles lo..hi
    and g_{lo-lt}..g_{hi-1+rt}."""
    lo, hi, lt, rt = w
    return cs(g, *[f"{c}{k}" for k in range(lo, hi + 1) for c in "ab"], *[f"g{k}" for k in range(lo - lt, hi + rt)])


def test_lambda_counts():
    for g in range(2, 8):
        lam = _lam(g)
        assert len(lam) == 3 * g - 1
        pairs = _intersecting_pairs(g)
        assert len(pairs) == 3 * g - 2
        assert len(set(pairs)) == len(pairs)


def test_lambda_g2_examples():
    assert len(_lam(2)) == 5
    assert len(_intersecting_pairs(2)) == 4
    adj = lk.adjacency(2)
    assert "g1" not in adj["a1"]
    assert "b1" in adj["a1"]


def test_lambda_g3_pair_count():
    # g + 2(g-1) crossings
    assert len(_intersecting_pairs(3)) == 7
    assert len(_lam(3)) == 8


def test_genus_validation():
    with pytest.raises(lk.LickorishError):
        _lam(1)
    with pytest.raises(lk.LickorishError):
        lk.curve_names(0)
    with pytest.raises(lk.LickorishError):
        lk.CurveSet.of(2, ["a3"])
    with pytest.raises(lk.LickorishError):
        lk.CurveSet.of(3, ["g3"])


@pytest.mark.parametrize("name", ["a1_0", "a+1", "a 1", "a01", "a\u0661"])
def test_curve_ids_must_be_canonical(name):
    # int() reads each index as 10 or 1, both valid at genus 12
    with pytest.raises(lk.LickorishError, match="bad curve id"):
        lk.CurveSet.of(12, [name])


def test_crossing_table_matches_the_named_families():
    for g in range(2, 13):
        named = [(f"a{i}", f"b{i}") for i in range(1, g + 1)]
        named += [(f"b{i}", f"g{i}") for i in range(1, g)]
        named += [(f"b{i + 1}", f"g{i}") for i in range(1, g)]
        assert _intersecting_pairs(g) == named
        assert lk.crossing_pairs(g) == [(lk.curve_index(x, g), lk.curve_index(y, g)) for x, y in named]
        adj = lk.adjacency(g)
        assert _adjacency_masks(g) == tuple(lk.CurveSet.of(g, adj[name]).mask for name in lk.curve_names(g))


def test_curve_index_round_trip():
    for g in (2, 3, 5):
        names = lk.curve_names(g)
        assert [lk.curve_index(n, g) for n in names] == list(range(3 * g - 1))
        mask = _lam(g).mask
        assert mask == (1 << (3 * g - 1)) - 1
        assert lk.CurveSet(g, mask) == _lam(g)



def test_curve_set_is_a_genus_mask_pair():
    s = cs(3, "g2", "a1", "b1")
    assert s == lk.CurveSet(3, 0b10001001)  # a1 -> bit 0, b1 -> bit 3, g2 -> bit 7
    assert s.sorted_members() == ["a1", "b1", "g2"]
    assert s.members == frozenset({"a1", "b1", "g2"})
    assert len(s) == 3
    for bad in (-1, 1 << 8, True, 1.0):
        with pytest.raises(lk.LickorishError):
            lk.CurveSet(3, bad)


# a build of each immutable record type, and one of its fields; the
# records holding a dict (Certificate, Failure, Violation) are
# unhashable, so they are left out
_FROZEN_RECORDS = {
    "CurveSet": (lambda: lk.CurveSet(3, 0b101), "mask"),
    "Window": (lambda: lk.Window(2, 3, 1, 0), "rt"),
    "EnclosureClaim": (lambda: lk.size_classify(cs(3, "a2", "b2", "g1", "g2")), "genus_bound"),
    "SubsurfaceReport": (lambda: sf.min_enclosing_subsurface(sf.lickorish_surface(3), cs(3, "a1", "b1")), "genus"),
    "Crossing": (lambda: sf.Crossing("a1", "b1", False), "flipped"),
    "Arc": (lambda: sf.Arc("a1", (0, 2)), "darts"),
    "AssemblyPlan": (lambda: sf.pack_subsurfaces(4, "fit1", 2), "pieces"),
}


@pytest.mark.parametrize("name", sorted(_FROZEN_RECORDS))
def test_frozen_record_refuses_assignment_and_hashes_by_value(name):
    build, field = _FROZEN_RECORDS[name]
    a, b = build(), build()
    assert a == b and a is not b
    assert hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b


def _adjacency_masks(g):
    """Reference: per-curve neighbour bitmasks, indexed by curve_index."""
    adj = [0] * (3 * g - 1)
    for x, y in lk.crossing_pairs(g):
        adj[x] |= 1 << y
        adj[y] |= 1 << x
    return tuple(adj)


def _walk_chain_order(g, mask):
    """Reference: walk the neighbour table from the lowest-index curve
    with one neighbour in the set."""
    adj = _adjacency_masks(g)
    members = [i for i in range(3 * g - 1) if mask >> i & 1]
    if len(members) == 1:
        return members
    if any((adj[i] & mask).bit_count() > 2 for i in members):
        return None
    ends = [i for i in members if (adj[i] & mask).bit_count() == 1]
    if len(ends) != 2:
        return None
    order, seen = [ends[0]], 1 << ends[0]
    nxt = adj[ends[0]] & mask
    while nxt:
        order.append(nxt.bit_length() - 1)
        seen |= nxt
        nxt = adj[order[-1]] & mask & ~seen
    return order if len(order) == len(members) else None


def test_chain_order_matches_the_table_walk():
    for g in range(2, 6):
        for mask in range(1, 1 << (3 * g - 1)):
            assert lk.chain_order(lk.CurveSet(g, mask)) == _walk_chain_order(g, mask), (g, mask)


def _bfs_connected(g, mask):
    """Reference: grow the lowest curve's piece through the adjacency masks."""
    adj = _adjacency_masks(g)
    comp = frontier = mask & -mask
    while frontier:
        bit = frontier & -frontier
        frontier ^= bit
        grow = adj[bit.bit_length() - 1] & mask & ~comp
        comp |= grow
        frontier |= grow
    return comp == mask


def test_connectivity():
    assert lk.is_connected_mask(2, cs(2, "a1", "b1", "g1").mask)
    assert not lk.is_connected_mask(2, cs(2, "a1", "a2").mask)
    assert lk.is_connected_mask(2, lk.CurveSet.of(2, []).mask)  # vacuously
    for g in range(2, 6):
        for mask in range(1 << (3 * g - 1)):
            assert lk.is_connected_mask(g, mask) == _bfs_connected(g, mask), (g, mask)


def test_connected_masks_match_filter():
    for g in range(2, 8):
        brute = [m for m in range(1, 1 << (3 * g - 1)) if lk.is_connected_mask(g, m)]
        assert lk.connected_masks(g) == brute, g


def test_connected_masks_count_caterpillar_subtrees():
    # Subtrees of the caterpillar b1-g1-b2-...-bg with a pendant a_i on
    # each b_i: a lone a_i (g), a lone g_i (g-1), the whole spine (2^g
    # pendant choices), and for each run of q < g consecutive b's the
    # 4(g-q) ways to end it, each with 2^q pendant choices.  The sum
    # closes to 9*2^g - 6g - 9.
    for g in range(2, 17):
        assert len(lk.connected_masks(g)) == 9 * 2**g - 6 * g - 9, g
    assert [len(lk.connected_masks(g)) for g in (5, 6, 7, 12)] == [249, 531, 1101, 36783]


def test_chain_masks_are_the_chains_among_the_connected_subsets():
    for g in range(2, 13):
        chains = [m for m in lk.connected_masks(g) if lk.chain_order(lk.CurveSet(g, m)) is not None]
        assert lk.chain_masks(g) == chains, g


def test_chain_masks_count_the_paths_of_the_tree():
    # a tree on n = 3g-1 vertices has n(n+1)/2 paths, one vertex included
    for g in range(2, 41):
        masks = lk.chain_masks(g)
        assert all(x < y for x, y in zip(masks, masks[1:])), g
        assert len(masks) == (3 * g - 1) * (3 * g) // 2, g


def test_disconnected_sizes_match_brute_force():
    for g in range(2, 7):
        brute = {m.bit_count() for m in range(1, 1 << (3 * g - 1)) if not lk.is_connected_mask(g, m)}
        assert lk.disconnected_sizes(g) == brute, g


def test_chain_order_examples():
    assert lk.chain_order(cs(3, "a1", "b1", "g1")) == [0, 3, 6]  # a1, b1, g1
    assert lk.chain_order(cs(3, "a2", "b2", "g1", "g2")) is None  # b2 has degree 3
    assert lk.chain_order(cs(3, "b1", "g1", "b2", "g2", "b3")) == [3, 6, 4, 7, 5]  # b1, g1, b2, g2, b3
    assert lk.chain_order(cs(3, "a1")) == [0]
    assert lk.chain_order(cs(3, "a1", "a2")) is None  # disconnected
    with pytest.raises(lk.LickorishError):
        lk.chain_order(lk.CurveSet.of(3, []))


def test_interval_literal_sets():
    assert lk.Window(1, 2, 0, 0).support(3).members == frozenset({"a1", "b1", "g1", "a2", "b2"})
    assert lk.Window(2, 2, 1, 1).support(3).members == frozenset({"a2", "b2", "g1", "g2"})
    assert lk.Window(1, 3, 0, 0).support(3) == _lam(3)
    labels = [lk.Window(*w).label for w in ((199, 201, 0, 0), (199, 201, 1, 0), (199, 201, 0, 1), (199, 201, 1, 1))]
    assert labels == ["[b199,b201]", "[g198,b201]", "[b199,g201]", "[g198,g201]"]
    for g in range(2, 9):
        for w in _windows(g):
            assert w.support(g) == _named_support(w, g), (g, w)


def test_interval_chain_lengths():
    assert [lk.Window(1, 3, 0, 0).m, lk.Window(2, 3, 1, 0).m, lk.Window(2, 2, 1, 1).m] == [5, 4, 3]
    # the support less its w a's is the chain from end to end, of length m
    for g in range(2, 9):
        for w in _windows(g):
            width = w.hi - w.lo + 1
            spine = w.support(g).mask & ~lk._run(g, "a", 1, g)
            order = lk.chain_order(lk.CurveSet(g, spine))
            assert order is not None and len(order) == w.m == len(w.support(g)) - width, w.label


@pytest.mark.parametrize(
    "kind, min_span, chain_lengths, claims",
    [
        ("bb", 1, (3, 5, 7, 9, 11, 13), ((2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1))),
        ("ba", 0, (2, 4, 6, 8, 10, 12, 14), ((1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1))),
        ("ab", 0, (2, 4, 6, 8, 10, 12, 14), ((1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1))),
        ("bg", 0, (2, 4, 6, 8, 10, 12, 14), ((1, 2), (2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (7, 2))),
        ("gb", 1, (2, 4, 6, 8, 10, 12), ((1, 2), (2, 2), (3, 2), (4, 2), (5, 2), (6, 2))),
        ("aa", 1, (5, 7, 9, 11, 13, 15), ((2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1))),
        ("gg", 1, (3, 5, 7, 9, 11, 13), ((1, 3), (2, 3), (3, 3), (4, 3), (5, 3), (6, 3))),
        ("ga", 1, (3, 5, 7, 9, 11, 13), ((1, 2), (2, 2), (3, 2), (4, 2), (5, 2), (6, 2))),
        ("ag", 0, (3, 5, 7, 9, 11, 13, 15), ((1, 2), (2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (7, 2))),
    ],
)
def test_interval_kind_facts(kind, min_span, chain_lengths, claims):
    # The bracket [x1, y(1+d)] with end letters x, y in {a, b, g}, by
    # d = 0..6 from its least span: its claim and its end-to-end chain
    # length.  An a end adds one curve to the chain of the b end at its
    # handle and nothing to its support, so every bracket but [a1,b1] is
    # the window with b in place of a, with the same claim and m less
    # its a ends; [a1,b1] and [b1,a1] are the chain {a1, b1}.
    left, right = kind
    lt, rt = int(left == "g"), int(right == "g")
    for d in range(min_span):
        with pytest.raises(lk.LickorishError):
            lk.Window(1 + lt, 1 + d, lt, rt)
    for d, m, claim in zip(range(min_span, 7), chain_lengths, claims, strict=True):
        if d == 0 and lt + rt == 0:
            with pytest.raises(lk.LickorishError):
                lk.Window(1, 1, 0, 0)
            assert (m, lk.size_classify(cs(9, "a1", "b1"))) == (2, (*claim, None))
            continue
        w = lk.Window(1 + lt, 1 + d, lt, rt)
        assert (w.m + kind.count("a"), w.claim) == (m, claim)


def test_windows_are_the_valid_quadruples(monkeypatch):
    for g in range(2, 9):
        valid = set()
        for lo, hi, lt, rt in product(range(-1, g + 3), range(-1, g + 3), (-1, 0, 1, 2), (-1, 0, 1, 2)):
            try:
                valid.add(lk.Window(lo, hi, lt, rt).support(g))
            except lk.LickorishError:
                continue
        assert valid == {w.support(g) for w in _windows(g)}, g
    # the window sweep walks each window once: 10 + 21 + 36 at genus 3..5
    walked = []
    original = sf.min_enclosing_subsurface
    monkeypatch.setattr(sf, "min_enclosing_subsurface", lambda rg, s, fill: walked.append(s) or original(rg, s, fill))
    assert sweeps.sweep_intervals(3, 5).checked == len(walked) == 67
    assert walked == [w.support(g) for g in (3, 4, 5) for w in _windows(g)]


def test_interval_validation():
    for bad in ((1, 1, 0, 0), (2, 1, 0, 1), (1, 2, 1, 0), (0, 2, 0, 0), (2, 3, 2, 0), (2, 3, 0, -1)):
        with pytest.raises(lk.LickorishError):
            lk.Window(*bad)
    with pytest.raises(lk.LickorishError):
        lk.Window(1, 3, 0, 1).support(3)  # g3 missing
    with pytest.raises(lk.LickorishError):
        lk.Window(1, 4, 0, 0).support(3)


def test_extended_support_contains_literal():
    # every window's support holds its end-to-end chain, and a support that
    # is no chain has its own window as its enclosing window
    for g in (3, 4, 5):
        for w in _windows(g):
            supp = w.support(g)
            spine = cs(g, f"g{w.lo - 1}" if w.lt else f"b{w.lo}", f"g{w.hi}" if w.rt else f"b{w.hi}")
            assert spine.mask & ~supp.mask == 0, w.label
            if lk.chain_order(supp) is None:
                assert lk.enclosing_interval(supp) == w, w.label


def test_enclosing_interval_star():
    s = cs(3, "a2", "b2", "g1", "g2")
    w = lk.enclosing_interval(s)
    assert (w, w.m, w.label) == (lk.Window(2, 2, 1, 1), 3, "[g1,g2]")


def test_enclosing_interval_rejects_chains():
    with pytest.raises(lk.LickorishError):
        lk.enclosing_interval(cs(3, "a1", "b1", "g1", "b2"))  # a path, hence a chain


def test_enclosing_interval_minimality_and_m_bound():
    for g in (3, 4):
        for mask in range(1, 1 << (3 * g - 1)):
            if not lk.is_connected_mask(g, mask):
                continue
            s = lk.CurveSet(g, mask)
            if lk.chain_order(s) is not None:
                continue
            w = lk.enclosing_interval(s)
            assert w.m < len(s)
            assert s.members <= w.support(g).members


def test_enclosing_window_is_spanned_by_the_bs():
    # read from the curve names: the b's of S span lo..hi, and lt, rt say
    # whether S holds g_{lo-1} and g_hi
    for g in range(2, 13):
        names = lk.curve_names(g)
        for mask in lk.connected_masks(g):
            s = lk.CurveSet(g, mask)
            if lk.chain_order(s) is not None:
                continue
            members = {names[i] for i in range(3 * g - 1) if mask >> i & 1}
            bs = [int(n[1:]) for n in members if n[0] == "b"]
            lo, hi = min(bs), max(bs)
            lt, rt = int(f"g{lo - 1}" in members), int(f"g{hi}" in members)
            a_count = sum(n[0] == "a" for n in members)
            w = lk.enclosing_interval(s)
            assert w == (lo, hi, lt, rt), (g, sorted(members))
            assert a_count >= 1 and w.m == len(s) - a_count, (g, sorted(members))
            assert lk.size_classify(s) == (hi - lo + 1, 1 + lt + rt, w), (g, sorted(members))


def test_records_validate_on_replace():
    # namedtuple's _replace builds through _make, which must not skip __new__'s checks
    with pytest.raises(lk.LickorishError):
        lk.Window(2, 2, 1, 1)._replace(lt=0, rt=0)
    with pytest.raises(lk.LickorishError):
        lk.CurveSet(3, 5)._replace(mask=(1 << 40) | 1)
    with pytest.raises(lk.LickorishError):
        lk.CurveSet._make((1, 1))
    assert lk.Window(2, 2, 1, 1)._replace(hi=3) == lk.Window(2, 3, 1, 1)
    assert lk.CurveSet(3, 5)._replace(mask=7) == lk.CurveSet(3, 7)
    assert lk.CurveSet._make((3, 5)) == lk.CurveSet(3, 5)


def test_classify_chain_examples():
    # a chain's claim carries no window (the CLI tests pin the case names)
    assert lk.size_classify(cs(2, "a1", "b1")) == lk.EnclosureClaim(1, 1)
    assert lk.size_classify(cs(2, "a1", "b1", "g1", "b2", "a2")) == lk.EnclosureClaim(2, 1)
    assert lk.size_classify(cs(3, "b1", "g1", "b2")) == lk.EnclosureClaim(1, 2)


def test_classify_chain_rejects_inconsistent_separating_form(monkeypatch):
    # a 3-chain cannot be the separating family of [a1,a3] (length 7)
    monkeypatch.setattr(lk, "separating_chain_form", lambda s: (1, 3))
    with pytest.raises(lk.LickorishError):
        lk.size_classify(cs(3, "b1", "g1", "b2"))


def test_separating_chain_form():
    assert lk.separating_chain_form(cs(2, "a1", "b1", "g1", "b2", "a2")) == (1, 2)
    # deleting the interior a from [a1,a3] leaves the separating 7-chain
    s = cs(3, "a1", "b1", "g1", "b2", "g2", "b3", "a3")
    assert lk.separating_chain_form(s) == (1, 3)
    assert lk.separating_chain_form(cs(3, "b1", "g1", "b2")) is None


def test_size_classify_examples():
    claim = lk.size_classify(cs(3, "a2", "b2", "g1", "g2"))
    assert (claim.genus_bound, claim.boundary_bound) == (1, 3)

    claim = lk.size_classify(cs(2, "a1", "b1", "g1", "b2", "a2"))
    assert (claim.genus_bound, claim.boundary_bound) == (2, 1)

    claim = lk.size_classify(cs(2, "a1", "b1"))
    assert (claim.genus_bound, claim.boundary_bound) == (1, 1)

    # a disconnected set has no chain order, so the enclosure's guard rejects it
    with pytest.raises(lk.LickorishError):
        lk.size_classify(cs(3, "a1", "a2", "b2"))


def test_size_classify_full_set():
    # the whole generator set is enclosed by the widest b-window
    for g in (3, 4, 5):
        claim = lk.size_classify(_lam(g))
        assert (claim.genus_bound, claim.boundary_bound) == (g, 1)


def _matching_number(pairs, mask):
    """Reference: the maximum matching size of the forest that the
    crossing pairs induce on a mask, by greedy leaf matching (match a
    leaf with its one neighbour and delete both; optimal on a forest)."""
    nbrs = {}
    for x, y in pairs:
        if mask >> x & mask >> y & 1:
            nbrs.setdefault(x, set()).add(y)
            nbrs.setdefault(y, set()).add(x)
    leaves = [v for v, ns in nbrs.items() if len(ns) == 1]
    matched = 0
    while leaves:
        leaf = leaves.pop()
        if len(nbrs.get(leaf, ())) != 1:
            continue  # matched already, or its neighbour was
        (partner,) = nbrs.pop(leaf)
        matched += 1
        for v in nbrs.pop(partner) - {leaf}:
            nbrs[v].discard(partner)
            if len(nbrs[v]) == 1:
                leaves.append(v)
    return matched


def test_claim_genus_is_the_matching_number_of_the_crossing_tree():
    # the neighbourhood's genus is half the GF(2) rank of its crossing
    # matrix, and a tree's adjacency rank is twice its matching number: an
    # oracle that reads neither windows nor the ribbon graph
    for g in range(2, 12):
        pairs = lk.crossing_pairs(g)
        for mask in lk.connected_masks(g):
            s = lk.CurveSet(g, mask)
            assert lk.size_classify(s).genus_bound == _matching_number(pairs, mask), (g, s.sorted_members())


def test_claims_fit_clauses():
    for g in (2, 3, 4):
        for mask in range(1, 1 << (3 * g - 1)):
            if not lk.is_connected_mask(g, mask):
                continue
            s = lk.CurveSet(g, mask)
            claim = lk.size_classify(s)
            assert lk.claim_fits_clause(claim, len(s)), (g, s.sorted_members(), claim)


def test_badchains_m_arithmetic():
    # j = i + (m-3)/2 for the separating family
    for g in (3, 4, 5):
        for mask in range(1, 1 << (3 * g - 1)):
            if not lk.is_connected_mask(g, mask):
                continue
            s = lk.CurveSet(g, mask)
            order = lk.chain_order(s)
            if order is None:
                continue
            form = lk.separating_chain_form(s)
            if form is not None:
                i, j = form
                assert j == i + (len(order) - 3) // 2


@functools.lru_cache(maxsize=None)
def _window_supports(g):
    """(window, support mask) for every window at genus g."""
    return tuple((w, w.support(g).mask) for w in _windows(g))


def _least_windows(g, mask):
    """Reference: a linear scan of every window for those of least m
    whose support contains the set."""
    fits = [w for w, supp in _window_supports(g) if mask & ~supp == 0]
    least = min(w.m for w in fits)
    return [w for w in fits if w.m == least]


def _random_connected_mask(g, rng):
    """A connected subset grown from a random curve by random crossings."""
    adj = _adjacency_masks(g)
    mask = 1 << rng.randrange(3 * g - 1)
    for _ in range(rng.randrange(3 * g - 1)):
        frontier = 0
        rest = mask
        while rest:
            low = rest & -rest
            frontier |= adj[low.bit_length() - 1]
            rest ^= low
        frontier &= ~mask
        if not frontier:
            break
        bits = [i for i in range(3 * g - 1) if frontier >> i & 1]
        mask |= 1 << rng.choice(bits)
    return mask


def test_enclosing_interval_matches_linear_scan():
    for g in range(2, 11):
        for mask in lk.connected_masks(g):
            s = lk.CurveSet(g, mask)
            if lk.chain_order(s) is not None:
                continue
            assert [lk.enclosing_interval(s)] == _least_windows(g, mask), (g, s.sorted_members())


@settings(derandomize=True, max_examples=150, deadline=None)
@given(g=st.integers(13, 60), rng=st.randoms(use_true_random=False))
def test_enclosing_interval_matches_linear_scan_on_grown_subsets(g, rng):
    s = lk.CurveSet(g, _random_connected_mask(g, rng))
    if lk.chain_order(s) is None:
        w = lk.enclosing_interval(s)
        assert [w] == _least_windows(g, s.mask), s.sorted_members()
        a_count = (s.mask & lk._run(g, "a", 1, g)).bit_count()
        assert a_count >= 1 and w.m == len(s) - a_count
        assert lk.size_classify(s) == (w.hi - w.lo + 1, 1 + w.lt + w.rt, w)
