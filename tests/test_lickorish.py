"""Syntactic layer: curve ids, connectivity, chains, intervals, claims."""

from __future__ import annotations

from itertools import combinations

import pytest

from twistcert import lickorish as lk
from twistcert import nervecplx as nc
from twistcert import surface as sf


def cs(g, *names):
    return lk.CurveSet.of(g, names)


def _lam(g):
    """Reference: the full generator set (3g-1 curves)."""
    lk._check_genus(g)
    return lk.CurveSet(g, (1 << (3 * g - 1)) - 1)


def _interval_set(iv, g):
    """Reference: the literal curve content of the bracket: the b's i..j,
    the g's i..j-1 and the interior a's, with a_i for an a left end, a_j
    for an a right end, g_j for a g right end, and without b_i for a g
    left end."""
    lk._validate_interval(iv, g)
    i, j = iv.i, iv.j
    left, right = iv.kind.left, iv.kind.right
    out = lk._run(g, "b", i, j) | lk._run(g, "g", i, j - 1) | lk._run(g, "a", i + 1, j - 1)
    if left == "a":
        out |= lk._run(g, "a", i, i)
    if right == "a":
        out |= lk._run(g, "a", j, j)
    if right == "g":
        out |= lk._run(g, "g", j, j)
    if left == "g":
        out &= ~lk._run(g, "b", i, i)
    return lk.CurveSet(g, out)


def test_lambda_counts():
    for g in range(2, 8):
        lam = _lam(g)
        assert len(lam) == 3 * g - 1
        pairs = lk.intersecting_pairs(g)
        assert len(pairs) == 3 * g - 2
        assert len(set(pairs)) == len(pairs)


def test_lambda_g2_examples():
    assert len(_lam(2)) == 5
    assert len(lk.intersecting_pairs(2)) == 4
    adj = lk.adjacency(2)
    assert "g1" not in adj["a1"]
    assert "b1" in adj["a1"]


def test_lambda_g3_pair_count():
    # g + 2(g-1) crossings
    assert len(lk.intersecting_pairs(3)) == 7
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
        assert lk.intersecting_pairs(g) == named
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
    "Interval": (lambda: lk.Interval(lk.IntervalKind.BG, 1, 2), "j"),
    "EnclosureClaim": (lambda: lk.size_classify(cs(3, "a2", "b2", "g1", "g2")), "genus_bound"),
    "SubsurfaceReport": (lambda: sf.min_enclosing_subsurface(sf.lickorish_surface(3), cs(3, "a1", "b1")), "genus"),
    "Crossing": (lambda: sf.Crossing("a1", "b1", False), "flipped"),
    "Arc": (lambda: sf.Arc("a1", (0, 2)), "darts"),
    "AssemblyPlan": (lambda: sf.pack_subsurfaces(4, "fit1", 2), "pieces"),
    "BettiVector": (lambda: nc.betti_z2(nc.SimplicialComplex(combinations(range(4), 3))), "values"),
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
    # [b1,b2] at any genus >= 2: the interior-a block is empty
    iv = lk.Interval(lk.IntervalKind.BB, 1, 2)
    assert _interval_set(iv, 3).members == frozenset({"b1", "b2", "g1"})

    iv = lk.Interval(lk.IntervalKind.GG, 1, 2)
    assert _interval_set(iv, 3).members == frozenset({"b2", "g1", "g2"})
    assert lk.extended_support(iv, 3).members == frozenset({"a2", "b2", "g1", "g2"})

    iv = lk.Interval(lk.IntervalKind.AA, 1, 3)
    assert _interval_set(iv, 3).members == frozenset(
        {"a1", "b1", "g1", "a2", "b2", "g2", "b3", "a3"}
    )


def test_interval_chain_lengths():
    assert lk.Interval(lk.IntervalKind.AA, 1, 3).chain_length_m == 7  # 2(j-i)+3
    assert lk.Interval(lk.IntervalKind.BB, 1, 3).chain_length_m == 5
    assert lk.Interval(lk.IntervalKind.GB, 1, 3).chain_length_m == 4
    assert lk.Interval(lk.IntervalKind.AB, 1, 1).chain_length_m == 2
    # the literal set of an interval whose interior-a block is empty is a
    # chain of exactly that length
    for iv in lk.all_intervals(4):
        s = _interval_set(iv, 4)
        if iv.j - iv.i <= 1:
            order = lk.chain_order(s)
            assert order is not None and len(order) == iv.chain_length_m, iv.label()


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
    # min span, m(d) and the window claim for d = j-i = 0..6
    kind = lk.IntervalKind(kind)
    assert kind.min_span == min_span
    for d in range(min_span):
        with pytest.raises(lk.LickorishError):
            lk.Interval(kind, 1, 1 + d)
    ivs = [lk.Interval(kind, 1, 1 + d) for d in range(min_span, 7)]
    assert tuple(iv.chain_length_m for iv in ivs) == chain_lengths
    assert tuple(lk.interval_claim(iv) for iv in ivs) == claims


def test_all_intervals_are_the_valid_triples():
    for g in range(2, 9):
        valid = set()
        for kind in lk.IntervalKind:
            for i in range(-1, g + 3):
                for j in range(-1, g + 3):
                    try:
                        _interval_set(lk.Interval(kind, i, j), g)
                    except lk.LickorishError:
                        continue
                    valid.add((kind, i, j))
        listed = [(iv.kind, iv.i, iv.j) for iv in lk.all_intervals(g)]
        assert len(listed) == len(set(listed))
        assert set(listed) == valid, g


def test_interval_validation():
    with pytest.raises(lk.LickorishError):
        _interval_set(lk.Interval(lk.IntervalKind.GG, 1, 3), 3)  # g3 missing
    with pytest.raises(lk.LickorishError):
        _interval_set(lk.Interval(lk.IntervalKind.AA, 1, 4), 3)
    with pytest.raises(lk.LickorishError):
        lk.Interval(lk.IntervalKind.AA, 2, 2)  # degenerate


def test_extended_support_contains_literal():
    for g in (3, 4, 5):
        for iv in lk.all_intervals(g):
            assert _interval_set(iv, g).members <= lk.extended_support(iv, g).members, iv.label()


def test_enclosing_interval_star():
    s = cs(3, "a2", "b2", "g1", "g2")
    iv = lk.enclosing_interval(s)
    assert (iv.kind, iv.i, iv.j, iv.chain_length_m) == (lk.IntervalKind.GG, 1, 2, 3)


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
            iv = lk.enclosing_interval(s)
            assert iv.chain_length_m < len(s)
            assert s.members <= lk.extended_support(iv, g).members


def test_records_validate_on_replace():
    # namedtuple's _replace builds through _make, which must not skip __new__'s checks
    with pytest.raises(lk.LickorishError):
        lk.Interval(lk.IntervalKind.GG, 1, 2)._replace(j=1)
    with pytest.raises(lk.LickorishError):
        lk.CurveSet(3, 5)._replace(mask=(1 << 40) | 1)
    with pytest.raises(lk.LickorishError):
        lk.CurveSet._make((1, 1))
    assert lk.Interval(lk.IntervalKind.GG, 1, 2)._replace(j=3) == lk.Interval(lk.IntervalKind.GG, 1, 3)
    assert lk.CurveSet(3, 5)._replace(mask=7) == lk.CurveSet(3, 7)
    assert lk.CurveSet._make((3, 5)) == lk.CurveSet(3, 5)


def test_classify_chain_examples():
    assert lk.size_classify(cs(2, "a1", "b1")) == lk.EnclosureClaim(1, 1, "chain-even")
    claim = lk.size_classify(cs(2, "a1", "b1", "g1", "b2", "a2"))
    assert (claim.genus_bound, claim.boundary_bound) == (2, 1)
    assert claim.case_tag == "chain-odd-separating"
    claim = lk.size_classify(cs(3, "b1", "g1", "b2"))
    assert (claim.genus_bound, claim.boundary_bound) == (1, 2)


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


def _interval_supports(g):
    """(interval, m, extended-support mask) for every interval, in scan order."""
    return [(iv, iv.chain_length_m, lk.extended_support(iv, g).mask) for iv in lk.all_intervals(g)]


def _linear_enclosing_interval(s, supports):
    """Reference: the first interval in scan order whose extended
    support contains the set, if its m is below |S|."""
    for iv, m, emask in supports:
        if s.mask & ~emask == 0:
            return iv if m < len(s) else None
    return None


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
    import random

    rng = random.Random(13)
    cases = [(g, lk.connected_masks(g)) for g in range(2, 11)]
    cases += [(g, [_random_connected_mask(g, rng) for _ in range(2000)]) for g in (13, 14, 15)]
    cases += [(30, [_random_connected_mask(30, rng) for _ in range(300)])]
    for g, masks in cases:
        supports = _interval_supports(g)
        for mask in masks:
            s = lk.CurveSet(g, mask)
            assert lk.is_connected_mask(g, mask)
            if lk.chain_order(s) is not None:
                continue
            assert lk.enclosing_interval(s) == _linear_enclosing_interval(s, supports), (g, s.sorted_members())
