"""Combinatorial model of the genus-g surface carrying the generator curves.

The union of the generator curves is stored as a ribbon graph: crossings
are 4-valent vertices with a counterclockwise slot order alternating
between the two transversal curves, arcs connect crossings along each
curve, and faces are traced as orbits of the usual next-dart permutation.
Capping the faces with disks recovers the closed surface, which pins the
genus and makes every regular-neighbourhood and complement computation
exact integer bookkeeping.

The crossings and the curves through each come from
:func:`~twistcert.lickorish.crossing_pairs`, and each curve meets its
crossings in increasing index: along b_i that is a_i, g_i, g_{i-1},
the handle-by-handle cyclic order.  The per-crossing
handedness bits were fixed once by a brute-force search at small genus,
keeping the assignment that closes every capped surface to genus
exactly g and reproduces the handle-window enclosures; the winning
pattern repeats per handle.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from . import lickorish as lk


class SurfaceError(ValueError):
    """Malformed surface request (bad genus, empty set, disconnected set)."""


# Handedness of the three crossing families (a_i x b_i, b_i x g_i,
# b_{i+1} x g_i).  Bit 1 swaps which side of the first curve the second
# curve enters on.  Frozen from the small-genus search; see module note.
_CHIRALITY_AB = 0
_CHIRALITY_BG = 0
_CHIRALITY_GB = 1


class Crossing(NamedTuple):
    """A 4-valent crossing: slots 0..3 counterclockwise, curve_x on
    slots (0, 2) and curve_y on slots (1, 3)."""

    curve_x: str
    curve_y: str
    flipped: bool  # True: curve_y runs 3 -> 1 instead of 1 -> 3


class Arc(NamedTuple):
    """One arc of a curve between consecutive crossings along it.
    ``darts`` are the two endpoint darts (vertex * 4 + slot)."""

    curve: str
    darts: tuple[int, int]


class RibbonGraph:
    """The embedded union of all generator curves at genus ``g``.

    Darts are integers ``4 * vertex + slot``.  ``iota`` swaps the two
    ends of each arc, ``sigma`` rotates one slot counterclockwise, and
    faces are the orbits of ``sigma o iota``; each dart lies on exactly
    one face, which is the orientability bookkeeping.
    """

    def __init__(self, genus: int, crossings: Sequence[Crossing], arcs: Sequence[Arc]):
        self.genus = genus
        self.vertices: tuple[Crossing, ...] = tuple(crossings)
        self.arcs: tuple[Arc, ...] = tuple(arcs)
        n_darts = 4 * len(self.vertices)

        iota = [-1] * n_darts
        dart_arc = [-1] * n_darts
        # the graph is trusted: lickorish_surface gives each curve the arcs
        # (d ^ 2, next entry), so every dart ends exactly one arc
        for a_idx, arc in enumerate(self.arcs):
            d1, d2 = arc.darts
            iota[d1], iota[d2] = d2, d1
            dart_arc[d1] = dart_arc[d2] = a_idx
        self._iota = iota
        self._dart_arc = dart_arc

        self.faces: tuple[tuple[int, ...], ...] = self._trace_faces()
        self._dart_face = [-1] * n_darts
        for f_idx, cycle in enumerate(self.faces):
            for d in cycle:
                self._dart_face[d] = f_idx
        self._build_restriction_tables()

    # -- permutations ------------------------------------------------------

    def sigma(self, dart: int) -> int:
        return (dart & ~3) | ((dart + 1) & 3)

    def _trace_faces(self) -> tuple[tuple[int, ...], ...]:
        n = 4 * len(self.vertices)
        seen = [False] * n
        faces = []
        for start in range(n):
            if seen[start]:
                continue
            # every dart ends one arc, so iota is a bijection, sigma o iota a
            # permutation, and this orbit closes at its start
            cycle = []
            d = start
            while not seen[d]:
                seen[d] = True
                cycle.append(d)
                d = self.sigma(self._iota[d])
            faces.append(tuple(cycle))
        return tuple(faces)

    # -- restriction tables -------------------------------------------------

    def _build_restriction_tables(self) -> None:
        """Per-arc and per-crossing tables read by :class:`_Restriction`.

        Curve bits follow :func:`~twistcert.lickorish.curve_index`, so a
        subset mask tests membership.  Each arc stores its curve bit and
        the faces on its two sides.  Each crossing stores its two curve
        bits and, per state (bit 0: curve_x kept, bit 1: curve_y kept),
        the corner faces that gain a sector.  A crossing needs no union:
        the sectors it merges are corners on the two sides of a dropped
        arc there, which that arc already joins.  The trace tables give,
        per dart d, the crossing at the far end of its arc and the darts
        one and two slots on from there.
        """
        dart_face, iota = self._dart_face, self._iota
        bit = {name: 1 << i for i, name in enumerate(lk.curve_names(self.genus))}
        self._arc_table = tuple((bit[arc.curve], dart_face[arc.darts[0]], dart_face[arc.darts[1]])
                                for arc in self.arcs)
        # c[k]: face covering the corner between slots k and k+1; the states
        # make one sector, one on each side of the kept curve, or four
        corners = [tuple(dart_face[e] for e in iota[d:d + 4]) for d in range(0, len(iota), 4)]
        self._crossing_table = tuple(
            (bit[crossing.curve_x], bit[crossing.curve_y], (c[:1], c[0::2], c[1::2], c))
            for crossing, c in zip(self.vertices, corners))
        self._dart_bit = [self._arc_table[a][0] for a in self._dart_arc]
        self._far_vertex = [e >> 2 for e in iota]
        self._next_one = [self.sigma(e) for e in iota]
        self._next_two = [self.sigma(self.sigma(e)) for e in iota]


def lickorish_surface(g: int) -> RibbonGraph:
    """Canonical rotation system of the generator curves on the closed
    genus-g surface.

    Crossing v is pair v of :func:`~twistcert.lickorish.crossing_pairs`,
    and each curve meets its crossings in increasing index.  Along b_i
    that reads a_i, g_i, g_{i-1} (absent ones skipped), the
    handle-by-handle order g_{i-1}, a_i, g_i rotated, so the same cyclic
    order.  The handedness bits repeat per handle.  Capping the traced
    faces yields genus exactly g.
    """
    if not isinstance(g, int) or g < 2:
        raise SurfaceError(f"genus must be an integer >= 2, got {g!r}")
    names = lk.curve_names(g)
    pairs = lk.crossing_pairs(g)
    flips = [bool(_CHIRALITY_AB)] * g + [bool(_CHIRALITY_BG)] * (g - 1) + [bool(_CHIRALITY_GB)] * (g - 1)
    crossings = [Crossing(names[x], names[y], flip) for (x, y), flip in zip(pairs, flips)]

    # the darts where each curve enters its crossings, in crossing order;
    # it leaves each from the opposite slot, dart ^ 2
    stops: list[list[int]] = [[] for _ in names]
    for v, (x, y) in enumerate(pairs):
        stops[x].append(4 * v)
        stops[y].append(4 * v + (3 if flips[v] else 1))
    arcs = [Arc(curve, (d ^ 2, nxt))
            for curve, darts in zip(names, stops)
            for d, nxt in zip(darts, darts[1:] + darts[:1])]
    return RibbonGraph(g, crossings, arcs)


# ---------------------------------------------------------------------------
# restriction to a subset of the curves


class _Restriction:
    """Face and complement data of the union of a curve subset.

    Crossings of a kept curve with a dropped one are smoothed by rotating
    past the dropped slots while tracing, which is exactly isotoping the
    dropped strand off the picture.  ``complement`` lists the (genus,
    boundary) of each piece of the surface cut along the kept curves.
    The pieces are the faces joined across dropped arcs: every sector a
    crossing merges lies on the two sides of a dropped arc there, so
    crossings add sectors to the Euler characteristic but no union.
    """

    def __init__(self, rg: RibbonGraph, mask: int):
        n_faces = len(rg.faces)
        # Euler characteristic contributions per face (sectors - edges +
        # faces, counted on the surface cut along the kept curves), and a
        # union-find over the faces that links the larger root under the
        # smaller, so every parent index is at most its child's and one
        # ascending pass resolves all roots
        chi = [1] * n_faces
        parent = list(range(n_faces))
        for bit, x, y in rg._arc_table:
            chi[x] -= 1
            if bit & mask:  # kept: one boundary edge on each side
                chi[y] -= 1
                continue
            # dropped: one interior edge, joining its two sides
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            while parent[y] != y:
                parent[y] = parent[parent[y]]
                y = parent[y]
            if x < y:
                parent[y] = x
            elif y < x:
                parent[x] = y
        both_kept = []
        for bit_x, bit_y, by_state in rg._crossing_table:
            state = (1 if bit_x & mask else 0) | (2 if bit_y & mask else 0)
            for face in by_state[state]:
                chi[face] += 1
            both_kept.append(state == 3)
        self.ss_crossings = both_kept.count(True)  # crossings internal to the subset
        comp_chi = [0] * n_faces
        for face in range(n_faces):
            parent[face] = parent[parent[face]]
            comp_chi[parent[face]] += chi[face]

        # boundary circles of the smoothed neighbourhood: orbits of the
        # skip-rotation next-dart map over kept darts, each on the rim of
        # one complement piece
        dart_bit, dart_face = rg._dart_bit, rg._dart_face
        far, next_one, next_two = rg._far_vertex, rg._next_one, rg._next_two
        n_darts = len(dart_bit)
        seen = [False] * n_darts
        comp_bnd = [0] * n_faces
        self.rfaces: list[tuple[int, ...]] = []
        for start in range(n_darts):
            if seen[start] or not dart_bit[start] & mask:
                continue
            cycle = []
            d = start
            while not seen[d]:
                seen[d] = True
                cycle.append(d)
                d = next_one[d] if both_kept[far[d]] else next_two[d]
            # a step stays in its face or crosses one dropped arc, whose two
            # faces share a root, so the whole circle rims one piece
            comp_bnd[parent[dart_face[start]]] += 1
            self.rfaces.append(tuple(cycle))

        # the surface is connected and the mask nonempty, so every piece has
        # a boundary circle; each piece is orientable, so its genus is whole
        self.complement: list[tuple[int, int]] = [
            ((2 - comp_chi[root] - comp_bnd[root]) // 2, comp_bnd[root]) for root in sorted(set(parent))]


# ---------------------------------------------------------------------------
# reports


class SubsurfaceReport(NamedTuple):
    """Genus and boundary data of an enclosing subsurface plus the census
    of its complement inside the closed genus-g surface.  Its Euler
    characteristic is 2 - 2 * genus - boundary_count."""

    genus: int
    boundary_count: int
    complement_components: tuple[tuple[int, int], ...]


def _as_mask(rg: RibbonGraph, s: lk.CurveSet | Iterable[str]) -> int:
    if isinstance(s, lk.CurveSet):
        if s.genus != rg.genus:
            raise SurfaceError("curve set genus does not match the surface")
        return s.mask
    return lk.CurveSet.of(rg.genus, s).mask


def min_enclosing_subsurface(
    rg: RibbonGraph, s: lk.CurveSet | Iterable[str], fill: bool = True
) -> SubsurfaceReport:
    """Regular neighbourhood of the union of a connected curve subset.

    With ``fill=True`` (default) every complement component that is a
    disk is absorbed, which turns the raw neighbourhood into the handle
    window the enclosure lemmas speak about.  ``fill=False`` reports the
    raw neighbourhood, the object the chain lemma is stated for.
    """
    mask = _as_mask(rg, s)
    if not mask:
        raise SurfaceError("min_enclosing_subsurface requires a nonempty set")
    if not lk.is_connected_mask(rg.genus, mask):
        raise SurfaceError("min_enclosing_subsurface requires a connected set")
    r = _Restriction(rg, mask)

    chi = -r.ss_crossings
    boundary = len(r.rfaces)
    census = list(r.complement)
    if fill:
        disks = sum(1 for h, b in census if (h, b) == (0, 1))
        chi += disks
        boundary -= disks
        census = [(h, b) for h, b in census if (h, b) != (0, 1)]
    if (2 - chi - boundary) % 2:
        raise SurfaceError(f"euler characteristic {chi} with {boundary} boundary circles fits no surface")
    return SubsurfaceReport((2 - chi - boundary) // 2, boundary, tuple(sorted(census)))


def complement_census(
    rg: RibbonGraph, s: lk.CurveSet | Iterable[str], fill: bool = True
) -> list[tuple[int, int]]:
    """(genus, boundary) of each component of the surface minus the
    (filled) neighbourhood of the union of the given curves.  The set may
    be disconnected."""
    mask = _as_mask(rg, s)
    if not mask:
        raise SurfaceError("complement_census requires a nonempty set")
    return sorted(c for c in _Restriction(rg, mask).complement if not (fill and c == (0, 1)))


# ---------------------------------------------------------------------------
# cut-and-paste assemblies (the packing constructions)


class AssemblyPlan(NamedTuple):
    """Pieces-and-gluings description of a closed surface, with some
    pieces marked as the packed copies."""

    pieces: tuple[tuple[int, int], ...]  # (genus, boundary slots)
    gluings: tuple[tuple[int, int, int, int], ...]  # piece, slot, piece, slot
    marked_pieces: tuple[int, ...]


def assembly_problems(plan: AssemblyPlan, g: int) -> list[str]:
    """Structural and arithmetic defects of a plan, empty when valid."""
    problems = []
    used: set[tuple[int, int]] = set()  # a slot glued to itself is glued twice
    for (pa, sa, pb, sb) in plan.gluings:
        for p, s in ((pa, sa), (pb, sb)):
            if not (0 <= p < len(plan.pieces)):
                problems.append(f"gluing references missing piece {p}")
                return problems
            if not (0 <= s < plan.pieces[p][1]):
                problems.append(f"gluing {(pa, sa, pb, sb)} references missing slot")
                return problems
            if (p, s) in used:
                problems.append(f"slot {(p, s)} glued twice in {(pa, sa, pb, sb)}")
                return problems
            used.add((p, s))

    total_slots = sum(b for _h, b in plan.pieces)
    if len(used) != total_slots:
        problems.append(f"{total_slots - len(used)} boundary slots left unglued")

    chi = sum(2 - 2 * h - b for h, b in plan.pieces)
    if chi != 2 - 2 * g:
        problems.append(f"Euler characteristic {chi} does not close to genus {g}")

    neighbours: list[set[int]] = [set() for _ in plan.pieces]
    for (pa, _sa, pb, _sb) in plan.gluings:
        neighbours[pa].add(pb)
        neighbours[pb].add(pa)

    separating, components = _cut_vertices(neighbours)
    if components > 1:
        problems.append("gluing graph is not connected")
        # the rest is split already: deleting a piece leaves it connected
        # only when the piece is alone in one of exactly two components
        separating = {v for v, nbs in enumerate(neighbours) if components > 2 or not nbs <= {v}}

    if len(set(plan.marked_pieces)) != len(plan.marked_pieces):
        problems.append("marked pieces are not distinct")
    for m in plan.marked_pieces:
        if not (0 <= m < len(plan.pieces)):
            problems.append(f"marked piece {m} does not exist")
        elif m in separating:
            problems.append(f"removing marked piece {m} disconnects the assembly")
    return problems


def _cut_vertices(neighbours: list[set[int]]) -> tuple[set[int], int]:
    """Cut vertices of each connected component of a graph given by
    neighbour sets, and the number of components.

    One iterative depth-first search per component with Hopcroft-Tarjan
    lowpoints: a non-root vertex v is a cut vertex when some DFS child w
    has low[w] >= disc[v], and the root when it has two DFS children.
    Self-loops and the edge back to the parent only ever lower low[] to a
    discovery time the test already allows, so neither needs skipping.
    """
    n = len(neighbours)
    disc = [-1] * n
    low = [0] * n
    visited = components = 0
    cut: set[int] = set()
    for root in range(n):
        if disc[root] >= 0:
            continue
        components += 1
        disc[root] = low[root] = visited
        visited += 1
        root_children = 0
        stack = [(root, iter(neighbours[root]))]
        while stack:
            v, pending = stack[-1]
            for w in pending:
                if disc[w] < 0:
                    disc[w] = low[w] = visited
                    visited += 1
                    stack.append((w, iter(neighbours[w])))
                    break
                low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if not stack:
                    break
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                if u == root:
                    root_children += 1
                elif low[v] >= disc[u]:
                    cut.add(u)
        if root_children > 1:
            cut.add(root)
    return cut, components


def pack_count(g: int, kind: str, ell: int) -> int:
    """Marked pieces of the ``kind`` packing of genus g with parameter
    ell: floor(g/ell) for ``fit1`` and ``fit2``, floor((g-1)/ell) for ``fit3``."""
    if not isinstance(ell, int) or ell < 1:
        raise SurfaceError(f"ell must be a positive integer, got {ell!r}")
    if kind in ("fit1", "fit2"):
        return g // ell
    if kind == "fit3":
        return (g - 1) // ell
    raise SurfaceError(f"unknown packing kind {kind!r}")


def pack_subsurfaces(g: int, kind: str, ell: int) -> AssemblyPlan:
    """Disjoint packings of the closed genus-g surface, each with
    :func:`pack_count` marked pieces:

    * ``fit1``: marked copies of the genus-ell one-boundary piece, hung
      off a sphere carrier (connected-sum picture).
    * ``fit2``: marked non-separating copies of the (ell-1)-genus
      three-boundary piece in a cyclic chain, capped off.
    * ``fit3``: marked non-separating copies of the genus-ell two-boundary
      piece in a cyclic chain.
    """
    if not isinstance(g, int) or g < 1:
        raise SurfaceError(f"genus must be a positive integer, got {g!r}")
    q = pack_count(g, kind, ell)
    if q == 0:
        name, top = ("g-1", g - 1) if kind == "fit3" else ("g", g)
        raise SurfaceError(f"{kind} packs no pieces for ell={ell} > {name}={top}")

    if kind == "fit1":
        leftover = g - q * ell
        holes = q + (1 if leftover else 0)
        pieces: list[tuple[int, int]] = [(0, holes)]
        gluings = []
        for k in range(q):
            pieces.append((ell, 1))
            gluings.append((0, k, k + 1, 0))
        if leftover:
            pieces.append((leftover, 1))
            gluings.append((0, q, q + 1, 0))
        return AssemblyPlan(tuple(pieces), tuple(gluings), tuple(range(1, q + 1)))

    if kind == "fit2":
        leftover = g - q * ell
        # slots of each ring piece: 0 = forward, 1 = cap, 2 = backward
        pieces = [(ell - 1, 3)] * q + [(leftover, q)]
        gluings = [(i, 0, (i + 1) % q, 2) for i in range(q)]
        gluings += [(i, 1, q, i) for i in range(q)]
        return AssemblyPlan(tuple(pieces), tuple(gluings), tuple(range(q)))

    # fit3
    leftover = (g - 1) - q * ell
    pieces = [(ell, 2)] * q
    if leftover:
        pieces.append((leftover, 2))
    n = len(pieces)
    gluings = [(i, 0, (i + 1) % n, 1) for i in range(n)]
    return AssemblyPlan(tuple(pieces), tuple(gluings), tuple(range(q)))
