"""Abstract simplicial complexes: nerves, joins, and reduced mod-2 homology.

The fixed-point machinery needs three things from complexes: the nerve
of a family of sets, the join (whose realisation is a sphere when the
factors are simplex boundaries), and a sphere detector.  Homology is
computed over the two-element field by boundary-matrix ranks, which is
enough to recognise the sphere obstruction at the sizes that occur.

The face layers are built and reduced top-down with clearing: once layer
q+1 is reduced, each q-face that is the lowest bit of a reduced row gets
no boundary row and no walk over its facets.  The rank is unchanged, as
that face's row lies in the span of the rows of higher index.  The face
counts are unchanged: the reduced row has zero boundary, so every facet
of the cleared face is a facet of another face of that row, of higher
index, and by downward induction a facet of an uncleared face.
"""

from __future__ import annotations

from itertools import combinations, groupby
from typing import Hashable, Iterable, Iterator, NamedTuple, Sequence


Vertex = Hashable


class SimplicialComplex:
    """Finite abstract simplicial complex, stored by its maximal faces.

    Simplices are nonempty frozensets of vertex labels; the empty face is
    implicit.  ``vertex_labels`` may list labels that appear in no
    simplex (isolated phantom vertices of a nerve whose set was empty).
    """

    def __init__(self, maximal_faces: Iterable[Iterable[Vertex]], vertex_labels=None):
        faces = dict.fromkeys(fs for fs in map(frozenset, maximal_faces) if fs)  # drops duplicates
        # drop faces contained in others; only a strictly longer face can
        # contain one, so equal-length faces are never compared
        pruned: list[frozenset] = []
        for _, same_length in groupby(sorted(faces, key=len, reverse=True), key=len):
            longer = tuple(pruned)
            pruned.extend(fs for fs in same_length if not any(fs < other for other in longer))
        self.maximal_faces: tuple[frozenset, ...] = tuple(pruned)
        verts: set = set().union(*pruned)
        if vertex_labels is None:
            self.vertex_labels = tuple(sorted(verts, key=repr))
        else:
            self.vertex_labels = tuple(vertex_labels)
            missing = verts - set(self.vertex_labels)
            if missing:
                raise ValueError(f"simplices use unlisted vertices {missing}")

    @property
    def dim(self) -> int:
        """Dimension; -1 for the empty complex."""
        return max(map(len, self.maximal_faces), default=0) - 1

    def is_empty(self) -> bool:
        return not self.maximal_faces

    def has_simplex(self, face: Iterable[Vertex]) -> bool:
        fs = frozenset(face)
        return not fs or any(fs <= m for m in self.maximal_faces)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return set(self.maximal_faces) == set(other.maximal_faces)

    def __repr__(self) -> str:
        faces = sorted(tuple(sorted(m, key=repr)) for m in self.maximal_faces)
        return f"SimplicialComplex({faces})"


def nerve(family: Sequence[Iterable]) -> SimplicialComplex:
    """Nerve of a family of finite sets: a simplex ties together the
    indices whose sets share a common element."""
    sets = [frozenset(f) for f in family]
    n = len(sets)
    # grow simplices by the downward-closure property, tracking the
    # running intersection
    live = {frozenset([i]): s for i, s in enumerate(sets) if s}
    all_faces: set[frozenset] = set(live)
    frontier = live
    while frontier:
        nxt: dict[frozenset, frozenset] = {}
        for face, inter in frontier.items():
            top = max(face)
            for j in range(top + 1, n):
                extended = inter & sets[j]
                if extended:
                    nxt[face | {j}] = extended
        all_faces.update(nxt)
        frontier = nxt
    return SimplicialComplex(all_faces, vertex_labels=tuple(range(n)))


def join(k1: SimplicialComplex, k2: SimplicialComplex) -> SimplicialComplex:
    """Join of two complexes; vertex label sets must be disjoint."""
    overlap = set(k1.vertex_labels) & set(k2.vertex_labels)
    if overlap:
        raise ValueError(f"join requires disjoint vertex labels; shared: {overlap}")
    if k1.is_empty():
        return SimplicialComplex(k2.maximal_faces, k1.vertex_labels + k2.vertex_labels)
    if k2.is_empty():
        return SimplicialComplex(k1.maximal_faces, k1.vertex_labels + k2.vertex_labels)
    maxs = [m1 | m2 for m1 in k1.maximal_faces for m2 in k2.maximal_faces]
    return SimplicialComplex(maxs, k1.vertex_labels + k2.vertex_labels)


def join_all(complexes: Sequence[SimplicialComplex]) -> SimplicialComplex:
    out = SimplicialComplex([])
    for k in complexes:
        out = join(out, k)
    return out


# ---------------------------------------------------------------------------
# homology over the two-element field


def _pivots(rows: Iterable[int]) -> dict[int, int]:
    """Row-reduce bitmask rows over the two-element field.  Each pivot is
    stored under its lowest set bit, so a row is reduced by looking up its
    current lowest bit until it vanishes or that bit is new."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            low = row & -row
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = row
                break
            row ^= pivot
    return pivots


def gf2_rank(rows: list[int]) -> int:
    """Rank of a matrix whose rows are given as bitmask integers."""
    return len(_pivots(rows))


class BettiVector(NamedTuple):
    """Reduced mod-2 Betti numbers b~_0 .. b~_dim."""

    values: tuple[int, ...]

    def __getitem__(self, k: int) -> int:
        return self.values[k] if 0 <= k < len(self.values) else 0


def _boundary_rows(layer: dict[int, int], below: dict[int, int], cleared: set[int]) -> Iterator[int]:
    """Boundary rows of the uncleared faces, over facet indices that ``below`` gives on first sight."""
    for face, index in layer.items():
        if index in cleared:
            continue
        row, rest = 0, face
        while rest:
            low = rest & -rest
            rest ^= low
            row |= 1 << below.setdefault(face ^ low, len(below))
        yield row


def betti_z2(k: SimplicialComplex) -> BettiVector:
    """Reduced Betti numbers over the two-element field via boundary ranks,
    with clearing.  Faces are bitmasks over the positions of
    ``vertex_labels``, indexed in order of discovery within their layer."""
    if k.dim < 0:
        return BettiVector(())
    bit = {v: 1 << i for i, v in enumerate(k.vertex_labels)}
    layers: list[dict[int, int]] = [{} for _ in range(k.dim + 1)]
    for face in k.maximal_faces:
        layer = layers[len(face) - 1]
        layer[sum(bit[v] for v in face)] = len(layer)
    # rank of the boundary map C_q -> C_{q-1}; q = 0 is the augmentation
    ranks = [1] * (k.dim + 1) + [0]
    sizes = [0] * (k.dim + 1)
    cleared: set[int] = set()
    for q in range(k.dim, 0, -1):
        layer = layers.pop()  # once reduced, only its size is read again
        pivots = _pivots(_boundary_rows(layer, layers[-1], cleared))
        ranks[q], sizes[q] = len(pivots), len(layer)
        cleared = {low.bit_length() - 1 for low in pivots}
    sizes[0] = len(layers[0])
    return BettiVector(tuple(sizes[q] - ranks[q] - ranks[q + 1] for q in range(k.dim + 1)))


def is_homology_sphere(k: SimplicialComplex, d: int) -> bool:
    """True when the complex has the reduced mod-2 homology of the
    d-sphere concentrated in its own top dimension d."""
    if k.dim != d:
        return False
    return betti_z2(k).values == tuple(int(q == d) for q in range(d + 1))


def compositions(limit: int) -> Iterator[tuple[int, ...]]:
    """Every ordered list of positive parts with sum at most ``limit``."""
    for first in range(1, limit + 1):
        yield (first,)
        for rest in compositions(limit - first):
            yield (first,) + rest


def sphere_joins(
    part_lists: Iterable[Sequence[int]],
) -> Iterator[tuple[tuple[int, ...], SimplicialComplex, bool]]:
    """For each (k_1, .., k_r): the join of the boundaries of simplices of
    dimensions k_i on disjoint vertex ranges, and whether it is a homology
    sphere of dimension k_1 + .. + k_r - 1."""
    for parts in part_lists:
        factors, offset = [], 0
        for k in parts:
            factors.append(SimplicialComplex(combinations(range(offset, offset + k + 1), k)))
            offset += k + 1
        joined = join_all(factors)
        yield tuple(parts), joined, is_homology_sphere(joined, sum(parts) - 1)
