"""Abstract simplicial complexes: nerves, joins, and reduced mod-2 homology.

The fixed-point machinery needs three things from complexes: the nerve
of a family of sets, built from the stars of its points; the join, whose
unit is the void complex and whose realisation is a sphere when the
factors are simplex boundaries; and a sphere detector.  Homology is
computed over the two-element field by boundary-matrix ranks.

The detector computes H_*(K, st v) for a vertex v in the most maximal
faces.  A closed star is a cone, so the long exact sequence of the pair
gives H~_q(K) = H_q(K, st v) for every q >= 0, and only the faces outside
the star (those s with s + v not in K, all under the maximal faces that
miss v) are indexed or get boundary rows.

The face layers are built and reduced top-down with clearing: once layer
q+1 is reduced, each q-face that is the highest bit of a reduced row gets
no boundary row and no walk over its facets.  The rank is unchanged, as
that face's row lies in the span of the rows of lower index.  The face
counts are unchanged: the reduced row has zero relative boundary, so
every facet outside the star of the cleared face is a facet of another
face of that row, of lower index, and by upward induction a facet of an
uncleared face.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, combinations, groupby
from typing import Hashable, Iterable, Iterator, Sequence


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
        # contain one, so equal-length faces are never compared and the
        # longest are kept unscanned
        groups = groupby(sorted(faces, key=len, reverse=True), key=len)
        pruned: list[frozenset] = list(next(groups, (0, ()))[1])
        for _, same_length in groups:
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
    indices whose sets share a common element, so it lies in the star of
    one point (the indices of the sets holding it), and the stars of the
    points generate the nerve.  An empty set's index is a phantom vertex."""
    stars: dict[Hashable, list[int]] = {}
    for i, s in enumerate(family):
        for x in s:
            stars.setdefault(x, []).append(i)
    return SimplicialComplex(stars.values(), vertex_labels=tuple(range(len(family))))


def join(k1: SimplicialComplex, k2: SimplicialComplex) -> SimplicialComplex:
    """Join of two complexes; vertex label sets must be disjoint.  The
    void complex, whose one face is the empty face, is its unit."""
    overlap = set(k1.vertex_labels) & set(k2.vertex_labels)
    if overlap:
        raise ValueError(f"join requires disjoint vertex labels; shared: {overlap}")
    maxs = [m1 | m2 for m1 in k1.maximal_faces or (frozenset(),) for m2 in k2.maximal_faces or (frozenset(),)]
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
    stored under the bit length of its highest set bit, so a row is reduced
    by looking up its current bit length until it vanishes or that length
    is new."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length()
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = row
                break
            row ^= pivot
    return pivots


def gf2_rank(rows: list[int]) -> int:
    """Rank of a matrix whose rows are given as bitmask integers."""
    return len(_pivots(rows))


def _relative_rows(layer: dict[int, int], below: dict[int, int], cleared: set[int],
                   through: dict[int, int]) -> Iterator[int]:
    """Relative boundary rows of the uncleared faces.  A facet is in the
    star, and gets no column, when the maximal faces through the cone
    vertex that hold each of its vertices (``through``, a bitmask per
    vertex bit) share one; other facets get indices in ``below`` on
    first sight."""
    for face, index in layer.items():
        if index in cleared:
            continue
        row, rest = 0, face
        while rest:
            low = rest & -rest
            rest ^= low
            facet = bits = face ^ low
            shared = -1
            while bits and shared:
                b = bits & -bits
                bits ^= b
                shared &= through[b]
            if not shared:
                row |= 1 << below.setdefault(facet, len(below))
        yield row


def betti_z2(k: SimplicialComplex) -> tuple[int, ...]:
    """Reduced mod-2 Betti numbers b~_0 .. b~_dim, as the homology of K
    relative to the closed star of a vertex in the most maximal faces,
    via boundary ranks with clearing.  Faces are bitmasks over the
    positions of ``vertex_labels``, indexed in order of discovery within
    their layer; faces in the star are never indexed."""
    dim = k.dim
    if dim < 0:
        return ()
    bit = {v: 1 << i for i, v in enumerate(k.vertex_labels)}
    counts = Counter(chain.from_iterable(k.maximal_faces))
    cone = max(k.vertex_labels, key=counts.__getitem__)
    through = dict.fromkeys(bit.values(), 0)
    layers: list[dict[int, int]] = [{} for _ in range(dim + 1)]
    star = 0
    for face in k.maximal_faces:
        if cone in face:
            for v in face:
                through[bit[v]] |= 1 << star
            star += 1
        else:
            layer = layers[len(face) - 1]
            layer[sum(bit[v] for v in face)] = len(layer)
    # rank of the relative boundary map C_q -> C_{q-1}; nothing below q = 0
    ranks = [0] * (dim + 2)
    sizes = [0] * (dim + 1)
    cleared: set[int] = set()
    for q in range(dim, 0, -1):
        layer = layers.pop()  # once reduced, only its size is read again
        pivots = _pivots(_relative_rows(layer, layers[-1], cleared, through))
        ranks[q], sizes[q] = len(pivots), len(layer)
        cleared = {top - 1 for top in pivots}
    sizes[0] = len(layers[0])
    return tuple(sizes[q] - ranks[q] - ranks[q + 1] for q in range(dim + 1))


def is_homology_sphere(k: SimplicialComplex, d: int) -> bool:
    """True when the complex has the reduced mod-2 homology of the
    d-sphere concentrated in its own top dimension d."""
    if k.dim != d:
        return False
    return betti_z2(k) == tuple(int(q == d) for q in range(d + 1))


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
