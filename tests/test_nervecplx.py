"""Nerves, joins, and reduced mod-2 homology."""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twistcert import nervecplx as nc


def _full_simplex(n):
    """Reference: the n-simplex on vertices 0..n."""
    return nc.SimplicialComplex([range(n + 1)])


def _boundary_simplex(n):
    """Reference: the boundary of the n-simplex, a combinatorial (n-1)-sphere."""
    return nc.SimplicialComplex(combinations(range(n + 1), n))


def _euler_characteristic(k):
    """Reference: alternating face count, every face enumerated (no
    reduction), the Euler-Poincare oracle for betti_z2."""
    faces = {frozenset(c) for m in k.maximal_faces for r in range(1, len(m) + 1)
             for c in combinations(m, r)}
    return sum((-1) ** (len(f) - 1) for f in faces)


def test_nerve_triangle_boundary():
    # three pairwise-meeting sets with empty triple intersection
    n = nc.nerve([{1, 2}, {2, 3}, {1, 3}])
    assert n == _boundary_simplex(2)
    assert not n.has_simplex({0, 1, 2})


def test_nerve_intervals_full_simplex():
    n = nc.nerve([set(range(0, 3)), set(range(1, 4)), set(range(2, 5))])
    assert n == _full_simplex(2)


def test_nerve_empty_family():
    assert not nc.nerve([]).maximal_faces


def test_nerve_empty_member_is_isolated():
    n = nc.nerve([{1}, set(), {1, 2}])
    assert n.vertex_labels == (0, 1, 2)
    assert not n.has_simplex({1})
    assert n.has_simplex({0, 2})


def test_nerve_hands_at_most_one_candidate_face_per_point(monkeypatch):
    # the seven sets {0, i} share the point 0: its star is the one maximal
    # face, where growing faces by extension would hand all 127 of them
    handed = []
    original = nc.SimplicialComplex

    def counting(maximal_faces, vertex_labels=None):
        faces = list(maximal_faces)
        handed.append(len(faces))
        return original(faces, vertex_labels)

    monkeypatch.setattr(nc, "SimplicialComplex", counting)
    family = [{0, i} for i in range(1, 8)]
    n = nc.nerve(family)
    assert len(handed) == 1 and handed[0] <= len(set().union(*family)) == 8
    assert n.maximal_faces == (frozenset(range(7)),) and n.vertex_labels == tuple(range(7))


def test_complex_refuses_an_unlisted_vertex():
    with pytest.raises(ValueError) as exc:
        nc.SimplicialComplex([[0, 1]], vertex_labels=[0])
    assert str(exc.value) == "simplices use unlisted vertices {1}"


def test_complex_equals_no_other_type():
    k = nc.SimplicialComplex([[0, 1]])
    assert k.__eq__([[0, 1]]) is NotImplemented
    assert k != [[0, 1]]
    assert k == nc.SimplicialComplex([[1, 0]])


def test_join_dimension_example():
    j = nc.join(_full_simplex(1), nc.SimplicialComplex([["x", "y", "z"]]))
    assert j.dim == 4


def test_join_with_empty():
    k = _boundary_simplex(2)
    assert nc.join(k, nc.SimplicialComplex([])) == k
    assert nc.join(nc.SimplicialComplex([]), k) == k


def test_join_of_void_complexes_is_void_with_both_labels():
    # the void complex's one face is the empty face, which joins to itself
    j = nc.join(nc.SimplicialComplex([], vertex_labels=("u",)), nc.SimplicialComplex([], vertex_labels=("v", "w")))
    assert j.maximal_faces == () and j.dim == -1
    assert j.vertex_labels == ("u", "v", "w")


def test_void_complex_is_the_minus_one_sphere_and_no_other():
    void = nc.SimplicialComplex([])
    assert nc.is_homology_sphere(void, -1)
    assert not nc.is_homology_sphere(void, -2)


def test_join_requires_disjoint_labels():
    with pytest.raises(ValueError):
        nc.join(_full_simplex(1), _full_simplex(1))


def test_join_s0_s0_is_circle():
    sq = nc.join(_boundary_simplex(1), nc.SimplicialComplex([["x"], ["y"]]))
    assert sorted(len(f) for f in sq.maximal_faces) == [2, 2, 2, 2]
    assert nc.is_homology_sphere(sq, 1)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_join_dimension_formula(data):
    def random_complex(tag):
        n_verts = data.draw(st.integers(1, 5))
        verts = [f"{tag}{i}" for i in range(n_verts)]
        n_faces = data.draw(st.integers(1, 4))
        faces = [
            data.draw(st.sets(st.sampled_from(verts), min_size=1, max_size=n_verts))
            for _ in range(n_faces)
        ]
        return nc.SimplicialComplex(faces)

    k1, k2 = random_complex("u"), random_complex("v")
    assert nc.join(k1, k2).dim == k1.dim + k2.dim + 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_nerve_union_contained_in_join(data):
    """One-sided containment holds for arbitrary families."""
    ground = list(range(8))
    n1 = data.draw(st.integers(1, 4))
    n2 = data.draw(st.integers(1, 4))
    fam1 = [data.draw(st.sets(st.sampled_from(ground), max_size=5)) for _ in range(n1)]
    fam2 = [data.draw(st.sets(st.sampled_from(ground), max_size=5)) for _ in range(n2)]
    union_nerve = nc.nerve(fam1 + fam2)
    nerve1 = nc.nerve(fam1)
    nerve2 = nc.SimplicialComplex(
        [{v + n1 for v in m} for m in nc.nerve(fam2).maximal_faces],
        vertex_labels=tuple(range(n1, n1 + n2)),
    )
    joined = nc.join(nerve1, nerve2)
    for m in union_nerve.maximal_faces:
        assert joined.has_simplex(m), (fam1, fam2, sorted(m))



def _brute_force_maximal(faces) -> tuple[frozenset, ...]:
    """Distinct nonempty faces not strictly inside another, longest first,
    ties in first-seen order."""
    distinct = list(dict.fromkeys(frozenset(f) for f in faces if f))
    kept = [f for f in distinct if not any(f < other for other in distinct)]
    return tuple(sorted(kept, key=len, reverse=True))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_maximal_faces_match_brute_force_prune(data):
    base = data.draw(st.lists(st.frozensets(st.integers(0, 5), min_size=1, max_size=5), min_size=1, max_size=6))
    # a subset of a drawn face is a duplicate of it or nested in it
    inner = [data.draw(st.frozensets(st.sampled_from(sorted(f)))) for f in data.draw(st.lists(st.sampled_from(base)))]
    faces = data.draw(st.permutations(base + inner))
    assert nc.SimplicialComplex(faces).maximal_faces == _brute_force_maximal(faces)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.frozensets(st.integers(0, 6), max_size=4), max_size=6))
def test_nerve_maximal_faces_match_brute_force(family):
    faces = [frozenset(idx) for size in range(1, len(family) + 1)
             for idx in combinations(range(len(family)), size)
             if frozenset.intersection(*(family[i] for i in idx))]
    assert set(nc.nerve(family).maximal_faces) == set(_brute_force_maximal(faces))

def _dense_gf2_rank(matrix: list[list[int]]) -> int:
    """Gaussian elimination over GF(2) on a dense 0/1 matrix."""
    m = [list(row) for row in matrix]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                m[r] = [a ^ b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def _reference_betti(k: nc.SimplicialComplex) -> tuple[int, ...]:
    """Reduced mod-2 Betti numbers from frozenset faces and dense boundary
    matrices, independent of the bitmask layers."""
    layers = []
    for q in range(k.dim + 1):
        faces = {frozenset(c) for m in k.maximal_faces for c in combinations(m, q + 1)}
        layers.append(sorted(faces, key=lambda f: sorted(map(repr, f))))
    ranks = [1 if layers else 0]
    for q in range(1, len(layers)):
        index = {f: i for i, f in enumerate(layers[q - 1])}
        matrix = [[0] * len(index) for _ in layers[q]]
        for r, face in enumerate(layers[q]):
            for v in face:
                matrix[r][index[face - {v}]] = 1
        ranks.append(_dense_gf2_rank(matrix))
    ranks.append(0)
    return tuple(len(layers[q]) - ranks[q] - ranks[q + 1] for q in range(len(layers)))


_labels = st.one_of(
    st.integers(-3, 9),
    st.text("abc", min_size=1, max_size=2),
    st.tuples(st.integers(0, 2), st.sampled_from("xy")),
)


@st.composite
def _complexes(draw):
    pool = draw(st.lists(_labels, min_size=1, max_size=8, unique=True))
    faces = draw(st.lists(st.lists(st.sampled_from(pool), min_size=1, max_size=6), max_size=5))
    if draw(st.booleans()):
        return nc.SimplicialComplex(faces, vertex_labels=pool)  # unused labels are phantoms
    return nc.SimplicialComplex(faces)


# the 6-vertex real projective plane: every pair of vertices is an edge of
# two triangles; mod 2 it has reduced Betti numbers (0, 1, 1)
_RP2 = nc.SimplicialComplex([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
                             (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)])


@settings(max_examples=300, deadline=2000)
@given(_complexes())
@example(_RP2)
@example(nc.SimplicialComplex([]))
@example(nc.SimplicialComplex([[7]]))
@example(nc.SimplicialComplex([["v"]]))
@example(nc.SimplicialComplex([[(0, "x")]], vertex_labels=[(0, "x"), (1, "y")]))
@example(_full_simplex(4))  # every face lies in the star
@example(nc.SimplicialComplex([(0, 1, 2), (3, 4, 5)]))  # two disjoint triangles
@example(nc.SimplicialComplex([["a"], ["b", "c"], ["d", "e", "f", "g"]]))  # the star is the vertex "a"
def test_betti_matches_dense_reference(k):
    betti = nc.betti_z2(k)
    assert betti == _reference_betti(k)
    chi = _euler_characteristic(k)
    if not k.maximal_faces:
        assert betti == () and chi == 0
    else:
        # Euler-Poincare for reduced homology
        assert sum((-1) ** q * b for q, b in enumerate(betti)) == chi - 1


@st.composite
def _tagged_complexes(draw, tag, max_vertices):
    """A nonempty complex on labels (tag, 0) .. (tag, max_vertices - 1)."""
    n = draw(st.integers(1, max_vertices))
    faces = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=5), min_size=1, max_size=5))
    return nc.SimplicialComplex([[(tag, v) for v in face] for face in faces])


def _betti_at(betti: tuple[int, ...], q: int) -> int:
    """b~_q from the tuple b~_0 .. b~_dim, zero outside that range."""
    return betti[q] if 0 <= q < len(betti) else 0


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_betti_of_join_obeys_kunneth(data):
    """Over a field, b~_r(K * L) = sum over i + j = r - 1 of b~_i(K) b~_j(L)
    for nonempty K and L; the join has up to 12 vertices and its own
    Betti numbers come from betti_z2 alone, never from the reference."""
    k = data.draw(_tagged_complexes("u", 11))
    l = data.draw(_tagged_complexes("v", 12 - len(k.vertex_labels)))
    bk, bl = _reference_betti(k), _reference_betti(l)
    joined = nc.join(k, l)
    expected = tuple(sum(_betti_at(bk, i) * _betti_at(bl, r - 1 - i) for i in range(r))
                     for r in range(joined.dim + 1))
    assert nc.betti_z2(joined) == expected


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_betti_ignores_labels_and_face_order(data):
    """Renaming the vertices by a bijection and shuffling the maximal faces
    and the labels moves the cone vertex and every index, not the answer."""
    k = data.draw(_complexes())
    rename = dict(zip(k.vertex_labels, data.draw(st.permutations(range(len(k.vertex_labels))))))
    faces = data.draw(st.permutations([[rename[v] for v in m] for m in k.maximal_faces]))
    labels = data.draw(st.permutations(list(rename.values())))
    assert nc.betti_z2(nc.SimplicialComplex(faces, vertex_labels=labels)) == nc.betti_z2(k)


def _rows_reduced(complexes) -> int:
    """Rows that betti_z2 feeds to the pivot reduction over the complexes."""
    fed = []
    reduce = nc._pivots

    def counting(rows):
        rows = list(rows)
        fed.extend(rows)
        return reduce(rows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nc, "_pivots", counting)
        for k in complexes:
            nc.betti_z2(k)
    return len(fed)


def test_betti_builds_rows_only_outside_one_star():
    """Only faces outside the cone vertex's closed star get rows; the
    whole complex with clearing fed 1,093, 127 and 38,975 rows."""
    _, octahedral, sphere = next(nc.sphere_joins([(1,) * 7]))
    assert sphere and _rows_reduced([octahedral]) <= 365
    assert _rows_reduced([_boundary_simplex(7)]) <= 1
    joins = [joined for _, joined, _ in nc.sphere_joins(nc.compositions(7))]
    assert len(joins) == 127 and _rows_reduced(joins) <= 4200


def test_betti_rp2():
    assert nc.betti_z2(_RP2) == (0, 1, 1)
    assert _euler_characteristic(_RP2) == 1
    assert not nc.is_homology_sphere(_RP2, 2)


@settings(max_examples=300, deadline=2000)
@given(st.data())
def test_gf2_rank_matches_dense_reference(data):
    width = data.draw(st.integers(1, 12))
    rows = data.draw(st.lists(st.integers(0, (1 << width) - 1), max_size=10))
    rows += [0] * data.draw(st.integers(0, 2))
    if rows:
        rows += data.draw(st.lists(st.sampled_from(rows), max_size=3))  # duplicates
    rows = data.draw(st.permutations(rows))
    dense = [[(row >> i) & 1 for i in range(width)] for row in rows]
    assert nc.gf2_rank(rows) == _dense_gf2_rank(dense)


def test_betti_boundary_3_simplex():
    assert nc.betti_z2(_boundary_simplex(3)) == (0, 0, 1)


def test_betti_cone_trivial():
    assert nc.betti_z2(_full_simplex(5)) == (0, 0, 0, 0, 0, 0)


def test_betti_two_points():
    two = nc.SimplicialComplex([["p"], ["q"]])
    assert nc.betti_z2(two) == (1,)
    assert nc.is_homology_sphere(two, 0)


def test_betti_join_of_two_sphere_boundaries():
    b2 = _boundary_simplex(2)
    b2b = nc.SimplicialComplex([{f"x{i}", f"x{j}"} for i, j in combinations(range(3), 2)])
    jj = nc.join(b2, b2b)
    assert nc.betti_z2(jj) == (0, 0, 0, 1)
    assert nc.is_homology_sphere(jj, 3)


def test_torus_complex_not_sphere():
    # 3x3 grid torus (diagonally split squares): betti (0, 2, 1) mod 2
    def v(r, c):
        return (r % 3) * 3 + (c % 3)

    faces = []
    for r in range(3):
        for c in range(3):
            faces.append({v(r, c), v(r + 1, c), v(r, c + 1)})
            faces.append({v(r + 1, c), v(r, c + 1), v(r + 1, c + 1)})
    torus = nc.SimplicialComplex(faces)
    assert _euler_characteristic(torus) == 0
    assert nc.betti_z2(torus) == (0, 2, 1)
    assert not nc.is_homology_sphere(torus, 2)


def test_sphere_joins_small():
    part_lists = [(1,), (2,), (1, 1), (2, 1), (3, 2), (1, 1, 1)]
    for parts, _, sphere in nc.sphere_joins(part_lists):
        assert sphere, parts


def test_helly_dimension_one_random():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(2, 6)
        fam = []
        for _ in range(n):
            a = rng.randint(0, 10)
            fam.append(frozenset(range(a, a + rng.randint(0, 5) + 1)))
        nv = nc.nerve(fam)
        if all(nv.has_simplex({i, j}) for i in range(n) for j in range(i + 1, n)):
            assert nv.has_simplex(range(n))
