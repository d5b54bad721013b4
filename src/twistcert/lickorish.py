"""Syntactic combinatorics of the Lickorish generator system.

The generating set for the mapping class group of a closed orientable
genus-g surface used here consists of 3g-1 simple closed curves

    a_1..a_g,  b_1..b_g,  g_1..g_{g-1}

which are pairwise disjoint except for the single crossings

    a_i x b_i,   b_i x g_i,   b_{i+1} x g_i.

This module knows nothing about the surface itself: it handles curve
identifiers, the intersection graph (a tree), chains, the handle windows
(lo, hi, lt, rt) that enclose the connected non-chains, and the
enclosure claims used by the derivation engine.  The semantic
counterpart (regular neighbourhoods, genus bookkeeping) lives in
``twistcert.surface``.  Frozen records throughout the package are
``typing.NamedTuple``s: the package imports no ``dataclasses``, which
with ``inspect`` would add ~20 ms to the start of every command.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Optional

from . import _make_checked


class LickorishError(ValueError):
    """Invalid curve set, window, or genus parameter."""


# ---------------------------------------------------------------------------
# curve identifiers


def curve_names(g: int) -> list[str]:
    """All 3g-1 curve ids for genus ``g``, in index order a*, b*, g*."""
    _check_genus(g)
    return (
        [f"a{i}" for i in range(1, g + 1)]
        + [f"b{i}" for i in range(1, g + 1)]
        + [f"g{i}" for i in range(1, g)]
    )


def _check_genus(g: int) -> None:
    if not isinstance(g, int) or g < 2:
        raise LickorishError(f"genus must be an integer >= 2, got {g!r}")


def curve_index(name: str, g: int) -> int:
    """Dense index of a curve id: a_i -> i-1, b_i -> g+i-1, g_i -> 2g+i-1."""
    if not name or name[0] not in "abg":
        raise LickorishError(f"bad curve id {name!r}")
    try:
        idx = int(name[1:])
    except ValueError:
        raise LickorishError(f"bad curve id {name!r}") from None
    if f"{name[0]}{idx}" != name:  # int() also reads "1_0", " 1", "+1", "01" and non-ASCII digits
        raise LickorishError(f"bad curve id {name!r}")
    hi = g - 1 if name[0] == "g" else g
    if not 1 <= idx <= hi:
        raise LickorishError(f"curve id {name!r} out of range for genus {g}")
    return _run(g, name[0], idx, idx).bit_length() - 1


class CurveSet(NamedTuple("_CurveSet", [("genus", int), ("mask", int)])):
    """A subset of the generator curves at a fixed genus: bit i of
    ``mask`` is the curve whose :func:`curve_index` is i.  ``len`` is
    the number of curves."""

    __slots__ = ()
    _make = classmethod(_make_checked)

    def __new__(cls, genus: int, mask: int) -> "CurveSet":
        _check_genus(genus)
        if type(mask) is not int or not 0 <= mask < 1 << (3 * genus - 1):
            raise LickorishError(f"mask {mask!r} out of range for genus {genus}")
        return tuple.__new__(cls, (genus, mask))

    @classmethod
    def of(cls, g: int, names: Iterable[str]) -> "CurveSet":
        """The set of the named curves; an unknown name is rejected."""
        _check_genus(g)
        mask = 0
        for name in names:
            mask |= 1 << curve_index(name, g)
        return cls(g, mask)

    @property
    def members(self) -> frozenset[str]:
        return frozenset(self.sorted_members())

    def __len__(self) -> int:
        return self.mask.bit_count()

    def sorted_members(self) -> list[str]:
        names = curve_names(self.genus)
        return [names[i] for i in _bits(self.mask)]


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _run(g: int, kind: str, lo: int, hi: int) -> int:
    """Mask of the curves kind_lo..kind_hi (empty when lo > hi)."""
    if lo > hi:
        return 0
    first = {"a": 0, "b": g, "g": 2 * g}[kind] + lo - 1
    return ((1 << (hi - lo + 1)) - 1) << first


def crossing_pairs(g: int) -> list[tuple[int, int]]:
    """The 3g-2 crossings, each of multiplicity one, as pairs of
    :func:`curve_index` values, a family at a time: a_i x b_i for
    i = 1..g, then b_i x g_i and b_{i+1} x g_i for i = 1..g-1."""
    _check_genus(g)
    pairs = [(i, g + i) for i in range(g)]
    pairs += [(g + i, 2 * g + i) for i in range(g - 1)]
    pairs += [(g + i + 1, 2 * g + i) for i in range(g - 1)]
    return pairs


def adjacency(g: int) -> dict[str, frozenset[str]]:
    """Intersection-graph adjacency of the full generator set."""
    names = curve_names(g)
    adj: dict[str, set[str]] = {name: set() for name in names}
    for x, y in crossing_pairs(g):
        adj[names[x]].add(names[y])
        adj[names[y]].add(names[x])
    return {k: frozenset(v) for k, v in adj.items()}


# ---------------------------------------------------------------------------
# connectivity and chains


def is_connected_mask(g: int, mask: int) -> bool:
    """True when the union of the curves is connected (empty set counts).

    The intersection graph is a tree, so a subset spans a forest with
    one piece per vertex in excess of its edges: the subset is connected
    exactly when it holds |S| - 1 crossing pairs.  The pairs a_i b_i,
    b_i g_i and b_{i+1} g_i are counted a family at a time by aligning
    the a, b and g runs of the mask.
    """
    if not mask:
        return True
    run = (1 << g) - 1
    a, b, gs = mask & run, (mask >> g) & run, mask >> (2 * g)
    edges = (a & b).bit_count() + (b & gs).bit_count() + ((b >> 1) & gs).bit_count()
    return edges == mask.bit_count() - 1


def _spine_runs(g: int) -> Iterator[tuple[int, int, int]]:
    """(p, q, mask) for each run p..q of positions on the spine
    b_1, g_1, b_2, ..., g_{g-1}, b_g of the intersection tree, where b_i
    sits at position 2(i-1) and g_i at 2i-1.  The tree is a caterpillar:
    a_i, curve bit i-1, hangs from b_i and so from position 2(i-1)."""
    for p in range(2 * g - 1):
        run = 0
        for q in range(p, 2 * g - 1):
            run |= 1 << ((g if q % 2 == 0 else 2 * g) + q // 2)
            yield p, q, run


def connected_masks(g: int) -> list[int]:
    """Every nonempty connected subset as a bitmask, in ascending order:
    the subtrees of the caterpillar, each an a alone, or a spine run with
    any subset of the a's hanging from its b's, for the run p..q the
    contiguous a bits (p+1)//2..q//2 (none for a lone g).
    """
    _check_genus(g)
    out = [1 << i for i in range(g)]  # each a alone
    for p, q, run in _spine_runs(g):
        lo, hi = (p + 1) // 2, q // 2
        out += [run | pend << lo for pend in range(1 << (hi - lo + 1))]
    out.sort()
    return out


def chain_masks(g: int) -> list[int]:
    """Every chain, each once, as a bitmask in ascending order: the paths
    of the intersection tree, n(n+1)/2 of them for its n = 3g-1 curves.
    A path is a curve alone, or the spine run between two curves with
    both curves: an a alone, or a spine run with the a hanging from
    either end b, both or neither.
    """
    _check_genus(g)
    hang = [(0, 1 << p // 2) if p % 2 == 0 else (0,) for p in range(2 * g - 1)]  # the a at p, if any
    out = [1 << i for i in range(g)]  # each a alone
    for p, q, run in _spine_runs(g):
        # a set, as for p == q both ends hang the same a
        out += {run | left | right for left in hang[p] for right in hang[q]}
    out.sort()
    return out


def disconnected_sizes(g: int) -> set[int]:
    """Sizes k that some disconnected k-subset has: 2..3g-2.

    One curve, and the full set (the whole intersection tree), are
    connected.  b_1 crosses only a_1 and g_1, so the other 3g-3 curves
    form a subtree, which has a connected subset of every size 1..3g-3
    (grow one neighbour at a time); a_1, which crosses only b_1, joined
    to one of size k-1 is a disconnected k-subset.
    """
    return set(range(2, 3 * g - 1))


def _has_branch(g: int, mask: int) -> bool:
    """Whether some b_i of the set crosses a_i, g_{i-1} and g_i in it.
    Only a b curve has three neighbours in the intersection tree, so a
    connected set is a chain exactly when this is false."""
    gs = mask >> (2 * g)
    return bool((mask >> g) & mask & gs & (gs << 1))


def chain_order(s: CurveSet) -> Optional[list[int]]:
    """Ordering C_1..C_m, as :func:`curve_index` values, with consecutive
    curves crossing once and all other pairs disjoint, or None when the
    set is not a chain.

    A single curve is a 1-chain.
    """
    mask = s.mask
    if not mask:
        raise LickorishError("chain_order requires a nonempty set")
    if len(s) == 1:
        return [mask.bit_length() - 1]
    g = s.genus
    if _has_branch(g, mask):
        return None
    # with no branch every degree is at most 2 and no b holds all three
    # crossings, so the xor of a curve's families marks the ends (degree 1)
    run = (1 << g) - 1
    a, b, gs = mask & run, (mask >> g) & run, mask >> (2 * g)
    ab, bg, bg_next = a & b, b & gs, (b >> 1) & gs
    ends = ab | (ab ^ bg ^ bg_next << 1) << g | (bg ^ bg_next) << (2 * g)
    if ends.bit_count() != 2:
        return None  # degree-0 piece or a cycle; either way not a chain
    seen = ends & -ends  # the end of lower index
    order = [seen.bit_length() - 1]
    nxt = _crossing(g, order[0]) & mask
    while nxt:  # degrees are <= 2, so one unseen neighbour at most
        order.append(nxt.bit_length() - 1)
        seen |= nxt
        nxt = _crossing(g, order[-1]) & mask & ~seen
    if len(order) != len(s):
        return None  # disconnected
    return order


def _crossing(g: int, i: int) -> int:
    """Mask of the curves crossing curve i, a :func:`curve_index`, by index
    shifts: a_i crosses b_i, g_i crosses b_i and b_{i+1}, and b_i crosses
    a_i, g_{i-1} (none for b_1) and g_i (for b_g a bit past every curve)."""
    if i < g:
        return 1 << (i + g)
    if i >= 2 * g:
        return 3 << (i - g)
    return 1 << (i - g) | (3 << (i + g - 1) if i > g else 1 << (2 * g))


# ---------------------------------------------------------------------------
# handle windows


class Window(NamedTuple("_Window", [("lo", int), ("hi", int), ("lt", int), ("rt", int)])):
    """The handle window lo..hi, reaching into handle lo-1 when ``lt`` is
    1 and into handle hi+1 when ``rt`` is 1: the subsurface enclosing a
    connected non-chain whose b's are b_lo..b_hi, lt and rt saying whether
    it holds g_{lo-1} and g_hi.  A lone handle with no g end is not a
    window; its curves a_lo, b_lo are a chain.  Whether the window fits
    genus g, hi + rt <= g, is checked when its support is built."""

    __slots__ = ()
    _make = classmethod(_make_checked)

    def __new__(cls, lo: int, hi: int, lt: int, rt: int) -> "Window":
        if lt not in (0, 1) or rt not in (0, 1) or not 1 + lt <= lo <= hi or lo == hi and not lt | rt:
            raise LickorishError(f"no window ({lo}, {hi}, {lt}, {rt})")
        return tuple.__new__(cls, (lo, hi, lt, rt))

    def support(self, g: int) -> CurveSet:
        """The generator curves in the window: a and b of handles lo..hi,
        and g_{lo-lt}..g_{hi-1+rt}."""
        lo, hi, lt, rt = self
        if hi + rt > g:
            raise LickorishError(f"window {self.label} out of range for genus {g}")
        return CurveSet(g, _run(g, "a", lo, hi) | _run(g, "b", lo, hi) | _run(g, "g", lo - lt, hi - 1 + rt))

    @property
    def claim(self) -> tuple[int, int]:
        """(genus, boundary) of the window: one genus per full handle, and
        one boundary circle plus one per g end."""
        return self.hi - self.lo + 1, 1 + self.lt + self.rt

    @property
    def m(self) -> int:
        """Length of the chain the window spans from end to end, its
        support less the a's: 2w - 1 + lt + rt for w = hi - lo + 1."""
        return 2 * (self.hi - self.lo) + 1 + self.lt + self.rt

    @property
    def label(self) -> str:
        """The two end curves, as in ``[g199,b201]``."""
        left = f"g{self.lo - 1}" if self.lt else f"b{self.lo}"
        right = f"g{self.hi}" if self.rt else f"b{self.hi}"
        return f"[{left},{right}]"


def enclosing_interval(s: CurveSet) -> Window:
    """The window of least m whose support contains a connected non-chain
    set, which has m strictly below |S|.

    Let lo and hi be the lowest and highest handle holding an a or b
    curve of S, and lt and rt whether S holds g_{lo-1} and g_hi.  S holds
    b_lo..b_hi, as a_k crosses only b_k, and the g's between them.  A
    window containing S reaches at least as far on each side, and a
    further handle adds 2 to m where a g end adds 1, so (lo, hi, lt, rt)
    is the window of least m that contains S, and the only one.  Its m is
    |S| less the a's of S, and a branch holds an a, so m < |S|.  A
    connected non-chain without that would contradict the size
    classification this engine is built on, so that case raises instead
    of degrading the claim.
    """
    g, smask = s.genus, s.mask
    if not smask or not is_connected_mask(g, smask):
        raise LickorishError("enclosing_interval requires a nonempty connected set")
    if not _has_branch(g, smask):
        raise LickorishError("enclosing_interval is for non-chains; classify chains directly")
    size = smask.bit_count()
    handles = (smask | smask >> g) & ((1 << g) - 1)  # a connected non-chain has a b curve
    lo, hi = (handles & -handles).bit_length(), handles.bit_length()
    lt = int(lo > 1 and smask >> (2 * g + lo - 2) & 1)  # g_{lo-1} in S
    rt = smask >> (2 * g + hi - 1) & 1  # g_hi in S (there is no g_g)
    window = Window(lo, hi, lt, rt)
    if window.m < size:
        return window
    raise LickorishError(
        f"no window with m < {size} encloses {sorted(s.members)}; "
        "this contradicts the size classification and should be reported"
    )


# ---------------------------------------------------------------------------
# enclosure claims


class EnclosureClaim(NamedTuple):
    """Upper bound on an enclosing subsurface, genus and boundary count,
    which must also have connected complement; ``window`` is the
    enclosing window of a non-chain, None for a chain."""

    genus_bound: int
    boundary_bound: int
    window: Optional[Window] = None


def separating_chain_form(s: CurveSet) -> Optional[tuple[int, int]]:
    """Detect the separating-chain pattern {a_i, a_j} + b_i..b_j + g_i..g_{j-1}.

    These are exactly the chains obtained from the support of the window
    (i, j, 0, 0) by deleting its interior a's.  Returns (i, j) or None.
    """
    g = s.genus
    a_mask = s.mask & _run(g, "a", 1, g)
    if a_mask.bit_count() != 2:
        return None
    i, j = (a_mask & -a_mask).bit_length(), a_mask.bit_length()
    expected = _run(g, "a", i, i) | _run(g, "a", j, j) | _run(g, "b", i, j) | _run(g, "g", i, j - 1)
    if s.mask == expected:
        return i, j
    return None


def _chain_claim(s: CurveSet) -> EnclosureClaim:
    """Enclosure claim for a chain of m = |S| curves: even chains close
    up to genus m/2 with one boundary circle, odd non-separating chains
    to genus (m-1)/2 with two, and the separating odd family to the
    handle window of genus (m-1)/2 with a single boundary circle."""
    m = len(s)
    if m % 2 == 0:
        return EnclosureClaim(m // 2, 1)
    sep = separating_chain_form(s)
    if sep is not None:
        i, j = sep
        if m != 2 * (j - i) + 3:
            raise LickorishError(f"separating chain a{i}..a{j} has length {m}, not {2 * (j - i) + 3}")
        return EnclosureClaim(j - i + 1, 1)
    return EnclosureClaim((m - 1) // 2, 2)


def size_classify(s: CurveSet) -> EnclosureClaim:
    """Enclosure claim for any nonempty connected subset.

    Chains classify directly; everything else takes the claim of its
    enclosing window, which the claim carries.  A chain order proves its
    set connected, so connectivity is tested only when there is none, by
    the guard of :func:`enclosing_interval`.
    """
    if not s.mask:
        raise LickorishError("size_classify requires a nonempty connected set")
    if chain_order(s) is not None:
        return _chain_claim(s)
    window = enclosing_interval(s)
    return EnclosureClaim(*window.claim, window)


def claim_fits_clause(claim: EnclosureClaim, size: int) -> bool:
    """Check a claim against the two clauses of the size classification:
    even sets allow (l,1) or non-separating (<=l-1, 3); odd sets allow
    non-separating (l, <=2) or (<=l-1, <=3), with l = floor(size/2)."""
    h, b = claim.genus_bound, claim.boundary_bound
    l = size // 2
    if size % 2 == 0:
        return (h <= l and b <= 1) or (h <= l - 1 and b <= 3)
    return (h <= l and b <= 2) or (h <= l - 1 and b <= 3)


def classified_subsets(g: int) -> Iterator[tuple[CurveSet, Optional[EnclosureClaim], Optional[tuple[str, str]]]]:
    """Each subset :func:`connected_masks` enumerates, in its order, as
    (set, claim, defect); a defect is a (kind, message) pair, kind
    ``enumerator`` (the set is disconnected) or ``classifier``
    (:func:`size_classify` raised), both with no claim, or ``clause``
    (:func:`claim_fits_clause` refuses the claim)."""
    for mask in connected_masks(g):
        s = CurveSet(g, mask)
        if not is_connected_mask(g, mask):
            yield s, None, ("enumerator", "enumerated subset is disconnected")
            continue
        try:
            claim = size_classify(s)
        except LickorishError as exc:
            yield s, None, ("classifier", f"classifier failed: {exc}")
            continue
        size = mask.bit_count()
        if claim_fits_clause(claim, size):
            yield s, claim, None
        else:
            h, b = claim.genus_bound, claim.boundary_bound
            yield s, claim, ("clause", f"claim ({h},{b}) fits neither clause for size {size}")
