"""Derivation engine for fixed-point certificates.

Encodes the commuting/bootstrap corollaries and the genus-window
classification as inference rules, emits certificates that a fixed point
exists for the whole twist group at a given (genus, dimension), and
re-checks emitted certificates from scratch.

A certificate stores one schema node per (subset size, enclosure class)
rather than one node per subset; the verifier closes the gap by
enumerating every connected subset up to a configurable genus bound and
checking that every subset is concluded by some node, re-running the
classifier and all arithmetic side conditions as it goes.

The induction on subset size is spelled out as a chain: each size has
one ``size_induction`` node concluding "every subset of size <= s",
and every node of size s+1 cites that node alone instead of every
smaller node, so each node has O(1) premises and the certificate grows
linearly with the genus.

A node is the JSON object ``{"rule", "params", "premises"}``, and its
id is its position.  It stores nothing the checker can recompute from
its rule and params: its judgment, a JSON object such as the
certificate's ``conclusion``, is a function of the two (:func:`judgment`),
and a packing is named by ``(pack_kind, pack_ell)`` alone, so the
checker rebuilds and assembly-checks each distinct packing once.  The
bootstrap's factor count n = ``pack_count(g, pack_kind, pack_ell)`` and
conjugate count k = size - 1 are derived too, and with them the
dimension bound dim < n*k and the counting-lemma instance at k = size;
no node carries a witness (format 0.5.0).
"""

from __future__ import annotations

import json
from enum import Enum
from typing import Any, Iterator, NamedTuple, Optional

from . import __version__
from . import lickorish as lk
from . import surface as sf


class BootstrapError(ValueError):
    """Malformed request to the derivation engine."""


class Theorem(str, Enum):
    TECHNICAL = "technical"
    MAIN = "main"
    KG = "kg"


class Axiom(str, Enum):
    """Facts consumed without proof: metric or classical-algebra content."""

    R_TORSION = "R_TORSION"  # finite order implies a fixed point
    HELLY = "HELLY"  # nerve maps to low spheres are nullhomotopic
    ORBIT_TRANSITIVITY = "ORBIT_TRANSITIVITY"  # homeomorphic, connected complement
    SL2Z_TORSION_GENERATION = "SL2Z_TORSION_GENERATION"  # punctured-torus group
    HANDLE_SEPARATING_TWIST_ELLIPTIC = "HANDLE_SEPARATING_TWIST_ELLIPTIC"
    SEMISIMPLE = "SEMISIMPLE"
    FINITE_ABELIANIZATION = "FINITE_ABELIANIZATION"
    L1LOOP = "L1LOOP"  # twists fix a point or act as neutral parabolics
    SEPARATING_TWISTS_IN_KERNEL = "SEPARATING_TWISTS_IN_KERNEL"
    R_TREE_FIXED_POINT = "R_TREE_FIXED_POINT"  # the genus-2 group on R-trees


_BASE_AXIOMS = (
    Axiom.R_TORSION,
    Axiom.HELLY,
    Axiom.ORBIT_TRANSITIVITY,
    Axiom.SL2Z_TORSION_GENERATION,
)

# per theorem: the handle node's ``via`` and the axioms that node cites
_THEOREMS = {
    Theorem.TECHNICAL: ("hypothesis", (Axiom.HANDLE_SEPARATING_TWIST_ELLIPTIC,)),
    Theorem.MAIN: ("semisimple", (Axiom.SEMISIMPLE, Axiom.FINITE_ABELIANIZATION, Axiom.L1LOOP)),
    Theorem.KG: ("kernel", (Axiom.SEPARATING_TWISTS_IN_KERNEL,)),
}


def _expected_axioms(g: int, theorem: Theorem) -> tuple[str, ...]:
    """The certificate's ``axioms``: the tags of its axiom nodes, sorted."""
    if g == 2:
        return (Axiom.R_TREE_FIXED_POINT.value,)
    return tuple(sorted(a.value for a in _BASE_AXIOMS + _THEOREMS[theorem][1]))


def allowed_axioms(theorem: Theorem) -> frozenset[str]:
    """The axioms a certificate of the theorem may cite, at any genus."""
    return frozenset(_expected_axioms(2, theorem) + _expected_axioms(3, theorem))


# ---------------------------------------------------------------------------
# counting lemma


def count_inequality(g: int, k: int) -> int:
    """The left side of the floor-count inequality, which holds when it
    is at least g: for even k (k-1) * floor(2g/k), for odd k the same
    with 2(g-1)/(k-1) inside the floor."""
    if not isinstance(g, int) or g < 1:
        raise BootstrapError(f"g must be a positive integer, got {g!r}")
    if not isinstance(k, int) or not 2 <= k <= 2 * g:
        raise BootstrapError(f"k must lie in [2, 2g] = [2, {2 * g}], got {k!r}")
    if k % 2 == 0:
        return (k - 1) * (2 * g // k)
    return (k - 1) * (2 * (g - 1) // (k - 1))


# ---------------------------------------------------------------------------
# judgments, rule applications, certificates


def judgment(node: dict) -> dict:
    """What a node asserts, as its JSON object: a ``form`` and the form's
    fields, fixed by the node's rule and params; schema forms quantify
    over subsets.  The certificate format does not store it."""
    rule, p = node["rule"], node["params"]
    if rule == "axiom":
        return {"form": "Axiom", "tag": p["tag"]}
    if rule == "handle_separating_twist_elliptic":
        return {"form": "EllipticSubgroup", "tag": "handle_separating_twist"}
    if rule in ("r_tree_step", "conclude"):
        return {"form": "Elliptic", "curves": lk.curve_names(p["g"])}
    if rule == "genus1_step":
        return {"form": "EllipticSchema", "scope": "size_le", "size": p["size_limit"]}
    if rule == "size_induction":
        return {"form": "EllipticSchema", "scope": "size_le", "size": p["size"]}
    if rule == "split_commuting":
        return {"form": "EllipticSchema", "scope": "disconnected_of_size", "size": p["size"]}
    if rule == "connected_bootstrap":
        return {"form": "EllipticSchema", "scope": "connected_of_size", "size": p["size"],
                "claim_genus": p["claim_genus"], "claim_boundary": p["claim_boundary"]}
    raise BootstrapError(f"unknown rule {rule!r}")


_NODE_BATCH = 256  # nodes per encoder call in Certificate.to_json


class Certificate(NamedTuple):
    genus: int
    dim: int
    theorem: Theorem
    axioms: tuple[str, ...]
    nodes: tuple[dict, ...]  # each {"rule", "params", "premises"}; its id is its position
    conclusion: dict
    version: str = __version__
    unknown_keys: tuple[tuple[str, str], ...] = ()  # (where, key) read outside the format

    def to_json_dict(self) -> dict:
        return {
            "header": {
                "genus": self.genus,
                "dim": self.dim,
                "theorem": self.theorem.value,
                "version": self.version,
            },
            "axioms": list(self.axioms),
            "nodes": list(self.nodes),
            "conclusion": self.conclusion,
        }

    def to_json(self) -> str:
        """Canonical byte-stable serialization (sorted keys, no spaces); the nodes,
        sorted last, are encoded _NODE_BATCH at a time, not as one fragment list."""
        encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
        parts = [encode({**self.to_json_dict(), "nodes": ()})[:-2]]  # up to '"nodes":['
        for i in range(0, len(self.nodes), _NODE_BATCH):
            parts += ("," if i else "", encode(self.nodes[i:i + _NODE_BATCH])[1:-1])
        parts.append("]}\n")
        return "".join(parts)


class Failure(NamedTuple):
    """A blocked derivation: which rule refused, and why."""

    blocking_rule: str
    tag: str
    message: str
    params: dict


def _inexact(obj) -> Optional[str]:
    """Where a JSON object or list holds a true, false or fraction at any
    depth, as the path below obj and the type found, or None: the checker
    compares params by value, and both compare equal to integers
    (True == 1 == 1.0)."""
    for key, value in (obj.items() if type(obj) is dict else enumerate(obj)):
        if type(value) is bool or type(value) is float:
            return f".{key}: expected no {type(value).__name__}"
        if (type(value) is dict or type(value) is list) and (inner := _inexact(value)):
            return f".{key}{inner}"
    return None


# Integers are matched by exact type: JSON true/false load as bool, a subclass of int.
_INT_TYPE = frozenset({int})
# each object of the format: its keys with their JSON types, in the order
# the loader checks them; a conclusion's other keys are its form's fields
_CERT_FIELDS = (("header", dict), ("axioms", list), ("nodes", list), ("conclusion", dict))
_HEADER_FIELDS = (("genus", int), ("dim", int), ("theorem", str), ("version", str))
_NODE_FIELDS = (("rule", str), ("params", dict), ("premises", list))
_CONCLUSION_FIELDS = (("form", str),)


def _fields(obj, fields, where: str, unknown: list, pos: Optional[int] = None) -> None:
    """Check that obj is a JSON object holding every key of ``fields``
    with its type, and add its other keys to ``unknown`` as (where, key).
    ``where`` is a format string taking a node's position ``pos``, built
    only for a defect or a key outside the format."""
    if type(obj) is not dict:
        raise ValueError(f"{where.format(pos)}: expected an object, got {type(obj).__name__}")
    for key, kind in fields:
        value = obj.get(key)
        if type(value) is not kind:
            raise ValueError(f"{where.format(pos)}: missing {key!r}" if key not in obj else
                             f"{where.format(pos)}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    if len(obj) > len(fields):  # every key of the table is present, so others are too
        unknown += [(where.format(pos), k) for k in sorted(obj.keys() - {key for key, _ in fields})]


# ---------------------------------------------------------------------------
# certificate schemas


def _schema_profiles(size: int, g: int) -> list[tuple[int, int, str, int]]:
    """(claim genus cap H, boundary B, packing kind, packing parameter)
    for the schema nodes covering connected subsets of the given size;
    at g >= 3 and size >= 3, H >= 1 for B = 2 and H >= 0 for B = 3."""
    l = size // 2
    h1 = min(l, g)
    h2 = min(l, g - 1) if size % 2 else min(l - 1, g - 1)
    h3 = min(l - 1, g - 2)
    return [(h1, 1, "fit1", h1), (h2, 2, "fit3", h2), (h3, 3, "fit2", h3 + 1)]


def _expected_nodes(g: int, dim: int, theorem: Theorem) -> Iterator[dict]:
    """Deterministic node inventory for a successful derivation, one node
    at a time, so that the checker holds the certificate's nodes alone."""
    nid = -1  # the id of the node built last

    def node(rule, params, *premises) -> dict:
        nonlocal nid
        nid += 1
        return {"rule": rule, "params": params, "premises": list(premises)}

    if g == 2:
        yield node("axiom", {"tag": Axiom.R_TREE_FIXED_POINT.value})
        yield node("r_tree_step", {"g": g, "dim": dim}, nid)
        return

    via, theorem_axioms = _THEOREMS[theorem]
    axiom_ids: dict[Axiom, int] = {}
    for axiom in _BASE_AXIOMS + theorem_axioms:
        yield node("axiom", {"tag": axiom.value})
        axiom_ids[axiom] = nid

    yield node("handle_separating_twist_elliptic", {"via": via}, *(axiom_ids[a] for a in theorem_axioms))

    # Base of the induction, size_le(2): every one- or two-curve subset
    # has a fixed point if the handle-separating twist does.  Cut the
    # surface into g one-holed tori, move that loop onto each boundary by
    # the orbit axiom, intersect the commuting twist fixed sets and apply
    # the torsion bootstrap (n = g factors, singletons) to the punctured-
    # torus quotients.  Needs dim < g: both callers stop first at dim >= g.
    yield node(
        "genus1_step",
        {"g": g, "dim": dim, "size_limit": 2},
        nid,  # the handle node
        axiom_ids[Axiom.R_TORSION],
        axiom_ids[Axiom.ORBIT_TRANSITIVITY],
        axiom_ids[Axiom.SL2Z_TORSION_GENERATION],
        axiom_ids[Axiom.HELLY],
    )

    # Strong induction on subset size, one link per size: every size-s
    # node rests on the size_le(s-1) node, and the size_induction node
    # of size s collects them into size_le(s).
    size_le_id = nid  # the genus1_step node
    for size in range(3, 3 * g):
        yield node("split_commuting", {"size": size}, size_le_id)
        for (h, b, kind, ell) in _schema_profiles(size, g):
            yield node(
                "connected_bootstrap",
                {"size": size, "claim_genus": h, "claim_boundary": b, "pack_kind": kind, "pack_ell": ell},
                size_le_id,
                axiom_ids[Axiom.ORBIT_TRANSITIVITY],
                axiom_ids[Axiom.HELLY],
            )
        yield node("size_induction", {"size": size}, size_le_id, *range(size_le_id + 1, nid + 1))
        size_le_id = nid

    yield node("conclude", {"g": g, "dim": dim}, size_le_id)


def _expected_node_count(g: int, theorem: Theorem) -> int:
    """The number of nodes :func:`_expected_nodes` yields, in closed form:
    the axioms, then r_tree_step at g = 2, and at g >= 3 the handle and
    genus1_step nodes, five nodes for each size 3..3g-1 (split, one per
    schema profile, size_induction) and conclude."""
    return len(_expected_axioms(g, theorem)) + (1 if g == 2 else 15 * g - 12)


def _derive(g: int, dim: int, theorem: Theorem) -> Certificate | Failure:
    if not isinstance(g, int) or g < 2:
        raise BootstrapError(f"genus must be an integer >= 2, got {g!r}")
    if not isinstance(dim, int) or dim < 0:
        raise BootstrapError(f"dim must be a non-negative integer, got {dim!r}")
    if g == 2 and dim >= 2:
        return Failure(
            "r_tree_step",
            "DIM_TOO_LARGE",
            "the genus-2 route uses the R-tree fixed-point property, which needs dim <= 1",
            {"g": g, "dim": dim},
        )
    if dim >= g:
        return Failure(
            "genus1_step",
            "DIM_TOO_LARGE",
            f"torsion bootstrap over {g} punctured-torus factors needs dim < {g}, got {dim}",
            {"g": g, "dim": dim},
        )
    nodes = tuple(_expected_nodes(g, dim, theorem))
    return Certificate(
        genus=g,
        dim=dim,
        theorem=theorem,
        axioms=_expected_axioms(g, theorem),
        nodes=nodes,
        conclusion=judgment(nodes[-1]),
    )


def derive_technical(g: int, dim: int) -> Certificate | Failure:
    """Certificate that the twist group fixes a point, assuming the twist
    in a handle-separating loop does, for actions in dimension < g."""
    return _derive(g, dim, Theorem.TECHNICAL)


def derive_main(g: int, dim: int) -> Certificate | Failure:
    """As derive_technical, with the handle-separating hypothesis derived
    from semisimplicity, finite twist-centralizer abelianizations, and
    the fix-or-neutral-parabolic dichotomy."""
    return _derive(g, dim, Theorem.MAIN)


def derive_kg(g: int, dim: int) -> Certificate | Failure:
    """As derive_technical for the two-step nilpotent quotient image,
    where separating twists die in the kernel."""
    return _derive(g, dim, Theorem.KG)


# ---------------------------------------------------------------------------
# the independent checker


class Violation(NamedTuple):
    node_id: int
    rule: str
    field: str
    claimed: Any
    recomputed: Any
    message: str

    def __str__(self) -> str:
        return (
            f"node {self.node_id} [{self.rule}] {self.field}: {self.message} "
            f"(claimed {self.claimed!r}, recomputed {self.recomputed!r})"
        )


def certificate_from_json_dict(doc: dict) -> Certificate:
    """Build a certificate from its JSON document.

    Raises ValueError when a field the checker reads has the wrong JSON
    type, so that a malformed file is a load error rather than a crash
    inside :func:`verify`; every well-typed defect is left to ``verify``,
    keys outside the format too (``unknown_keys``).
    """
    unknown: list[tuple[str, str]] = []
    _fields(doc, _CERT_FIELDS, "certificate", unknown)
    header, axioms, conclusion = doc["header"], doc["axioms"], doc["conclusion"]
    _fields(header, _HEADER_FIELDS, "header", unknown)
    if not all(isinstance(a, str) for a in axioms):
        raise ValueError("certificate.axioms: expected a list of strings")
    for pos, n in enumerate(doc["nodes"]):
        _fields(n, _NODE_FIELDS, "nodes[{}]", unknown, pos)
        if defect := _inexact(n["params"]):
            raise ValueError(f"nodes[{pos}].params{defect}")
        if not _INT_TYPE.issuperset(map(type, n["premises"])):
            raise ValueError(f"nodes[{pos}].premises: expected a list of integers")
    _fields(conclusion, _CONCLUSION_FIELDS, "conclusion", [])
    return Certificate(
        genus=header["genus"],
        dim=header["dim"],
        theorem=Theorem(header["theorem"]),
        axioms=tuple(axioms),
        nodes=tuple(doc["nodes"]),
        conclusion={"form": conclusion["form"], **conclusion},  # form first, as derived, for violation text
        version=header["version"],
        unknown_keys=tuple(unknown),
    )


def certificate_from_json(text: str) -> Certificate:
    return certificate_from_json_dict(json.loads(text))


EXHAUSTIVE_HARD_CAP = 15


def verify(
    cert: Certificate, exhaustive_max_genus: int = EXHAUSTIVE_HARD_CAP, report: Optional[dict] = None
) -> list[Violation]:
    """Re-check a certificate from scratch; empty list means Ok.

    Nothing emitter-computed is trusted: the expected node inventory is
    re-derived from the header, each distinct packing is rebuilt from its
    ``(pack_kind, pack_ell)`` and assembly-checked, and count instances
    re-evaluated.  ``report["coverage"]``, when ``report`` is given, gets
    the subset coverage that ran, its ``max_genus`` the bound
    min(exhaustive_max_genus, EXHAUSTIVE_HARD_CAP).  Its ``mode`` is
    ``exhaustive`` at 3 <= g <= bound once every other check passed: every
    connected subset is re-classified and matched against a covering node,
    ``connected_subsets`` counts those of size >= 3, and ``report["found"]``
    the violations found, of which the list holds the first 21.  It is
    ``not-run`` at such a g if an earlier check failed, else ``schema-only``.
    """
    violations = _check_inventory(cert)
    bound = min(exhaustive_max_genus, EXHAUSTIVE_HARD_CAP)
    coverage: dict = {"mode": "schema-only", "max_genus": bound}
    if isinstance(cert.genus, int) and 3 <= cert.genus <= bound:
        coverage["mode"] = "not-run" if violations else "exhaustive"
    if coverage["mode"] == "exhaustive":
        violations, coverage["connected_subsets"] = _exhaustive_coverage(cert, report)
    if report is not None:
        report["coverage"] = coverage
    return violations


def _check_inventory(cert: Certificate) -> list[Violation]:
    """Every check of :func:`verify` before subset coverage."""
    violations: list[Violation] = []

    def bad(node_id, rule, fieldname, claimed, recomputed, message):
        violations.append(Violation(node_id, rule, fieldname, claimed, recomputed, message))

    if cert.version != __version__:
        # another format's node inventory would differ at every node
        bad(-1, "header", "version", cert.version, __version__, "unsupported certificate format version")
        return violations
    for where, key in cert.unknown_keys:
        bad(-1, "format", where, key, None, "key outside the certificate format")

    g, dim, theorem = cert.genus, cert.dim, cert.theorem
    if not isinstance(g, int) or g < 2 or not isinstance(dim, int) or dim < 0:
        bad(-1, "header", "genus/dim", (g, dim), None, "header out of range")
        return violations

    allowed = allowed_axioms(theorem)
    extra = set(cert.axioms) - allowed
    if extra:
        bad(-1, "header", "axioms", sorted(extra), sorted(allowed), "axiom not allowed for theorem")

    if dim >= g:
        bad(-1, "header", "dim", dim, g - 1, "dimension bound of the derivation exceeded")
        return violations

    # the closed form comes first, so that a forged header genus is
    # rejected before the O(g^2) inventory is built
    want_count = _expected_node_count(g, theorem)
    if len(cert.nodes) != want_count:
        bad(-1, "inventory", "node_count", len(cert.nodes), want_count, "wrong number of nodes")
        return violations

    expected_axioms = _expected_axioms(g, theorem)
    if tuple(cert.axioms) != expected_axioms:
        bad(-1, "header", "axioms", list(cert.axioms), list(expected_axioms), "axiom list mismatch")

    # premises acyclic (strictly earlier), and the inventory comparison:
    # rules, params, premises (a node's judgment is a function of its
    # rule and params, so it needs no check); a node's id is its position,
    # and each expected node is built as it is compared
    for pos, (got, want) in enumerate(zip(cert.nodes, _expected_nodes(g, dim, theorem))):
        rule = got["rule"]
        for p in got["premises"]:
            if not (0 <= p < pos):
                bad(pos, rule, "premises", p, f"< {pos}", "premise must reference an earlier node")
        if rule != want["rule"]:
            bad(pos, rule, "rule", rule, want["rule"], "unexpected rule at this position")
            continue
        if got["params"] != want["params"]:
            bad(pos, rule, "params", got["params"], want["params"], "parameters do not match the schema")
        if got["premises"] != want["premises"]:
            bad(pos, rule, "premises", got["premises"], want["premises"], "premise edges do not match")

    # (kind, ell) -> the marked-piece count of the canonical plan and its
    # assembly problems, or None and the refusal: each distinct packing is
    # built and checked once, and only its verdict is kept
    packings: dict[tuple[str, int], tuple[Optional[int], list[str]]] = {}

    def check_packing(pos: int, rule: str, kind, ell, expected_marked: Optional[int]) -> None:
        if not (isinstance(kind, str) and type(ell) is int):
            bad(pos, rule, "params.pack", (kind, ell), None, "invalid packing request")
            return
        if (kind, ell) not in packings:
            try:
                plan = sf.pack_subsurfaces(g, kind, ell)
            except sf.SurfaceError as exc:
                packings[kind, ell] = None, [f"invalid packing request: {exc}"]
            else:
                packings[kind, ell] = len(plan.marked_pieces), sf.assembly_problems(plan, g)
        marked, problems = packings[kind, ell]
        if marked is None:
            bad(pos, rule, "params.pack", (kind, ell), None, problems[0])
            return
        for p in problems:
            bad(pos, rule, "packing", p, None, "assembly check failed")
        if expected_marked is not None and marked != expected_marked:
            bad(pos, rule, "packing.marked", marked,
                expected_marked, "marked piece count mismatch")

    # per-node side conditions, from the node's own data: the bootstrap
    # over n = pack_count(g, kind, ell) packed pieces and k = size - 1
    # conjugates needs dim < n*k, and the counting lemma at k = size
    for pos, node in enumerate(cert.nodes):
        rule, params = node["rule"], node["params"]
        if rule == "genus1_step":
            check_packing(pos, rule, "fit1", 1, g)  # g punctured-torus factors
        elif rule == "connected_bootstrap":
            size = params.get("size")
            kind, ell = params.get("pack_kind"), params.get("pack_ell")
            if not isinstance(size, int) or not (3 <= size <= 3 * g - 1):
                bad(pos, rule, "params.size", size, f"3..{3 * g - 1}", "size out of range")
                continue
            try:
                n: Optional[int] = sf.pack_count(g, kind, ell)
            except sf.SurfaceError:
                n = None
            if n is not None and dim >= n * (size - 1):
                bad(pos, rule, "dim_check", dim, n * (size - 1) - 1,
                    "dimension side condition violated")
            check_packing(pos, rule, kind, ell, n)
            if size <= 2 * g:
                lhs = count_inequality(g, size)
                if lhs < g:
                    bad(pos, rule, "count", (lhs, g), None, "count inequality fails")
        elif rule == "r_tree_step":
            if g != 2 or dim > 1:
                bad(pos, rule, "dim", (g, dim), (2, 1), "R-tree step needs genus 2 and dim <= 1")

    # conclusion
    full = {"form": "Elliptic", "curves": lk.curve_names(g)}
    if cert.conclusion != full:
        bad(-1, "conclusion", "conclusion", cert.conclusion, full, "conclusion must cover the full generator set")
    return violations


def _exhaustive_coverage(cert: Certificate, report: Optional[dict] = None) -> tuple[list[Violation], int]:
    """Confirm some node concludes every subset of the generator set;
    return the violations and the count of enumerated subsets of size >= 3.

    Subsets of size <= 2 fall to the genus1_step node and disconnected
    ones to the split_commuting node of their size; every enumerated
    subset is re-classified, and each of size >= 3 is matched against a
    connected_bootstrap node.  After 21 violations the scan only counts,
    the violations into ``report["found"]`` when ``report`` is given.
    """
    g = cert.genus
    conn_nodes: dict[tuple[int, int], int] = {}  # (size, boundary) -> genus cap
    split_sizes: set[int] = set()
    for node in cert.nodes:
        params = node["params"]
        if node["rule"] == "split_commuting":
            split_sizes.add(params["size"])
        elif node["rule"] == "connected_bootstrap":
            key = (params["size"], params["claim_boundary"])
            conn_nodes[key] = max(conn_nodes.get(key, -1), params["claim_genus"])
    if not any(node["rule"] == "genus1_step" for node in cert.nodes):
        return [Violation(-1, "coverage", "size<=2", None, None,
                          "no genus1_step node covers small subsets")], 0
    for size in sorted(lk.disconnected_sizes(g)):
        if size >= 3 and size not in split_sizes:
            return [Violation(-1, "coverage", "split", size, sorted(split_sizes),
                              f"no split node for disconnected subsets of size {size}")], 0
    violations: list[Violation] = []
    counted = found = 0
    for s, claim, defect in lk.classified_subsets(g):
        size = s.mask.bit_count()
        counted += size >= 3
        uncovered = claim is not None and size >= 3 and claim.genus_bound > conn_nodes.get(
            (size, claim.boundary_bound), -1)
        found += (defect is not None) + uncovered
        if len(violations) > 20:
            continue
        if defect is not None and defect[0] == "clause":
            violations.append(Violation(-1, "coverage", "clause", (claim.genus_bound, claim.boundary_bound),
                                        size, "claim does not fit either classification clause"))
        elif defect is not None:
            violations.append(Violation(-1, "coverage", defect[0], s.sorted_members(), None, defect[1]))
        if uncovered:
            violations.append(Violation(
                -1, "coverage", "connected", (size, claim.genus_bound, claim.boundary_bound),
                conn_nodes.get((size, claim.boundary_bound), -1), f"no schema node covers {s.sorted_members()}"))
    if report is not None:
        report["found"] = found
    return violations, counted
