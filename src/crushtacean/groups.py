"""Finite permutation groups, abstract-type signatures, and identification.

Groups are stored as explicit element lists (desk scale, closure capped).
Identification works against the catalog of abstract isomorphism types of
finite subgroups of the 3-sphere's rotation group: cyclic, dihedral, those
times Z2, the Klein group, and the five exceptional types built from the
tetrahedral, octahedral and icosahedral rotation groups.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import lcm
from typing import Iterable, NamedTuple, Sequence

from .errors import CapExceededError

DEFAULT_CAP = 10**6


@dataclass(frozen=True, order=True)
class Permutation:
    """A permutation of {0..n-1} stored as its image tuple."""

    image: tuple[int, ...]

    def __post_init__(self) -> None:
        if set(self.image) != set(range(len(self.image))):
            raise ValueError("image is not a bijection of 0..n-1")

    @property
    def degree(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        return self.image[i]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (p * q)(x) = p(q(x))."""
        return Permutation(tuple(map(self.image.__getitem__, other.image)))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.image)
        for i, j in enumerate(self.image):
            inv[j] = i
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.image))

    def order(self) -> int:
        """Least common multiple of the cycle lengths."""
        out = 1
        seen = [False] * len(self.image)
        for i in range(len(self.image)):
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = self.image[j]
                length += 1
            if length:
                out = lcm(out, length)
        return out

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation(tuple(range(degree)))

    @staticmethod
    def from_cycles(degree: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        image = list(range(degree))
        for cyc in cycles:
            for a, b in zip(cyc, list(cyc[1:]) + [cyc[0]]):
                image[a] = b
        return Permutation(tuple(image))


@dataclass(frozen=True)
class PermGroup:
    degree: int
    generators: tuple[Permutation, ...]
    elements: tuple[Permutation, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, p: Permutation) -> bool:
        return p in set(self.elements)


def close(
    generators: Iterable[Permutation],
    degree: int | None = None,
    cap: int = DEFAULT_CAP,
) -> PermGroup:
    """Close a generator list under multiplication (BFS with element cap)."""
    gens = tuple(generators)
    if degree is None:
        degree = gens[0].degree if gens else 0
    for p in gens:
        if p.degree != degree:
            raise ValueError("mixed degrees in generator list")
    ident = Permutation.identity(degree)
    elements = {ident.image: ident}
    frontier = [ident]
    while frontier:
        nxt: list[Permutation] = []
        for x in frontier:
            for gen in gens:
                y = gen * x
                if y.image not in elements:
                    elements[y.image] = y
                    nxt.append(y)
                    if len(elements) > cap:
                        raise CapExceededError(f"group closure exceeded cap of {cap} elements")
        frontier = nxt
    ordered = tuple(elements[key] for key in sorted(elements))
    return PermGroup(degree, gens, ordered)


def from_elements(elements: Iterable[Permutation], degree: int) -> PermGroup:
    """The group whose elements (all of them) are given, in sorted order.

    Its generators are greedy: each element, in sorted order, that the
    ones chosen before it do not generate.
    """
    ordered = tuple(sorted(elements))
    gens: list[Permutation] = []
    span = {Permutation.identity(degree)}
    for p in ordered:
        if len(span) == len(ordered):
            break
        if p not in span:
            gens.append(p)
            span = set(close(gens, degree).elements)
    return PermGroup(degree, tuple(gens), ordered)


class GroupSignature(NamedTuple):
    """Abstract-isomorphism invariants used to identify a group."""

    order: int
    abelian: bool
    order_histogram: tuple[tuple[int, int], ...]
    center_order: int
    derived_order: int


def signature(g: PermGroup) -> GroupSignature:
    gens = g.generators if g.generators else (Permutation.identity(g.degree),)
    abelian = all(a * b == b * a for a in gens for b in gens)
    hist = Counter(p.order() for p in g.elements)
    center = sum(1 for p in g.elements if all(p * q == q * p for q in gens))
    derived = _derived_order(g)
    return GroupSignature(
        order=g.order,
        abelian=abelian,
        order_histogram=tuple(sorted(hist.items())),
        center_order=center,
        derived_order=derived,
    )


def _derived_order(g: PermGroup) -> int:
    """Order of the derived subgroup (normal closure of generator commutators)."""
    gens = g.generators
    seed = set()
    for a in gens:
        for b in gens:
            c = a * b * a.inverse() * b.inverse()
            seed.add(c.image)
    sub = {Permutation.identity(g.degree).image}
    work = [Permutation(s) for s in seed if s not in sub]
    sub.update(s for s in seed)
    while work:
        x = work.pop()
        new: list[Permutation] = []
        for s in list(sub):
            y = x * Permutation(s)
            if y.image not in sub:
                new.append(y)
        for gen in gens:
            y = gen.inverse() * x * gen
            if y.image not in sub:
                new.append(y)
        for y in new:
            sub.add(y.image)
            work.append(y)
    return len(sub)


# ---------------------------------------------------------------------------
# group identities (catalog tags)
# ---------------------------------------------------------------------------

_EXCEPTIONAL_ORDERS = {
    "A4": 12,
    "S4": 24,
    "A5": 60,
    "A4xZ2": 24,
    "S4xZ2": 48,
    "A5xZ2": 120,
}


@dataclass(frozen=True, order=True)
class GroupId:
    """Canonical tag for an abstract group in the catalog.

    Kinds: trivial, cyclic(n), klein, dihedral(n >= 3), cyclic_x_z2(n even
    >= 4), dihedral_x_z2(n even >= 2), the six exceptional tags, and
    unrecognized(order).  Constructors below fold the abstract coincidences
    (Z_{2n} = Z_n x Z2 and D_{2n} = D_n x Z2 for odd n; order-4 non-cyclic
    groups all get the Klein tag).
    """

    kind: str
    n: int = 0

    # -- constructors -------------------------------------------------

    @staticmethod
    def trivial() -> "GroupId":
        return GroupId("trivial")

    @staticmethod
    def cyclic(n: int) -> "GroupId":
        if n < 1:
            raise ValueError("cyclic order must be positive")
        if n == 1:
            return GroupId.trivial()
        return GroupId("cyclic", n)

    @staticmethod
    def klein() -> "GroupId":
        return GroupId("klein")

    @staticmethod
    def dihedral(n: int) -> "GroupId":
        if n < 1:
            raise ValueError("dihedral parameter must be positive")
        if n == 1:
            return GroupId.cyclic(2)
        if n == 2:
            return GroupId.klein()
        return GroupId("dihedral", n)

    @staticmethod
    def cyclic_x_z2(n: int) -> "GroupId":
        if n < 1:
            raise ValueError("parameter must be positive")
        if n == 1:
            return GroupId.cyclic(2)
        if n == 2:
            return GroupId.klein()
        if n % 2 == 1:
            return GroupId.cyclic(2 * n)
        return GroupId("cyclic_x_z2", n)

    @staticmethod
    def dihedral_x_z2(n: int) -> "GroupId":
        if n < 1:
            raise ValueError("parameter must be positive")
        if n == 1:
            return GroupId.klein()
        if n % 2 == 1:
            return GroupId.dihedral(2 * n)
        return GroupId("dihedral_x_z2", n)

    @staticmethod
    def exceptional(name: str) -> "GroupId":
        if name not in _EXCEPTIONAL_ORDERS:
            raise ValueError(f"unknown exceptional tag {name!r}")
        return GroupId(name)

    @staticmethod
    def unrecognized(order: int) -> "GroupId":
        return GroupId("unrecognized", order)

    # -- properties ---------------------------------------------------

    @property
    def order(self) -> int:
        if self.kind == "trivial":
            return 1
        if self.kind == "cyclic":
            return self.n
        if self.kind == "klein":
            return 4
        if self.kind == "dihedral":
            return 2 * self.n
        if self.kind == "cyclic_x_z2":
            return 2 * self.n
        if self.kind == "dihedral_x_z2":
            return 4 * self.n
        if self.kind == "unrecognized":
            return self.n
        return _EXCEPTIONAL_ORDERS[self.kind]

    def __str__(self) -> str:
        if self.kind == "trivial":
            return "Z1"
        if self.kind == "cyclic":
            return f"Z{self.n}"
        if self.kind == "klein":
            return "Z2xZ2"
        if self.kind == "dihedral":
            return f"D{self.n}"
        if self.kind == "cyclic_x_z2":
            return f"Z{self.n}xZ2"
        if self.kind == "dihedral_x_z2":
            return f"D{self.n}xZ2"
        if self.kind == "unrecognized":
            return f"U{self.n}"
        return self.kind

    @staticmethod
    def from_string(text: str) -> "GroupId":
        """Parse the string form ("D5", "Z6xZ2", "S4xZ2", "Z2xZ2", ...)."""
        s = text.strip()
        if s in _EXCEPTIONAL_ORDERS:
            return GroupId.exceptional(s)
        if s == "Z2xZ2":
            return GroupId.klein()
        if s == "Z1" or s == "1":
            return GroupId.trivial()
        base, _, suffix = s.partition("x")
        try:
            if suffix == "Z2":
                if base.startswith("Z"):
                    return GroupId.cyclic_x_z2(int(base[1:]))
                if base.startswith("D"):
                    return GroupId.dihedral_x_z2(int(base[1:]))
            elif not suffix:
                if base.startswith("Z"):
                    return GroupId.cyclic(int(base[1:]))
                if base.startswith("D"):
                    return GroupId.dihedral(int(base[1:]))
        except ValueError:
            pass
        raise ValueError(f"cannot parse group id {text!r}")

    def geometric_alias(self) -> str | None:
        """Conventional solid whose full symmetry group has this type."""
        if self.kind == "dihedral" and self.n >= 3:
            return f"{self.n}-gonal pyramid"
        if self.kind == "dihedral_x_z2":
            return f"{self.n}-gonal prism"
        if self.kind == "klein":
            return "rhombic disphenoid"
        aliases = {
            "A4": "tetrahedron (rotations)",
            "S4": "tetrahedron",
            "A5": "dodecahedron (rotations)",
            "A4xZ2": "pyritohedron",
            "S4xZ2": "cube",
            "A5xZ2": "dodecahedron",
        }
        return aliases.get(self.kind)


# ---------------------------------------------------------------------------
# catalog realizations and identification
# ---------------------------------------------------------------------------


def realize(tag: GroupId) -> PermGroup:
    """A concrete permutation realization of a catalog tag."""
    k, n = tag.kind, tag.n
    C = Permutation.from_cycles
    if k == "trivial":
        return close([], degree=1)
    if k == "cyclic":
        return close([C(n, [list(range(n))])])
    if k == "klein":
        return close([C(4, [(0, 1)]), C(4, [(2, 3)])])
    if k == "dihedral":
        r = C(n, [list(range(n))])
        s = Permutation(tuple((n - i) % n for i in range(n)))
        return close([r, s])
    if k == "cyclic_x_z2":
        r = C(n + 2, [list(range(n))])
        t = C(n + 2, [(n, n + 1)])
        return close([r, t])
    if k == "dihedral_x_z2":
        if n == 2:
            # Klein x Z2: the 2-point "dihedral" realization degenerates
            return close([C(6, [(0, 1)]), C(6, [(2, 3)]), C(6, [(4, 5)])])
        r = C(n + 2, [list(range(n))])
        s = Permutation(tuple((n - i) % n for i in range(n)) + (n, n + 1))
        t = C(n + 2, [(n, n + 1)])
        return close([r, s, t])
    if k == "A4":
        return close([C(4, [(0, 1, 2)]), C(4, [(0, 1), (2, 3)])])
    if k == "S4":
        return close([C(4, [(0, 1)]), C(4, [(0, 1, 2, 3)])])
    if k == "A5":
        return close([C(5, [(0, 1, 2, 3, 4)]), C(5, [(0, 1, 2)])])
    if k in ("A4xZ2", "S4xZ2", "A5xZ2"):
        base = realize(GroupId.exceptional(k[:2]))
        d = base.degree
        lifted = [Permutation(p.image + (d, d + 1)) for p in base.generators]
        lifted.append(C(d + 2, [(d, d + 1)]))
        return close(lifted)
    raise ValueError(f"no realization for {tag}")


def candidate_tags(order: int) -> list[GroupId]:
    """All canonical catalog tags with the given order, deterministic order."""
    tags: list[GroupId] = []
    if order == 1:
        return [GroupId.trivial()]
    tags.append(GroupId.cyclic(order))
    if order == 4:
        tags.append(GroupId.klein())
    if order % 2 == 0 and order // 2 >= 3:
        tags.append(GroupId.dihedral(order // 2))
    if order % 4 == 0 and order // 2 >= 4:
        tags.append(GroupId.cyclic_x_z2(order // 2))
    if order % 8 == 0 and order // 4 >= 2:
        tags.append(GroupId.dihedral_x_z2(order // 4))
    for name, o in _EXCEPTIONAL_ORDERS.items():
        if o == order:
            tags.append(GroupId.exceptional(name))
    return tags


@lru_cache(maxsize=None)
def _tag_signature(tag: GroupId) -> GroupSignature:
    return signature(realize(tag))


def identify(g: PermGroup) -> GroupId:
    """Match a group against the catalog by its signature tuple.

    Returns the canonical tag, or unrecognized(order) when no catalog
    member of that order has the same signature.
    """
    sig = signature(g)
    for tag in candidate_tags(g.order):
        if _tag_signature(tag) == sig:
            return tag
    return GroupId.unrecognized(g.order)
