"""Finite permutation groups, their orientation split, and identification.

Groups are stored as explicit element lists (desk scale, capped), read off
a flag orbit by ``automorphisms`` or closed by ``close``.  Products compose
bare image tuples; a Permutation (its bijection check) is built once per
group element.  The automorphism group of a 3-connected planar graph acts
on the sphere as a finite subgroup of O(3) (Mani 1971), and
``automorphisms`` signs each element +1 or -1 as it keeps or reverses the
rotations.  The group's catalog tag (cyclic, dihedral, those times Z2,
Klein, or one of the six polyhedral types) is read off that split.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Collection, Iterable, NamedTuple

from .errors import CapExceededError, PreconditionError

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


@dataclass(frozen=True)
class PermGroup:
    """A permutation group with all its elements, in sorted order.  A group
    of sphere symmetries also carries one sign per element, aligned with
    ``elements``: +1 keeps the orientation, -1 reverses it."""

    degree: int
    generators: tuple[Permutation, ...]
    elements: tuple[Permutation, ...]
    signs: tuple[int, ...] | None = None

    @property
    def order(self) -> int:
        return len(self.elements)


Image = tuple[int, ...]


def _mul(p: Image, q: Image) -> Image:
    """Composition of image tuples: (p * q)(x) = p(q(x))."""
    return tuple(map(p.__getitem__, q))


def _closure(degree: int, left: Collection[Image], cap: int = DEFAULT_CAP) -> set[Image]:
    """Image tuples reached from the identity (BFS with element cap) by
    multiplying on the left by an element of ``left``."""
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt: list[Image] = []
        for x in frontier:
            for y in [_mul(a, x) for a in left]:
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    if len(seen) > cap:
                        raise CapExceededError(f"group closure exceeded cap of {cap} elements")
        frontier = nxt
    return seen


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
    elements = _closure(degree, [p.image for p in gens], cap=cap)
    return PermGroup(degree, gens, tuple(Permutation(x) for x in sorted(elements)))


class GroupSignature(NamedTuple):
    """The orientation split of a group of sphere symmetries: the
    invariants :func:`identify` reads."""

    rotations: int  # |R|, the elements with sign +1
    rotation_max_order: int  # the largest element order in R
    max_order: int  # the largest element order in the group
    central_reversal: bool  # some central involution has sign -1


def signature(g: PermGroup) -> GroupSignature:
    """The orientation split of a group that carries signs (an
    ``automorphisms`` result); raises PreconditionError on one without."""
    if g.signs is None:
        raise PreconditionError("the group carries no orientation signs")
    gens = [p.image for p in g.generators]
    orders = [p.order() for p in g.elements]
    rotation_orders = [k for k, s in zip(orders, g.signs) if s > 0]
    return GroupSignature(
        rotations=len(rotation_orders),
        rotation_max_order=max(rotation_orders, default=0),
        max_order=max(orders, default=0),
        central_reversal=any(
            s < 0 and k == 2 and all(_mul(p.image, q) == _mul(q, p.image) for q in gens)
            for p, k, s in zip(g.elements, orders, g.signs)
        ),
    )


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
# identification from the orientation split
# ---------------------------------------------------------------------------

# the polyhedral rotation groups by (order, largest element order)
_POLYHEDRAL = {(12, 3): "A4", (24, 4): "S4", (60, 5): "A5"}


def identify(g: PermGroup) -> GroupId:
    """The catalog tag of a group of sphere symmetries, read off the split
    of its signs (PreconditionError on a group without, as ``close`` makes).
    The rotations R are cyclic, dihedral or polyhedral by |R| and their
    largest element order.  The group is R, R x Z2 when a central involution
    reverses orientation, or else the rotation group of twice the order
    over R: Z2n or Dn over Zn, D2n over Dn, S4 over A4; or unrecognized."""
    sig = signature(g)
    r, m = sig.rotations, sig.rotation_max_order
    if 0 < r == m:
        rot, rot_x_z2 = GroupId.cyclic(r), GroupId.cyclic_x_z2(r)
        extension = GroupId.cyclic(2 * r) if sig.max_order == 2 * r else GroupId.dihedral(r)
    elif 0 < 2 * m == r:
        rot, rot_x_z2 = GroupId.dihedral(m), GroupId.dihedral_x_z2(m)
        extension = GroupId.dihedral(2 * m)
    elif (r, m) in _POLYHEDRAL:
        name = _POLYHEDRAL[r, m]
        rot, rot_x_z2 = GroupId.exceptional(name), GroupId.exceptional(name + "xZ2")
        extension = GroupId.exceptional("S4") if name == "A4" else None
    else:
        return GroupId.unrecognized(g.order)
    if g.order == r:
        return rot
    if g.order == 2 * r and (sig.central_reversal or extension is not None):
        return rot_x_z2 if sig.central_reversal else extension
    return GroupId.unrecognized(g.order)
