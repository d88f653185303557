"""Finite permutation groups, their orientation split, and identification.

A group is held as its moves, each outside the orbit of those before it,
and the Schreier tree (Sims 1970) that ``_grow`` builds of its base's
images; only the identity fixes the base: the base flag's three vertices
for ``automorphisms`` (Weinberg 1966), every point for ``close``.  The
moves are the generators; the sorted elements are built when asked.  The
automorphism group of a 3-connected planar graph acts on the sphere as a
finite subgroup of O(3) (Mani 1971); ``automorphisms`` signs each element
+1 or -1 as it keeps or reverses the rotations, and the catalog tag (cyclic,
dihedral, those times Z2, Klein, or six polyhedral types) is read off the split.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, NamedTuple

from .errors import CapExceededError, PreconditionError

DEFAULT_CAP = 10**6


@dataclass(frozen=True, order=True)
class Permutation:
    """A permutation of {0..n-1} stored as its image tuple."""

    image: tuple[int, ...]

    def __post_init__(self) -> None:
        if set(self.image) != set(range(len(self.image))):
            raise ValueError("image is not a bijection of 0..n-1")

    def __call__(self, i: int) -> int:
        return self.image[i]


Image = tuple[int, ...]


@dataclass(frozen=True, eq=False)
class PermGroup:
    """A permutation group as the Schreier tree ``_grow`` keeps of the
    orbit of ``base``: element 0 is the identity, element i is moves[k]
    after element j for (j, k) = tree[i - 1], and only the identity fixes
    every point of ``base``.  Sphere symmetries are also signed in that
    order, +1 where they keep the orientation.  The moves are the
    generators; the sorted elements and their signs are built when first
    asked, and equality compares those."""

    degree: int
    base: tuple[int, ...]
    moves: tuple[Image, ...]
    tree: tuple[tuple[int, int], ...]
    orbit_signs: tuple[int, ...] | None = None

    @property
    def order(self) -> int:
        return len(self.tree) + 1

    def images(self) -> Iterator[tuple[int, Image]]:
        """Each element's index and image, depth first, smaller subtrees first,
        one product each (degree >= 2): at most log2(order) + 1 images live."""
        size, kids = [1] * self.order, [[] for _ in range(self.order)]
        for i, (j, _k) in reversed(list(enumerate(self.tree, 1))):  # children after parents
            size[j] += size[i]
            kids[j].append(i)
        stack = [(0, tuple(range(self.degree)))]  # the root's image, else the parent's
        while stack:
            i, x = stack.pop()
            x = itemgetter(*x)(self.moves[self.tree[i - 1][1]]) if i else x
            yield i, x
            stack += [(c, x) for c in sorted(kids[i], key=size.__getitem__, reverse=True)]

    @cached_property
    def _sorted(self) -> list[tuple[Image, int]]:
        return sorted((x, i) for i, x in self.images())

    @cached_property
    def elements(self) -> tuple[Permutation, ...]:
        return tuple(Permutation(x) for x, _i in self._sorted)

    @cached_property
    def signs(self) -> tuple[int, ...] | None:
        """The signs aligned with ``elements``."""
        s = self.orbit_signs
        return None if s is None else tuple(s[i] for _x, i in self._sorted)

    @property
    def generators(self) -> tuple[Permutation, ...]:
        """The moves: each lies outside the orbit of the ones before it."""
        return tuple(map(Permutation, self.moves))

    def __eq__(self, other: object) -> bool:
        key = attrgetter("degree", "elements", "signs")
        return isinstance(other, PermGroup) and key(self) == key(other)


def _grow(reached: dict, moves: list, move: Image, cap: int) -> None:
    """Append ``move`` to ``moves`` and grow their orbit ``reached``, which
    maps each image tuple (of length >= 2), in order, to (j, k): moves[k]
    after the j-th one.  Old points need only the new move, new points every
    move; past ``cap`` points it raises CapExceededError."""
    moves.append(move)
    queue = list(reached)
    old = len(queue)
    for i, x in enumerate(queue):  # the loop visits the points it appends
        for k in range(len(moves) - 1 if i < old else 0, len(moves)):
            y = itemgetter(*x)(moves[k])
            if y not in reached:
                reached[y] = (i, k)
                queue.append(y)
                if len(queue) > cap:
                    raise CapExceededError(f"automorphism count exceeded cap of {cap}")


def close(
    generators: Iterable[Permutation],
    degree: int | None = None,
    cap: int = DEFAULT_CAP,
) -> PermGroup:
    """Close a generator list under multiplication: the orbit of the
    identity, grown by each generator outside it, with ``cap`` as in
    ``_grow``; every point is the group's base."""
    gens = tuple(generators)
    if degree is None:
        degree = len(gens[0].image) if gens else 0
    if any(len(p.image) != degree for p in gens):
        raise ValueError("mixed degrees in generator list")
    if cap < 1:  # the identity alone passes it
        raise CapExceededError(f"automorphism count exceeded cap of {cap}")
    reached, moves = {tuple(range(degree)): None}, []
    for p in gens:
        if p.image not in reached:
            _grow(reached, moves, p.image, cap)
    return PermGroup(degree, next(iter(reached)), tuple(moves), tuple(reached.values())[1:])


class GroupSignature(NamedTuple):
    """The orientation split of a group of sphere symmetries: the
    invariants :func:`identify` reads."""

    rotations: int  # |R|, the elements with sign +1
    rotation_max_order: int  # the largest element order in R
    max_order: int  # the largest element order in the group
    central_reversal: bool  # some central involution has sign -1


def _base_order(p: Image, base: tuple[int, ...]) -> int:
    """The order of p when only the identity fixes every base point: the
    lcm of p's cycle lengths through them."""
    out = 1
    for b in base:
        n, x = 1, p[b]
        while x != b:
            n, x = n + 1, p[x]
        out = lcm(out, n)
    return out


def signature(g: PermGroup) -> GroupSignature:
    """The orientation split of a group that carries signs (an
    ``automorphisms`` result), in one pass of image products in orbit
    order.  An element's order is read on the base; it is a central
    reversal when it has order 2, sign -1, and commutes with every move on
    the base.  Raises PreconditionError on a group without signs."""
    if g.orbit_signs is None:
        raise PreconditionError("the group carries no orientation signs")
    rotations, rotation_max, max_order, central = 0, 0, 0, False
    for i, p in g.images():
        k = _base_order(p, g.base)
        max_order = max(max_order, k)
        if g.orbit_signs[i] > 0:
            rotations += 1
            rotation_max = max(rotation_max, k)
        elif k == 2 and not central:
            central = all(p[m[b]] == m[p[b]] for m in g.moves for b in g.base)
    return GroupSignature(rotations, rotation_max, max_order, central)


# ---------------------------------------------------------------------------
# group identities (catalog tags)
# ---------------------------------------------------------------------------

_EXCEPTIONAL = ("A4", "S4", "A5", "A4xZ2", "S4xZ2", "A5xZ2")

# each kind's string form, order (a constant plus a multiple of n) and the
# conventional solid whose full symmetry group has that type
_KINDS = {
    "trivial": ("Z1", 1, 0, None),
    "cyclic": ("Z{}", 0, 1, None),
    "klein": ("Z2xZ2", 4, 0, "rhombic disphenoid"),
    "dihedral": ("D{}", 0, 2, "{}-gonal pyramid"),
    "cyclic_x_z2": ("Z{}xZ2", 0, 2, None),
    "dihedral_x_z2": ("D{}xZ2", 0, 4, "{}-gonal prism"),
    "unrecognized": ("U{}", 0, 1, None),
    "A4": ("A4", 12, 0, "tetrahedron (rotations)"),
    "S4": ("S4", 24, 0, "tetrahedron"),
    "A5": ("A5", 60, 0, "dodecahedron (rotations)"),
    "A4xZ2": ("A4xZ2", 24, 0, "pyritohedron"),
    "S4xZ2": ("S4xZ2", 48, 0, "cube"),
    "A5xZ2": ("A5xZ2", 120, 0, "dodecahedron"),
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
        if name not in _EXCEPTIONAL:
            raise ValueError(f"unknown exceptional tag {name!r}")
        return GroupId(name)

    @staticmethod
    def unrecognized(order: int) -> "GroupId":
        return GroupId("unrecognized", order)

    # -- properties ---------------------------------------------------

    @property
    def order(self) -> int:
        _form, fixed, per_n, _alias = _KINDS[self.kind]
        return fixed + per_n * self.n

    def __str__(self) -> str:
        return _KINDS[self.kind][0].format(self.n)

    @staticmethod
    def from_string(text: str) -> "GroupId":
        """Parse the string form ("D5", "Z6xZ2", "S4xZ2", "Z2xZ2", ...)."""
        s = text.strip()
        if s in _EXCEPTIONAL:
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
        alias = _KINDS[self.kind][3]
        return None if alias is None else alias.format(self.n)


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
