from collections import Counter
from itertools import permutations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from crushtacean import (
    CapExceededError,
    GroupId,
    PermGroup,
    Permutation,
    PreconditionError,
    automorphisms,
    close,
    cycle_expand,
    groups,
    identify,
    signature,
)
from crushtacean.families import (
    antiprism,
    cube,
    dodecahedron,
    gamma_ochain,
    prism,
    tetrahedron,
    wheel,
)
from helpers import (
    abstract_isomorphic,
    base_fixers,
    candidate_tags,
    catalog_identify,
    catalog_signature,
    check_irredundant_generators,
    chorded_cube,
    close_tuples,
    from_cycles,
    full_signature,
    gyro,
    perm_compose,
    perm_inverse,
    perm_order,
    perm_order_by_powers,
    realize,
    twist,
)


def test_permutation_algebra():
    p = from_cycles(4, [(0, 1, 2)])
    q = from_cycles(4, [(2, 3)])
    pq = perm_compose(p.image, q.image)
    assert pq == tuple(p.image[q.image[i]] for i in range(4))
    assert perm_compose(p.image, perm_inverse(p.image)) == tuple(range(4))
    assert perm_order(p.image) == 3
    assert perm_order(q.image) == 2
    assert perm_order(tuple(range(4))) == 1
    assert perm_inverse(pq) == perm_compose(perm_inverse(q.image), perm_inverse(p.image))


def test_permutations_check_compare_and_hash_as_their_images():
    for image in ((0, 0, 1), (1, 2, 3), (0, 2)):  # a repeat, a point out of range, a gap
        with pytest.raises(ValueError, match="not a bijection"):
            Permutation(image)
    p, q = Permutation((1, 0, 2)), Permutation((0, 2, 1))
    assert p == Permutation((1, 0, 2)) and hash(p) == hash(((1, 0, 2),))
    assert p != q and p != (1, 0, 2)  # a permutation is no tuple
    assert sorted([p, q]) == [q, p] and q < p <= p and p > q >= q
    assert repr(p) == "Permutation(image=(1, 0, 2))" and p(0) == 1


def test_perm_order_matches_repeated_composition():
    """The cycle-walking order oracle against the definition: every
    permutation of up to 6 points and every element of each catalog group
    up to order 24."""
    perms = [img for n in range(1, 7) for img in permutations(range(n))]
    perms += [p.image for order in range(1, 25) for tag in candidate_tags(order) for p in realize(tag).elements]
    assert [perm_order(p) for p in perms] == [perm_order_by_powers(p) for p in perms]


def test_close_small_groups():
    rot = from_cycles(5, [(0, 1, 2, 3, 4)])
    assert close([rot]).order == 5
    s4 = close([from_cycles(4, [(0, 1)]), from_cycles(4, [(0, 1, 2, 3)])])
    assert s4.order == 24
    assert len(set(s4.elements)) == 24


def test_close_cap():
    gens = [from_cycles(6, [(0, 1)]), from_cycles(6, [(0, 1, 2, 3, 4, 5)])]
    with pytest.raises(CapExceededError):
        close(gens, cap=100)  # S6 has 720 elements


def test_s4_signature_against_independent_enumeration():
    """Frozen fingerprint of S4; the histogram oracle enumerates all of S4
    directly instead of going through close()."""
    oracle = Counter()
    for img in permutations(range(4)):
        oracle[perm_order(img)] += 1
    assert dict(oracle) == {1: 1, 2: 9, 3: 8, 4: 6}

    s4 = close([from_cycles(4, [(0, 1)]), from_cycles(4, [(0, 1, 2, 3)])])
    sig = catalog_signature(s4)
    assert sig.order == 24
    assert not sig.abelian
    assert sig.order_histogram == ((1, 1), (2, 9), (3, 8), (4, 6))
    assert sig.center_order == 1
    assert sig.derived_order == 12  # A4


def test_d4_signature_against_explicit_square_symmetries():
    # the eight symmetries of a square with corners 0,1,2,3 in cyclic order
    rots = [(0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2)]
    refls = [(3, 2, 1, 0), (1, 0, 3, 2), (0, 3, 2, 1), (2, 1, 0, 3)]
    oracle = Counter(perm_order(p) for p in rots + refls)
    assert dict(oracle) == {1: 1, 2: 5, 4: 2}

    d4 = close([Permutation((1, 2, 3, 0)), Permutation((3, 2, 1, 0))])
    sig = catalog_signature(d4)
    assert sig.order == 8
    assert sig.order_histogram == ((1, 1), (2, 5), (4, 2))
    assert sig.center_order == 2
    assert sig.derived_order == 2


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 7).flatmap(lambda d: st.lists(st.permutations(range(d)), min_size=1, max_size=3)))
@example([(1, 2, 3, 0), (3, 2, 1, 0)])  # D4: a non-abelian group whose centre has index 4
@example([(1, 2, 3, 0, 4, 5), (3, 2, 1, 0, 4, 5), (0, 1, 2, 3, 5, 4)])  # D4xZ2
@example([(1, 0, 2, 3, 4, 5), (1, 2, 3, 0, 4, 5), (0, 1, 2, 3, 5, 4)])  # S4xZ2
def test_signature_matches_brute_force(gens):
    """Every field of the catalog oracle's signature against all-pairs
    oracles: the centre from every pair, the derived subgroup as the group
    generated by the commutators of every pair (not the normal closure of
    the generators' commutators that catalog_signature() computes)."""
    gens = [tuple(p) for p in gens]
    elems = close_tuples(gens)
    assume(len(elems) <= 120)  # the oracles take |G|^2 products
    commute = {(a, b): perm_compose(a, b) == perm_compose(b, a) for a in elems for b in elems}
    inv = {a: perm_inverse(a) for a in elems}
    commutators = {
        perm_compose(perm_compose(a, b), perm_compose(inv[a], inv[b])) for a in elems for b in elems
    }

    sig = catalog_signature(close([Permutation(p) for p in gens]))
    assert sig.order == len(elems)
    assert sig.abelian == all(commute.values())
    assert sig.order_histogram == tuple(sorted(Counter(map(perm_order, elems)).items()))
    assert sig.center_order == sum(all(commute[a, b] for b in elems) for a in elems)
    assert sig.derived_order == len(close_tuples(sorted(commutators)))


def test_group_id_canonical_folds():
    assert GroupId.cyclic(1) == GroupId.trivial()
    assert GroupId.dihedral(1) == GroupId.cyclic(2)
    assert GroupId.dihedral(2) == GroupId.klein()
    assert GroupId.cyclic_x_z2(2) == GroupId.klein()
    assert GroupId.cyclic_x_z2(3) == GroupId.cyclic(6)
    assert GroupId.dihedral_x_z2(3) == GroupId.dihedral(6)
    assert GroupId.dihedral_x_z2(5) == GroupId.dihedral(10)
    assert GroupId.dihedral_x_z2(4) != GroupId.dihedral(8)  # genuinely distinct


def test_group_ids_sort_and_hash_as_kind_then_parameter():
    ids = [GroupId.dihedral(5), GroupId.cyclic(3), GroupId.exceptional("A5"), GroupId.dihedral(4), GroupId.trivial()]
    assert [str(gid) for gid in sorted(ids)] == ["A5", "Z3", "D4", "D5", "Z1"]
    assert sorted(ids) == sorted(ids, key=lambda gid: (gid.kind, gid.n))
    assert GroupId.dihedral(4) < GroupId.dihedral(5) and hash(GroupId.cyclic(3)) == hash(("cyclic", 3))
    assert repr(GroupId.klein()) == "GroupId(kind='klein', n=0)"


def test_group_id_strings():
    cases = [
        (GroupId.trivial(), "Z1", 1),
        (GroupId.cyclic(6), "Z6", 6),
        (GroupId.klein(), "Z2xZ2", 4),
        (GroupId.dihedral(7), "D7", 14),
        (GroupId.cyclic_x_z2(4), "Z4xZ2", 8),
        (GroupId.dihedral_x_z2(6), "D6xZ2", 24),
        (GroupId.exceptional("A4"), "A4", 12),
        (GroupId.exceptional("S4xZ2"), "S4xZ2", 48),
        (GroupId.exceptional("A5xZ2"), "A5xZ2", 120),
    ]
    for gid, text, order in cases:
        assert str(gid) == text
        assert gid.order == order
        assert GroupId.from_string(text) == gid
    assert GroupId.from_string("D4xZ2") == GroupId.dihedral_x_z2(4)
    with pytest.raises(ValueError):
        GroupId.from_string("E8")


def test_identify_round_trips_catalog(rng):
    for order in range(1, 49):
        for tag in candidate_tags(order):
            grp = realize(tag)
            assert catalog_identify(grp) == tag, tag
            # conjugating the generators must not change the answer
            deg = grp.degree
            img = list(range(deg))
            rng.shuffle(img)
            c, ci = tuple(img), perm_inverse(tuple(img))
            conj = close(
                Permutation(perm_compose(perm_compose(c, g.image), ci)) for g in grp.generators
            )
            assert catalog_identify(conj) == tag, tag


def test_identify_unrecognized():
    z3z3 = close([from_cycles(6, [(0, 1, 2)]), from_cycles(6, [(3, 4, 5)])])
    gid = catalog_identify(z3z3)
    assert str(gid) == "U9"
    assert gid.order == 9
    # signs no sphere symmetry group has: Z3xZ3 as "rotations" is no rotation group
    assert identify(PermGroup(z3z3.degree, z3z3.base, z3z3.moves, z3z3.tree, (1,) * 9)) == gid


def test_identify_refuses_a_group_without_signs():
    s4 = close([from_cycles(4, [(0, 1)]), from_cycles(4, [(0, 1, 2, 3)])])
    for fn in (signature, identify):
        with pytest.raises(PreconditionError):
            fn(s4)


def _top_bottom(n: int) -> list[set[int]]:
    return [set(range(n)), set(range(n, 2 * n))]


# (graph, painted, tag, |R|): one graph per kind of tag and per rule of the
# split; the twisted and gyro graphs are chiral, so only rotations survive
SPLIT_CASES = {
    "tetrahedron": (tetrahedron(), False, "S4", 12),  # Td: A4 extended
    "cube": (cube(), False, "S4xZ2", 24),
    "dodecahedron": (dodecahedron(), False, "A5xZ2", 60),
    "expanded dodecahedron": (cycle_expand(dodecahedron())[0], True, "A5xZ2", 60),
    "wheel5": (wheel(5), False, "D5", 5),  # C5v: Z5 extended by reflections
    "prism5": (prism(5), False, "D10", 10),  # D5h = D5 x Z2
    "prism6": (prism(6), False, "D6xZ2", 12),
    "antiprism4": (antiprism(4), False, "D8", 8),  # D4d: D4 extended
    "ochain5": (gamma_ochain(5), True, "Z2xZ2", 2),
    "twisted prism5 face": (twist(prism(5), _top_bottom(5)[:1], (False,)), False, "Z5", 5),
    "twisted prism6 faces": (twist(prism(6), _top_bottom(6), (False, False)), False, "D6", 12),
    "twisted prism4 faces": (twist(prism(4), _top_bottom(4), (False, True)), False, "Z4xZ2", 4),
    "twisted prism5 faces": (twist(prism(5), _top_bottom(5), (False, True)), False, "Z10", 5),
    "twisted antiprism4": (twist(antiprism(4), _top_bottom(4), (False, True)), False, "Z8", 4),
    "gyro truncated tetrahedron": (gyro(cycle_expand(tetrahedron())[0]), False, "A4", 12),
    "gyro cube": (gyro(cube()), False, "S4", 24),
    "gyro dodecahedron": (gyro(dodecahedron()), False, "A5", 60),
    "pyritohedral cube": (chorded_cube(3), False, "A4xZ2", 12),
}


@pytest.mark.parametrize("name", sorted(SPLIT_CASES))
def test_identify_reads_the_orientation_split(name):
    """Each group's type from its sphere geometry, read off the split of
    the automorphism signs and matched by the catalog oracle alike."""
    g, painted, tag, rotations = SPLIT_CASES[name]
    grp = automorphisms(g, painted)
    assert str(identify(grp)) == tag
    assert catalog_identify(grp) == identify(grp)
    assert signature(grp).rotations == rotations


@pytest.mark.parametrize("painted", [False, True], ids=["unpainted", "painted"])
@pytest.mark.parametrize("name", sorted(SPLIT_CASES))
def test_signature_matches_the_full_vertex_oracle(name, painted):
    """The split read on the three base vertices equals the one read off
    every element's full vertex images, chiral graphs included (twisted
    faces, gyro, the pyritohedral chords); only the identity fixes the
    base."""
    grp = automorphisms(SPLIT_CASES[name][0], painted)
    assert len(set(grp.base)) == 3
    assert base_fixers(grp) == 0
    for x in (p.image for p in grp.elements):
        assert groups._base_order(x, grp.base) == perm_order(x)
    assert signature(grp) == full_signature(grp)


def test_identify_agrees_with_brute_force_iso_oracle():
    """Same-order catalog groups are pairwise non-isomorphic by the brute
    multiplication-table oracle, and catalog_identify() keeps them apart; a
    second realization of the same group is recognized as the same."""
    order8 = [GroupId.cyclic(8), GroupId.dihedral(4), GroupId.cyclic_x_z2(4)]
    elem_sets = []
    for tag in order8:
        grp = realize(tag)
        elem_sets.append({p.image for p in grp.elements})
    for i in range(len(order8)):
        for j in range(i + 1, len(order8)):
            assert not abstract_isomorphic(elem_sets[i], elem_sets[j])
            assert catalog_identify(realize(order8[i])) != catalog_identify(realize(order8[j]))

    # positive control: S3 on 3 points vs the catalog dihedral(3) realization
    s3 = close([from_cycles(3, [(0, 1)]), from_cycles(3, [(0, 1, 2)])])
    d3 = realize(GroupId.dihedral(3))
    assert abstract_isomorphic({p.image for p in s3.elements}, {p.image for p in d3.elements})
    assert catalog_identify(s3) == GroupId.dihedral(3)


def test_identify_klein_vs_z4():
    klein = close([from_cycles(4, [(0, 1)]), from_cycles(4, [(2, 3)])])
    z4 = close([from_cycles(4, [(0, 1, 2, 3)])])
    assert catalog_identify(klein) == GroupId.klein()
    assert catalog_identify(z4) == GroupId.cyclic(4)
    assert not abstract_isomorphic(
        {p.image for p in klein.elements}, {p.image for p in z4.elements}
    )


def test_helper_closure_matches_library():
    """``close`` against the plain-tuple BFS: the same elements, each once,
    the given generators that are new to the span of the ones before them,
    in input order, and a cap one below the order refused; element i is
    moves[k] after element j, in ``perm_compose``'s order."""
    cases = [  # generators, degree, order
        ([(1, 2, 0, 3), (0, 1, 3, 2)], 4, 24),
        ([(1, 2, 0, 3), (0, 1, 3, 2), (2, 0, 1, 3)], 4, 24),  # redundant: the 3-cycle's inverse
        ([(1, 2, 0, 3), (1, 2, 0, 3)], 4, 3),  # repeated
        ([(0, 1, 2)], 3, 1),  # the identity
        ([], 1, 1),
        ([(1, 0, 2, 3), (1, 2, 3, 0)], 4, 24),  # S4
        ([(1, 2, 3, 4, 0), (0, 4, 3, 2, 1)], 5, 10),  # D5
    ]
    for gens, degree, order in cases:
        lib = close([Permutation(g) for g in gens], degree=degree)
        assert lib.order == order
        assert sorted(p.image for p in lib.elements) == sorted(close_tuples(gens, degree))
        new = [x for k, x in enumerate(gens) if x not in close_tuples(gens[:k], degree)]
        assert [p.image for p in lib.generators] == new
        check_irredundant_generators(lib)
        with pytest.raises(CapExceededError):
            close([Permutation(g) for g in gens], degree=degree, cap=order - 1)
    lib = close([Permutation(g) for g in cases[0][0]])
    image = dict(lib.images())  # element i is moves[k] after element j
    for i, (j, k) in enumerate(lib.tree, 1):
        assert image[i] == perm_compose(lib.moves[k], image[j])
