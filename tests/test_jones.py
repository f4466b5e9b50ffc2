"""Moore complexes, cyclic-group extensions, and the acyclicity verifier."""

import time
from math import gcd

import pytest

import helpers
from equichar import exactlin
from equichar import (ChainComplexZ, ConsistencyError, EquivariantComplex,
                      HomologyGroup, InputError, IntegerMatrix,
                      PreconditionError, ResourceLimitError,
                      cyclic_extension, fixed_part,
                      homology, homology_mod_p, moore_complex,
                      reduced_homology_of, rp2_complex, verify_acyclic)


def oracle_acyclic(c):
    """Reduced integral acyclicity recomputed from the raw boundary rows.

    Rational betti numbers must vanish, and mod-p betti numbers must
    vanish for every prime that could carry torsion, i.e. every prime
    dividing the gcd of full-rank minors of some boundary (augmentation
    included).  A degree the complex omits is read as rank 0.  Uses only
    the Fraction/GF(p) eliminators from helpers.
    """
    assert c.degrees()[0] == 0
    degs = range(c.degrees()[-1] + 1)
    rows = {0: [[1] * c.rank(0)]}
    for d in degs[1:]:
        rows[d] = helpers.matrix_rows(c.boundary(d))
    ranks = {d: helpers.rational_rank(rows[d]) for d in rows}
    ranks[degs[-1] + 1] = 0
    for d in degs:
        if c.rank(d) - ranks[d] - ranks[d + 1]:
            return False
    primes = set()
    for d, r in rows.items():
        k = ranks[d]
        if k == 0 or not r or not r[0]:
            continue
        g = helpers.minors_gcd(r, k)
        f = 2
        while f * f <= g:
            while g % f == 0:
                primes.add(f)
                g //= f
            f += 1
        if g > 1:
            primes.add(g)
    for p in primes:
        pranks = {d: helpers.modp_rank(r, p) for d, r in rows.items()}
        pranks[degs[-1] + 1] = 0
        for d in degs:
            if c.rank(d) - pranks[d] - pranks[d + 1]:
                return False
    return True


def test_moore_complex_shape():
    m = moore_complex(1, 2)
    assert m.degrees() == [0, 1, 2]
    assert [m.rank(d) for d in (0, 1, 2)] == [1, 1, 1]
    assert m.boundary(2) == IntegerMatrix.from_rows([[2]])
    assert m.boundary(1) == IntegerMatrix(1, 1)
    assert m.labels[2] == ("l",)
    assert m == rp2_complex()


@pytest.mark.parametrize("m", [1, 2, 7, 1000, 10 ** 12])
def test_moore_complex_holds_only_its_one_map(m):
    c = moore_complex(m, 3)
    assert list(c.boundaries) == [m + 1]
    assert c.degrees() == [0, m, m + 1]
    ext = cyclic_extension(m, 3, 2)
    assert ext.complex.boundaries.keys() == {m + 1, m + 2}
    assert ext.complex.degrees() == [0, m, m + 1, m + 2]
    assert fixed_part(ext.equivariant).degrees() == [0, m, m + 1]


def test_zero_maps_are_never_reduced(monkeypatch):
    # only the held maps and the augmentation are eliminated, however
    # many degrees lie between them
    calls = []
    reduce = exactlin._reduce

    def counting(rows, *args):
        calls.append(len(rows))
        return reduce(rows, *args)

    monkeypatch.setattr(exactlin, "_reduce", counting)
    assert reduced_homology_of(moore_complex(1000, 2))[1000] == HomologyGroup(0, (2,))
    assert calls == [1, 1]
    ext = cyclic_extension(1000, 3, 2)
    calls.clear()
    assert verify_acyclic(ext.equivariant)
    assert calls == [3, 1, 1]


def test_moore_validation():
    with pytest.raises(InputError):
        moore_complex(0, 2)
    with pytest.raises(InputError):
        moore_complex(1, 1)


@pytest.mark.parametrize("m, q", [(1.5, 2), (2.0, 3), (True, 3), ("3", 3),
                                  (1, 3.0), (1, None)])
def test_moore_parameters_must_be_ints(m, q):
    with pytest.raises(InputError):
        moore_complex(m, q)
    with pytest.raises(InputError):
        cyclic_extension(m, q, 2)


def test_moore_complex_equals_one_listing_its_zero_degrees():
    listed = ChainComplexZ({0: 1, 1: 0, 2: 1, 3: 1},
                           {1: IntegerMatrix(1, 0), 2: IntegerMatrix(0, 1),
                            3: IntegerMatrix.from_rows([[2]])},
                           labels={0: ("pt",), 1: (), 2: ("c",), 3: ("l",)})
    moore = moore_complex(2, 2)
    assert listed == moore and moore == listed
    assert hash(listed) == hash(moore)
    assert listed != moore_complex(2, 3)
    assert listed != moore_complex(1, 2)


def test_rp2_homology_columns():
    c = rp2_complex()
    hom = homology(c)
    assert hom[0] == HomologyGroup(1)
    assert hom[1] == HomologyGroup(0, (2,))
    assert hom[2] == HomologyGroup()
    assert homology_mod_p(c, 2) == {0: 1, 1: 1, 2: 1}
    assert homology_mod_p(c, 3) == {0: 1, 1: 0, 2: 0}


def test_moore_torsion_placement():
    for m, q in ((1, 2), (2, 3), (1, 5)):
        hom = reduced_homology_of(moore_complex(m, q))
        assert hom[m] == HomologyGroup(0, (q,))
        assert all(g.is_trivial for d, g in hom.items() if d != m)


def test_extension_triples():
    for m, q, p in ((1, 2, 3), (1, 2, 5), (2, 2, 3)):
        res = cyclic_extension(m, q, p)
        assert res.acyclic and res.witness == {}
        assert verify_acyclic(res.equivariant)
        assert oracle_acyclic(res.complex)
        fixed = fixed_part(res.equivariant)
        assert fixed == moore_complex(m, q)
        assert reduced_homology_of(fixed)[m] == HomologyGroup(0, (q,))
        assert homology_mod_p(fixed, 2)[m] >= 1


def test_extension_total_mod_q_concentrates_in_degree_zero():
    for m, q, p in ((1, 2, 3), (1, 2, 5), (2, 2, 3)):
        dims = homology_mod_p(cyclic_extension(m, q, p).complex, q)
        assert dims[0] == 1
        assert all(v == 0 for d, v in dims.items() if d > 0)


def window_rows(q, p):
    """Rows of the boundary out of the t cells, one step per window cell."""
    rows = [{} for _ in range(1 + p)]
    for i in range(p):
        rows[0][i] = 1
        for off in range(q):
            row = rows[1 + (i + off) % p]
            row[i] = row.get(i, 0) - 1
    return rows


@pytest.mark.parametrize("p", range(2, 9))
def test_window_boundary_in_closed_form(p):
    for q in range(2, 30):
        if gcd(p, q) == 1:
            for m in (1, 2):
                ext = cyclic_extension(m, q, p)
                assert ext.complex.boundary(m + 2).entries == window_rows(q, p)


def test_window_boundary_does_not_walk_the_windows():
    start = time.perf_counter()
    ext = cyclic_extension(1, 10 ** 9 + 1, 2)
    assert time.perf_counter() - start < 0.5
    assert ext.acyclic
    assert ext.complex.boundary(3).entries == [
        {0: 1, 1: 1}, {0: -500000001, 1: -500000000},
        {0: -500000000, 1: -500000001}]


def test_group_order_bounded_before_any_cell_is_made():
    # a free orbit holds p cells, so p gets the order bound of every
    # group, and the refusal comes before the first cell is made
    orbits = {0: (("fixed", "pt"),), 1: (("fixed", "c"),),
              2: (("fixed", "l"),)}
    message = "^group order p=20001 exceeds max_order=20000$"
    for call in (lambda: cyclic_extension(1, 2, 20001),
                 lambda: EquivariantComplex(moore_complex(1, 2), 20001, orbits)):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=message):
            call()
        assert time.perf_counter() - start < 0.5
    with pytest.raises(PreconditionError):
        cyclic_extension(1, 2, 20000)  # p at the bound passes the check


def test_window_entries_bounded_before_the_window_is_made():
    # p = q - 1 = 2000 asks for 4,000,000 window entries, which took
    # seconds and over 500 MB; p = 1000 with q > p is at the bound
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="^window boundary of "
                       "4000000 entries exceeds max_window_entries=1000000$"):
        cyclic_extension(1, 2001, 2000)
    assert time.perf_counter() - start < 0.5


def test_extension_preconditions():
    with pytest.raises(PreconditionError):
        cyclic_extension(1, 2, 2)
    with pytest.raises(PreconditionError):
        cyclic_extension(1, 4, 2)
    with pytest.raises(InputError):
        cyclic_extension(1, 2, 1)
    with pytest.raises(InputError):
        cyclic_extension(0, 2, 3)


def test_q3_candidate_verified_not_assumed():
    res = cyclic_extension(1, 3, 2)
    assert res.acyclic == oracle_acyclic(res.complex)
    assert fixed_part(res.equivariant) == moore_complex(1, 3)


def test_verify_acyclic_examples():
    assert verify_acyclic(cyclic_extension(1, 2, 3).equivariant)
    assert not verify_acyclic(rp2_complex())
    assert verify_acyclic(ChainComplexZ({0: 1}, {}))


def test_reduced_homology_of_a_complex_without_degree_0():
    # degree 0 is the zero module, so no augmentation map leaves it and
    # degree -1 keeps its Z; no degree is added between -1 and 1
    c = ChainComplexZ({1: 1, 2: 1}, {2: IntegerMatrix.from_rows([[2]])})
    assert reduced_homology_of(c) == {
        -1: HomologyGroup(1), 1: HomologyGroup(0, (2,)), 2: HomologyGroup()}
    assert reduced_homology_of(ChainComplexZ({}, {})) == {-1: HomologyGroup(1)}


def test_fixed_part_of_all_fixed_orbits():
    c = moore_complex(1, 2)
    orbits = {0: (("fixed", "pt"),), 1: (("fixed", "c"),),
              2: (("fixed", "l"),)}
    equiv = EquivariantComplex(c, 3, orbits)
    assert fixed_part(equiv) == c


def test_fixed_part_trims_degrees_without_fixed_cells():
    # degree 0 is one free orbit, so the fixed part starts in degree 1 and
    # the boundary into degree 0 goes with it; degree 3 holds nothing
    c = ChainComplexZ({0: 2, 1: 1, 2: 1, 3: 0},
                      {1: IntegerMatrix(2, 1),
                       2: IntegerMatrix.from_rows([[2]]),
                       3: IntegerMatrix(1, 0)},
                      labels={0: ("a0", "a1"), 1: ("e",), 2: ("f",)})
    orbits = {0: (("free", ("a0", "a1")),), 1: (("fixed", "e"),),
              2: (("fixed", ("f",)),)}
    equiv = EquivariantComplex(c, 2, orbits)
    assert fixed_part(equiv) == ChainComplexZ(
        {1: 1, 2: 1}, {2: IntegerMatrix.from_rows([[2]])},
        labels={1: ("e",), 2: ("f",)})
    assert fixed_part(equiv).degrees() == [1, 2]
    points = ChainComplexZ({0: 2}, {}, labels={0: ("a0", "a1")})
    assert fixed_part(EquivariantComplex(points, 2, {0: orbits[0]})) == \
        ChainComplexZ({}, {})


def test_equivariant_validation():
    c = moore_complex(1, 2)
    with pytest.raises(InputError):
        EquivariantComplex(c, 2, {0: (("fixed", ("pt", "c")),)})
    with pytest.raises(InputError):
        EquivariantComplex(c, 2, {0: (("free", ("pt",)),),
                                  1: (("fixed", "c"),), 2: (("fixed", "l"),)})
    with pytest.raises(InputError):
        EquivariantComplex(c, 2, {0: (("orbit", "pt"),)})
    with pytest.raises(InputError):
        EquivariantComplex(c, 2, {0: ()})


@pytest.mark.parametrize("degree, descriptors", [
    (2, (("fixed", "zz"),)),
    (7, (("fixed", "zz"),)),
    (7, (("fixed", "l"),)),
    (-1, (("free", ("a", "b", "c")),)),
])
def test_orbit_descriptors_name_cells_of_their_degree(degree, descriptors):
    # a descriptor naming a cell its degree does not hold fails the
    # partition check, before any cell is looked up, also in a degree the
    # complex does not hold
    orbits = {0: (("fixed", "pt"),), 1: (("fixed", "c"),),
              2: (("fixed", "l"),), degree: descriptors}
    with pytest.raises(InputError, match="^orbits must partition the cells "
                                         "of degree %d$" % degree):
        EquivariantComplex(moore_complex(1, 2), 3, orbits)


def test_empty_descriptors_for_an_absent_degree():
    # an absent degree is the zero module, which no-orbit descriptors
    # partition
    orbits = {0: (("fixed", "pt"),), 1: (("fixed", "c"),),
              2: (("fixed", "l"),), 7: ()}
    equiv = EquivariantComplex(moore_complex(1, 2), 3, orbits)
    assert sorted(equiv.orbits) == [0, 1, 2]


@pytest.mark.parametrize("p", [1, True, 0, -3, "x", 2.0])
def test_group_order_checked(p):
    # with p = 1 a one-cell "free" orbit would pass although the generator
    # fixes the cell, and fixed_part would drop it
    free_point = {0: (("free", ("pt",)),), 1: (("fixed", "c"),),
                  2: (("fixed", "l"),)}
    all_fixed = {0: (("fixed", "pt"),), 1: (("fixed", "c"),),
                 2: (("fixed", "l"),)}
    for orbits in (free_point, all_fixed):
        with pytest.raises(InputError, match="^group order p must be at least 2$"):
            EquivariantComplex(moore_complex(1, 2), p, orbits)
    with pytest.raises(InputError, match="^group order p must be at least 2$"):
        cyclic_extension(1, 3, p)


def test_equivariance_of_boundary_enforced():
    c = ChainComplexZ({0: 2, 1: 2},
                      {1: IntegerMatrix.from_rows([[1, 0], [0, 2]])},
                      labels={0: ("a", "b"), 1: ("x", "y")})
    orbits = {0: (("free", ("a", "b")),), 1: (("free", ("x", "y")),)}
    with pytest.raises(InputError):
        EquivariantComplex(c, 2, orbits)


def test_fixed_part_rejects_leaky_boundary():
    c = ChainComplexZ({0: 2, 1: 1},
                      {1: IntegerMatrix.from_rows([[1], [1]])},
                      labels={0: ("a", "b"), 1: ("x",)})
    orbits = {0: (("free", ("a", "b")),), 1: (("fixed", "x"),)}
    equiv = EquivariantComplex(c, 2, orbits)
    with pytest.raises(ConsistencyError):
        fixed_part(equiv)
