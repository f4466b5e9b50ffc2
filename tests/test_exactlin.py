"""Integer linear algebra: Smith normal form, homology engines."""

import copy
import random
import re
import time
from fractions import Fraction

import pytest

import helpers
from equichar import (ChainComplexZ, ConsistencyError, HomologyGroup,
                      InputError, IntegerMatrix, augment, cohomology,
                      cyclic_extension, exactlin, homology, homology_mod_p,
                      is_elementary_abelian, is_p_group, is_prime,
                      moore_complex, prime_power_base, rank_mod_p,
                      smith_normal_form)


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)


def test_exponent_of_a_prime():
    assert [exactlin._exponent(48, p) for p in (2, 3, 5)] == [4, 1, 0]
    assert exactlin._exponent(1, 7) == 0
    assert exactlin._exponent(3 ** 40, 3) == 40


def test_factor_against_trial_products():
    assert exactlin._factor(1) == {}
    assert exactlin._factor(360) == {2: 3, 3: 2, 5: 1}
    assert exactlin._factor(2 * 10007) == {2: 1, 10007: 1}
    for n in range(1, 300):
        factors = exactlin._factor(n)
        assert all(exactlin.is_prime(p) and e >= 1 for p, e in factors.items())
        product = 1
        for p, e in factors.items():
            product *= p ** e
        assert product == n


def test_prime_power_base():
    assert prime_power_base(8) == 2
    assert prime_power_base(27) == 3
    assert prime_power_base(5) == 5
    assert prime_power_base(12) is None
    assert prime_power_base(1) is None


def test_prime_tests_take_only_ints():
    for bad in (3.0, 8.0, "3", True, Fraction(3), None):
        with pytest.raises(InputError):
            is_prime(bad)
        with pytest.raises(InputError):
            prime_power_base(bad)


def test_snf_single_entry():
    diag, rank = smith_normal_form(IntegerMatrix.from_rows([[2]]))
    assert diag == [2]
    assert rank == 1


def test_snf_empty():
    diag, rank = smith_normal_form(IntegerMatrix(0, 0))
    assert diag == []
    assert rank == 0


def test_snf_forces_divisibility():
    diag, rank = smith_normal_form(IntegerMatrix.from_rows([[2, 0], [0, 3]]))
    assert diag == [1, 6]
    assert rank == 2


def test_snf_zero_matrix():
    diag, rank = smith_normal_form(IntegerMatrix(3, 2))
    assert rank == 0
    assert diag == [0, 0]


def _random_matrices():
    rng = random.Random(20240811)
    out = []
    for _ in range(40):
        nr = rng.randrange(1, 5)
        nc = rng.randrange(1, 6)
        rows = [[rng.randrange(-9, 10) for _ in range(nc)] for _ in range(nr)]
        out.append(rows)
    return out


def test_snf_divisibility_chain_and_rank():
    for rows in _random_matrices():
        diag, rank = smith_normal_form(IntegerMatrix.from_rows(rows))
        nonzero = [d for d in diag if d]
        assert len(nonzero) == rank
        assert all(d > 0 for d in nonzero)
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        assert diag[rank:] == [0] * (len(diag) - rank)
        assert rank == helpers.rational_rank(rows)


def test_snf_matches_determinantal_divisors():
    for rows in _random_matrices():
        diag, rank = smith_normal_form(IntegerMatrix.from_rows(rows))
        prod = 1
        for k in range(1, rank + 1):
            prod *= diag[k - 1]
            assert prod == helpers.minors_gcd(rows, k)


def test_rank_mod_p():
    m = IntegerMatrix.from_rows([[2, 4], [6, 8]])
    assert rank_mod_p(m, 2) == 0
    assert rank_mod_p(m, 3) == 2
    with pytest.raises(InputError):
        rank_mod_p(m, 4)


def _sparse_matrices():
    """Seeded random matrices with entries in {0, +-1, +-2, 3, 6}, mostly
    zero, including 0 x n and n x 0 shapes."""
    rng = random.Random(20261018)
    values = [0] * 8 + [1, -1, 2, -2, 3, 6]
    out = [IntegerMatrix(0, 4), IntegerMatrix(5, 0)]
    for _ in range(300):
        nr, nc = rng.randrange(0, 9), rng.randrange(0, 9)
        out.append(IntegerMatrix(nr, nc, [[rng.choice(values) for _ in range(nc)]
                                          for _ in range(nr)]))
    return out


def _boundary_matrices():
    """Every boundary matrix of the complex corpus (RP^2 included),
    bary(octahedron), the Moore complexes and a Moore extension, augmented
    where it applies."""
    complexes = [augment(x.chain_complex()) for x in helpers.complex_corpus().values()]
    complexes.append(augment(helpers.octahedron().barycentric_subdivision().chain_complex()))
    complexes.extend(moore_complex(m, q) for m, q in ((1, 2), (2, 3), (3, 4)))
    complexes.append(cyclic_extension(1, 2, 3).complex)
    return [c.boundary(d) for c in complexes for d in c.degrees()]


def test_snf_matches_dense_snf_on_sparse_matrices():
    for m in _sparse_matrices():
        assert smith_normal_form(m) == exactlin._dense_snf(m)


def test_snf_matches_dense_snf_on_boundary_matrices():
    torsion = set()
    for m in _boundary_matrices():
        diag, rank = smith_normal_form(m)
        assert (diag, rank) == exactlin._dense_snf(m)
        torsion.update(d for d in diag if d > 1)
    # non-unit residues were exercised, and their torsion kept exact
    assert {2, 3, 4} <= torsion


def test_rank_mod_p_matches_oracle():
    rng = random.Random(7)
    matrices = _sparse_matrices() + _boundary_matrices()
    # negative entries and entries >= p
    for _ in range(100):
        nr, nc = rng.randrange(1, 7), rng.randrange(1, 7)
        matrices.append(IntegerMatrix(nr, nc, [[rng.randrange(-20, 21) for _ in range(nc)]
                                               for _ in range(nr)]))
    for m in matrices:
        rows = helpers.matrix_rows(m)
        for p in (2, 3, 5, 7):
            assert rank_mod_p(m, p) == helpers.modp_rank(rows, p)


def _check_eliminate(m, p=None):
    """The contract of the sparse eliminator on the rows of m: pivot and
    residue row numbers are disjoint and name nonempty input rows; over Z
    the residue rows are nonempty and free of +-1, and the pivots plus the
    residue's rank give the rank; over GF(p) nothing is left and the
    pivots give the rank.  The ranks are checked against oracles apart."""
    rows = exactlin._rows_of(m, p)
    nonempty = {i for i, row in enumerate(rows) if row}
    pivots, residue = exactlin._eliminate(rows, p)
    assert not pivots & set(residue)
    assert pivots | set(residue) <= nonempty
    if p is None:
        assert all(residue.values())
        assert all(v not in (1, -1) for row in residue.values() for v in row.values())
        assert len(pivots) + len(exactlin._reduce(list(residue.values()))[1]) == \
            smith_normal_form(m)[1]
    else:
        assert residue == {}
        assert len(pivots) == rank_mod_p(m, p)


def _check_against_oracles(m):
    assert smith_normal_form(m) == exactlin._dense_snf(m)
    _check_eliminate(m)
    rows = helpers.matrix_rows(m)
    for p in (2, 3, 5):
        assert rank_mod_p(m, p) == helpers.modp_rank(rows, p)
        _check_eliminate(m, p)


def _from_sparse(rows, ncols):
    return IntegerMatrix(len(rows), ncols, [[row.get(j, 0) for j in range(ncols)]
                                            for row in rows])


def _fill_past_the_longest_row(n=24):
    """The signed vertex-edge incidence matrix of the Moebius ladder on n
    vertices: every row has 3 entries and every column 2.  Whatever the
    first pivot, the other row of its column shares no other column with
    the pivot row, so it grows from 3 to 4 entries, past every input row."""
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, i + n // 2) for i in range(n // 2)]
    rows = [{} for _ in range(n)]
    for e, (a, b) in enumerate(edges):
        rows[a][e], rows[b][e] = 1, -1
    return _from_sparse(rows, len(edges))


def _shorten_below_the_floor(n=30):
    """A staircase: row k holds columns 0 .. k + 2, with one sign per
    column.  The first pivot is a row of 3 entries, in a column every row
    holds, and the row of 4 entries keeps one: it falls to length 1, below
    the 3 the scan had climbed to; then every pivot is alone in its row."""
    return _from_sparse([{j: (-1) ** j for j in range(k + 3)} for k in range(n)], n + 2)


def _unit_gained_by_update(n=20):
    """2 x 2 blocks [[1, 1], [2, 3]], in both row orders, chained by a 2
    into the next block.  A row (2, 3, 2) has no unit; if it is reached
    before its partner, it leaves the queue, and the partner's update,
    which gives it an entry -1 or 1, must queue it again.  Over Z the
    matrix is unimodular."""
    rows = []
    for b in range(n // 2):
        c = 2 * b
        unit, other = {c: 1, c + 1: 1}, {c: 2, c + 1: 3}
        if c + 2 < n:
            other[c + 2] = 2
        rows.extend((unit, other) if b % 2 else (other, unit))
    return _from_sparse(rows, n)


def _rows_emptied_by_updates(n=40, seed=3):
    """Seeded sparse rows of +-1 entries, each followed by a multiple by
    -1, 2 or 3 of itself (a zero row mod 3 when the factor is 3).  Row
    operations keep a row and its multiple proportional, so when one of
    them pivots the update empties the other."""
    rng = random.Random(seed)
    rows = []
    for _ in range(n // 2):
        row = {j: rng.choice((1, -1)) for j in rng.sample(range(n), rng.randrange(1, 5))}
        c = rng.choice((-1, 2, 3))
        rows.extend((row, {j: c * v for j, v in row.items()}))
    return _from_sparse(rows, n)


def test_eliminator_bookkeeping_on_hand_built_matrices():
    cases = [_fill_past_the_longest_row(), _shorten_below_the_floor(),
             _unit_gained_by_update(), _rows_emptied_by_updates()]
    for m in cases:
        assert 20 <= m.rows <= 60
        _check_against_oracles(m)
    # the ladder is connected, so its incidence matrix has rank n - 1; the
    # staircase and the chained blocks have full rank
    assert smith_normal_form(cases[0])[1] == 23
    assert smith_normal_form(cases[1]) == ([1] * 30, 30)
    assert smith_normal_form(cases[2]) == ([1] * 20, 20)


def test_eliminator_on_seeded_sparse_matrices():
    """20 to 60 rows, about 3 entries a row, entries in {0, +-1, +-2, 3}."""
    rng = random.Random(20261019)
    values = (1, -1, 2, -2, 3)
    for _ in range(24):
        nr, nc = rng.randrange(20, 61), rng.randrange(20, 61)
        rows = [{j: rng.choice(values) for j in rng.sample(range(nc), rng.randrange(0, 6))}
                for _ in range(nr)]
        _check_against_oracles(_from_sparse(rows, nc))


def test_matrix_multiplication():
    a = IntegerMatrix.from_rows([[1, 2], [3, 4]])
    b = IntegerMatrix.from_rows([[0, 1], [1, 0]])
    assert (a * b) == IntegerMatrix.from_rows([[2, 1], [4, 3]])


def test_matrix_stores_no_zeros():
    a = IntegerMatrix(2, 3)
    a[1, 0] = 4
    a[0, 1] = 5
    a[1, 2] = -1
    a[1, 0] = 0
    a[0, 1] = 0
    a[0, 0] = 0
    b = IntegerMatrix.from_rows([[0, 0, 0], [0, 0, -1]])
    assert a.entries == b.entries == [{}, {2: -1}]
    assert a == b and hash(a) == hash(b)
    assert a[0, 1] == 0 and a[1, 2] == -1
    # the same entries written in another order
    c, d = IntegerMatrix(1, 3), IntegerMatrix(1, 3)
    c[0, 2], c[0, 0] = 7, 3
    d[0, 0], d[0, 2] = 3, 7
    assert c == d and hash(c) == hash(d)
    assert IntegerMatrix.from_rows([[0, 0], [0, 0]]).is_zero()
    assert not b.is_zero()
    assert b != IntegerMatrix.from_rows([[0, 0, 0], [0, 0, 1]])


def test_matrix_constructor_errors():
    with pytest.raises(InputError, match="non-negative"):
        IntegerMatrix(-1, 2)
    with pytest.raises(InputError, match="row count"):
        IntegerMatrix(2, 1, [[1]])
    with pytest.raises(InputError, match="column count"):
        IntegerMatrix(1, 2, [[1]])
    with pytest.raises(InputError, match="integers"):
        IntegerMatrix(1, 2, [[1, 0.5]])


def test_matrix_index_outside_shape():
    m = IntegerMatrix.from_rows([[1, 0], [0, 2], [3, 0]])
    for i, j in ((3, 0), (0, 2), (-1, 0), (0, -1)):
        with pytest.raises(IndexError):
            m[i, j]
        with pytest.raises(IndexError):
            m[i, j] = 1
    assert m == IntegerMatrix.from_rows([[1, 0], [0, 2], [3, 0]])


def test_matrix_repr_is_dense():
    assert repr(IntegerMatrix.from_rows([[1, 0], [0, -2]])) == \
        "IntegerMatrix(2, 2, [[1, 0], [0, -2]])"
    assert repr(IntegerMatrix(0, 3)) == "IntegerMatrix(0, 3, [])"
    assert repr(IntegerMatrix(2, 0)) == "IntegerMatrix(2, 0, [[], []])"


def test_matrix_product_matches_dense_product():
    rng = random.Random(314)
    values = [0] * 6 + [1, -1, 2, -2, 3]
    for _ in range(200):
        n, k, c = rng.randrange(0, 6), rng.randrange(0, 6), rng.randrange(0, 6)
        a = [[rng.choice(values) for _ in range(k)] for _ in range(n)]
        b = [[rng.choice(values) for _ in range(c)] for _ in range(k)]
        prod = IntegerMatrix(n, k, a) * IntegerMatrix(k, c, b)
        assert (prod.rows, prod.cols) == (n, c)
        assert helpers.matrix_rows(prod) == helpers.dense_product(a, b, c)
        # cancelled sums are not stored
        assert all(v for row in prod.entries for v in row.values())
    with pytest.raises(InputError):
        IntegerMatrix(2, 3) * IntegerMatrix(2, 3)


def test_elimination_leaves_its_argument_unchanged():
    for m in _sparse_matrices() + _boundary_matrices():
        before = [dict(row) for row in m.entries]
        smith_normal_form(m)
        rank_mod_p(m, 3)
        assert m.entries == before
    c = augment(helpers.rp2_triangulation().chain_complex())
    assert homology(c)[1] == HomologyGroup(0, (2,))
    assert cohomology(c)[2] == HomologyGroup(0, (2,))
    assert homology(c)[1] == HomologyGroup(0, (2,))


def test_homology_group_repr():
    assert repr(HomologyGroup()) == "0"
    assert repr(HomologyGroup(2)) == "Z^2"
    assert repr(HomologyGroup(1, (2,))) == "Z + Z/2"
    assert HomologyGroup(0, (2, 4)).is_trivial is False
    assert HomologyGroup().is_trivial is True


def test_homology_group_checks_and_stores_torsion():
    for args, message in (((-1,), "negative betti"), ((-1, (2,)), "negative betti"),
                          ((0, (1,)), "must exceed 1"), ((0, [2, 3]), "form a chain"),
                          ((0, (d for d in (4, 2))), "form a chain")):
        with pytest.raises(ConsistencyError, match=message):
            HomologyGroup(*args)
    for torsion in ([2, 4], (d for d in (2, 4)), (Fraction(2), 4.0)):
        g = HomologyGroup(1, torsion)
        assert g.torsion == (2, 4) and all(type(d) is int for d in g.torsion)
    for torsion in ((), [], (d for d in ())):
        assert HomologyGroup(3, torsion).torsion == ()
    assert HomologyGroup(3, []) == HomologyGroup(3)
    assert hash(HomologyGroup(3, [])) == hash(HomologyGroup(3))


def rp2_cells():
    return ChainComplexZ(
        {0: 1, 1: 1, 2: 1},
        {1: IntegerMatrix.from_rows([[0]]), 2: IntegerMatrix.from_rows([[2]])})


def test_rp2_cellular_homology():
    h = homology(rp2_cells())
    assert h[0] == HomologyGroup(1)
    assert h[1] == HomologyGroup(0, (2,))
    assert h[2] == HomologyGroup()


def test_rp2_cellular_cohomology():
    h = cohomology(rp2_cells())
    assert h[0] == HomologyGroup(1)
    assert h[1] == HomologyGroup()
    assert h[2] == HomologyGroup(0, (2,))


def test_rp2_mod_p():
    assert homology_mod_p(rp2_cells(), 2) == {0: 1, 1: 1, 2: 1}
    assert homology_mod_p(rp2_cells(), 3) == {0: 1, 1: 0, 2: 0}
    with pytest.raises(InputError):
        homology_mod_p(rp2_cells(), 6)


def test_zero_complex():
    c = ChainComplexZ({0: 0, 1: 0}, {1: IntegerMatrix(0, 0)})
    assert all(g.is_trivial for g in homology(c).values())
    assert all(v == 0 for v in homology_mod_p(c, 2).values())


def test_missing_boundary_is_zero(monkeypatch):
    # an omitted map is the zero map, and no elimination runs on it
    held = {1: IntegerMatrix.from_rows([[1], [-1]]),
            3: IntegerMatrix.from_rows([[2]])}
    ranks = {0: 2, 1: 1, 2: 1, 3: 1}
    missing = ChainComplexZ(ranks, held)
    explicit = ChainComplexZ(ranks, {**held, 0: IntegerMatrix(0, 2),
                                     2: IntegerMatrix(1, 1)})
    assert missing == explicit and explicit == missing
    assert missing.boundary(2) == IntegerMatrix(1, 1)
    assert missing != ChainComplexZ(ranks, {1: held[1]})
    calls = []
    reduce = exactlin._reduce

    def recording(rows, *args):
        # _reduce consumes its rows, so keep a copy of what it received
        calls.append([dict(row) for row in rows])
        return reduce(rows, *args)

    monkeypatch.setattr(exactlin, "_reduce", recording)
    h = homology(missing)
    # top down, held boundaries only
    assert calls == [held[3].entries, held[1].entries]
    assert h == homology(explicit)
    assert h[2] == HomologyGroup(0, (2,))
    for p in (2, 3):
        calls.clear()
        assert homology_mod_p(missing, p) == homology_mod_p(explicit, p)
        assert calls[:2] == [[{j: v % p for j, v in row.items() if v % p}
                              for row in m.entries] for m in (held[3], held[1])]


def test_boundary_composition_checked():
    with pytest.raises(ConsistencyError):
        ChainComplexZ(
            {0: 1, 1: 1, 2: 1},
            {1: IntegerMatrix.from_rows([[1]]),
             2: IntegerMatrix.from_rows([[1]])})


def test_boundary_shape_checked():
    with pytest.raises(InputError):
        ChainComplexZ({0: 2, 1: 1}, {1: IntegerMatrix.from_rows([[1]])})
    with pytest.raises(InputError):
        ChainComplexZ({0: 1, 2: 1}, {2: IntegerMatrix.from_rows([[1]])})


@pytest.mark.parametrize("ranks, boundaries, labels, message", [
    ({0: 1}, {}, {0: ("a", "b")}, "label count mismatch in degree 0"),
    ({}, {1: IntegerMatrix(0, 0)}, None, "boundary map without degrees"),
    ({0: 1}, {0: IntegerMatrix.from_rows([[1]])}, None,
     "nonzero boundary out of the lowest degree"),
    ({0: 1, 1: 1}, {3: IntegerMatrix.from_rows([[1]])}, None,
     "boundary shape mismatch in degree 3"),
    ({0: 1, 1: 1}, {1: [[1]]}, None,
     "boundary in degree 1 must be an IntegerMatrix"),
    ({0: 1}, {0: IntegerMatrix(5, 7)}, None,
     "boundary shape mismatch in degree 0"),
    ({2: 1}, {2: IntegerMatrix(0, 1)}, None, None),
])
def test_chain_complex_validation_messages(ranks, boundaries, labels, message):
    # the map out of the lowest degree has the shape 0 x rank of every
    # held map into an absent degree
    if message is None:
        assert ChainComplexZ(ranks, boundaries, labels=labels).degrees() == [2]
        return
    with pytest.raises(InputError, match="^%s$" % message):
        ChainComplexZ(ranks, boundaries, labels=labels)


@pytest.mark.parametrize("ranks, boundaries, labels, message", [
    ({"a": 1, "b": 1}, {}, None, "degree must be an int, got 'a'"),
    ({0.5: 1}, {}, None, "degree must be an int, got 0.5"),
    ({True: 1}, {}, None, "degree must be an int, got True"),
    ({0: 1}, {"x": IntegerMatrix(1, 0)}, None, "degree must be an int, got 'x'"),
    ({0: 1}, {}, {0.0: ("a",)}, "degree must be an int, got 0.0"),
    ({0: -1}, {}, None, "rank in degree 0 must be a non-negative int, got -1"),
    ({0: 1, 1: 1.0}, {}, None,
     "rank in degree 1 must be a non-negative int, got 1.0"),
    ({0: True}, {}, None, "rank in degree 0 must be a non-negative int, got True"),
])
def test_malformed_degrees_and_ranks(ranks, boundaries, labels, message):
    # an absent degree is the zero module, so degrees need not be
    # contiguous, but each must be an int and each rank a non-negative int
    with pytest.raises(InputError, match="^%s$" % re.escape(message)):
        ChainComplexZ(ranks, boundaries, labels=labels)


def test_homology_label_permutation_invariance():
    star = helpers.star5()
    h = augment(star.chain_complex())
    relabeled = star.relabel({"1": "z", "2": "y", "3": "x", "4": "w", "5": "m"})
    k = augment(relabeled.chain_complex())
    assert homology(h) == homology(k)


def test_universal_coefficients_on_cell_corpus():
    complexes = [rp2_cells()]
    for x in helpers.complex_corpus().values():
        complexes.append(x.chain_complex())
        complexes.append(augment(x.chain_complex()))
    for c in complexes:
        h = homology(c)
        for p in (2, 3, 5):
            dims = homology_mod_p(c, p)
            for d in c.degrees():
                expected = (h[d].betti
                            + sum(1 for t in h[d].torsion if t % p == 0)
                            + sum(1 for t in h.get(d - 1, HomologyGroup()).torsion
                                  if t % p == 0))
                assert dims[d] == expected


def test_euler_poincare_on_corpus():
    for x in helpers.complex_corpus().values():
        c = x.chain_complex()
        h = homology(c)
        lhs = sum((-1) ** d * c.rank(d) for d in c.degrees())
        rhs = sum((-1) ** d * h[d].betti for d in c.degrees())
        assert lhs == rhs == x.euler_characteristic()


def test_sparse_homology_at_scale():
    x = helpers.octahedron()
    for _ in range(3):
        x = x.barycentric_subdivision()
    assert x.f_vector() == (866, 2592, 1728)
    start = time.perf_counter()
    h = x.reduced_homology()
    dims = x.reduced_homology_mod_p(2)
    elapsed = time.perf_counter() - start
    assert {d: g for d, g in h.items() if not g.is_trivial} == {2: HomologyGroup(1)}
    assert {d: v for d, v in dims.items() if v} == {2: 1}
    assert elapsed < 5.0


def test_sparse_homology_of_bary2_cross_polytope():
    # S^3 with 40,256 simplices
    x = helpers.cross_polytope(4).barycentric_subdivision().barycentric_subdivision()
    assert x.f_vector() == (1696, 10912, 18432, 9216)
    start = time.process_time()
    h = x.reduced_homology()
    dims = x.reduced_homology_mod_p(2)
    elapsed = time.process_time() - start
    assert {d: g for d, g in h.items() if not g.is_trivial} == {3: HomologyGroup(1)}
    assert {d: v for d, v in dims.items() if v} == {3: 1}
    assert elapsed < 5.0


def test_torsion_survives_the_residue():
    x = helpers.rp2_triangulation().barycentric_subdivision().barycentric_subdivision()
    c = augment(x.chain_complex())
    # the top boundary keeps entries that no unit pivot clears
    assert exactlin._eliminate(exactlin._rows_of(c.boundary(2)))[1]
    h = homology(c)
    assert {d: g for d, g in h.items() if not g.is_trivial} == {1: HomologyGroup(0, (2,))}


def _check_against_route_without_clearing(c):
    h = helpers.homology_without_clearing(c)
    assert homology(c) == h
    assert cohomology(c) == helpers.dual_by_universal_coefficients(h)
    for p in (2, 3, 5):
        assert homology_mod_p(c, p) == helpers.mod_p_without_clearing(c, p)
    return h


def test_clearing_keeps_torsion_of_bary_rp2():
    x = helpers.rp2_triangulation().barycentric_subdivision()
    c = augment(x.chain_complex())
    h = _check_against_route_without_clearing(c)
    assert {d: g for d, g in h.items() if not g.is_trivial} == {1: HomologyGroup(0, (2,))}
    assert x.reduced_homology() == h
    assert x.reduced_cohomology() == helpers.dual_by_universal_coefficients(h)
    for p in (2, 3, 5):
        assert x.reduced_homology_mod_p(p) == helpers.mod_p_without_clearing(c, p)


def test_clearing_on_a_moore_extension():
    c = cyclic_extension(2, 9, 20).complex
    for cc in (c, augment(c)):
        _check_against_route_without_clearing(cc)
    assert all(g.is_trivial for g in homology(augment(c)).values())


def test_only_unit_pivots_clear_over_z():
    # d_2 = (2, 3)^T has no unit entry, so its pivot comes from the dense
    # residue; clearing that pivot's row would leave d_1 = (-2) or (3) and
    # read H_0 = Z/2 or Z/3
    c = ChainComplexZ({0: 1, 1: 2, 2: 1},
                      {1: IntegerMatrix.from_rows([[3, -2]]),
                       2: IntegerMatrix.from_rows([[2], [3]])})
    assert homology(c) == {d: HomologyGroup() for d in (0, 1, 2)}
    assert cohomology(c) == {d: HomologyGroup() for d in (0, 1, 2)}
    for p in (2, 3):
        assert homology_mod_p(c, p) == {0: 0, 1: 0, 2: 0}


def test_clearing_shrinks_what_the_eliminator_receives(monkeypatch):
    # bary^2(octahedron): d_2 has 3 * 288 entries; the 287 pivot rows of
    # d_2 clear that many columns of d_1, leaving 145 columns of 2 entries,
    # whose 145 pivot rows leave one column of the augmentation
    x = helpers.octahedron().barycentric_subdivision().barycentric_subdivision()
    assert x.f_vector() == (146, 432, 288)
    received = []
    eliminate = exactlin._eliminate

    def counting(rows, p=None):
        received.append(sum(map(len, rows)))
        return eliminate(rows, p)

    monkeypatch.setattr(exactlin, "_eliminate", counting)
    c = augment(x.chain_complex())
    for run in (x.reduced_homology, lambda: x.reduced_homology_mod_p(3),
                lambda: homology(c), lambda: homology_mod_p(c, 3)):
        received.clear()
        run()
        assert received == [864, 290, 1]
    received.clear()
    helpers.homology_without_clearing(c)
    assert sorted(received) == [146, 864, 864]


@pytest.mark.parametrize("p", [3.0, "3", True, 1, 4])
def test_p_must_be_a_prime_int_at_every_entry_point(p):
    x = helpers.rp2_triangulation()
    g = helpers.elem_ab(3, 2)
    for call in (lambda: rank_mod_p(IntegerMatrix.from_rows([[1, 2]]), p),
                 lambda: homology_mod_p(rp2_cells(), p),
                 lambda: x.reduced_homology_mod_p(p),
                 lambda: is_p_group(g, p),
                 lambda: is_elementary_abelian(g, p)):
        with pytest.raises(InputError, match="p must be prime, got %s" % re.escape(repr(p))):
            call()


def test_callers_matrices_are_left_untouched():
    # the eliminator consumes its rows, so every public entry point must
    # hand it copies; entries 4 and -3 are not reduced mod 2 or 3
    m = IntegerMatrix.from_rows([[4, -3, 0, 1], [2, 0, -1, 1], [0, 6, 2, -2]])
    x = helpers.rp2_triangulation().barycentric_subdivision()
    complexes = [rp2_cells(), augment(x.chain_complex()),
                 cyclic_extension(2, 9, 20).complex]
    before = copy.deepcopy((m, [c.boundaries for c in complexes]))
    smith_normal_form(m)
    for p in (2, 3):
        rank_mod_p(m, p)
    for c in complexes:
        homology(c)
        cohomology(c)
        for p in (2, 3):
            homology_mod_p(c, p)
    assert (m, [c.boundaries for c in complexes]) == before


def test_augment_checks_the_composition_out_of_degree_1():
    # an edge whose boundary is one endpoint
    bad = ChainComplexZ({0: 2, 1: 1}, {1: IntegerMatrix.from_rows([[1], [0]])})
    with pytest.raises(ConsistencyError,
                       match="^boundary composition is nonzero at degree 1$"):
        augment(bad)
    good = ChainComplexZ({0: 2, 1: 1}, {1: IntegerMatrix.from_rows([[1], [-1]])})
    assert homology(augment(good)) == {-1: HomologyGroup(), 0: HomologyGroup(),
                                       1: HomologyGroup()}
