"""Property tests: random small permutation groups and integer matrices
against brute-force oracles."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

import helpers  # noqa: E402
from equichar import (IntegerMatrix, Permutation,  # noqa: E402
                      all_subgroups, exactlin, group_from_generators,
                      normalizer, smith_normal_form)


@st.composite
def small_groups(draw):
    """A group generated by one to three permutations of at most five points."""
    n = draw(st.integers(1, 5))
    points = [str(i) for i in range(1, n + 1)]
    images = draw(st.lists(st.permutations(points), min_size=1, max_size=3))
    gens = [Permutation(points, dict(zip(points, img))) for img in images]
    return group_from_generators(points, gens)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(small_groups())
def test_lattice_lagrange_and_normalizers(g):
    assume(g.order <= 24)
    subs = all_subgroups(g)
    assert len(subs) == len(helpers.brute_subgroups(g))
    for h in subs:
        assert g.order % h.order == 0
        members = set(h.elements)
        fixing = {x.key for x in g.elements
                  if {x.inverse() * y * x for y in h.elements} == members}
        assert set(normalizer(g, h).key) == fixing


@st.composite
def sparse_matrices(draw):
    """Up to 8 x 8, entries in {0, +-1, +-2, 3, 6}, empty shapes included."""
    nr = draw(st.integers(0, 8))
    nc = draw(st.integers(0, 8))
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -2, 3, 6])
    rows = draw(st.lists(st.lists(entry, min_size=nc, max_size=nc),
                         min_size=nr, max_size=nr))
    return IntegerMatrix(nr, nc, rows)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(sparse_matrices())
def test_sparse_snf_equals_dense_snf(m):
    assert smith_normal_form(m) == exactlin._dense_snf(m)
