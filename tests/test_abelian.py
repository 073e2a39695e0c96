import random
from math import gcd, prod

import pytest

from cyclocone.abelian import (
    FGAbelianGroup,
    IntMatrix,
    cokernel,
    smith_normal_form,
)

from cyclocone.orbits import _class_set_pi1, _string_class_table

from oracles import cokernel_by_minors, cyclic_group, det_int, mask_vectors


def check_decomposition(m: IntMatrix):
    """U*M*V = D with unimodular transforms and a divisibility chain."""
    u, d, v = smith_normal_form(m)
    assert u @ m @ v == d
    assert abs(det_int(u.row_lists())) == 1
    assert abs(det_int(v.row_lists())) == 1
    diag = d.diagonal()
    for i in range(m.rows):
        for j in range(m.cols):
            if i != j:
                assert d[i, j] == 0
    assert all(e >= 0 for e in diag)
    nonzero = [e for e in diag if e != 0]
    # zeros trail the nonzero entries, and each entry divides the next
    assert list(diag[: len(nonzero)]) == nonzero
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    return d


class TestSmithNormalForm:
    def test_one_by_one(self):
        _, d, _ = smith_normal_form(IntMatrix.from_rows([[2]]))
        assert d.diagonal() == (2,)

    def test_column_of_ones(self):
        m = IntMatrix.from_rows([[1], [1]])
        d = check_decomposition(m)
        assert d.diagonal() == (1,)
        assert d[1, 0] == 0

    def test_two_by_two(self):
        m = IntMatrix.from_rows([[2, 4], [6, 8]])
        d = check_decomposition(m)
        assert d.diagonal() == (2, 4)

    def test_zero_matrix(self):
        m = IntMatrix.from_rows([[0, 0], [0, 0]])
        d = check_decomposition(m)
        assert d.diagonal() == (0, 0)

    def test_empty_dimensions(self):
        for rows, cols in ((0, 0), (0, 3), (3, 0)):
            m = IntMatrix(rows, cols, ())
            u, d, v = smith_normal_form(m)
            assert (u.rows, u.cols) == (rows, rows)
            assert (v.rows, v.cols) == (cols, cols)
            assert d == m

    def test_random_matrices(self):
        rng = random.Random(1729)
        for _ in range(300):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = IntMatrix(
                rows,
                cols,
                [rng.randint(-9, 9) for _ in range(rows * cols)],
            )
            check_decomposition(m)


class TestFGAbelianGroup:
    def test_text_forms(self):
        assert str(FGAbelianGroup(0)) == "1"
        assert str(FGAbelianGroup(1)) == "Z"
        assert str(FGAbelianGroup(2)) == "Z^2"
        assert str(FGAbelianGroup(0, (2,))) == "Z/2"
        assert str(FGAbelianGroup(2, (2, 4))) == "Z^2 x Z/2 x Z/4"

    def test_rejects_bad_chain(self):
        with pytest.raises(ValueError):
            FGAbelianGroup(0, (4, 2))
        with pytest.raises(ValueError):
            FGAbelianGroup(0, (1,))

    def test_json(self):
        grp = FGAbelianGroup(1, (3,))
        assert grp.to_json() == {"free_rank": 1, "invariant_factors": [3]}


class TestCokernel:
    def test_no_columns_is_free(self):
        for ell in range(1, 5):
            grp = cokernel(IntMatrix(ell, 0, ()))
            assert grp == FGAbelianGroup(ell)

    def test_single_even_entry(self):
        assert cokernel(IntMatrix.from_rows([[2]])) == FGAbelianGroup(0, (2,))

    def test_column_of_ones(self):
        grp = cokernel(IntMatrix.from_rows([[1], [1]]))
        assert grp == FGAbelianGroup(1)

    def test_row_matrix_is_gcd(self):
        rng = random.Random(7)
        for _ in range(200):
            k = rng.randint(0, 5)
            entries = [rng.randint(-20, 20) for _ in range(k)]
            grp = cokernel(IntMatrix(1, k, entries))
            g = 0
            for e in entries:
                g = gcd(g, e)
            assert grp == cyclic_group(g)

    def test_invariance_under_column_moves(self):
        rng = random.Random(99)
        for _ in range(150):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            columns = [
                [rng.randint(-9, 9) for _ in range(rows)] for _ in range(cols)
            ]
            base = cokernel(IntMatrix.from_columns(columns, rows))

            shuffled = columns[:]
            rng.shuffle(shuffled)
            assert cokernel(IntMatrix.from_columns(shuffled, rows)) == base

            duplicated = columns + [columns[rng.randrange(cols)]]
            assert cokernel(IntMatrix.from_columns(duplicated, rows)) == base

            flipped = [
                [-x for x in col] if rng.random() < 0.5 else col
                for col in columns
            ]
            assert cokernel(IntMatrix.from_columns(flipped, rows)) == base

    def test_torsion_order_is_determinant(self):
        rng = random.Random(2024)
        checked = 0
        while checked < 100:
            size = rng.randint(1, 4)
            rows = [
                [rng.randint(-6, 6) for _ in range(size)] for _ in range(size)
            ]
            det = det_int(rows)
            if det == 0:
                continue
            grp = cokernel(IntMatrix.from_rows(rows))
            assert grp.free_rank == 0
            assert prod(grp.invariant_factors) == abs(det)
            checked += 1

    def test_agrees_with_minors_on_random_matrices(self):
        rng = random.Random(4242)
        for _ in range(300):
            rows = rng.randint(1, 5)
            cols = rng.randint(0, 8)
            columns = [
                tuple(rng.randint(-9, 9) for _ in range(rows)) for _ in range(cols)
            ]
            grp = cokernel(IntMatrix.from_columns(columns, rows))
            assert (grp.free_rank, grp.invariant_factors) == cokernel_by_minors(
                columns, rows
            )

    def test_agrees_with_minors_on_every_string_class_mask(self):
        # Every class mask of the (4, 4) counting table, through the public
        # matrix entry and through the closed-form pi1 cache.
        ell, _, groups = _string_class_table(4, 4)
        for mask in groups:
            columns = mask_vectors(ell, mask)
            expected = cokernel_by_minors(columns, ell)
            grp = cokernel(IntMatrix.from_columns(columns, ell))
            assert (grp.free_rank, grp.invariant_factors) == expected
            assert _class_set_pi1(ell, mask) == grp
