import pytest
from hypothesis import given, strategies as st

from cyclocone.partitions import (
    MultiPartition,
    Partition,
    count_multipartitions,
    partitions_of,
    residue,
    shifted_residue,
)

from oracles import (
    multipartition_count,
    multipartitions_recursive,
    partition_count,
    partitions_recursive,
    residue_scan,
    shifted_residue_scan,
)


def P(*parts):
    return Partition(parts)


def MP(*components):
    return MultiPartition(tuple(P(*c) for c in components))


partition_strategy = st.lists(st.integers(1, 8), max_size=6).map(
    lambda parts: Partition(sorted(parts, reverse=True))
)


class TestContent:
    """The box in row j at position i has content j - i; the residue counts
    the boxes by content modulo ell, so a single box shows its content."""

    def test_corner_box(self):
        assert residue(P(1), 5).coords == (1, 0, 0, 0, 0)

    def test_second_column(self):
        # The first row's boxes have contents 0 and -1 = 4 mod 5.
        assert residue(P(2), 5).coords == (1, 0, 0, 0, 1)

    def test_third_row(self):
        # One box in each of three rows: contents 0, 1 and 2.
        assert residue(P(1, 1, 1), 5).coords == (1, 1, 1, 0, 0)


class TestPartitionBasics:
    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Partition((2, 0))

    def test_size_and_len(self):
        lam = P(3, 2, 2)
        assert lam.size == 7
        assert len(lam) == 3
        assert not Partition(())

    def test_text_round_trip(self):
        for text in ("[2,1]", "[]", "[5,5,1]"):
            assert str(Partition.parse(text)) == text

    def test_multipartition_text_round_trip(self):
        for text in ("[2];[]", "[];[];[]", "[3,1];[1];[2]"):
            assert str(MultiPartition.parse(text)) == text

    def test_multipartition_parse_checks_length(self):
        with pytest.raises(ValueError):
            MultiPartition.parse("[2];[]", ell=3)


class TestResidue:
    def test_empty_partition(self):
        for ell in (1, 2, 5):
            assert residue(Partition(()), ell).coords == (0,) * ell

    def test_row_of_two_mod_two(self):
        # boxes (1,1), (2,1) have contents 0, -1
        assert residue(P(2), 2).coords == (1, 1)

    def test_row_of_two_mod_three(self):
        assert residue(P(2), 3).coords == (1, 0, 1)

    def test_mod_one_counts_boxes(self):
        for size in range(8):
            for parts in partitions_of(size):
                assert residue(Partition(parts), 1).coords == (size,)

    @given(partition_strategy, st.integers(1, 6))
    def test_coordinate_sum_is_size(self, lam, ell):
        assert sum(residue(lam, ell).coords) == lam.size

    @given(partition_strategy, st.integers(1, 6))
    def test_matches_box_scan(self, lam, ell):
        assert residue(lam, ell).coords == residue_scan(lam.parts, ell)


class TestShiftedResidue:
    def test_all_empty(self):
        assert shifted_residue(MP((), (), ()), 3).coords == (0, 0, 0)

    def test_single_box_in_component_one(self):
        assert shifted_residue(MP((), (1,)), 2).coords == (0, 1)

    def test_mod_one_total_boxes(self):
        assert shifted_residue(MP((2, 1)), 1).coords == (3,)

    def test_component_length_checked(self):
        with pytest.raises(ValueError):
            shifted_residue(MP((), (1,)), 3)

    @given(st.lists(partition_strategy, min_size=2, max_size=4), st.data())
    def test_additive_over_component_distribution(self, comps, data):
        # Distributing whole components between two multipartitions adds up.
        # (Splitting parts inside one component does not: row indices shift.)
        ell = len(comps)
        keep = data.draw(st.lists(st.booleans(), min_size=ell, max_size=ell))
        nu = MultiPartition(tuple(comps))
        left = MultiPartition(
            tuple(c if k else Partition(()) for c, k in zip(comps, keep))
        )
        right = MultiPartition(
            tuple(Partition(()) if k else c for c, k in zip(comps, keep))
        )
        assert (
            shifted_residue(left, ell) + shifted_residue(right, ell)
            == shifted_residue(nu, ell)
        )

    @given(st.lists(partition_strategy, min_size=1, max_size=6))
    def test_matches_box_scan(self, comps):
        ell = len(comps)
        nu = MultiPartition(tuple(comps))
        scan = shifted_residue_scan(tuple(c.parts for c in comps), ell)
        assert shifted_residue(nu, ell).coords == scan


def up_to(max_size):
    """The part tuples of every size up to max_size, sizes ascending."""
    return [parts for size in range(max_size + 1) for parts in partitions_of(size)]


class TestEnumeration:
    def test_max_size_zero(self):
        assert up_to(0) == [()]

    def test_max_size_two(self):
        assert up_to(2) == [(), (1,), (2,), (1, 1)]

    def test_max_size_five_count(self):
        # p(0) + ... + p(5) = 1 + 1 + 2 + 3 + 5 + 7
        assert len(up_to(5)) == 19

    def test_order_within_size(self):
        assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))

    def test_counts_against_recurrence(self):
        for n in range(12):
            assert len(partitions_of(n)) == partition_count(n)

    def test_equals_the_recursive_oracle(self):
        for n in range(12):
            oracle = list(partitions_recursive(n))
            assert len(oracle) == len(set(oracle)) == partition_count(n)
            assert set(partitions_of(n)) == set(oracle)

    def test_no_duplicates(self):
        seen = up_to(9)
        assert len(seen) == len(set(seen))

    def test_deterministic(self):
        first = up_to(6)
        partitions_of.cache_clear()
        assert up_to(6) == first


class TestMultipartitionEnumeration:
    """count_multipartitions against the recursive listing of the oracle."""

    def test_five_pairs_of_size_two(self):
        assert count_multipartitions(2, 2) == 5

    def test_size_zero(self):
        assert list(multipartitions_recursive(0, 3)) == [((), (), ())]
        assert count_multipartitions(0, 3) == 1

    def test_single_component(self):
        assert list(multipartitions_recursive(2, 1)) == [((2,),), ((1, 1),)]
        assert count_multipartitions(2, 1) == 2

    def test_no_duplicates_and_total_size(self):
        out = list(multipartitions_recursive(4, 3))
        assert len(out) == len(set(out)) == count_multipartitions(4, 3)
        assert all(sum(map(sum, mp)) == 4 for mp in out)

    @pytest.mark.parametrize("n,ell", [(3, 1), (4, 2), (3, 3), (2, 5)])
    def test_counts_against_convolution(self, n, ell):
        assert count_multipartitions(n, ell) == multipartition_count(n, ell)

    @pytest.mark.parametrize("n,ell", [(3, 1), (4, 2), (3, 3), (2, 5)])
    def test_equals_the_recursive_oracle(self, n, ell):
        oracle = list(multipartitions_recursive(n, ell))
        assert len(oracle) == len(set(oracle)) == count_multipartitions(n, ell)
