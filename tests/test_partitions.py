import pytest
from hypothesis import given, strategies as st

from cyclocone.partitions import (
    Box,
    MultiPartition,
    Partition,
    content,
    enumerate_multipartitions,
    enumerate_partitions,
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
    def test_corner_box(self):
        assert content(Box(column=1, row=1)) == 0

    def test_second_column(self):
        assert content(Box(column=2, row=1)) == -1

    def test_third_row(self):
        assert content(Box(column=1, row=3)) == 2

    def test_membership(self):
        lam = P(3, 1)
        assert Box(column=3, row=1) in lam
        assert Box(column=1, row=2) in lam
        assert Box(column=2, row=2) not in lam
        assert Box(column=1, row=3) not in lam


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

    def test_boxes_count_is_size(self):
        lam = P(4, 2, 1)
        assert sum(1 for _ in lam.boxes()) == lam.size


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
        for lam in enumerate_partitions(7):
            assert residue(lam, 1).coords == (lam.size,)

    @given(partition_strategy, st.integers(1, 6))
    def test_coordinate_sum_is_size(self, lam, ell):
        assert residue(lam, ell).coordinate_sum() == lam.size

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


class TestEnumeration:
    def test_max_size_zero(self):
        assert list(enumerate_partitions(0)) == [Partition(())]

    def test_max_size_two(self):
        assert [p.parts for p in enumerate_partitions(2)] == [(), (1,), (2,), (1, 1)]

    def test_max_size_five_count(self):
        # p(0) + ... + p(5) = 1 + 1 + 2 + 3 + 5 + 7
        assert sum(1 for _ in enumerate_partitions(5)) == 19

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
        seen = list(enumerate_partitions(9))
        assert len(seen) == len(set(seen))

    def test_deterministic(self):
        first = [p.parts for p in enumerate_partitions(6)]
        second = [p.parts for p in enumerate_partitions(6)]
        assert first == second


class TestMultipartitionEnumeration:
    def test_five_pairs_of_size_two(self):
        assert sum(1 for _ in enumerate_multipartitions(2, 2)) == 5

    def test_size_zero(self):
        out = list(enumerate_multipartitions(0, 3))
        assert out == [MultiPartition.empty(3)]

    def test_single_component(self):
        out = [mp[0].parts for mp in enumerate_multipartitions(2, 1)]
        assert out == [(2,), (1, 1)]

    def test_no_duplicates_and_total_size(self):
        out = list(enumerate_multipartitions(4, 3))
        assert len(out) == len(set(out))
        assert all(mp.size == 4 for mp in out)

    @pytest.mark.parametrize("n,ell", [(3, 1), (4, 2), (3, 3), (2, 5)])
    def test_counts_against_convolution(self, n, ell):
        assert sum(1 for _ in enumerate_multipartitions(n, ell)) == (
            multipartition_count(n, ell)
        )

    @pytest.mark.parametrize("n,ell", [(3, 1), (4, 2), (3, 3), (2, 5)])
    def test_equals_the_recursive_oracle(self, n, ell):
        oracle = list(multipartitions_recursive(n, ell))
        assert len(oracle) == len(set(oracle)) == multipartition_count(n, ell)
        assert {
            tuple(c.parts for c in mp) for mp in enumerate_multipartitions(n, ell)
        } == set(oracle)
