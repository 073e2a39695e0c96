import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import cyclocone.orbits as orbits_module
from cyclocone.abelian import FGAbelianGroup, IntMatrix, cokernel
from cyclocone.orbits import (
    OrbitLabel,
    admits_monodromic_local_system,
    count_Q_chi,
    decompose,
    enumerate_Q_chi,
    enumerate_orbits,
    fundamental_group,
)
from cyclocone.params import RationalCharacter
from cyclocone.partitions import MultiPartition, Partition, partitions_of
from cyclocone.report import (
    count_multipartitions,
    orbit_report,
    semisimplicity_report,
)
from cyclocone.rootlattice import DimVector, generate_Rn, pair

from oracles import (
    bad_mask_scan,
    brute_force_orbit_pairs,
    cokernel_by_minors,
    count_walk,
    cyclic_group,
    lap_families,
    mask_vectors,
    pairs_integrally,
    random_fraction,
    residue_scan,
    shifted_residue_scan,
    string_vectors_scan,
)


def label(lam, nu, n, ell):
    return OrbitLabel(
        Partition(lam), MultiPartition(tuple(Partition(c) for c in nu)), n, ell
    )


def chi_of(*vals):
    return RationalCharacter(tuple(Fraction(v) for v in vals))


class TestOrbitLabel:
    def test_validates_residue_law(self):
        with pytest.raises(ValueError):
            label((1,), ((),), 2, 1)
        with pytest.raises(ValueError):
            label((2,), ((), (1,)), 1, 2)

    def test_accepts_good_labels(self):
        lab = label((), ((), (2,)), 1, 2)
        assert lab.n == 1 and lab.ell == 2


class TestEnumeration:
    def test_forty_one(self):
        assert len(enumerate_orbits(2, 2)) == 41

    def test_n_zero(self):
        for ell in (1, 2, 3):
            out = enumerate_orbits(0, ell)
            assert len(out) == 1
            assert out[0].lam == Partition(())
            assert out[0].nu == MultiPartition((Partition(),) * ell)

    def test_enhanced_nilcone_table_order(self):
        out = enumerate_orbits(2, 1)
        expected = [
            ((2,), ((),)),
            ((1, 1), ((),)),
            ((1,), ((1,),)),
            ((), ((2,),)),
            ((), ((1, 1),)),
        ]
        assert [
            (lab.lam.parts, tuple(c.parts for c in lab.nu)) for lab in out
        ] == expected

    def test_no_duplicates(self):
        out = enumerate_orbits(3, 2)
        assert len(out) == len(set(out))

    @pytest.mark.parametrize("n,ell", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (1, 3), (2, 3)])
    def test_exhaustive_against_double_loop(self, n, ell):
        ours = {
            (lab.lam.parts, tuple(c.parts for c in lab.nu))
            for lab in enumerate_orbits(n, ell)
        }
        assert ours == brute_force_orbit_pairs(n, ell)

    @pytest.mark.parametrize("n,ell", [(4, 3), (3, 4), (5, 1), (3, 2), (0, 3)])
    def test_walk_yields_the_documented_order(self, n, ell):
        # Larger lambda first, then each size's partitions in descending
        # lexicographic order; nu components compare left to right by size,
        # then the same way.  Sorting the brute-force set by that key gives
        # the order independently of the walk.
        def key(pair):
            lam, comps = pair
            return (-sum(lam), [-p for p in lam]), [
                (sum(c), [-p for p in c]) for c in comps
            ]

        expected = sorted(brute_force_orbit_pairs(n, ell), key=key)
        walked = [
            (lam.parts, tuple(comp.partition.parts for comp in comps))
            for lam, comps, _ in orbits_module._fill_labels(n, ell)
        ]
        assert walked == expected
        assert [
            (lab.lam.parts, tuple(c.parts for c in lab.nu))
            for lab in enumerate_orbits(n, ell)
        ] == expected

    @pytest.mark.parametrize(
        "n, ell", [(n, 1) for n in range(7)] + [(n, 2) for n in range(4)]
    )
    def test_fill_labels_equal_the_brute_force_pairs(self, n, ell):
        # At ell <= 2 the walk has no prefix: every label comes whole from
        # the suffixes of a residue of the layer of component 0.  Labels and
        # masks against the oracle's double loop and its box scans; the
        # monodromic flags of orbit_report's rows, which read the same walk,
        # against pairs.
        rows = list(orbits_module._fill_labels(n, ell))
        pairs = [
            (lam.parts, tuple(comp.partition.parts for comp in comps))
            for lam, comps, _ in rows
        ]
        assert len(set(pairs)) == len(pairs)
        assert set(pairs) == brute_force_orbit_pairs(n, ell)
        for (_, nu), (_, _, mask) in zip(pairs, rows):
            assert set(mask_vectors(ell, mask)) == set(string_vectors_scan(nu, ell))
        rng = random.Random(10 * n + ell)
        characters = [chi_of(*["1/2"] * ell)] + [
            RationalCharacter(tuple(random_fraction(rng, max_den=4) for _ in range(ell)))
            for _ in range(2)
        ]
        for chi in characters:
            report = list(orbit_report(n, ell, chi))
            assert [(r.lam, r.components) for r in report] == [
                (lam, comps) for lam, comps, _ in rows
            ]
            for (_, nu), row in zip(pairs, report):
                vectors = string_vectors_scan(nu, ell)
                integral = all(pair(chi, DimVector(v)).denominator == 1 for v in vectors)
                assert row.monodromic == integral

    def test_sizes_add_up(self):
        for lab in enumerate_orbits(2, 3):
            assert lab.lam.size + lab.nu.size == 6

    def test_single_vertex_labels_are_bipartitions(self):
        # For a one-vertex cycle the residue law reads |lambda| + |nu| = n,
        # so the labels biject with bipartitions of n.
        from oracles import multipartition_count

        for n in range(0, 9):
            assert len(enumerate_orbits(n, 1)) == multipartition_count(n, 2)

    def test_empty_nu_block_comes_first(self):
        for n, ell in [(2, 2), (3, 2), (2, 3)]:
            labels = enumerate_orbits(n, ell)
            head = count_multipartitions(n, ell)
            assert all(lab.nu.size == 0 for lab in labels[:head])
            assert not any(lab.nu.size == 0 for lab in labels[head:])


class TestDecompose:
    def test_mod_one_rows(self):
        lab = label((), ((2, 1),), 3, 1)
        dec = decompose(lab)
        assert dec.framed == DimVector((0,), framing=1)
        assert [(s.start, s.row, s.vector.coords) for s in dec.strings] == [
            (0, 1, (2,)),
            (0, 2, (1,)),
        ]

    def test_single_string_is_delta(self):
        lab = label((), ((), (2,)), 1, 2)
        dec = decompose(lab)
        assert len(dec.strings) == 1
        assert dec.strings[0].vector.coords == (1, 1)

    def test_empty_nu(self):
        lab = label((2,), ((), ()), 1, 2)
        dec = decompose(lab)
        assert dec.strings == ()
        assert dec.framed.coords == (1, 1) and dec.framed.framing == 1

    @pytest.mark.parametrize("ell", [1, 2, 3, 4])
    def test_conservation_exhaustive(self, ell):
        for n in range(0, 4):
            for lab in enumerate_orbits(n, ell):
                dec = decompose(lab)
                total = dec.framed
                for s in dec.strings:
                    total = total + s.vector
                assert total.coords == (n,) * ell
                assert total.framing == 1


class TestPlacedRecords:
    @pytest.mark.parametrize("ell", range(1, 7))
    def test_records_agree_with_box_scans(self, ell):
        # A record at index i sits beside its packed residue, the one at
        # vertex 0 rotated by i, and takes its mask from per-row class
        # tables; the scans place the diagram at i from its boxes, and the
        # scanned residue is packed at the given width (5 bits a vertex
        # holds 8 with its guard bit).  A query on one label reads its rows
        # without any record, and must agree with the cached ones: the label
        # has the record's partition as its one nonempty component.  No
        # lambda closes such a label's residues up to n*delta, and the
        # queries need none, so it is built trusted.
        width = 5
        for size in range(9):
            base = orbits_module._placed_of_size(ell, 0, size, width)[1]
            for index in range(ell):
                residues, records = orbits_module._placed_of_size(
                    ell, index, size, width
                )
                assert len(residues) == len(records) == len(partitions_of(size))
                for parts, packed, comp, vertex0 in zip(
                    partitions_of(size), residues, records, base
                ):
                    assert (comp.partition.parts, comp.index) == (parts, index)
                    assert comp.ell == ell
                    components = ((),) * index + (parts,)
                    scan = shifted_residue_scan(components, ell)
                    assert packed == sum(c << v * width for v, c in enumerate(scan))
                    assert comp.partition is vertex0.partition
                    nu = MultiPartition(
                        map(Partition, components + ((),) * (ell - index - 1))
                    )
                    lab = OrbitLabel._trusted(Partition(), nu, 0, ell)
                    strings = decompose(lab).strings
                    assert [(s.start, s.row) for s in strings] == [
                        (index, j) for j in range(1, len(parts) + 1)
                    ]
                    vectors = [s.vector.coords for s in strings]
                    assert vectors == string_vectors_scan(components, ell)
                    assert set(mask_vectors(ell, comp.mask)) == set(vectors)
                    assert orbits_module._label_mask(lab) == comp.mask
                    assert fundamental_group(lab) == orbits_module._class_set_pi1(
                        ell, comp.mask
                    )

    def test_a_label_query_builds_no_record(self, monkeypatch):
        # Records exist only in the walk's cache: the queries on one label
        # read its rows' classes in one pass and make no record.
        def refuse(*args):
            raise AssertionError("a label query built a record")

        monkeypatch.setattr(orbits_module, "PlacedComponent", refuse)
        lab = label((1,), ((2, 1, 1), (1, 1, 1, 1), ()), 3, 3)
        assert len(decompose(lab).strings) == 7
        assert fundamental_group(lab) == FGAbelianGroup(0)
        assert admits_monodromic_local_system(lab, chi_of(0, 0, 0))


class TestFundamentalGroup:
    def test_z2(self):
        assert fundamental_group(label((), ((2,),), 2, 1)) == FGAbelianGroup(0, (2,))

    def test_free_when_nu_empty(self):
        assert fundamental_group(label((2,), ((),), 2, 1)) == FGAbelianGroup(1)
        assert fundamental_group(label((4,), ((), ()), 2, 2)) == FGAbelianGroup(2)

    def test_trivial(self):
        assert fundamental_group(label((), ((1, 1),), 2, 1)) == FGAbelianGroup(0)

    def test_gcd_law_mod_one(self):
        # For a single cycle vertex the group is cyclic of order gcd(nu).
        for total in range(0, 7):
            for lab in enumerate_orbits(total, 1):
                parts = lab.nu[0].parts
                g = 0
                for p in parts:
                    g = gcd(g, p)
                assert fundamental_group(lab) == cyclic_group(g)

    def test_full_rank_iff_nu_empty(self):
        for n in range(0, 4):
            for ell in range(1, 4):
                for lab in enumerate_orbits(n, ell):
                    full = fundamental_group(lab) == FGAbelianGroup(ell)
                    assert full == (lab.nu.size == 0)

    def test_distinct_rows_same_length_kept_apart(self):
        # Both rows of (1,1) in one component have length one but end at
        # different vertices, so they contribute independent columns.
        lab = label((2,), ((1, 1), ()), 2, 2)
        assert fundamental_group(lab) == FGAbelianGroup(0)

    @pytest.mark.parametrize("n, ell", [(3, 3), (2, 4)])
    def test_agrees_with_determinantal_divisors(self, n, ell):
        for lab in enumerate_orbits(n, ell):
            columns = string_vectors_scan(tuple(c.parts for c in lab.nu), ell)
            free_rank, factors = cokernel_by_minors(columns, ell)
            assert fundamental_group(lab) == FGAbelianGroup(free_rank, factors)

    def test_cold_and_warm_calls_agree(self):
        labels = enumerate_orbits(3, 3)
        cache = orbits_module._class_set_pi1
        cold = []
        for lab in labels:
            cache.cache_clear()
            cold.append(fundamental_group(lab))
        for lab in labels:
            fundamental_group(lab)
        misses = cache.cache_info().misses
        warm = [fundamental_group(lab) for lab in labels]
        assert cache.cache_info().misses == misses
        assert warm == cold


class TestClosedFormPi1:
    """pi1 read off the voltage graph of the string classes (the lemma in
    the orbits module docstring), against the Smith normal form and
    determinantal divisors of the string-vector matrix."""

    # (4, 4) is tests/test_abelian.py's
    # test_agrees_with_minors_on_every_string_class_mask.
    @pytest.mark.parametrize(
        "n, ell",
        [(n, ell) for n in range(5) for ell in range(1, 5) if n * ell < 16]
        + [(2, 7)],
    )
    def test_agrees_on_every_table_mask(self, n, ell):
        for mask in orbits_module._string_class_table(n, ell)[2]:
            columns = mask_vectors(ell, mask)
            grp = orbits_module._class_set_pi1(ell, mask)
            assert grp == cokernel(IntMatrix.from_columns(columns, ell))
            assert (grp.free_rank, grp.invariant_factors) == cokernel_by_minors(
                columns, ell
            )

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_agrees_with_smith_on_random_masks(self, data):
        # Any bit below 3*ell*ell is a string of length up to 3*ell.
        ell = data.draw(st.integers(1, 8), label="ell")
        bits = data.draw(
            st.sets(st.integers(0, 3 * ell * ell - 1), max_size=10), label="bits"
        )
        mask = sum(1 << k for k in bits)
        columns = mask_vectors(ell, mask)
        assert orbits_module._class_set_pi1(ell, mask) == cokernel(
            IntMatrix.from_columns(columns, ell)
        )

    def test_one_vertex_is_cyclic_of_the_gcd(self):
        # At ell = 1 bit k is a loop of length k + 1: pi1 = Z/gcd(lengths).
        for mask in range(1 << 10):
            g = 0
            for k in range(10):
                if mask >> k & 1:
                    g = gcd(g, k + 1)
            assert orbits_module._class_set_pi1(1, mask) == cyclic_group(g)
        for lab in enumerate_orbits(6, 1):
            g = 0
            for part in lab.nu[0].parts:
                g = gcd(g, part)
            assert fundamental_group(lab) == cyclic_group(g)

    @pytest.mark.parametrize("ell", range(1, 9))
    def test_no_string_is_free_of_rank_ell(self, ell):
        assert orbits_module._class_set_pi1(ell, 0) == FGAbelianGroup(ell)
        lab = label((), ((),) * ell, 0, ell)
        assert fundamental_group(lab) == FGAbelianGroup(ell)


class TestMonodromy:
    def test_empty_nu_always_admits(self):
        lab = label((2,), ((),), 2, 1)
        for chi in (chi_of(0), chi_of("1/2"), chi_of("22/7")):
            assert admits_monodromic_local_system(lab, chi)

    def test_half_integral(self):
        lab = label((), ((2,),), 2, 1)
        assert admits_monodromic_local_system(lab, chi_of("1/2"))
        assert not admits_monodromic_local_system(lab, chi_of("1/3"))

    def test_dimension_mismatch(self):
        lab = label((), ((2,),), 2, 1)
        with pytest.raises(ValueError):
            admits_monodromic_local_system(lab, chi_of("1/2", "1/2"))

    @pytest.mark.parametrize(
        "entry",
        [
            lambda chi: enumerate_Q_chi(2, 1, chi),
            lambda chi: count_Q_chi(2, 1, chi),
            lambda chi: next(orbit_report(2, 1, chi)),
            lambda chi: admits_monodromic_local_system(label((), ((2,),), 2, 1), chi),
            lambda chi: semisimplicity_report(2, 1, chi),
        ],
        ids=[
            "enumerate_Q_chi",
            "count_Q_chi",
            "orbit_report",
            "admits_monodromic_local_system",
            "semisimplicity_report",
        ],
    )
    def test_every_chi_entry_refuses_a_length_mismatch(self, entry):
        # One message for every entry: the check is made in one place.
        with pytest.raises(ValueError) as refused:
            entry(chi_of("1/2", "1/2"))
        assert str(refused.value) == "character has 2 entries, expected 1"

    def test_gcd_criterion_mod_one(self):
        rng = random.Random(3)
        for lab in enumerate_orbits(4, 1):
            g = 0
            for p in lab.nu[0].parts:
                g = gcd(g, p)
            for _ in range(5):
                chi = RationalCharacter((random_fraction(rng),))
                expected = (g * chi.values[0]).denominator == 1
                assert admits_monodromic_local_system(lab, chi) == expected


def table_vector_sets(n, ell):
    """The string-class table as a Counter of frozensets of string vectors."""
    counted = Counter()
    for mask, count in orbits_module._string_class_table(n, ell)[2].items():
        counted[frozenset(mask_vectors(ell, mask))] += count
    return counted


def fibonacci(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


class TestStringClassTable:
    @pytest.mark.parametrize(
        "n, ell", [(n, ell) for n in range(5) for ell in range(1, 5)]
    )
    def test_groups_equal_the_listing(self, n, ell):
        # Per label, the set of its string vectors, scanned from the boxes.
        listed = Counter(
            frozenset(string_vectors_scan(tuple(c.parts for c in lab.nu), ell))
            for lab in enumerate_orbits(n, ell)
        )
        _, union, groups = orbits_module._string_class_table(n, ell)
        assert table_vector_sets(n, ell) == listed
        assert len(groups) == len(listed)
        # One bit per string vector.
        vectors = mask_vectors(ell, union)
        assert len(set(vectors)) == union.bit_count()

    @pytest.mark.parametrize(
        "n, ell", [(n, ell) for n in range(5) for ell in range(1, 5)]
    )
    def test_groups_equal_the_fill_masks(self, n, ell):
        # The table and the record fill share one class-bit numbering, so
        # their masks compare directly.  Both read _step_graph, so this
        # checks the fold, not the placing; the brute-force test below does.
        groups = orbits_module._string_class_table(n, ell)[2]
        filled = Counter(
            mask for _, _, mask in orbits_module._fill_labels(n, ell)
        )
        assert dict(groups) == filled

    @pytest.mark.parametrize(
        "n,ell",
        [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (1, 3), (2, 3), (4, 3), (3, 4)],
    )
    def test_groups_equal_the_brute_force_pairs(self, n, ell):
        # The table and the label walk share _step_graph; the double loop
        # of the oracle shares no code path with either.
        expected = Counter(
            frozenset(string_vectors_scan(nu, ell))
            for _, nu in brute_force_orbit_pairs(n, ell)
        )
        assert table_vector_sets(n, ell) == expected

    def test_ell_one_counts_the_bipartitions(self):
        # At ell = 1 the orbits of the enhanced nilpotent cone correspond to
        # the bipartitions of n (Achar-Henderson).
        for n in range(13):
            groups = orbits_module._string_class_table(n, 1)[2]
            assert sum(groups.values()) == count_multipartitions(n, 2)

    def test_n_one_total_is_the_observed_fibonacci_sequence(self):
        # |Q(1, ell)| = 2*F(2*ell + 1) - 2 (2, 8, 24, 66, ...): an observed
        # sequence, checked up to ell = 15, not taken from a paper or proved.
        for ell in range(1, 10):
            groups = orbits_module._string_class_table(1, ell)[2]
            assert sum(groups.values()) == 2 * fibonacci(2 * ell + 1) - 2

    # (groups, labels, union bits, sha256 of repr(sorted(groups.items()))),
    # recorded while the table still placed components by a fold of its own,
    # before it read the label walk's steps; (4,5) and (2,7), where strings
    # wrap the cycle, while the table still folded the step graph forward.
    PINS = {
        (5, 4): (
            24_056,
            2_241_108,
            65,
            "5b1decef9a8da61c5c3eaf0d2d0983ca675fc264812cf19b054f847af0dd48a4",
        ),
        (3, 6): (
            55_501,
            2_644_200,
            93,
            "9287f99b43493bf2176e36203155f3e591438da8b2ec062182d9e7ebc455a2d8",
        ),
        (4, 5): (
            62_407,
            4_833_372,
            84,
            "2cf662893955da192822cb92e1848f4c7bc2c81acd856252d307dcf8c71273d3",
        ),
        (2, 7): (
            13_097,
            275_854,
            86,
            "25e41b20157c3c5941cb77f359b91b81cf30349582a626211da926dc9a54eb4a",
        ),
    }

    @pytest.mark.parametrize("n, ell", sorted(PINS))
    def test_pinned_tables(self, n, ell):
        _, union, groups = orbits_module._string_class_table(n, ell)
        digest = hashlib.sha256(repr(sorted(groups.items())).encode()).hexdigest()
        got = (len(groups), sum(groups.values()), union.bit_count(), digest)
        assert got == self.PINS[n, ell]


def step_layers(n, ell, bad=0):
    """The layers of _step_graph(n, ell, bad), checked against each other:
    layer 0 is keyed by n*delta alone, every kept residue has a step, and
    every step's residue left is a key of the next layer, or 0 after the
    last one.  Residues are compared unpacked, one coordinate a vertex."""
    layers = orbits_module._step_graph(n, ell, bad)
    width = (n * ell).bit_length() + 1

    def unpack(value):
        assert value >> ell * width == 0
        return tuple(value >> v * width & (1 << width) - 1 for v in range(ell))

    assert len(layers) == ell + 1
    assert [unpack(key) for key in layers[0]] == [(n,) * ell]
    for index, layer in enumerate(layers):
        following = layers[index + 1] if index < ell else {0: None}
        for steps in layer.values():
            assert isinstance(steps, list) and steps
            for _, rest in steps:
                assert rest in following
    return layers


# Characters that filter the step graph, per ell: each leaves out some nu
# records and keeps others.
FILTERING_CHARACTERS = {
    1: [("1/2",), ("1/3",)],
    2: [("1/2", "1/2"), ("1/3", "0")],
    3: [("1/2", "0", "1/2"), ("1/3", "1/3", "1/3")],
    4: [
        ("1/5", "1/7", "2/3", "-1/2"),
        ("0", "1/2", "0", "1/3"),
        ("1/2", "1/2", "1/3", "-1/3"),
    ],
}
STEP_GRAPH_CASES = [
    pytest.param(n, ell, None, id=f"{n}-{ell}")
    for n, ell in [(n, ell) for n in range(5) for ell in range(1, 5)] + [(1, 7)]
] + [
    pytest.param(n, ell, values, id=f"{n}-{ell}-chi={','.join(values)}")
    for n, ell in [(n, ell) for n in range(4) for ell in range(1, 4)] + [(4, 4)]
    for values in FILTERING_CHARACTERS[ell]
]


class TestStepGraph:
    @pytest.mark.parametrize("n, ell, values", STEP_GRAPH_CASES)
    def test_every_reachable_step_completes(self, n, ell, values):
        # No walk meets a residue with no step at any depth, and the last
        # layer leaves 0.  With a character, bad is the oracle's mask of
        # the classes it pairs with non-integrally, and no nu record of the
        # filtered graph has a bad bit.
        bad = 0 if values is None else bad_mask_scan(values, n, ell)
        layers = step_layers(n, ell, bad)
        for layer in layers[1:]:
            for steps in layer.values():
                for comp, _ in steps:
                    assert not comp.mask & bad
        if values is None and max(n, ell) > 3:
            return  # the unfiltered double loop is too slow beyond (3,3)
        # The walk over the filtered graph lists exactly the oracle's pairs
        # that pass its integrality test; up to (3,3) the oracle's pruned
        # double loop is checked against its filtered full one too.
        listed = [
            (lam.parts, tuple(comp.partition.parts for comp in comps))
            for lam, comps, _ in orbits_module._fill_labels(n, ell, bad)
        ]
        expected = brute_force_orbit_pairs(n, ell, values)
        assert len(set(listed)) == len(listed)
        assert set(listed) == expected
        if values is not None and max(n, ell) <= 3:
            assert expected == {
                (lam, nu)
                for lam, nu in brute_force_orbit_pairs(n, ell)
                if all(
                    pairs_integrally(values, v) for v in string_vectors_scan(nu, ell)
                )
            }

    @pytest.mark.parametrize("n, ell", [(2, 3), (3, 3), (2, 4), (3, 1), (3, 2)])
    def test_close_runs_once_per_stop_residue(self, n, ell):
        # The walk stops at the layer of component max(ell - 2, 0) and
        # builds the ways to finish a label once per residue the prefix
        # leaves: every prefix that leaves the same residue, computed here
        # from its diagrams, gets the one list close() made for it.
        closed = []

        def close(suffixes):
            closed.append(suffixes)
            return suffixes

        seen = {}
        walk = orbits_module._fill(n, ell, (), lambda h, c: (*h, c), close)
        for seed, head, _, suffixes in walk:
            used = residue_scan(seed.partition.parts, ell)
            placed = shifted_residue_scan(tuple(c.partition.parts for c in head), ell)
            left = tuple(n - a - b for a, b in zip(used, placed))
            assert seen.setdefault(left, suffixes) is suffixes
        assert len(closed) == len(seen)
        assert len(seen) == len(step_layers(n, ell)[max(ell - 1, 1)])


class TestPackedFits:
    @pytest.mark.parametrize(
        "n, ell", [(n, ell) for n in range(4) for ell in range(1, 4)]
    )
    def test_packed_fits_equal_tuple_fits(self, n, ell):
        # Every residue in {0..n}^ell against every record of every size up
        # to n*ell at every index: the guard-bit test keeps the records that
        # fit coordinate by coordinate, in order, with the same rest.  At
        # ell = 1 and at n = 0 some record has a coordinate equal to n*ell,
        # the largest value a field holds.
        width = (n * ell).bit_length() + 1
        low = (1 << width) - 1
        sizes = range(n * ell + 1)

        def pack(coords):
            return sum(c << v * width for v, c in enumerate(coords))

        def unpack(value):
            assert value >> ell * width == 0
            return tuple(value >> v * width & low for v in range(ell))

        largest = 0
        for index in range(ell):
            records = [
                (comp, unpack(packed))
                for size in sizes
                for packed, comp in zip(
                    *orbits_module._placed_of_size(ell, index, size, width)
                )
            ]
            largest = max([largest] + [max(shifted) for _, shifted in records])
            for remaining in itertools.product(range(n + 1), repeat=ell):
                expected = [
                    (comp, tuple(r - s for r, s in zip(remaining, shifted)))
                    for comp, shifted in records
                    if all(r >= s for r, s in zip(remaining, shifted))
                ]
                got = orbits_module._fits(ell, index, pack(remaining), sizes, width, 0)
                assert [(comp, unpack(rest)) for comp, rest in got] == expected
        assert largest == n * ell or (ell > 1 and n > 0)


class TestCountPaths:
    """count_Q_chi sums the table's counts over the submasks of the good
    bits (those of the union that chi pairs with integrally) when there are
    few of them, and counts from the bit-sliced index of the table
    otherwise; both paths are run here, whichever count_Q_chi would pick,
    against the listing and the oracle's walk over the groups, the submask
    sum up to 16 good bits."""

    @staticmethod
    def good_bits(n, ell, chi):
        _, union, _ = orbits_module._string_class_table(n, ell)
        return union & ~orbits_module._non_integral_mask(
            ell, union, *chi.common_denominator(ell)
        )

    def characters(self, n, ell):
        """{number of good bits: character} for none, one, a few and all."""
        width = orbits_module._string_class_table(n, ell)[1].bit_count()
        rng = random.Random(31 * n + ell)
        # Only the string of length n, or only epsilon_0, pairs integrally.
        if ell == 1:
            one = (Fraction(1, max(n, 1)),)
        else:
            one = (1,) + (Fraction(1, 97),) * (ell - 1)
        pool = [(Fraction(1, 97),) * ell, one] + [
            tuple(random_fraction(rng, max_den=4) for _ in range(ell))
            for _ in range(60)
        ]
        found = {}
        for values in pool:
            chi = RationalCharacter(values)
            found.setdefault(self.good_bits(n, ell, chi).bit_count(), chi)
        picked = {width: RationalCharacter((0,) * ell)}
        for k in (0, 1):
            if k < width:
                picked[k] = found[k]
        few = [k for k in found if 1 < k < width]
        assert few or width <= 3
        if few:
            for k in (min(few), max(few)):
                picked[k] = found[k]
        return picked

    @pytest.mark.parametrize(
        "n, ell", [(n, ell) for n in range(5) for ell in range(1, 5)]
    )
    def test_submask_sum_and_walk_agree_with_the_listing(self, n, ell):
        _, union, groups = orbits_module._string_class_table(n, ell)
        index = orbits_module._sliced_index(n, ell)
        for k, chi in self.characters(n, ell).items():
            good = self.good_bits(n, ell, chi)
            assert good.bit_count() == k
            if any(chi.values):
                listed = len(enumerate_Q_chi(n, ell, chi))
            else:  # chi = 0 keeps every label
                listed = len(enumerate_orbits(n, ell))
            walked = count_walk(groups, good)
            assert walked == listed == count_Q_chi(n, ell, chi)
            assert orbits_module._count_sliced(index, union ^ good) == walked
            if k <= 16:  # beyond, 2**k submasks take too long
                assert orbits_module._count_submasks(groups, good) == walked

    @pytest.mark.parametrize("n, ell", [(3, 3), (3, 4), (4, 4)])
    def test_sliced_count_on_random_good_bits(self, n, ell):
        # Any subset of the union, not only those a character picks out.
        _, union, groups = orbits_module._string_class_table(n, ell)
        index = orbits_module._sliced_index(n, ell)
        bits = [1 << k for k in range(union.bit_length()) if union >> k & 1]
        rng = random.Random(7 * n + ell)
        for size in range(0, len(bits) + 1, 3):
            good = sum(rng.sample(bits, size))
            got = orbits_module._count_sliced(index, union ^ good)
            assert got == count_walk(groups, good)

    def test_transpose_spans_blocks(self):
        # More values than one block of binary text holds; the tables up to
        # (4,5) fit in one.
        rng = random.Random(3)
        values = [rng.getrandbits(5) for _ in range(70_000)]
        columns = orbits_module._transpose(values, 5)
        for j, column in enumerate(columns):
            # values[0] at the top bit, values[-1] at bit 0
            bits = "".join("1" if v >> j & 1 else "0" for v in values)
            assert column == int(bits, 2)

    def test_the_cheaper_path_is_taken(self, monkeypatch):
        taken = []
        for name in ("_count_submasks", "_count_sliced"):
            original = getattr(orbits_module, name)

            def record(*args, name=name, original=original):
                taken.append(name)
                return original(*args)

            monkeypatch.setattr(orbits_module, name, record)
        # 6,090 groups at (4,4): 2**6 <= 32 + 6,090 // 160 = 70 < 2**7.
        count_Q_chi(4, 4, chi_of("1/97", "1/97", "1/97", "1/97"))  # 0 good bits
        count_Q_chi(4, 4, chi_of("1/2", "1/2", "1/3", "-1/3"))  # 12
        count_Q_chi(4, 4, chi_of(0, 0, 0, 0))  # 52
        assert taken == ["_count_submasks", "_count_sliced", "_count_sliced"]

    @pytest.mark.parametrize(
        "n, ell, most", [(2, 3, 5), (3, 4, 5), (4, 4, 6), (5, 4, 7), (4, 5, 8)]
    )
    def test_the_submask_sum_is_taken_up_to_its_crossover(
        self, n, ell, most, monkeypatch
    ):
        # `most` is the largest number of good bits whose submasks are
        # summed.  At (4,4), where chi-sweep counts, it is 6, as it was
        # under the rule 2**k * 64 <= G, so no pool character changes path.
        # The two paths agree wherever both are cheap enough to run.
        _, union, groups = orbits_module._string_class_table(n, ell)
        submasks = orbits_module._count_submasks
        sliced = orbits_module._count_sliced
        index = orbits_module._sliced_index(n, ell)
        taken = []
        for original in (submasks, sliced):

            def record(*args, original=original):
                taken.append(original.__name__)
                return original(*args)

            monkeypatch.setattr(orbits_module, original.__name__, record)
        bits = [1 << j for j in range(union.bit_length()) if union >> j & 1]
        for k in range(len(bits) + 1):
            good = sum(bits[:k])
            monkeypatch.setattr(
                orbits_module, "_non_integral_mask", lambda *_, bad=union ^ good: bad
            )
            count = orbits_module._count_Q_chi(n, ell, 1, (0,) * ell)
            assert count == sliced(index, union ^ good)
            if k <= 12:
                assert count == submasks(groups, good)
        assert taken == ["_count_submasks"] * (most + 1) + ["_count_sliced"] * (
            len(bits) - most
        )

    def test_a_count_below_the_crossover_builds_no_index(self):
        index = orbits_module._sliced_index
        index.cache_clear()
        report = semisimplicity_report(4, 4, chi_of("1/5", "1/7", "2/3", "-1/2"))
        assert report.simple_count == 105
        assert index.cache_info().currsize == 0
        # The one above it builds the index of (4,4), once.
        assert semisimplicity_report(4, 4, chi_of(0, 0, 0, 0)).simple_count == 256_966
        assert index.cache_info().currsize == 1


class TestQChi:
    def test_integral_keeps_everything(self):
        assert len(enumerate_Q_chi(2, 2, chi_of(0, 0))) == 41

    def test_generic_keeps_multipartition_count(self):
        out = enumerate_Q_chi(2, 2, chi_of("1/5", "1/7"))
        assert len(out) == 5
        assert all(lab.nu.size == 0 for lab in out)

    def test_half_integral_enhanced_nilcone(self):
        out = enumerate_Q_chi(2, 1, chi_of("1/2"))
        assert [
            (lab.lam.parts, tuple(c.parts for c in lab.nu)) for lab in out
        ] == [((2,), ((),)), ((1, 1), ((),)), ((), ((2,),))]

    def test_count_agrees_with_list(self):
        # The table's count against listing plus per-label flags, on every
        # (n, ell) up to (4, 4); small denominators mix the verdicts.
        rng = random.Random(13)
        for n in range(5):
            for ell in range(1, 5):
                for _ in range(4):
                    chi = RationalCharacter(
                        tuple(random_fraction(rng, max_den=4) for _ in range(ell))
                    )
                    assert count_Q_chi(n, ell, chi) == len(
                        enumerate_Q_chi(n, ell, chi)
                    )

    def test_counting_dichotomy(self):
        rng = random.Random(17)
        for _ in range(80):
            n = rng.randint(1, 3)
            ell = rng.randint(1, 3)
            chi = RationalCharacter(
                tuple(random_fraction(rng) for _ in range(ell))
            )
            simple = count_Q_chi(n, ell, chi)
            pell = count_multipartitions(n, ell)
            assert simple >= pell
            avoids = all(
                pair(chi, alpha).denominator != 1
                for alpha in generate_Rn(n, ell)
            )
            assert (simple == pell) == avoids

    def test_integrality_dichotomy(self):
        rng = random.Random(19)
        for _ in range(80):
            n = rng.randint(1, 3)
            ell = rng.randint(1, 3)
            if rng.random() < 0.4:
                chi = RationalCharacter(
                    tuple(Fraction(rng.randint(-3, 3)) for _ in range(ell))
                )
            else:
                chi = RationalCharacter(
                    tuple(random_fraction(rng) for _ in range(ell))
                )
            full = count_Q_chi(n, ell, chi) == len(enumerate_orbits(n, ell))
            assert full == chi.is_integral()


class TestNonIntegralMask:
    """The prefix-sum windows of _non_integral_mask against a pair() scan
    of every bit's string vector in Fraction arithmetic."""

    @staticmethod
    def scan(ell, mask, chi):
        out = 0
        for k in range(mask.bit_length()):
            if mask >> k & 1:
                coords = orbits_module._string_coords(k % ell, k // ell + 1, ell)
                if pair(chi, DimVector(coords)).denominator != 1:
                    out |= 1 << k
        return out

    @pytest.mark.parametrize(
        "n, ell", [(n, ell) for n in range(5) for ell in range(1, 5)] + [(3, 6)]
    )
    def test_union_matches_the_pairing_scan(self, n, ell):
        union = orbits_module._string_class_table(n, ell)[1]
        rng = random.Random(53 * n + ell)
        seen = set()
        for i in range(40):
            den = 2 if i % 2 else 12
            chi = RationalCharacter(
                tuple(random_fraction(rng, max_den=den) for _ in range(ell))
            )
            got = orbits_module._non_integral_mask(
                ell, union, *chi.common_denominator(ell)
            )
            assert got == self.scan(ell, union, chi)
            seen.add(got)
        if union:
            assert len(seen) > 1

    @pytest.mark.parametrize("ell", range(1, 8))
    def test_windows_wrap_around_the_cycle(self, ell):
        # Strings up to five laps long, so that the window of length % ell
        # entries ending at the top wraps past vertex 0 and whole laps add
        # multiples of the coordinate sum.
        rng = random.Random(ell)
        width = 5 * ell * ell
        for _ in range(60):
            mask = rng.getrandbits(width) | 1 << (width - 1)
            chi = RationalCharacter(
                tuple(random_fraction(rng, max_den=6) for _ in range(ell))
            )
            d, scaled = chi.common_denominator(ell)
            got = orbits_module._non_integral_mask(ell, mask, d, scaled)
            assert got == self.scan(ell, mask, chi)

    @staticmethod
    def most_laps(ell, good):
        """The most good bits of one window: bits whose strings differ by
        whole laps, the same (top, length % ell), or length % ell = 0."""
        windows = Counter()
        for k in range(good.bit_length()):
            if good >> k & 1:
                w = (k // ell + 1) % ell
                windows[k % ell if w else 0, w] += 1
        return max(windows.values(), default=0)

    @pytest.mark.parametrize(
        "n, ell", [(n, ell) for ell in (1, 2) for n in range(1, 7)] + [(3, 6)]
    )
    def test_several_laps_solve_one_window(self, n, ell):
        # m*T + w = 0 mod d holds for every lap m of one class modulo the
        # period d / gcd(T, d), so one window's lookup must give it every
        # such lap, on the table's union and on every class of (n, ell).
        union = orbits_module._string_class_table(n, ell)[1]
        full = (1 << n * ell * ell) - 1
        families = lap_families(ell, n, random.Random(59 * n + ell))
        for family, characters in families.items():
            most = 0
            for chi in characters:
                d, scaled = chi.common_denominator(ell)
                for mask in (union, full):
                    got = orbits_module._non_integral_mask(ell, mask, d, scaled)
                    assert got == self.scan(ell, mask, chi), (family, str(chi))
                assert orbits_module._bad_bits(n, ell, chi) == got
                assert got == bad_mask_scan(chi.values, n, ell)
                if family == "integral":
                    assert got == 0
                most = max(most, self.most_laps(ell, full & ~got))
            if characters and n > 1:
                assert most >= 2, family
        if ell > 1 and n > 3:
            # Several laps also through gcd(T, d) > 1, not only d <= n.
            assert any(
                gcd(sum(c.common_denominator(ell)[1]), c.common_denominator(ell)[0]) > 1
                for c in families["periodic"]
            )
