"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

import pytest

import cyclocone.orbits as orbits_module
import cyclocone.partitions as partitions_module
from cyclocone.abelian import FGAbelianGroup, IntMatrix, cokernel, smith_normal_form
from cyclocone.orbits import enumerate_Q_chi, enumerate_orbits, fundamental_group
from cyclocone.params import (
    CircleElement,
    KappaParams,
    RationalCharacter,
    chi_to_kappa,
    hecke_params,
    hecke_q,
    kappa_to_chi,
)
from cyclocone.report import semisimplicity_report
from cyclocone.rootlattice import generate_Rn

from oracles import (
    brute_force_Rn,
    cyclic_group,
    det_int,
    multipartitions_recursive,
    random_fraction,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number:2d}: PASS - {description}")


def _clear_enumeration_caches():
    orbits_module.enumerate_orbits.cache_clear()
    orbits_module._string_class_table.cache_clear()
    orbits_module._class_set_pi1.cache_clear()
    orbits_module._placed_of_size.cache_clear()
    orbits_module._row_table.cache_clear()
    orbits_module._string_coords.cache_clear()
    partitions_module.partitions_of.cache_clear()


@pytest.fixture(scope="module")
def equivalence_sample():
    """>= 1000 random rational characters with denominators <= 12 over the
    grid (n, ell) in {1..4} x {1..4}, each run through the full report."""
    rng = random.Random(20240601)
    t0 = time.perf_counter()
    sample = []
    for n in range(1, 5):
        for ell in range(1, 5):
            for k in range(64):
                if k % 8 == 0:
                    chi = RationalCharacter(
                        tuple(Fraction(rng.randint(-4, 4)) for _ in range(ell))
                    )
                else:
                    chi = RationalCharacter(
                        tuple(random_fraction(rng) for _ in range(ell))
                    )
                report = semisimplicity_report(n, ell, chi)
                sample.append((n, ell, chi, report))
    elapsed = time.perf_counter() - t0
    return sample, elapsed


def test_criterion_01_orbit_and_multipartition_counts():
    with criterion(1, "|Q(2,2)| = 41 and |P_2(2)| = 5, under one second"):
        _clear_enumeration_caches()
        t0 = time.perf_counter()
        labels = enumerate_orbits(2, 2)
        pairs = list(multipartitions_recursive(2, 2))
        elapsed = time.perf_counter() - t0
        assert len(labels) == 41
        assert len(pairs) == 5
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_02_enhanced_nilcone_table():
    with criterion(2, "the five labels of the enhanced nilcone at n=2 and their groups"):
        labels = enumerate_orbits(2, 1)
        got = [
            (lab.lam.parts, tuple(c.parts for c in lab.nu), str(fundamental_group(lab)))
            for lab in labels
        ]
        assert got == [
            ((2,), ((),), "Z"),
            ((1, 1), ((),), "Z"),
            ((1,), ((1,),), "1"),
            ((), ((2,),), "Z/2"),
            ((), ((1, 1),), "1"),
        ]


def test_criterion_03_gcd_law():
    with criterion(3, "pi1 = Z/gcd(nu) for every label with ell=1, n <= 6, under 5s"):
        t0 = time.perf_counter()
        checked = 0
        for n in range(0, 7):
            for lab in enumerate_orbits(n, 1):
                g = 0
                for p in lab.nu[0].parts:
                    g = gcd(g, p)
                assert fundamental_group(lab) == cyclic_group(g)
                checked += 1
        elapsed = time.perf_counter() - t0
        assert checked > 100
        assert elapsed < 5.0, f"took {elapsed:.3f}s"


def test_criterion_04_full_rank_iff_nu_empty():
    with criterion(4, "pi1 = Z^ell exactly for empty nu, all labels n <= 3, ell <= 3"):
        for n in range(0, 4):
            for ell in range(1, 4):
                free = FGAbelianGroup(ell)
                for lab in enumerate_orbits(n, ell):
                    assert (fundamental_group(lab) == free) == (lab.nu.size == 0)


def test_criterion_05_three_criteria_agree(equivalence_sample):
    sample, elapsed = equivalence_sample
    with criterion(5, "roots/Hecke/counting verdicts agree on 1024 random characters"):
        assert len(sample) >= 1000
        for _, _, _, report in sample:
            assert (
                report.verdict_roots
                == report.verdict_hecke
                == report.verdict_counting
            )
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_06_counting_dichotomies(equivalence_sample):
    sample, _ = equivalence_sample
    with criterion(6, "simple count hits |P_ell(n)| iff semi-simple, |Q(n,ell)| iff integral"):
        for n, ell, chi, report in sample:
            if report.verdict_roots:
                assert report.simple_count == report.pell_count
            else:
                assert report.simple_count > report.pell_count
            full = report.simple_count == len(enumerate_orbits(n, ell))
            assert full == chi.is_integral()


def test_criterion_07_smith_normal_form_algebra():
    with criterion(7, "SNF transforms, chain and cokernel invariances on 500 random matrices"):
        rng = random.Random(424242)
        for _ in range(500):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            m = IntMatrix(
                rows, cols, [rng.randint(-9, 9) for _ in range(rows * cols)]
            )
            u, d, v = smith_normal_form(m)
            assert u @ m @ v == d
            assert abs(det_int(u.row_lists())) == 1
            assert abs(det_int(v.row_lists())) == 1
            diag = d.diagonal()
            assert all(e >= 0 for e in diag)
            for i in range(rows):
                for j in range(cols):
                    if i != j:
                        assert d[i, j] == 0
            nonzero = [e for e in diag if e != 0]
            assert list(diag[: len(nonzero)]) == nonzero
            for a, b in zip(nonzero, nonzero[1:]):
                assert b % a == 0

            columns = [[m[i, j] for i in range(rows)] for j in range(cols)]
            base = cokernel(m)
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


def test_criterion_08_parameter_round_trips():
    with criterion(8, "chi/kappa round trips, delta identity and q identity on 500 random inputs"):
        rng = random.Random(515151)
        for _ in range(500):
            ell = rng.randint(1, 5)
            chi = RationalCharacter(
                tuple(random_fraction(rng) for _ in range(ell))
            )
            kp = chi_to_kappa(chi)
            assert kappa_to_chi(kp, ell) == chi
            assert sum(chi.values, Fraction(0)) == kp.k00 - kp.k01

            kappa = [random_fraction(rng) for _ in range(ell - 1)]
            kappa.append(-sum(kappa, Fraction(0)))
            k00 = random_fraction(rng)
            kp2 = KappaParams(k00, -k00, tuple(kappa))
            assert chi_to_kappa(kappa_to_chi(kp2, ell)) == kp2
            q0, q1, _ = hecke_params(kp2, ell)
            assert hecke_q(q0, q1) == CircleElement(kp2.k00 - kp2.k01)


def test_criterion_09_root_set_size_and_oracle():
    with criterion(9, "|R_n| formula and brute-force root filter agree for n, ell <= 8"):
        for n in range(1, 9):
            for ell in range(1, 9):
                rs = generate_Rn(n, ell)
                assert len(rs) == n + (2 * n - 1) * ell * (ell - 1) // 2
                assert {alpha.coords for alpha in rs} == brute_force_Rn(n, ell)


def test_criterion_10_monodromy_flag_counts():
    with criterion(10, "|Q_chi(2,1)| = 5, 3, 2 at chi = 0, 1/2, 1/3"):
        expected = {
            Fraction(0): 5,
            Fraction(1, 2): 3,
            Fraction(1, 3): 2,
        }
        for value, count in expected.items():
            chi = RationalCharacter((value,))
            assert len(enumerate_Q_chi(2, 1, chi)) == count
