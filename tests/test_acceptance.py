"""Acceptance suite: one test per criterion, each printing a single
[PASS]/[FAIL] line.  Heavy artifacts (Groebner bases, gins, convergence
reports) are computed once and shared through cached helpers; each test's
stated time budget covers the first computation of what it needs.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import random
import time
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from oracles import (
    ahp_by_differences,
    contains_minkowski,
    contains_scaled,
    groebner_basis,
    hf_via_initial,
    ideal_of,
)

from limshape.asymptotics import (
    ahf_estimate,
    ahp_additivity_check,
    ahp_flats,
    ahp_of_config,
    flats_hp,
    intersecting_lines_hp,
)
from limshape.configs import Config, symbolic_power
from limshape.groebner import gin, regularity_surrogate
from limshape.polyhedra import RationalPolyhedron, gamma_region, volume
from limshape.staircase import MonomialStaircase

SEED = 3
DELTA_VERTICES = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1)]
GIN_QUADRUPLE = {(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1)}


def report_line(num, description, ok, budget=None, elapsed=None):
    status = "PASS" if ok else "FAIL"
    timing = "" if elapsed is None else f" [{elapsed:.2f}s]"
    print(f"[{status}] criterion {num}: {description}{timing}")
    assert ok, f"criterion {num} failed: {description}"
    if budget is not None and elapsed is not None:
        assert elapsed < budget, (
            f"criterion {num} exceeded {budget}s budget ({elapsed:.2f}s)"
        )


# -- shared artifacts -------------------------------------------------------


@lru_cache(maxsize=None)
def two_lines_config():
    return Config.generic(3, 1, 2, SEED)


@lru_cache(maxsize=None)
def intersecting_config():
    return Config.of(3, flats=[
        [(1, 0, 0, 0), (0, 1, 0, 0)],
        [(1, 0, 0, 0), (0, 0, 1, 0)],
    ])


@lru_cache(maxsize=None)
def points_config():
    return Config.generic(2, 0, 2, SEED)


@lru_cache(maxsize=None)
def single_point_p3():
    return Config.of(3, [(1, 2, 3, 1)])


@lru_cache(maxsize=None)
def sym_power(which, m):
    configs = {
        "two-lines": two_lines_config,
        "intersecting": intersecting_config,
        "points": points_config,
        "point-p3": single_point_p3,
    }
    return symbolic_power(configs[which](), m)


@lru_cache(maxsize=None)
def sym_power_gb(which, m):
    sp = sym_power(which, m)
    return groebner_basis(ideal_of(sp.generators, sp.nvars))


@lru_cache(maxsize=None)
def gin_of(which, m):
    sp = sym_power(which, m)
    return gin(sp.generators, sp.nvars, SEED, 100, sp.hilbert_numerator)


@lru_cache(maxsize=None)
def points_report():
    return ahf_estimate(
        points_config(), t=2, m_list=[1, 2, 3, 4, 5], seed=SEED,
        family="acceptance",
    )


# -- criteria ---------------------------------------------------------------


def test_criterion_1_points_closed_form():
    start = time.monotonic()
    ok = True
    for n in (2, 3, 4):
        for r in range(1, 7):
            ahp, lam = ahp_flats(n, 0, r)
            ok &= ahp.coeffs == (Fraction(r, factorial(n)),)
            ok &= lam.coeffs[-1] == Fraction(1, factorial(n))
    report_line(
        1, "aHP of r points in P^n is exactly r/n! for n in 2..4, r in 1..6",
        ok, budget=1, elapsed=time.monotonic() - start,
    )


def test_criterion_2_two_lines_gin():
    start = time.monotonic()
    g = gin_of("two-lines", 1)
    ok = GIN_QUADRUPLE <= set(g.staircase.min_gens)
    report_line(
        2, "gin of two generic lines contains the degree-2 quadruple",
        ok, budget=10, elapsed=time.monotonic() - start,
    )


def test_criterion_3_two_lines_gamma_volume():
    start = time.monotonic()
    delta = RationalPolyhedron.of(
        3, DELTA_VERTICES, rays=[(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    )
    ok = True
    for t in (2, 3, 4, Fraction(7, 2)):
        vol, _ = gamma_region(delta, t)
        ok &= vol == Fraction(t) - Fraction(2, 3)
    report_line(
        3, "Gamma volume of the two-lines Delta equals t - 2/3 at "
        "t in {2, 3, 4, 7/2}",
        ok, budget=5, elapsed=time.monotonic() - start,
    )


def test_criterion_4_two_lines_closed_form():
    start = time.monotonic()
    ahp, _ = ahp_flats(3, 1, 2)
    ok = ahp.coeffs == (Fraction(-2, 3), Fraction(1))
    ok &= flats_hp(3, 1, 2, 1).coeffs == (Fraction(2), Fraction(2))
    report_line(
        4, "ahp_flats(3,1,2) = t - 2/3 and flats_hp(3,1,2,1) = 2t + 2",
        ok, budget=1, elapsed=time.monotonic() - start,
    )


def test_criterion_5_intersecting_lines_hilbert_function():
    start = time.monotonic()
    ok = True
    for m in (1, 2, 3):
        gb = sym_power_gb("intersecting", m)
        reg = regularity_surrogate(gin_of("intersecting", m))
        hp = intersecting_lines_hp(m)
        for t in range(reg, reg + 6):
            ok &= hf_via_initial(gb, t) == hp(t)
    report_line(
        5, "Groebner HF of the intersecting-lines symbolic powers matches "
        "(m^2+m)t - m^3 + m^2/2 + 3m/2 for m in 1..3",
        ok, budget=60, elapsed=time.monotonic() - start,
    )


def test_criterion_6_additivity():
    start = time.monotonic()
    lines, point = intersecting_config(), Config.of(3, [(1, 1, 1, 1)])
    ahp_lines = ahp_of_config(lines)
    ok = ahp_lines.coeffs == (Fraction(-1), Fraction(1))
    ok &= all(
        ahp_lines(t) == ahp_by_differences(intersecting_lines_hp, 3, t)
        for t in (0, 1, Fraction(5, 2))
    )
    ok &= ahp_of_config(point).coeffs == (Fraction(1, 6),)
    total = ahp_additivity_check(lines, point)
    ok &= total.coeffs == (Fraction(-5, 6), Fraction(1))
    report_line(
        6, "aHP additivity: (t - 1) + 1/6 = t - 5/6 with t - 1 as the "
        "m^3 coefficient of HP(mt)",
        ok, budget=1, elapsed=time.monotonic() - start,
    )


def _lattice_instances():
    """(label, gb of the symbolic power, gin staircase, m, t) instances."""
    plan = [
        ("two-lines", 1, (2, 3, 4)),
        ("two-lines", 2, (2, 3)),
        ("intersecting", 1, (2, 3, 4)),
        ("intersecting", 2, (2, 3, 4)),
        ("intersecting", 3, (2, 3, 4)),
        ("point-p3", 1, (1, 2)),
        ("point-p3", 2, (1, 2)),
    ]
    for which, m, ts in plan:
        gb = sym_power_gb(which, m)
        st = gin_of(which, m).staircase
        for t in ts:
            yield which, gb, st, m, t
    # points rows reuse the convergence-report staircases
    for row in points_report().rows:
        gb = sym_power_gb("points", row.m)
        for t in (2, 3, 4):
            yield "points", gb, row.staircase, row.m, t


def test_criterion_7_lattice_identity():
    start = time.monotonic()
    ok = True
    instances = 0
    for which, gb, st, m, t in _lattice_instances():
        # HF of the actual symbolic power at degree mt, read off its own
        # initial ideal, vs the complement count of its gin staircase: one
        # Hilbert function, from the K-polynomials of two initial ideals
        ok &= hf_via_initial(gb, m * t) == st.hilbert_function(m * t)
        instances += 1
    ok &= instances >= 30
    report_line(
        7, f"HF(I^(m)) at degree mt equals #Gamma_(m,t) on {instances} "
        "instances",
        ok, elapsed=time.monotonic() - start,
    )


def test_criterion_8_semigroup_properties():
    start = time.monotonic()
    ok = True
    families = {
        "two-lines": {m: gin_of("two-lines", m).staircase for m in (1, 2)},
        "intersecting": {
            m: gin_of("intersecting", m).staircase for m in (1, 2, 3)
        },
        "points": {r.m: r.staircase for r in points_report().rows},
    }
    for stairs in families.values():
        ms = sorted(stairs)
        for p in ms:
            for k in range(2, max(ms) + 1):
                if k * p in stairs:
                    good, _ = contains_scaled(stairs[k * p], stairs[p], k)
                    ok &= good
            for q in ms:
                if p + q in stairs:
                    good, _ = contains_minkowski(
                        stairs[p + q], stairs[p], stairs[q]
                    )
                    ok &= good
    rep = points_report()
    ok &= bool(rep.factorial_chain_monotone)
    ok &= len(rep.sandwich_checks) > 0
    ok &= all(good for _, _, good in rep.sandwich_checks)
    report_line(
        8, "kL_p in L_kp, L_p + L_q in L_(p+q), factorial-chain volumes "
        "nondecreasing, sandwich inequality on all rows",
        ok, budget=120, elapsed=time.monotonic() - start,
    )


def test_criterion_9_points_convergence():
    start = time.monotonic()
    rep = points_report()
    n = 2
    ok = all(r.error is None for r in rep.rows)
    for r in rep.rows:
        bound = Fraction(3 * (n + 2) * comb(2 * r.m + n, n - 1), r.m**n)
        ok &= abs(r.count_over_mn - r.vol_gamma_scaled) <= bound
    stabilized = [r.m for r in rep.rows if r.vol_gamma_convex == 1]
    # recorded finding, not a hard failure
    finding = (
        f"convex Gamma volume hits 1 = 2/2! from m = {min(stabilized)}"
        if stabilized
        else "convex Gamma volume not stabilized by m = 5 (flagged)"
    )
    report_line(
        9, "2 generic points in P^2: #Gamma/m^2 within "
        f"3(n+2)C(2m+n,n-1)/m^2 of the volume column for m <= 5; {finding}",
        ok, budget=120, elapsed=time.monotonic() - start,
    )


def test_criterion_10_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(2024)
    ok = True
    for _ in range(200):
        n = rng.randint(2, 3)
        gens = [
            tuple(rng.randint(0, 6) for _ in range(n))
            for _ in range(rng.randint(0, 6))
        ]
        st = MonomialStaircase.from_generators(n, gens)
        bound = rng.randint(0, 12)
        ok &= st.count_gamma(bound) == st.count_gamma_bruteforce(bound)
    for _ in range(100):
        n = rng.randint(2, 4)
        verts = {
            tuple(rng.randint(-4, 4) for _ in range(n))
            for _ in range(rng.randint(n + 1, 8))
        }
        poly = RationalPolyhedron.of(n, verts)
        ok &= volume(poly, apex_last=False) == volume(poly, apex_last=True)
    report_line(
        10, "K-polynomial counts vs enumeration on 200 staircases; two "
        "triangulation apexes on 100 polytopes",
        ok, budget=60, elapsed=time.monotonic() - start,
    )
