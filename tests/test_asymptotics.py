import json
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limshape import asymptotics
from limshape.asymptotics import (
    AdditivityReport,
    BiPoly,
    UniPoly,
    ahf_estimate,
    ahp_flats,
    ahp_intersecting_lines,
    ahp_of_config,
    ahp_additivity_check,
    flats_hp,
    flats_hp_bivariate,
    intersecting_lines_bivariate,
    intersecting_lines_hp,
    power_sum,
)
from limshape.configs import FlatConfig, PointConfig, UnionConfig
from limshape.groebner import LastVariableError, derive_seed

INTERSECTING_LINES = FlatConfig.of(3, [
    [(1, 0, 0, 0), (0, 1, 0, 0)],
    [(1, 0, 0, 0), (0, 0, 1, 0)],
])


def test_unipoly_basics():
    p = UniPoly.of([1, 2, 3])  # 3t^2 + 2t + 1
    assert p(2) == 17
    assert str(p) == "3*t^2 + 2*t + 1"
    assert str(UniPoly.of([Fraction(-2, 3), 1])) == "t - 2/3"
    assert str(UniPoly.of([])) == "0"
    q = p * UniPoly.of([0, 1])
    assert q(5) == 5 * p(5)
    assert (p - p)(7) == 0


def test_bipoly_slicing():
    b = BiPoly.of({(2, 1): Fraction(1), (2, 0): Fraction(-1, 2), (1, 3): 4})
    assert b.degree_m() == 2
    assert b.coefficient_of_m(2).coeffs == (Fraction(-1, 2), Fraction(1))
    assert b(2, 3) == Fraction(1) * 4 * 3 - Fraction(1, 2) * 4 + 4 * 2 * 27


@given(st.integers(0, 5), st.integers(0, 12))
@settings(max_examples=60)
def test_power_sum_faulhaber(k, m):
    assert power_sum(k)(m) == sum(i**k for i in range(m))


def test_flats_hp_known_values():
    # two disjoint lines in P^3, first power: 2t + 2
    assert flats_hp(3, 1, 2, 1).coeffs == (2, 2)
    # three points in P^2, any degree: the constant 3
    assert flats_hp(2, 0, 3, 1).coeffs == (3,)
    # one point in P^2, second power: 3 conditions
    assert flats_hp(2, 0, 1, 2).coeffs == (3,)
    # one plane in P^3, first power: full C(t+2, 2)
    assert flats_hp(3, 2, 1, 1)(4) == comb(6, 2)


def test_flats_hp_counts_monomials_for_one_flat():
    # one coordinate line in P^3: quotient monomials are those of degree t
    # in 2 variables plus the deg-(t) forms on the line... anchored at small t
    hp = flats_hp(3, 1, 1, 1)
    assert [hp(t) for t in (0, 1, 2, 3)] == [1, 2, 3, 4]


def test_flats_hp_bivariate_matches_direct():
    for n, r, s in [(3, 1, 2), (2, 0, 3), (4, 2, 1), (4, 1, 2)]:
        bi = flats_hp_bivariate(n, r, s)
        for m in (1, 2, 3):
            direct = flats_hp(n, r, s, m)
            for t in (1, 2, 5, Fraction(7, 2)):
                assert bi(m, t) == direct(Fraction(m) * Fraction(t))


def test_ahp_flats_points():
    for n in (2, 3, 4):
        for s in range(1, 7):
            ahp, lam = ahp_flats(n, 0, s)
            assert ahp.coeffs == (Fraction(s, factorial(n)),)
            assert lam(1) == Fraction(1, factorial(n)) - Fraction(s, factorial(n))


def test_ahp_flats_two_lines():
    ahp, lam = ahp_flats(3, 1, 2)
    assert str(ahp) == "t - 2/3"
    assert lam(3) == Fraction(27, 6) - (3 - Fraction(2, 3))


def test_ahp_flats_validation():
    with pytest.raises(ValueError):
        ahp_flats(2, 2, 1)
    with pytest.raises(ValueError):
        flats_hp(3, 1, 0, 1)


def test_intersecting_lines_hp():
    assert intersecting_lines_hp(1).coeffs == (1, 2)  # 2t + 1
    assert intersecting_lines_hp(2).coeffs == (-3, 6)  # 6t - 3
    bi = intersecting_lines_bivariate()
    for m in (1, 2, 3, 4):
        for t in (1, 3, Fraction(5, 2)):
            assert bi(m, t) == intersecting_lines_hp(m)(Fraction(m) * Fraction(t))
    assert str(ahp_intersecting_lines()) == "t - 1"


def test_ahp_of_config():
    pts = PointConfig.of(2, [(1, 0, 0), (0, 1, 0)])
    assert ahp_of_config(pts).coeffs == (1,)  # 2/2!
    disjoint = FlatConfig.generic(3, 1, 2, seed=2)
    assert str(ahp_of_config(disjoint)) == "t - 2/3"
    assert str(ahp_of_config(INTERSECTING_LINES)) == "t - 1"
    skew_far = FlatConfig.generic(3, 1, 3, seed=2)
    assert str(ahp_of_config(skew_far)) == "3/2*t - 1"


def test_ahp_additivity():
    line_pair = INTERSECTING_LINES
    pt = PointConfig.of(3, [(1, 1, 1, 1)])
    report = ahp_additivity_check(line_pair, pt)
    assert isinstance(report, AdditivityReport)
    assert str(report.ahp_a) == "t - 1"
    assert report.ahp_b.coeffs == (Fraction(1, 6),)
    assert str(report.total) == "t - 5/6"
    with pytest.raises(ValueError):
        ahp_additivity_check(line_pair, PointConfig.of(3, [(0, 0, 0, 1)]))


def test_ahf_estimate_single_point():
    cfg = PointConfig.of(2, [(0, 0, 1)])
    report = ahf_estimate(cfg, t=1, m_list=[1, 2, 3, 4], seed=0)
    counts = [r.count for r in report.rows]
    assert counts == [comb(m + 1, 2) for m in (1, 2, 3, 4)]
    assert report.target_value() == Fraction(1, 2)
    assert all(r.error is None for r in report.rows)
    assert report.factorial_chain_monotone
    assert all(ok for _, _, ok in report.sandwich_checks)
    assert all(r.lattice_bound_ok for r in report.rows)


def test_ahf_estimate_report_formats():
    cfg = PointConfig.of(2, [(0, 0, 1)])
    report = ahf_estimate(cfg, t=1, m_list=[1, 2], seed=0)
    csv_text = report.to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "m,count,count_over_mn,vol_staircase,vol_convex,target,gap"
    assert len(lines) == 3
    data = json.loads(report.to_json())
    assert data["target_value"] == "1/2"
    assert [row["m"] for row in data["rows"]] == [1, 2]
    assert data["rows"][0]["lattice_bound_ok"] is True


def test_ahf_estimate_keeps_rows_past_saturation_failure(monkeypatch):
    real_gin = asymptotics.gin

    def gin_failing_at_m2(ideal, seed, entry_bound):
        if seed == derive_seed(0, "row", 2):
            raise LastVariableError("gin generator involves the last variable")
        return real_gin(ideal, seed, entry_bound)

    monkeypatch.setattr(asymptotics, "gin", gin_failing_at_m2)
    cfg = PointConfig.of(2, [(0, 0, 1)])
    report = ahf_estimate(cfg, t=1, m_list=[1, 2, 3], seed=0)
    failed, = (r for r in report.rows if r.error is not None)
    assert failed.m == 2
    assert failed.error.startswith("LastVariableError:")
    assert [r.count for r in report.rows if r.m != 2] == [comb(2, 2), comb(4, 2)]


def test_report_row_volumes_partition_the_simplex():
    cfg = PointConfig.generic(2, 3, seed=5)
    t = Fraction(7, 2)
    report = ahf_estimate(cfg, t=t, m_list=[1, 2, 3], seed=5)
    for r in report.rows:
        assert r.error is None
        assert r.vol_lm_scaled + r.vol_gamma_scaled == t**2 / factorial(2)
        assert r.vol_lm_scaled == r.staircase.lm_volume(r.m * t) / r.m**2


def test_ahf_estimate_validation():
    cfg = PointConfig.of(2, [(0, 0, 1)])
    with pytest.raises(ValueError):
        ahf_estimate(cfg, t=1, m_list=[])
    with pytest.raises(ValueError):
        ahf_estimate(cfg, t=1, m_list=[2, 1])


def test_ahf_estimate_parallel_matches_serial():
    cfg = PointConfig.of(2, [(0, 0, 1), (0, 1, 0)])
    serial = ahf_estimate(cfg, t=2, m_list=[1, 2], seed=3, jobs=1)
    parallel = ahf_estimate(cfg, t=2, m_list=[1, 2], seed=3, jobs=2)
    assert serial.to_json() == parallel.to_json()


def test_ahf_estimate_convergence_toward_target():
    cfg = PointConfig.generic(2, 2, seed=7)
    report = ahf_estimate(cfg, t=2, m_list=[1, 2, 3, 4], seed=7)
    target = report.target_value()
    gaps = [abs(r.count_over_mn - target) for r in report.rows]
    assert gaps[-1] < gaps[0]
    # convex-hull volume path hits the limit from m = 1 for two points
    assert all(r.vol_gamma_convex == target for r in report.rows)
