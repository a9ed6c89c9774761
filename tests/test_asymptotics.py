import concurrent.futures
from fractions import Fraction
from math import comb, factorial

import pytest
from oracles import ahp_by_differences

from limshape import asymptotics
from limshape.asymptotics import (
    UniPoly,
    ahf_estimate,
    ahp_flats,
    ahp_of_config,
    ahp_additivity_check,
    flats_hp,
    intersecting_lines_hp,
)
from limshape.configs import Config, config_from_dict, symbolic_power
from limshape.groebner import GenericityError, derive_seed, gin

INTERSECTING_LINES = Config.of(3, flats=[
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


def test_ahp_flats_matches_definition():
    # aHP(t) = lim HP_m(m t) / m^n, read off by finite differences in m; six
    # values of t pin down every aHP here, whose degree r is at most 5
    for n in range(1, 7):
        for r in range(n):
            for s in range(1, 4):
                ahp, lam = ahp_flats(n, r, s)
                hp = lambda m: flats_hp(n, r, s, m)
                for t in (1, 2, Fraction(7, 2), Fraction(1, 3), 0, 5):
                    assert ahp(t) == ahp_by_differences(hp, n, t), (n, r, s, t)
                    assert lam(t) == Fraction(t) ** n / factorial(n) - ahp(t)


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
    ahp = ahp_of_config(INTERSECTING_LINES)
    assert str(ahp) == "t - 1"
    for t in (0, 1, 3, Fraction(5, 2)):
        assert ahp(t) == ahp_by_differences(intersecting_lines_hp, 3, t)


def test_ahp_of_config():
    pts = Config.of(2, [(1, 0, 0), (0, 1, 0)])
    assert ahp_of_config(pts).coeffs == (1,)  # 2/2!
    disjoint = Config.generic(3, 1, 2, seed=2)
    assert str(ahp_of_config(disjoint)) == "t - 2/3"
    assert str(ahp_of_config(INTERSECTING_LINES)) == "t - 1"
    skew_far = Config.generic(3, 1, 3, seed=2)
    assert str(ahp_of_config(skew_far)) == "3/2*t - 1"


def test_ahp_of_config_reads_the_forms_once(monkeypatch):
    # each read of Config.forms re-runs the echelon form of every component
    reads = []
    forms = Config.forms
    monkeypatch.setattr(
        Config, "forms", property(lambda c: reads.append(c) or forms.fget(c))
    )
    point = Config.of(3, [(1, 1, 1, 1)])
    line = Config.of(3, flats=[[(1, 0, 0, 0), (0, 1, 0, 0)]])
    both = Config.of(3, point.points, line.flats)
    ahps = []
    for config in (point, line, both, INTERSECTING_LINES):
        reads.clear()
        ahps.append(ahp_of_config(config))
        assert len(reads) == 1
    assert [str(a) for a in ahps] == ["1/6", "1/2*t - 1/3", "1/2*t - 1/6", "t - 1"]


def test_ahp_additivity():
    line_pair = INTERSECTING_LINES
    pt = Config.of(3, [(1, 1, 1, 1)])
    assert str(ahp_of_config(line_pair)) == "t - 1"
    assert ahp_of_config(pt).coeffs == (Fraction(1, 6),)
    assert str(ahp_additivity_check(line_pair, pt)) == "t - 5/6"
    with pytest.raises(ValueError):
        ahp_additivity_check(line_pair, Config.of(3, [(0, 0, 0, 1)]))


def test_ahf_estimate_single_point():
    cfg = Config.of(2, [(0, 0, 1)])
    report = ahf_estimate(cfg, t=1, m_list=[1, 2, 3, 4], seed=0)
    counts = [r.count for r in report.rows]
    assert counts == [comb(m + 1, 2) for m in (1, 2, 3, 4)]
    assert report.target_value() == Fraction(1, 2)
    assert all(r.error is None for r in report.rows)
    assert report.factorial_chain_monotone
    assert all(ok for _, _, ok in report.sandwich_checks)
    assert all(r.lattice_bound_ok for r in report.rows)


def test_ahf_estimate_report_formats():
    cfg = Config.of(2, [(0, 0, 1)])
    report = ahf_estimate(cfg, t=1, m_list=[1, 2], seed=0)
    csv_text = report.to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "m,count,count_over_mn,vol_staircase,vol_convex,target,gap"
    assert len(lines) == 3
    data = report.to_dict()
    assert data["target_value"] == "1/2"
    assert [row["m"] for row in data["rows"]] == [1, 2]
    assert data["rows"][0]["lattice_bound_ok"] is True


def test_ahf_estimate_keeps_rows_past_saturation_failure(monkeypatch):
    real_gin = asymptotics.gin

    def gin_failing_at_m2(generators, nvars, seed, target):
        if seed == derive_seed(0, "row", 2):
            raise GenericityError("the ideal is not saturated")
        return real_gin(generators, nvars, seed, target)

    monkeypatch.setattr(asymptotics, "gin", gin_failing_at_m2)
    cfg = Config.of(2, [(0, 0, 1)])
    report = ahf_estimate(cfg, t=1, m_list=[1, 2, 3], seed=0)
    failed, = (r for r in report.rows if r.error is not None)
    assert failed.m == 2
    assert failed.error.startswith("GenericityError:")
    assert [r.count for r in report.rows if r.m != 2] == [comb(2, 2), comb(4, 2)]


def test_report_row_volumes_partition_the_simplex():
    cfg = Config.generic(2, 0, 3, seed=5)
    t = Fraction(7, 2)
    report = ahf_estimate(cfg, t=t, m_list=[1, 2, 3], seed=5)
    for r in report.rows:
        assert r.error is None
        assert r.vol_lm_scaled + r.vol_gamma_scaled == t**2 / factorial(2)
        assert r.vol_lm_scaled == r.staircase.lm_volume(r.m * t) / r.m**2


def test_ahf_estimate_validation():
    cfg = Config.of(2, [(0, 0, 1)])
    with pytest.raises(ValueError):
        ahf_estimate(cfg, t=1, m_list=[])
    with pytest.raises(ValueError):
        ahf_estimate(cfg, t=1, m_list=[2, 1])


def test_ahf_estimate_parallel_matches_serial():
    cfg = Config.of(2, [(0, 0, 1), (0, 1, 0)])
    serial = ahf_estimate(cfg, t=2, m_list=[1, 2], seed=3, jobs=1)
    parallel = ahf_estimate(cfg, t=2, m_list=[1, 2], seed=3, jobs=2)
    assert serial.to_dict() == parallel.to_dict()


def test_ahf_estimate_starts_no_more_workers_than_rows(monkeypatch):
    # a pool forks its workers at the first submit, so --jobs above the
    # number of rows would only fork idle processes; a fake pool records
    # the count and starts none
    started = []

    class Pool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    cfg = Config.of(2, [(0, 0, 1), (0, 1, 0)])
    for jobs, m_list in ((500, [1, 2]), (2, [1, 2, 3])):
        ahf_estimate(cfg, t=2, m_list=m_list, seed=3, jobs=jobs)
    assert started == [2, 2]


def test_ahf_estimate_convergence_toward_target():
    cfg = Config.generic(2, 0, 2, seed=7)
    report = ahf_estimate(cfg, t=2, m_list=[1, 2, 3, 4], seed=7)
    target = report.target_value()
    gaps = [abs(r.count_over_mn - target) for r in report.rows]
    assert gaps[-1] < gaps[0]
    # convex-hull volume path hits the limit from m = 1 for two points
    assert all(r.vol_gamma_convex == target for r in report.rows)


# gin(hI) = gin(I): the entry point moves each configuration into
# coordinate position first, and must find the staircase that the same
# gin draws find on the configuration as given
MOVE_ORACLE_CASES = {
    "two-lines": (Config.generic(3, 1, 2, seed=3), 3),
    "three-points": (Config.generic(3, 0, 3, seed=3), 3),
    "intersecting-lines": (
        Config.of(3, flats=[
            [(2, -1, 3, 1), (1, 4, -2, 5)],
            [(2, -1, 3, 1), (-3, 1, 1, 2)],
        ]),
        3,
    ),
    "point-plus-line": (
        config_from_dict({"n": 3, "components": [
            {"type": "point", "coords": [1, 2, -3, 5]},
            {"type": "flat", "forms": [[2, -1, 4, 7], [3, 5, -2, 1]]},
        ]}),
        3,
    ),
    # n + 3 points: the fourth goes to the frame (1,1,1), the fifth
    # anywhere; in P^3 the unmoved m = 2 alone takes about 4 s
    "five-points-P2": (Config.generic(2, 0, 5, seed=3), 3),
    # the third line goes to x0 - x2 = x1 - x3 = 0; the unmoved m = 3
    # alone takes about 15 s
    "three-lines-P3": (Config.generic(3, 1, 3, seed=3), 2),
}


@pytest.mark.parametrize("name", MOVE_ORACLE_CASES)
def test_gin_of_symbolic_power_matches_unmoved_gin(name):
    config, m_max = MOVE_ORACLE_CASES[name]
    for m in range(1, m_max + 1):
        seed = derive_seed(3, "row", m)
        moved = asymptotics.gin_of_symbolic_power(config, m, seed)
        sp = symbolic_power(config, m)
        given_coords = gin(sp.generators, sp.nvars, seed, sp.hilbert_numerator)
        assert moved.staircase == given_coords.staircase, (name, m)


def test_six_generic_points_in_p2_meet_the_waldschmidt_bound():
    # the Waldschmidt constant of 6 generic points in P^2 is 12/5 (Nagata;
    # see Bocci-Harbourne 2010, "Comparing powers and symbolic powers of
    # ideals"), the infimum of alpha(I^(m)) / m, where alpha, the least
    # degree of an element, is the least degree of a gin generator.  The
    # six conics through five of the points reach it at m = 5, where
    # alpha = 12; that row takes about 8 s, so it is left out here
    config = Config.generic(2, 0, 6, 3)
    alphas = [
        min(map(sum, asymptotics.gin_of_symbolic_power(
            config, m, derive_seed(3, "row", m)).staircase.min_gens))
        for m in range(1, 5)
    ]
    assert alphas == [3, 5, 8, 10]
    assert all(a >= -(-12 * m // 5) for m, a in enumerate(alphas, 1))
