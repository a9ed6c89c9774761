"""Asymptotic Hilbert functions/polynomials: closed forms for disjoint
linear flats, the intersecting-lines family, and exact finite-m
convergence reports.

Limits are never numerically extrapolated: reports place exact finite-m
values next to exact closed-form targets.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import comb, factorial, floor

from . import __version__
from .configs import (
    Config,
    components_disjoint,
    config_to_dict,
    configs_disjoint,
    coordinate_position,
    symbolic_power,
)
from .groebner import (
    ComputationLimitError,
    ENTRY_BOUND,
    GenericityError,
    GinResult,
    derive_seed,
    gin,
    regularity_surrogate,
)
from .polyhedra import clipped_volume, newton_polyhedron, scale
from .staircase import lattice_volume_error_bound


# -- exact polynomial carriers ---------------------------------------------


@dataclass(frozen=True)
class UniPoly:
    """Univariate polynomial in t, ascending Fraction coefficients."""

    coeffs: tuple

    @classmethod
    def of(cls, coeffs):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

    @classmethod
    def constant(cls, c):
        return cls.of([c])

    @classmethod
    def t_power(cls, k, c=1):
        return cls.of([0] * k + [c])

    def __add__(self, other):
        if not isinstance(other, UniPoly):
            other = UniPoly.constant(other)
        size = max(len(self.coeffs), len(other.coeffs))
        return UniPoly.of(
            [
                (self.coeffs[i] if i < len(self.coeffs) else 0)
                + (other.coeffs[i] if i < len(other.coeffs) else 0)
                for i in range(size)
            ]
        )

    def __neg__(self):
        return UniPoly.of([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, UniPoly):
            other = UniPoly.constant(other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            return UniPoly.of([c * Fraction(other) for c in self.coeffs])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly.of(out)

    __rmul__ = __mul__

    def __call__(self, t):
        t = Fraction(t)
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * t + c
        return total

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                var = "t" if k == 1 else f"t^{k}"
                body = var if abs(c) == 1 else f"{abs(c)}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


# -- closed forms for s disjoint r-flats -----------------------------------


def _check_flat_params(n, r, s, m=1):
    if not (0 <= r < n):
        raise ValueError(f"need 0 <= r < n, got r={r}, n={n}")
    if s < 1 or m < 1:
        raise ValueError("need s >= 1 and m >= 1")


def _binom_poly(shift, r) -> UniPoly:
    """C(t + shift, r) expanded in t: prod_{k=0..r-1} (t + shift - k) / r!."""
    p = UniPoly.constant(1)
    for k in range(r):
        p = p * UniPoly.of([Fraction(shift - k), 1])
    return p * Fraction(1, factorial(r))


def flats_hp(n, r, s, m) -> UniPoly:
    """Hilbert polynomial of the m-th symbolic power of s disjoint r-flats
    in P^n, as an exact polynomial in t:
    s * sum_{0 <= i < m} C(t-i+r, r) * C(i+n-r-1, n-r-1)."""
    _check_flat_params(n, r, s, m)
    total = UniPoly.of([])
    for i in range(m):
        total = total + _binom_poly(r - i, r) * comb(i + n - r - 1, n - r - 1)
    return total * s


def ahp_flats(n, r, s):
    """(aHP, Lambda) for s disjoint r-flats in P^n.

    With i = m*x, the m^n part of `flats_hp(n, r, s, m)` at m*t is
    s/(r!(n-r-1)!) * int_0^1 (t-x)^r x^(n-r-1) dx, whose t^j coefficient
    carries (-1)^(r-j) C(r, j)/(n-j).  Lambda(n,r,s) is t^n/n! - aHP.
    """
    _check_flat_params(n, r, s)
    c = Fraction(s, factorial(r) * factorial(n - r - 1))
    ahp = UniPoly.of(
        [c * (-1) ** (r - j) * Fraction(comb(r, j), n - j) for j in range(r + 1)]
    )
    lam = UniPoly.t_power(n, Fraction(1, factorial(n))) - ahp
    return ahp, lam


# -- the intersecting-lines family (two lines through a point in P^3) ------


def intersecting_lines_hp(m) -> UniPoly:
    """HP of the m-th symbolic power of two lines meeting in a point in P^3:
    (m^2+m) t - m^3 + m^2/2 + 3m/2."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return UniPoly.of(
        [-(m**3) + Fraction(m**2, 2) + Fraction(3 * m, 2), m**2 + m]
    )


# -- closed-form aHP per configuration -------------------------------------


def ahp_of_config(config: Config) -> UniPoly:
    """Closed-form aHP where one is known: pairwise-disjoint points and
    flats (a point is the 0-flat), and two lines of P^3 that meet, with
    any points."""
    n = config.n
    if components_disjoint(config):
        # a point is the 0-flat, and a flat's forms are independent, so
        # the dimensions need no echelon form
        total = UniPoly.of([])
        for kind, data in config.components:
            r = 0 if kind == "point" else n - len(data)
            total = total + ahp_flats(n, r, 1)[0]
        return total
    # Config.of puts no point on a flat and repeats no line, so two lines
    # of P^3 that are not disjoint meet in a point, away from the points
    if n == 3 and [len(forms) for forms in config.flats] == [2, 2]:
        # the m^3 coefficient of intersecting_lines_hp(m)(m*t), plus 1/3!
        # per point
        return UniPoly.of([-1, 1]) + Fraction(len(config.points), factorial(n))
    raise ValueError("no closed-form aHP for this configuration")


def ahp_additivity_check(config_a: Config, config_b: Config) -> UniPoly:
    """The aHP of the union of two disjoint configurations, as the sum of
    theirs; disjointness is checked exactly and non-disjoint inputs are
    rejected."""
    if not configs_disjoint(config_a, config_b):
        raise ValueError("configurations are not disjoint")
    return ahp_of_config(config_a) + ahp_of_config(config_b)


# -- convergence reports ---------------------------------------------------


@dataclass
class ReportRow:
    m: int
    count: int = None
    count_over_mn: Fraction = None
    vol_lm_scaled: Fraction = None  # vol(L_{m,t}/m), staircase path
    vol_gamma_scaled: Fraction = None  # vol(Gamma_{m,t})/m^n, staircase path
    vol_gamma_convex: Fraction = None  # t^n/n! - vol(conv(L_m)/m within T_t)
    regularity: int = None
    below_regularity: bool = None
    lattice_bound_ok: bool = None
    staircase = None
    hull = None  # conv(L_m)/m; None for a failed row
    error: str = None


@dataclass
class ConvergenceReport:
    family: str
    n: int
    t: Fraction
    seed: int
    config: dict
    rows: list
    target: UniPoly | None = None
    factorial_chain_monotone: bool = None
    sandwich_checks: list = field(default_factory=list)  # (m_fact, p, ok)

    def target_value(self):
        return None if self.target is None else self.target(self.t)

    def to_rows(self):
        tv = self.target_value()
        out = []
        for r in self.rows:
            if r.error:
                out.append([r.m, "ERROR", r.error, "", "", "", ""])
                continue
            gap = "" if tv is None else str(tv - r.count_over_mn)
            out.append(
                [
                    r.m,
                    r.count,
                    str(r.count_over_mn),
                    str(r.vol_gamma_scaled),
                    str(r.vol_gamma_convex),
                    "" if tv is None else str(tv),
                    gap,
                ]
            )
        return out

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            ["m", "count", "count_over_mn", "vol_staircase", "vol_convex",
             "target", "gap"]
        )
        writer.writerows(self.to_rows())
        return buf.getvalue()

    def to_dict(self) -> dict:
        tv = self.target_value()
        return {
            "family": self.family,
            "n": self.n,
            "t": str(self.t),
            "seed": self.seed,
            "entry_bound": ENTRY_BOUND,
            "tool_version": __version__,
            "config": self.config,
            "target": None if self.target is None else str(self.target),
            "target_value": None if tv is None else str(tv),
            "factorial_chain_monotone": self.factorial_chain_monotone,
            "sandwich_checks": [
                {"m_factorial": a, "p": b, "ok": ok}
                for a, b, ok in self.sandwich_checks
            ],
            "rows": [
                {
                    "m": r.m,
                    "error": r.error,
                    "count": r.count,
                    "count_over_mn": _s(r.count_over_mn),
                    "vol_lm_scaled": _s(r.vol_lm_scaled),
                    "vol_gamma_scaled": _s(r.vol_gamma_scaled),
                    "vol_gamma_convex": _s(r.vol_gamma_convex),
                    "regularity": r.regularity,
                    "below_regularity": r.below_regularity,
                    "lattice_bound_ok": r.lattice_bound_ok,
                }
                for r in self.rows
            ],
        }


def _s(x):
    return None if x is None else str(x)


def _is_factorial(m):
    f, k = 1, 1
    while f < m:
        k += 1
        f *= k
    return f == m


def gin_of_symbolic_power(config: Config, m, seed) -> GinResult:
    """gin of I^(m), computed on the configuration moved into coordinate
    position.

    Sound because gin(hI) = gin(I) for every invertible linear change h
    (Bayer-Stillman 1987; Green 1998).  In coordinate position I^(m) has
    small coefficients, and is a monomial ideal when every component is a
    coordinate subspace.
    """
    moved, _ = coordinate_position(config)
    return _gin_in_place(moved, m, seed)


def _gin_in_place(config: Config, m, seed) -> GinResult:
    """gin of I^(m), computed in the coordinates config is given in."""
    sp = symbolic_power(config, m)
    return gin(sp.generators, sp.nvars, seed, sp.hilbert_numerator)


def compute_report_row(moved: Config, t, m, seed) -> ReportRow:
    """One (config, m) row, from the configuration already moved into
    coordinate position (see gin_of_symbolic_power): symbolic power -> gin
    -> staircase, lattice count of the complement and both volume paths.
    Resource, genericity and saturation failures are captured in the row,
    not raised."""
    t = Fraction(t)
    n = moved.n
    row = ReportRow(m=m)
    try:
        g = _gin_in_place(moved, m, derive_seed(seed, "row", m))
        st = g.staircase
        mt = Fraction(m) * t
        row.count = st.count_gamma(floor(mt))
        row.count_over_mn = Fraction(row.count, m**n)
        simplex = t**n / factorial(n)
        gvol = st.gamma_volume(mt)
        row.vol_gamma_scaled = gvol / m**n
        row.vol_lm_scaled = simplex - row.vol_gamma_scaled
        row.hull = scale(newton_polyhedron(st), Fraction(1, m))
        row.vol_gamma_convex = simplex - clipped_volume(row.hull, t)
        row.regularity = regularity_surrogate(g)
        row.below_regularity = mt < row.regularity
        bound = lattice_volume_error_bound(n, m, t)
        row.lattice_bound_ok = abs(row.count - gvol) <= bound
        row.staircase = st
    except (ComputationLimitError, GenericityError) as exc:
        row.error = f"{type(exc).__name__}: {exc}"
    return row


def ahf_estimate(
    config: Config,
    t,
    m_list,
    seed: int = 0,
    family: str = "config",
    jobs: int = 1,
) -> ConvergenceReport:
    """Exact finite-m data for the asymptotic Hilbert function at t.

    Closed-form target attached when the configuration has one.  Rows
    failing with resource, genericity or saturation errors are flagged, not
    fatal.  Rows are independent; jobs > 1 computes them in worker
    processes and merges in m order.  The configuration is moved into
    coordinate position once, for every row; the report echoes it as given.
    """
    if not m_list or list(m_list) != sorted(set(m_list)):
        raise ValueError("m_list must be nonempty and strictly increasing")
    t = Fraction(t)
    n = config.n
    moved, _ = coordinate_position(config)
    row = partial(compute_report_row, moved, t, seed=seed)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(m_list))) as pool:
            rows = list(pool.map(row, m_list))
    else:
        rows = list(map(row, m_list))

    try:
        target = ahp_of_config(config)
    except ValueError:
        target = None

    report = ConvergenceReport(
        family=family,
        n=n,
        t=t,
        seed=seed,
        config=config_to_dict(config),
        rows=rows,
        target=target,
    )

    good = {r.m: r for r in rows if r.error is None}
    fact_ms = [m for m in sorted(good) if _is_factorial(m)]
    vols = [good[m].vol_lm_scaled for m in fact_ms]
    report.factorial_chain_monotone = all(
        a <= b for a, b in zip(vols, vols[1:])
    )
    for mf in fact_ms:
        for p in sorted(good):
            if p >= mf:
                lhs = Fraction(p - mf, p) ** n * good[mf].vol_lm_scaled
                report.sandwich_checks.append(
                    (mf, p, lhs <= good[p].vol_lm_scaled)
                )
    return report
