"""The benchmark's workloads: seeded inputs, one timed pass, output checks.

A workload builds its inputs from the seed alone (`build`), runs one pass
over them (`run_pass`, the timed part) and checks what the pass returned
(`check`, run after timing).  An operation is one report row for the CLI
workloads and one ideal (plus the family step) for the staircase sweep.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from pathlib import Path

from limshape import asymptotics, cli, polyhedra
from limshape.linalg import det
from limshape.staircase import MonomialStaircase, minimalize

T = Fraction(3)  # truncation parameter t of every workload


@dataclass
class PassResult:
    """What one pass returned: per-operation failure labels (None when the
    operation succeeded), the outputs to check, and the pass digest."""

    failures: list
    outputs: object = None
    digest: str | None = None
    problems: list = field(default_factory=list)  # wrong outputs

    def fail_all(self, label):
        self.failures = [label] * len(self.failures)

    def mismatch(self, i, label):
        """Operation i returned a wrong output."""
        self.failures[i] = label
        self.problems.append(label)


def digest_of(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# -- the two CLI workloads ------------------------------------------------


def _flats(forms_a, forms_b):
    return {
        "n": 3,
        "components": [
            {"type": "flat", "forms": forms_a},
            {"type": "flat", "forms": forms_b},
        ],
    }


# the two lines of `two-lines`: four forms with random integer
# coefficients in [-100, 100], drawn once from this seed
GENERIC_LINES_SEED = 1


def generic_line_forms():
    """Four independent forms, so the lines they cut out are disjoint."""
    rng = random.Random(GENERIC_LINES_SEED)
    while True:
        forms = [[rng.randint(-100, 100) for _ in range(4)] for _ in range(4)]
        if det(forms) != 0:
            return forms


def _represent(rng, forms):
    """The flat cut out by two forms, cut out instead by a seeded invertible
    combination of them: the same ideal in another presentation."""
    f, g = forms
    while True:
        a, b, c, d = (rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(4))
        if a * d - b * c:
            return [[a * x + b * y for x, y in zip(f, g)],
                    [c * x + d * y for x, y in zip(f, g)]]


def two_lines_config(seed):
    """Two fixed generic lines in P^3, each presented by the seed.  The
    ideal, and so the work and the results, are the same for every seed."""
    rng = random.Random(seed)
    forms = generic_line_forms()
    return _flats(_represent(rng, forms[:2]), _represent(rng, forms[2:]))


def intersecting_lines_config(seed):
    """The lines x1 = x2 = 0 and x1 = x3 = 0, each presented by the seed.
    The ideal, and so the special position, is the same for every seed."""
    rng = random.Random(seed)
    x1, x2, x3 = ([int(i == j) for j in range(4)] for i in range(3))
    return _flats(_represent(rng, [x1, x2]), _represent(rng, [x1, x3]))


class CliWorkload:
    """`limshape limiting-shape --m-max M --t 3` on a seeded configuration,
    run in-process through `cli.main`."""

    def __init__(self, name, make_config, m_max, row_check=None):
        self.name = name
        self.make_config = make_config
        self.m_max = m_max
        self.row_check = row_check  # paper oracle on (JSON row, ReportRow)

    def build(self, seed, workdir):
        path = workdir / "config.json"
        path.write_text(json.dumps(self.make_config(seed)))
        return path

    def run_pass(self, config_path, outdir):
        argv = [
            "limiting-shape", "--config", str(config_path),
            "--m-max", str(self.m_max), "--t", str(T), "--out", str(outdir),
        ]
        rows = []
        inner = asymptotics.compute_report_row

        def keep_row(*args, **kwargs):
            row = inner(*args, **kwargs)
            rows.append(row)
            return row

        result = PassResult([None] * self.m_max)
        asymptotics.compute_report_row = keep_row
        try:
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli.main(argv)
        except Exception as exc:  # any class counts as a failed pass
            result.fail_all(type(exc).__name__)
            return result
        finally:
            asymptotics.compute_report_row = inner
        if code != 0:
            first = (err.getvalue().splitlines() or [""])[0]
            result.fail_all(f"exit code {code}: {first[:120]}")
            return result
        result.outputs = (Path(outdir), rows)
        return result

    def check(self, seed, result):
        outdir, rows = result.outputs
        shape = json.loads((outdir / "limiting_shape.json").read_text())
        report = json.loads((outdir / "report.json").read_text())
        # the config path names a per-run directory, and the config digest
        # and echo the seed's presentation of the lines; none is a result
        shape["manifest"].pop("config_path", None)
        shape["manifest"].pop("config_sha256", None)
        report.pop("config", None)
        result.digest = digest_of({"limiting_shape": shape, "report": report})
        by_m = {r.m: r for r in rows}
        for i, row in enumerate(report["rows"]):
            if row["error"] is not None:
                result.failures[i] = f"error row: {row['error'].split(':')[0]}"
                continue
            label = None
            if row["lattice_bound_ok"] is not True:
                label = "lattice bound fails"
            elif self.row_check is not None:
                label = self.row_check(row, by_m.get(row["m"]))
            if label:
                result.mismatch(i, label)
        if not all(c["ok"] for c in report["sandwich_checks"]):
            result.fail_all("sandwich check fails")
            result.problems.append("sandwich check fails")


def _check_intersecting_lines(row, captured):
    """HF of the gin staircase against the closed form from the regularity
    surrogate on, and the reported count against the closed form at mt.
    `row` is the report's JSON row, `captured` the ReportRow behind it."""
    m = row["m"]
    hp = asymptotics.intersecting_lines_hp(m)
    if captured is None or captured.staircase is None:
        return "staircase not returned"
    st, reg = captured.staircase, row["regularity"]
    for d in range(reg, reg + 3):
        if st.hilbert_function(d) != hp(d):
            return f"HF({d}) != closed form"
    mt = int(m * T)
    if mt >= reg and row["count"] != hp(mt):
        return "count != closed form"
    return None


# -- the staircase sweep --------------------------------------------------


def _borel_moves(g):
    """Monomials of the degree of g (3 variables) reached from g by moves
    x_j -> x_i with i < j: the Borel-fixed ideal generated by g, in that
    degree."""
    d = sum(g)
    return [
        (a, b, d - a - b)
        for a in range(g[0], d + 1)
        for b in range(d - a + 1)
        if a + b >= g[0] + g[1]
    ]


def random_borel_staircase(rng, k):
    """A Borel-fixed monomial ideal in 3 variables with exactly k minimal
    generators, from 1-4 random Borel generators of degree 3-9."""
    while True:
        borel_gens = []
        for _ in range(rng.randint(1, 4)):
            d = rng.randint(3, 9)
            a = rng.randint(0, d)
            b = rng.randint(0, d - a)
            borel_gens.append((a, b, d - a - b))
        gens = minimalize(m for g in borel_gens for m in _borel_moves(g))
        if len(gens) == k:
            return MonomialStaircase.from_generators(3, gens)


POOL_FILE = Path(__file__).resolve().parent / "staircases.json"


def make_pool(size):
    """The first `size` distinct random Borel-fixed ideals (from seed 0) with
    13 minimal generators, the least of degree 6, whose Newton polyhedron
    has 4 vertices.  Counting costs what the generator count makes it and
    the hulls what their vertices make them, so every family drawn from the
    pool costs about the same."""
    rng = random.Random(0)
    pool = []
    while len(pool) < size:
        st = random_borel_staircase(rng, 13)
        if (
            min(sum(g) for g in st.min_gens) == 6
            and st not in pool
            and len(polyhedra.newton_polyhedron(st).vertices) == 4
        ):
            pool.append(st)
    return pool


def load_pool():
    return [
        MonomialStaircase.from_generators(3, [tuple(g) for g in gens])
        for gens in json.loads(POOL_FILE.read_text())
    ]


class StaircaseSweep:
    """Counts, volumes and Newton polyhedra of a family of Borel-fixed ideals
    that the seed draws from the pool in `staircases.json`, then the
    family's convex union and Gamma region.  Each ideal is read as the gin
    staircase of I^(m) with m its least generator degree."""

    name = "staircase-sweep"
    family_size = 4

    def build(self, seed, workdir):
        return random.Random(seed).sample(load_pool(), self.family_size)

    def run_pass(self, staircases, outdir):
        result = PassResult([None] * (len(staircases) + 1))
        per_ideal, hulls = [], []
        for i, st in enumerate(staircases):
            m = min(sum(g) for g in st.min_gens)
            bound = int(m * T)
            try:
                out = {
                    "m": m,
                    "count": st.count_gamma(bound),
                    "hf": st.hilbert_function(bound),
                    "gamma_volume": st.gamma_volume(m * T),
                    "lm_volume": st.lm_volume(m * T),
                }
                hull = polyhedra.scale(
                    polyhedra.newton_polyhedron(st), Fraction(1, m)
                )
                out["clipped"] = polyhedra.clipped_volume(hull, T)
                out["clipped_apex_last"] = polyhedra.clipped_volume(
                    hull, T, apex_last=True
                )
            except Exception as exc:  # any class counts as a failed operation
                result.failures[i] = type(exc).__name__
                continue
            out["hull"] = hull.vertices
            per_ideal.append((i, st, out))
            hulls.append(hull)
        family = None
        try:
            delta = polyhedra.convex_union_approximant(hulls)
            vol, _ = polyhedra.gamma_region(delta, T)
            family = {"delta": delta.vertices, "gamma_volume": vol}
        except Exception as exc:  # any class counts as a failed operation
            result.failures[-1] = type(exc).__name__
        result.outputs = (per_ideal, family)
        return result

    def check(self, seed, result):
        per_ideal, family = result.outputs
        simplex = T**3 / factorial(3)
        for i, st, out in per_ideal:
            mt = out["m"] * T
            label = None
            if out["count"] != st.count_gamma_bruteforce(int(mt)):
                label = "count_gamma != brute force"
            elif out["hf"] != out["count"]:
                label = "hilbert_function != count_gamma"
            elif out["clipped"] != out["clipped_apex_last"]:
                label = "apex volumes disagree"
            elif out["gamma_volume"] + out["lm_volume"] != mt**3 / factorial(3):
                label = "gamma + lm volume != simplex volume"
            if label:
                result.mismatch(i, label)
        if family is not None and not 0 <= family["gamma_volume"] <= simplex:
            result.mismatch(-1, "Gamma region volume out of range")
        result.digest = digest_of(
            {
                "ideals": [
                    {k: _jsonable(v) for k, v in out.items()}
                    for _, _, out in per_ideal
                ],
                "family": None
                if family is None
                else {k: _jsonable(v) for k, v in family.items()},
            }
        )


def _jsonable(x):
    if isinstance(x, (tuple, list)):
        return [_jsonable(v) for v in x]
    if isinstance(x, Fraction):
        return str(x)
    return x


WORKLOADS = {
    w.name: w
    for w in (
        CliWorkload("two-lines", two_lines_config, m_max=2),
        CliWorkload("intersecting-lines", intersecting_lines_config, m_max=8,
                    row_check=_check_intersecting_lines),
        StaircaseSweep(),
    )
}


if __name__ == "__main__":
    # rewrites the sweep's pool: PYTHONPATH=src python3 perfbench/workloads.py
    POOL_FILE.write_text(
        "[\n" + ",\n".join(json.dumps(st.min_gens) for st in make_pool(16))
        + "\n]\n"
    )
