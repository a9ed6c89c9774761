"""Command-line entry point: batch computations emitting JSON/CSV artifacts.

Exit codes: 0 ok, 1 verification failure, 2 usage/config error,
3 genericity failure, 4 resource cap.  Outputs embed a run manifest and
are byte-deterministic for a fixed manifest; wall time goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, asdict
from fractions import Fraction
from math import factorial
from pathlib import Path

from . import __version__
from .asymptotics import (
    ahf_estimate,
    ahp_additivity_check,
    ahp_flats,
    flats_hp,
    gin_of_symbolic_power,
    intersecting_lines_hp,
    UniPoly,
)
from .configs import (
    Config,
    DegenerateConfigError,
    config_from_json,
    coordinate_position,
    symbolic_power,
)
from .groebner import (
    ComputationLimitError,
    GenericityError,
    MIN_ENTRY_BOUND,
    buchberger,
    reduce_tails,
    regularity_surrogate,
)
from .polyhedra import (
    RationalPolyhedron,
    clipped_volume,
    convex_union_approximant,
    gamma_region,
    # not called here; kept because the benchmark's tracer wraps cli.newton_polyhedron
    newton_polyhedron,
    polyhedron_from_json,
    polyhedron_to_dict,
    volume,
)
from .rings import Polynomial, cleared_substitute

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_GENERICITY = 3
EXIT_RESOURCE = 4

# exit code of each computation failure, by class name (report rows carry it)
FAILURE_EXIT = {
    "GenericityError": EXIT_GENERICITY,
    "ComputationLimitError": EXIT_RESOURCE,
}


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


@dataclass
class RunManifest:
    command: str
    tool_version: str
    config_path: str | None = None
    config_sha256: str | None = None
    seed: int | None = None
    entry_bound: int | None = None
    m: int | None = None
    m_max: int | None = None
    t: str | None = None

    def as_dict(self):
        return {k: v for k, v in asdict(self).items() if v is not None}


def _load_config(path):
    if path is None:
        raise CliError("--config is required for this command", EXIT_USAGE)
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read config: {exc}", EXIT_USAGE)
    try:
        config = config_from_json(text)
    except (ValueError, KeyError, TypeError, DegenerateConfigError) as exc:
        raise CliError(f"bad config {path}: {exc}", EXIT_USAGE)
    digest = hashlib.sha256(text.encode()).hexdigest()
    return config, digest


def _parse_t(text):
    """The value of --t: a rational number >= 0."""
    try:
        t = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad rational {text!r}")
    if t < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return t


def _whole_number(least):
    """The argparse type of a whole number >= least: 1 for --m, --m-max and
    --jobs, MIN_ENTRY_BOUND for --entry-bound."""

    def parse(text):
        try:
            k = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad integer {text!r}")
        if k < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {text}")
        return k

    return parse


def _emit(payload, args, name):
    _emit_text(json.dumps(payload, indent=2) + "\n", args, name)


def _emit_text(text, args, name):
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / name).write_text(text)
        print(f"wrote {outdir / name}", file=sys.stderr)
    else:
        sys.stdout.write(text)


# -- subcommands -----------------------------------------------------------


def _gin_run(args):
    """The manifest and the gin of I^(m) for `gin` and `staircase`."""
    config, digest = _load_config(args.config)
    manifest = RunManifest(
        args.command, __version__, args.config, digest, args.seed,
        args.entry_bound, args.m,
    )
    return manifest, gin_of_symbolic_power(config, args.m, args.seed, args.entry_bound)


def _estimate_run(args):
    """The manifest and the ahf_estimate rows m = 1..m_max for `report` and
    `limiting-shape`."""
    config, digest = _load_config(args.config)
    manifest = RunManifest(
        args.command, __version__, args.config, digest, args.seed,
        args.entry_bound, m_max=args.m_max, t=str(args.t),
    )
    report = ahf_estimate(
        config,
        args.t,
        list(range(1, args.m_max + 1)),
        seed=args.seed,
        entry_bound=args.entry_bound,
        family=args.command,
        jobs=args.jobs,
    )
    return manifest, report


def cmd_gin(args):
    manifest, result = _gin_run(args)
    payload = {
        "manifest": manifest.as_dict(),
        "staircase": result.staircase.to_dict(),
        "raw_initial": [list(g) for g in result.raw_initial],
        "regularity_surrogate": regularity_surrogate(result),
    }
    _emit(payload, args, f"gin_m{args.m}.json")
    return EXIT_OK


def cmd_symbolic_power(args):
    config, digest = _load_config(args.config)
    manifest = RunManifest(
        "symbolic-power", __version__, args.config, digest, m=args.m
    )
    # I^(m) in coordinate position, moved back: its reduced degrevlex basis
    # is unique, so it prints as the intersection in the input coordinates.
    # The move keeps the Hilbert series, and substituting the integer
    # multiple d * B^-1 only scales each homogeneous generator, which the
    # engine makes monic.  Polynomial only prints the basis.
    moved, back = coordinate_position(config)
    sp = symbolic_power(moved, args.m)
    gens = cleared_substitute(sp.generators, back)
    basis = reduce_tails(buchberger(gens, sp.nvars, target=sp.hilbert_numerator))
    payload = {
        "manifest": manifest.as_dict(),
        "nvars": sp.nvars,
        "generators": [str(Polynomial(sp.nvars, terms)) for terms in basis],
    }
    _emit(payload, args, f"symbolic_power_m{args.m}.json")
    return EXIT_OK


def cmd_staircase(args):
    manifest, result = _gin_run(args)
    payload = {
        "manifest": manifest.as_dict(),
        **result.staircase.to_dict(),
    }
    _emit(payload, args, f"staircase_m{args.m}.json")
    return EXIT_OK


def cmd_limiting_shape(args):
    manifest, report = _estimate_run(args)
    if all(r.error for r in report.rows):
        first = report.rows[0].error
        raise CliError(
            f"no staircase computed for any m; m = 1: {first}",
            FAILURE_EXIT[first.split(":")[0]],
        )
    delta = convex_union_approximant(
        [r.hull for r in report.rows if r.hull is not None]
    )
    gvol, gdesc = gamma_region(delta, args.t)
    payload = {
        "manifest": manifest.as_dict(),
        "delta_approximant": polyhedron_to_dict(delta),
        "gamma": {"volume": str(gvol), "region": gdesc},
    }
    _emit(payload, args, "limiting_shape.json")
    if args.format == "csv":
        _emit_text(report.to_csv(), args, "report.csv")
    else:
        _emit(report.to_dict(), args, "report.json")
    return EXIT_OK


def cmd_ahp_flats(args):
    try:
        ahp, lam = ahp_flats(args.n, args.r, args.s)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE)
    payload = {
        "manifest": RunManifest("ahp-flats", __version__).as_dict(),
        "n": args.n,
        "r": args.r,
        "s": args.s,
        "ahp": str(ahp),
        "ahp_coeffs": [str(c) for c in ahp.coeffs],
        "lambda": str(lam),
        "lambda_coeffs": [str(c) for c in lam.coeffs],
    }
    _emit(payload, args, f"ahp_flats_{args.n}_{args.r}_{args.s}.json")
    return EXIT_OK


def cmd_volume(args):
    try:
        poly = polyhedron_from_json(Path(args.poly).read_text())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CliError(f"bad polyhedron file: {exc}", EXIT_USAGE)
    if args.t is not None:
        vol = clipped_volume(poly, args.t)
    else:
        if not poly.is_bounded():
            raise CliError(
                "polyhedron is unbounded; pass --t to clip", EXIT_USAGE
            )
        vol = volume(poly)
    payload = {
        "manifest": RunManifest(
            "volume", __version__, t=None if args.t is None else str(args.t)
        ).as_dict(),
        "volume": str(vol),
    }
    _emit(payload, args, "volume.json")
    return EXIT_OK


def cmd_report(args):
    manifest, report = _estimate_run(args)
    if args.format == "csv":
        _emit_text(report.to_csv(), args, "report.csv")
    else:
        payload = {"manifest": manifest.as_dict(), **report.to_dict()}
        _emit(payload, args, "report.json")
    return EXIT_OK


# -- verify: the worked examples ------------------------------------------


def _check(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] {name}"
    if detail:
        line += f": {detail}"
    print(line)
    return ok


def _verify_two_lines(seed, entry_bound):
    ok = True
    config = Config.generic(3, 1, 2, seed)
    g = gin_of_symbolic_power(config, 1, seed, entry_bound)
    expected = {(1, 0, 1), (0, 2, 0), (1, 1, 0), (2, 0, 0)}
    ok &= _check(
        "gin(I) contains the degree-2 quadruple",
        expected <= set(g.staircase.min_gens),
        f"generators {list(g.staircase.min_gens)}",
    )
    delta = RationalPolyhedron.of(
        3,
        [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1)],
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
    )
    for t in (2, 3, 4, Fraction(7, 2)):
        vol, _ = gamma_region(delta, t)
        ok &= _check(
            f"Gamma volume at t={t} equals t - 2/3",
            vol == Fraction(t) - Fraction(2, 3),
            f"volume {vol}",
        )
    ahp, _ = ahp_flats(3, 1, 2)
    ok &= _check("ahp_flats(3,1,2) = t - 2/3",
                 ahp == UniPoly.of([Fraction(-2, 3), 1]), str(ahp))
    hp1 = flats_hp(3, 1, 2, 1)
    ok &= _check("flats_hp(3,1,2,1) = 2t + 2",
                 hp1 == UniPoly.of([2, 2]), str(hp1))
    return ok


def _verify_intersecting_lines(seed, entry_bound):
    ok = True
    lines = Config.of(
        3,
        flats=[
            [(1, 0, 0, 0), (0, 1, 0, 0)],  # x1 = x2 = 0
            [(1, 0, 0, 0), (0, 0, 1, 0)],  # x1 = x3 = 0
        ],
    )
    for m in (1, 2):
        g = gin_of_symbolic_power(lines, m, seed, entry_bound)
        reg = regularity_surrogate(g)
        hp = intersecting_lines_hp(m)
        match = all(
            g.staircase.hilbert_function(t) == hp(t) for t in range(reg, reg + 6)
        )
        ok &= _check(
            f"HF of L^({m}) matches (m^2+m)t - m^3 + m^2/2 + 3m/2",
            match,
            f"reg surrogate {reg}, HP {hp}",
        )
    point = Config.of(3, [(1, 1, 1, 1)])
    total = ahp_additivity_check(lines, point)
    ok &= _check(
        "aHP additivity: (t - 1) + 1/6 = t - 5/6",
        total == UniPoly.of([Fraction(-5, 6), 1]),
        str(total),
    )
    return ok


def _verify_points_grid(seed, entry_bound):
    ok = True
    for n in (2, 3, 4):
        for r in range(1, 7):
            ahp, _ = ahp_flats(n, 0, r)
            ok &= _check(
                f"ahp_flats({n},0,{r}) = {r}/{n}!",
                ahp == UniPoly.constant(Fraction(r, factorial(n))),
                str(ahp),
            )
    config = Config.generic(2, 0, 2, seed)
    report = ahf_estimate(
        config, 2, [1, 2, 3, 4], seed=seed, entry_bound=entry_bound,
        family="points-grid",
    )
    ok &= _check(
        "all rows satisfy the lattice-volume error bound",
        all(r.lattice_bound_ok for r in report.rows if r.error is None),
    )
    ok &= _check(
        "factorial-chain volumes nondecreasing",
        bool(report.factorial_chain_monotone),
    )
    stabilized = [
        r.m for r in report.rows
        if r.error is None and r.vol_gamma_convex == 1
    ]
    ok &= _check(
        "convex Gamma volume reaches 1 = 2/2!",
        bool(stabilized),
        f"stabilized at m in {stabilized}" if stabilized else "not yet at m<=4",
    )
    return ok


VERIFIERS = {
    "two-lines": _verify_two_lines,
    "intersecting-lines": _verify_intersecting_lines,
    "points-grid": _verify_points_grid,
}


def cmd_verify(args):
    fn = VERIFIERS.get(args.example)
    if fn is None:
        raise CliError(
            f"unknown example {args.example!r}; "
            f"choose from {sorted(VERIFIERS)}", EXIT_USAGE
        )
    ok = fn(args.seed, args.entry_bound)
    print("all checks passed" if ok else "some checks FAILED")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# -- parser ----------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="limshape",
        description="Exact limiting shapes and asymptotic Hilbert polynomials "
        "of symbolic powers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, m=False, rows=False, draws=True):
        """The flags the command reads: --m for one symbolic power, the
        report flags for one row per m <= m_max, the gin draw unless the
        command computes no gin."""
        p.add_argument("--config", help="configuration JSON path")
        if m:
            p.add_argument("--m", type=_whole_number(1), default=1,
                           help="symbolic power")
        if rows:
            p.add_argument("--m-max", type=_whole_number(1), default=2,
                           dest="m_max")
            p.add_argument("--t", type=_parse_t, required=True,
                           help="rational truncation parameter, e.g. 7/2")
            p.add_argument("--jobs", type=_whole_number(1), default=1)
            p.add_argument("--format", choices=["json", "csv"], default="json")
        if draws:
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--entry-bound", type=_whole_number(MIN_ENTRY_BOUND),
                           default=100, dest="entry_bound")
        p.add_argument("--out", help="output directory (default: stdout)")

    p = sub.add_parser("gin", help="gin of a symbolic power")
    common(p, m=True)
    p.set_defaults(fn=cmd_gin)

    p = sub.add_parser("symbolic-power", help="generators of I^(m)")
    common(p, m=True, draws=False)
    p.set_defaults(fn=cmd_symbolic_power)

    p = sub.add_parser("staircase", help="gin staircase JSON")
    common(p, m=True)
    p.set_defaults(fn=cmd_staircase)

    p = sub.add_parser("limiting-shape", help="Delta approximant + Gamma region")
    common(p, rows=True)
    p.set_defaults(fn=cmd_limiting_shape)

    p = sub.add_parser("ahp-flats", help="closed-form aHP for s disjoint r-flats")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_ahp_flats)

    p = sub.add_parser("volume", help="exact volume of a polyhedron JSON")
    p.add_argument("--poly", required=True, help="polyhedron JSON path")
    p.add_argument("--t", type=_parse_t,
                   help="clip against the corner simplex at t")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_volume)

    p = sub.add_parser("verify", help="run a worked-example acceptance fixture")
    p.add_argument("example", help="two-lines | intersecting-lines | points-grid")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--entry-bound", type=_whole_number(MIN_ENTRY_BOUND),
                   default=100, dest="entry_bound")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("report", help="convergence report CSV/JSON")
    common(p, rows=True)
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    start = time.monotonic()
    try:
        code = args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = exc.code
    except (DegenerateConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    except (GenericityError, ComputationLimitError) as exc:
        code = FAILURE_EXIT[type(exc).__name__]
        kind = "resource" if code == EXIT_RESOURCE else "genericity/saturation"
        print(f"{kind} failure: {exc}", file=sys.stderr)
    print(f"wall time: {time.monotonic() - start:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
