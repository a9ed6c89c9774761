import json
from fractions import Fraction

import pytest

from limshape import asymptotics, cli, groebner, polyhedra, rings
from limshape.configs import (
    config_from_json,
    config_to_dict,
    coordinate_position,
    symbolic_power,
)
from limshape.groebner import ComputationLimitError, GenericityError
from limshape.staircase import k_polynomial
from oracles import groebner_basis
from test_asymptotics import MOVE_ORACLE_CASES


TWO_POINTS = '{"n": 2, "components": [{"type": "point", "coords": [1, 0, 0]}, {"type": "point", "coords": [0, 0, 1]}]}'


@pytest.fixture
def config_path(tmp_path):
    p = tmp_path / "config.json"
    p.write_text(TWO_POINTS)
    return str(p)


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ahp_flats_stdout(capsys):
    code, out, err = run(["ahp-flats", "--n", "3", "--r", "1", "--s", "2"], capsys)
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["ahp"] == "t - 2/3"
    assert payload["manifest"]["command"] == "ahp-flats"
    assert "wall time" in err and "wall time" not in out


def test_ahp_flats_bad_params(capsys):
    code, out, err = run(["ahp-flats", "--n", "2", "--r", "2", "--s", "1"], capsys)
    assert code == cli.EXIT_USAGE


def test_usage_errors(capsys, tmp_path, config_path):
    assert run(["gin"], capsys)[0] == cli.EXIT_USAGE  # missing --config
    assert run(["no-such-command"], capsys)[0] == cli.EXIT_USAGE
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["gin", "--config", str(bad)], capsys)[0] == cli.EXIT_USAGE
    missing = tmp_path / "missing.json"
    assert run(["gin", "--config", str(missing)], capsys)[0] == cli.EXIT_USAGE
    # each command takes only the flags it reads
    for argv in (
        ["gin", "--jobs", "2"],
        ["staircase", "--format", "csv"],
        ["symbolic-power", "--seed", "1"],
        ["symbolic-power", "--entry-bound", "50"],
        ["ahp-flats", "--n", "3", "--r", "1", "--s", "2", "--format", "json"],
        ["volume", "--poly", str(missing), "--format", "json"],
        # the report commands need --t
        ["report", "--config", config_path],
        ["limiting-shape", "--config", config_path, "--out", str(tmp_path)],
    ):
        assert run(argv, capsys)[0] == cli.EXIT_USAGE
    # a point on a flat of the same configuration is a redundant component
    on_flat = tmp_path / "on_flat.json"
    on_flat.write_text(json.dumps({"n": 3, "components": [
        {"type": "point", "coords": [1, 0, 0, 0]},
        {"type": "flat", "forms": [[0, 1, 0, 0], [0, 0, 1, 0]]},
    ]}))
    code, _, err = run(
        ["report", "--config", str(on_flat), "--m-max", "1", "--t", "2"], capsys
    )
    assert code == cli.EXIT_USAGE and "lies on flat" in err
    # a flat cut out by 4 independent forms in P^3 is the empty set
    empty_flat = tmp_path / "empty_flat.json"
    empty_flat.write_text(json.dumps({"n": 3, "components": [
        {"type": "flat", "forms": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                                   [0, 0, 0, 1]]},
    ]}))
    code, _, err = run(
        ["report", "--config", str(empty_flat), "--m-max", "1", "--t", "2"], capsys
    )
    assert code == cli.EXIT_USAGE and "needs 1 to 3 forms" in err
    # a polyhedron file of the wrong shape
    bad_poly = tmp_path / "bad_poly.json"
    bad_poly.write_text('{"dim": 2, "vertices": 5}')
    code, _, err = run(["volume", "--poly", str(bad_poly)], capsys)
    assert code == cli.EXIT_USAGE and "bad polyhedron file" in err
    # a zero ray makes no polyhedron, not an unbounded one
    zero_ray = tmp_path / "zero_ray.json"
    zero_ray.write_text('{"dim": 2, "vertices": [[0, 0]], "rays": [[0, 0]]}')
    code, _, err = run(["volume", "--poly", str(zero_ray)], capsys)
    assert code == cli.EXIT_USAGE and "zero ray" in err
    # a negative --t is refused while the flags are read: no command starts,
    # so no row is computed and no wall time is printed
    for argv in (
        ["report", "--config", config_path, "--t=-1"],
        ["limiting-shape", "--config", config_path, "--t", "-1"],
        ["volume", "--poly", str(zero_ray), "--t=-1/2"],
    ):
        code, _, err = run(argv, capsys)
        assert code == cli.EXIT_USAGE and "--t: must be >= 0" in err
        assert "wall time" not in err
    # --jobs counts worker processes and --m, --m-max symbolic powers, so
    # each is at least 1
    for flag, value in (("--jobs", "0"), ("--jobs", "-2"), ("--jobs", "two"),
                        ("--m-max", "0"), ("--m-max", "1.5")):
        code, _, err = run(
            ["limiting-shape", "--config", config_path, "--t", "2", flag, value],
            capsys,
        )
        assert code == cli.EXIT_USAGE and flag in err and "wall time" not in err
    for command in ("gin", "symbolic-power", "staircase"):
        code, _, err = run([command, "--config", config_path, "--m", "0"], capsys)
        assert code == cli.EXIT_USAGE and "--m: must be >= 1" in err
    # counts in a JSON file are integers, not decimals or bools
    for name, data in (
        ("n_decimal", {"n": 2.0, "generic": {"r": 0, "s": 2, "seed": 1}}),
        ("n_bool", {"n": True, "generic": {"r": 0, "s": 2, "seed": 1}}),
        ("s_decimal", {"n": 2, "generic": {"r": 0, "s": 2.5, "seed": 1}}),
        ("r_bool", {"n": 3, "generic": {"r": False, "s": 2, "seed": 1}}),
        ("seed_decimal", {"n": 2, "generic": {"r": 0, "s": 2, "seed": 1.5}}),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        code, _, err = run(["symbolic-power", "--config", str(path)], capsys)
        assert code == cli.EXIT_USAGE and "must be an integer" in err, name
    for dim in ("2.0", "true"):
        path = tmp_path / "dim.json"
        path.write_text(f'{{"dim": {dim}, "vertices": [[0, 0]]}}')
        code, _, err = run(["volume", "--poly", str(path)], capsys)
        assert code == cli.EXIT_USAGE and "dim must be an integer" in err
    # coordinates, coefficients, vertices and rays are numbers, not bools
    for name, component in (
        ("coords_bool", {"type": "point", "coords": [True, 0, 0]}),
        ("forms_bool", {"type": "flat", "forms": [[0, False, 1]]}),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"n": 2, "components": [
            component, {"type": "point", "coords": [0, 1, 0]},
        ]}))
        code, _, err = run(["symbolic-power", "--config", str(path)], capsys)
        assert code == cli.EXIT_USAGE and "expected a number" in err, name
    for name, poly in (
        ("vertex_bool", '{"dim": 2, "vertices": [[0, 0], [true, 0], [0, 1]]}'),
        ("ray_bool", '{"dim": 2, "vertices": [[0, 0]], "rays": [[1, false]]}'),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(poly)
        code, _, err = run(["volume", "--poly", str(path), "--t", "1"], capsys)
        assert code == cli.EXIT_USAGE and "expected a number" in err, name
    # gin draws need entries up to at least 10, checked while the flags are
    # read
    for argv in (
        ["gin", "--config", config_path],
        ["staircase", "--config", config_path],
        ["limiting-shape", "--config", config_path, "--t", "2"],
        ["report", "--config", config_path, "--t", "2"],
        ["verify", "two-lines"],
    ):
        code, _, err = run(argv + ["--entry-bound", "5"], capsys)
        assert code == cli.EXIT_USAGE, argv
        assert "--entry-bound: must be >= 10" in err and "wall time" not in err


def test_decimals_are_read_exactly(tmp_path, capsys):
    # a written decimal is the fraction it names, not its binary rounding
    path = tmp_path / "points.json"
    path.write_text('{"n": 2, "components": [{"type": "point", "coords": [0.1, 1, 1]},'
                    ' {"type": "point", "coords": [1, 0, 2.5e-1]}]}')
    config = config_from_json(path.read_text())
    assert config.points == ((Fraction(1, 10), 1, 1), (1, 0, Fraction(1, 4)))
    triangle = tmp_path / "triangle.json"
    triangle.write_text('{"dim": 2, "vertices": [[0, 0], [0.1, 0], [0, 1]]}')
    code, out, _ = run(["volume", "--poly", str(triangle)], capsys)
    assert code == cli.EXIT_OK and json.loads(out)["volume"] == "1/20"


def test_gin_command(config_path, capsys):
    code, out, _ = run(
        ["gin", "--config", config_path, "--m", "1", "--seed", "3"], capsys
    )
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    # two points in P^2: gin staircase is (x1, x2^2) dehomogenized
    assert payload["staircase"]["generators"] == [[0, 2], [1, 0]]
    assert payload["manifest"]["seed"] == 3
    assert payload["regularity_surrogate"] == 2


def test_symbolic_power_command(config_path, capsys):
    code, out, _ = run(
        ["symbolic-power", "--config", config_path, "--m", "2"], capsys
    )
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["nvars"] == 3
    assert payload["generators"]


@pytest.mark.parametrize("name", MOVE_ORACLE_CASES)
def test_symbolic_power_command_keeps_input_coordinates(name, tmp_path, capsys):
    # the command computes I^(m) in coordinate position and moves its basis
    # back; the oracle intersects in the input coordinates, and the reduced
    # basis both end in is unique
    config, m_max = MOVE_ORACLE_CASES[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(config)))
    moved, _ = coordinate_position(config)
    for m in range(1, m_max + 1):
        code, out, _ = run(
            ["symbolic-power", "--config", str(path), "--m", str(m)], capsys
        )
        assert code == cli.EXIT_OK
        given = [str(g) for g in symbolic_power(config, m).ideal.generators]
        assert json.loads(out)["generators"] == given, (name, m)
        # the basis in coordinate position prints otherwise
        assert given != [str(g) for g in symbolic_power(moved, m).ideal.generators]


def test_zero_denominator_in_a_config_exits_2(tmp_path, capsys):
    # "1/0" is no number: a usage error, not a traceback with exit 1
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n": 2, "components": [
        {"type": "point", "coords": ["1/0", 0, 1]},
        {"type": "point", "coords": [0, 1, 0]},
    ]}))
    code, _, err = run(["gin", "--config", str(path)], capsys)
    assert code == cli.EXIT_USAGE and "bad config" in err and "1/0" in err


def test_zero_denominator_in_a_polyhedron_exits_2(tmp_path, capsys):
    path = tmp_path / "poly.json"
    path.write_text('{"dim": 2, "vertices": [[0, 0], ["1/0", 0], [0, 1]]}')
    code, _, err = run(["volume", "--poly", str(path)], capsys)
    assert code == cli.EXIT_USAGE and "bad polyhedron file" in err and "1/0" in err


def test_symbolic_power_command_passes_the_target(monkeypatch, tmp_path, capsys):
    # the Buchberger run on the moved-back generators stops at the Hilbert
    # series of I^(m), which the move keeps
    runs = []
    real_buchberger = cli.buchberger

    def recording(gens, n, target=None):
        pairs = real_buchberger(gens, n, target=target)
        runs.append((target, k_polynomial(lead for lead, _ in pairs)))
        return pairs

    monkeypatch.setattr(cli, "buchberger", recording)
    config, _ = MOVE_ORACLE_CASES["two-lines"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(config)))
    code, _, _ = run(["symbolic-power", "--config", str(path), "--m", "2"], capsys)
    assert code == cli.EXIT_OK
    assert len(runs) == 1
    target, series = runs[0]
    assert target is not None and target == series


@pytest.mark.parametrize("component", [
    {"type": "point", "coords": [1, 2, -3, 5]},
    {"type": "flat", "forms": [[2, -1, 4, 7], [3, 5, -2, 1]]},
], ids=["point", "line"])
def test_symbolic_power_command_prints_a_reduced_basis(component, tmp_path, capsys):
    # one component's I^(m) is the m-th power of its ideal, which the
    # command prints as its reduced basis, like an intersection's
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n": 3, "components": [component]}))
    config = config_from_json(path.read_text())
    for m in (1, 2, 3):
        code, out, _ = run(
            ["symbolic-power", "--config", str(path), "--m", str(m)], capsys
        )
        assert code == cli.EXIT_OK
        reduced = groebner_basis(symbolic_power(config, m).ideal).basis
        assert json.loads(out)["generators"] == [str(g) for g in reduced], m


def test_staircase_command(config_path, capsys):
    code, out, _ = run(["staircase", "--config", config_path, "--m", "1"], capsys)
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["nvars"] == 2
    assert payload["generators"] == [[0, 2], [1, 0]]


def test_limiting_shape_outputs(config_path, tmp_path, capsys):
    outdir = tmp_path / "out"
    code, _, _ = run(
        [
            "limiting-shape", "--config", config_path, "--m-max", "2",
            "--t", "2", "--seed", "1", "--format", "csv",
            "--out", str(outdir),
        ],
        capsys,
    )
    assert code == cli.EXIT_OK
    shape = json.loads((outdir / "limiting_shape.json").read_text())
    assert shape["manifest"]["t"] == "2"
    assert shape["gamma"]["volume"] == "1"  # 2 points in P^2: t^2/2 - vol = 1
    csv_text = (outdir / "report.csv").read_text()
    assert csv_text.splitlines()[0] == (
        "m,count,count_over_mn,vol_staircase,vol_convex,target,gap"
    )


def test_report_command_json(config_path, capsys):
    code, out, _ = run(
        ["report", "--config", config_path, "--m-max", "2", "--t", "2"], capsys
    )
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["target_value"] == "1"
    assert [r["m"] for r in payload["rows"]] == [1, 2]


def test_volume_command(tmp_path, capsys):
    poly = tmp_path / "poly.json"
    poly.write_text(
        '{"dim": 2, "vertices": [["0", "0"], ["2", "0"], ["0", "2"]], "rays": []}'
    )
    code, out, _ = run(["volume", "--poly", str(poly)], capsys)
    assert code == cli.EXIT_OK
    assert json.loads(out)["volume"] == "2"
    # unbounded without --t is a usage error; with --t it clips
    cone = tmp_path / "cone.json"
    cone.write_text(
        '{"dim": 2, "vertices": [["0", "0"]], "rays": [["1", "0"], ["0", "1"]]}'
    )
    assert run(["volume", "--poly", str(cone)], capsys)[0] == cli.EXIT_USAGE
    code, out, _ = run(["volume", "--poly", str(cone), "--t", "3"], capsys)
    assert code == cli.EXIT_OK
    assert json.loads(out)["volume"] == "9/2"


@pytest.mark.parametrize(
    "vertices",
    [[["0", "0"], ["1", "1"]], [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"]]],
    ids=["segment", "triangle-in-3-space"],
)
def test_volume_of_lower_dimensional_polytope_is_zero(vertices, tmp_path, capsys):
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"dim": len(vertices[0]), "vertices": vertices}))
    for extra in ([], ["--t", "2"]):
        code, out, _ = run(["volume", "--poly", str(poly)] + extra, capsys)
        assert code == cli.EXIT_OK
        assert json.loads(out)["volume"] == "0"


def test_repeated_line_is_a_usage_error(tmp_path, capsys):
    # the same line twice, in two presentations, has no closed form of two
    # lines; the configuration is rejected, as coincident points are
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n": 3, "components": [
        {"type": "flat", "forms": [[1, 0, 0, 0], [0, 1, 0, 0]]},
        {"type": "flat", "forms": [[1, 1, 0, 0], [1, -1, 0, 0]]},
    ]}))
    code, _, err = run(
        ["report", "--config", str(path), "--m-max", "1", "--t", "2"], capsys
    )
    assert code == cli.EXIT_USAGE
    assert "coincide" in err


def test_outputs_are_deterministic(config_path, tmp_path, capsys):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        code, _, _ = run(
            [
                "report", "--config", config_path, "--m-max", "2", "--t", "2",
                "--seed", "5", "--out", str(d),
            ],
            capsys,
        )
        assert code == cli.EXIT_OK
    assert (dirs[0] / "report.json").read_bytes() == (
        dirs[1] / "report.json"
    ).read_bytes()


def test_verify_examples_pass(capsys):
    for example in ("intersecting-lines", "points-grid"):
        code, out, _ = run(["verify", example, "--seed", "3"], capsys)
        assert code == cli.EXIT_OK
        assert "[PASS]" in out and "[FAIL]" not in out
        assert "all checks passed" in out


def test_verify_unknown_example(capsys):
    code, _, err = run(["verify", "no-such-fixture"], capsys)
    assert code == cli.EXIT_USAGE
    assert "unknown example" in err


def test_genericity_maps_to_exit_3(config_path, capsys, monkeypatch):
    def boom(*a, **k):
        raise GenericityError("draws disagree")

    monkeypatch.setattr(asymptotics, "gin", boom)
    code, _, err = run(["gin", "--config", config_path], capsys)
    assert code == cli.EXIT_GENERICITY
    assert "genericity" in err


def test_resource_cap_maps_to_exit_4(config_path, capsys, monkeypatch):
    def boom(*a, **k):
        raise ComputationLimitError("pair cap exceeded")

    monkeypatch.setattr(asymptotics, "symbolic_power", boom)
    code, _, err = run(["gin", "--config", config_path], capsys)
    assert code == cli.EXIT_RESOURCE


@pytest.mark.parametrize(
    "error, code",
    [(GenericityError, cli.EXIT_GENERICITY), (ComputationLimitError, cli.EXIT_RESOURCE)],
)
def test_limiting_shape_exit_code_follows_row_failures(
    error, code, config_path, tmp_path, capsys, monkeypatch
):
    def boom(*a, **k):
        raise error("every m fails")

    monkeypatch.setattr(asymptotics, "gin", boom)
    argv = ["limiting-shape", "--config", config_path, "--m-max", "2", "--t", "2",
            "--out", str(tmp_path / "out")]
    got, _, err = run(argv, capsys)
    assert got == code
    assert error.__name__ in err


INTERSECTING_LINES = json.dumps({"n": 3, "components": [
    {"type": "flat", "forms": [[1, 0, 0, 0], [0, 1, 0, 0]]},
    {"type": "flat", "forms": [[1, 0, 0, 0], [0, 0, 1, 0]]},
]})


def test_non_borel_initial_ideal_maps_to_exit_3(tmp_path, capsys, monkeypatch):
    # the real gate, not a faked exception: without a change of coordinates
    # the initial ideal of I^(2) of two intersecting lines is not Borel-fixed
    identity = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    monkeypatch.setattr(groebner, "random_change_matrix",
                        lambda rng, n, bound: identity)
    path = tmp_path / "config.json"
    path.write_text(INTERSECTING_LINES)
    code, _, err = run(["gin", "--config", str(path), "--m", "2"], capsys)
    assert code == cli.EXIT_GENERICITY
    assert "Borel-fixed" in err
    code, out, _ = run(
        ["report", "--config", str(path), "--m-max", "2", "--t", "2"], capsys
    )
    assert code == cli.EXIT_OK
    rows = {r["m"]: r["error"] for r in json.loads(out)["rows"]}
    assert rows[2].startswith("GenericityError:")


def test_pair_cap_maps_to_exit_4(config_path, tmp_path, capsys, monkeypatch):
    # the real cap, not a faked exception: one S-pair is too few for any
    # symbolic power of two points
    monkeypatch.setattr(groebner, "PAIR_CAP", 1)
    assert run(["gin", "--config", config_path], capsys)[0] == cli.EXIT_RESOURCE
    code, out, _ = run(
        ["report", "--config", config_path, "--m-max", "2", "--t", "2"], capsys
    )
    assert code == cli.EXIT_OK
    errors = [r["error"] for r in json.loads(out)["rows"]]
    assert all(e.startswith("ComputationLimitError: S-pair cap 1") for e in errors)
    code, _, _ = run(
        ["limiting-shape", "--config", config_path, "--m-max", "2", "--t", "2",
         "--out", str(tmp_path / "out")],
        capsys,
    )
    assert code == cli.EXIT_RESOURCE


def test_ray_cap_maps_to_exit_4(config_path, tmp_path, capsys, monkeypatch):
    # the real cap, not a faked exception: the double description of every
    # Newton polyhedron and of a square's volume holds more than one ray
    monkeypatch.setattr(polyhedra, "RAY_CAP", 1)
    report = ["report", "--config", config_path, "--m-max", "2", "--t", "2"]
    rows = []
    for jobs in ("1", "2"):
        code, out, _ = run(report + ["--jobs", jobs], capsys)
        assert code == cli.EXIT_OK
        rows.append([r["error"] for r in json.loads(out)["rows"]])
    assert rows[0] == rows[1]
    assert all(e.startswith("ComputationLimitError: ray cap 1 ") for e in rows[0])
    code, _, _ = run(
        ["limiting-shape", "--config", config_path, "--m-max", "2", "--t", "2",
         "--out", str(tmp_path / "out")],
        capsys,
    )
    assert code == cli.EXIT_RESOURCE
    square = tmp_path / "square.json"
    square.write_text('{"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]}')
    code, _, err = run(["volume", "--poly", str(square)], capsys)
    assert code == cli.EXIT_RESOURCE
    assert "resource failure: ray cap 1 " in err


@pytest.mark.parametrize("module, cap, message", [
    (groebner, "BASIS_CAP", "basis cap 1 exhausted"),
    (rings, "EXPONENT_BITS", "exponent 2 does not fit in the 1-bit"),
], ids=["basis", "exponent"])
def test_engine_caps_map_to_exit_4(module, cap, message, config_path, tmp_path,
                                   capsys, monkeypatch):
    # the real caps, not a faked exception: every symbolic power of two
    # points needs a basis of more than one element, and a gin draw of it
    # exponents of 2 and more
    monkeypatch.setattr(module, cap, 1)
    code, _, err = run(["gin", "--config", config_path], capsys)
    assert code == cli.EXIT_RESOURCE
    assert f"resource failure: {message}" in err
    report = ["report", "--config", config_path, "--m-max", "2", "--t", "2"]
    rows = []
    for jobs in ("1", "2"):
        code, out, _ = run(report + ["--jobs", jobs], capsys)
        assert code == cli.EXIT_OK
        rows.append([r["error"] for r in json.loads(out)["rows"]])
    assert rows[0] == rows[1]
    assert all(e.startswith(f"ComputationLimitError: {message}") for e in rows[0])
    code, _, _ = run(
        ["limiting-shape", "--config", config_path, "--m-max", "2", "--t", "2",
         "--out", str(tmp_path / "out")],
        capsys,
    )
    assert code == cli.EXIT_RESOURCE


def test_unlucky_prime_maps_to_exit_3(config_path, capsys, monkeypatch):
    # the real checks, not a faked exception: 2 divides the determinant of
    # a draw of every seed below, which the F_2 draws refuse
    monkeypatch.setattr(groebner, "GIN_PRIMES", (2, 2))
    code, _, err = run(["gin", "--config", config_path], capsys)
    assert code == cli.EXIT_GENERICITY
    assert "prime 2 divides the determinant" in err
    report = ["report", "--config", config_path, "--m-max", "2", "--t", "2"]
    rows = []
    for jobs in ("1", "2"):
        code, out, _ = run(report + ["--jobs", jobs], capsys)
        assert code == cli.EXIT_OK
        rows.append([r["error"] for r in json.loads(out)["rows"]])
    assert rows[0] == rows[1]
    assert all(e.startswith("GenericityError: prime 2 ") for e in rows[0])


def test_limiting_shape_builds_one_hull_per_row(config_path, tmp_path, capsys,
                                                monkeypatch):
    calls = []
    for owner in (asymptotics, cli):
        def counted(st, inner=owner.newton_polyhedron):
            calls.append(st)
            return inner(st)

        monkeypatch.setattr(owner, "newton_polyhedron", counted)
    code, _, _ = run(
        ["limiting-shape", "--config", config_path, "--m-max", "3", "--t", "2",
         "--out", str(tmp_path / "out")],
        capsys,
    )
    assert code == cli.EXIT_OK
    assert len(calls) == 3
