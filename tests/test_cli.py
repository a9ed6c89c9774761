import argparse
import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from limshape import asymptotics, cli, configs, groebner, polyhedra, rings, staircase
from limshape.configs import (
    Config,
    config_from_json,
    config_to_dict,
    coordinate_position,
)
from limshape.groebner import ComputationLimitError, GenericityError
from limshape.staircase import k_polynomial
from oracles import groebner_basis, symbolic_ideal
from test_asymptotics import MOVE_ORACLE_CASES
from test_configs import ELIMINATION_ORACLE_CASES


README = Path(__file__).resolve().parent.parent / "README.md"
TWO_POINTS = '{"n": 2, "components": [{"type": "point", "coords": [1, 0, 0]}, {"type": "point", "coords": [0, 0, 1]}]}'
FOUR_POINTS = json.dumps({"n": 2, "components": [
    {"type": "point", "coords": coords}
    for coords in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 2, 3])
]})
THREE_LINES = '{"n": 3, "generic": {"r": 1, "s": 3, "seed": 3}}'


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
        # the seed alone fixes the gin draws; their bound is no flag
        ["gin", "--config", config_path, "--entry-bound", "100"],
        ["staircase", "--config", config_path, "--entry-bound", "100"],
        ["limiting-shape", "--config", config_path, "--t", "2",
         "--entry-bound", "100"],
        ["report", "--config", config_path, "--t", "2", "--entry-bound", "100"],
        ["verify", "two-lines", "--entry-bound", "100"],
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
    # a generic family beside components is refused, not run on the points
    path = tmp_path / "both.json"
    path.write_text(json.dumps({
        "n": 3, "generic": {"r": 1, "s": 2, "seed": 3},
        "components": [{"type": "point", "coords": [1, 2, 3, 4]}],
    }))
    code, _, err = run(["report", "--config", str(path), "--t", "2"], capsys)
    assert code == cli.EXIT_USAGE and "not both" in err
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


def test_readme_cli_table_lists_the_flags_each_parser_takes():
    # one row per subcommand, naming exactly the options of its parser
    # (help aside), so the table cannot drift from the flags
    subparsers, = (a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
    lines = README.read_text().split("## CLI", 1)[1].splitlines()
    start = lines.index("| command | purpose | flags |") + 2
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        command, _, flags = (cell.strip(" `") for cell in line.strip("|").split("|"))
        assert command not in table, command
        table[command] = sorted(flags.split())
    assert sorted(table) == sorted(subparsers.choices)
    for command, parser in subparsers.choices.items():
        options = [s for a in parser._actions if not isinstance(a, argparse._HelpAction)
                   for s in a.option_strings]
        assert table[command] == sorted(options), command


def test_json_arrays_are_not_read_from_strings(tmp_path, capsys):
    # a string where an array of numbers belongs is a usage error, not a
    # sequence of digits: "1234" is not the point (1, 2, 3, 4)
    for name, component in (
        ("coords", {"type": "point", "coords": "1234"}),
        ("forms", {"type": "flat", "forms": "1000"}),
        ("form", {"type": "flat", "forms": ["1000"]}),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"n": 3, "components": [component]}))
        for command in ("gin", "symbolic-power"):
            code, _, err = run([command, "--config", str(path)], capsys)
            assert code == cli.EXIT_USAGE, (name, command)
            assert f"{name} must be an array" in err, (name, command)
    for name, poly in (
        ("vertices", '{"dim": 1, "vertices": "01"}'),
        ("vertex", '{"dim": 2, "vertices": ["00", "10", "01"]}'),
        ("rays", '{"dim": 2, "vertices": [[0, 0]], "rays": "1"}'),
        ("ray", '{"dim": 2, "vertices": [[0, 0]], "rays": ["10", "01"]}'),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(poly)
        code, _, err = run(["volume", "--poly", str(path), "--t", "1"], capsys)
        assert code == cli.EXIT_USAGE and f"{name} must be an array" in err, name


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
        given = [str(g) for g in symbolic_ideal(config, m).generators]
        assert json.loads(out)["generators"] == given, (name, m)
        # the basis in coordinate position prints otherwise
        assert given != [str(g) for g in symbolic_ideal(moved, m).generators]


# sha256 of the `symbolic-power` and `gin` outputs for m = 1..m_max, each
# without its manifest: the Q path from the component forms to the printed
# bases and the F_p draws, pinned byte for byte.  The last two reach
# intersect_ideals: a line beside points, and a fourth line in P^3
GOLDEN_CASES = {
    **MOVE_ORACLE_CASES,
    "five-points-P3": (Config.generic(3, 0, 5, 3), 3),
    "line-and-three-points": (ELIMINATION_ORACLE_CASES["line-and-three-points"][0], 3),
    "four-lines-P3": (Config.generic(3, 1, 4, 3), 2),
}
GOLDEN_DIGESTS = {
    "two-lines": (
        "10c59960eb33118f2df9463bd075a3a4a6eb1755026a164ff5e5574c6019703c",
        "b9c5f42bac8679b17a3f04e989c42b9fa708e34bbc5185e470b4789bf2ce3fd2",
    ),
    "three-points": (
        "98ff7758b44204067e1283fa52bf0ac4c29ef8f80799a1ec9fe81a7b2e36478c",
        "f1ebc7ed40a26f41cc30c7ec5a4dcaeb2ef12dbf269a45ff2bdf29292966e336",
    ),
    "intersecting-lines": (
        "8767d31e4ddd0e275926a32a83853824d34fe8b0cce0d6809a166bb65c73ecbe",
        "c2a01c175bfbc5a6d716f66346dfcdffe84f49059ca874ac72d732137920915a",
    ),
    "point-plus-line": (
        "47d0289fca1d37ce8f70fa4d2311b701f7c32da26d80a7b021a70f58b0421308",
        "529689e2a27507e1c22fb71f02584f7bfccd321bcc6f9a8f0fa180d0ad40dc8f",
    ),
    "five-points-P2": (
        "40b5a647aca7012f1071139590ee7276042e6ff8f0b0f66969c3115f11987441",
        "a18b6837e9c0e35ed4b9e32b357efc6737da9dd72ceed7395c0bb7561fbfa2ae",
    ),
    "five-points-P3": (
        "ed5c83ade49fecb54c46a22858ea553e03301b7c11d8286ed0b631c941eb3bb9",
        "01dc5d977661e0b9d3f534ba220d45a20ac10b4f81d9df1fa9e83717312dc1aa",
    ),
    "three-lines-P3": (
        "3a2c95f9fc91d780fef1dc99199f71b285de61de889bce5eb0e9aeb75915ee20",
        "1192bce35a0b82b58d5b8919b7559bf7097b8f137e1cb5e6374ff05678f88bc3",
    ),
    "line-and-three-points": (
        "679208c385fcfb4d239313b5be0ba50a6644b687e32c27b277568a91f53df68d",
        "c99bc19e3ce225d68f49409745ede9bcf90e0c883299153e84e06998bb99f7fb",
    ),
    "four-lines-P3": (
        "cd431e9e9a85eb11283e25c788c5e134ada5f01ba7303b62ec04a0bba0e440f3",
        "fdd96d05ec31bb643b469067a0495826844d386821d268d3207d9e5eb1db460a",
    ),
}


@pytest.mark.parametrize("name", GOLDEN_CASES)
def test_symbolic_power_and_gin_outputs_match_golden_digests(name, tmp_path, capsys):
    config, m_max = GOLDEN_CASES[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(config)))
    digests = []
    for command in ("symbolic-power", "gin"):
        payloads = []
        for m in range(1, m_max + 1):
            code, out, _ = run([command, "--config", str(path), "--m", str(m)], capsys)
            assert code == cli.EXIT_OK
            payload = json.loads(out)
            del payload["manifest"]
            payloads.append(payload)
        text = json.dumps(payloads, sort_keys=True)
        digests.append(hashlib.sha256(text.encode()).hexdigest())
    assert tuple(digests) == GOLDEN_DIGESTS[name]


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
        reduced = groebner_basis(symbolic_ideal(config, m)).basis
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


def test_limiting_shape_builds_no_polynomial(monkeypatch, tmp_path, capsys):
    # from the component forms to gin every polynomial is a packed integer
    # term dict; Polynomial only prints symbolic-power's bases.  Five points
    # in P^3 are not a monomial ideal after the move, so every stage runs
    built = []
    init = rings.Polynomial.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(Config.generic(3, 0, 5, 3))))
    monkeypatch.setattr(rings.Polynomial, "__init__", counting)
    code, _, _ = run(
        ["limiting-shape", "--config", str(path), "--m-max", "2", "--t", "3",
         "--out", str(tmp_path / "out")],
        capsys,
    )
    monkeypatch.undo()
    assert code == cli.EXIT_OK
    assert built == []


def test_limiting_shape_writes_facets_of_delta_alone(config_path, tmp_path, capsys):
    # delta_approximant carries its facets, which every polyhedron has from
    # construction, and they read the same as those of a polyhedron built
    # afresh from its vertices; the excluded clip is written by its vertices
    # alone
    outdir = tmp_path / "out"
    code, _, _ = run(
        ["limiting-shape", "--config", config_path, "--m-max", "2", "--t", "2",
         "--out", str(outdir)],
        capsys,
    )
    assert code == cli.EXIT_OK
    shape = json.loads((outdir / "limiting_shape.json").read_text())
    delta = shape["delta_approximant"]
    assert delta["facets"]
    fresh = polyhedra.polyhedron_from_dict(delta)
    assert polyhedra.polyhedron_to_dict(fresh) == delta
    excluded = shape["gamma"]["region"]["excluded"]
    assert excluded["vertices"] and "facets" not in excluded


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
    # the real checks, not a faked exception, on I^(2) of two intersecting
    # lines, which lie in the hyperplane x4 = 0 in coordinate position: the
    # identity leaves x4 a zero divisor, so the section misses the series;
    # the permutation x2 -> x4, x3 -> x2, x4 -> x3 takes the ideal off x4,
    # and its initial ideal is not Borel-fixed
    identity = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    permutation = ((1, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0))
    path = tmp_path / "config.json"
    path.write_text(INTERSECTING_LINES)
    for matrix, reason in ((identity, "not saturated"), (permutation, "Borel-fixed")):
        monkeypatch.setattr(groebner, "random_change_matrix",
                            lambda rng, n: matrix)
        code, _, err = run(["gin", "--config", str(path), "--m", "2"], capsys)
        assert code == cli.EXIT_GENERICITY
        assert reason in err
        code, out, _ = run(
            ["report", "--config", str(path), "--m-max", "2", "--t", "2"], capsys
        )
        assert code == cli.EXIT_OK
        rows = {r["m"]: r["error"] for r in json.loads(out)["rows"]}
        assert rows[2].startswith("GenericityError:")
        assert reason in rows[2]


def test_pair_cap_maps_to_exit_4(tmp_path, capsys, monkeypatch):
    # the real cap, not a faked exception: the symbolic powers of four
    # points in P^2, the fourth on the frame, come from kernels and take no
    # S-pair, but each gin draw of them takes one at m = 1 and 2 (a draw of
    # two coordinate points takes none: its inputs are the rows of blocks)
    config_path = str(tmp_path / "config.json")
    Path(config_path).write_text(FOUR_POINTS)
    monkeypatch.setattr(groebner, "PAIR_CAP", 0)
    assert run(["gin", "--config", config_path], capsys)[0] == cli.EXIT_RESOURCE
    code, out, _ = run(
        ["report", "--config", config_path, "--m-max", "2", "--t", "2"], capsys
    )
    assert code == cli.EXIT_OK
    errors = [r["error"] for r in json.loads(out)["rows"]]
    assert all(e.startswith("ComputationLimitError: S-pair cap 0") for e in errors)
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


@pytest.mark.parametrize("module, cap, value, message, config", [
    (groebner, "BASIS_CAP", 1, "basis cap 1 exhausted", TWO_POINTS),
    (rings, "EXPONENT_BITS", 1, "exponent 2 does not fit in the 1-bit", TWO_POINTS),
    (staircase, "K_NODE_CAP", 0, "K-polynomial node cap 0 exhausted", TWO_POINTS),
    (rings, "IMAGE_CAP", 1, "image table cap 1 exhausted", TWO_POINTS),
    (configs, "CONDITION_CAP", 0, "condition matrix cap 0 exhausted", FOUR_POINTS),
    (configs, "CONDITION_CAP", 0, "condition matrix cap 0 exhausted", THREE_LINES),
    (groebner, "BLOCK_CAP", 0, "block cap 0 exhausted", TWO_POINTS),
], ids=["basis", "exponent", "k-polynomial", "image-table", "condition-matrix",
        "condition-blocks", "f4-block"])
def test_engine_caps_map_to_exit_4(module, cap, value, message, config,
                                   tmp_path, capsys, monkeypatch):
    # the real caps, not a faked exception: every gin draw of a symbolic
    # power of two points needs a basis of more than one element, exponents
    # of 2 and more, an image beyond the substitution table's first entry,
    # that of 1, and one F4 block; every K-polynomial call visits at least
    # its first node; the fourth of four points in P^2, on the frame, has
    # conditions on the monomials of every symbolic power; and so does the
    # third of three lines in P^3, in normal form, whose conditions split
    # in blocks
    config_path = str(tmp_path / "config.json")
    Path(config_path).write_text(config)
    monkeypatch.setattr(module, cap, value)
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
