import json

import pytest

from limshape import asymptotics, cli, groebner
from limshape.groebner import ComputationLimitError, GenericityError


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


def test_usage_errors(capsys, tmp_path):
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
    ):
        assert run(argv, capsys)[0] == cli.EXIT_USAGE


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

    monkeypatch.setattr(cli, "gin", boom)
    code, _, err = run(["gin", "--config", config_path], capsys)
    assert code == cli.EXIT_GENERICITY
    assert "genericity" in err


def test_resource_cap_maps_to_exit_4(config_path, capsys, monkeypatch):
    def boom(*a, **k):
        raise ComputationLimitError("pair cap exceeded")

    monkeypatch.setattr(cli, "symbolic_power", boom)
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
