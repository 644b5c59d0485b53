"""End-to-end checks of the command-line harness.

Everything runs in-process through ``main(argv)`` so the exit code is the
return value and output files land under pytest temp directories.  The
contract under test:

    exit 0  ok
    exit 1  bad configuration (argparse errors included)
    exit 2  a checked invariant failed (geometry residuals, telescoped
            bounds, sweep over budget, critical point on a lift path)
    exit 3  a stage build or lift gave up; partial results are still written
    exit 4  a composition certificate was refused

plus determinism: rerunning with identical arguments must reproduce the
.json and .csv payloads byte for byte, with timestamps confined to the
.meta.json sidecar.
"""

import json
import math
import os

import numpy as np
import pytest

from abeluniv import cli
from abeluniv.cli import main


MEMBERSHIP_ARGS = ["build", "membership", "--targets", "[[[0.2,0]]]",
                   "--arcs", "[[0.3,0.32]]", "--stages", "2",
                   "--density", "128", "--max-degree", "128"]


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Build the saved-series files the probe tests consume."""
    root = tmp_path_factory.mktemp("cliart")
    member = str(root / "member")
    assert main(MEMBERSHIP_ARGS + ["--out", member]) == 0

    zero = str(root / "zero")
    assert main(["build", "membership", "--targets", "[[[0,0]]]",
                 "--arcs", "[[0.3,0.32]]", "--stages", "1",
                 "--density", "64", "--out", zero]) == 0

    counter = str(root / "counter")
    assert main(["build", "counterexample", "--a", "0.5",
                 "--zeta1", "0", "--zeta2", "1.5708", "--stages", "1",
                 "--targets", "[[[0.3,0]]]", "--arcs", "[[3.1316,3.1516]]",
                 "--out", counter]) == 0

    # same payload with one coefficient bumped: the partial sums no longer
    # telescope, so --check must flag it
    payload = json.load(open(member + ".json"))
    payload["stages"][0]["coeffs"][0] = [5.0, 0.0]
    corrupt = str(root / "corrupt.json")
    json.dump(payload, open(corrupt, "w"))

    return {"member": member, "zero": zero, "counter": counter,
            "corrupt": corrupt, "root": root}


# geometry


def test_geometry_passes(tmp_path, capsys):
    out = str(tmp_path / "geo")
    assert main(["geometry", "--a", "0.5", "--samples", "500",
                 "--out", out]) == 0
    text = capsys.readouterr().out
    assert "pass" in text
    payload = json.load(open(out + ".json"))
    assert payload["pass"] is True
    residuals = payload["residuals"]
    assert sorted(residuals) == ["image_circle", "involution",
                                 "modulus_identity",
                                 "threshold_monotonicity"]
    for value in residuals.values():
        assert value <= 1e-11
    assert os.path.exists(out + ".meta.json")


def test_geometry_rotation_case():
    assert main(["geometry", "--a", "0", "--samples", "200"]) == 0


def test_geometry_rejects_boundary_parameter(capsys):
    assert main(["geometry", "--a", "1.5", "--samples", "10"]) == 1
    assert "config error" in capsys.readouterr().err


def test_geometry_rerun_is_byte_identical(tmp_path):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    assert main(["geometry", "--a", "0.3,0.2", "--samples", "400",
                 "--out", a]) == 0
    assert main(["geometry", "--a", "0.3,0.2", "--samples", "400",
                 "--out", b]) == 0
    assert open(a + ".json", "rb").read() == open(b + ".json", "rb").read()


# build


def test_build_zero_stages_is_empty_series(tmp_path):
    out = str(tmp_path / "empty")
    assert main(["build", "membership", "--stages", "0", "--out", out]) == 0
    payload = json.load(open(out + ".json"))
    assert payload["stages"] == []
    assert payload["kind"] == "membership"
    assert "config" in payload


def test_build_embeds_resolved_config(artifacts):
    payload = json.load(open(artifacts["member"] + ".json"))
    config = payload["config"]
    # defaults must be materialized, not left implicit
    assert config["density"] == 128
    assert config["max_degree"] == 128
    assert config["tol_factor"] == 0.5
    assert config["seed"] == 0
    assert config["rho"][:2] == [0.5, 0.75]
    assert config["eps"][0] == 0.25


def test_build_stage_table(artifacts):
    lines = open(artifacts["member"] + ".csv").read().splitlines()
    assert lines[0].startswith("# config {")
    assert lines[1] == "n,case,degree,sup_error,eps_n"
    rows = [line.split(",") for line in lines[2:]]
    assert [row[0] for row in rows] == ["1", "2"]
    for row in rows:
        assert float(row[3]) <= 0.5 * float(row[4])
    assert int(rows[0][2]) == 3


def test_build_custom_schedules_echoed(tmp_path):
    out = str(tmp_path / "sched")
    assert main(["build", "membership", "--targets", "[[[0.1,0]]]",
                 "--arcs", "[[0.3,0.32]]", "--stages", "1",
                 "--rho", "0.5,0.75", "--eps", "0.25,0.125",
                 "--density", "64", "--out", out]) == 0
    config = json.load(open(out + ".json"))["config"]
    assert config["rho"] == [0.5, 0.75]
    assert config["eps"] == [0.25, 0.125]


def test_build_rerun_is_byte_identical(tmp_path, artifacts):
    again = str(tmp_path / "again")
    assert main(MEMBERSHIP_ARGS + ["--out", again]) == 0
    for ext in (".json", ".csv"):
        first = open(artifacts["member"] + ext, "rb").read()
        second = open(again + ext, "rb").read()
        assert first == second
    meta = json.load(open(again + ".meta.json"))
    assert meta  # timestamps live here, not in the payload


def test_meta_records_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    out = str(tmp_path / "env")
    assert main(["geometry", "--a", "0.5", "--samples", "10", "--out", out]) == 0
    meta = json.load(open(out + ".meta.json"))
    assert meta["numpy"] == np.__version__
    assert meta["cpu_count"] == os.cpu_count()
    assert meta["OPENBLAS_NUM_THREADS"] == "1"
    assert meta["OMP_NUM_THREADS"] is None
    for key in ("blas_name", "blas_version"):
        assert meta[key] is None or isinstance(meta[key], str)
    # the environment stays out of the payload
    assert "numpy" not in open(out + ".json").read()


def test_build_failure_keeps_partial_results(tmp_path, capsys):
    out = str(tmp_path / "partial")
    code = main(["build", "membership", "--targets", "[[[0.2,0]],[[0,-0.3]]]",
                 "--arcs", "[[0.3,0.32],[3.6,3.62]]", "--stages", "4",
                 "--density", "128", "--max-degree", "64", "--out", out])
    assert code == 3
    assert "FAILED at stage 3" in capsys.readouterr().out
    payload = json.load(open(out + ".json"))
    assert payload["failure"]["n"] == 3
    assert len(payload["stages"]) == 2
    rows = [line for line in open(out + ".csv") if line[:1].isdigit()]
    assert len(rows) == 2


def test_build_counterexample_reports_budget(artifacts, capsys):
    payload = json.load(open(artifacts["counter"] + ".json"))
    assert "witness" in payload
    sweep = payload["sweep"]
    assert sweep["value"] <= sweep["budget"]
    assert sweep["budget"] == pytest.approx(0.18548188997620174, rel=1e-9)
    assert sweep["value"] == pytest.approx(0.005125039269825825, rel=1e-6)


@pytest.mark.parametrize("targets,arcs,message", [
    ("[[bogus", "[[0.3,0.32]]", "targets spec '[[bogus' is neither a file nor JSON"),
    ("[[[1,0]]]", "[[0.3,", "arcs spec '[[0.3,' is neither a file nor JSON"),
    ("[[[1,0]]]", "[[0.3]]", "arcs must be a list of [alpha, beta] pairs"),
    ("[[1,0]]", "[[0.3,0.32]]", "targets must be a list of [re,im] coefficient lists"),
], ids=["targets-json", "arcs-json", "arc-shape", "target-shape"])
def test_build_rejects_bad_targets_json(targets, arcs, message, capsys):
    assert main(["build", "membership", "--targets", targets,
                 "--arcs", arcs, "--stages", "1"]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_build_rejects_a_targets_file_that_is_not_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[[bogus")
    assert main(["build", "membership", "--targets", str(bad), "--stages", "1"]) == 1
    assert capsys.readouterr().err == f"config error: file {bad} does not hold JSON\n"


def test_build_rejects_non_finite_tolerances(tmp_path, capsys):
    # NaN passes no comparison, so only a finiteness check stops it before the ladder
    out = str(tmp_path / "nan")
    assert main(["build", "membership", "--stages", "4", "--eps", ",".join(["nan"] * 6),
                 "--out", out]) == 1
    assert "tolerances must be positive and finite" in capsys.readouterr().err
    assert not os.path.exists(out + ".json")


def test_build_counterexample_rejects_a_non_finite_direction(tmp_path, capsys):
    assert main(["build", "counterexample", "--zeta1", "nan", "--stages", "1",
                 "--out", str(tmp_path / "nan")]) == 1
    assert capsys.readouterr().err == "config error: zeta1 must lie on the unit circle\n"


@pytest.mark.parametrize("argv", [
    ["build", "membership", "--stages", "1", "--targets", "{dir}"],
    ["probe", "--scan", "--series", "{dir}"]], ids=["targets", "series"])
def test_a_directory_given_as_an_input_file_is_a_config_error(tmp_path, capsys, argv):
    argv = [x.format(dir=tmp_path) for x in argv]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"config error: cannot read {tmp_path}: ")


@pytest.mark.parametrize("argv", [
    ["geometry", "--samples", "10"], ["build", "membership", "--stages", "1"],
    ["probe", "--scan", "--series", "missing.json"],
    ["lift", "--g", "square", "--path", "1,0:4,0", "--start", "1,0"]],
    ids=["geometry", "build", "probe", "lift"])
def test_a_missing_out_directory_fails_before_the_work(tmp_path, capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("ran before checking --out")
    monkeypatch.setattr(cli.geometry, "modulus_identity_residual", no_work)
    monkeypatch.setattr(cli.builder, "build_membership_series", no_work)
    monkeypatch.setattr(cli, "_load_json", no_work)
    monkeypatch.setattr(cli.probe, "lift_path", no_work)
    missing = tmp_path / "missing"
    assert main(argv + ["--out", str(missing / "x")]) == 1
    assert capsys.readouterr().err == f"config error: --out directory {missing} does not exist\n"


def test_build_rejects_a_negative_degree_cap(tmp_path, capsys):
    # reported by the search that reads the cap, not by the fit inside it
    out = str(tmp_path / "neg")
    assert main(MEMBERSHIP_ARGS[:-1] + ["-1", "--out", out]) == 1
    assert capsys.readouterr().err == "config error: max_degree must be >= 0\n"


def test_build_counterexample_rejects_a_center(tmp_path, capsys):
    out = str(tmp_path / "counter")
    assert main(["build", "counterexample", "--stages", "1", "--w", "0.3,0",
                 "--out", out]) == 1
    assert capsys.readouterr().err == "config error: --w applies only to membership builds\n"
    assert not os.path.exists(out + ".json")


# probe


def test_probe_scan_and_check_pass(tmp_path, artifacts, capsys):
    out = str(tmp_path / "probe")
    assert main(["probe", "--series", artifacts["member"] + ".json",
                 "--scan", "--check", "--out", out]) == 0
    text = capsys.readouterr().out
    assert "telescoping violations: 0" in text
    lines = open(out + ".csv").read().splitlines()
    assert lines[0].startswith("# config {")


def test_probe_flags_broken_telescoping(tmp_path, artifacts, capsys):
    out = str(tmp_path / "bad")
    code = main(["probe", "--series", artifacts["corrupt"],
                 "--check", "--out", out])
    assert code == 2
    assert "telescoping violations" in capsys.readouterr().out


def test_probe_sweep_stays_under_budget(tmp_path, artifacts, capsys):
    out = str(tmp_path / "sweep")
    assert main(["probe", "--series", artifacts["counter"] + ".json",
                 "--sweep", "--out", out]) == 0
    payload = json.load(open(out + ".json"))
    sweep = payload["sweep"]
    assert sweep["value"] <= sweep["budget"]


def test_probe_sweep_needs_counterexample(artifacts, capsys):
    assert main(["probe", "--series", artifacts["member"] + ".json",
                 "--sweep"]) == 1
    assert "counterexample" in capsys.readouterr().err


def test_probe_missing_series_file(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert main(["probe", "--series", missing, "--scan"]) == 1
    assert "not found" in capsys.readouterr().err


def test_probe_rejects_a_series_file_that_is_not_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[[bogus")
    assert main(["probe", "--series", str(bad), "--scan"]) == 1
    assert capsys.readouterr().err == f"config error: file {bad} does not hold JSON\n"


def _old_density_keys(artifacts):
    payload = json.load(open(artifacts["member"] + ".json"))
    payload["densities"] = dict.fromkeys(("arc", "disc", "curve"), payload.pop("density"))
    return payload


@pytest.mark.parametrize("content", [{}, [1, 2], _old_density_keys],
                         ids=["empty-object", "list", "old-densities-key"])
def test_probe_rejects_a_json_file_that_is_not_a_series(tmp_path, artifacts, capsys,
                                                         content):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(content(artifacts) if callable(content) else content))
    assert main(["probe", "--series", str(bad), "--scan"]) == 1
    assert capsys.readouterr().err.startswith(
        f"config error: file {bad} does not hold a series: ")


def test_probe_requires_an_action(artifacts, capsys):
    assert main(["probe", "--series", artifacts["member"] + ".json"]) == 1
    assert "nothing to do" in capsys.readouterr().err


@pytest.mark.parametrize("reciprocal", [[], ["--reciprocal"]], ids=["plain", "reciprocal"])
@pytest.mark.parametrize("density", [-3, 0, 1])
def test_probe_scan_rejects_a_density_below_two(tmp_path, artifacts, capsys, density,
                                                reciprocal):
    # one check before anything is sampled, with the build's message: not a
    # numpy traceback at -3, nor the sampler's or the certificate's at 0 and 1
    out = str(tmp_path / "scan")
    assert main(["probe", "--series", artifacts["member"] + ".json", "--scan",
                 f"--density={density}", *reciprocal, "--out", out]) == 1
    assert capsys.readouterr().err == "config error: density must be >= 2\n"
    assert not os.path.exists(out + ".json")


def test_probe_refuses_reciprocal_of_vanishing_series(tmp_path, artifacts,
                                                      capsys):
    out = str(tmp_path / "recip")
    code = main(["probe", "--series", artifacts["zero"] + ".json",
                 "--reciprocal", "--scan", "--out", out])
    assert code == 4
    assert "certificate failure" in capsys.readouterr().err


def test_probe_rerun_is_byte_identical(tmp_path, artifacts):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    for out in (a, b):
        assert main(["probe", "--series", artifacts["member"] + ".json",
                     "--scan", "--out", out]) == 0
    assert open(a + ".csv", "rb").read() == open(b + ".csv", "rb").read()
    assert open(a + ".json", "rb").read() == open(b + ".json", "rb").read()


# lift


def test_lift_square_root_branch(tmp_path, capsys):
    out = str(tmp_path / "sq")
    assert main(["lift", "--g", "square", "--path", "1,0:4,0",
                 "--start", "1,0", "--out", out]) == 0
    assert "status complete" in capsys.readouterr().out
    payload = json.load(open(out + ".json"))
    end = complex(*payload["endpoint"])
    assert abs(end - 2.0) < 1e-9
    assert payload["status"]["kind"] == "complete"
    lines = open(out + ".csv").read().splitlines()
    assert lines[1] == "j,t,h_re,h_im,target_re,target_im"
    assert all("np." not in line for line in lines)


def test_lift_log_branch(tmp_path):
    out = str(tmp_path / "log")
    assert main(["lift", "--g", "exp", "--path", "1,0:2.71828,0",
                 "--start", "0,0", "--out", out]) == 0
    end = complex(*json.load(open(out + ".json"))["endpoint"])
    assert abs(end - 1.0) < 1e-4


def test_lift_polynomial_outer_map(tmp_path):
    out = str(tmp_path / "poly")
    assert main(["lift", "--g", "poly:[[0,0],[0,0],[1,0]]",
                 "--path", "1,0:4,0", "--start", "1,0", "--out", out]) == 0
    end = complex(*json.load(open(out + ".json"))["endpoint"])
    assert abs(end - 2.0) < 1e-9


def test_lift_critical_point_exits_2(tmp_path, capsys):
    out = str(tmp_path / "crit")
    code = main(["lift", "--g", "square", "--path", "1,0:-1,0",
                 "--start", "1,0", "--out", out])
    assert code == 2
    payload = json.load(open(out + ".json"))
    assert payload["status"]["kind"] == "critical-point"
    # the branch stalls on the way into the bad value, not at the start
    assert abs(complex(*payload["endpoint"])) < 0.1


def test_lift_divergence_exits_3_with_partial(tmp_path):
    out = str(tmp_path / "div")
    code = main(["lift", "--g", "square",
                 "--path", "1000001000000.25,0:1100001100000,0",
                 "--start", "1000000.5,0", "--tol", "1.0", "--out", out])
    assert code == 3
    payload = json.load(open(out + ".json"))
    assert payload["status"]["kind"] == "diverged"
    assert os.path.exists(out + ".csv")


def test_lift_rejects_unknown_outer_map(capsys):
    assert main(["lift", "--g", "cube", "--path", "1,0:4,0",
                 "--start", "1,0"]) == 1
    assert "unknown outer map" in capsys.readouterr().err


def test_lift_rejects_malformed_path():
    assert main(["lift", "--g", "square", "--path", "1,0:zz",
                 "--start", "1,0"]) == 1


@pytest.mark.parametrize("path,start", [("1,0:4,0", "nan,0"), ("1,0:nan,0", "1,0"),
                                        ("1,0:inf,0", "1,0")])
def test_lift_rejects_non_finite_input(tmp_path, capsys, path, start):
    out = str(tmp_path / "bad")
    assert main(["lift", "--g", "square", "--path", path, "--start", start,
                 "--out", out]) == 1
    assert "must be finite" in capsys.readouterr().err
    assert not os.path.exists(out + ".json")


def test_lift_liftable_target_on_arc(tmp_path, capsys):
    out = str(tmp_path / "arc")
    assert main(["lift", "--liftable", "--g", "exp",
                 "--arc", "0,1.5708", "--eps", "0.01",
                 "--target", "2,0", "--out", out]) == 0
    text = capsys.readouterr().out
    assert "defect" in text
    payload = json.load(open(out + ".json"))
    assert payload["defect"] <= 0.01
    # exp of a constant branch reproduces log 2 everywhere on the arc
    assert payload["defect"] < 1e-9
    values = payload["samples"]
    assert abs(complex(values[0][1], values[0][2]) - math.log(2)) < 1e-9


@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_lift_liftable_rejects_non_finite_eps(tmp_path, capsys, eps):
    out = str(tmp_path / "bad")
    assert main(["lift", "--liftable", "--g", "exp", "--arc", "0,1.5708",
                 "--eps", eps, "--target", "2,0", "--out", out]) == 1
    assert "eps must be finite" in capsys.readouterr().err
    assert not os.path.exists(out + ".json")


@pytest.mark.parametrize("arc", ["0", "0,1,2"])
def test_lift_liftable_wants_exactly_two_arc_ends(tmp_path, capsys, arc):
    out = str(tmp_path / "bad")
    assert main(["lift", "--liftable", "--g", "exp", "--arc", arc,
                 "--eps", "0.01", "--out", out]) == 1
    assert capsys.readouterr().err == "config error: --arc wants 'alpha,beta'\n"
    assert not os.path.exists(out + ".json")


def test_lift_rerun_is_byte_identical(tmp_path):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    for out in (a, b):
        assert main(["lift", "--g", "square", "--path", "1,0:4,0",
                     "--start", "1,0", "--out", out]) == 0
    assert open(a + ".csv", "rb").read() == open(b + ".csv", "rb").read()


def test_unknown_subcommand_is_config_error():
    assert main(["frobnicate"]) == 1
