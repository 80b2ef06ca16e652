"""Tests for the experiment runner: config resolution, outputs, exit codes."""

import csv
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import mfaclab

from mfaclab.cli import (
    DEFAULT_OUT,
    LAMBDA_GRID,
    OUT_ENV,
    build_parser,
    main,
    resolve_config,
)
from mfaclab.errors import ConfigError


def resolve(argv):
    args = build_parser().parse_args(argv)
    return resolve_config(args.verb, args)


def read_csv(path):
    with path.open(newline="") as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# schema: ")
    rows = list(csv.reader(lines[1:]))
    return rows[0], rows[1:]


def read_summary(path):
    header, data = read_csv(path)
    return [dict(zip(header, row)) for row in data]


def write_config(tmp_path, body):
    path = tmp_path / "run.ini"
    path.write_text("[experiment]\n" + body)
    return str(path)


# ----------------------------------------------------------- configuration


def test_defaults(monkeypatch):
    monkeypatch.delenv(OUT_ENV, raising=False)
    cfg = resolve(["example1"])
    assert cfg.experiment == "example1"
    assert cfg.variant == "all"
    assert cfg.lam == 0.2
    assert cfg.steps == 800
    assert str(cfg.out) == DEFAULT_OUT
    cfg = resolve(["sweep"])
    assert cfg.variant == "scalar"
    assert cfg.lam is None  # full grid
    assert cfg.steps == 5000


def test_flag_overrides_config_file(tmp_path):
    conf = write_config(tmp_path, "steps = 100\nlambda = 0.5\nout = from-file\n")
    cfg = resolve(["example1", "--config", conf, "--steps", "50", "--out", "from-flag"])
    assert cfg.steps == 50  # flag wins
    assert cfg.lam == 0.5  # file survives when no flag is given
    assert str(cfg.out) == "from-flag"


def test_env_var_supplies_output_root(tmp_path, monkeypatch):
    monkeypatch.setenv(OUT_ENV, str(tmp_path / "env-out"))
    cfg = resolve(["example1"])
    assert cfg.out == tmp_path / "env-out"
    # an explicit flag still beats the environment
    cfg = resolve(["example1", "--out", "explicit"])
    assert str(cfg.out) == "explicit"


def test_unknown_config_keys_rejected(tmp_path):
    conf = write_config(tmp_path, "bogus = 1\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        resolve(["example1", "--config", conf])
    path = tmp_path / "sect.ini"
    path.write_text("[other]\nsteps = 5\n")
    with pytest.raises(ConfigError, match="unknown config section"):
        resolve(["example1", "--config", str(path)])
    path = tmp_path / "top.ini"
    path.write_text("[DEFAULT]\nsteps = 5\n[experiment]\n")
    with pytest.raises(ConfigError, match="outside"):
        resolve(["example1", "--config", str(path)])
    path = tmp_path / "nosection.ini"
    path.write_text("steps = 5\n")
    with pytest.raises(ConfigError, match="malformed"):
        resolve(["example1", "--config", str(path)])


def test_config_id_must_match_subcommand(tmp_path):
    conf = write_config(tmp_path, "id = example2\n")
    with pytest.raises(ConfigError, match="does not match"):
        resolve(["example1", "--config", conf])


def test_config_validation_errors(tmp_path):
    with pytest.raises(ConfigError):
        resolve(["example1", "--lambda", "-0.1"])
    with pytest.raises(ConfigError):
        resolve(["example1", "--steps", "2"])
    with pytest.raises(ConfigError):  # example2 takes no horizon
        resolve(["example2", "--steps", "100"])
    with pytest.raises(ConfigError):
        resolve(["example2", "--config", write_config(tmp_path, "tf = 0.1\nt0 = 0.5\n")])
    with pytest.raises(ConfigError):
        resolve(
            ["example2", "--config",
             write_config(tmp_path, "start_fraction = 0.5\ngoal_fraction = 0.3\n")]
        )
    with pytest.raises(ConfigError):
        resolve(["sweep", "--config", write_config(tmp_path, "variant = bogus\n")])
    with pytest.raises(ConfigError):
        resolve(["example1", "--config", write_config(tmp_path, "steps = many\n")])


def test_main_maps_config_errors_to_exit_3(tmp_path, capsys):
    assert main(["example1", "--config", str(tmp_path / "missing.ini")]) == 3
    assert main(["sweep", "--lambda", "-1"]) == 3
    assert main(["bogus-verb"]) == 3
    assert main([]) == 3
    err = capsys.readouterr().err
    assert "config error" in err


# -------------------------------------------------------------- example1


def test_example1_writes_full_file_set(tmp_path):
    out = tmp_path / "run"
    assert main(["example1", "--steps", "60", "--out", str(out)]) == 0
    for variant in ("first_order", "quartic", "constrained"):
        header, data = read_csv(out / f"example1_{variant}.csv")
        assert header[:5] == ["k", "y1", "y2", "yref1", "yref2"]
        assert len(data) == 60
        assert [int(r[0]) for r in data[:3]] == [1, 2, 3]
    summary = read_summary(out / "example1_summary.csv")
    assert [row["variant"] for row in summary] == ["first_order", "quartic", "constrained"]
    assert all(row["diverged_at"] == "0" for row in summary)
    assert all(float(row["rmse1"]) < 1.0 for row in summary)
    for name in ("example1_outputs.svg", "example1_inputs.svg", "example1_pjm.svg"):
        assert (out / name).is_file()


def test_example1_divergence_exit_code(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["example1", "--lambda", "0", "--steps", "200", "--out", str(out)]) == 2
    assert "diverged at step 172" in capsys.readouterr().err
    summary = {row["variant"]: row for row in read_summary(out / "example1_summary.csv")}
    assert summary["first_order"]["diverged_at"] == "172"
    assert summary["first_order"]["rmse1"] == "nan"
    # the partial log is still written up to the failing step
    _, data = read_csv(out / "example1_first_order.csv")
    assert len(data) == 171


# -------------------------------------------------------------- example2


def test_example2_subpath_run(tmp_path):
    out = tmp_path / "run"
    conf = write_config(
        tmp_path,
        "id = example2\ntf = 0.4\nt0 = 0.02\nstart_fraction = 0.05\ngoal_fraction = 0.25\n",
    )
    assert main(["example2", "--config", conf, "--out", str(out)]) == 0
    header, data = read_csv(out / "example2_tracking.csv")
    assert len(data) == 21  # ceil(tf / t0) + 1 samples
    assert header[0] == "t"
    assert "J[0,0]" in header and "J[5,5]" in header
    summary = read_summary(out / "example2_summary.csv")[0]
    assert summary["samples"] == "21"
    assert summary["all_converged"] == "1"
    converged = header.index("converged")
    assert int(summary["cap_hits"]) == sum(row[converged] == "0" for row in data) == 0
    assert int(summary["max_iterations"]) <= 30
    assert float(summary["max_condition"]) < 5000  # interior of the traverse
    assert float(summary["max_pos_err"]) < 1e-3
    for name in ("example2_pose.svg", "example2_errors.svg", "example2_joints.svg",
                 "example2_condition.svg", "example2_solver.svg"):
        assert (out / name).is_file()


def test_example2_summary_counts_cap_hits(tmp_path):
    # a sub-path across the first singular frame, where some samples hit the cap
    out = tmp_path / "run"
    conf = write_config(
        tmp_path,
        "id = example2\ntf = 0.4\nt0 = 0.02\nstart_fraction = 0.45\ngoal_fraction = 0.55\n",
    )
    assert main(["example2", "--config", conf, "--out", str(out)]) == 0
    header, data = read_csv(out / "example2_tracking.csv")
    capped = sum(row[header.index("converged")] == "0" for row in data)
    summary = read_summary(out / "example2_summary.csv")[0]
    assert int(summary["cap_hits"]) == capped > 0
    assert summary["all_converged"] == "0"
    assert list(summary)[-1] == "cap_hits"


# --------------------------------------------------------- sweep/stability


def test_sweep_scalar_loop(tmp_path):
    out = tmp_path / "run"
    assert main(["sweep", "--steps", "600", "--out", str(out)]) == 0
    header, data = read_csv(out / "sweep_scalar.csv")
    assert header == ["lambda", "stable", "max_root", "ess_sim1", "ess_analytic1"]
    assert len(data) == len(LAMBDA_GRID) == 20
    rows = [dict(zip(header, r)) for r in data]
    assert all(r["stable"] == "1" for r in rows)
    assert float(rows[0]["lambda"]) == 0.0
    assert abs(float(rows[0]["ess_sim1"])) < 1e-6
    assert float(rows[0]["ess_analytic1"]) == 0.0
    analytic = [float(r["ess_analytic1"]) for r in rows]
    assert all(b > a for a, b in zip(analytic, analytic[1:]))  # grows with lambda
    for r in rows:
        sim, ana = float(r["ess_sim1"]), float(r["ess_analytic1"])
        assert sim == pytest.approx(ana, rel=0.01, abs=1e-6)
    assert (out / "sweep_scalar.svg").is_file()


def test_sweep_single_point_unstable_loop(tmp_path):
    out = tmp_path / "run"
    conf = write_config(tmp_path, "variant = unstable-scalar\nlambda = 2.0\nsteps = 200\n")
    assert main(["sweep", "--config", conf, "--out", str(out)]) == 0
    rows = read_summary(out / "sweep_unstable-scalar.csv")
    assert len(rows) == 1
    assert rows[0]["stable"] == "0"
    assert float(rows[0]["max_root"]) > 1.0
    assert math.isnan(float(rows[0]["ess_sim1"]))  # simulation diverged
    assert math.isnan(float(rows[0]["ess_analytic1"]))


def test_stability_grid(tmp_path):
    out = tmp_path / "run"
    assert main(["stability", "--out", str(out)]) == 0
    rows = read_summary(out / "stability_scalar.csv")
    assert len(rows) == 20
    assert all(r["stable"] == "1" for r in rows)
    assert all(float(r["max_root"]) < 1.0 for r in rows)
    conf = write_config(tmp_path, "variant = mimo2\nlambda = 2.0\n")
    assert main(["stability", "--config", conf, "--out", str(out)]) == 0
    rows = read_summary(out / "stability_mimo2.csv")
    assert rows[0]["stable"] == "0"
    assert math.isnan(float(rows[0]["ess1"]))


# ----------------------------------------------------------- reproducibility


def test_reruns_are_byte_identical(tmp_path):
    subpath = tmp_path / "example2.ini"
    subpath.write_text(
        "[experiment]\ntf = 0.2\nt0 = 0.02\nstart_fraction = 0.45\ngoal_fraction = 0.55\n"
    )
    mimo2 = tmp_path / "mimo2.ini"
    mimo2.write_text("[experiment]\nvariant = mimo2\n")
    runs = (
        ["example1", "--steps", "40"],
        ["example2", "--config", str(subpath)],
        ["sweep", "--config", str(mimo2), "--steps", "100"],
        ["stability"],
    )
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        for argv in runs:
            assert main([*argv, "--out", str(out)]) == 0
    names = sorted(path.name for path in a.iterdir())
    assert names == sorted(path.name for path in b.iterdir())
    assert len(names) == 7 + 7 + 2 + 2  # CSVs and SVGs of the four subcommands
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_svg_charts_are_well_formed(tmp_path):
    out = tmp_path / "run"
    assert main(["example1", "--steps", "30", "--out", str(out)]) == 0
    for path in out.glob("*.svg"):
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        body = ET.tostring(root).decode()
        assert "polyline" in body  # at least one plotted series


def package_env():
    """The environment with the imported package's source root on PYTHONPATH,
    so a child interpreter finds the same mfaclab as this one."""
    src = str(Path(mfaclab.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_console_script_entrypoint(tmp_path):
    # the installed script and `main` share the same wiring
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from mfaclab.cli import main; sys.exit(main(sys.argv[1:]))",
         "stability", "--lambda", "0.3", "--out", str(tmp_path / "s")],
        capture_output=True,
        text=True,
        env=package_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "s" / "stability_scalar.csv").is_file()


def test_module_entrypoint_runs_without_warnings():
    # importing the package must not import mfaclab.cli ahead of `-m`
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "mfaclab.cli", "--help"],
        capture_output=True,
        text=True,
        env=package_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage" in proc.stdout
