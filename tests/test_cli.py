"""Tests for the experiment runner: config resolution, outputs, exit codes."""

import csv
import hashlib
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
    run_example1,
    run_example2,
    run_lambda_sweep,
    run_stability,
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


def test_example1_steps_beyond_the_reference_rejected(tmp_path, capsys):
    # the bench reference has samples for 1 <= k <= 800 only
    assert resolve(["example1", "--steps", "800"]).steps == 800
    with pytest.raises(ConfigError, match="steps <= 800"):
        resolve(["example1", "--steps", "801"])
    with pytest.raises(ConfigError, match="steps <= 800"):
        resolve(["example1", "--config", write_config(tmp_path, "steps = 801\n")])
    out = tmp_path / "run"
    assert main(["example1", "--steps", "801", "--out", str(out)]) == 3
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tf, t0", [(1e70, 1e67), (1e-70, 1e-72)])
def test_example2_duration_outside_the_quintic_range_exits_3(tmp_path, capsys, tf, t0):
    # 1 001 and 101 samples, but tf**5 overflows or underflows in the quintic timing law
    out = tmp_path / "run"
    conf = write_config(tmp_path, f"tf = {tf!r}\nt0 = {t0!r}\n")
    assert main(["example2", "--config", conf, "--out", str(out)]) == 3
    assert "<= tf <=" in capsys.readouterr().err
    assert not out.exists()


def test_example2_sample_count_past_the_cap_exits_3(tmp_path, capsys):
    # about 1e301 samples: np.arange cannot size the array
    out = tmp_path / "run"
    conf = write_config(tmp_path, "tf = 10\nt0 = 1e-300\n")
    assert main(["example2", "--config", conf, "--out", str(out)]) == 3
    assert "path samples" in capsys.readouterr().err
    assert not out.exists()


def test_main_maps_config_errors_to_exit_3(tmp_path, capsys):
    assert main(["example1", "--config", str(tmp_path / "missing.ini")]) == 3
    assert main(["sweep", "--lambda", "-1"]) == 3
    assert main(["bogus-verb"]) == 3
    assert main([]) == 3
    err = capsys.readouterr().err
    assert "config error" in err


# One short run per subcommand: its runner, argv, config body, and the files
# it returns, in the order main writes them.
SHORT_RUNS = {
    "example1": (run_example1, ["example1", "--steps", "10"], "", [
        "example1_first_order.csv", "example1_quartic.csv", "example1_constrained.csv",
        "example1_summary.csv", "example1_outputs.svg", "example1_inputs.svg", "example1_pjm.svg",
    ]),
    "example2": (run_example2, ["example2"], "tf = 0.2\nt0 = 0.02\n", [
        "example2_tracking.csv", "example2_summary.csv", "example2_pose.svg", "example2_errors.svg",
        "example2_joints.svg", "example2_condition.svg", "example2_solver.svg",
    ]),
    "sweep": (run_lambda_sweep, ["sweep", "--steps", "10", "--lambda", "0.3"], "",
              ["sweep_scalar.csv", "sweep_scalar.svg"]),
    "stability": (run_stability, ["stability", "--lambda", "0.3"], "",
                  ["stability_scalar.csv", "stability_scalar.svg"]),
}


def short_run_argv(tmp_path, verb, out):
    _, argv, body, _ = SHORT_RUNS[verb]
    conf = ["--config", write_config(tmp_path, body)] if body else []
    return [*argv, *conf, "--out", str(out)]


@pytest.mark.parametrize("verb", list(SHORT_RUNS))
def test_unwritable_output_exits_3(tmp_path, capsys, verb):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    out = blocker / "run"  # a directory under a regular file cannot be made
    assert main(short_run_argv(tmp_path, verb, out)) == 3
    assert f"config error: cannot write to {out}: " in capsys.readouterr().err


@pytest.mark.parametrize("verb", list(SHORT_RUNS))
def test_runners_return_their_files_and_write_nothing(tmp_path, verb):
    runner, _, _, names = SHORT_RUNS[verb]
    out = tmp_path / "run"
    status, files = runner(resolve(short_run_argv(tmp_path, verb, out)))
    assert status == 0
    assert [file.name for file in files] == names
    assert not out.exists()


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


@pytest.mark.parametrize("verb", ["sweep", "stability"])
def test_single_point_grid_at_huge_lambda_draws_its_chart(tmp_path, verb):
    # a fixed x pad of 0.5 rounds away at 1e16; the pad scales with the value instead
    out = tmp_path / "run"
    assert main([verb, "--lambda", "1e16", "--out", str(out)]) == 0
    root = ET.parse(out / f"{verb}_scalar.svg").getroot()
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    points = root.findall("{http://www.w3.org/2000/svg}circle")
    assert points and all(math.isfinite(float(p.get("cx"))) for p in points)


@pytest.mark.parametrize("verb", ["sweep", "stability"])
def test_lambda_that_overflows_the_characteristic_matrix_exits_3(tmp_path, capsys, verb):
    # T_1 = -lambda (1 + a) overflows at 1.7e308 while 1e308 still runs
    out = tmp_path / "run"
    assert main([verb, "--lambda", "1.7e308", "--out", str(out)]) == 3
    assert "config error: lambda 1.7e+308 " in capsys.readouterr().err
    assert not out.exists()
    assert main([verb, "--lambda", "1e308", "--out", str(out)]) == 0


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


# The eleven reference runs: name -> (argv, config body, expected exit code).
REFERENCE_RUNS = {
    "example1": (["example1"], "", 0),
    "example1-diverge": (["example1", "--lambda", "0", "--steps", "200"], "", 2),
    "example2": (["example2"], "t0 = 0.04\n", 0),
    "example2-sub": (["example2"], "t0 = 0.04\nstart_fraction = 0.4\ngoal_fraction = 0.6\n", 0),
    "sweep-0.3": (["sweep", "--lambda", "0.3"], "", 0),
    **{f"sweep-{loop}": (["sweep", "--steps", "600"], f"variant = {loop}\n", 0)
       for loop in ("scalar", "unstable-scalar", "mimo2")},
    **{f"stability-{loop}": (["stability"], f"variant = {loop}\n", 0)
       for loop in ("scalar", "unstable-scalar", "mimo2")},
}

# SHA-256 of every file the reference runs write, as "run/file".
REFERENCE_DIGESTS = {
    "example1/example1_constrained.csv":
        "0c9ff4c0437b6f6f024035241b392786e1d3e59a021be4b2fcb3281182549a93",
    "example1/example1_first_order.csv":
        "9b794439ee15d788551b9af74044af6fbe0ff833502366329f626ff8268c656d",
    "example1/example1_inputs.svg":
        "8b09427938bb976b674e3b9d9b3660653c27deab969e4297a205904cefea800b",
    "example1/example1_outputs.svg":
        "d16a5f15d533cf653db3cae01617b639a35e6436b3cec8fce4d0dd454499d4d4",
    "example1/example1_pjm.svg":
        "2c902ff43e9e7a1e416be986b25b57f1d4d1c604cb447d8601b8c3febc64e66e",
    "example1/example1_quartic.csv":
        "5d81c3f8bf44cae6073891c7496478af21b781f53148b2e168a507494284c6b7",
    "example1/example1_summary.csv":
        "0c3bb3b3abc938703f554750c2a37075113e77b4359f69996da163c8e9a38353",
    "example1-diverge/example1_constrained.csv":
        "ad9965d499054ba4ca37a951ecce7723f72a26fc6993531b1ca02394d988b703",
    "example1-diverge/example1_first_order.csv":
        "df61492b1b94b8817c7256369f619d06111ac57966f6ff3974ad1510cc0e9d45",
    "example1-diverge/example1_inputs.svg":
        "1b27434676292971ff00bdf27466f7bbfc64ac00fe6f4adc52f4948c86150fd9",
    "example1-diverge/example1_outputs.svg":
        "dbb927b743f3e9ee8fb7c3adfa52aab7a25cc21d22f057685694c7c60912cb6f",
    "example1-diverge/example1_pjm.svg":
        "2697d529539eb827ccd4917b0fee2b3e7ddbf6befa623007e96adeaea69c9c32",
    "example1-diverge/example1_quartic.csv":
        "ad7b4af3e43b7e033c96c356b10ceb2412df790556d9f0071b213e6ebc6ecde2",
    "example1-diverge/example1_summary.csv":
        "99d29bff6dd22cc1fc39b274bc44ccae7ba0ead6ee5f813005f0f062470fbf01",
    "example2/example2_condition.svg":
        "64ce4ef04842b6c88b75ae82430cd8e225c0052e351ecbd521306aa61e0de508",
    "example2/example2_errors.svg":
        "1748ec01a4572499dff074d2ba8b2e576dca8c3bb7f082ccf3813b71d7a93d00",
    "example2/example2_joints.svg":
        "7a6478073b4c754b57bef051c7feaf690a13d2f5a5d04c4e0ad7ae766e7f7332",
    "example2/example2_pose.svg":
        "30f7e8d297a09231eb32c0a7b10b3275229c221741c287245586c262b2a4c72b",
    "example2/example2_solver.svg":
        "8660a79f315bec90635d8e658a721c21cbcc46371e6be1031ab82d7776f28f5d",
    "example2/example2_summary.csv":
        "0263b8cf56d03f076fa44785059ba2da0960347494fc934ed60ae8bad138b161",
    "example2/example2_tracking.csv":
        "c6b98efb0b940a7c53f03b24c440fb7d1fdaf0b362d840dd1b77a0de9519681c",
    "example2-sub/example2_condition.svg":
        "908ea61c1add2a3618dd58e7b93dc98fffa1fbfc9ad153f912f31d7062ab3369",
    "example2-sub/example2_errors.svg":
        "bca17790272ad0e168b7afd518fa5c4f3b446a156e212d5057e191d1e2f0e404",
    "example2-sub/example2_joints.svg":
        "866a6860c0a48206b588e3fe7950366c876c6e097ad51717e28eafc7d21366ce",
    "example2-sub/example2_pose.svg":
        "9fde0358dc0afb03d449167be5f5a71bff5b5927ddc63e5ebec86e87c1277157",
    "example2-sub/example2_solver.svg":
        "af7507c2879c2cb2e8543510cbbd8bbca38178bb08f1a0fffc78b5b95c29e861",
    "example2-sub/example2_summary.csv":
        "2ecc0d267340e47a1d8dc630fdf3db1f98424611ac54f93fb4c4a32655ac99ea",
    "example2-sub/example2_tracking.csv":
        "1be54101bb026d94a6fa91309934351efe6308444ad4c9a5f9f07b070802d930",
    "sweep-0.3/sweep_scalar.csv":
        "ce28c21c2c47b4c4fc87f8457e3fe0d8ef8761fcb456a7d5ef3afe7cf4d16617",
    "sweep-0.3/sweep_scalar.svg":
        "2d3fabb12775452c13e0380f02f09e60ec44106f6cee32298c2392c9f3fda8b3",
    "sweep-scalar/sweep_scalar.csv":
        "8d18ca3157dbf1b6de7790698af952620ea4b632620ebb46bc9f247536515bd6",
    "sweep-scalar/sweep_scalar.svg":
        "d334e4c15fe17c00cf1105fcfbb3ea6df6eeca12f0866b324e83f8c975d55235",
    "stability-scalar/stability_scalar.csv":
        "7ce1aa6dd56544db5f75e5ac655db4341f8332148cc9dc9e6fb2808cb89c7810",
    "stability-scalar/stability_scalar.svg":
        "af41f277446ede0aebe163a378dc2af5d3675dba13f1f958ca3a8f1d5f3f8b09",
    "sweep-unstable-scalar/sweep_unstable-scalar.csv":
        "ba9eeb690f58ac41e535470c77dc51a3c7456719cab1fe4ada05fb1e9cd1c196",
    "sweep-unstable-scalar/sweep_unstable-scalar.svg":
        "8092d4a04f125eca76ce25471c2e81df1c9ba441a16244e9d9aa8119e6a13433",
    "stability-unstable-scalar/stability_unstable-scalar.csv":
        "290c1563d311e6a0a39c2c915e549914b47964192a5061f093d9b428f8c63954",
    "stability-unstable-scalar/stability_unstable-scalar.svg":
        "bff87ff8dabbcb5d48d3527376a2889eafdc16c9e33a1d648d94e27e50427da4",
    "sweep-mimo2/sweep_mimo2.csv":
        "21db00c832befc1aa03077ceee78e5cde510ef894461fc2fe33c6655352295fd",
    "sweep-mimo2/sweep_mimo2.svg":
        "1ea966c32fd3b54fc3f3610f0b1e8f900dd44abdaf90643a54f4ae7476d35632",
    "stability-mimo2/stability_mimo2.csv":
        "94b5ab136295b6cb95b133f895b0a163c177b9258b8485365f85e61b51874218",
    "stability-mimo2/stability_mimo2.svg":
        "f5333cc7b43dda3ecab26ec4b4b68413a00200b6f00436ae9720f6393b1ffcf6",
}


def test_reference_runs_keep_their_bytes(tmp_path):
    """Every output byte of the eleven reference runs matches recorded digests.

    The digests were recorded on one x86-64 Linux machine with Python 3.11.7
    and numpy 2.4.6; another numpy build may round differently and fail here
    without a change to the code.  A change that moves outputs on purpose
    records the new digests here and names the moved files in CHANGES.md.
    """
    digests = {}
    for name, (argv, body, code) in REFERENCE_RUNS.items():
        conf = ["--config", write_config(tmp_path, body)] if body else []
        assert main([*argv, *conf, "--out", str(tmp_path / name)]) == code, name
        for path in (tmp_path / name).iterdir():
            digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == REFERENCE_DIGESTS


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
