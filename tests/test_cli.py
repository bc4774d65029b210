"""End-to-end tests of the command line interface and its file formats."""

import json
import math
import os
import resource
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from cantorslit.cli import main, parse_number, parse_number_list, parse_point
from cantorslit.fields import grid_sample
from cantorslit.regions import component_label, region_membership, region_spec
from test_regions import PROFILE


def run_cli(args, **kw):
    return main(list(args))


def test_parse_number_forms():
    assert parse_number("0.25") == 0.25
    assert parse_number("1/8") == 0.125
    assert parse_number("2^-10") == 2.0 ** -10
    assert parse_number_list("1/8,1/16") == [0.125, 0.0625]
    assert list(parse_point("0.5,-0.25")) == [0.5, -0.25]


def test_cantor_dist_command(capsys):
    assert run_cli(["cantor", "dist", "--lambda", "1/4", "--x", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "0.25" in out


def test_region_probe_command(capsys):
    rc = run_cli(["region", "probe", "--region", "Omega_lambda",
                  "--lambda", "1/4", "--point", "0.5,0.3"])
    assert rc == 0
    assert "member" in capsys.readouterr().out
    rc = run_cli(["region", "probe", "--region", "Omega_lambda",
                  "--lambda", "1/4", "--point", "0.5,0.1"])
    assert rc == 0
    assert "not-member" in capsys.readouterr().out


def _child_env():
    """A child's environment: it imports the same package as this process,
    installed or not."""
    import cantorslit

    src = os.path.dirname(os.path.dirname(cantorslit.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src,
                                                      env.get("PYTHONPATH")]))
    return env


def _limit_address_space():
    limit = 3 << 29                     # 1.5 GiB
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


# runs each command line given as a JSON list and prints one JSON line with
# its exit status and output
_CLI_CHILD = """
import contextlib, io, json, sys
from cantorslit.cli import main
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = main(argv)
    print(json.dumps([status, buf.getvalue()]))
"""


def test_omega2_commands_in_bounded_memory():
    """Omega2 on the command line uses its own Cantor set, not --lambda's.

    A fixed-ratio set made the membership resolve 60 construction steps,
    2^60 intervals.  The child runs under a 1.5 GiB address-space limit,
    so a regression fails fast instead of filling the host's memory.
    """
    points = list(PROFILE["Omega2"])
    argvs = [["region", "probe", "--region", "Omega2",
              f"--point={x!r},{y!r}"] for x, y in points]
    argvs.append(["region", "components", "--region", "Omega2",
                  "--center", "0.5,0.5"])
    argvs.append(["field", "sample", "--region", "Omega2", "--h", "2^-4"])
    proc = subprocess.run([sys.executable, "-c", _CLI_CHILD, json.dumps(argvs)],
                          capture_output=True, text=True, env=_child_env(),
                          preexec_fn=_limit_address_space, timeout=120)
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [status for status, _ in results] == [0] * len(argvs)
    spec = region_spec("Omega2")
    want = ["member\n" if region_membership(spec, p) else "not-member\n"
            for p in points]
    assert [body for _, body in results[:len(points)]] == want
    cmap = component_label(spec, [0.5, 0.5], 0.25, 0.25 / 256.0)
    assert results[-2][1] == f"{cmap.count}\n"
    u = grid_sample(lambda X: 1.0, spec, 2.0 ** -4)
    assert results[-1][1].count(",1\n") == int(u.mask.sum())


def test_density_point_defaults_to_origin(monkeypatch):
    """Without --point, density runs at the origin in --n dimensions, with
    one call for both sides."""
    import cantorslit.cli as cli

    seen = []

    def record(spec, point, radii, **kw):
        seen.append((spec.n, list(point)))
        res = SimpleNamespace(c_fit=0.0, radii=radii, c_per_radius=[0.0],
                              halfwidth=0.0)
        return {"upper": res, "lower": res}
    monkeypatch.setattr(cli, "measure_density_sides", record)
    for n in (2, 3):
        assert run_cli(["density", "--n", str(n), "--radii", "1/4"]) == 0
    assert seen == [(2, [0.0, 0.0]), (3, [0.0, 0.0, 0.0])]


@pytest.mark.parametrize("point", ["0.5,0", "5,5"])
def test_density_without_component_exits_1(point, tmp_path):
    """A point no component touches (inside the tent, far outside D) ends
    in one line naming it, exit status 1, and no report or manifest."""
    with pytest.raises(SystemExit) as exc, \
            pytest.warns(UserWarning, match="no component at radius"):
        run_cli(["density", "--point", point, "--radii", "1/4",
                 "--samples", "100", "--out", str(tmp_path / "d.json")])
    msg = exc.value.code
    # a string exit code prints as one line and exits with status 1
    assert isinstance(msg, str) and "\n" not in msg
    assert ",".join(repr(float(v)) for v in point.split(",")) in msg
    assert not list(tmp_path.iterdir())


def test_whitney_build_and_verify(tmp_path):
    out = tmp_path / "dec.json"
    rc = run_cli(["whitney", "build", "--region", "N_lambda",
                  "--lambda", "1/4", "--max-gen", "6",
                  "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["cubes"]
    assert all(c["status"] in ("resolved", "frontier") for c in payload["cubes"])
    assert (tmp_path / "dec.json.manifest.json").exists()

    vout = tmp_path / "rep.json"
    rc = run_cli(["whitney", "verify", "--region", "N_lambda",
                  "--lambda", "1/4", "--max-gen", "6", "--out", str(vout)])
    assert rc == 0
    rep = json.loads(vout.read_text())
    assert rep["w1_violations"] == 0
    assert rep["boundary_crossings"] == 0
    assert rep["stranded"] == 0


def test_whitney_verify_reports_stranded(capsys):
    """Omega's frontier cubes that were never bracketed show in the report."""
    rc = run_cli(["whitney", "verify", "--region", "Omega_lambda",
                  "--lambda", "1/4", "--max-gen", "7"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["stranded"] == 48
    assert rep["stranded"] <= rep["frontier"] == 7376
    assert rep["w6_violations"] == 0


def test_claim_count_manifest_reports_sources(tmp_path):
    from cantorslit.whitney import claim_count, reflect_assign, whitney_decompose

    out = tmp_path / "counts.csv"
    rc = run_cli(["whitney", "claim-count", "--lambda", "1/4",
                  "--max-gen", "6", "--out", str(out)])
    assert rc == 0
    assert out.read_text().split("\n")[0] == "k,max_count,fitted_exponent"
    manifest = json.loads((tmp_path / "counts.csv.manifest.json").read_text())
    w = whitney_decompose(region_spec("N_lambda", lam=0.25), 6)
    wt = whitney_decompose(region_spec("Omega_lambda", lam=0.25), 6)
    res = claim_count(w, wt, reflect_assign(w, wt), k_max=4)
    assert manifest["results"] == {"sources": res.sources,
                                   "unreachable": res.unreachable}
    assert res.sources > 0


def test_claim_count_without_fit_exits_1(tmp_path, capsys):
    """At max_gen 4 no k value is populated; the counts are still written.

    The exponent is written as nan in the CSV and as null in the manifest,
    and the exit status is 1.
    """
    out = tmp_path / "counts.csv"
    assert run_cli(["whitney", "claim-count", "--lambda", "1/4",
                    "--max-gen", "4", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "")
    assert out.read_text() == ("k,max_count,fitted_exponent\n"
                               + "".join(f"{k},0,nan\n" for k in range(5)))
    manifest = json.loads((tmp_path / "counts.csv.manifest.json").read_text())
    assert manifest["results"] == {"sources": 0, "unreachable": 0,
                                   "fitted_exponent": None}
    # with two populated k values the fit is written, as before
    assert run_cli(["whitney", "claim-count", "--lambda", "1/4",
                    "--max-gen", "6", "--k-max", "2", "--out", str(out)]) == 0
    assert out.read_text() == ("k,max_count,fitted_exponent\n"
                               "0,2,0.5000000000000004\n"
                               "1,3,0.5000000000000004\n"
                               "2,4,0.5000000000000004\n")


@pytest.mark.parametrize("args, flag", [
    (["whitney", "claim-count", "--lambda", "0.7"], "--lambda"),
    (["whitney", "claim-count", "--max-gen", "3"], "--max-gen"),
    (["whitney", "claim-count", "--k-max", "-1"], "--k-max"),
    (["whitney", "build", "--n", "1"], "--n"),
    (["sweep", "--lambdas", "1/8,1/2"], "--lambdas"),
    (["field", "norm", "--p", "0.5"], "--p"),
    (["field", "sample", "--region", "Foo"], "--region"),
    (["field", "sample", "--region", "Omega2", "--n", "3"], "--region"),
    (["whitney", "build", "--region", "D"], "--region"),
    (["whitney", "verify", "--region", "Q0_tilde"], "--region"),
    (["region", "probe", "--point", "0,x"], "--point"),
    (["region", "components", "--center", "0,y"], "--center"),
    (["region", "components", "--center", "0,0", "--radius", "0"],
     "--radius"),
    (["density", "--point", "0,0,0", "--n", "2"], "--point"),
    (["density", "--samples", "0"], "--samples"),
    (["density", "--radii", "1/4,0"], "--radii"),
    (["dim", "estimate", "--lambda", "1/4", "--levels", "2"], "--levels"),
    (["field", "sample", "--h", "0"], "--h"),
    (["extend", "--grid", "0"], "--grid"),
    (["sweep", "--lambdas", "1/8", "--grid", "0"], "--grid"),
    (["field", "norm", "--func", "bogus:1"], "--func"),
    (["field", "sample", "--func", "coord:5"], "--func"),
    (["field", "sample", "--func", "const:1/0"], "--func"),
    (["extend", "--u", "coord:3"], "--u"),
    (["extend", "--u", "jump:depth=0"], "--u"),
    (["extend", "--u", "jump:r=-1/8"], "--u"),
    (["extend", "--u", "jump:radius=1/8"], "--u"),
    (["field", "sample", "--h", "0.3"], "--h"),
    (["sweep", "--lambdas", "1/8", "--grid", "1/8"], "--grid"),
    (["extend", "--grid", "2^-8", "--max-gen", "9"], "--grid"),
    (["extend", "--grid", "1/8"], "--grid"),
    (["cantor", "dist", "--lambda", "1/0", "--x", "0.5"], "--lambda"),
    (["cantor", "dist", "--lambda", "1/4", "--x", "1/0"], "--x"),
    # values their parser cannot read: the message names the domain
    (["cantor", "dist", "--lambda", "1/0", "--x", "0.5"],
     "--lambda: '1/0' is not in (0, 1/2)"),
    (["whitney", "verify", "--max-gen", "x"],
     "--max-gen: 'x' is not an integer >= 4"),
    (["cantor", "dist", "--lambda", "1/4", "--x", "1/0"],
     "--x: '1/0' is not a number"),
    (["region", "probe", "--point", "0,x"],
     "--point: '0,x' is not a list of numbers"),
    # values beyond the float range
    (["cantor", "dist", "--lambda", "1/4", "--x", "2^5000"],
     "--x: '2^5000' is not a number"),
    (["field", "norm", "--func", "const:2^5000"], "--func"),
    # a name outside the choices
    (["dim", "estimate", "--set", "bogus", "--lambda", "1/4"], "--set"),
    # a grid too coarse for the finest generation the rule admits, 4
    (["extend", "--grid", "2^-6"], "--grid"),
    # lambda lists with no entry
    (["sweep", "--lambdas", ""], "--lambdas"),
    (["sweep", "--lambdas", ","], "--lambdas"),
])
def test_bad_arguments_exit_before_any_work(args, flag, tmp_path, capsys,
                                            monkeypatch):
    import cantorslit.cli as cli

    def no_work(*a, **kw):
        raise AssertionError("work started on a bad argument")
    for name in ("whitney_decompose", "assemble", "bound_report",
                 "grid_sample", "origin_jump", "region_membership",
                 "component_label", "measure_density_sides",
                 "build_net_hierarchy"):
        monkeypatch.setattr(cli, name, no_work)
    with pytest.raises(SystemExit) as exc:
        run_cli(args + ["--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and f"argument {flag}" in err
    assert "conv" not in err and "parse_" not in err
    assert not list(tmp_path.iterdir())


def test_sweep_schema(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = run_cli(["sweep", "--n", "2", "--p", "1.5",
                  "--lambdas", "1/8,1/16,1/32", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().split("\n")
    assert lines[0] == "lambda,dim,norm_factor,empirical_ratio,C_eff,thm11_upper"
    body = [l for l in lines[1:] if l]
    assert len(body) == 3
    for line in body:
        assert len(line.split(",")) == 6


def test_grid_that_is_not_a_power_of_two_runs(tmp_path):
    """3/2560 lies between 2^-10 and 2^-9, so it resolves max_gen 6: sweep
    and extend accept it and decompose there."""
    out = tmp_path / "sweep.csv"
    assert run_cli(["sweep", "--lambdas", "1/4", "--grid", "3/2560",
                    "--out", str(out)]) == 0
    head, row = out.read_text().split("\n")[:2]
    ratio = row.split(",")[head.split(",").index("empirical_ratio")]
    assert float(ratio) == 0.03237472550746158
    assert run_cli(["extend", "--grid", "3/2560",
                    "--out", str(tmp_path / "eu.npz")]) == 0


def test_sweep_without_blended_tent_cell_exits_1(tmp_path):
    """At lambda 1/4 the 2^-7 grid decomposes at max_gen 4, where no tent
    cube is resolved, so Eu blends no tent cell: the sweep ends in one line
    naming the input, exit status 1, and no report, instead of a ratio 0."""
    with pytest.raises(SystemExit) as exc:
        run_cli(["sweep", "--lambdas", "1/4", "--grid", "2^-7",
                 "--out", str(tmp_path / "f.csv")])
    msg = exc.value.code
    assert isinstance(msg, str) and "\n" not in msg
    assert msg.startswith("sweep: Eu blends no tent cell at lambda=0.25")
    assert not list(tmp_path.iterdir())


def test_sweep_with_all_zero_blend_exits_1(tmp_path):
    """At lambda 1/8 the 2^-7 grid blends 768 tent cells, but every blended
    value of the jump's extension is 0: the sweep ends in one line, exit
    status 1 and no report, instead of printing a ratio 0."""
    with pytest.raises(SystemExit) as exc:
        run_cli(["sweep", "--lambdas", "1/8", "--grid", "2^-7",
                 "--out", str(tmp_path / "f.csv")])
    msg = exc.value.code
    assert isinstance(msg, str) and "\n" not in msg
    assert msg.startswith("sweep: empirical ratio 0 at lambda=0.125")
    assert not list(tmp_path.iterdir())


def test_dim_estimate_command(tmp_path):
    out = tmp_path / "cert.json"
    rc = run_cli(["dim", "estimate", "--set", "cantor-slit",
                  "--lambda", "1/4", "--levels", "4", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["certified"]
    assert abs(payload["estimate"] - payload["closed_form"]) <= 0.07
    assert payload["certificate"]


def test_density_command(tmp_path):
    out = tmp_path / "dens.json"
    rc = run_cli(["density", "--lambda", "1/4", "--point", "0,0",
                  "--radii", "1/4,1/8", "--samples", "20000",
                  "--seed", "3", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["upper"]["c_fit"] > 0.0
    assert payload["lower"]["c_fit"] > 0.0


def test_field_norm(tmp_path, capsys):
    args = ["field", "norm", "--region", "Omega_lambda", "--lambda", "1/4",
            "--func", "coord:1", "--h", "2^-7", "--p", "2"]
    assert run_cli(args) == 0
    out = capsys.readouterr().out
    assert any(ch.isdigit() for ch in out)
    # with --out the same number goes to the file, with a manifest
    path = tmp_path / "norm.txt"
    assert run_cli(args + ["--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_text() == out
    manifest = json.loads((tmp_path / "norm.txt.manifest.json").read_text())
    assert manifest["command"] == "field norm"


def test_field_norm_jump_at_n3(capsys):
    """The jump test function builds at n = 3; its witness used to lie on
    D's notch face and the command ended in a traceback."""
    assert run_cli(["field", "norm", "--n", "3", "--region", "Omega_lambda",
                    "--func", "jump:depth=1", "--h", "2^-4"]) == 0
    assert math.isfinite(float(capsys.readouterr().out))


def test_field_sample_without_out_writes_stdout(capsys):
    assert run_cli(["field", "sample", "--h", "2^-3"]) == 0
    lines = capsys.readouterr().out.split("\n")
    assert lines[0].startswith("# bbox=") and lines[1] == "value,mask"
    u = grid_sample(lambda X: 1.0, region_spec("N_lambda", lam=0.25), 2.0 ** -3)
    assert len(lines) == 2 + u.mask.size + 1 and lines[-1] == ""


# each writing command's manifest label and seed, as the handlers once typed
@pytest.mark.parametrize("args, command, seed", [
    (["whitney", "build", "--max-gen", "4"], "whitney build", None),
    (["whitney", "verify", "--max-gen", "4"], "whitney verify", None),
    (["whitney", "claim-count", "--max-gen", "6", "--k-max", "2"],
     "whitney claim-count", None),
    (["field", "sample", "--h", "2^-3"], "field sample", None),
    (["field", "grad", "--h", "2^-3"], "field grad", None),
    (["extend", "--grid", "2^-7", "--max-gen", "4"], "extend", None),
    (["sweep", "--lambdas", "1/8", "--grid", "2^-9", "--seed", "5"],
     "sweep", 5),
    (["dim", "estimate", "--lambda", "1/4", "--levels", "3"],
     "dim estimate", None),
    (["density", "--radii", "1/4", "--samples", "100", "--seed", "5"],
     "density", 5),
])
def test_manifest_command_and_seed(args, command, seed, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(args + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["seed"] == seed
    assert manifest["params"]["out"] == str(out)


def test_extend_command(tmp_path):
    out = tmp_path / "eu.csv"
    rc = run_cli(["extend", "--lambda", "1/4", "--u", "coord:1",
                  "--grid", "2^-8", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().split("\n")
    assert lines[1] == "value,mask" and lines[-1] == ""
    mask = np.array([int(line[-1]) for line in lines[2:-1]])
    assert mask.size == 768 * 768
    # the extension adds tent cells to the slit domain's mask
    omega = grid_sample(lambda X: X[:, 0],
                        region_spec("Omega_lambda", lam=0.25), 2.0 ** -8)
    assert mask.sum() > omega.mask.sum()
    manifest = json.loads((tmp_path / "eu.csv.manifest.json").read_text())
    assert manifest["params"]["u"] == "coord:1"
    assert manifest["params"]["max_gen"] is None
    assert manifest["results"] == {"blended_tent_cells": 2560,
                                   "uncovered_tent_cells": 7040}


def test_run_config_valid(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    out = tmp_path / "sweep.csv"
    cfg.write_text(
        "kind: bound-sweep\n"
        f"out: {out}\n"
        "params:\n"
        "  n: 2\n"
        "  p: 1.5\n"
        "  lambdas: [0.125, 0.0625, 0.03125]\n"
    )
    rc = run_cli(["run", "--config", str(cfg)])
    assert rc == 0
    assert out.read_text().count("\n") == 4  # header + 3 rows


def test_run_config_rejects_bad_lambda(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "kind: bound-sweep\n"
        f"out: {tmp_path / 'x.csv'}\n"
        "params:\n"
        "  lambdas: [0.6]\n"
    )
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "--config", str(cfg)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --lambdas" in err and "(0, 1/2)" in err


def test_run_config_set_override(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    out = tmp_path / "a.csv"
    cfg.write_text(
        "kind: bound-sweep\n"
        f"out: {out}\n"
        "params:\n"
        "  p: 1.5\n"
        "  lambdas: [0.125]\n"
    )
    rc = run_cli(["run", "--config", str(cfg),
                  "--set", "lambdas=[0.125, 0.0625]"])
    assert rc == 0
    assert out.read_text().count("\n") == 3  # header + 2 rows after override


@pytest.mark.parametrize("cfg, flag", [
    ({"kind": "claim-count", "out": "x", "params": {"k_max": -1}},
     "argument --k-max"),
    ({"kind": "whitney-audit", "out": "x", "params": {"max_gen": 3}},
     "argument --max-gen"),
    ({"kind": "bound-sweep", "out": "x", "params": {"lambdas": [0.6]}},
     "argument --lambdas"),
    ({"kind": "bound-sweep", "out": "x",
      "params": {"lambdas": [0.125], "p": 1}}, "argument --p"),
    ({"kind": "claim-count", "out": "x", "params": {"maxgen": 4}},
     "unrecognized arguments: --maxgen"),
    ({"out": "x", "params": {"lambda": 0.25}}, "'kind'"),
    ({"kind": "density", "params": {"lambda": 0.25}}, "'out'"),
    ({"kind": "bound-sweep", "out": "x", "params": {"lambdas": []}},
     "argument --lambdas"),
])
def test_bad_configs_exit_before_any_work(cfg, flag, tmp_path, capsys,
                                          monkeypatch):
    import yaml

    import cantorslit.cli as cli

    def no_work(*a, **kw):
        raise AssertionError("work started on a bad config")
    monkeypatch.setattr(cli, "whitney_decompose", no_work)
    monkeypatch.setattr(cli, "bound_report", no_work)
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "--config", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and flag in err
    assert list(tmp_path.iterdir()) == [path]


def test_run_config_uses_command_line_defaults(tmp_path):
    out = tmp_path / "sweep.csv"
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"kind: bound-sweep\nout: {out}\n"
                   "params:\n  lambdas: [0.125]\n")
    assert run_cli(["run", "--config", str(cfg)]) == 0
    manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
    assert manifest["params"]["p"] == 1.5


def test_run_config_density_point_list(tmp_path):
    out = tmp_path / "dens.json"
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"kind: density\nout: {out}\n"
                   "params:\n  lambda: 0.25\n  point: [0, 0]\n"
                   "  radii: [0.25]\n  samples: 2000\n")
    assert run_cli(["run", "--config", str(cfg)]) == 0
    assert json.loads(out.read_text())["upper"]["c_fit"] > 0.0


def test_run_config_matches_command_line(tmp_path):
    cli_out, cfg_out = tmp_path / "cli.csv", tmp_path / "cfg.csv"
    assert run_cli(["whitney", "claim-count", "--lambda", "1/4",
                    "--max-gen", "6", "--out", str(cli_out)]) == 0
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"kind: claim-count\nout: {cfg_out}\n"
                   "params:\n  lambda: 0.25\n  max_gen: 6\n")
    assert run_cli(["run", "--config", str(cfg)]) == 0
    assert cfg_out.read_bytes() == cli_out.read_bytes()
    params = [json.loads((tmp_path / f"{name}.manifest.json").read_text())
              ["params"] for name in ("cli.csv", "cfg.csv")]
    for p in params:
        p.pop("out")
    assert params[0] == params[1]


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "cantorslit.cli",
                           "cantor", "dist", "--lambda", "1/4", "--x", "0"],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
