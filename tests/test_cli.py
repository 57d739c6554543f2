import csv
from pathlib import Path

import pytest

from ringladder import fm_entropy, fm_pair_concurrence
from ringladder.cli import main, parse_blocks

DEMO_CONF = Path(__file__).resolve().parents[1] / "demos" / "sweep.conf"


def test_parse_blocks_forms():
    specs = parse_blocks("A:4,D:6")
    assert [(b.family, b.l) for b in specs] == [("A", 4), ("D", 6)]
    specs = parse_blocks("famB:2")
    assert specs[0].family == "B"
    with pytest.raises(Exception):
        parse_blocks("A4")
    with pytest.raises(Exception):
        parse_blocks("E:2")


def test_blocks_subcommand(capsys):
    assert main(["blocks", "--rungs", "6", "--blocks", "C:2,D:3"]) == 0
    out = capsys.readouterr().out
    assert "C:2 sites [0, 3]" in out
    assert "D:3 sites [0, 2, 4]" in out
    assert "(leg 2, rung 2)" in out
    # only a solve builds a block's RDM, so its size cap does not apply here
    assert main(["blocks", "--rungs", "16", "--blocks", "D:16"]) == 0
    assert "D:16 sites [0, 2, 4," in capsys.readouterr().out


def test_fm_oracle_subcommand(capsys):
    assert main(["fm-oracle", "--rungs", "4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "N = 8"
    assert float(out[1].split("=")[1]) == pytest.approx(fm_pair_concurrence(8))
    table = {int(r[0]): float(r[1]) for r in csv.reader(out[3:])}
    assert table[4] == pytest.approx(fm_entropy(8, 4), rel=1e-11)
    # above N = 28 the weights must still be exact: 1.81008604285 is
    # the exact entropy rounded to 12 digits
    assert main(["fm-oracle", "--rungs", "500", "--blocks", "A:3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[3:] == ["3,1.81008604285,1.83740954041"]
    # the closed form has no RDM size cap: --blocks tabulates any l up to N/2
    assert main(["fm-oracle", "--rungs", "20", "--blocks", "A:20"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[3].startswith("20,") and float(out[3].split(",")[1]) == pytest.approx(fm_entropy(40, 20))


def test_gs_subcommand(capsys):
    assert main(["gs", "--rungs", "3", "--theta", "0.0", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    fields = dict(line.split(" = ") for line in out.strip().splitlines())
    assert float(fields["E0"]) == pytest.approx(-3.0527756377, abs=1e-9)
    assert fields["dEr_dtheta"] == "n/a"
    assert fields["degenerate"] == "0"


def test_gs_one_rung_open_ladder(capsys):
    # the rung is the whole system and its ground state is the singlet; the
    # ladder has no leg or diag pair, so those cells are empty
    argv = ["gs", "--rungs", "1", "--bc", "open", "--theta", "0.1"]
    assert main(argv) == 0
    fields = dict(line.split(" = ") for line in capsys.readouterr().out.strip().splitlines())
    assert float(fields["C_rung"]) == 1.0
    assert fields["E_rung2site"] == "0"
    assert float(fields["T_expect"]) == -0.75
    assert fields["C_leg"] == fields["C_diag"] == "n/a"


def test_sweep_subcommand_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--rungs", "3",
        "--theta-min", "0.10", "--theta-max", "0.14", "--theta-step", "0.02",
        "--blocks", "A:2", "--out", str(out),
    ])
    assert rc == 0
    rows = list(csv.reader(out.open()))
    assert rows[0][8] == "Ev_A2"
    assert len(rows) == 4
    assert float(rows[1][0]) == pytest.approx(0.10)


def test_config_file_defaults_and_override(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "# run setup\n"
        "rungs = 3\n"
        "theta = 0.12\n"
        "seed = 5\n"
    )
    assert main(["gs", "--config", str(cfgfile)]) == 0
    base = dict(
        line.split(" = ")
        for line in capsys.readouterr().out.strip().splitlines()
    )
    assert float(base["thetaOverPi"]) == pytest.approx(0.12)

    # explicit flag beats the file
    assert main(["gs", "--config", str(cfgfile), "--theta", "0.14"]) == 0
    over = dict(
        line.split(" = ")
        for line in capsys.readouterr().out.strip().splitlines()
    )
    assert float(over["thetaOverPi"]) == pytest.approx(0.14)


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("rungz = 3\n")
    with pytest.raises(SystemExit) as exc:
        main(["gs", "--config", str(bad)])
    assert exc.value.code == 2
    assert "--rungz=3" in capsys.readouterr().err


@pytest.mark.parametrize("argv, config, says", [
    pytest.param(["sweep", "--workers", "0"], None, "", id="workers-0"),
    pytest.param(["gs", "--workers", "2"], None, "--workers", id="gs-workers"),
    pytest.param(["gs", "--rungs", "2"], None, "", id="rungs-2"),
    # every pair the ladder has is measured; the removed flag and key are refused
    pytest.param(["gs", "--pairs", "rung"], None, "unrecognized arguments: --pairs",
                 id="pairs-removed"),
    pytest.param(["sweep", "--pairs", "rung"], None, "unrecognized arguments: --pairs",
                 id="sweep-pairs-removed"),
    pytest.param(["gs", "--config", "{tmp}/run.cfg"], "pairs = rung\n",
                 "unrecognized arguments: --pairs=rung", id="file-pairs-removed"),
    pytest.param(["gs", "--config", "{tmp}/run.cfg"], "bc = sideways\n", "",
                 id="file-bc"),
    pytest.param(["gs", "--config", "{tmp}/run.cfg"], "allow_degenerate = maybe\n",
                 "--allow-degenerate=maybe", id="file-removed-key"),
    pytest.param(["gs", "--config", "{tmp}/run.cfg"], "theta-min = 0.1\n", "",
                 id="file-key-of-sweep"),
    pytest.param(["gs", "--config", "{tmp}/missing.cfg"], None, "", id="file-missing"),
    pytest.param(["gs", "--config", "{tmp}/run.cfg"], "config = other.cfg\n", "",
                 id="file-nested"),
    pytest.param(["fm-oracle", "--workers", "2"], None, "", id="fm-oracle-workers"),
    pytest.param(["blocks"], None, "", id="blocks-without-blocks"),
    pytest.param(["sweep", "--theta-step", "0"], None, "step", id="theta-step-0"),
    pytest.param(["gs", "--theta", "nan"], None, "theta", id="theta-nan"),
    # finite as theta/pi, infinite in radians
    pytest.param(["gs", "--theta", "1e308"], None, "theta", id="theta-overflow"),
    # the residual contract is fixed; the removed flag is refused, not ignored
    pytest.param(["gs", "--tol", "1e-8"], None, "unrecognized arguments: --tol",
                 id="tol-removed"),
    pytest.param(["gs", "--seed", "-1"], None, "seed", id="seed-negative"),
    pytest.param(["gs", "--rungs", "4", "--blocks", "D:9"], None,
                 "family D needs l in 1..4, got 9", id="block-too-long"),
    # fits the ladder but not the block RDM: refused before the solve
    pytest.param(["gs", "--rungs", "15", "--bc", "open", "--sector", "26", "--blocks", "D:15"],
                 None, "block size capped at 14 sites, got 15", id="block-over-cap"),
])
def test_bad_input_is_a_usage_error(argv, config, says, tmp_path, capsys):
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
    with pytest.raises(SystemExit) as exc:
        main([a.format(tmp=tmp_path) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"ringladder {argv[0]}: error:" in err
    assert says in err


def test_gs_runs_outside_former_window(capsys):
    # theta/pi = 0.97 lay outside the removed uniqueness window; the ground
    # state there is unique and the point runs like any other
    assert main(["gs", "--theta", "0.97"]) == 0
    fields = dict(line.split(" = ") for line in capsys.readouterr().out.strip().splitlines())
    assert fields["thetaOverPi"] == "0.97"
    assert fields["degenerate"] == "0"


def test_allow_degenerate_from_file_and_bare_flag(tmp_path, capsys):
    # the option is gone: its flag and its config key are unknown options
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("allow_degenerate = true\n")
    for argv in (["--config", str(cfgfile)], ["--allow-degenerate"]):
        with pytest.raises(SystemExit) as exc:
            main(["gs", "--rungs", "3", "--theta", "0.97", *argv])
        assert exc.value.code == 2
        assert "unrecognized arguments: --allow-degenerate" in capsys.readouterr().err


def test_demo_config_runs(capsys):
    argv = ["sweep", "--config", str(DEMO_CONF), "--theta-max", "-0.28", "--workers", "1"]
    assert main(argv) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0][8:10] == ["Ev_A4", "Ev_D4"]
    assert [float(r[0]) for r in rows[1:]] == pytest.approx([-0.30, -0.29, -0.28])


def test_unknown_subcommand_fails():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
