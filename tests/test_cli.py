import argparse
import csv

import pytest

from ringladder import fm_entropy, fm_pair_concurrence
from ringladder.cli import main, parse_blocks, parse_pairs, read_config_file


def test_parse_blocks_forms():
    specs = parse_blocks("A:4,D:6")
    assert [(b.family, b.l) for b in specs] == [("A", 4), ("D", 6)]
    specs = parse_blocks("famB:2")
    assert specs[0].family == "B"
    with pytest.raises(Exception):
        parse_blocks("A4")
    with pytest.raises(Exception):
        parse_blocks("E:2")


def test_parse_pairs_forms():
    assert parse_pairs("rung, diag") == ("rung", "diag")
    with pytest.raises(argparse.ArgumentTypeError, match="cross"):
        parse_pairs("rung,cross")


def test_blocks_subcommand(capsys):
    assert main(["blocks", "--rungs", "6", "--blocks", "C:2,D:3"]) == 0
    out = capsys.readouterr().out
    assert "C:2 sites [0, 3]" in out
    assert "D:3 sites [0, 2, 4]" in out
    assert "(leg 2, rung 2)" in out


def test_fm_oracle_subcommand(capsys):
    assert main(["fm-oracle", "--rungs", "4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "N = 8"
    assert float(out[1].split("=")[1]) == pytest.approx(fm_pair_concurrence(8))
    table = {int(r[0]): float(r[1]) for r in csv.reader(out[3:])}
    assert table[4] == pytest.approx(fm_entropy(8, 4), rel=1e-11)


def test_gs_subcommand(capsys):
    assert main(["gs", "--rungs", "3", "--theta", "0.0", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    fields = dict(line.split(" = ") for line in out.strip().splitlines())
    assert float(fields["E0"]) == pytest.approx(-3.0527756377, abs=1e-9)
    assert fields["dEr_dtheta"] == "n/a"
    assert fields["degenerate"] == "0"


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


def test_config_file_rejects_unknown_keys(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("rungz = 3\n")
    with pytest.raises(ValueError):
        read_config_file(str(bad))


def test_unknown_subcommand_fails():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
