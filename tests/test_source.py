"""Guards on the package source itself."""

import ast
import importlib
from pathlib import Path

import numpy as np

import ringladder

SRC = Path(ringladder.__file__).resolve().parent


def test_no_assert_statements():
    # python -O strips assert, so invariants must raise explicit errors
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"bare assert statements in ringladder: {found}"


def test_benchmark_call_sites_resolve(monkeypatch):
    # the traced benchmark patches names bound in ringladder modules (cli.main,
    # cli.fm_entropy, sweep.expectation_T, ...); installing its patches
    # resolves every one, so a rename fails here and not only in a traced run.
    # A matvec must still go through HamiltonianAction.matvec, once per call
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    spec = ringladder.LadderSpec(L=3)
    basis = ringladder.build_sector(spec.N, 0)
    tables = ringladder.LadderTables(spec, basis)
    with tracing.Tracer().installed() as tracer:
        act = ringladder.HamiltonianAction(tables, ringladder.couplings_from_theta(0.1))
        act.matvec(np.ones(basis.dim))
    assert [span[0] for span in tracer.spans] == ["hamiltonian.matvec"]


def test_traced_pass_records_every_required_span(monkeypatch, tmp_path):
    # a traced benchmark run fails when a name in REQUIRED_SPANS is never
    # called; a tiny pass through the same call sites (a sweep with a block
    # and a CSV, the observe phase's <T> of the Dicke state, then fm-oracle)
    # fails here first.  The patched names are looked up on their modules
    # inside the traced block
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    from ringladder import cli, sweep

    cfg = sweep.SweepConfig(L=4, thetas_over_pi=(0.0, 0.1, 0.2),
                            blocks=(sweep.BlockSpec("A", 4),), out=str(tmp_path / "sweep.csv"))
    basis = ringladder.build_sector(8, 0)
    with tracing.Tracer().installed() as tracer:
        sweep.run_sweep(cfg)
        sweep.expectation_T(ringladder.fm_state(8, basis))
        assert cli.main(["fm-oracle", "--rungs", "4", "--out", str(tmp_path / "fm.csv")]) == 0
    tracer.summary()  # raises when a required span recorded no call


def test_take_into_out_names_its_mode():
    # np.take(..., out=...) with the default mode "raise" copies through a
    # hidden buffer as long as its output; an index known to be in range is
    # taken with mode "clip", which writes straight into out
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "take"
        and "out" in (keys := {kw.arg for kw in node.keywords}) and "mode" not in keys
    ]
    assert not found, f"take(..., out=...) without mode= in ringladder: {found}"
