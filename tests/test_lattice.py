import math

import numpy as np
import pytest

from ringladder import (
    Couplings,
    LadderSpec,
    Plaquette,
    couplings_from_theta,
    enumerate_terms,
)


def test_couplings_from_theta_axes():
    c = couplings_from_theta(0.0)
    assert (c.Jl, c.Jr, c.K) == (1.0, 1.0, 0.0)
    c = couplings_from_theta(math.pi / 2)
    assert abs(c.Jl) < 1e-15 and abs(c.Jr) < 1e-15 and c.K == 1.0


def test_couplings_from_theta_su4_point():
    c = couplings_from_theta(math.atan(0.5))
    assert c.Jl == pytest.approx(0.8944272, abs=1e-7)
    assert c.Jr == pytest.approx(0.8944272, abs=1e-7)
    assert c.K == pytest.approx(0.4472136, abs=1e-7)
    assert c.Jl == pytest.approx(2.0 / math.sqrt(5.0), rel=1e-14)


def test_couplings_reject_nonfinite():
    with pytest.raises(ValueError):
        couplings_from_theta(float("nan"))
    with pytest.raises(ValueError):
        Couplings(Jl=1.0, Jr=float("inf"), K=0.0)


def test_site_indexing():
    spec = LadderSpec(L=4)
    assert spec.N == 8
    assert spec.site(1, 1) == 0
    assert spec.site(2, 1) == 1
    assert spec.site(1, 2) == 2
    assert spec.site(2, 4) == 7
    with pytest.raises(ValueError):
        spec.site(3, 1)
    with pytest.raises(ValueError):
        spec.site(1, 5)
    with pytest.raises(ValueError):
        spec.site(1, 0)


def test_term_counts_periodic():
    rung, leg, plaq = enumerate_terms(LadderSpec(L=3))
    assert (len(rung), len(leg), len(plaq)) == (3, 6, 3)


def test_term_counts_open():
    rung, leg, plaq = enumerate_terms(LadderSpec(L=4, bc="open"))
    assert (len(rung), len(leg), len(plaq)) == (4, 6, 3)


def test_two_rung_ring_rejected():
    with pytest.raises(ValueError):
        LadderSpec(L=2, bc="periodic")
    # open two-rung ladder is fine
    assert LadderSpec(L=2, bc="open").N == 4


def test_single_rung_open_allowed():
    rung, leg, plaq = enumerate_terms(LadderSpec(L=1, bc="open"))
    assert (len(rung), len(leg), len(plaq)) == (1, 0, 0)


def test_no_duplicate_bonds():
    for spec in (LadderSpec(L=3), LadderSpec(L=6), LadderSpec(L=5, bc="open")):
        rung, leg, _ = enumerate_terms(spec)
        bonds = [frozenset(b) for b in rung + leg]
        assert len(bonds) == len(set(bonds))


def test_site_coverage_periodic():
    spec = LadderSpec(L=5)
    rung, leg, plaq = enumerate_terms(spec)
    for s in range(spec.N):
        assert sum(s in b for b in rung) == 1
        assert sum(s in b for b in leg) == 2
        assert sum(s in p.sites for p in plaq) == 2


def test_plaquette_edges_are_bonds():
    spec = LadderSpec(L=4)
    rung, leg, plaq = enumerate_terms(spec)
    bonds = {frozenset(b) for b in rung + leg}
    for p in plaq:
        a, b, c, d = p.sites
        for edge in ((a, b), (b, c), (c, d), (d, a)):
            assert frozenset(edge) in bonds


def test_plaquette_orientation():
    spec = LadderSpec(L=4)
    _, _, plaq = enumerate_terms(spec)
    p = plaq[0]
    # upper-left, upper-right, lower-right, lower-left of the first cell
    assert (p.a, p.b, p.c, p.d) == (
        spec.site(1, 1), spec.site(1, 2), spec.site(2, 2), spec.site(2, 1)
    )
    last = plaq[-1]
    assert last.b == spec.site(1, 1)  # wraps around


def test_plaquette_distinct_sites():
    with pytest.raises(ValueError):
        Plaquette(a=0, b=1, c=1, d=2)


def test_rung_count_must_be_an_integer():
    # LadderSpec(3.5).N was 7.0
    with pytest.raises(ValueError, match="L 3.5 is not an integer"):
        LadderSpec(3.5)
    assert type(LadderSpec(np.int64(3)).N) is int
