"""A coupling point pinned by symmetry, found by root-finding.

At theta_c = arctan(1/2), where K/J = 1/2, the total rung operator
T = sum_i S1i.S2i commutes with H: [H(theta_c), T] = 0, which acceptance
criterion 2 checks on random vectors.  Two numerical fingerprints follow:

  1. the rung entanglement entropy E_rung2site has an extremum there at
     every system size.  Bounded minimize_scalar, run through one
     LadderSolver per ladder, finds it within 1e-8 of arctan(1/2) at
     L = 6, 8 and 10: a maximum at L = 6 and 10, a minimum at L = 8;
  2. ||[H, T]v|| collapses to machine noise exactly at that angle.

Off the ferromagnetic range the ground state is an SU(2) singlet, so on a
periodic ladder E_rung2site is a function of <T>/L alone.  At theta_c the
ground state is a T eigenstate, so d<T>/dtheta vanishes there, and with
it the derivative of E_rung2site.
"""

import math
import time

import numpy as np
import scipy.optimize

from ringladder import (
    Couplings,
    HamiltonianAction,
    LadderSolver,
    LadderSpec,
    LadderTables,
    SweepConfig,
    build_sector,
    couplings_from_theta,
)

THETA_C = math.atan(0.5)
BRACKET = (0.14, 0.16)  # theta/pi


def extremum(L):
    """theta/pi of the extremum of E_rung2site in BRACKET, its kind and the
    number of points the minimizer asked for.  One solver serves every
    point, so each starts from the chord of the points solved around it."""
    solver, layouts = LadderSolver(SweepConfig(L=L)), {}

    def entropy(t):
        return solver.point(t, layouts).E_rung2site

    lo, mid, hi = (entropy(t) for t in (BRACKET[0], sum(BRACKET) / 2, BRACKET[1]))
    if mid > max(lo, hi):
        kind, sign = "maximum", -1.0
    elif mid < min(lo, hi):
        kind, sign = "minimum", 1.0
    else:
        raise SystemExit(f"L={L}: three samples show no extremum in {BRACKET}")
    res = scipy.optimize.minimize_scalar(
        lambda t: sign * entropy(t), method="bounded", bounds=BRACKET,
        options={"xatol": 1e-10},
    )
    return res.x, kind, res.nfev


def commutator_ratio(L, theta):
    spec = LadderSpec(L=L, bc="periodic")
    basis = build_sector(spec.N, 0)
    tables = LadderTables(spec, basis)
    action = HamiltonianAction(tables, couplings_from_theta(theta))
    # T is H with only the rung coupling switched on
    T = HamiltonianAction(tables, Couplings(Jl=0.0, Jr=1.0, K=0.0)).matvec
    rng = np.random.default_rng(0)
    v = rng.uniform(-1.0, 1.0, basis.dim)
    v /= np.linalg.norm(v)
    hv = action.matvec(v)
    return np.linalg.norm(action.matvec(T(v)) - T(hv)) / np.linalg.norm(hv)


def main():
    print(f"arctan(1/2)/pi = {THETA_C / math.pi:.10f}")
    for L in (6, 8, 10):
        start = time.perf_counter()
        found, kind, evaluations = extremum(L)
        miss = abs(found - THETA_C / math.pi)
        print(f"L={L}: E_rung2site {kind} at theta/pi = {found:.10f}, "
              f"|theta - arctan(1/2)|/pi = {miss:.1e} after {evaluations} "
              f"minimizer evaluations, {time.perf_counter() - start:.2f} s")
        if miss > 1e-8:
            raise SystemExit(f"L={L}: the extremum misses arctan(1/2) by {miss:.1e} pi")

    print()
    print("commutator collapse, L = 4, one random vector:")
    for off in (-0.05, -0.01, 0.0, 0.01, 0.05):
        theta = THETA_C + off * math.pi
        print(f"  theta = arctan(1/2) + {off:+.2f}*pi:  "
              f"||(HT-TH)v||/||Hv|| = {commutator_ratio(4, theta):.3e}")


if __name__ == "__main__":
    main()
