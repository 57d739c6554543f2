"""Pairwise entanglement across the phase diagram.

Sweeps theta and tabulates the ground-state concurrence of the three
inequivalent nearest-neighbor pairs: same rung, same leg, and diagonal.
Each one lights up in a different region, which is what makes the curves
useful as cheap phase markers:

  * rung pairs dominate around theta = 0 (rung-singlet regime),
  * leg pairs peak at 0.04*pi, ahead of theta_c = arctan(1/2) ~ 0.148*pi,
    and drop to zero between 0.11*pi and 0.17*pi depending on L,
  * diagonal pairs peak at 0.89*pi, just before the lowest Sz = 0 state
    becomes the ferromagnetic Dicke state (near 0.94*pi at L = 8, where
    C_diag = 1/(N - 1)),
  * and in the ferromagnet every pair is equally (and weakly) entangled.

Runs at L = 6 in a couple of seconds; bump L to 8 for sharper curves.
"""

from ringladder import SweepConfig, fm_pair_concurrence, run_sweep, theta_grid


def main():
    L = 6
    cfg = SweepConfig(
        L=L,
        thetas_over_pi=theta_grid(-0.30, 0.90, 0.05),
        blocks=(),
        seed=0,
    )
    records = run_sweep(cfg)

    print(f"{'theta/pi':>9} {'C_rung':>9} {'C_leg':>9} {'C_diag':>9}")
    for r in records:
        print(
            f"{r.thetaOverPi:9.2f} {r.C_rung:9.5f} {r.C_leg:9.5f} {r.C_diag:9.5f}"
        )

    fm = run_sweep(
        SweepConfig(
            L=L,
            thetas_over_pi=(1.0,),
            blocks=(),
            seed=0,
        )
    )[0]
    n = 2 * L
    print()
    print(
        f"theta = pi: C_rung={fm.C_rung:.6f} C_leg={fm.C_leg:.6f} "
        f"C_diag={fm.C_diag:.6f}"
    )
    print(f"closed form 1/(N-1) = {fm_pair_concurrence(n):.6f} at N = {n}")


if __name__ == "__main__":
    main()
