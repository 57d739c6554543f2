"""Four ways to cut a block out of a ladder, and why the shape matters.

Families:

  A  compact: both legs of rungs 1..l/2       boundary bonds constant (4)
  B  stripe:  both legs of every other rung   boundary grows with l
  C  zigzag:  alternating legs, rungs 1..l    boundary grows with l
  D  one leg: leg 1 of rungs 1..l             boundary grows with l

Away from criticality entanglement tracks severed bonds, so the compact
block's entropy saturates as l grows while the zigzag keeps climbing;
the one-leg block severs only rung bonds and also flattens once leg
dimers fit inside it.  The second table shows all three.  Along theta,
local extrema of the entropy curves sit near the phase boundaries; C
and D develop minima around 0.04*pi on this L = 6 grid (the sharper
stripe-family structure wants L = 8).
"""

from ringladder import (
    BlockSpec,
    LadderSpec,
    SweepConfig,
    block_sites,
    find_extrema,
    run_sweep,
    theta_grid,
)


def show_sites(spec):
    for fam, l in (("A", 4), ("B", 4), ("C", 4), ("D", 3)):
        sites = block_sites(fam, l, spec)
        cells = [f"{s}=(leg{s % 2 + 1},rung{s // 2 + 1})" for s in sites]
        print(f"  {fam}:{l}  {' '.join(cells)}")


def theta_table(L):
    blocks = (BlockSpec("A", 4), BlockSpec("B", 4), BlockSpec("C", 4), BlockSpec("D", 4))
    cfg = SweepConfig(
        L=L,
        thetas_over_pi=theta_grid(0.00, 0.24, 0.02),
        blocks=blocks,
        seed=0,
    )
    records = run_sweep(cfg)

    labels = [b.label for b in blocks]
    print(f"{'theta/pi':>9} " + " ".join(f"{'Ev_' + n:>9}" for n in labels))
    for r in records:
        print(f"{r.thetaOverPi:9.2f} " + " ".join(f"{r.Ev[n]:9.5f}" for n in labels))

    print()
    for name in labels:
        series = [(r.thetaOverPi, r.Ev[name]) for r in records]
        ex = find_extrema(series)
        if ex:
            desc = ", ".join(f"{k} at {t:.2f}*pi ({v:.4f})" for t, v, k in ex)
        else:
            desc = "no interior extremum on this grid"
        print(f"  {name}: {desc}")


def scaling_table(L, theta):
    blocks = tuple(BlockSpec(f, l) for f in "ACD" for l in (2, 4, 6))
    cfg = SweepConfig(
        L=L, thetas_over_pi=(theta,), blocks=blocks, seed=0
    )
    rec = run_sweep(cfg)[0]
    print(f"{'l':>4} {'Ev_A (compact)':>15} {'Ev_C (zigzag)':>15} {'Ev_D (leg)':>15}")
    for l in (2, 4, 6):
        print(
            f"{l:4d} {rec.Ev[f'A{l}']:15.5f} {rec.Ev[f'C{l}']:15.5f}"
            f" {rec.Ev[f'D{l}']:15.5f}"
        )


def main():
    spec = LadderSpec(L=6, bc="periodic")
    print(f"block site sets on a {spec.L}-rung ladder:")
    show_sites(spec)

    print()
    theta_table(6)

    print()
    print("entropy vs block size at theta = 0.10*pi (area law vs boundary law):")
    scaling_table(6, 0.10)


if __name__ == "__main__":
    main()
