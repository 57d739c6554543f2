"""Geometry of the two-leg spin-1/2 ladder and the coupling parameterization.

Sites are numbered rung-major with the leg as the low bit,
s(leg, rung) = 2*(rung - 1) + (leg - 1), so the two spins of a rung occupy
adjacent bit positions of a configuration mask.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

__all__ = [
    "LadderSpec",
    "Couplings",
    "Plaquette",
    "couplings_from_theta",
    "enumerate_terms",
]


def check_integer(name: str, value) -> int:
    """value as an int; a float or a str is refused now, naming the field."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} {value!r} is not an integer") from None


@dataclass(frozen=True)
class LadderSpec:
    """A two-leg ladder with L rungs and periodic or open legs."""

    L: int
    bc: str = "periodic"

    def __post_init__(self):
        object.__setattr__(self, "L", check_integer("L", self.L))
        if self.bc not in ("periodic", "open"):
            raise ValueError(f"bc must be 'periodic' or 'open', got {self.bc!r}")
        if self.L < 1:
            raise ValueError("ladder needs at least one rung")
        if self.bc == "periodic" and self.L < 3:
            # a 2-rung ring would duplicate each leg bond and collapse the
            # two plaquettes onto the same four sites
            raise ValueError("periodic boundary requires L >= 3")

    @property
    def N(self) -> int:
        """Total number of sites."""
        return 2 * self.L

    def site(self, leg: int, rung: int) -> int:
        """Site id of (leg, rung) with legs in {1, 2} and rungs in {1..L}."""
        if leg not in (1, 2):
            raise ValueError(f"leg must be 1 or 2, got {leg}")
        if not 1 <= rung <= self.L:
            raise ValueError(f"rung must be in 1..{self.L}, got {rung}")
        return 2 * (rung - 1) + (leg - 1)


@dataclass(frozen=True)
class Couplings:
    """Exchange strengths: Jl along the legs, Jr on the rungs, K for the ring term."""

    Jl: float
    Jr: float
    K: float

    def __post_init__(self):
        for name in ("Jl", "Jr", "K"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"coupling {name} must be finite")


@dataclass(frozen=True)
class Plaquette:
    """Four sites of one square plaquette in clockwise order.

    a = (leg 1, i) upper left, b = (leg 1, i+1) upper right,
    c = (leg 2, i+1) lower right, d = (leg 2, i) lower left.
    """

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if len({self.a, self.b, self.c, self.d}) != 4:
            raise ValueError("plaquette corners must be four distinct sites")

    @property
    def sites(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


def couplings_from_theta(theta: float) -> Couplings:
    """Couplings on the parameter circle: Jl = Jr = cos(theta), K = sin(theta)."""
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    c = math.cos(theta)
    return Couplings(Jl=c, Jr=c, K=math.sin(theta))


def enumerate_terms(
    spec: LadderSpec,
) -> tuple[list[tuple[int, int]], list[tuple[int, int]], list[Plaquette]]:
    """Bond and plaquette index lists of the Hamiltonian sums.

    Returns (rung_bonds, leg_bonds, plaquettes).  A periodic L-rung ladder has
    L rung bonds, 2L leg bonds and L plaquettes; an open one has L rung bonds,
    2(L-1) leg bonds and L-1 plaquettes.
    """
    L = spec.L
    rung_bonds = [(spec.site(1, i), spec.site(2, i)) for i in range(1, L + 1)]
    leg_bonds: list[tuple[int, int]] = []
    plaquettes: list[Plaquette] = []
    n_cells = L if spec.bc == "periodic" else L - 1
    for i in range(1, n_cells + 1):
        j = i % L + 1  # rung to the right, wrapping around if periodic
        leg_bonds.append((spec.site(1, i), spec.site(1, j)))
        leg_bonds.append((spec.site(2, i), spec.site(2, j)))
        plaquettes.append(
            Plaquette(
                a=spec.site(1, i),
                b=spec.site(1, j),
                c=spec.site(2, j),
                d=spec.site(2, i),
            )
        )
    return rung_bonds, leg_bonds, plaquettes
