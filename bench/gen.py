"""Seeded inputs for the benchmark workloads.

Each workload draws from its own ``random.Random`` stream, keyed by the
workload name and the seed, so one seed always gives the same inputs and
the program receives nothing but what is generated here.
"""

from __future__ import annotations

import random
from fractions import Fraction

#: one representative Cartan element (t1, t2, t3) per orbit type
REPRESENTATIVES = {
    "FULL": (0, 0, 0),
    "TORUS": (1, 2, -3),
    "DIM4_SHORT": (1, 0, -1),
    "DIM4_LONG": (1, 1, -2),
}
ORBIT_TYPES = tuple(REPRESENTATIVES)

#: digits in the numerator and denominator of a random rescaling factor
SCALE_DIGITS = 9

#: subcommands of a cold_cli block besides its classify calls
FIXED_COMMANDS = ("table", "roots", "derivations")
#: classify calls per orbit type in a block.  The 8:3 weighting is chosen
#: for a steady median, not measured from traffic: with two calls per type
#: the median call lies inside the classify times rather than at the edge
#: between them and the cheaper fixed commands
CLASSIFY_PER_TYPE = 2
BLOCK = len(FIXED_COMMANDS) + CLASSIFY_PER_TYPE * len(ORBIT_TYPES)

SMALL_RADII = (4, 8)
LARGE_RADII = (16, 24)


def stream(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def weyl_image(rng: random.Random, tau) -> tuple:
    """A random Weyl image of tau.

    On traceless triples the Weyl group of G2 (order 12) acts by the
    permutations of the three coordinates and an overall sign.
    """
    perm = list(tau)
    rng.shuffle(perm)
    sign = rng.choice((1, -1))
    return tuple(sign * t for t in perm)


def rescaled(rng: random.Random, tau) -> tuple:
    lo, hi = 10 ** (SCALE_DIGITS - 1), 10**SCALE_DIGITS - 1
    c = Fraction(rng.randint(lo, hi), rng.randint(lo, hi))
    return tuple(c * t for t in tau)


def classify_tau(rng: random.Random, orbit_type: str) -> tuple:
    """A rescaled Weyl image of the representative of ``orbit_type``."""
    return rescaled(rng, weyl_image(rng, REPRESENTATIVES[orbit_type]))


def format_tau(tau) -> str:
    return ",".join(str(Fraction(t)) for t in tau)


def cli_calls(seed: int):
    """Endless seeded sequence of cold_cli calls ``(command, argv, tau)``.

    Calls come in shuffled blocks of eleven: table, roots, derivations and
    CLASSIFY_PER_TYPE ``classify --json`` calls per orbit type, so every
    command and every orbit type keeps a fixed share however many calls a
    run makes.  ``tau`` is the classified triple, or None.
    """
    rng = stream("cold_cli", seed)
    while True:
        block = [(cmd, [cmd], None) for cmd in FIXED_COMMANDS]
        for orbit_type in ORBIT_TYPES * CLASSIFY_PER_TYPE:
            tau = classify_tau(rng, orbit_type)
            block.append(("classify", ["classify", f"--tau={format_tau(tau)}", "--json"], tau))
        rng.shuffle(block)
        yield from block


def census_radii(seed: int) -> tuple:
    """The census workload's two radii: a small and a large lattice ball."""
    rng = stream("census", seed)
    return rng.randint(*SMALL_RADII), rng.randint(*LARGE_RADII)
