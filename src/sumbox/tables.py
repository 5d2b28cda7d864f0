"""Embedded golden capacity tables and their regeneration.

Table 1: the four-server running example (servers ab, ac, bc, d holding
streams a{ab,ac}, b{ab,bc}, c{ac,bc}, d{d}) under eleven entanglement maps.
Table 2: the symmetric capacity C_alpha^(beta) grid for S = 8.
Both are regenerated from scratch (LP / closed form) and diffed against the
embedded values, so the check is self-contained offline.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from .capacity import capacity_lp, capacity_symmetric
from .model import Problem, beta_cliques, full_clique, singleton_cliques
from .scheme import reference_problem

SERVER_LABELS = {1: "ab", 2: "ac", 3: "bc", 4: "d"}


def _label(cliques) -> str:
    parts = []
    for e in cliques:
        parts.append("{" + ",".join(SERVER_LABELS[s] for s in sorted(e)) + "}")
    return "(" + ", ".join(parts) + ")"


def _fs(*servers):
    return frozenset(servers)


# (cliques, golden capacity) for each entanglement map of the running example
TABLE1: tuple[tuple[tuple[frozenset, ...], Fraction], ...] = (
    (full_clique(4), Fraction(4, 5)),
    (beta_cliques(4, 3), Fraction(3, 4)),
    ((_fs(1, 2), _fs(1, 4), _fs(2, 4), _fs(3, 4)), Fraction(3, 4)),
    ((_fs(1, 2), _fs(2, 3, 4)), Fraction(2, 3)),
    ((_fs(1, 2), _fs(2, 3), _fs(2, 4), _fs(3, 4)), Fraction(2, 3)),
    ((_fs(1), _fs(2, 3, 4)), Fraction(2, 3)),
    ((_fs(1), _fs(2, 3), _fs(2, 4), _fs(3, 4)), Fraction(2, 3)),
    ((_fs(1, 2, 3), _fs(4)), Fraction(1, 2)),
    ((_fs(1, 2), _fs(1, 3), _fs(2, 3), _fs(4)), Fraction(1, 2)),
    ((_fs(1, 2), _fs(3, 4)), Fraction(1, 2)),
    (singleton_cliques(4), Fraction(2, 5)),
)

# C_alpha^(beta) for S = 8; TABLE2[alpha - 1][beta - 1]
TABLE2: tuple[tuple[Fraction, ...], ...] = tuple(
    tuple(Fraction(n, d) for n, d in row) for row in (
        (((1, 8), (1, 4), (1, 4), (1, 4), (1, 4), (1, 4), (1, 4), (1, 4))),
        (((1, 4), (13, 28), (13, 28), (1, 2), (1, 2), (1, 2), (1, 2), (1, 2))),
        (((3, 8), (9, 14), (9, 14), (5, 7), (5, 7), (3, 4), (3, 4), (3, 4))),
        (((1, 2), (11, 14), (11, 14), (61, 70), (61, 70), (13, 14), (13, 14), (1, 1))),
        (((5, 8), (25, 28), (25, 28), (27, 28), (27, 28), (1, 1), (1, 1), (1, 1))),
        (((3, 4), (27, 28), (27, 28), (1, 1), (1, 1), (1, 1), (1, 1), (1, 1))),
        (((7, 8), (1, 1), (1, 1), (1, 1), (1, 1), (1, 1), (1, 1), (1, 1))),
        (((1, 1), (1, 1), (1, 1), (1, 1), (1, 1), (1, 1), (1, 1), (1, 1))),
    )
)


def table1_problems() -> list[tuple[str, Problem, Fraction]]:
    base = reference_problem()
    return [(_label(cliques), replace(base, E=cliques), golden)
            for cliques, golden in TABLE1]


def check_table1() -> list[tuple[str, Fraction, Fraction]]:
    """Recompute every map via the LP; return (label, computed, golden) rows."""
    return [(label, capacity_lp(P).capacity, golden)
            for label, P, golden in table1_problems()]


def check_table2(lp_check_max_s: int = 0) -> list[tuple[str, Fraction, Fraction]]:
    """Recompute the S=8 grid from the closed form; return per-cell rows.

    With lp_check_max_s > 0, also cross-check the closed form against the LP
    for every symmetric instance with S up to that bound (slow for S >= 6).
    """
    from .model import symmetric_problem

    rows = []
    for alpha in range(1, 9):
        for beta in range(1, 9):
            got = capacity_symmetric(8, alpha, beta)
            rows.append((f"C_{alpha}^({beta}) S=8", got, TABLE2[alpha - 1][beta - 1]))
    for S in range(1, lp_check_max_s + 1):
        for alpha in range(1, S + 1):
            for beta in range(1, S + 1):
                lp = capacity_lp(symmetric_problem(S, alpha, beta)).capacity
                closed = capacity_symmetric(S, alpha, beta)
                rows.append((f"LP cross-check C_{alpha}^({beta}) S={S}", lp, closed))
    return rows
