"""Pinned LP witness vertices.

`build_scheme` reads the download allocation off `capacity_lp(P)`'s witness
(`witness_num` over `witness_den`), so the vertex the simplex stops at is part of every scheme file, not only its
optimal value.  These are the witnesses of the 11 table-1 maps, the example
problem files and every symmetric cell with S <= 5; a change to the LP input
or pivoting that moves any of them changes scheme files.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from sumbox.capacity import capacity_lp
from sumbox.model import parse_problem, symmetric_problem
from sumbox.tables import table1_problems

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

TABLE1 = {
    '({ab,ac,bc,d})': "1/4 1/4 1/4 1/2",
    '({ab,ac,bc}, {ab,ac,d}, {ab,bc,d}, {ac,bc,d})': "1/6 1/6 0 1/6 1/6 1/3 0 1/6 1/6 0 0 0",
    '({ab,ac}, {ab,d}, {ac,d}, {bc,d})': "1/6 1/6 1/6 1/6 1/6 1/6 1/6 1/6",
    '({ab,ac}, {ac,bc,d})': "1/2 0 1/4 1/4 1/2",
    '({ab,ac}, {ac,bc}, {ac,d}, {bc,d})': "1/4 1/4 0 0 1/4 1/4 1/4 1/4",
    '({ab}, {ac,bc,d})': "1/2 1/4 1/4 1/2",
    '({ab}, {ac,bc}, {ac,d}, {bc,d})': "0 1/4 1/4 1/4 1/4 1/4 1/4",
    '({ab,ac,bc}, {d})': "1/2 1/2 0 1",
    '({ab,ac}, {ab,bc}, {ac,bc}, {d})': "1/2 1/2 0 0 0 0 1",
    '({ab,ac}, {bc,d})': "1 0 1/2 1/2",
    '({ab}, {ac}, {bc}, {d})': "1/2 1/2 1/2 1",
}

PROBLEM_FILES = {
    'example-beta3.prob': "1/6 1/6 0 1/6 1/6 1/3 0 1/6 1/6 0 0 0",
    'example-unent.prob': "1/2 1/2 1/2 1",
    'example.prob': "1/4 1/4 1/4 1/2",
    'sym-4-2-2.prob': "1/10 1/10 1/10 1/10 1/10 1/10 1/10 1/10 1/10 1/10 1/10 1/10",
}

SYMMETRIC = {
    (1, 1, 1): "1",
    (2, 1, 1): "1 1",
    (2, 1, 2): "1/2 1/2",
    (2, 2, 1): "1 0",
    (2, 2, 2): "1 0",
    (3, 1, 1): "1 1 1",
    (3, 1, 2): "1/4 1/4 1/4 1/4 1/4 1/4",
    (3, 1, 3): "1/2 1/2 1/2",
    (3, 2, 1): "1/2 1/2 1/2",
    (3, 2, 2): "1/2 1/2 0 0 0 0",
    (3, 2, 3): "1/2 1/2 0",
    (3, 3, 1): "1 0 0",
    (3, 3, 2): "1 0 0 0 0 0",
    (3, 3, 3): "1 0 0",
    (4, 1, 1): "1 1 1 1",
    (4, 1, 2): "0 0 0 0 1/2 1/2 1/2 1/2 0 0 0 0",
    (4, 1, 3): "0 1/2 1/2 1/2 0 1/2 0 0 0 0 0 0",
    (4, 1, 4): "1/2 1/2 1/2 1/2",
    (4, 2, 1): "1/2 1/2 1/2 1/2",
    (4, 2, 2): "1/10 1/10 1/10 1/10 1/10 1/10 1/10 1/10 1/10 1/10 1/10 1/10",
    (4, 2, 3): "1/5 1/5 1/5 1/10 0 1/10 0 1/10 1/10 1/10 0 1/10",
    (4, 2, 4): "1/4 1/4 1/4 1/4",
    (4, 3, 1): "1/3 1/3 1/3 1/3",
    (4, 3, 2): "1/2 1/2 0 0 0 0 0 0 0 0 0 0",
    (4, 3, 3): "1/2 1/2 0 0 0 0 0 0 0 0 0 0",
    (4, 3, 4): "1/2 1/2 0 0",
    (4, 4, 1): "1 0 0 0",
    (4, 4, 2): "1 0 0 0 0 0 0 0 0 0 0 0",
    (4, 4, 3): "1 0 0 0 0 0 0 0 0 0 0 0",
    (4, 4, 4): "1 0 0 0",
    (5, 1, 1): "1 1 1 1 1",
    (5, 1, 2): "1/4 1/4 1/4 1/4 1/4 1/4 0 0 0 0 0 0 0 0 0 0 0 0 1/2 1/2",
    (5, 1, 3): "1/2 1/2 1/2 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1/2 1/2 0 0 0 0 0 0",
    (5, 1, 4): "0 1/2 1/2 1/2 1/2 0 0 1/2 0 0 0 0 0 0 0 0 0 0 0 0",
    (5, 1, 5): "1/2 1/2 1/2 1/2 1/2",
    (5, 2, 1): "1/2 1/2 1/2 1/2 1/2",
    (5, 2, 2): (
        "1/14 1/14 1/14 1/14 1/14 1/14 1/14 1/14 1/14 1/14 1/14 1/14 1/14 1/14 1/14 1/14 "
        "1/14 1/14 1/14 1/14"),
    (5, 2, 3): (
        "1/7 1/7 1/7 1/14 1/14 1/7 0 1/14 1/14 0 0 0 1/14 1/14 1/7 0 1/14 1/14 0 0 0 0 1/14 "
        "1/14 0 0 0 0 0 0"),
    (5, 2, 4): (
        "1/16 1/16 1/16 1/16 1/16 1/16 1/16 1/16 1/16 1/16 1/16 1/16 1/16 1/16 1/16 1/16 "
        "1/16 1/16 1/16 1/16"),
    (5, 2, 5): "1/4 1/4 1/4 1/4 1/4",
    (5, 3, 1): "1/3 1/3 1/3 1/3 1/3",
    (5, 3, 2): (
        "1/18 1/18 1/18 1/18 1/18 1/18 1/18 1/18 1/18 1/18 1/18 1/18 1/18 1/18 1/18 1/18 "
        "1/18 1/18 1/18 1/18"),
    (5, 3, 3): (
        "1/9 1/9 1/9 1/18 0 1/18 0 1/18 1/18 1/18 0 1/18 1/18 0 1/18 0 1/18 1/18 1/18 0 1/18 "
        "0 1/18 1/18 0 0 0 0 0 0"),
    (5, 3, 4): "1/4 1/4 1/4 1/4 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0",
    (5, 3, 5): "1/4 1/4 1/4 0 1/4",
    (5, 4, 1): "1/4 1/4 1/4 1/4 1/4",
    (5, 4, 2): "1/2 1/2 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0",
    (5, 4, 3): "1/2 1/2 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0",
    (5, 4, 4): "1/2 1/2 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0",
    (5, 4, 5): "1/2 1/2 0 0 0",
    (5, 5, 1): "1 0 0 0 0",
    (5, 5, 2): "1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0",
    (5, 5, 3): "1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0",
    (5, 5, 4): "1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0",
    (5, 5, 5): "1 0 0 0 0",
}


def _pinned(text: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in text.split())


def test_table1_witnesses():
    got = {label: capacity_lp(P).witness for label, P, _ in table1_problems()}
    assert got == {label: _pinned(w) for label, w in TABLE1.items()}


@pytest.mark.parametrize("name", sorted(PROBLEM_FILES))
def test_problem_file_witness(name):
    P = parse_problem((PROBLEMS / name).read_text())
    assert capacity_lp(P).witness == _pinned(PROBLEM_FILES[name])


def test_problem_files_all_pinned():
    assert sorted(p.name for p in PROBLEMS.glob("*.prob")) == sorted(PROBLEM_FILES)


def test_symmetric_witnesses_up_to_s5():
    assert sorted(SYMMETRIC) == [(S, a, b) for S in range(1, 6)
                                 for a in range(1, S + 1) for b in range(1, S + 1)]
    for cell, w in SYMMETRIC.items():
        assert capacity_lp(symmetric_problem(*cell)).witness == _pinned(w), cell
