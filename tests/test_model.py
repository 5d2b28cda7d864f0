import pytest

from sumbox.model import (Problem, ProblemError, beta_cliques, colex_subsets,
                          concat_problems, full_clique, merged_map,
                          parse_problem, render_problem, singleton_cliques,
                          symmetric_problem, triangle_substitute)

EXAMPLE_TEXT = """
# pairwise-replicated streams plus a lone one
servers 4
stream a: 1 2
stream b: 1 3
stream c: 2 3
stream d: 4
entangle full
"""


def example():
    return parse_problem(EXAMPLE_TEXT)


def test_parse_basic():
    P = example()
    assert P.S == 4 and P.K == 4 and P.T == 1
    assert P.W[0] == frozenset({1, 2})
    assert P.E[0] == frozenset({1, 2, 3, 4})
    assert P.stream_names == ("a", "b", "c", "d")


def test_parse_entangle_modes():
    none = parse_problem(EXAMPLE_TEXT.replace("entangle full", "entangle none"))
    assert none.E == singleton_cliques(4)
    b2 = parse_problem(EXAMPLE_TEXT.replace("entangle full", "entangle beta 2"))
    assert set(b2.E) == set(beta_cliques(4, 2))
    assert len(b2.E) == 6


def test_parse_explicit_cliques_and_field():
    P = parse_problem("field 3 2\nservers 3\nstream x: 1 2\nclique: 1 2\nclique: 3\n")
    assert P.base_field == (3, 2)
    assert P.E == (frozenset({1, 2}), frozenset({3}))
    assert P.data_field().order == 9


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ProblemError, match="line 2"):
        parse_problem("servers 3\nstream : 1\nclique: 1\n")
    with pytest.raises(ProblemError, match="line 1"):
        parse_problem("bogus directive\n")
    with pytest.raises(ProblemError):
        parse_problem("servers 2\nclique: 1\n")  # no streams


# int() reads "1_6" as 16, "+4" as 4 and the Arabic-Indic digit four as 4;
# every integer token of a problem file must be ASCII digits only.  (A token
# never has surrounding blanks: lines are split on whitespace.)
@pytest.mark.parametrize("token", ["1_6", "+4", "\u0664"])
@pytest.mark.parametrize("lineno, line, template, error", [
    (1, "servers 4", "servers {}", "server count must be an integer"),
    (2, "stream a: 1 2", "stream a: 1 {}", "server indices must be integers"),
    (6, "entangle full", "entangle beta {}", "beta must be an integer"),
    (6, "entangle full", "clique: 1 {}", "server indices must be integers"),
    (7, "", "field {}", "field parameters must be integers"),
    (7, "", "field 2 {}", "field parameters must be integers"),
])
def test_parse_refuses_malformed_integers(token, lineno, line, template, error):
    lines = EXAMPLE_TEXT.strip().splitlines()[1:] + [""]
    assert lines[lineno - 1] == line
    lines[lineno - 1] = template.format(token)
    with pytest.raises(ProblemError, match=f"^line {lineno}: {error}$"):
        parse_problem("\n".join(lines))


# the rules Problem checks, broken on a line of a problem file
@pytest.mark.parametrize("lineno, line, bad, error", [
    (1, "servers 4", "servers 0", "need at least one server"),
    (6, "entangle full", "entangle beta 5", "clique size 5 out of range 1..4"),
    (2, "stream a: 1 2", "stream a: 5", "stream server index out of range 1..4"),
    (6, "entangle full", "clique: 0 1", "clique server index out of range 1..4"),
    (7, "", "field 4", "invalid base field \\(4, 1\\)"),
    (7, "", "servers 5", "repeated servers line \\(first on line 1\\)"),
    (7, "", "entangle none", "repeated entangle line \\(first on line 6\\)"),
    (7, "", "clique: 1 2", "clique line conflicts with the entangle line on line 6"),
    (5, "stream d: 4", "stream a: 4", "duplicate stream name 'a'"),
])
def test_parse_locates_broken_rules(lineno, line, bad, error):
    lines = EXAMPLE_TEXT.strip().splitlines()[1:] + [""]
    assert lines[lineno - 1] == line
    lines[lineno - 1] = bad
    with pytest.raises(ProblemError, match=f"^line {lineno}: {error}$"):
        parse_problem("\n".join(lines))


# conflicts that take more than one line of the example to show; the table
# above covers the rest: the later line is named
@pytest.mark.parametrize("text, lineno, error", [
    ("field 2\nfield 3\nservers 2\nstream a: 1\nstream b: 2\nentangle full\n", 2,
     "repeated field line \\(first on line 1\\)"),
    ("servers 2\nstream a: 1\nstream b: 2\nclique: 1 2\nentangle none\n", 5,
     "entangle line conflicts with the clique line on line 4"),
    ("servers 2\nstream a: 1\nstream b: 2\nentangle none\nclique : 1 2\n", 5,
     "clique line conflicts with the entangle line on line 4"),
], ids=["field", "clique-then-entangle", "entangle-then-clique"])
def test_parse_locates_repeated_and_conflicting_directives(text, lineno, error):
    with pytest.raises(ProblemError, match=f"^line {lineno}: {error}$"):
        parse_problem(text)


def test_duplicate_stream_names_rejected():
    with pytest.raises(ProblemError):
        parse_problem("servers 2\nstream a: 1\nstream a: 2\nclique: 1 2\n")


def test_render_parse_roundtrip():
    for P in (example(), symmetric_problem(4, 2, 3),
              parse_problem("servers 3\nstream x: 1\nclique: 1 2\nclique: 1 2\n")):
        assert parse_problem(render_problem(P)) == P


def test_duplicate_cliques_kept_distinct():
    P = parse_problem("servers 2\nstream a: 1 2\nclique: 1 2\nclique: 1 2\n")
    assert P.T == 2
    assert P.gamma == 4


def test_colex_subsets_order():
    subs = colex_subsets(4, 2)
    assert subs[:3] == [frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3})]
    assert subs[-1] == frozenset({3, 4})


def test_symmetric_problem_shape():
    P = symmetric_problem(5, 2, 3)
    assert P.S == 5
    assert P.K == 10          # C(5,2) streams
    assert P.T == 10          # C(5,3) cliques
    assert all(len(w) == 2 for w in P.W)
    assert all(len(e) == 3 for e in P.E)


def test_merged_map():
    P = example().with_cliques(beta_cliques(4, 2))
    Q = merged_map(P)
    assert Q.S == len(beta_cliques(4, 2))
    assert all(len(e) == 1 for e in Q.E)
    # stream a lives on servers {1,2}; the merged servers containing 1 or 2
    # are the pairs meeting {1,2}
    pair_index = {e: i + 1 for i, e in enumerate(beta_cliques(4, 2))}
    expect = frozenset(pair_index[e] for e in beta_cliques(4, 2)
                       if e & frozenset({1, 2}))
    assert Q.W[0] == expect


def test_triangle_substitute():
    P = example()
    Q = triangle_substitute(P.with_cliques((frozenset({1, 2, 3}), frozenset({4}))), 1)
    assert Q.T == 4  # the 3-clique replaced by its three 2-subsets, {4} kept
    assert frozenset({1, 2}) in Q.E and frozenset({4}) in Q.E
    with pytest.raises(ProblemError):
        triangle_substitute(P, 1)  # 4-clique is not a triangle


def test_concat_problems():
    P1 = parse_problem("servers 2\nstream a: 1\nstream b: 2\nentangle full\n")
    P2 = parse_problem("servers 1\nstream c: 1\nentangle full\n")
    P = concat_problems(P1, P2)
    assert P.S == 3 and P.K == 3
    assert P.W[2] == frozenset({3})
    assert P.E == full_clique(3)


def test_concat_name_collision():
    P1 = parse_problem("servers 1\nstream a: 1\nentangle full\n")
    P2 = parse_problem("servers 1\nstream a: 1\nentangle full\n")
    P = concat_problems(P1, P2)
    assert len(set(P.stream_names)) == 2


def test_invalid_problem_rejected():
    with pytest.raises(ProblemError):
        Problem(2, (frozenset({3}),), full_clique(2))  # server out of range
    with pytest.raises(ProblemError):
        Problem(0, (), ())


def test_cost_index_order():
    P = example().with_cliques((frozenset({2, 3}), frozenset({1})))
    assert P.cost_index() == [(0, 2), (0, 3), (1, 1)]
