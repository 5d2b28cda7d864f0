"""Instance description: data replication map W and entanglement map E.

A Problem is S servers, K data streams (stream k stored on the non-empty
server subset W(k)) and T entanglement cliques (clique t spanning the
non-empty server subset E(t)).  Derived constructions used by the capacity
identities — symmetric families, pair-server merge, triangle substitution,
concatenation — live here too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from math import comb

from .field import MAX_ORDER, FieldOrderError, field_construct, is_prime, parse_decimal

MAX_LP_VARS = 10_000


class ProblemError(ValueError):
    pass


class LpSizeError(ProblemError):
    """Instance exceeds the LP variable-count guard."""


@dataclass(frozen=True)
class Problem:
    S: int
    W: tuple[frozenset[int], ...]
    E: tuple[frozenset[int], ...]
    stream_names: tuple[str, ...] = ()
    base_field: tuple[int, int] = (2, 1)  # (p, r)

    def __post_init__(self):
        check_server_count(self.S)
        W = tuple(frozenset(w) for w in self.W)
        E = tuple(frozenset(e) for e in self.E)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "E", E)
        if not W:
            raise ProblemError("need at least one stream (K >= 1)")
        if not E:
            raise ProblemError("need at least one clique (T >= 1)")
        for name, fam in (("stream", W), ("clique", E)):
            for sub in fam:
                check_subset(name, sub, self.S)
        names = self.stream_names or tuple(f"w{k+1}" for k in range(len(W)))
        if len(names) != len(W):
            raise ProblemError("stream name count mismatch")
        object.__setattr__(self, "stream_names", names)
        check_base_field(*self.base_field)

    @property
    def K(self) -> int:
        return len(self.W)

    @property
    def T(self) -> int:
        return len(self.E)

    @property
    def gamma(self) -> int:
        return sum(len(e) for e in self.E)

    def data_field(self):
        return field_construct(*self.base_field)

    def cost_index(self) -> list[tuple[int, int]]:
        """Order of download-cost entries: (t, s) by clique then ascending server.

        Indices here are 0-based t, 1-based s; Allocation.counts and
        CapacityResult.witness_num hold their entries in this order.
        """
        return [(t, s) for t, e in enumerate(self.E) for s in sorted(e)]


def split_costs(E, D) -> list[dict]:
    """A cost tuple listing each clique of E by ascending server (a
    Problem's cost_index() order) as one {server: value} dict per clique."""
    gamma = sum(map(len, E))
    if len(D) != gamma:
        raise ProblemError(f"cost tuple length {len(D)} != gamma {gamma}")
    it = iter(D)
    return [dict(zip(sorted(e), it)) for e in E]


def check_server_count(S: int):
    if S < 1:
        raise ProblemError("need at least one server")


def check_subset(name: str, sub, S: int):
    """A stream's or clique's server subset is non-empty and within 1..S."""
    if not sub:
        raise ProblemError(f"empty {name} subset")
    if not all(isinstance(s, int) and 1 <= s <= S for s in sub):
        raise ProblemError(f"{name} server index out of range 1..{S}")


def check_base_field(p: int, r: int):
    """The data field (p, r) is F_{p^r} for a prime p and r >= 1."""
    if p > MAX_ORDER:  # before the trial division in is_prime(p)
        raise FieldOrderError(f"field order {p}^{r} exceeds bound {MAX_ORDER}")
    if not is_prime(p) or r < 1:
        raise ProblemError(f"invalid base field ({p}, {r})")


# ---------------------------------------------------------------------------
# standard entanglement maps

def full_clique(S: int) -> tuple[frozenset[int], ...]:
    return (frozenset(range(1, S + 1)),)


def singleton_cliques(S: int) -> tuple[frozenset[int], ...]:
    return tuple(frozenset([s]) for s in range(1, S + 1))


def colex_subsets(S: int, size: int) -> list[frozenset[int]]:
    """All size-subsets of {1..S} in colexicographic order."""
    subs = [frozenset(c) for c in combinations(range(1, S + 1), size)]
    subs.sort(key=lambda sub: tuple(sorted(sub, reverse=True)))
    return subs


def beta_cliques(S: int, beta: int) -> tuple[frozenset[int], ...]:
    if not 1 <= beta <= S:
        raise ProblemError(f"clique size {beta} out of range 1..{S}")
    return tuple(colex_subsets(S, beta))


def symmetric_problem(S: int, alpha: int, beta: int) -> Problem:
    """W = all alpha-subsets, E = all beta-subsets, both in colex order."""
    if not 1 <= alpha <= S:
        raise ProblemError(f"replication size {alpha} out of range 1..{S}")
    W = tuple(colex_subsets(S, alpha))
    names = tuple("w" + "".join(map(str, sorted(w))) for w in W)
    return Problem(S, W, beta_cliques(S, beta), names)


# ---------------------------------------------------------------------------
# derived instance transforms

def merged_map(P: Problem) -> Problem:
    """Pair-server reduction: one server per 2-subset {i,j} of the originals.

    Stream k is stored on pair-server {i,j} iff {i,j} meets W(k); the result
    is unentangled (all singleton cliques).
    """
    if P.S < 2:
        raise ProblemError("merged_map needs S >= 2")
    pairs = colex_subsets(P.S, 2)
    S2 = len(pairs)
    W2 = []
    for w in P.W:
        W2.append(frozenset(i + 1 for i, pr in enumerate(pairs) if pr & w))
    return Problem(S2, tuple(W2), singleton_cliques(S2), P.stream_names, P.base_field)


def triangle_substitute(P: Problem, t: int) -> Problem:
    """Replace 3-clique number t (1-based) by its three 2-subcliques (appended)."""
    if not 1 <= t <= P.T:
        raise ProblemError(f"clique index {t} out of range 1..{P.T}")
    tri = sorted(P.E[t - 1])
    if len(tri) != 3:
        raise ProblemError(f"clique {t} has size {len(tri)}, need 3")
    s1, s2, s3 = tri
    E2 = tuple(e for i, e in enumerate(P.E) if i != t - 1) + (
        frozenset([s1, s2]), frozenset([s1, s3]), frozenset([s2, s3]))
    return replace(P, E=E2)


def concat_problems(P1: Problem, P2: Problem) -> Problem:
    """Disjoint union of server sets and streams, fully entangled overall."""
    S = P1.S + P2.S
    W = list(P1.W) + [frozenset(s + P1.S for s in w) for w in P2.W]
    names = tuple(P1.stream_names) + tuple(P2.stream_names)
    if len(set(names)) != len(names):
        names = tuple(f"a_{n}" for n in P1.stream_names) + tuple(f"b_{n}" for n in P2.stream_names)
    return Problem(S, tuple(W), full_clique(S), names, P1.base_field)


# ---------------------------------------------------------------------------
# problem-file grammar

def parse_problem(text: str) -> Problem:
    """Line-oriented problem files.

    field <p> [<r>]        (optional; defaults 2 1)
    servers <S>
    stream <name>: <i1> <i2> ...
    clique: <i1> <i2> ...
    entangle full | beta <b> | none
    '#' starts a comment.  field, servers and entangle appear at most once,
    entangle and clique lines exclude each other, and stream names are distinct.
    """
    p, r = 2, 1
    S = None
    streams: dict[str, frozenset[int]] = {}  # name -> servers, in file order
    cliques: list[frozenset[int]] = []
    listed = []  # (lineno, "stream" or "clique", servers), checked once S is final
    first = {}  # directive -> line of its first use

    def fail(lineno, msg):
        raise ProblemError(f"line {lineno}: {msg}")

    def at(lineno, rule, *args):
        """rule(*args), with a ProblemError it raises located at lineno."""
        try:
            return rule(*args)
        except ProblemError as exc:
            fail(lineno, exc)

    def ints(lineno, toks, msg):
        try:
            return [parse_decimal(v) for v in toks]
        except ValueError:
            fail(lineno, msg)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        head = toks[0].lower()
        if head == "clique" and len(toks) > 1 and toks[1].startswith(":"):
            head = "clique:"
        if head in ("field", "servers", "entangle") and head in first:
            fail(lineno, f"repeated {head} line (first on line {first[head]})")
        other = {"entangle": "clique:", "clique:": "entangle"}.get(head)
        if other in first:
            fail(lineno, f"{head.rstrip(':')} line conflicts with the "
                         f"{other.rstrip(':')} line on line {first[other]}")
        first.setdefault(head, lineno)
        if head == "field":
            if len(toks) not in (2, 3):
                fail(lineno, "expected: field <p> [<r>]")
            p, r = (ints(lineno, toks[1:], "field parameters must be integers") + [1])[:2]
            at(lineno, check_base_field, p, r)
        elif head == "servers":
            if len(toks) != 2:
                fail(lineno, "expected: servers <S>")
            (S,) = ints(lineno, toks[1:], "server count must be an integer")
            at(lineno, check_server_count, S)
        elif head == "stream":
            if S is None:
                fail(lineno, "servers line must come before streams")
            rest = line[len("stream"):].strip()
            if ":" not in rest:
                fail(lineno, "expected: stream <name>: <indices>")
            name, _, idx = rest.partition(":")
            name = name.strip()
            if not name:
                fail(lineno, "stream needs a name")
            if name in streams:
                fail(lineno, f"duplicate stream name {name!r}")
            servers = frozenset(ints(lineno, idx.split(), "server indices must be integers"))
            listed.append((lineno, "stream", servers))
            streams[name] = servers
        elif head == "clique:":
            idx = line.partition(":")[2]
            servers = frozenset(ints(lineno, idx.split(), "server indices must be integers"))
            listed.append((lineno, "clique", servers))
            cliques.append(servers)
        elif head == "entangle":
            if S is None:
                fail(lineno, "servers line must come before entangle")
            if len(toks) == 2 and toks[1] in ("full", "none"):
                beta = S if toks[1] == "full" else 1
            elif len(toks) == 3 and toks[1] == "beta":
                (beta,) = ints(lineno, toks[2:], "beta must be an integer")
            else:
                fail(lineno, "expected: entangle full | beta <b> | none")
            # comb(S, beta) cliques of beta servers, one download cost per
            # (clique, server), refused before any is built; comb(S, beta) * beta
            # >= S for 1 <= beta <= S, so a large S never reaches comb
            if 1 <= beta <= S and (S > MAX_LP_VARS or comb(S, beta) * beta > MAX_LP_VARS):
                raise LpSizeError(f"line {lineno}: entangle {' '.join(toks[1:])} on {S} servers "
                                  f"needs more LP variables than the guard {MAX_LP_VARS}")
            if toks[1] == "full":
                cliques.extend(full_clique(S))
            elif toks[1] == "none":
                cliques.extend(singleton_cliques(S))
            else:
                cliques.extend(at(lineno, beta_cliques, S, beta))
        else:
            fail(lineno, f"unknown directive {toks[0]!r}")
    if S is None:
        raise ProblemError("missing servers line")
    for lineno, name, servers in listed:
        at(lineno, check_subset, name, servers, S)
    if not streams:
        raise ProblemError("no streams defined")
    if not cliques:
        raise ProblemError("no cliques defined")
    return Problem(S, tuple(streams.values()), tuple(cliques), tuple(streams), (p, r))


def render_problem(P: Problem) -> str:
    lines = [f"field {P.base_field[0]} {P.base_field[1]}", f"servers {P.S}"]
    for name, w in zip(P.stream_names, P.W):
        lines.append(f"stream {name}: " + " ".join(map(str, sorted(w))))
    for e in P.E:
        lines.append("clique: " + " ".join(map(str, sorted(e))))
    return "\n".join(lines) + "\n"
