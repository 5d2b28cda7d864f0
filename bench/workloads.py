"""The four benchmark workloads: fixed op lists over sumbox's public API.

Each workload has a set-up, which makes the inputs from the seed and is timed
as `setup_s`, and a pass: an ordered list of ops. An op has a name, a `run`
callable whose duration is the op's latency, and a `check` callable that
judges run's output for exact correctness outside the timed region.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

from sumbox import (Mat, Problem, build_scheme, capacity_lp, capacity_symmetric,
                    full_clique, parse_problem, parse_scheme, render_scheme,
                    simulate, simulate_batch, symmetric_problem, true_sum,
                    worked_reference_scheme)
from sumbox.oracle import (_linearized_rows, check_bipartite_merge,
                           check_disjoint_data, check_dsc_gain, check_separability,
                           check_triangle_substitution, exhaustive_decode_check,
                           lp_vertex_enum, named_instances, random_small_problem)
from sumbox.tables import table1_problems

# The CLI's default `scheme build --seed`; workload seed n builds with
# DEFAULT_BUILD_SEED + n, so seed 0 reproduces the CLI's scheme files.
DEFAULT_BUILD_SEED = 20240

# Table 1 of the source paper, kept here so a change to sumbox.tables cannot
# move the gate along with the answer.
TABLE1_GOLDEN = tuple(Fraction(v) for v in (
    "4/5", "3/4", "3/4", "2/3", "2/3", "2/3", "2/3", "1/2", "1/2", "1/2", "2/5"))

# Capacities of problems/*.prob (the first three are rows 1, 2 and 11 of table 1).
PROB_GOLDEN = {
    "example.prob": Fraction(4, 5),
    "example-beta3.prob": Fraction(3, 4),
    "example-unent.prob": Fraction(2, 5),
    "sym-4-2-2.prob": Fraction(5, 6),
}

# Left out so that every op stays under about 0.25 s and a run holds ten
# or more passes: each op's median over passes is only a steady estimate
# when it has that many samples. Seconds per solve on a 2-core x86-64 host: 7.0, 9.9,
# 27.9, 19.2, 6.8, 0.9, 1.5, 0.66 and 0.6. Three cells that promote the LP
# tableau to big ints stay in: (6,1,3), (6,1,4) and (6,2,5), at pivots 89,
# 114 and 239 ((6,3,5), left out, promotes at pivot 247).
LEFT_OUT_CELLS = ((6, 2, 3), (6, 2, 4), (6, 3, 3), (6, 3, 4), (6, 4, 3),
                  (6, 3, 2), (6, 3, 5), (6, 4, 2), (6, 4, 4))

# (6,2,2) carries the largest coding field, q = 2048, in 0.6 s per round
# trip; (6,4,2), with the same field, takes 1.4 s and (6,3,5) 10-12 s, and
# are left out to keep every op short.
SCHEME_CELLS = ((5, 2, 3), (6, 2, 5), (6, 2, 2))
SIMULATE_INSTANCES = ("example", "sym-4-2-2", (5, 2, 3), (6, 4, 2))

# sha256 of render_scheme(build_scheme(P, seed=DEFAULT_BUILD_SEED)), recorded
# when the benchmark was defined; scheme files must stay byte-identical.
SCHEME_SHA256 = {
    "example-beta3": "1155a5db2bc4f56c01dfaa2996eb91f4cf007ded33b20fde174643c8bf54c419",
    "example-unent": "5dee68baa5e2ec29d80ae4d3a7bc8c446053f19e4f896fe0d53fec18f8ad1f72",
    "example": "c076c5a8c3dddf11fa94a96dbe8152abe89021551c4c1a987dd2dd6cfd8a8522",
    "sym-4-2-2": "7914e2db84f2b566ba7437082f01b5b5092e9a33783b5af17de68e8ba8f23782",
    "sym-5-2-3": "a6c4dbe43dcbe95a44540606f7d2be29e6882063e0743208daeeae16b35a16f6",
    "sym-6-2-5": "33d8cc6575eac097a2cf324b635264d9955b33b85b00bca3eb03acb7e73bdf25",
    "sym-6-2-2": "bc42ee013aa794c2bdaf2cc5b57537c924334a354063d584bc801a0bb0924bcd",
    "sym-6-4-2": "b775975e134ad49500c1f72e2fa2418621b4ce73c2ac3f743eb745cb63d3c1b3",
    "two-server": "79ad6c1514023c9b1dbc9254337932bb325581c216afc820cf3d25a2dbb07b7e",
}

# Oracle-LP cases per pass, spread over the size classes (variables, rows) of
# the region lp_vertex_enum enumerates. Enumeration time is set by the class
# and spans four decades, so a fixed quota per class keeps the work of a pass
# the same for every seed while the seed still picks the instances.
ORACLE_CASES = 40  # 41 after the floor of one per class
# Draws per class in 100,000 draws of random_small_problem (seeds 1000-1003),
# for every class it reached whose cases take under 0.15 s. The quota is
# ORACLE_CASES in proportion to these counts, at least one case per class.
# Left out, with draws and seconds per case on a 2-core x86-64 host:
# (6, 14) 3,528 at 0.27-0.42, (6, 16) 10,953 at 0.75-0.88, (7, 15) 494 at
# 0.78-0.88, (7, 17) 4,431 at 2.3-2.7 and (8, 18) 3,874 at 5.5-6.8.
ORACLE_CLASS_DRAWS = {
    (2, 5): 16130, (3, 6): 10034, (3, 9): 14002, (4, 7): 2559, (4, 9): 12042,
    (4, 10): 8878, (5, 8): 328, (5, 10): 6501, (5, 11): 744, (5, 13): 1261,
    (6, 11): 4170, (6, 12): 71,
}
ORACLE_QUOTA = {c: max(1, round(ORACLE_CASES * n / sum(ORACLE_CLASS_DRAWS.values())))
                for c, n in ORACLE_CLASS_DRAWS.items()}
MAX_ORACLE_DRAWS = 100_000


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


@dataclass
class Workload:
    ops: list[Op]
    fresh_inputs: Callable[[], None] | None = None  # redraws per-pass data
    # (name, thunk) checks on what set-up built, run after set-up is timed
    setup_checks: list[tuple[str, Callable[[], bool]]] = field(default_factory=list)


def problem_files(root: Path) -> list[tuple[str, str]]:
    return [(p.name, p.read_text()) for p in sorted((root / "problems").glob("*.prob"))]


def _label(inst) -> str:
    return inst if isinstance(inst, str) else "sym-%d-%d-%d" % inst


def _problem(root: Path, inst) -> Problem:
    if isinstance(inst, str):
        return parse_problem((root / "problems" / f"{inst}.prob").read_text())
    return symmetric_problem(*inst)


def _golden(inst) -> Fraction:
    """Golden capacity; the closed form is evaluated here, in the untimed check."""
    if isinstance(inst, str):
        return PROB_GOLDEN[f"{inst}.prob"]
    return capacity_symmetric(*inst)


# ---------------------------------------------------------------------------
# capacity


def setup_capacity(root: Path, seed: int) -> Workload:
    """The fixed ladder; the seed does not change it."""
    ops = []
    table1 = table1_problems()
    if len(table1) != len(TABLE1_GOLDEN):
        raise RuntimeError("table 1 no longer has 11 maps")
    for (label, P, _), golden in zip(table1, TABLE1_GOLDEN):
        ops.append(Op(f"table1 {label}", lambda P=P: capacity_lp(P).capacity,
                      lambda got, golden=golden: got == golden))
    for name, text in problem_files(root):
        ops.append(Op(name, lambda text=text: capacity_lp(parse_problem(text)).capacity,
                      lambda got, name=name: got == PROB_GOLDEN[name]))
    for S in range(1, 7):
        for a in range(1, S + 1):
            for b in range(1, S + 1):
                if (S, a, b) in LEFT_OUT_CELLS:
                    continue
                P = symmetric_problem(S, a, b)
                ops.append(Op(_label((S, a, b)), lambda P=P: capacity_lp(P).capacity,
                              lambda got, cell=(S, a, b): got == _golden(cell)))
    return Workload(ops)


# ---------------------------------------------------------------------------
# scheme


def setup_scheme(root: Path, seed: int) -> Workload:
    build_seed = DEFAULT_BUILD_SEED + seed
    ops = []
    instances = [name[:-len(".prob")] for name, _ in problem_files(root)] + list(SCHEME_CELLS)
    for inst in instances:
        P = _problem(root, inst)

        def run(P=P):
            text = render_scheme(build_scheme(P, seed=build_seed))
            parsed = parse_scheme(text)
            return text, parsed, parsed.certificate_ok()

        ops.append(Op(_label(inst), run, _scheme_check(inst, seed)))
    return Workload(ops)


def _scheme_check(inst, seed: int):
    def check(out) -> bool:
        text, parsed, certified = out
        if not certified or parsed.rate != _golden(inst) or render_scheme(parsed) != text:
            return False
        return _digest_ok(_label(inst), text, seed)
    return check


def _digest_ok(label: str, text: str, seed: int) -> bool:
    """Under the default build seed, the text must be the recorded one."""
    return seed != 0 or hashlib.sha256(text.encode()).hexdigest() == SCHEME_SHA256[label]


# ---------------------------------------------------------------------------
# simulate

# Realizations per simulate_batch op and single-shot trials per pass, per
# scheme, sized so each kind of op is a steady share of a pass.
BATCH = {"example": 1 << 15, "sym-4-2-2": 1 << 14, "sym-5-2-3": 1 << 13, "sym-6-4-2": 1 << 11}
TRIALS = {"example": 10, "sym-4-2-2": 10, "sym-5-2-3": 30, "sym-6-4-2": 10}


def two_server_problem() -> Problem:
    """Two servers, one stream each, fully entangled: q = 32, 32^4 realizations."""
    return Problem(2, (frozenset({1}), frozenset({2})), full_clique(2))


def setup_simulate(root: Path, seed: int) -> Workload:
    build_seed = DEFAULT_BUILD_SEED + seed
    schemes = {_label(inst): build_scheme(_problem(root, inst), seed=build_seed)
               for inst in SIMULATE_INSTANCES}
    reference = worked_reference_scheme()
    two_server = build_scheme(two_server_problem(), seed=build_seed)
    built = {**schemes, "two-server": two_server}
    rates = {_label(inst): (lambda inst=inst: _golden(inst)) for inst in SIMULATE_INSTANCES}
    rates["two-server"] = lambda: Fraction(1)  # disjoint data on S = 2 servers: 2/S
    # The XOR checks below hold only in characteristic 2.
    setup_checks = [(f"characteristic 2 {label}", lambda sch=sch: sch.ext.big.p == 2)
                    for label, sch in (*built.items(), ("reference", reference))]
    for label, sch in built.items():
        setup_checks.append((f"scheme {label}", lambda label=label, sch=sch: (
            sch.certificate_ok() and sch.rate == rates[label]()
            and _digest_ok(label, render_scheme(sch), seed))))

    rng = np.random.default_rng(seed)
    trial_rng = random.Random(seed)
    inputs: dict[tuple[str, int], Any] = {}

    def fresh_inputs():
        for label, sch in schemes.items():
            q, K, R = sch.ext.big.order, sch.problem.K, sch.R
            inputs[(label, -1)] = rng.integers(0, q, size=(K, R, BATCH[label]), dtype=np.int64)
            for i in range(TRIALS[label]):
                inputs[(label, i)] = [Mat(sch.ext.big, [[trial_rng.randrange(q)] for _ in range(R)])
                                      for _ in range(K)]

    ops = []
    for label, sch in schemes.items():
        ops.append(Op(f"batch {label}",
                      lambda sch=sch, key=(label, -1): (simulate_batch(sch, inputs[key]), inputs[key]),
                      lambda out: np.array_equal(out[0], np.bitwise_xor.reduce(out[1], axis=0))))
    for label, sch in schemes.items():
        for i in range(TRIALS[label]):
            ops.append(Op(f"trial {label} #{i}",
                          lambda sch=sch, key=(label, i): _trial(sch, inputs[key]), _trial_check))
    for name, sch, total in (("exhaustive reference", reference, 1 << 16),
                             ("exhaustive two-server", two_server, 1 << 20)):
        ops.append(Op(name, lambda sch=sch: exhaustive_decode_check(sch),
                      lambda rep, total=total: rep.agree and rep.main_value == total))
    return Workload(ops, fresh_inputs, setup_checks)


def _trial(sch, data):
    """One `scheme simulate` trial: decode, and the CLI's true_sum comparison."""
    return simulate(sch, data), true_sum(sch, data), data


def _trial_check(out) -> bool:
    decoded, expected, data = out
    xor = [0] * decoded.rows
    for col in data:
        xor = [a ^ row[0] for a, row in zip(xor, col.data)]
    return decoded == expected and [row[0] for row in decoded.data] == xor


# ---------------------------------------------------------------------------
# verify


def oracle_size_class(P: Problem) -> tuple[int, int]:
    """(variables, rows) of the region lp_vertex_enum enumerates."""
    rows, nvars, _ = _linearized_rows(P)
    return nvars, len(rows)


def setup_verify(root: Path, seed: int) -> Workload:
    rng = random.Random(seed)
    want = dict(ORACLE_QUOTA)
    cases: list[Problem] = []
    for _ in range(MAX_ORACLE_DRAWS):
        P = random_small_problem(rng)
        key = oracle_size_class(P)
        if want.get(key, 0) > 0:
            want[key] -= 1
            cases.append(P)
            if len(cases) == sum(ORACLE_QUOTA.values()):
                break
    else:
        raise RuntimeError(f"oracle quota not filled in {MAX_ORACLE_DRAWS} draws: {want}")
    # The six suites of check_identities(seed, 100, 5), one op each, with
    # the report count each must return.
    suites = (
        ("triangle substitution", lambda: check_triangle_substitution(seed, 100, 5), 100),
        ("pair-server merge", lambda: check_bipartite_merge(seed + 1, 100, 5), 100),
        ("disjoint data", lambda: check_disjoint_data(), 7),
        ("maximal gain", lambda: check_dsc_gain(seed + 2, 200, 5), 200),
        ("separability", lambda: check_separability(seed + 3, 50, 4), 50),
        ("named instances", lambda: named_instances(), 5),
    )
    ops = [Op(f"identities: {name}", run,
              lambda reps, n=n: len(reps) == n and all(r.agree for r in reps))
           for name, run, n in suites]
    for i, P in enumerate(cases):
        ops.append(Op(f"oracle-lp #{i} {oracle_size_class(P)}",
                      lambda P=P: (capacity_lp(P).optimal_cost, lp_vertex_enum(P)),
                      lambda out: out[0] == out[1]))
    return Workload(ops)


SETUPS = {
    "capacity": setup_capacity,
    "scheme": setup_scheme,
    "simulate": setup_simulate,
    "verify": setup_verify,
}
