"""Command-line front end.

Subcommands: capacity, tables, scheme build|simulate|check, verify.

Exit codes: 0 success, 1 verification mismatch, 2 usage/parse error,
3 resource-guard refusal.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

import numpy as np

from .capacity import (LpSizeError, capacity_fullent, capacity_lp,
                       capacity_symmetric, capacity_unent)
from .field import FieldOrderError, parse_decimal
from .lp import PivotLimitExceeded
from .model import Problem, ProblemError, parse_problem
from .oracle import (DECODE_BATCH, GuardExceeded, check_beta_star, check_identities,
                     check_lp_oracle, exhaustive_decode_check, tap_lines)
from .scheme import (DEFAULT_SEED, Allocation, build_scheme, parse_scheme,
                     render_scheme, simulate_batch)
from .vecops import field_ops

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


def _emit(records: bool, instance: str, value, **fields):
    """One result line: `instance: value`, or a JSON record of the instance,
    then `fields`, then value-num and value-den when value is a Fraction."""
    if records:
        rec = {"instance": instance, **fields}
        if isinstance(value, Fraction):
            rec |= {"value-num": value.numerator, "value-den": value.denominator}
        print(json.dumps(rec))
    else:
        print(f"{instance}: {value}")


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _int_option(option: str, token: str) -> int:
    try:
        return parse_decimal(token)
    except ValueError:
        raise ValueError(f"{option} expects an integer, got {token!r}") from None


def _comb_capped(S: int, k: int, cap: int) -> int:
    """comb(S, k), or cap + 1 once the running product passes cap: at most
    cap + 1 steps on small integers, however large S is."""
    count = 1
    for i in range(min(k, S - k)):
        count = count * (S - i) // (i + 1)  # comb(S, i + 1), increasing in i
        if count > cap:
            return cap + 1
    return count


def _detect_symmetric(P: Problem) -> tuple[int, int, int]:
    """Recover (S, alpha, beta) from a fully symmetric instance or fail.

    Every stream and clique is a subset of the S servers (Problem checks
    this), so the distinct alpha-subsets in W are all of them exactly when
    there are comb(S, alpha) of them, and likewise for E.  Only counts are
    compared, so no subsets are enumerated and a huge S is refused at once."""
    S = P.S
    sizes = {len(w) for w in P.W}
    if len(sizes) != 1:
        raise ProblemError("streams are not uniformly replicated")
    alpha = sizes.pop()
    K = len(set(P.W))
    if _comb_capped(S, alpha, K) != K:
        raise ProblemError("streams do not cover all alpha-subsets of servers")
    bsizes = {len(e) for e in P.E}
    if len(bsizes) != 1:
        raise ProblemError("cliques are not uniform")
    beta = bsizes.pop()
    T = len(set(P.E))
    if _comb_capped(S, beta, T) != T:
        raise ProblemError("cliques do not cover all beta-subsets of servers")
    return S, alpha, beta


def cmd_capacity(args) -> int:
    P = parse_problem(_read(args.file))
    records = args.format == "records"
    # every result is computed before the first line prints, so a refusal
    # (say, the LP that --dsc needs) leaves stdout empty
    if args.closed_form == "symmetric":
        S, alpha, beta = _detect_symmetric(P)
        name, res = f"symmetric S={S} alpha={alpha} beta={beta}", None
        value = capacity_symmetric(S, alpha, beta)  # no cost or witness to print
    else:
        solve = {"fullent": capacity_fullent, "unent": capacity_unent, None: capacity_lp}
        name, res = args.closed_form or "capacity", solve[args.closed_form](P)
        value = res.capacity
    if args.dsc:  # the gain of P's entanglement over the unentangled baseline
        lp_res = res if args.closed_form is None else capacity_lp(P)
        unent = res if args.closed_form == "unent" else capacity_unent(P)
        gain = lp_res.capacity / unent.capacity
    _emit(records, f"{args.file} {name}", value)
    if res is not None and not records:
        print(f"optimal cost: {res.optimal_cost}")
        witness = " ".join(str(v) for v in res.witness)
        print(f"witness: {witness}")
    if args.dsc:
        _emit(records, f"{args.file} dsc-gain", gain)
    return EXIT_OK


def cmd_tables(args) -> int:
    from .tables import check_table1, check_table2

    lp_check_max_s = _int_option("--lp-check-max-s", args.lp_check_max_s)
    records = args.format == "records"
    bad = 0
    checks = {"table1": check_table1, "table2": lambda: check_table2(lp_check_max_s)}
    for table, check in checks.items():  # table 1 prints before table 2 is computed
        for label, got, golden in check():
            _emit(records, f"{table} {label}", got)
            if got != golden:
                bad += 1
                print(f"MISMATCH {label}: computed {got}, golden {golden}", file=sys.stderr)
    return EXIT_MISMATCH if bad else EXIT_OK


def cmd_scheme_build(args) -> int:
    seed = _int_option("--seed", args.seed)
    P = parse_problem(_read(args.file))
    z = None if args.z in (None, "auto") else _int_option("--z", args.z)
    allocation = None
    if args.alloc:
        counts = tuple(_int_option("--alloc", v) for v in args.alloc.split(","))
        if len(counts) != P.gamma:
            raise ProblemError(
                f"--alloc expects {P.gamma} entries (clique-major, server-ascending)")
        allocation = Allocation(counts)
    sch = build_scheme(P, allocation=allocation, z=z, seed=seed)
    text = render_scheme(sch)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote scheme: rate {sch.rate}, q = {sch.ext.big.order}, "
              f"R = {sch.R}, total download {sch.allocation.total}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_scheme_simulate(args) -> int:
    if args.exhaustive:
        for opt in ("trials", "seed"):
            if getattr(args, opt) is not None:
                raise ValueError(f"--{opt} does not apply to scheme simulate --exhaustive")
        rep = exhaustive_decode_check(parse_scheme(_read(args.file)))
        if rep.agree:  # both values are the realization count
            print(f"{rep.main_value}/{rep.oracle_value} pass")
            return EXIT_OK
        print(f"FAIL at realization {rep.counterexample}: "
              f"decoded {rep.main_value}, expected {rep.oracle_value}")
        return EXIT_MISMATCH
    trials = _int_option("--trials", "1000" if args.trials is None else args.trials)
    seed = _int_option("--seed", str(DEFAULT_SEED) if args.seed is None else args.seed)
    sch = parse_scheme(_read(args.file))
    q = sch.ext.big.order
    rng = random.Random(seed)
    K, R = sch.problem.K, sch.R
    ops = field_ops(sch.ext.big)
    fails = 0
    for lo in range(0, trials, DECODE_BATCH):
        n = min(DECODE_BATCH, trials - lo)
        # the draws of one trial at a time, in order: trial, stream, row
        data = np.array([rng.randrange(q) for _ in range(n * K * R)], dtype=np.int64)
        data = data.reshape(n, K, R).transpose(1, 2, 0)
        fails += int((simulate_batch(sch, data) != ops.sum(data)).any(axis=0).sum())
    print(f"{trials - fails}/{trials} pass (seed {seed})")
    return EXIT_MISMATCH if fails else EXIT_OK


def cmd_scheme_check(args) -> int:
    sch = parse_scheme(_read(args.file))
    ok = sch.certificate_ok()
    rate = sch.rate
    cap = capacity_lp(sch.problem).capacity
    print(f"certificate: {'OK' if ok else 'FAIL'}")
    print(f"rate: {rate} (capacity {cap})")
    return EXIT_OK if ok and rate == cap else EXIT_MISMATCH


def cmd_verify(args) -> int:
    used = {"identities": ("seed", "cases", "max_s"), "oracle-lp": ("seed", "cases"),
            "beta-star": ("max_s",)}[args.suite]
    values = {"seed": 0, "cases": 100, "max_s": 0}  # max_s 0: the suite's default
    for opt in values:
        token = getattr(args, opt)
        if token is not None:
            option = "--" + opt.replace("_", "-")
            if opt not in used:
                raise ValueError(f"{option} does not apply to verify {args.suite}")
            values[opt] = _int_option(option, token)
    seed, cases, max_s = values.values()
    if args.suite == "identities" and 0 < max_s < 3:
        raise ValueError(f"--max-s must be 0 (default 5) or at least 3 for identities "
                         f"(the triangle suite needs 3 servers), got {max_s}")
    if args.suite == "identities":
        reports = check_identities(seed, cases, max_s or 5)
    elif args.suite == "oracle-lp":
        reports = check_lp_oracle(seed, cases)
    else:  # beta-star
        reports = check_beta_star(max_s or 10)
    if args.format == "records":
        for rep in reports:
            _emit(True, rep.instance, rep.main_value, ok=rep.agree)
    else:
        print(f"1..{len(reports)}")
        for line in tap_lines(reports):
            print(line)
    return EXIT_OK if all(r.agree for r in reports) else EXIT_MISMATCH


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sumbox",
                                 description="finite-field sum-computation toolkit")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p_cap = sub.add_parser("capacity", help="capacity of a problem file")
    p_cap.add_argument("file")
    p_cap.add_argument("--dsc", action="store_true",
                       help="also report the gain over the unentangled baseline")
    p_cap.add_argument("--closed-form", choices=["fullent", "unent", "symmetric"])
    p_cap.add_argument("--format", choices=["text", "records"], default="text")
    p_cap.set_defaults(func=cmd_capacity)

    p_tab = sub.add_parser("tables", help="regenerate and diff the golden tables")
    p_tab.add_argument("--lp-check-max-s", default="0",
                       help="also LP-cross-check the symmetric grid up to this S")
    p_tab.add_argument("--format", choices=["text", "records"], default="text")
    p_tab.set_defaults(func=cmd_tables)

    p_sch = sub.add_parser("scheme", help="build/simulate/check coding schemes")
    ssub = p_sch.add_subparsers(dest="scmd", required=True)

    p_b = ssub.add_parser("build", help="build a capacity-achieving scheme")
    p_b.add_argument("file")
    p_b.add_argument("--out", help="output scheme file (default: stdout)")
    p_b.add_argument("--z", default="auto", help="extension degree or 'auto'")
    p_b.add_argument("--seed", default=str(DEFAULT_SEED))
    p_b.add_argument("--alloc", help="comma-separated box counts, clique-major order")
    p_b.set_defaults(func=cmd_scheme_build)

    p_s = ssub.add_parser("simulate", help="run decode trials on a scheme file")
    p_s.add_argument("file")
    p_s.add_argument("--trials", help="default 1000 (not with --exhaustive)")
    p_s.add_argument("--exhaustive", action="store_true")
    p_s.add_argument("--seed", help=f"default {DEFAULT_SEED} (not with --exhaustive)")
    p_s.set_defaults(func=cmd_scheme_simulate)

    p_c = ssub.add_parser("check", help="re-validate a scheme file's certificate")
    p_c.add_argument("file")
    p_c.set_defaults(func=cmd_scheme_check)

    p_v = sub.add_parser("verify", help="run a verification suite (TAP output)")
    p_v.add_argument("suite", choices=["identities", "beta-star", "oracle-lp"])
    p_v.add_argument("--seed", help="default 0 (identities, oracle-lp)")
    p_v.add_argument("--cases", help="default 100 (identities, oracle-lp)")
    p_v.add_argument("--max-s",
                     help="largest S; 0 or default: 5 (identities), 10 (beta-star)")
    p_v.add_argument("--format", choices=["text", "records"], default="text")
    p_v.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (GuardExceeded, LpSizeError, FieldOrderError, PivotLimitExceeded) as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
