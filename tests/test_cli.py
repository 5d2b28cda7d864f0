import dataclasses
import json
import os
import re
import signal
from fractions import Fraction
from pathlib import Path

import pytest

from sumbox import (build_scheme, capacity, cli, lp, model, oracle, parse_problem,
                    render_scheme, scheme, tables)
from sumbox.cli import main
from sumbox.field import field_construct
from sumbox.nsumbox import box_to_text, build_half_mds_box

HERE = os.path.dirname(__file__)
PROBLEMS = os.path.join(HERE, "..", "problems")


def prob(name):
    return os.path.join(PROBLEMS, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_capacity_full(capsys):
    code, out, _ = run(capsys, "capacity", prob("example.prob"))
    assert code == 0
    assert "capacity: 4/5" in out
    assert "optimal cost: 5/4" in out


def test_capacity_beta3(capsys):
    code, out, _ = run(capsys, "capacity", prob("example-beta3.prob"))
    assert code == 0
    assert "capacity: 3/4" in out


def test_capacity_unentangled(capsys):
    code, out, _ = run(capsys, "capacity", prob("example-unent.prob"))
    assert code == 0
    assert "capacity: 2/5" in out


def test_capacity_dsc_flag(capsys):
    code, out, _ = run(capsys, "capacity", prob("example.prob"), "--dsc")
    assert code == 0
    assert "dsc-gain: 2" in out


def test_capacity_records_format(capsys):
    code, out, _ = run(capsys, "capacity", prob("example.prob"), "--format", "records")
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert rec["value-num"] == 4 and rec["value-den"] == 5


def test_capacity_closed_form_symmetric(capsys):
    code, out, _ = run(capsys, "capacity", prob("sym-4-2-2.prob"),
                       "--closed-form", "symmetric")
    assert code == 0
    assert "5/6" in out


def test_capacity_closed_form_symmetric_dsc(capsys):
    code, out, err = run(capsys, "capacity", prob("sym-4-2-2.prob"),
                         "--closed-form", "symmetric", "--dsc")
    assert (code, err) == (0, "")
    assert out.splitlines() == [f"{prob('sym-4-2-2.prob')} symmetric S=4 alpha=2 beta=2: 5/6",
                                f"{prob('sym-4-2-2.prob')} dsc-gain: 5/3"]


@pytest.mark.parametrize("form, want", [
    ("text", ["{p} unent: 2/5", "optimal cost: 5/2", "witness: 1/2 1/2 1/2 1", "{p} dsc-gain: 15/8"]),
    ("records", ['{{"instance": "{p} unent", "value-num": 2, "value-den": 5}}',
                 '{{"instance": "{p} dsc-gain", "value-num": 15, "value-den": 8}}']),
])
def test_capacity_unent_dsc_solves_the_unentangled_lp_once(capsys, monkeypatch, form, want):
    # the unentangled capacity that --closed-form unent prints is the gain's denominator
    calls = []

    def counted(P, solve=cli.capacity_unent):
        calls.append(P)
        return solve(P)

    monkeypatch.setattr(cli, "capacity_unent", counted)
    p = prob("example-beta3.prob")
    code, out, err = run(capsys, "capacity", p, "--closed-form", "unent", "--dsc", "--format", form)
    assert (code, err, len(calls)) == (0, "", 1)
    assert out.splitlines() == [line.format(p=p) for line in want]


def test_capacity_closed_form_symmetric_rejects_asymmetric(capsys):
    code, _, err = run(capsys, "capacity", prob("example.prob"),
                       "--closed-form", "symmetric")
    assert code == 2


@pytest.mark.parametrize("text, sets", [
    ("servers 2000000\nstream a: 1\nclique: 1\n", "streams"),
    (f"servers 2000\nstream a: {' '.join(map(str, range(1, 2001)))}\n"
     f"clique: {' '.join(map(str, range(1, 1001)))}\n", "cliques"),
], ids=["2e6-streams", "comb-2000-1000-cliques"])
def test_capacity_closed_form_symmetric_refuses_a_huge_instance_at_once(tmp_path, capsys,
                                                                        text, sets):
    # comb(S, 1) alpha-subsets, or comb(2000, 1000) beta-subsets, are counted,
    # never enumerated
    path = tmp_path / "big.prob"
    path.write_text(text)
    code, out, err = run_within(capsys, 1, "capacity", str(path), "--closed-form", "symmetric")
    assert (code, out) == (2, "")
    assert f"{sets} do not cover all" in err


@pytest.mark.parametrize("form", ["text", "records"])
@pytest.mark.parametrize("closed_form", ["fullent", "unent"])
def test_capacity_dsc_refusal_prints_nothing(tmp_path, capsys, closed_form, form):
    # the closed form has a value, but the LP that --dsc needs refuses a
    # stream on no clique; nothing is printed before that refusal
    path = tmp_path / "uncovered.prob"
    path.write_text("servers 3\nstream a: 1\nstream b: 3\nclique: 1 2\n")
    code, out, err = run(capsys, "capacity", str(path), "--closed-form", closed_form, "--dsc",
                         "--format", form)
    assert (code, out) == (2, "")
    assert err == "error: stream b is not covered by any clique; capacity is zero\n"


def test_capacity_missing_file(capsys):
    code, _, err = run(capsys, "capacity", prob("missing.prob"))
    assert code == 2


def test_capacity_bad_problem_file(tmp_path, capsys):
    bad = tmp_path / "bad.prob"
    bad.write_text("servers two\n")
    code, _, err = run(capsys, "capacity", str(bad))
    assert code == 2


def test_tables_ok(capsys):
    code, out, _ = run(capsys, "tables")
    assert code == 0
    assert "table1" in out and "table2" in out


def test_tables_lp_check_cross_checks_every_symmetric_cell(capsys, monkeypatch):
    code, out, err = run(capsys, "tables", "--lp-check-max-s", "5")
    assert (code, err) == (0, "")
    assert sum(" LP cross-check " in line for line in out.splitlines()) == 55  # S <= 5: 1+4+...+25
    # an LP capacity that differs from the closed form in one cell fails the command
    real, cell = tables.capacity_lp, model.symmetric_problem(4, 2, 2)

    def wrong_in_one_cell(P):
        res = real(P)
        return dataclasses.replace(res, optimal_cost=1 / (res.capacity + 1)) if P == cell else res

    monkeypatch.setattr(tables, "capacity_lp", wrong_in_one_cell)
    code, _, err = run(capsys, "tables", "--lp-check-max-s", "5")
    assert code == 1
    assert err == "MISMATCH LP cross-check C_2^(2) S=4: computed 11/6, golden 5/6\n"


def test_byte_identical_reruns(capsys):
    _, out1, _ = run(capsys, "capacity", prob("example.prob"), "--dsc")
    _, out2, _ = run(capsys, "capacity", prob("example.prob"), "--dsc")
    assert out1 == out2


def test_scheme_build_check_simulate(tmp_path, capsys):
    out_file = str(tmp_path / "example.scheme")
    code, out, _ = run(capsys, "scheme", "build", prob("example.prob"),
                       "--out", out_file)
    assert code == 0
    assert "rate 4/5" in out

    code, out, _ = run(capsys, "scheme", "check", out_file)
    assert code == 0
    assert "certificate: OK" in out

    code, out, _ = run(capsys, "scheme", "simulate", out_file, "--trials", "50")
    assert code == 0
    assert "50/50 pass" in out


def test_scheme_simulate_past_order_2_16(tmp_path, capsys):
    # q = 2^17: the field tables and the simulation kernel cover every order
    out_file = str(tmp_path / "z17.scheme")
    code, out, _ = run(capsys, "scheme", "build", prob("example.prob"),
                       "--z", "17", "--out", out_file)
    assert code == 0
    assert "q = 131072" in out
    code, out, _ = run(capsys, "scheme", "simulate", out_file, "--trials", "5")
    assert code == 0
    assert out == "5/5 pass (seed 20240)\n"


def test_scheme_build_deterministic(tmp_path, capsys):
    a = str(tmp_path / "a.scheme")
    b = str(tmp_path / "b.scheme")
    run(capsys, "scheme", "build", prob("example.prob"), "--out", a, "--seed", "3")
    run(capsys, "scheme", "build", prob("example.prob"), "--out", b, "--seed", "3")
    assert Path(a).read_text() == Path(b).read_text()


def test_scheme_check_detects_corruption(tmp_path, capsys):
    out_file = str(tmp_path / "example.scheme")
    run(capsys, "scheme", "build", prob("example.prob"), "--out", out_file)
    text = Path(out_file).read_text()
    # corrupt the decoder: swap a digit inside the DECODER section
    head, _, tail = text.partition("DECODER")
    dec_lines = tail.splitlines()
    for i, line in enumerate(dec_lines[2:], start=2):  # skip header lines
        if "[" in line:
            dec_lines[i] = line.replace("[", "[", 1)
            # flip the first coefficient digit we can find
            j = line.index("[") + 1
            ch = line[j]
            repl = "1" if ch == "0" else "0"
            dec_lines[i] = line[:j] + repl + line[j + 1:]
            break
    corrupted = head + "DECODER" + "\n".join(dec_lines)
    bad_file = str(tmp_path / "bad.scheme")
    Path(bad_file).write_text(corrupted)
    code, out, _ = run(capsys, "scheme", "check", bad_file)
    assert code in (1, 2)  # certificate failure, or rejected as unparseable


def test_scheme_exhaustive_guard(tmp_path, capsys):
    out_file = str(tmp_path / "example.scheme")
    run(capsys, "scheme", "build", prob("example.prob"), "--out", out_file)
    code, _, err = run(capsys, "scheme", "simulate", out_file, "--exhaustive")
    assert code == 3
    assert "guard" in err


@pytest.mark.parametrize("flip, code, want", [
    (False, 0, "65536/65536 pass\n"),
    (True, 1, "FAIL at realization "),
])
def test_scheme_simulate_exhaustive_prints_the_sweep(tmp_path, capsys, flip, code, want):
    # the worked reference scheme over all 65536 realizations, as rendered and
    # with the first DECODER entry flipped from 0 to 1
    text = render_scheme(scheme.worked_reference_scheme())
    if flip:
        head, dec = text.split("DECODER\n")
        header, first = dec.split("\n", 1)
        assert first.startswith("[0] ")
        text = f"{head}DECODER\n{header}\n[1]{first[3:]}"
    scheme_file = tmp_path / "reference.scheme"
    scheme_file.write_text(text)
    got, out, err = run(capsys, "scheme", "simulate", str(scheme_file), "--exhaustive")
    assert (got, err) == (code, "")
    assert out.startswith(want) and out.count("\n") == 1


@pytest.mark.parametrize("opt", ["--trials", "--seed"])
def test_scheme_simulate_exhaustive_refuses_trials_and_seed(tmp_path, capsys, example_scheme,
                                                            opt):
    scheme_file = tmp_path / "example.scheme"
    scheme_file.write_text(example_scheme)
    code, out, err = run(capsys, "scheme", "simulate", str(scheme_file), "--exhaustive", opt, "3")
    assert (code, out) == (2, "")
    assert err == f"error: {opt} does not apply to scheme simulate --exhaustive\n"
    # without --exhaustive both apply, and both keep their defaults
    assert run(capsys, "scheme", "simulate", str(scheme_file), opt, "3")[0] == 0
    assert run(capsys, "scheme", "simulate", str(scheme_file)) == (
        0, f"1000/1000 pass (seed {scheme.DEFAULT_SEED})\n", "")


def test_capacity_names_the_first_uncovered_stream_in_file_order(tmp_path, capsys):
    # streams x and v sit on server 3, which no clique meets; x comes first
    bad = tmp_path / "uncovered.prob"
    bad.write_text("servers 3\nstream y: 1\nstream x: 3\nstream w: 2\nstream v: 3\n"
                   "clique: 1 2\n")
    code, out, err = run(capsys, "capacity", str(bad))
    assert (code, out) == (2, "")
    assert err == "error: stream x is not covered by any clique; capacity is zero\n"


@pytest.mark.parametrize("argv, reports", [
    (["identities", "--cases", "3", "--max-s", "4"], lambda: oracle.check_identities(0, 3, 4)),
    (["oracle-lp", "--cases", "3"], lambda: oracle.check_lp_oracle(0, 3)),
    (["beta-star", "--max-s", "4"], lambda: oracle.check_beta_star(4)),
])
def test_verify_records_keys(capsys, argv, reports):
    # one record per report: instance, ok, then value-num and value-den only
    # where the report's main value is a Fraction
    code, out, err = run(capsys, "verify", *argv, "--format", "records")
    assert (code, err) == (0, "")
    records = [json.loads(line) for line in out.splitlines()]
    want = reports()
    assert len(records) == len(want)
    for rec, rep in zip(records, want):
        value = rep.main_value
        keys = ["instance", "ok"] + ["value-num", "value-den"] * isinstance(value, Fraction)
        assert list(rec) == keys
        assert (rec["instance"], rec["ok"]) == (rep.instance, True)
        if isinstance(value, Fraction):
            assert Fraction(rec["value-num"], rec["value-den"]) == value
    # beta-star's main values are ints; the other two suites have Fraction ones
    fractions = sum(isinstance(rep.main_value, Fraction) for rep in want)
    assert (fractions == 0) == (argv[0] == "beta-star")


# failing reports of three kinds of main value: a tuple (disjoint data), a
# string (separability, here with a counterexample) and a Fraction
FAILING_REPORTS = [
    oracle.OracleReport("disjoint data S=3: fullent = 2-party = 2/S",
                        (Fraction(2, 3), Fraction(1, 2)), Fraction(2, 3), False),
    oracle.OracleReport("separability #1 (S1=2, S2=1)", "additive=True",
                        "both gains 2: False", False, (1, 2)),
    oracle.OracleReport("maximal gain #1 (S=2, K=1)", Fraction(9, 5), Fraction(2), False),
]


def test_verify_failing_records_carry_the_tap_values(capsys, monkeypatch):
    monkeypatch.setattr(cli, "check_identities", lambda seed, cases, max_s: FAILING_REPORTS)
    code, out, err = run(capsys, "verify", "identities")
    assert (code, err) == (1, "")
    tap = out.splitlines()
    assert tap == [
        "1..3",
        "not ok 1 - disjoint data S=3: fullent = 2-party = 2/S "
        "(main=(Fraction(2, 3), Fraction(1, 2)), oracle=2/3)",
        "not ok 2 - separability #1 (S1=2, S2=1) "
        "(main=additive=True, oracle=both gains 2: False, witness=(1, 2))",
        "not ok 3 - maximal gain #1 (S=2, K=1) (main=9/5, oracle=2)",
    ]
    code, out, err = run(capsys, "verify", "identities", "--format", "records")
    assert (code, err) == (1, "")
    records = [json.loads(line) for line in out.splitlines()]
    assert [list(rec) for rec in records] == [
        ["instance", "ok", "main", "oracle"],
        ["instance", "ok", "main", "oracle", "witness"],
        ["instance", "ok", "main", "oracle", "value-num", "value-den"],
    ]
    assert records[2]["value-num"] == 9 and records[2]["value-den"] == 5
    for line, rec, rep in zip(tap[1:], records, FAILING_REPORTS):
        assert (rec["instance"], rec["ok"]) == (rep.instance, False)
        shown = ", ".join(f"{key}={rec[key]}" for key in ("main", "oracle", "witness") if key in rec)
        assert line.endswith(f" - {rep.instance} ({shown})")


def test_verify_beta_star(capsys):
    code, out, _ = run(capsys, "verify", "beta-star", "--max-s", "6")
    assert code == 0
    assert out.startswith("1..")
    assert "not ok" not in out


def test_verify_oracle_lp(capsys):
    code, out, _ = run(capsys, "verify", "oracle-lp", "--cases", "5")
    assert code == 0
    assert "not ok" not in out


def test_verify_identities_quick(capsys):
    code, out, _ = run(capsys, "verify", "identities", "--cases", "5")
    assert code == 0
    assert "strict gap" in out


def test_verify_identities_reports_a_gain_mismatch(capsys, monkeypatch):
    # C_fullent scaled by 9/10 breaks C_fullent / C_unent = min(2, 1/C_unent): the
    # suite reports the failing cases and exits 1 rather than raising
    def scaled(P, solve=capacity.capacity_fullent):
        res = solve(P)
        return dataclasses.replace(res, optimal_cost=res.optimal_cost * Fraction(10, 9))
    for module in (capacity, oracle):
        monkeypatch.setattr(module, "capacity_fullent", scaled)
    code, out, err = run(capsys, "verify", "identities", "--cases", "5")
    assert (code, err) == (1, "")
    assert re.search(r"^not ok \d+ - maximal gain #", out, re.M)


@pytest.mark.parametrize("max_s", ["1", "2", "-1"])
def test_verify_identities_rejects_small_max_s(capsys, max_s):
    code, out, err = run(capsys, "verify", "identities", "--max-s", max_s)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --max-s")


@pytest.mark.parametrize("suite", ["identities", "oracle-lp", "beta-star"])
def test_verify_rejects_negative_cases(capsys, suite):
    code, out, err = run(capsys, "verify", suite, "--cases", "-3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: --cases")


def test_usage_error(capsys):
    code = main(["bogus-subcommand"])
    assert code == 2


@pytest.mark.parametrize("key", ["d", "z", "base_modulus", "big_modulus"])
def test_scheme_check_missing_extension_key(tmp_path, capsys, key):
    out_file = str(tmp_path / "example.scheme")
    run(capsys, "scheme", "build", prob("example.prob"), "--out", out_file)
    lines = Path(out_file).read_text().splitlines(keepends=True)
    start = lines.index("EXTENSION\n")
    drop = next(i for i in range(start + 1, len(lines))
                if lines[i].split()[0] == key)
    bad_file = str(tmp_path / "bad.scheme")
    Path(bad_file).write_text("".join(lines[:drop] + lines[drop + 1:]))
    code, _, err = run(capsys, "scheme", "check", bad_file)
    assert code == 2
    assert f"no '{key}' line" in err


@pytest.mark.parametrize("option, value", [("--z", "x"), ("--alloc", "1,x")])
def test_scheme_build_names_a_non_integer_option(capsys, option, value):
    code, out, err = run(capsys, "scheme", "build", prob("example.prob"), option, value)
    assert (code, out) == (2, "")
    assert err == f"error: {option} expects an integer, got 'x'\n"


@pytest.mark.parametrize("alloc", ["1,1,1", "1,1,1,1,1"])
def test_scheme_build_refuses_an_alloc_of_the_wrong_length(capsys, alloc):
    code, out, err = run(capsys, "scheme", "build", prob("example.prob"), "--alloc", alloc)
    assert (code, out) == (2, "")
    assert err == "error: --alloc expects 4 entries (clique-major, server-ascending)\n"


def test_scheme_build_has_no_data_field_option(capsys):
    # the problem file's `field p r` line is the one place that sets the data field
    code, out, err = run(capsys, "scheme", "build", prob("example.prob"), "--d", "2^2")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --d 2^2" in err


# int() takes each of these tokens, as 16 or 4; an option must be ASCII digits
MALFORMED_INTEGERS = ["1_6", "+4", " 4", "\u0664"]


@pytest.mark.parametrize("token", MALFORMED_INTEGERS)
@pytest.mark.parametrize("option, template", [("--z", "{}"), ("--alloc", "1,1,1,{}")])
def test_scheme_build_refuses_malformed_integer_options(capsys, token, option, template):
    code, out, err = run(capsys, "scheme", "build", prob("example.prob"),
                         option, template.format(token))
    assert (code, out) == (2, "")
    assert err == f"error: {option} expects an integer, got {token!r}\n"


@pytest.mark.parametrize("token", ["1_6", "+4", "\u0664"])
def test_capacity_refuses_a_malformed_integer_in_the_file(tmp_path, capsys, token):
    text = Path(prob("example.prob")).read_text()
    bad = tmp_path / "bad.prob"
    bad.write_text(text.replace("servers 4", f"servers {token}"))
    code, out, err = run(capsys, "capacity", str(bad))
    assert (code, out) == (2, "")
    assert "server count must be an integer" in err


def problem_over(tmp_path, field_line):
    """example.prob with its `field` line replaced, written under tmp_path."""
    path = tmp_path / "example-d.prob"
    path.write_text(Path(prob("example.prob")).read_text().replace("field 2\n", field_line + "\n"))
    return str(path)


# p^r above the bound with a small p: the problem file reads, only a build needs the field
@pytest.mark.parametrize("p, r", [(2, 21), (3, 13), (1031, 2)])
def test_d_field_above_the_bound_is_a_guard(tmp_path, capsys, p, r):
    path = problem_over(tmp_path, f"field {p} {r}")
    code, out, _ = run(capsys, "capacity", path)  # the LP needs no field
    assert (code, out.splitlines()[0]) == (0, f"{path} capacity: 4/5")
    code, out, err = run(capsys, "scheme", "build", path)
    assert (code, out) == (3, "")
    assert err.startswith(f"guard: field order {p}^{r} exceeds bound 1048576")


@pytest.mark.parametrize("line, error", [
    ("field x", "field parameters must be integers"),
    ("field 6", "invalid base field (6, 1)"),
    ("field 1", "invalid base field (1, 1)"),
    ("field 6 1", "invalid base field (6, 1)"),
    ("field 2 0", "invalid base field (2, 0)"),
])
def test_scheme_build_names_a_bad_field_line(tmp_path, capsys, line, error):
    code, out, err = run(capsys, "scheme", "build", problem_over(tmp_path, line))
    assert (code, out, err) == (2, "", f"error: line 2: {error}\n")


# the EXTENSION d line restates the PROBLEM field line; the scheme codes over it
@pytest.mark.parametrize("line, p, r", [("field 2", 2, 1), ("field 2 2", 2, 2),
                                        ("field 3", 3, 1)])
def test_scheme_build_codes_over_the_problem_field(tmp_path, capsys, line, p, r):
    code, out, _ = run(capsys, "scheme", "build", problem_over(tmp_path, line))
    assert code == 0
    assert f"\nfield {p} {r}\n" in out and f"\nd {p} {r}\n" in out
    sch = scheme.parse_scheme(out)
    assert (sch.ext.base.p, sch.ext.base.r) == (p, r)


def test_scheme_built_on_d_field_checks(tmp_path, capsys):
    out_file = tmp_path / "d4.scheme"
    code, _, _ = run(capsys, "scheme", "build", problem_over(tmp_path, "field 2 2"),
                     "--out", str(out_file))
    assert code == 0
    text = out_file.read_text()
    assert "field 2 2\n" in text and "d 2 2\n" in text  # the file's F_4, stated in both
    code, out, _ = run(capsys, "scheme", "check", str(out_file))
    assert code == 0
    assert "certificate: OK" in out
    # the d line restates the PROBLEM field; a scheme whose two disagree is refused
    out_file.write_text(text.replace("field 2 2\n", "field 2 1\n"))
    code, out, err = run(capsys, "scheme", "check", str(out_file))
    assert (code, out) == (2, "")
    assert err == "error: EXTENSION 'd 2 2' is not the PROBLEM field 'field 2 1'\n"


@pytest.mark.parametrize("section", ["SEED", "DECODER", "EXTENSION"])
def test_scheme_check_refuses_a_repeated_section(tmp_path, capsys, example_scheme, section):
    lines = example_scheme.splitlines(keepends=True)
    start = lines.index(section + "\n")
    end = next((i for i in range(start + 1, len(lines))
                if lines[i].rstrip() in scheme._SECTIONS), len(lines))
    bad = tmp_path / "bad.scheme"
    bad.write_text(example_scheme + "".join(lines[start:end]))  # the section once more
    code, out, err = run(capsys, "scheme", "check", str(bad))
    assert (code, out, err) == (2, "", f"error: repeated section {section}\n")


@pytest.mark.parametrize("label, where, skip", [("DECODER", "DECODER", 2),
                                               ("stream a", "ENCODERS stream a", 2),
                                               ("clique 1", "BOXES clique 1", 3)])
def test_scheme_check_refuses_an_extra_matrix_row(tmp_path, capsys, example_scheme,
                                                  label, where, skip):
    # the first row of the matrix under `label` (past its header lines) written twice:
    # one row more than its header counts
    lines = example_scheme.splitlines(keepends=True)
    first = lines.index(label + "\n") + skip
    bad = tmp_path / "bad.scheme"
    bad.write_text("".join(lines[:first + 1] + lines[first:]))
    code, out, err = run(capsys, "scheme", "check", str(bad))
    assert (code, out, err) == (2, "", f"error: {where}: row count mismatch\n")


@pytest.mark.parametrize("line, why", [("foo bar", "unknown"), ("z 8", "repeated"),
                                       ("d 2 1", "repeated")])
def test_scheme_check_refuses_an_unknown_or_repeated_extension_key(tmp_path, capsys,
                                                                   example_scheme, line, why):
    bad = tmp_path / "bad.scheme"
    bad.write_text(example_scheme.replace("ALLOCATION\n", f"{line}\nALLOCATION\n"))
    code, out, err = run(capsys, "scheme", "check", str(bad))
    assert (code, out, err) == (2, "", f"error: EXTENSION line {line!r}: {why} key\n")


@pytest.mark.parametrize("cmd", ["check", "simulate"])
@pytest.mark.parametrize("block, where", [
    ("stream a", "ENCODERS stream a is 3x4, expected 4x4"),
    ("DECODER", "DECODER has 4 columns, expected sum of N_t = 5"),
    # a coefficient 9 in the first row of a matrix over F_2^7
    ("clique 1", "BOXES clique 1: bad entry"),
    ("stream b", "ENCODERS stream b: bad entry"),
    ("DECODER", "DECODER: bad entry"),
    # a whole line replaced by the quoted text
    ("box 5 128", "BOXES clique 1: bad box header 'box 5'"),
    ("5 10 F128", "BOXES clique 1: bad matrix header '5 ten F128'"),
    ("1 4 2", "ALLOCATION line '1 4': expected 3 integers"),
    ("1 4 2", "ALLOCATION line '1 4 two': expected 3 integers"),
    ("d 2 1", "EXTENSION line 'd 2 one': expected 2 integers"),
    ("z 7", "EXTENSION line 'z 7 1': expected 1 integer"),
    ("20240", "SEED line '2024O': expected 1 integer"),
    # a valid box over F_64 in a scheme over F_128
    ("box 5 128", "BOXES clique 1: field mismatch: header F64, expected F128"),
])
def test_scheme_shape_errors_are_located(tmp_path, capsys, cmd, block, where):
    out_file = str(tmp_path / "example.scheme")
    run(capsys, "scheme", "build", prob("example.prob"), "--out", out_file)
    lines = (tmp_path / "example.scheme").read_text().splitlines()
    at = lines.index(block) + 1  # the matrix header "rows cols field"
    if "field mismatch" in where:
        box = box_to_text(build_half_mds_box(5, field_construct(2, 6))).splitlines()
        lines[at - 1:at - 1 + len(box)] = box
    elif "bad entry" in where:
        at = next(i for i in range(at, len(lines)) if lines[i].startswith("["))
        lines[at] = "[9" + lines[at][2:]
    elif "'" in where:
        lines[at - 1] = where.split("'")[1]
    elif block == "DECODER":  # one column short: drop each row's last entry
        rows, cols, name = lines[at].split()
        lines[at] = f"{rows} {int(cols) - 1} {name}"
        for i in range(at + 1, at + 1 + int(rows)):
            lines[i] = lines[i].rsplit(" ", 1)[0]
    else:  # one row short
        rows, cols, name = lines[at].split()
        lines[at] = f"{int(rows) - 1} {cols} {name}"
        del lines[at + 1]
    bad_file = tmp_path / "bad.scheme"
    bad_file.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "scheme", cmd, str(bad_file))
    assert (code, out) == (2, "")
    assert err == f"error: {where}\n" or err.startswith(f"error: {where} ")


def test_field_order_above_bound_is_a_guard(capsys):
    code, out, err = run(capsys, "scheme", "build", prob("example.prob"), "--z", "21")
    assert (code, out) == (3, "")
    assert err.startswith("guard: field order 2^21 exceeds bound 1048576")


def count_calls(monkeypatch, *names):
    """Wrap each named function of sumbox.scheme; returns its call counts."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(scheme, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(scheme, name, counted)
    return calls


def test_failed_decoder_search_is_an_error_without_a_retry(capsys, monkeypatch):
    # with no draws, find_encoders raises RetriesExhausted (every stream has
    # rank >= R); build_scheme builds no second channel at a larger z
    monkeypatch.setattr(scheme, "_DECODER_DRAWS", 0)
    calls = count_calls(monkeypatch, "build_big_channel", "find_encoders")
    code, out, err = run(capsys, "scheme", "build", prob("example.prob"))
    assert (code, out) == (2, "")
    assert err == "error: no full-rank decoder in 0 draws over F_128; pass a larger --z\n"
    assert calls == {"build_big_channel": 1, "find_encoders": 1}


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(PROBLEMS) if n.endswith(".prob")))
def test_a_build_makes_one_channel_and_one_decoder_search(capsys, monkeypatch, name):
    calls = count_calls(monkeypatch, "build_big_channel", "find_encoders")
    code, _, err = run(capsys, "scheme", "build", prob(name))
    assert (code, err) == (0, "")
    assert calls == {"build_big_channel": 1, "find_encoders": 1}


def test_pivot_limit_is_a_guard(capsys, monkeypatch):
    monkeypatch.setattr(lp, "_MAX_PIVOTS", 3)
    code, out, err = run(capsys, "capacity", prob("example.prob"))
    assert (code, out, err) == (3, "", "guard: pivot limit exceeded\n")


class Overran(Exception):
    pass


def run_within(capsys, seconds, *argv):
    """run(), interrupted by Overran once `seconds` of wall time have passed."""
    def overran(*_):
        raise Overran(f"sumbox {' '.join(argv)} still running after {seconds} s")
    old = signal.signal(signal.SIGALRM, overran)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return run(capsys, *argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_huge_field_prime_is_a_guard(tmp_path, capsys):
    # 2^61 - 1 is prime; trial division on it would run for minutes
    path = tmp_path / "big.prob"
    path.write_text("field 2305843009213693951\nservers 2\nstream a: 1\nstream b: 2\n"
                    "entangle full\n")
    code, out, err = run_within(capsys, 1, "capacity", str(path))
    assert (code, out) == (3, "")
    assert err == "guard: field order 2305843009213693951^1 exceeds bound 1048576\n"


def refuse_to_build(monkeypatch):
    """Make every clique constructor behind a problem file or a per-server LP raise."""
    def built(*_):
        raise AssertionError("cliques built for an instance past the LP guard")
    for name in ("full_clique", "singleton_cliques", "beta_cliques"):
        monkeypatch.setattr(model, name, built)
    for name in ("full_clique", "singleton_cliques"):
        monkeypatch.setattr(capacity, name, built)


@pytest.mark.parametrize("text, argv", [
    ("servers 1000000000000\nstream a: 1\nclique: 1\n", ["--closed-form", "unent"]),
    ("servers 1000000000000\nstream a: 1\nclique: 1\n", ["--dsc"]),
    ("servers 2000000\nstream a: 1\nclique: 1\n", ["--closed-form", "fullent"]),
    ("servers 2000000\nstream a: 1\nentangle full\n", []),
    ("servers 2000000\nstream a: 1\nentangle none\n", ["--closed-form", "unent"]),
    ("servers 200\nstream a: 1\nentangle beta 2\n", []),
    ("servers 100000\nstream a: 1\nentangle beta 3\n", []),
], ids=["1e12-unent", "1e12-dsc", "2e6-fullent", "2e6-full", "2e6-none", "beta-2", "beta-3"])
def test_oversized_instances_are_refused_before_building(tmp_path, capsys, monkeypatch,
                                                         text, argv):
    refuse_to_build(monkeypatch)
    path = tmp_path / "big.prob"
    path.write_text(text)
    code, _, err = run_within(capsys, 1, "capacity", str(path), *argv)
    assert code == 3
    assert err.startswith("guard: ") and "LP variables" in err and "the guard 10000" in err


@pytest.mark.parametrize("argv, opt", [
    (["oracle-lp", "--cases", "2", "--max-s", "9"], "--max-s"),
    (["beta-star", "--cases", "7"], "--cases"),
    (["beta-star", "--seed", "1"], "--seed"),
])
def test_verify_rejects_options_that_do_not_apply(capsys, argv, opt):
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {opt} does not apply to verify {argv[0]}\n"


@pytest.fixture(scope="module")
def example_scheme():
    return render_scheme(build_scheme(parse_problem(Path(prob("example.prob")).read_text())))


# int() reads each form of n as n; every integer sumbox reads must be ASCII digits
MALFORMED_FORMS = {
    "sign": lambda n: "+" + n,
    "underscore": lambda n: n[:1] + "_" + n[1:] if len(n) > 1 else "0_" + n,
    "arabic-indic": lambda n: n.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
}


def integer_tokens(text):
    """(line, start, end) of each integer outside the matrix bodies and comments:
    a digit run between blanks or commas, on a line not starting with '['."""
    return [(i, m.start(), m.end()) for i, line in enumerate(text.splitlines())
            if not line.startswith("[")
            for m in re.finditer(r"(?<![^ ,])[0-9]+(?![^ ,])", line.split("#", 1)[0])]


@pytest.mark.parametrize("form", sorted(MALFORMED_FORMS))
@pytest.mark.parametrize("source", ["example.prob built"] + sorted(
    f for f in os.listdir(PROBLEMS) if f.endswith(".prob")))
def test_every_integer_in_a_file_refuses_a_malformed_form(tmp_path, capsys, example_scheme,
                                                         source, form):
    if source == "example.prob built":
        text, command = example_scheme, ["scheme", "check"]
    else:
        text, command = Path(prob(source)).read_text(), ["capacity"]
    lines = text.splitlines()
    tokens = integer_tokens(text)
    assert tokens
    bad = tmp_path / "bad"
    taken = []
    for i, start, end in tokens:
        line = lines[i][:start] + MALFORMED_FORMS[form](lines[i][start:end]) + lines[i][end:]
        bad.write_text("\n".join(lines[:i] + [line] + lines[i + 1:]) + "\n")
        code, out, err = run(capsys, *command, str(bad))
        if (code, out) != (2, "") or not err.startswith("error: "):
            taken.append((line, code))
    assert taken == []


@pytest.mark.parametrize("argv, option", [
    (["scheme", "simulate", "{scheme}", "--trials", "-5"], "--trials"),
    (["scheme", "simulate", "{scheme}", "--trials", "1_0"], "--trials"),
    (["scheme", "simulate", "{scheme}", "--trials", "٣"], "--trials"),
    (["scheme", "simulate", "{scheme}", "--seed", "-5"], "--seed"),
    (["scheme", "build", prob("example.prob"), "--seed", "-5"], "--seed"),
    (["tables", "--lp-check-max-s", "-3"], "--lp-check-max-s"),
    (["verify", "beta-star", "--max-s", " 4"], "--max-s"),
    (["verify", "oracle-lp", "--cases", "٣"], "--cases"),
])
def test_integer_options_refuse_malformed_values(tmp_path, capsys, example_scheme, argv, option):
    scheme_file = tmp_path / "example.scheme"
    scheme_file.write_text(example_scheme)
    code, out, err = run(capsys, *(a.format(scheme=scheme_file) for a in argv))
    assert (code, out) == (2, "")
    assert err == f"error: {option} expects an integer, got {argv[-1]!r}\n"
