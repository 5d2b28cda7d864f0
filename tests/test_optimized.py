"""Certificates must still be checked when Python runs with -O (asserts off)."""

import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
SYM_4_2_2 = os.path.join(os.path.dirname(__file__), "..", "problems", "sym-4-2-2.prob")


def run_optimized(code: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    prelude = "import sys\nif not sys.flags.optimize:\n    sys.exit('not optimized')\n"
    return subprocess.run([sys.executable, "-O", "-c", prelude + textwrap.dedent(code)],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)


def test_capacity_witness_check_survives_optimize():
    proc = run_optimized("""
        import sumbox.capacity as cap
        from sumbox.scheme import reference_problem
        cap.in_region = lambda *args: False
        try:
            cap.capacity_lp(reference_problem())
        except AssertionError as exc:
            print(exc)
        else:
            sys.exit("capacity_lp returned an unchecked witness")
    """)
    assert proc.returncode == 0, proc.stderr
    assert "region membership" in proc.stdout


def test_capacity_dual_check_survives_optimize():
    proc = run_optimized("""
        import sumbox.capacity as cap
        from sumbox.scheme import reference_problem
        solve_min = cap.lp.solve_min

        def positive_dual(c, A, b):
            value, x, (y, d) = solve_min(c, A, b)
            return value, x, ([-v for v in y], d)

        cap.lp.solve_min = positive_dual
        try:
            cap.capacity_lp(reference_problem())
        except AssertionError as exc:
            print(exc)
        else:
            sys.exit("capacity_lp returned an unchecked dual")
    """)
    assert proc.returncode == 0, proc.stderr
    assert "dual certificate has a positive entry" in proc.stdout


def test_lowered_witness_check_survives_optimize():
    # the reference witness (1, 1, 1, 2) / 4 meets every stream with
    # equality: one numerator less leaves a stream short
    proc = run_optimized("""
        import sumbox.capacity as cap
        from sumbox.scheme import reference_problem
        solve_min = cap.lp.solve_min

        def lowered(c, A, b):
            value, (x, L), y = solve_min(c, A, b)
            return value, ([x[0] - 1] + x[1:], L), y

        cap.lp.solve_min = lowered
        try:
            cap.capacity_lp(reference_problem())
        except AssertionError as exc:
            print(exc)
        else:
            sys.exit("capacity_lp returned an unchecked witness")
    """)
    assert proc.returncode == 0, proc.stderr
    assert "LP witness fails region membership" in proc.stdout


def test_doubled_dual_denominator_check_survives_optimize():
    proc = run_optimized("""
        import sumbox.capacity as cap
        from sumbox.scheme import reference_problem
        solve_min = cap.lp.solve_min

        def doubled(c, A, b):
            value, x, (y, d) = solve_min(c, A, b)
            return value, x, (y, 2 * d)

        cap.lp.solve_min = doubled
        try:
            cap.capacity_lp(reference_problem())
        except AssertionError as exc:
            print(exc)
        else:
            sys.exit("capacity_lp returned an unchecked dual")
    """)
    assert proc.returncode == 0, proc.stderr
    assert "dual certificate does not attain the optimal value" in proc.stdout


def test_scheme_certificate_check_survives_optimize():
    proc = run_optimized("""
        from sumbox.scheme import CodingScheme, build_scheme, reference_problem
        CodingScheme.certificate_ok = lambda self: False
        try:
            build_scheme(reference_problem())
        except AssertionError as exc:
            print(exc)
        else:
            sys.exit("build_scheme returned an uncertified scheme")
    """)
    assert proc.returncode == 0, proc.stderr
    assert "certificate failed" in proc.stdout


def test_scaled_witness_check_survives_optimize():
    # a doubled witness has the counts of the optimal one over half its L,
    # so the rate numerator R = 4 differs from L = 2
    proc = run_optimized("""
        from dataclasses import replace
        import sumbox.scheme as scheme
        real = scheme.capacity_lp

        def doubled(P):
            res = real(P)
            return replace(res, witness_den=res.witness_den // 2)

        scheme.capacity_lp = doubled
        try:
            scheme.build_scheme(scheme.reference_problem())
        except AssertionError as exc:
            print(exc)
        else:
            sys.exit("build_scheme returned a scheme below capacity")
    """)
    assert proc.returncode == 0, proc.stderr
    assert "scaled witness does not achieve capacity" in proc.stdout


def test_stacked_certificate_check_survives_optimize():
    # sym-4-2-2's six 12 x 10 precoders are checked by one stacked product;
    # a changed entry in any one of them fails the certificate
    proc = run_optimized(f"""
        from dataclasses import replace
        from sumbox.matrix import Mat
        from sumbox.model import parse_problem
        from sumbox.scheme import build_scheme
        with open({SYM_4_2_2!r}) as fh:
            sch = build_scheme(parse_problem(fh.read()))
        print(sch.certificate_ok())
        a = sch.precoders[4].array.copy()
        a[3, 2] ^= 1
        bad = sch.precoders[:4] + (Mat(sch.ext.big, a),) + sch.precoders[5:]
        print(replace(sch, precoders=bad).certificate_ok())
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False"]
