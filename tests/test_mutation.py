"""Mutated input files never end in a traceback.

One line of a built scheme file or of problems/example.prob is replaced,
deleted or duplicated; the CLI must then answer with an exit code (0 ok,
1 mismatch, 2 located error, 3 guard) and raise nothing.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from sumbox.cli import main
from sumbox.model import parse_problem
from sumbox.scheme import build_scheme, render_scheme

PROB = os.path.join(os.path.dirname(__file__), "..", "problems", "example.prob")
with open(PROB) as fh:
    PROB_TEXT = fh.read()
SCHEME_TEXT = render_scheme(build_scheme(parse_problem(PROB_TEXT)))
SOURCES = {"scheme": SCHEME_TEXT.splitlines(), "prob": PROB_TEXT.splitlines()}
LINES = sorted({ln for lines in SOURCES.values() for ln in lines})
# tokens kept small: a mutated "servers" or "entangle beta" line stays cheap
TOKENS = ["", "0", "1", "2", "3", "4", "7", "9", "-1", "+1", "1_0", "\u0663", "x", "1.5", ":",
          "[9,0]", "[1,0,0,0,0,0,0]", "F2", "F128", "clique", "stream", "full", "beta", "none"]


@st.composite
def mutations(draw):
    kind = draw(st.sampled_from(sorted(SOURCES)))
    lines = list(SOURCES[kind])
    i = draw(st.integers(0, len(lines) - 1))
    op = draw(st.sampled_from(["replace", "delete", "duplicate"]))
    if op == "delete":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[i])
    else:
        words = lines[i].split() or [""]
        j = draw(st.integers(0, len(words) - 1))
        lines[i] = draw(st.one_of(
            st.sampled_from(LINES),
            st.sampled_from(TOKENS).map(
                lambda tok: " ".join(words[:j] + [tok] + words[j + 1:])),
            st.text(alphabet="0123456789 ,[]:-Fabcdx", max_size=20),
        ))
    return kind, "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(mutations())
def test_mutated_files_exit_cleanly(mutation):
    kind, text = mutation
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutated." + kind)
        with open(path, "w") as fh:
            fh.write(text)
        commands = ([["scheme", "check", path], ["scheme", "simulate", path, "--trials", "5"]]
                    if kind == "scheme" else [["capacity", path]])
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert main(argv) in (0, 1, 2, 3)
