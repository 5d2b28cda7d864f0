"""Scheme files pinned byte for byte: the sha256 of render_scheme(build_scheme(...)).

A scheme file fixes the LP witness, the allocation layout, the boxes, the
decoder draws and the text form at once, so a change to any of them for a
fixed seed shows here.  Each case is a `scheme build` command line (problem
file and options, default seed), a problem file followed by `field p r` (the
file built over that data field, default seed) or `symmetric S alpha beta`.
"""

import contextlib
import hashlib
import io
import os
from dataclasses import replace

import pytest

from sumbox.cli import main
from sumbox.model import parse_problem, symmetric_problem
from sumbox.scheme import build_scheme, render_scheme

PROBLEMS = os.path.join(os.path.dirname(__file__), "..", "problems")

PINS = {
    'example-beta3.prob': '1155a5db2bc4f56c01dfaa2996eb91f4cf007ded33b20fde174643c8bf54c419',
    'example-beta3.prob field 2 2': '4c8800e49ad133edbba437e2c7f58168af3d1d37e9490bb9166d99b677539a3a',
    'example-unent.prob': '5dee68baa5e2ec29d80ae4d3a7bc8c446053f19e4f896fe0d53fec18f8ad1f72',
    'example-unent.prob field 2 2': '8bb1d65b40a7c991f32d91afc97c47961eab34cc5f25103dae9b0c8afc1ee65c',
    'example.prob': 'c076c5a8c3dddf11fa94a96dbe8152abe89021551c4c1a987dd2dd6cfd8a8522',
    'example.prob field 2 2': '3753d5c77391f3b38231201b6a68806a6995572ab5effb44c7c293fe6b559017',
    # z = 1: the scheme codes over the prime field F_101
    'example.prob field 101 1': 'e6908016d00381f0796ebdb2fbfe82d7e53934422d7c46a8c889f6ff22172ff9',
    'sym-4-2-2.prob': '7914e2db84f2b566ba7437082f01b5b5092e9a33783b5af17de68e8ba8f23782',
    'sym-4-2-2.prob field 2 2': 'ab4ddd26804edf5569e19d6392ba6cd203865ca3f92d0cdfda59e9d31a73cae1',
    'example.prob --alloc 2,2,2,4': '3e322f3c8e6d6b4cac0d3af6b4b5179302a0d01f7e8ceb0861608e31f9f30c3a',
    'example.prob --alloc 0,0,0,1': '79f86511b4537181cd56b510c6eb5eb820b2f51f4d6a3d65a91c898786330852',
    'sym-4-2-2.prob --z 17': '8d59c4404c8a679fd159de1d69da192bcc84c4502d2367886df98d09cac3fbc3',
    'symmetric 3 2 2': 'd278d33a3cc3786ea53822819c83aa864489d58be69ee5de76051a5b32523773',
    'symmetric 4 2 3': '08df4276c9235c4b85c1367bc05695e068eb60af0f8f45e1c06b5b695897ec82',
}


def scheme_text(case: str) -> str:
    head, *options = case.split()
    if head == "symmetric":
        return render_scheme(build_scheme(symmetric_problem(*map(int, options))))
    if options[:1] == ["field"]:
        with open(os.path.join(PROBLEMS, head)) as fh:
            P = parse_problem(fh.read())
        return render_scheme(build_scheme(replace(P, base_field=tuple(map(int, options[1:])))))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["scheme", "build", os.path.join(PROBLEMS, head), *options]) == 0
    return out.getvalue()


@pytest.mark.parametrize("case", sorted(PINS))
def test_scheme_bytes_pinned(case):
    assert hashlib.sha256(scheme_text(case).encode()).hexdigest() == PINS[case]


def test_every_problem_file_is_pinned():
    for name in os.listdir(PROBLEMS):
        if name.endswith(".prob"):
            assert name in PINS and f"{name} field 2 2" in PINS
