"""End-to-end sum-computation coding schemes.

A scheme fixes, for an instance (W, E):

* an integer qudit allocation N_{t,s} (from the exact LP witness, scaled by
  the least common denominator),
* one half-MDS N_t-sum box per clique with N_t > 0, all over a coding field
  F_q extending the data field F_d (q = d^z),
* per-stream precoders P_k and one decoder D with the certificate
  D . Mbar_k . P_k = I_R for every stream, where Mbar_k is the
  block-diagonal stack of the box columns owned by servers storing stream k.

One use of the big channel then delivers R exact F_q-sums of the K streams
at a download of total = sum N_{t,s} qudits, i.e. rate R/total — equal to
the LP capacity when the allocation comes from the witness.

Slot convention inside clique t (box inputs are 2*N_t long): positions
1..N_t are "left" slots, N_t+1..2N_t the paired "right" slots; server s owns
the left slots at offset sum_{s'<s} N_{t,s'} and the paired right slots.
Stream k's matrix Mbar_k orders columns clique-major, then server-ascending,
each server contributing its left columns then its right columns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm

import numpy as np

from .capacity import capacity_lp, feasible
from .field import Extension, Field, extend_field, field_construct
from .matrix import Mat, MatrixError, block_diag
from .model import Problem, full_clique, parse_problem, render_problem
from .nsumbox import NSumBox, build_half_mds_box, is_valid_box
from .vecops import field_ops


class SchemeError(ValueError):
    pass


class RetriesExhausted(SchemeError):
    """Encoder search failed; the coding field is too small — raise z."""


@dataclass(frozen=True)
class Allocation:
    """Qudit counts per (clique, server) in (t, ascending s) order; t is 0-based."""
    entries: tuple[tuple[int, int, int], ...]  # (t, s, N_ts)

    def __post_init__(self):
        if not any(n > 0 for _, _, n in self.entries):
            raise SchemeError("allocation must have a positive entry")
        if any(n < 0 for _, _, n in self.entries):
            raise SchemeError("negative allocation entry")

    def n_ts(self, t: int, s: int) -> int:
        for tt, ss, n in self.entries:
            if (tt, ss) == (t, s):
                return n
        raise SchemeError(f"no allocation entry for clique {t}, server {s}")

    def clique_total(self, t: int) -> int:
        return sum(n for tt, _, n in self.entries if tt == t)

    @property
    def total(self) -> int:
        return sum(n for _, _, n in self.entries)


def _check_allocation(P: Problem, a: Allocation):
    if [e[:2] for e in a.entries] != P.cost_index():
        raise SchemeError("allocation entries do not match the instance's (t, s) layout")


def rate_numerator(P: Problem, a: Allocation) -> int:
    """min_k sum_t min(N_t, 2 sum_{s in E(t) ^ W(k)} N_ts): sums decodable per use."""
    _check_allocation(P, a)
    best = None
    for w in P.W:
        got = 0
        for t, e in enumerate(P.E):
            n_t = a.clique_total(t)
            overlap = 2 * sum(a.n_ts(t, s) for s in sorted(e & w))
            got += min(n_t, overlap)
        best = got if best is None else min(best, got)
    return best


def rate_of_allocation(P: Problem, a: Allocation) -> Fraction:
    """Guaranteed dits-per-qudit rate of an integer allocation (no matrices built)."""
    if a.total == 0:
        raise SchemeError("zero total allocation")
    return Fraction(rate_numerator(P, a), a.total)


def allocation_from_lp(P: Problem, witness) -> Allocation:
    """Scale the rational LP witness by its least common denominator.

    The result is an integer allocation whose rate equals the LP capacity
    exactly (asserted).
    """
    w = [Fraction(v) for v in witness]
    if not feasible(P, w):
        raise SchemeError("witness is not in the feasible region")
    mult = lcm(*(v.denominator for v in w))
    entries = tuple(
        (t, s, int(v * mult)) for (t, s), v in zip(P.cost_index(), w)
    )
    a = Allocation(entries)
    cap = Fraction(1) / sum(w)
    if rate_of_allocation(P, a) != cap:
        raise AssertionError("scaled witness does not achieve capacity")
    return a


@dataclass(frozen=True)
class BigChannel:
    problem: Problem
    allocation: Allocation
    ext: Extension
    boxes: tuple[tuple[int, NSumBox], ...]   # (t, box) for cliques with N_t > 0, ascending t
    mbar: tuple[Mat, ...]                    # per stream k
    colmap: tuple[tuple[tuple[int, int], ...], ...]  # per k: (t, slot in clique input) per Mbar_k column

    @property
    def field(self) -> Field:
        return self.ext.big

    @property
    def n(self) -> int:
        return sum(box.N for _, box in self.boxes)


def _slot_offsets(P: Problem, a: Allocation, t: int) -> dict[int, int]:
    """Left-slot offset (0-based) of each server within clique t."""
    off = {}
    pos = 0
    for s in sorted(P.E[t]):
        off[s] = pos
        pos += a.n_ts(t, s)
    return off


def build_big_channel(P: Problem, a: Allocation, d_field: Field, z: int) -> BigChannel:
    """One half-MDS box per clique, stacked block-diagonally per stream."""
    _check_allocation(P, a)
    ext = extend_field(d_field, z)
    q = ext.big.order
    n_max = max((a.clique_total(t) for t in range(P.T)), default=0)
    if q < n_max:
        raise SchemeError(f"coding field order {q} < largest box size {n_max}")
    boxes = []
    for t in range(P.T):
        n_t = a.clique_total(t)
        if n_t > 0:
            boxes.append((t, build_half_mds_box(n_t, ext.big)))
    return assemble_channel(P, a, ext, tuple(boxes))


def assemble_channel(P: Problem, a: Allocation, ext: Extension,
                     boxes: tuple[tuple[int, NSumBox], ...]) -> BigChannel:
    """Wire given per-clique boxes into the per-stream block channel."""
    _check_allocation(P, a)
    expect = [(t, a.clique_total(t)) for t in range(P.T) if a.clique_total(t) > 0]
    if [(t, box.N) for t, box in boxes] != expect:
        raise SchemeError("boxes do not match the allocation's clique sizes")
    for _, box in boxes:
        if box.field != ext.big:
            raise SchemeError("box field disagrees with the coding field")
    mbars, colmaps = [], []
    for w in P.W:
        blocks, cmap = [], []
        for t, box in boxes:
            n_t = box.N
            off = _slot_offsets(P, a, t)
            cols = []
            for s in sorted(P.E[t] & w):
                left = [off[s] + j for j in range(a.n_ts(t, s))]
                cols.extend(left + [n_t + c for c in left])
                cmap.extend([(t, c) for c in left] + [(t, n_t + c) for c in left])
            blocks.append(box.M.select_columns([c + 1 for c in cols]))
        mbars.append(block_diag(ext.big, blocks))
        colmaps.append(tuple(cmap))
    return BigChannel(P, a, ext, tuple(boxes), tuple(mbars), tuple(colmaps))


def find_encoders(ch: BigChannel, R: int, seed: int, max_retries: int = 64):
    """Sample a decoder D until every D . Mbar_k has full row rank R, then invert.

    Returns (precoders, D) with D . Mbar_k . precoders[k] = I_R for every k.
    Raises RetriesExhausted when the coding field is too small to hit a good
    D within max_retries draws (raise z and rebuild).
    """
    f = ch.field
    n = ch.n
    for k, m in enumerate(ch.mbar):
        if m.rank() < R:
            raise SchemeError(
                f"R = {R} exceeds rank {m.rank()} of stream {ch.problem.stream_names[k]}")
    rng = random.Random(seed)
    if R == 0:
        D = Mat.zeros(f, 0, n)
        return tuple(Mat.zeros(f, m.cols, 0) for m in ch.mbar), D
    for _ in range(max_retries):
        D = Mat.random(f, R, n, rng)
        try:  # every D . Mbar_k has full row rank R exactly when it has a right inverse
            return tuple((D * m).right_inverse() for m in ch.mbar), D
        except MatrixError:
            continue
    raise RetriesExhausted(
        f"no full-rank decoder in {max_retries} draws over F_{f.order}")


@dataclass(frozen=True)
class CodingScheme:
    problem: Problem
    ext: Extension
    allocation: Allocation
    channel: BigChannel
    R: int
    precoders: tuple[Mat, ...]
    decoder: Mat
    seed: int

    @property
    def rate(self) -> Fraction:
        """Decoded F_q sums per downloaded qudit (z cancels between the two)."""
        return Fraction(self.R, self.allocation.total)

    def certificate_ok(self) -> bool:
        ident = Mat.identity(self.ext.big, self.R)
        return all(
            self.decoder * m * p == ident
            for m, p in zip(self.channel.mbar, self.precoders)
        )


DEFAULT_SEED = 20240
_MAX_Z_DOUBLINGS = 6


def build_scheme(
    P: Problem,
    allocation: Allocation | None = None,
    d_field: Field | None = None,
    z: int | None = None,
    seed: int = DEFAULT_SEED,
) -> CodingScheme:
    """Assemble a certified scheme; allocation defaults to the LP witness.

    z defaults to the smallest value with d^z >= max box size + 1 and
    d^z > 4*K*R (headroom for the randomized decoder search), doubling on
    retry exhaustion.
    """
    if d_field is None:
        d_field = P.data_field()
    if allocation is None:
        allocation = allocation_from_lp(P, capacity_lp(P).witness)
    else:
        _check_allocation(P, allocation)
    R = rate_numerator(P, allocation)
    n_max = max(allocation.clique_total(t) for t in range(P.T))
    d = d_field.order

    def z_floor() -> int:
        zz = 1
        while d ** zz < n_max + 1 or d ** zz <= 4 * P.K * R:
            zz += 1
        return zz

    z_fixed = z is not None
    z_cur = z if z_fixed else z_floor()
    last_err: Exception | None = None
    for _ in range(_MAX_Z_DOUBLINGS + 1):
        ch = build_big_channel(P, allocation, d_field, z_cur)
        try:
            precoders, D = find_encoders(ch, R, seed)
        except RetriesExhausted as exc:
            if z_fixed:
                raise
            last_err = exc
            z_cur *= 2
            continue
        sch = CodingScheme(P, ch.ext, allocation, ch, R, precoders, D, seed)
        if not sch.certificate_ok():
            raise AssertionError("scheme certificate failed")
        return sch
    raise RetriesExhausted(f"encoder search failed up to z = {z_cur}: {last_err}")


# ---------------------------------------------------------------------------
# simulation


def simulate(sch: CodingScheme, data) -> Mat:
    """One big-channel use: encode per server, evaluate boxes, decode.

    `data` is an R x K matrix (one column per stream) or a list of K
    R x 1 columns over F_q.  Returns the R x 1 decoded column, which equals
    the entrywise sum of the stream columns by the scheme certificate.
    This is simulate_batch on a batch of one.
    """
    return Mat(sch.ext.big, simulate_batch(sch, _data_block(sch, data)))


def simulate_batch(sch: CodingScheme, data) -> np.ndarray:
    """Vectorized simulate over many data realizations at once.

    `data` has shape (K, R, B) with int-encoded F_q entries; returns the
    (R, B) decoded block, one column per realization.
    """
    ops = field_ops(sch.ext.big)
    K, R, B = data.shape
    if K != sch.problem.K or R != sch.R:
        raise SchemeError(f"batch shape {data.shape} does not match (K={sch.problem.K}, R={sch.R})")
    ch = sch.channel
    # all box inputs in one array, clique after clique
    sizes = [2 * box.N for _, box in ch.boxes]
    start = dict(zip((t for t, _ in ch.boxes), accumulate([0] + sizes)))
    x = np.zeros((sum(sizes), B), dtype=ops.dtype)
    for k in range(K):
        rows = [start[t] + slot for t, slot in ch.colmap[k]]  # distinct within a stream
        x[rows] = ops.add(x[rows], ops.matmul(sch.precoders[k].array, data[k]))
    ys = [ops.matmul(box.M.array, x[start[t]:start[t] + 2 * box.N]) for t, box in ch.boxes]
    return ops.matmul(sch.decoder.array, np.concatenate(ys))  # an allocation has a box


def true_sum(sch: CodingScheme, data) -> Mat:
    """The R x 1 entrywise sum of the stream columns, as simulate takes them."""
    return Mat(sch.ext.big, field_ops(sch.ext.big).sum(_data_block(sch, data)))


def _data_block(sch: CodingScheme, data) -> np.ndarray:
    """An R x K matrix or K R x 1 columns over F_q as a (K, R, 1) int array."""
    f, K, R = sch.ext.big, sch.problem.K, sch.R
    cols = list(data) if not isinstance(data, Mat) else [
        data.select_columns([k + 1]) for k in range(data.cols)]
    if len(cols) != K or any((c.rows, c.cols, c.field) != (R, 1, f) for c in cols):
        raise SchemeError(f"data must be {R} x {K} over {f.name}")
    return np.stack([c.array for c in cols])


# ---------------------------------------------------------------------------
# the worked 5-box reference scheme

_REF_M_ROWS = (
    (1, 0, 0, 0, 0, 0, 1, 1, 0, 1),
    (0, 1, 0, 0, 0, 1, 0, 0, 0, 1),
    (0, 0, 1, 0, 0, 1, 0, 0, 1, 0),
    (0, 0, 0, 1, 0, 0, 0, 1, 1, 1),
    (0, 0, 0, 0, 1, 1, 1, 0, 1, 0),
)
_REF_VDEC_ROWS = (
    (0, 1, 0, 1, 1),
    (0, 0, 0, 1, 1),
    (1, 0, 0, 0, 1),
    (0, 0, 1, 1, 1),
)
REF_COLUMN_SETS = ((1, 6, 2, 7), (1, 6, 3, 8), (2, 7, 3, 8), (4, 5, 9, 10))


def reference_problem() -> Problem:
    """Four streams a, b, c, d on servers (1=ab, 2=ac, 3=bc, 4=d), fully entangled."""
    W = (frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3}), frozenset({4}))
    return Problem(4, W, full_clique(4), ("a", "b", "c", "d"))


def worked_reference_scheme(d_field: Field | None = None) -> CodingScheme:
    """The hard-coded worked 5-sum-box scheme: rate 4/5, decoder V_dec.

    Valid over any field (entries are 0/±1); defaults to F_2.
    """
    f = d_field if d_field is not None else field_construct(2)
    P = reference_problem()
    alloc = Allocation(((0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 2)))
    ext = extend_field(f, 1)
    M = Mat(f, [list(row) for row in _REF_M_ROWS])  # entries are 0/1 in any field
    box = NSumBox(5, f, M)
    ch = assemble_channel(P, alloc, ext, ((0, box),))
    D = Mat(f, [list(row) for row in _REF_VDEC_ROWS])
    precoders = tuple((D * m).inverse() for m in ch.mbar)
    sch = CodingScheme(P, ext, alloc, ch, 4, precoders, D, seed=0)
    if not sch.certificate_ok():
        raise AssertionError("reference scheme certificate failed")
    return sch


# ---------------------------------------------------------------------------
# serialization


def render_scheme(sch: CodingScheme) -> str:
    out = ["PROBLEM", render_problem(sch.problem).rstrip("\n")]
    base = sch.ext.base  # the data field the scheme was built on
    out += [
        "EXTENSION",
        f"d {base.p} {base.r}",
        f"z {sch.ext.z}",
        "base_modulus " + ",".join(map(str, sch.ext.base.modulus)),
        "big_modulus " + ",".join(map(str, sch.ext.big.modulus)),
    ]
    out.append("ALLOCATION")
    for t, s, n in sch.allocation.entries:
        out.append(f"{t + 1} {s} {n}")
    out.append("BOXES")
    for t, box in sch.channel.boxes:
        out.append(f"clique {t + 1}")
        out.append(box.to_text())
    out.append("ENCODERS")
    for name, pk in zip(sch.problem.stream_names, sch.precoders):
        out.append(f"stream {name}")
        out.append(pk.to_text())
    out.append("DECODER")
    out.append(sch.decoder.to_text())
    out.append("SEED")
    out.append(str(sch.seed))
    return "\n".join(out) + "\n"


def parse_scheme(text: str) -> CodingScheme:
    sections: dict[str, list[str]] = {}
    cur = None
    for line in text.splitlines():
        if line.strip() in ("PROBLEM", "EXTENSION", "ALLOCATION", "BOXES",
                            "ENCODERS", "DECODER", "SEED"):
            cur = line.strip()
            sections[cur] = []
        elif cur is not None:
            sections[cur].append(line)
        elif line.strip():
            raise SchemeError(f"content before first section: {line!r}")
    for need in ("PROBLEM", "EXTENSION", "ALLOCATION", "BOXES", "ENCODERS",
                 "DECODER", "SEED"):
        if need not in sections:
            raise SchemeError(f"missing section {need}")
    P = parse_problem("\n".join(sections["PROBLEM"]))
    ext_kv = {}
    for line in sections["EXTENSION"]:
        if line.strip():
            key, _, val = line.strip().partition(" ")
            ext_kv[key] = val
    for key in ("d", "z", "base_modulus", "big_modulus"):
        if key not in ext_kv:
            raise SchemeError(f"EXTENSION section has no '{key}' line")
    p, r = map(int, ext_kv["d"].split())
    z = int(ext_kv["z"])
    ext = extend_field(field_construct(p, r), z)
    if tuple(map(int, ext_kv["base_modulus"].split(","))) != ext.base.modulus:
        raise SchemeError("base modulus mismatch")
    if tuple(map(int, ext_kv["big_modulus"].split(","))) != ext.big.modulus:
        raise SchemeError("big modulus mismatch")
    entries = []
    for line in sections["ALLOCATION"]:
        if line.strip():
            t, s, n = map(int, line.split())
            entries.append((t - 1, s, n))
    alloc = Allocation(tuple(entries))
    boxes_text = "\n".join(sections["BOXES"])
    ser_boxes = _parse_labeled_blocks(boxes_text, "clique")
    boxes = []
    for lbl, blk in ser_boxes:
        box = NSumBox.from_text(blk)
        if box.field != ext.big:
            # re-key the matrix onto the canonical field object
            box = NSumBox(box.N, ext.big, Mat(ext.big, box.M.array))
        if not is_valid_box(box.M):
            raise SchemeError(f"serialized box for clique {lbl} is not a valid box")
        boxes.append((int(lbl) - 1, box))
    ch = assemble_channel(P, alloc, ext, tuple(boxes))
    enc_blocks = _parse_labeled_blocks("\n".join(sections["ENCODERS"]), "stream")
    if tuple(lbl for lbl, _ in enc_blocks) != P.stream_names:
        raise SchemeError("ENCODERS stream labels mismatch")
    precoders = tuple(Mat.from_text(blk, ext.big) for _, blk in enc_blocks)
    D = Mat.from_text("\n".join(sections["DECODER"]), ext.big)
    if D.cols != ch.n:
        raise SchemeError(f"DECODER has {D.cols} columns, expected sum of N_t = {ch.n}")
    for name, cmap, pk in zip(P.stream_names, ch.colmap, precoders):
        if (pk.rows, pk.cols) != (len(cmap), D.rows):
            raise SchemeError(f"ENCODERS stream {name} is {pk.rows}x{pk.cols}, expected "
                              f"{len(cmap)}x{D.rows} (its box columns x decoder rows)")
    seed = int("\n".join(sections["SEED"]).strip())
    return CodingScheme(P, ext, alloc, ch, D.rows, precoders, D, seed)


def _parse_labeled_blocks(text: str, label: str) -> list[tuple[str, str]]:
    blocks: list[tuple[str, list[str]]] = []
    for line in text.splitlines():
        if line.startswith(label + " "):
            blocks.append((line[len(label) + 1:].strip(), []))
        elif line.strip():
            if not blocks:
                raise SchemeError(f"content before first {label!r} label")
            blocks[-1][1].append(line)
    return [(lbl, "\n".join(body)) for lbl, body in blocks]
