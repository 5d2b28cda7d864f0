"""End-to-end sum-computation coding schemes.

A scheme fixes, for an instance (W, E):

* an integer qudit allocation N_{t,s}: one count per (clique, server) pair
  in Problem.cost_index() order (from the exact LP witness, scaled by the
  least common denominator),
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
each server contributing its left columns then its right columns.  The box
inputs of all cliques stack into one vector of length 2 * sum N_t, clique
after clique; BigChannel.rows[k] gives the row of that vector that each
column of Mbar_k feeds, so D . Mbar_k is the columns rows[k] of the one
product of D with the block-diagonal stack of the boxes (BigChannel.through).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import groupby

import numpy as np

from .capacity import capacity_lp, region_values
from .field import Extension, Field, extend_field, field_construct, parse_decimal
from .matrix import Mat, MatrixError, block_diag, check_mul
from .model import Problem, full_clique, parse_problem, render_problem, split_costs
from .nsumbox import box_from_text, box_to_text, build_half_mds_box, is_valid_box
from .vecops import field_ops


class SchemeError(ValueError):
    pass


class RetriesExhausted(SchemeError):
    """The decoder search failed at the chosen z; build again with a larger z."""


@dataclass(frozen=True)
class Allocation:
    """Qudit counts N_{t,s} in Problem.cost_index() order (clique, then ascending server)."""
    counts: tuple[int, ...]

    def __post_init__(self):
        if not any(n > 0 for n in self.counts):
            raise SchemeError("allocation must have a positive entry")
        if any(n < 0 for n in self.counts):
            raise SchemeError("negative allocation entry")

    @property
    def total(self) -> int:
        return sum(self.counts)


def rate_numerator(P: Problem, a: Allocation) -> int:
    """min_k sum_t min(N_t, 2 sum_{s in E(t) ^ W(k)} N_ts): sums decodable per use.
    Counts of a length other than gamma raise ProblemError."""
    return min(region_values(P.W, P.E, a.counts))


@dataclass(frozen=True, eq=False)  # no field-wise ==: `rows` holds numpy arrays
class BigChannel:
    boxes: tuple[tuple[int, Mat], ...]   # (t, N_t x 2N_t box) for cliques with N_t > 0, ascending t
    rows: tuple[np.ndarray, ...]         # per k: stacked box-input row of each Mbar_k column

    @property
    def n(self) -> int:
        return sum(M.rows for _, M in self.boxes)

    def through(self, D: Mat) -> tuple[Mat, ...]:
        """D . Mbar_k for every stream k: the columns rows[k] of the one product
        D . stack, where stack is the block-diagonal stack of the boxes."""
        f = self.boxes[0][1].field  # an allocation has a box
        prod = (D * block_diag(f, [M for _, M in self.boxes])).array
        return tuple(Mat._of(f, prod[:, r]) for r in self.rows)


def build_big_channel(P: Problem, a: Allocation, field: Field) -> BigChannel:
    """One half-MDS box over field per clique, wired into the per-stream channel.
    A box depends only on its size and field, so cliques of one size share it."""
    sizes = [sum(c.values()) for c in split_costs(P.E, a.counts)]  # N_t per clique
    if field.order < max(sizes):
        raise SchemeError(f"coding field order {field.order} < largest box size {max(sizes)}")
    made = {n: build_half_mds_box(n, field) for n in set(sizes) if n > 0}
    boxes = tuple((t, made[n]) for t, n in enumerate(sizes) if n > 0)
    return assemble_channel(P, a, boxes)


def assemble_channel(P: Problem, a: Allocation,
                     boxes: tuple[tuple[int, Mat], ...]) -> BigChannel:
    """Wire given per-clique boxes, all over one field, into the per-stream block
    channel: Mbar_k is the columns rows[k] of the block-diagonal stack of the boxes."""
    cliques = split_costs(P.E, a.counts)
    expect = [(t, sum(c.values())) for t, c in enumerate(cliques) if any(c.values())]
    if [(t, M.rows) for t, M in boxes] != expect:
        raise SchemeError("boxes do not match the allocation's clique sizes")
    rows = []
    for w in P.W:
        idx, start = [], 0
        for t, M in boxes:
            N = M.rows
            for s, n in cliques[t].items():  # left slots of s, then their paired right slots
                if s in w:
                    idx += [*range(start, start + n), *range(start + N, start + N + n)]
                start += n
            start += N  # past the clique's right slots
        rows.append(np.array(idx, dtype=np.intp))
    return BigChannel(boxes, tuple(rows))


_DECODER_DRAWS = 64


def find_encoders(P: Problem, ch: BigChannel, R: int, seed: int):
    """Sample a decoder D until every D . Mbar_k has full row rank R, then invert.

    Returns (precoders, D) with D . Mbar_k . precoders[k] = I_R for every k.
    Over q > 4*K*R (build_scheme's default z) a draw fails for some stream
    with probability at most K*R/q < 1/4, since rank Mbar_k >= R makes an
    R x R minor of D . Mbar_k a nonzero polynomial of degree R in D
    (Schwartz-Zippel); all _DECODER_DRAWS draws fail with probability below
    2^-128.  When no draw succeeds, raises SchemeError if some Mbar_k has
    rank below R (no decoder can exist), else RetriesExhausted: the coding
    field is too small for the search (pass a larger z).
    """
    f = ch.boxes[0][1].field
    rng = random.Random(seed)
    for _ in range(_DECODER_DRAWS):
        D = Mat.random(f, R, ch.n, rng)
        try:  # every D . Mbar_k has full row rank R exactly when it has a right inverse
            return tuple(m.right_inverse() for m in ch.through(D)), D
        except MatrixError:
            continue
    for name, m in zip(P.stream_names, ch.through(Mat.identity(f, ch.n))):
        if (rank := m.rank()) < R:
            raise SchemeError(f"R = {R} exceeds rank {rank} of stream {name}")
    raise RetriesExhausted(f"no full-rank decoder in {_DECODER_DRAWS} draws over "
                           f"F_{f.order}; pass a larger --z")


@dataclass(frozen=True, eq=False)  # no field-wise ==: it holds numpy arrays
class SimulationPlan:
    """A scheme's three stages as stacked products (simulate_batch).

    The box stage runs on blocks: a box whose off-diagonal halves are zero
    (a half-MDS box is block_diag(top, bottom)) is its two diagonal blocks,
    any other box one block, and a block without rows is dropped.  Box inputs
    and outputs are in grouped block order: the blocks sorted by shape (then
    by clique), so the blocks of one shape read consecutive rows."""
    precoders: np.ndarray           # (K, L, R): each stream's nonzero precoder rows, zero-padded
    gather: np.ndarray              # (F, inputs): the rows of the flat (K*L + 1, B) precoded block
                                    # that feed each block input; row K*L is all zero and pads
    blocks: tuple[np.ndarray, ...]  # one (g, rows, cols) stack per distinct block shape, ascending
    decoder: np.ndarray             # (R, n): the decoder's columns in grouped block order


def _columns_first(a: np.ndarray) -> np.ndarray:
    """a, stored column by column: VecOps.matmul reads a matrix columns first,
    and a contiguous view is the faster read."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, -1, 0)), 0, -1)


@dataclass(frozen=True)
class CodingScheme:
    problem: Problem
    ext: Extension
    allocation: Allocation
    channel: BigChannel
    precoders: tuple[Mat, ...]
    decoder: Mat
    seed: int

    @property
    def R(self) -> int:
        """F_q sums decoded per channel use."""
        return self.decoder.rows

    @property
    def rate(self) -> Fraction:
        """Decoded F_q sums per downloaded qudit (z cancels between the two)."""
        return Fraction(self.R, self.allocation.total)

    @cached_property
    def plan(self) -> SimulationPlan:
        """simulate_batch's stage arrays, derived once per scheme object (a
        scheme made by dataclasses.replace derives its own).  A precoder's
        zero rows add 0 to their box inputs, so only its nonzero rows are
        multiplied; within one stream they feed distinct box inputs, so each
        input gathers at most one row per stream."""
        ch, K, R = self.channel, self.problem.K, self.R
        live = [pk.array.any(axis=1) for pk in self.precoders]
        L = max(int(m.sum()) for m in live)
        precoders = np.zeros((K, L, R), dtype=np.int64)
        feeds: list[list[int]] = [[] for _ in range(2 * ch.n)]  # per box input, channel order
        for k, (rows, pk, m) in enumerate(zip(ch.rows, self.precoders, live)):
            precoders[k, :m.sum()] = pk.array[m]
            for j, row in enumerate(rows[m].tolist()):
                feeds[row].append(k * L + j)
        blocks, start = [], 0  # (matrix, first output, first input) in the stacked boxes
        for _, M in ch.boxes:
            N, k, a = M.rows, (M.rows + 1) // 2, M.array
            if a[:k, N:].any() or a[k:, :N].any():
                blocks.append((a, start, 2 * start))
            else:
                blocks += [(a[:k, :N], start, 2 * start), (a[k:, N:], start + k, 2 * start + N)]
            start += N
        blocks = sorted((b for b in blocks if len(b[0])), key=lambda b: b[0].shape)
        inputs = [r for a, _, i in blocks for r in range(i, i + a.shape[1])]
        outputs = [c for a, o, _ in blocks for c in range(o, o + len(a))]
        gather = np.full((max(map(len, feeds)), len(inputs)), K * L, dtype=np.intp)
        for i, row in enumerate(inputs):
            gather[:len(feeds[row]), i] = feeds[row]
        stacks = tuple(np.stack([a for a, _, _ in group])
                       for _, group in groupby(blocks, key=lambda b: b[0].shape))
        return SimulationPlan(_columns_first(precoders), gather, tuple(map(_columns_first, stacks)),
                              _columns_first(self.decoder.array[:, outputs]))

    def certificate_ok(self) -> bool:
        """D . Mbar_k . P_k = I_R for every stream k, from one stacked product per
        distinct shape of P_k.  A P_k that does not fit D . Mbar_k raises the
        MatrixError of Mat * Mat."""
        groups: dict[tuple[int, int], list[tuple[Mat, Mat]]] = {}
        for m, p in zip(self.channel.through(self.decoder), self.precoders):
            check_mul(m, p)
            groups.setdefault(p.array.shape, []).append((m, p))
        if self.decoder.field != self.ext.big:
            return False
        ops, ident = field_ops(self.ext.big), np.eye(self.R, dtype=np.int64)
        for pairs in groups.values():
            prod = ops.matmul(np.array([m.array for m, _ in pairs], dtype=ops.dtype),
                              np.array([p.array for _, p in pairs], dtype=ops.dtype))
            if prod.shape[1:] != ident.shape or not (prod == ident).all():
                return False
        return True


DEFAULT_SEED = 20240


def build_scheme(
    P: Problem,
    allocation: Allocation | None = None,
    z: int | None = None,
    seed: int = DEFAULT_SEED,
) -> CodingScheme:
    """A certified scheme over P's data field; allocation defaults to the LP witness.

    The default allocation is the certified witness w in its integer form:
    the counts L * w over its least common denominator L.  Its rate
    R / (L * sum(w)) is the capacity 1 / sum(w) just when its rate
    numerator R equals L, which implies the region check R >= L; any other R
    raises AssertionError, also under -O.

    z defaults to the smallest value with q = d^z above both the largest box
    size N_t and 4*K*R.  Each decoder draw then fails for some stream with
    probability at most K*R/q < 1/4 (Schwartz-Zippel: an R x R minor of
    D . Mbar_k is a nonzero polynomial of degree R in D), so all of
    find_encoders' draws fail with probability below 2^-128.  The field,
    channel and decoder search run once; a failed search raises
    RetriesExhausted.  The seed is non-negative, like every integer a scheme
    file holds, so every built scheme can be read back.
    """
    if seed < 0:
        raise SchemeError(f"seed must be non-negative, got {seed}")
    d_field = P.data_field()
    L = None
    if allocation is None:
        res = capacity_lp(P)
        allocation, L = Allocation(res.witness_num), res.witness_den
    R = rate_numerator(P, allocation)
    if L is not None and R != L:
        raise AssertionError("scaled witness does not achieve capacity")
    if z is None:
        bound = max(*(sum(c.values()) for c in split_costs(P.E, allocation.counts)), 4 * P.K * R)
        z = 1
        while d_field.order ** z <= bound:
            z += 1
    ext = extend_field(d_field, z)
    ch = build_big_channel(P, allocation, ext.big)
    precoders, D = find_encoders(P, ch, R, seed)
    sch = CodingScheme(P, ext, allocation, ch, precoders, D, seed)
    if not sch.certificate_ok():
        raise AssertionError("scheme certificate failed")
    return sch


# ---------------------------------------------------------------------------
# simulation


def simulate(sch: CodingScheme, data) -> Mat:
    """One big-channel use: encode per server, evaluate boxes, decode.

    `data` is a list of K R x 1 columns over F_q, one per stream.  Returns
    the R x 1 decoded column, which equals the entrywise sum of the stream
    columns by the scheme certificate.
    This is simulate_batch on a batch of one.
    """
    return Mat._of(sch.ext.big, simulate_batch(sch, _data_block(sch, data)))


def simulate_batch(sch: CodingScheme, data) -> np.ndarray:
    """Vectorized simulate over many data realizations at once.

    `data` is a (K, R, B) integer array of F_q elements; returns the (R, B)
    decoded block, one column per realization.  The scheme's plan
    (CodingScheme.plan) runs it as stacked products: every stream precoded at
    once, (K, L, R) by (K, R, B); the precoded rows summed into the box
    inputs by one gather and one field sum; one product per distinct shape
    of box block (a half-MDS box is two blocks, its zero halves skipped);
    and one decoder product.  An entry outside 0..q-1 raises
    SchemeError naming its (stream, row, column), counted from 0.
    """
    ops, q = field_ops(sch.ext.big), sch.ext.big.order
    data = np.asarray(data)
    if data.ndim != 3 or data.shape[:2] != (sch.problem.K, sch.R):
        raise SchemeError(f"batch shape {data.shape} does not match (K={sch.problem.K}, R={sch.R})")
    if data.dtype.kind not in "iu":
        raise SchemeError(f"data must be an integer array, not {data.dtype}")
    # one pass: a negative entry, read as uint64, is at least 2^63 > q
    unsigned = data if data.dtype.kind == "u" else data.astype(np.int64, copy=False).view(np.uint64)
    if data.size and unsigned.max() >= q:
        k, i, b = np.argwhere((data < 0) | (data >= q))[0]
        raise SchemeError(f"data entry {data[k, i, b]} at (stream {sch.problem.stream_names[k]}, "
                          f"row {i}, column {b}) is not an element of {sch.ext.big.name}")
    plan, B = sch.plan, data.shape[2]
    K, L, _ = plan.precoders.shape
    # the result outlives the stage arrays, so it is allocated before them:
    # they then free one run of the heap, not holes around it
    decoded = np.empty((sch.R, B), dtype=ops.dtype)
    pre = np.empty((K * L + 1, B), dtype=ops.dtype)  # row K * L stays zero
    pre[-1] = 0
    ops.matmul(plan.precoders, data, out=pre[:-1].reshape(K, L, B))
    x = ops.sum(pre.take(plan.gather, axis=0))
    y = np.empty((plan.decoder.shape[1], B), dtype=ops.dtype)  # box outputs, in the plan's order
    i = o = 0  # first block input and output of the next stack
    for M in plan.blocks:
        g, rows, cols = M.shape
        ops.matmul(M, x[i:i + g * cols].reshape(g, cols, B), out=y[o:o + g * rows].reshape(g, rows, B))
        i, o = i + g * cols, o + g * rows
    return ops.matmul(plan.decoder, y, out=decoded)


def true_sum(sch: CodingScheme, data) -> Mat:
    """The R x 1 entrywise sum of the K stream columns, as simulate takes them."""
    return Mat._of(sch.ext.big, field_ops(sch.ext.big).sum(_data_block(sch, data)))


def _data_block(sch: CodingScheme, data) -> np.ndarray:
    """A list or tuple of K R x 1 columns over F_q as a (K, R, 1) int array."""
    f, K, R = sch.ext.big, sch.problem.K, sch.R
    if (isinstance(data, (list, tuple)) and len(data) == K
            and all(isinstance(c, Mat) and c.field == f and c.array.shape == (R, 1) for c in data)):
        return np.array([c.array for c in data])
    raise SchemeError(f"data must be {K} columns {R} x 1 over {f.name}")


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


def reference_problem() -> Problem:
    """Four streams a, b, c, d on servers (1=ab, 2=ac, 3=bc, 4=d), fully entangled."""
    W = (frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3}), frozenset({4}))
    return Problem(4, W, full_clique(4), ("a", "b", "c", "d"))


def worked_reference_scheme(d_field: Field | None = None) -> CodingScheme:
    """The hard-coded worked 5-sum-box scheme: rate 4/5, decoder V_dec.

    Valid over any field (entries are 0/±1); defaults to F_2.  Its problem's
    data field is d_field, so a rendered file reads back.
    """
    f = d_field if d_field is not None else field_construct(2)
    P = replace(reference_problem(), base_field=(f.p, f.r))
    alloc = Allocation((1, 1, 1, 2))
    ext = extend_field(f, 1)
    M = Mat(f, [list(row) for row in _REF_M_ROWS])  # entries are 0/1 in any field
    ch = assemble_channel(P, alloc, ((0, M),))
    D = Mat(f, [list(row) for row in _REF_VDEC_ROWS])
    precoders = tuple(m.right_inverse() for m in ch.through(D))
    sch = CodingScheme(P, ext, alloc, ch, precoders, D, seed=0)
    if not sch.certificate_ok():
        raise AssertionError("reference scheme certificate failed")
    return sch


# ---------------------------------------------------------------------------
# serialization


def render_scheme(sch: CodingScheme) -> str:
    out = ["PROBLEM", render_problem(sch.problem).rstrip("\n")]
    base = sch.ext.base  # the PROBLEM's data field, restated
    out += [
        "EXTENSION",
        f"d {base.p} {base.r}",
        f"z {sch.ext.z}",
        "base_modulus " + ",".join(map(str, sch.ext.base.modulus)),
        "big_modulus " + ",".join(map(str, sch.ext.big.modulus)),
    ]
    out.append("ALLOCATION")
    for (t, s), n in zip(sch.problem.cost_index(), sch.allocation.counts):
        out.append(f"{t + 1} {s} {n}")
    out.append("BOXES")
    for t, M in sch.channel.boxes:
        out.append(f"clique {t + 1}")
        out.append(box_to_text(M))
    out.append("ENCODERS")
    for name, pk in zip(sch.problem.stream_names, sch.precoders):
        out.append(f"stream {name}")
        out.append(pk.to_text())
    out.append("DECODER")
    out.append(sch.decoder.to_text())
    out.append("SEED")
    out.append(str(sch.seed))
    return "\n".join(out) + "\n"


_SECTIONS = ("PROBLEM", "EXTENSION", "ALLOCATION", "BOXES", "ENCODERS", "DECODER", "SEED")
_EXTENSION_KEYS = ("d", "z", "base_modulus", "big_modulus")


def parse_scheme(text: str) -> CodingScheme:
    sections: dict[str, list[str]] = {}
    cur = None
    for line in text.splitlines():
        if line.strip() in _SECTIONS:
            cur = line.strip()
            if cur in sections:
                raise SchemeError(f"repeated section {cur}")
            sections[cur] = []
        elif cur is not None:
            sections[cur].append(line)
        elif line.strip():
            raise SchemeError(f"content before first section: {line!r}")
    for need in _SECTIONS:
        if need not in sections:
            raise SchemeError(f"missing section {need}")
    P = _located("PROBLEM", parse_problem, "\n".join(sections["PROBLEM"]))
    ext_kv = {}
    for line in filter(str.strip, sections["EXTENSION"]):
        key, _, val = line.strip().partition(" ")
        if key not in _EXTENSION_KEYS or key in ext_kv:
            raise SchemeError(f"EXTENSION line {line.strip()!r}: "
                              f"{'repeated' if key in ext_kv else 'unknown'} key")
        ext_kv[key] = val
    for key in _EXTENSION_KEYS:
        if key not in ext_kv:
            raise SchemeError(f"EXTENSION section has no '{key}' line")
    d = _ints("EXTENSION", "d " + ext_kv["d"], 2, skip=1)
    if tuple(d) != P.base_field:  # d restates the PROBLEM's field; it may not name another
        raise SchemeError("EXTENSION 'd {} {}' is not the PROBLEM field 'field {} {}'"
                          .format(*d, *P.base_field))
    (z,) = _ints("EXTENSION", "z " + ext_kv["z"], 1, skip=1)
    ext = extend_field(P.data_field(), z)
    for key, field in (("base_modulus", ext.base), ("big_modulus", ext.big)):
        if ext_kv[key].replace(" ", "") != ",".join(map(str, field.modulus)):
            raise SchemeError(f"{key.replace('_', ' ')} mismatch")
    layout = [_ints("ALLOCATION", line, 3) for line in sections["ALLOCATION"] if line.strip()]
    if [(t - 1, s) for t, s, _ in layout] != P.cost_index():
        raise SchemeError("allocation entries do not match the instance's (t, s) layout")
    alloc = Allocation(tuple(n for _, _, n in layout))
    boxes, read = [], {}  # read: box text -> its checked Mat, shared by equal texts
    for lbl, blk in _parse_labeled_blocks("\n".join(sections["BOXES"]), "clique"):
        if blk not in read:
            M = _located(f"BOXES clique {lbl}", box_from_text, blk, ext.big)
            if not is_valid_box(M):
                raise SchemeError(f"serialized box for clique {lbl} is not a valid box")
            read[blk] = M
        boxes.append((_ints("BOXES", "clique " + lbl, 1, skip=1)[0] - 1, read[blk]))
    ch = assemble_channel(P, alloc, tuple(boxes))
    enc_blocks = _parse_labeled_blocks("\n".join(sections["ENCODERS"]), "stream")
    if tuple(lbl for lbl, _ in enc_blocks) != P.stream_names:
        raise SchemeError("ENCODERS stream labels mismatch")
    precoders = tuple(_located(f"ENCODERS stream {lbl}", Mat.from_text, blk, ext.big)
                      for lbl, blk in enc_blocks)
    D = _located("DECODER", Mat.from_text, "\n".join(sections["DECODER"]), ext.big)
    if D.cols != ch.n:
        raise SchemeError(f"DECODER has {D.cols} columns, expected sum of N_t = {ch.n}")
    for name, r, pk in zip(P.stream_names, ch.rows, precoders):
        if (pk.rows, pk.cols) != (len(r), D.rows):
            raise SchemeError(f"ENCODERS stream {name} is {pk.rows}x{pk.cols}, expected "
                              f"{len(r)}x{D.rows} (its box columns x decoder rows)")
    (seed,) = _ints("SEED", " ".join(sections["SEED"]), 1)
    return CodingScheme(P, ext, alloc, ch, precoders, D, seed)


def _ints(section: str, line: str, count: int, skip: int = 0) -> list[int]:
    """The integers after the first `skip` words of a line; a SchemeError naming the
    section and the line unless there are exactly `count` of them."""
    try:
        vals = [parse_decimal(v) for v in line.split()[skip:]]
    except ValueError:
        vals = []
    if len(vals) != count:
        raise SchemeError(f"{section} line {line.strip()!r}: expected "
                          f"{count} integer{'s' if count > 1 else ''}")
    return vals


def _located(where: str, read, *args):
    """read(*args), with `where` prefixed to any error it raises (same type)."""
    try:
        return read(*args)
    except ValueError as exc:
        raise type(exc)(f"{where}: {exc}") from None


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
