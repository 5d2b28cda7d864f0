"""Exhaustive half-MDS check of an N-sum box, used by the tests only.

`sumbox.nsumbox` builds boxes that are half-MDS by construction; this
checker confirms it on every paired-column subset, ranking with `Mat.rank`.
"""

from sumbox.matrix import Mat
from sumbox.nsumbox import BoxError

HALF_MDS_EXHAUSTIVE_MAX = 12


def is_half_mds(M: Mat) -> tuple[bool, tuple[int, ...] | None]:
    """Check every paired-column subset spans min(2n, N) dimensions.

    Exhaustive over all 2^N - 1 subsets; boxes with N above
    HALF_MDS_EXHAUSTIVE_MAX are refused.  Returns (ok, witness): witness is
    the first failing subset (1-based row indices) in colexicographic order,
    or None.
    """
    if M.cols != 2 * M.rows:
        raise BoxError(f"expected N x 2N matrix, got {M.rows} x {M.cols}")
    N = M.rows
    if N > HALF_MDS_EXHAUSTIVE_MAX:
        raise BoxError(f"N = {N} exceeds the exhaustive bound {HALF_MDS_EXHAUSTIVE_MAX}")
    for mask in range(1, 1 << N):  # ascending bitmask = colex subset order
        idx = [i for i in range(N) if mask >> i & 1]
        pairs = Mat._of(M.field, M.array[:, idx + [N + i for i in idx]])
        if pairs.rank() != min(2 * len(idx), N):
            return False, tuple(i + 1 for i in idx)
    return True, None
