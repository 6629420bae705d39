"""Fractional-sample interpolation with a 64-phase 8-tap filter bank.

Correspondence fields address the reference picture at 1/64-pel
resolution, so plain quarter-pel filters are not enough.  The bank here
extends the standard quarter/half-pel 8-tap filters to all 64 phases:
a DCT-derived kernel supplies smooth intermediate responses and a cubic
spline correction pins the published quarter-, half- and integer-phase
taps exactly.  Filtering has integer semantics: 6-bit coefficients, one
horizontal and one vertical pass, each with a (+32) >> 6 stage.
``warp_block`` is the one warp: it gathers each pixel's 8x8 support as 8
packed uint64 rows and filters it in float32 (a matmul, then an einsum),
which is exact: the bank's tap sums keep every partial sum below 40,000
in magnitude, far inside float32's exact-integer range (2**24).

The package has one bank, ``generate_dctif_bank()``, read only here, so
these bounds hold for every call; a ``bank`` argument passed to
``warp_block``, ``tzs_search`` or ``mode_decide`` must equal it.

Two kernels filter a window once for many candidates.  ``row_bank`` runs
the horizontal pass at all 64 phases over one block's window, in float32
strips, and keeps it as int16 (pass 1 lies in [-96, 351]); ``warp_rows``
then warps any field of that block with one take of 8 pass-1 values per
pixel and the gather's vertical pass, and gathers only the pixels whose
base leaves the bank (the far side of a face seam).  Both give the
gather's integers.  One pair of separable int32 passes over an
edge-clamped window serves the translations, whose pixels share one
phase: ``phase_planes`` filters the translational search's quarter-pel
window at its 16 phases at once, and ``phase_block`` one translated
block at its one phase pair (the evaluator's translational chroma, and a
fractional translation costed outside the search's window).
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import as_strided

from cubemc.motion_model import CorrespondenceField, round_half_away

__all__ = [
    "chroma_field",
    "fetch_block",
    "generate_dctif_bank",
    "sample_fractional",
    "warp_block",
]

TAPS = 8
PHASES = 64
_GAIN = 64  # coefficient sum of every phase
_STRIP = 8  # columns per float32 GEMM of row_bank

# Published 8-tap luma filters that the generated bank must contain
# verbatim (integer, quarter and half positions).
_IDENT0 = np.array([0, 0, 0, 64, 0, 0, 0, 0], dtype=np.float64) / 64.0
_IDENT1 = np.array([0, 0, 0, 0, 64, 0, 0, 0], dtype=np.float64) / 64.0
_QUARTER = np.array([-1, 4, -10, 58, 17, -5, 1, 0], dtype=np.float64) / 64.0
_HALF = np.array([-1, 4, -11, 40, 40, -11, 4, -1], dtype=np.float64) / 64.0


def _dct_row(t: float) -> np.ndarray:
    """Ideal DCT interpolation weights for a sample at position t.

    Expresses the 8 integer samples in the DCT basis and re-evaluates
    the series at t; row sums are exactly 1 for any t.
    """
    k = np.arange(TAPS)
    w = np.full(TAPS, 1.0 / TAPS)
    for n in range(1, TAPS):
        w += (
            (2.0 / TAPS)
            * np.cos(np.pi * n * (2 * k + 1) / (2 * TAPS))
            * np.cos(np.pi * n * (2 * t + 1) / (2 * TAPS))
        )
    return w


def _natural_spline(knots: np.ndarray, values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Natural cubic spline through ``values`` (one column per curve) at
    the equally spaced ``knots``, evaluated at ``x`` in [knots[0], knots[-1]).

    The second derivatives M are zero at both ends; the interior ones
    solve the tridiagonal system M[i-1] + 4 M[i] + M[i+1] = 6 d2y[i] / h^2.
    """
    n, h = len(knots) - 1, knots[1] - knots[0]
    system = 4.0 * np.eye(n - 1) + np.eye(n - 1, k=1) + np.eye(n - 1, k=-1)
    m = np.zeros_like(values)
    m[1:-1] = np.linalg.solve(system, 6.0 * np.diff(values, 2, axis=0) / (h * h))

    i = np.minimum(((x - knots[0]) // h).astype(np.intp), n - 1)
    a = ((knots[i + 1] - x) / h)[:, None]  # weight of the left knot
    b = ((x - knots[i]) / h)[:, None]
    return (
        a * values[i] + b * values[i + 1]
        + ((a**3 - a) * m[i] + (b**3 - b) * m[i + 1]) * (h * h / 6.0)
    )


@functools.cache
def generate_dctif_bank() -> np.ndarray:
    """The (64, 8) int32 coefficient bank, built once and cached.

    Construction: raw DCT rows for phases p/64 around the center tap,
    plus a natural cubic spline through the residuals of the five known
    filters (phases 0, 16, 32, 48 and the next integer), so those phases
    reproduce the published taps exactly after rounding.  Rows are then
    symmetrized so phase p mirrors phase 64 - p, rounded half away from
    zero, and sum-corrected to 64 on the largest-magnitude tap.
    """
    knots = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    anchors = np.vstack([_IDENT0, _QUARTER, _HALF, _QUARTER[::-1], _IDENT1])
    resid = anchors - np.vstack([_dct_row(3.0 + a) for a in knots])
    alphas = np.arange(PHASES) / PHASES
    raw = np.vstack([_dct_row(3.0 + a) for a in alphas]) + _natural_spline(knots, resid, alphas)

    # enforce w[p] == w[64 - p] reversed, with the identity as phase 64
    ext = np.vstack([raw, _IDENT1])
    sym = (raw + ext[::-1][:PHASES][:, ::-1]) / 2.0

    scaled = sym * _GAIN
    bank = round_half_away(scaled).astype(np.int32)
    for p in range(PHASES):
        diff = _GAIN - int(bank[p].sum())
        if diff:
            big = np.flatnonzero(np.abs(bank[p]) == np.abs(bank[p]).max())
            idx = big[0] if (p <= PHASES // 2 or len(big) == 1) else big[-1]
            bank[p, idx] += diff

    bank.flags.writeable = False
    return bank


def _warp_arrays(plane: np.ndarray, rx_q6: np.ndarray, ry_q6: np.ndarray) -> np.ndarray:
    """Separable 8x8-tap filtering at 1/64-pel positions.

    ``rx_q6`` and ``ry_q6`` are (h, w) integer arrays (int32 fields are
    read as they are), or (n, h, w) for a batch of n fields warped in one
    pass.  Out-of-plane taps clamp to the nearest edge pixel.  Only the
    edge-clamped window covering the taps of the positions' bounding box
    is read (``fetch_block``), so the cost follows the block, not the
    plane.  Only when that box reaches further out than one full tap span
    are the base positions clipped, which cannot change the clamped
    result and bounds the window by the plane.

    Every field, a translation included, gathers its 8x8 support per
    pixel as 8 packed rows: the window is viewed, without a copy, as
    unaligned uint64 words of 8 horizontal samples, and viewed back as
    uint8 after the gather (the words are never read as values, so byte
    order does not matter).

    The gather filters in float32 (pass 1 a per-pixel matmul, pass 2 one
    ``einsum`` over the 8 taps), and the result is still exact.  The
    bank's positive taps sum to at most 88 and its negative taps to at
    least -24, so pass 1 lies in [-6120, 22440], its rounded rows in
    [-96, 351], and every partial sum of pass 2 below 40,000 in
    magnitude: all exact integers in float32 (below 2**24) in any
    summation order.  ``floor((x + 32) * 2**-6)`` is then ``(x + 32) >> 6``
    exactly, so it gives the integers of the int32 ``phase_planes``.
    """
    height, width = plane.shape
    xi, xlo, xhi = _clipped_base(rx_q6, width)
    yi, ylo, yhi = _clipped_base(ry_q6, height)
    fbank = generate_dctif_bank().astype(np.float32)
    ch = np.take(fbank, rx_q6 & 63, axis=0)[..., None]  # (..., 8, 1)
    cv = np.take(fbank, ry_q6 & 63, axis=0)  # (..., 8)

    # window column 0 is the first tap (xi - 3) of the leftmost position
    win = fetch_block(plane, xlo - 3, ylo - 3, xhi - xlo + TAPS, yhi - ylo + TAPS)
    # supports[r, c, k] packs samples c..c+7 of window row r + k into one
    # unaligned uint64 word: one zero-copy view of the 8x8 support of
    # every window position
    (wh, ww), row = win.shape, win.strides[0]
    supports = as_strided(
        win, (wh - TAPS + 1, ww - TAPS + 1, TAPS, TAPS), (row, 1, row, 1), writeable=False
    ).view(np.uint64)[..., 0]
    sel = supports[yi - ylo, xi - xlo].view(np.uint8).reshape(*xi.shape, TAPS, TAPS)

    rows = _shift6(np.matmul(sel.astype(np.float32), ch))  # (..., 8, 1)
    out = _shift6(np.einsum("...k,...k->...", cv, rows[..., 0]))
    return np.clip(out, 0, 255).astype(np.uint8)


def _clipped_base(r_q6: np.ndarray, size: int):
    """Base positions on an axis of ``size`` samples, and their min and
    max, clipped to one tap span beyond the plane only if they reach it."""
    base = r_q6 >> 6
    lo, hi = int(base.min()), int(base.max())
    first, last = 3 - TAPS, size + TAPS - 4
    if lo < first or hi > last:
        base = np.clip(base, first, last)
        lo, hi = min(max(lo, first), last), min(max(hi, first), last)
    return base, lo, hi


def _shift6(x: np.ndarray) -> np.ndarray:
    """``(x + 32) >> 6`` in place on integer-valued float32 below 2**24."""
    x += 32
    x *= 1 / 64
    return np.floor(x, out=x)


def _separable(win, ch, cv, width, height) -> np.ndarray:
    """The int32 8-tap passes over an edge-clamped window ``win``, which
    starts 3 samples up and left of the output: one horizontal pass with
    taps ``ch[k]``, then one vertical pass with taps ``cv[k]``, each
    rounding with (+32) >> 6, then clipped to uint8.  A tap is an integer
    or an array of phases that broadcasts against the (rows, columns) it
    multiplies, so one call filters at one phase pair or at many."""
    win = win.astype(np.int32)
    rows = (sum(ch[k] * win[:, k : k + width] for k in range(TAPS)) + 32) >> 6
    out = cv[0] * rows[..., :height, :]  # summed in place to keep peak memory down
    for k in range(1, TAPS):
        out += cv[k] * rows[..., k : k + height, :]
    return np.clip((out + 32) >> 6, 0, 255).astype(np.uint8)


def phase_planes(plane, x, y, width, height) -> np.ndarray:
    """A ``height`` x ``width`` window of ``plane`` filtered at the 16
    quarter-pel phase pairs: uint8 ``out[j, i, r, c]`` is the edge-clamped
    sample at quarter-pel ``(4 * (x + c) + i, 4 * (y + r) + j)``.  It
    serves only the translational search's quarter-pel window.
    """
    win = fetch_block(plane, x - 3, y - 3, width + TAPS - 1, height + TAPS - 1)
    quarters = generate_dctif_bank()[:: PHASES // 4].T  # (tap, phase)
    return _separable(win, quarters[:, :, None, None], quarters[:, :, None, None, None],
                      width, height)


def phase_block(plane, x_q6: int, y_q6: int, width: int, height: int) -> np.ndarray:
    """``warp_block`` of a translation: the ``height`` x ``width`` block of
    ``plane`` whose top-left sample sits at 1/64-pel ``(x_q6, y_q6)``.
    Every pixel has the same phase pair, so one edge-clamped window is
    filtered at that pair; the int32 passes give the gather's integers."""
    x, y = x_q6 >> 6, y_q6 >> 6
    win = fetch_block(plane, x - 3, y - 3, width + TAPS - 1, height + TAPS - 1)
    bank = generate_dctif_bank()
    return _separable(win, bank[x_q6 & 63], bank[y_q6 & 63], width, height)


def row_bank(plane, x, y, width, height):
    """Pass 1 of the gather, filtered once for every 1/64-pel position
    whose base lies in the ``width`` x ``height`` rectangle at ``(x, y)``:
    the horizontal 8-tap pass at all 64 phases over the edge-clamped
    window, as int16 ``rows[p, c, r]``, the rounded pass-1 value at phase
    ``p`` and base column ``x + c`` on sample row ``y - 3 + r``.  The width
    is rounded up to whole strips of ``_STRIP`` columns, each one float32
    GEMM, so the float32 temporary is one strip, not the window.  Returns
    ``(x, y, rows)`` for ``warp_rows``.

    The same 8 taps per sample give the same integers as the gather: the
    GEMM multiplies by the taps / 64 and adds 1/2 through a ninth tap on a
    row of ones, so it sums (x + 32) / 64 where the gather sums x.  Every
    product and partial sum is a multiple of 1/64 below 2**9 in magnitude
    (x lies in [-6120, 22440]), exact in float32 in any order, so its floor
    is ``(x + 32) >> 6``, in [-96, 351]: int16 holds it.
    """
    width = -(-width // _STRIP) * _STRIP
    win = fetch_block(plane, x - 3, y - 3, width + TAPS - 1, height + TAPS - 1)
    (nrows, _), (s0, s1) = win.shape, win.strides
    taps = as_strided(win, (TAPS, width, nrows), (s1, s1, s0), writeable=False)
    fbank = np.empty((PHASES, TAPS + 1), dtype=np.float32)
    fbank[:, :TAPS], fbank[:, TAPS] = generate_dctif_bank() / 64, 0.5
    strip = np.ones((TAPS + 1, _STRIP, nrows), dtype=np.float32)
    rows = np.empty((PHASES, width, nrows), dtype=np.int16)
    for c in range(0, width, _STRIP):
        strip[:TAPS] = taps[:, c : c + _STRIP]
        out = fbank @ strip.reshape(TAPS + 1, -1)
        rows[:, c : c + _STRIP] = np.floor(out, out=out).reshape(PHASES, _STRIP, nrows)
    return x, y, rows


def warp_rows(plane, rows, field) -> np.ndarray:
    """``warp_block(plane, field)`` with pass 1 read from ``rows``
    (``row_bank`` of the same plane): one take of each pixel's 8
    pass-1 values, then the gather's float32 pass 2.  Pixels whose base
    lies outside the bank's rectangle (across a face seam, or a field far
    from it) are gathered by ``_warp_arrays`` as one 1-D subset."""
    x, y, r = rows
    _, ncols, nrows = r.shape
    rx, ry = field.rx_q6, field.ry_q6
    col, row = (rx >> 6) - x, (ry >> 6) - y
    outside = (col < 0) | (col >= ncols) | (row < 0) | (row > nrows - TAPS)
    gather = outside.any()
    if gather:  # first, so its temporaries and the bank pass's never coexist
        far = _warp_arrays(plane, rx[outside], ry[outside])
    idx = ((rx & 63) * ncols + col) * nrows + row
    if gather:
        idx[outside] = 0
    # words[i] is the 16 bytes of the 8 int16 values from flat entry i on,
    # a zero-copy view, so the take copies one word per pixel
    flat = r.reshape(-1)
    words = as_strided(flat, (flat.size - TAPS + 1, TAPS), (flat.itemsize,) * 2, writeable=False)
    sel = words.view(np.dtype((np.void, 2 * TAPS)))[:, 0][idx].view(np.int16)
    cv = np.take(generate_dctif_bank().astype(np.float32), ry & 63, axis=0)  # (..., 8)
    p2 = np.einsum("...k,...k->...", cv, sel.reshape(cv.shape).astype(np.float32))
    pred = np.clip(_shift6(p2), 0, 255).astype(np.uint8)
    if gather:
        pred[outside] = far
    return pred


def check_bank(given) -> None:
    """Raise ``ValueError`` unless ``given`` is None or equal to
    ``generate_dctif_bank()``.  The bank itself passes on one ``is``."""
    if given is None or given is generate_dctif_bank():
        return
    if not np.array_equal(given, generate_dctif_bank()):
        raise ValueError("bank must be None or equal to generate_dctif_bank()")


def sample_fractional(plane: np.ndarray, x_q6: int, y_q6: int) -> int:
    """One interpolated sample at a 1/64-pel position (edge-clamped)."""
    rx = np.full((1, 1), x_q6, dtype=np.int64)
    ry = np.full((1, 1), y_q6, dtype=np.int64)
    return int(_warp_arrays(plane, rx, ry)[0, 0])


def warp_block(
    plane: np.ndarray, field: CorrespondenceField, bank: np.ndarray | None = None
) -> np.ndarray:
    """Predict a block from ``plane`` at the field's reference positions.

    Taps falling outside the plane are clamped to the nearest edge
    pixel; output is uint8 in [0, 255], shaped like the field: (h, w),
    or (n, h, w) for a batch, whose slice i is the warp of field slice i.
    ``bank``, kept for positional callers, must be None or equal to
    ``generate_dctif_bank()`` (``check_bank``).
    """
    check_bank(bank)
    return _warp_arrays(plane, field.rx_q6, field.ry_q6)


def fetch_block(plane: np.ndarray, x0: int, y0: int, width: int, height: int) -> np.ndarray:
    """Integer-pel block read with edge clamp (no filtering).

    A block inside the plane comes back as a read-only view of it, so a
    caller can never write into the reference picture; a block reaching
    past an edge is gathered into a new array with clamped indices.
    """
    if 0 <= x0 and x0 + width <= plane.shape[1] and 0 <= y0 and y0 + height <= plane.shape[0]:
        view = plane[y0 : y0 + height, x0 : x0 + width]
        view.flags.writeable = False
        return view
    ys = np.clip(np.arange(y0, y0 + height), 0, plane.shape[0] - 1)
    xs = np.clip(np.arange(x0, x0 + width), 0, plane.shape[1] - 1)
    return plane[np.ix_(ys, xs)]


def chroma_field(field: CorrespondenceField) -> CorrespondenceField:
    """Luma field adapted to half-resolution chroma planes.

    Keeps every second row and column and halves the coordinates,
    rounded half away from zero, so chroma follows the luma
    correspondence without a second transport.  A batch of n fields,
    (n, h, w), gives the batch of their chroma fields, (n, h/2, w/2).
    """
    return CorrespondenceField(
        round_half_away(field.rx_q6[..., ::2, ::2] / 2).astype(np.int32),
        round_half_away(field.ry_q6[..., ::2, ::2] / 2).astype(np.int32),
        field.valid[..., ::2, ::2].copy(),
    )
