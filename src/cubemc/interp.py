"""Fractional-sample interpolation with a 64-phase 8-tap filter bank.

Correspondence fields address the reference picture at 1/64-pel
resolution, so plain quarter-pel filters are not enough.  The bank here
extends the standard quarter/half-pel 8-tap filters to all 64 phases:
a DCT-derived kernel supplies smooth intermediate responses and a cubic
spline correction pins the published quarter-, half- and integer-phase
taps exactly.  All filtering is integer-only: 6-bit coefficients, one
horizontal and one vertical pass, each with a (+32) >> 6 stage.
"""

from __future__ import annotations

import numpy as np

from cubemc.motion_model import CorrespondenceField, round_half_away

__all__ = [
    "TAPS",
    "PHASES",
    "generate_dctif_bank",
    "sample_fractional",
    "warp_block",
    "phase_planes",
    "fetch_block",
    "chroma_field",
]

TAPS = 8
PHASES = 64
_GAIN = 64  # coefficient sum of every phase

# Published 8-tap luma filters that the generated bank must contain
# verbatim (integer, quarter and half positions).
_IDENT0 = np.array([0, 0, 0, 64, 0, 0, 0, 0], dtype=np.float64) / 64.0
_IDENT1 = np.array([0, 0, 0, 0, 64, 0, 0, 0], dtype=np.float64) / 64.0
_QUARTER = np.array([-1, 4, -10, 58, 17, -5, 1, 0], dtype=np.float64) / 64.0
_HALF = np.array([-1, 4, -11, 40, 40, -11, 4, -1], dtype=np.float64) / 64.0

_BANK: np.ndarray | None = None


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


def generate_dctif_bank() -> np.ndarray:
    """The (64, 8) int32 coefficient bank, built once and cached.

    Construction: raw DCT rows for phases p/64 around the center tap,
    plus a natural cubic spline through the residuals of the five known
    filters (phases 0, 16, 32, 48 and the next integer), so those phases
    reproduce the published taps exactly after rounding.  Rows are then
    symmetrized so phase p mirrors phase 64 - p, rounded half away from
    zero, and sum-corrected to 64 on the largest-magnitude tap.
    """
    global _BANK
    if _BANK is not None:
        return _BANK

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
    _BANK = bank
    return bank


def _warp_arrays(
    plane: np.ndarray, rx_q6: np.ndarray, ry_q6: np.ndarray, bank: np.ndarray
) -> np.ndarray:
    """Separable 8x8-tap filtering at 1/64-pel positions, int32 math.

    ``rx_q6`` and ``ry_q6`` are (h, w) arrays, or (n, h, w) for a batch
    of n fields warped in one pass.  Out-of-plane taps clamp to the
    nearest edge pixel.  Only the edge-clamped window covering the taps
    of the positions' bounding box is read (``fetch_block``) and widened
    to int32, so the cost follows the block, not the plane.  Base
    positions further out than one full tap span are clipped first,
    which cannot change the clamped result and bounds the window by the
    plane.

    A 2-D pure translation (``rx == rx[0, 0] + 64 * col`` and ``ry ==
    ry[0, 0] + 64 * row``) shares one phase per axis: it is the one-phase,
    no-margin case of ``phase_planes``.  Any other field, and every batch,
    gathers its 64 neighborhood samples per pixel.  Both give the same
    integers: each pass rounds with (+32) >> 6 in the same order.
    """
    height, width = plane.shape
    h, w = rx_q6.shape[-2:]
    x0, y0 = int(rx_q6.flat[0]), int(ry_q6.flat[0])
    if rx_q6.ndim == 2 and (rx_q6 == x0 + PHASES * np.arange(w)).all() and (
        ry_q6 == y0 + PHASES * np.arange(h)[:, None]
    ).all():
        return phase_planes(plane, x0 >> 6, y0 >> 6, w, h, [x0 & 63], [y0 & 63], bank)[0, 0]

    xi = np.clip(rx_q6 >> 6, -TAPS + 3, width + TAPS - 4)
    yi = np.clip(ry_q6 >> 6, -TAPS + 3, height + TAPS - 4)
    ch = bank[rx_q6 & 63]  # (..., 8)
    cv = bank[ry_q6 & 63]

    # window column 0 is the first tap (xi - 3) of the leftmost position
    bx, by = int(xi.min()) - 3, int(yi.min()) - 3
    win = fetch_block(plane, bx, by, int(xi.max()) + 5 - bx, int(yi.max()) + 5 - by)
    win = win.astype(np.int32)
    windows = np.lib.stride_tricks.sliding_window_view(win, (TAPS, TAPS))
    sel = windows[yi - 3 - by, xi - 3 - bx]
    rows = (np.einsum("...rc,...c->...r", sel, ch, dtype=np.int32) + 32) >> 6
    out = (np.einsum("...r,...r->...", cv, rows, dtype=np.int32) + 32) >> 6
    return np.clip(out, 0, 255).astype(np.uint8)


def phase_planes(plane, x, y, width, height, xphases, yphases, bank) -> np.ndarray:
    """A ``height`` x ``width`` window of ``plane`` filtered at every pair
    of phases: uint8 ``out[j, i, r, c]`` is the edge-clamped sample at
    1/64-pel ``(64 * (x + c) + xphases[i], 64 * (y + r) + yphases[j])``.
    One horizontal 8-tap pass per x-phase over the fetched window, then
    one vertical pass per y-phase, each rounding with (+32) >> 6.
    """
    win = fetch_block(plane, x - 3, y - 3, width + TAPS - 1, height + TAPS - 1).astype(np.int32)
    ch, cv = bank[xphases][:, :, None, None], bank[yphases][:, None, :, None, None]
    rows = (sum(ch[:, k] * win[:, k : k + width] for k in range(TAPS)) + 32) >> 6
    out = cv[:, :, 0] * rows[:, :height]  # summed in place to keep peak memory down
    for k in range(1, TAPS):
        out += cv[:, :, k] * rows[:, k : k + height]
    return np.clip((out + 32) >> 6, 0, 255).astype(np.uint8)


def sample_fractional(
    plane: np.ndarray, x_q6: int, y_q6: int, bank: np.ndarray | None = None
) -> int:
    """One interpolated sample at a 1/64-pel position (edge-clamped)."""
    if bank is None:
        bank = generate_dctif_bank()
    rx = np.full((1, 1), x_q6, dtype=np.int64)
    ry = np.full((1, 1), y_q6, dtype=np.int64)
    return int(_warp_arrays(plane, rx, ry, bank)[0, 0])


def warp_block(
    plane: np.ndarray, field: CorrespondenceField, bank: np.ndarray | None = None
) -> np.ndarray:
    """Predict a block from ``plane`` at the field's reference positions.

    Taps falling outside the plane are clamped to the nearest edge
    pixel; output is uint8 in [0, 255], shaped like the field: (h, w),
    or (n, h, w) for a batch, whose slice i is the warp of field slice i.
    """
    if bank is None:
        bank = generate_dctif_bank()
    return _warp_arrays(
        plane, field.rx_q6.astype(np.int64), field.ry_q6.astype(np.int64), bank
    )


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
    correspondence without a second transport.
    """
    return CorrespondenceField(
        round_half_away(field.rx_q6[::2, ::2] / 2).astype(np.int32),
        round_half_away(field.ry_q6[::2, ::2] / 2).astype(np.int32),
        field.valid[::2, ::2].copy(),
    )
