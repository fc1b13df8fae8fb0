"""The kick's maps between the solver's dealiased block and P's box.

A kick maps the block of the spectrum onto the box, the index box of the
grid P is evaluated on, and P back onto the block (see solver.solve).  A
DFT with few inputs or outputs kept is cheaper as a direct product than as
a full FFT (Sorensen & Burrus, IEEE Trans. Signal Process. 41, 1993), so
each map is a matrix product per axis with partial DFT matrices.

Both index sets of the x1 product are symmetric: the block's kx rows come
in pairs +-kappa, and the box's x1 rows pair about the box's centre c.  So
the solver's loop holds the block folded (_fold): with s[kappa] the
spectrum times exp(2 pi i kappa c / n1), its state is
E = s[kappa] + s[-kappa] and W = i (s[kappa] - s[-kappa]) for kappa >= 0,
and the x1 maps are real cosine and sine matrices of half the height, which
the fold makes exact, not approximate.  Free flow depends on |k| alone, the
same at +-kappa, so the loop holds E and W each as its half-wave pair
Y+- = (u -+ i u_t / |k|) / 2 and turns both by one phase table
exp(+-i |k| tau) (cwlab._halfwave); the mean, at |k| = 0, has no phase and
is carried apart.  A kick maps the folded u = Y+ + Y- onto the box, and P
back, which adds -+ i dt P / 2|k| to Y+- and dt P's mean to u_t's.  The
fold is applied once, when the data enter the loop, and takes the block out
of the data's spectrum, which keeps only its free part; the unfold writes
the block back into its rows once per record (_unfold).  This module is the
only one that names the block's rows and columns of an rfft2 spectrum.  The
interaction's tube reads map a band's block of a slice onto the tube's box
by the same maps.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class _KickMaps(NamedTuple):
    """The maps between a folded block and a box of one grid, and the
    buffers their products write into; built once per solve.

    Along x1, with the box's nb1 rows at c +- d about its centre c and
    h = (nb1 + 1) // 2 of them at d >= 0: cos and sin are cos and sin of
    2 pi kappa d / n1 for those rows and the folded rows kappa = 0..K, so
    the box's lines are cos E + sin W at c + d and cos E - sin W at c - d.
    back_cos and back_sin are their transposes, which map the sum and the
    difference of the lines at c + d and c - d back onto E and W: they
    carry the fold's weights (1 at kappa = 0, else 2) and 1/2 in the
    column of the centre row, which pairs with itself when nb1 is odd.
    phase is exp(2 pi i kappa c / n1), the shift of the fold to c.  Along
    x2 the maps are real and act on a complex array viewed as (real,
    imaginary) pairs of floats: from_x2 is the rfft along x2 of the box's
    x2 columns cut to the block's ky, and to_x2 its inverse, which carries
    the Hermitian weights (1 at ky = 0, else 2; the block holds no Nyquist
    column) and 1 / (n1 n2).
    """

    cos: np.ndarray  # (h, K+1)
    sin: np.ndarray  # (h, K+1)
    back_cos: np.ndarray  # (K+1, h)
    back_sin: np.ndarray  # (K+1, h)
    phase: np.ndarray  # (K+1, 1) complex
    to_x2: np.ndarray  # (2 cols, nb2)
    from_x2: np.ndarray  # (nb2, 2 cols)
    lines: np.ndarray  # (nb1, 2 cols): the ky spectra of the box's x1 rows
    even: np.ndarray  # (h, 2 cols): cos E, or the lines' sum at c +- d
    odd: np.ndarray  # (h, 2 cols): sin W, or the lines' difference
    u: np.ndarray  # (nb1, nb2): a field on the box
    spec: np.ndarray  # (2, K+1, cols) complex: a folded spectrum on the block


def _kick_maps(shape, block, box) -> _KickMaps:
    """The maps between block, a solver._Block (its K and cols), and the
    index box (a slice per axis) of a grid of the given shape."""
    (n1, n2), (b1, b2), cols = shape, box, block.cols
    kappa, ky = np.arange(block.K + 1), np.arange(cols)
    nb1, h = b1.stop - b1.start, (b1.stop - b1.start + 1) // 2
    # Index products are reduced mod n while exact, so every angle lies in
    # [0, 2 pi) and every entry is as accurate as an FFT twiddle factor;
    # 2d and 2c are integers, as d and c may be half-integers.
    two_d = 2 * np.arange(nb1 - h, nb1) - (nb1 - 1)
    angle = np.pi / n1 * (np.multiply.outer(two_d, kappa) % (2 * n1))
    cos, sin = np.cos(angle), np.sin(angle)
    weights = np.where(kappa == 0, 1.0, 2.0)[:, None] * np.where(two_d == 0, 0.5, 1.0)
    phase = np.exp(1j * np.pi / n1 * (kappa * (b1.start + b1.stop - 1) % (2 * n1)))
    e2 = np.exp(-2j * np.pi / n2 * (np.multiply.outer(np.arange(b2.start, b2.stop), ky) % n2))
    from_x2 = e2.view(float)  # columns (cos, -sin) per ky
    ky_weights = np.repeat(np.where(ky == 0, 1.0, 2.0) / (n1 * n2), 2)
    to_x2 = np.ascontiguousarray((from_x2 * ky_weights).T)
    return _KickMaps(
        cos, sin, weights * cos.T, weights * sin.T, phase[:, None], to_x2, from_x2,
        lines=np.empty((nb1, 2 * cols)),
        even=np.empty((h, 2 * cols)),
        odd=np.empty((h, 2 * cols)),
        u=np.empty((nb1, from_x2.shape[0])),
        spec=np.empty((2, block.K + 1, cols), dtype=complex),
    )


def _kick_macs(maps: _KickMaps, reads_u: bool) -> int:
    """The real multiply-adds of one kick's products: the back half (x2,
    then the two x1 products), and the forward half, of the same count,
    for a P that reads u."""
    (nb1, nb2), (h, n_kappa), width = maps.u.shape, maps.cos.shape, maps.lines.shape[1]
    return (1 + reads_u) * (nb1 * nb2 * width + 2 * h * n_kappa * width)


def _fold(maps: _KickMaps, spec) -> np.ndarray:
    """The folded block, (2, K+1, cols): E and W of the block of spec, an
    rfft2 spectrum, shifted by maps.phase; see the module docstring.  The
    block is taken out of spec: its rows and columns there are zeroed."""
    K, cols = maps.spec.shape[1] - 1, maps.spec.shape[2]
    pos = spec[: K + 1, :cols] * maps.phase
    neg = spec[spec.shape[0] - K :, :cols][::-1] * maps.phase[1:].conj()  # kx = -1..-K
    spec[: K + 1, :cols] = spec[spec.shape[0] - K :, :cols] = 0.0
    folded = np.zeros((2, K + 1, cols), dtype=complex)
    folded[0] = pos
    folded[0, 1:] += neg
    folded[1, 1:] = 1j * (pos[1:] - neg)
    return folded


def _unfold(maps: _KickMaps, folded, spec) -> None:
    """Write the block that folded holds into its rows and columns of spec,
    an rfft2 spectrum: s[kappa] = (E - i W) / 2 and s[-kappa] = (E + i W) / 2
    for kappa > 0, s[0] = E[0], unshifted by maps.phase."""
    (E, W), K, cols = folded, maps.spec.shape[1] - 1, maps.spec.shape[2]
    spec[: K + 1, :cols] = (0.5 * E - 0.5j * W) * maps.phase.conj()
    spec[0, :cols] = E[0]
    spec[spec.shape[0] - K :, :cols] = ((0.5 * E[1:] + 0.5j * W[1:]) * maps.phase[1:])[::-1]


def _to_box(maps: _KickMaps, folded) -> np.ndarray:
    """The field on the box whose rfft2 is the block that folded holds and
    zero elsewhere, in maps.u."""
    nb1, h = maps.lines.shape[0], maps.even.shape[0]
    E, W = (f.view(float) for f in folded)
    np.matmul(maps.cos, E, out=maps.even)
    np.matmul(maps.sin, W, out=maps.odd)
    # The centre row of an odd box is written twice, the same both times:
    # its sin row is exactly 0.
    np.add(maps.even, maps.odd, out=maps.lines[nb1 - h :])
    np.subtract(maps.even, maps.odd, out=maps.lines[:h][::-1])
    return np.matmul(maps.lines, maps.to_x2, out=maps.u)


def _to_block(maps: _KickMaps, f) -> np.ndarray:
    """The folded rfft2 of the field that is f on the box and zero
    elsewhere, cut to the block, in maps.spec."""
    nb1, h = maps.lines.shape[0], maps.even.shape[0]
    np.matmul(f, maps.from_x2, out=maps.lines)
    up, down = maps.lines[nb1 - h :], maps.lines[:h][::-1]
    np.add(up, down, out=maps.even)
    np.subtract(up, down, out=maps.odd)
    np.matmul(maps.back_cos, maps.even, out=maps.spec[0].view(float))
    np.matmul(maps.back_sin, maps.odd, out=maps.spec[1].view(float))
    return maps.spec
