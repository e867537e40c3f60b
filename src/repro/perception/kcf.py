"""Kernelized Correlation Filter tracker (paper Table III, [46]).

The baseline visual tracker the vehicle falls back to "when Radar signals
are unstable".  This is a faithful single-scale KCF: Gaussian-kernel ridge
regression trained in the Fourier domain, with a cosine (Hann) window and
exponential model adaptation — the algorithm of Henriques et al., minus
multi-scale search and HOG channels (raw-pixel channel, as in the original
CSK variant).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box: top-left corner + size (pixels)."""

    x: int
    y: int
    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("box must have positive size")

    @property
    def center(self) -> Tuple[float, float]:
        return (self.x + self.width / 2.0, self.y + self.height / 2.0)

    def iou(self, other: "BoundingBox") -> float:
        x0 = max(self.x, other.x)
        y0 = max(self.y, other.y)
        x1 = min(self.x + self.width, other.x + other.width)
        y1 = min(self.y + self.height, other.y + other.height)
        inter = max(0, x1 - x0) * max(0, y1 - y0)
        union = self.width * self.height + other.width * other.height - inter
        return 0.0 if union == 0 else inter / union


def _hann2d(shape: Tuple[int, int]) -> np.ndarray:
    wy = np.hanning(shape[0])
    wx = np.hanning(shape[1])
    return np.outer(wy, wx)


def _gaussian_response(shape: Tuple[int, int], sigma: float) -> np.ndarray:
    """Desired response: a Gaussian peak at the patch center, fftshifted."""
    h, w = shape
    ys = np.arange(h) - h // 2
    xs = np.arange(w) - w // 2
    yy, xx = np.meshgrid(ys, xs, indexing="ij")
    response = np.exp(-(xx ** 2 + yy ** 2) / (2.0 * sigma ** 2))
    return np.fft.ifftshift(response)


def _gaussian_correlation(
    xf: np.ndarray, yf: np.ndarray, sigma: float
) -> np.ndarray:
    """Gaussian kernel correlation of two patches given their FFTs."""
    n = xf.size
    xx = float(np.sum(np.abs(xf) ** 2)) / n
    yy = float(np.sum(np.abs(yf) ** 2)) / n
    xy = np.real(np.fft.ifft2(xf * np.conj(yf)))
    dist = np.maximum(xx + yy - 2.0 * xy, 0.0)
    return np.exp(-dist / (sigma ** 2 * n))


class KcfTracker:
    """Single-object KCF tracker over grayscale frames."""

    def __init__(
        self,
        padding: float = 1.5,
        kernel_sigma: float = 0.5,
        output_sigma_factor: float = 0.1,
        regularization: float = 1e-4,
        learning_rate: float = 0.075,
    ) -> None:
        self.padding = padding
        self.kernel_sigma = kernel_sigma
        self.output_sigma_factor = output_sigma_factor
        self.regularization = regularization
        self.learning_rate = learning_rate
        self._window: Optional[np.ndarray] = None
        self._alphaf: Optional[np.ndarray] = None
        self._template_f: Optional[np.ndarray] = None
        self._box: Optional[BoundingBox] = None
        self._patch_shape: Optional[Tuple[int, int]] = None

    @property
    def initialized(self) -> bool:
        return self._box is not None

    @property
    def box(self) -> BoundingBox:
        if self._box is None:
            raise RuntimeError("tracker not initialized")
        return self._box

    def _patch_geometry(self, box: BoundingBox) -> Tuple[int, int, int, int]:
        ph = int(box.height * (1 + self.padding))
        pw = int(box.width * (1 + self.padding))
        cx, cy = box.center
        return int(cy - ph / 2), int(cx - pw / 2), ph, pw

    def _extract_patch(self, frame: np.ndarray, box: BoundingBox) -> np.ndarray:
        top, left, ph, pw = self._patch_geometry(box)
        h, w = frame.shape
        rows = np.clip(np.arange(top, top + ph), 0, h - 1)
        cols = np.clip(np.arange(left, left + pw), 0, w - 1)
        patch = frame[np.ix_(rows, cols)].astype(np.float64)
        patch = (patch - patch.mean()) / (patch.std() + 1e-9)
        return patch

    def init(self, frame: np.ndarray, box: BoundingBox) -> None:
        """Initialize on the first frame with the target's box."""
        if frame.ndim != 2:
            raise ValueError("frame must be 2-D grayscale")
        self._box = box
        patch = self._extract_patch(frame, box)
        self._patch_shape = patch.shape
        self._window = _hann2d(patch.shape)
        output_sigma = (
            np.sqrt(box.width * box.height) * self.output_sigma_factor
        )
        self._yf = np.fft.fft2(_gaussian_response(patch.shape, output_sigma))
        self._train(patch, learning_rate=1.0)

    def _train(self, patch: np.ndarray, learning_rate: float) -> None:
        xf = np.fft.fft2(patch * self._window)
        kf = np.fft.fft2(_gaussian_correlation(xf, xf, self.kernel_sigma))
        alphaf = self._yf / (kf + self.regularization)
        if learning_rate >= 1.0 or self._alphaf is None:
            self._alphaf = alphaf
            self._template_f = xf
        else:
            self._alphaf = (
                1 - learning_rate
            ) * self._alphaf + learning_rate * alphaf
            self._template_f = (
                1 - learning_rate
            ) * self._template_f + learning_rate * xf

    def update(self, frame: np.ndarray) -> BoundingBox:
        """Track the target into a new frame; returns the new box."""
        if not self.initialized:
            raise RuntimeError("call init() first")
        patch = self._extract_patch(frame, self._box)
        if patch.shape != self._patch_shape:
            raise ValueError("frame size changed under the tracker")
        zf = np.fft.fft2(patch * self._window)
        kf = np.fft.fft2(
            _gaussian_correlation(zf, self._template_f, self.kernel_sigma)
        )
        response = np.real(np.fft.ifft2(self._alphaf * kf))
        peak = np.unravel_index(int(np.argmax(response)), response.shape)
        dy, dx = peak[0], peak[1]
        # Displacements beyond half the patch wrap around (circular shift).
        if dy > response.shape[0] // 2:
            dy -= response.shape[0]
        if dx > response.shape[1] // 2:
            dx -= response.shape[1]
        self._box = BoundingBox(
            x=self._box.x + int(dx),
            y=self._box.y + int(dy),
            width=self._box.width,
            height=self._box.height,
        )
        self._train(self._extract_patch(frame, self._box), self.learning_rate)
        return self._box
