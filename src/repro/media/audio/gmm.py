"""Diagonal-covariance Gaussian mixture models with EM training.

GMMs are the classical text-independent speaker model (the paper's
speaker spotting "has to 'spot' the speaker independently of what she is
saying" — a bag-of-frames spectral-envelope model is exactly that).
"""

from __future__ import annotations

import numpy as np

from repro.errors import AudioError

_MIN_VAR = 1e-4
#: EM stops after this many rounds, or once the log likelihood moves by
#: less than this fraction of itself.
MAX_ITER = 40
TOL = 1e-4


def logsumexp(values: np.ndarray, axis: int = -1) -> np.ndarray:
    top = np.max(values, axis=axis, keepdims=True)
    out = top + np.log(np.sum(np.exp(values - top), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


def _log_gaussian(
    data: np.ndarray, means: np.ndarray, variances: np.ndarray
) -> np.ndarray:
    """Log density of each row of *data* under each diagonal Gaussian.

    Shapes: data (n, d); means/variances (k, d) → result (n, k).
    """
    diff = data[:, None, :] - means[None, :, :]
    exponent = -0.5 * np.sum(diff * diff / variances[None, :, :], axis=2)
    log_norm = -0.5 * (
        means.shape[1] * np.log(2 * np.pi) + np.sum(np.log(variances), axis=1)
    )
    return exponent + log_norm[None, :]


class DiagonalGMM:
    """A k-component diagonal GMM trained by EM."""

    def __init__(self, num_components: int, seed: int = 0) -> None:
        if num_components < 1:
            raise AudioError(f"num_components must be >= 1, got {num_components}")
        self.num_components = num_components
        self.seed = seed
        self.weights: np.ndarray | None = None
        self.means: np.ndarray | None = None
        self.variances: np.ndarray | None = None

    @property
    def is_fitted(self) -> bool:
        return self.means is not None

    def fit(self, data: np.ndarray) -> "DiagonalGMM":
        """EM training; initialization by distance-spread seeding."""
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2 or len(data) < self.num_components:
            raise AudioError(
                f"need a (n >= {self.num_components}, d) matrix, got shape {data.shape}"
            )
        rng = np.random.default_rng(self.seed)
        self.means = self._seed_means(data, rng)
        self.variances = np.tile(np.var(data, axis=0) + _MIN_VAR, (self.num_components, 1))
        self.weights = np.full(self.num_components, 1.0 / self.num_components)
        previous = -np.inf
        for _ in range(MAX_ITER):
            # E step.
            log_joint = _log_gaussian(data, self.means, self.variances) + np.log(
                self.weights[None, :]
            )
            log_norm = logsumexp(log_joint, axis=1)
            responsibilities = np.exp(log_joint - log_norm[:, None])
            # M step.
            counts = responsibilities.sum(axis=0) + 1e-10
            self.weights = counts / counts.sum()
            self.means = (responsibilities.T @ data) / counts[:, None]
            squared = responsibilities.T @ (data * data) / counts[:, None]
            self.variances = np.maximum(squared - self.means**2, _MIN_VAR)
            total = float(np.sum(log_norm))
            if abs(total - previous) < TOL * max(1.0, abs(previous)):
                break
            previous = total
        return self

    def _seed_means(self, data: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """k-means++-style spread seeding."""
        first = data[rng.integers(len(data))]
        means = [first]
        for _ in range(1, self.num_components):
            distances = np.min(
                [np.sum((data - m) ** 2, axis=1) for m in means], axis=0
            )
            total = distances.sum()
            if total <= 0:
                means.append(data[rng.integers(len(data))])
                continue
            probabilities = distances / total
            means.append(data[rng.choice(len(data), p=probabilities)])
        return np.array(means)

    def log_likelihood(self, data: np.ndarray) -> np.ndarray:
        """Per-frame log likelihood: (n,)."""
        self._require_fitted()
        log_joint = _log_gaussian(data, self.means, self.variances) + np.log(
            self.weights[None, :]
        )
        return logsumexp(log_joint, axis=1)

    def average_log_likelihood(self, data: np.ndarray) -> float:
        """Mean per-frame log likelihood (length-normalized score)."""
        return float(np.mean(self.log_likelihood(np.asarray(data, dtype=np.float64))))

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise AudioError("GMM is not fitted; call fit() first")
