"""Continuous-Density Hidden Markov Models.

"The main tool by means of which the above algorithms was implemented is
the Continuous Density Hidden Markov Model (CD-HMM). ... It was used both
for training and for matching purposes."

States carry diagonal-Gaussian *mixture* emissions (:data:`NUM_MIXTURES`
= 1 is the plain Gaussian case); training is Baum-Welch over multiple
observation sequences in log space with per-state-per-mixture posteriors;
matching uses the forward algorithm (total likelihood) and Viterbi (best
path). Topology is either ``left_to_right`` (word models: phone-like
progression) or ``ergodic`` (garbage / background models).
"""

from __future__ import annotations

import numpy as np

from repro.errors import AudioError
from repro.media.audio.gmm import logsumexp

_MIN_VAR = 1e-4
_LOG_ZERO = -1e30
#: Gaussians per state, read when a model is built.
NUM_MIXTURES = 1
#: Baum-Welch stops after this many rounds, or once the log likelihood
#: moves by less than this fraction of itself.
MAX_ITER = 15
TOL = 1e-4


class CDHMM:
    """A CD-HMM with a diagonal-Gaussian mixture per state.

    Parameters
    ----------
    num_states:
        Number of hidden states.
    topology:
        ``left_to_right`` (word models) or ``ergodic`` (garbage models).

    Initialization is deterministic (segment-uniform).
    """

    def __init__(self, num_states: int, topology: str = "left_to_right") -> None:
        if num_states < 1:
            raise AudioError(f"num_states must be >= 1, got {num_states}")
        if topology not in ("left_to_right", "ergodic"):
            raise AudioError(f"unknown topology {topology!r}")
        self.num_states = num_states
        self.num_mixtures = NUM_MIXTURES
        self.topology = topology
        self.log_start: np.ndarray | None = None
        self.log_trans: np.ndarray | None = None
        self.means: np.ndarray | None = None        # (states, mixtures, dim)
        self.variances: np.ndarray | None = None    # (states, mixtures, dim)
        self.log_mix: np.ndarray | None = None      # (states, mixtures)

    # ----- initialization -------------------------------------------------------

    def _initialize(self, sequences: list[np.ndarray]) -> None:
        dim = sequences[0].shape[1]
        n, m = self.num_states, self.num_mixtures
        if self.topology == "left_to_right":
            start = np.full(n, 1e-4)
            start[0] = 1.0
            trans = np.full((n, n), 1e-6)
            for s in range(n):
                trans[s, s] = 0.6
                if s + 1 < n:
                    trans[s, s + 1] = 0.4
                else:
                    trans[s, s] = 1.0
        else:
            start = np.full(n, 1.0 / n)
            trans = np.full((n, n), 1.0 / n)
        self.log_start = np.log(start / start.sum())
        self.log_trans = np.log(trans / trans.sum(axis=1, keepdims=True))
        # Segment-uniform initialization: chop each sequence into num_states
        # chunks; within a state, spread mixtures along the chunk.
        state_data: list[list[np.ndarray]] = [[] for _ in range(n)]
        for sequence in sequences:
            bounds = np.linspace(0, len(sequence), n + 1).astype(int)
            for s in range(n):
                chunk = sequence[bounds[s] : max(bounds[s + 1], bounds[s] + 1)]
                state_data[s].append(chunk)
        self.means = np.zeros((n, m, dim))
        self.variances = np.ones((n, m, dim))
        self.log_mix = np.log(np.full((n, m), 1.0 / m))
        for s in range(n):
            pooled = np.vstack(state_data[s])
            base_var = np.maximum(np.var(pooled, axis=0), _MIN_VAR)
            quantiles = np.linspace(0, 1, m + 2)[1:-1]
            for k in range(m):
                # Anchor mixtures on quantile frames ordered by 1st feature.
                order = np.argsort(pooled[:, 0])
                anchor = pooled[order[int(quantiles[k] * (len(pooled) - 1))]]
                self.means[s, k] = anchor
                self.variances[s, k] = base_var

    # ----- emissions -----------------------------------------------------------------

    def _log_component_densities(self, sequence: np.ndarray) -> np.ndarray:
        """(T, states, mixtures) log densities incl. mixture weights."""
        diff = sequence[:, None, None, :] - self.means[None, :, :, :]
        exponent = -0.5 * np.sum(diff * diff / self.variances[None, :, :, :], axis=3)
        log_norm = -0.5 * (
            self.means.shape[2] * np.log(2 * np.pi)
            + np.sum(np.log(self.variances), axis=2)
        )
        return exponent + log_norm[None, :, :] + self.log_mix[None, :, :]

    def _log_emissions(self, sequence: np.ndarray) -> np.ndarray:
        """(T, num_states) log emission densities (mixtures summed out)."""
        return logsumexp(self._log_component_densities(sequence), axis=2)

    # ----- inference --------------------------------------------------------------------

    def log_forward(self, sequence: np.ndarray) -> tuple[np.ndarray, float]:
        """Forward lattice and total log likelihood."""
        self._require_fitted()
        emissions = self._log_emissions(np.asarray(sequence, dtype=np.float64))
        return self._forward_from_emissions(emissions)

    def _forward_from_emissions(self, emissions: np.ndarray) -> tuple[np.ndarray, float]:
        T = len(emissions)
        alpha = np.full((T, self.num_states), _LOG_ZERO)
        alpha[0] = self.log_start + emissions[0]
        for t in range(1, T):
            alpha[t] = emissions[t] + logsumexp(
                alpha[t - 1][:, None] + self.log_trans, axis=0
            )
        return alpha, float(logsumexp(alpha[-1], axis=0))

    def log_backward(self, sequence: np.ndarray) -> np.ndarray:
        self._require_fitted()
        emissions = self._log_emissions(np.asarray(sequence, dtype=np.float64))
        return self._backward_from_emissions(emissions)

    def _backward_from_emissions(self, emissions: np.ndarray) -> np.ndarray:
        T = len(emissions)
        beta = np.zeros((T, self.num_states))
        for t in range(T - 2, -1, -1):
            beta[t] = logsumexp(
                self.log_trans + (emissions[t + 1] + beta[t + 1])[None, :], axis=1
            )
        return beta

    def score(self, sequence: np.ndarray) -> float:
        """Total log likelihood of the sequence."""
        _, total = self.log_forward(sequence)
        return total

    def average_score(self, sequence: np.ndarray) -> float:
        """Length-normalized log likelihood (comparable across durations)."""
        return self.score(sequence) / max(len(sequence), 1)

    def viterbi(self, sequence: np.ndarray) -> tuple[list[int], float]:
        """Best state path and its log probability."""
        self._require_fitted()
        emissions = self._log_emissions(np.asarray(sequence, dtype=np.float64))
        T = len(emissions)
        delta = np.full((T, self.num_states), _LOG_ZERO)
        back = np.zeros((T, self.num_states), dtype=np.int64)
        delta[0] = self.log_start + emissions[0]
        for t in range(1, T):
            candidates = delta[t - 1][:, None] + self.log_trans
            back[t] = np.argmax(candidates, axis=0)
            delta[t] = emissions[t] + np.max(candidates, axis=0)
        last = int(np.argmax(delta[-1]))
        path = [last]
        for t in range(T - 1, 0, -1):
            last = int(back[t, last])
            path.append(last)
        path.reverse()
        return path, float(np.max(delta[-1]))

    # ----- training -----------------------------------------------------------------------

    def fit(self, sequences: list[np.ndarray]) -> "CDHMM":
        """Baum-Welch over multiple observation sequences."""
        sequences = [np.asarray(s, dtype=np.float64) for s in sequences]
        if not sequences:
            raise AudioError("need at least one training sequence")
        dims = {s.shape[1] for s in sequences if s.ndim == 2}
        if len(dims) != 1:
            raise AudioError(f"inconsistent feature dimensions: {dims}")
        if any(len(s) < self.num_states for s in sequences):
            raise AudioError(
                f"every sequence must have >= {self.num_states} frames"
            )
        self._initialize(sequences)
        previous = -np.inf
        for _ in range(MAX_ITER):
            start_acc = np.zeros(self.num_states)
            trans_acc = np.zeros((self.num_states, self.num_states))
            mix_acc = np.zeros((self.num_states, self.num_mixtures))
            mean_acc = np.zeros_like(self.means)
            square_acc = np.zeros_like(self.variances)
            total = 0.0
            for sequence in sequences:
                components = self._log_component_densities(sequence)  # (T,n,m)
                emissions = logsumexp(components, axis=2)             # (T,n)
                alpha, log_prob = self._forward_from_emissions(emissions)
                beta = self._backward_from_emissions(emissions)
                total += log_prob
                gamma = np.exp(alpha + beta - log_prob)               # (T,n)
                start_acc += gamma[0]
                for t in range(len(sequence) - 1):
                    xi = (
                        alpha[t][:, None]
                        + self.log_trans
                        + (emissions[t + 1] + beta[t + 1])[None, :]
                        - log_prob
                    )
                    trans_acc += np.exp(xi)
                # Per-mixture responsibilities within each state.
                mixture_post = np.exp(components - emissions[:, :, None])  # (T,n,m)
                gamma_mix = gamma[:, :, None] * mixture_post               # (T,n,m)
                mix_acc += gamma_mix.sum(axis=0)
                mean_acc += np.einsum("tnm,td->nmd", gamma_mix, sequence)
                square_acc += np.einsum("tnm,td->nmd", gamma_mix, sequence * sequence)
            self.log_start = np.log(start_acc / start_acc.sum() + 1e-12)
            row_sums = trans_acc.sum(axis=1, keepdims=True) + 1e-12
            self.log_trans = np.log(trans_acc / row_sums + 1e-12)
            safe = np.maximum(mix_acc, 1e-8)[:, :, None]
            self.means = mean_acc / safe
            self.variances = np.maximum(square_acc / safe - self.means**2, _MIN_VAR)
            state_totals = mix_acc.sum(axis=1, keepdims=True) + 1e-12
            self.log_mix = np.log(mix_acc / state_totals + 1e-12)
            if abs(total - previous) < TOL * max(1.0, abs(previous)):
                break
            previous = total
        return self

    @property
    def is_fitted(self) -> bool:
        return self.means is not None

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise AudioError("HMM is not fitted; call fit() first")
