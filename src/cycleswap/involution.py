"""The statistic-swapping involution on pairs (sigma, pi).

Factor pi into (delta, sigma_new), then rebuild a permutation from delta
and the incoming sigma.  Applying the map twice returns the original
pair, and the fixed-point count of each sigma always matches the k-cycle
count of the permutation it is paired with on the other side.

Both steps run on hat words; only the output pair is built and validated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .forward import _factor_word
from .gsg import GsgElement
from .inverse import _unfactor_word
from .permutations import Permutation, stanley_hat, stanley_unhat


@dataclass(frozen=True)
class InvolutionPair:
    """(sigma, pi) with sigma in Z_k^n x| S_n and pi a permutation of
    {1..kn}."""

    sigma: GsgElement
    pi: Permutation

    def __post_init__(self):
        if self.sigma.k * self.sigma.n != self.pi.size:
            raise ValueError(
                f"pi acts on {self.pi.size} points, expected "
                f"k*n = {self.sigma.k}*{self.sigma.n}"
            )


def involute(pair: InvolutionPair) -> InvolutionPair:
    """Swap statistics: the output pairs pi's factor sigma with a new
    permutation built from pi's k-cycle factor and the input sigma."""
    k = pair.sigma.k
    delta_word, x, tau_hat = _factor_word(stanley_hat(pair.pi), k)
    word, _ = _unfactor_word(delta_word, pair.sigma.x, stanley_hat(pair.sigma.tau), k)
    return InvolutionPair(GsgElement(k, x, stanley_unhat(tau_hat)), stanley_unhat(word))
