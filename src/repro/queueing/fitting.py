"""Interarrival / service-time distribution fitting.

Implements Feitelson's recipe from the paper's network-modeling survey:
fit a battery of candidate distributions by maximum likelihood and rank
them by the Kolmogorov-Smirnov statistic against the data.  The winner
becomes the generative model for synthetic streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import special, stats

__all__ = ["FittedDistribution", "fit_distribution", "CANDIDATE_FAMILIES"]

#: Families tried by default: the set Feitelson discusses for arrival
#: processes (exponential for Poisson, heavy-tailed and skewed
#: alternatives for everything real traffic does instead).
CANDIDATE_FAMILIES = ("expon", "gamma", "lognorm", "weibull_min", "pareto")

#: A fitted family's sampler: ``draw(rng, n)`` -> ``n`` raw variates.
Draw = Callable[[np.random.Generator, int], np.ndarray]


# Direct samplers, one per candidate family.  Each consumes exactly the
# bit-generator sequence of ``scipy.stats.<family>(*params).rvs(size=n,
# random_state=rng)`` and repeats its arithmetic operation for
# operation (scipy's ``_rvs`` or inverse-cdf ``_ppf``, then ``vals *
# scale + loc``), so the variates are bit-identical; the draw-identity
# property tests hold every family to that.  Most of a scipy ``rvs``
# call is argument parsing, checking and broadcasting, redone on every
# call; these parse the parameters once, per fit, and cost about a
# tenth as much per call.


def _draw_expon(loc: float, scale: float) -> Draw:
    return lambda rng, n: rng.standard_exponential(n) * scale + loc


def _draw_gamma(a: float, loc: float, scale: float) -> Draw:
    return lambda rng, n: rng.standard_gamma(a, n) * scale + loc


def _draw_lognorm(s: float, loc: float, scale: float) -> Draw:
    return lambda rng, n: np.exp(s * rng.standard_normal(n)) * scale + loc


def _draw_weibull_min(c: float, loc: float, scale: float) -> Draw:
    exponent = 1.0 / c
    return lambda rng, n: (
        pow(-special.log1p(-rng.random(n)), exponent) * scale + loc
    )


def _draw_pareto(b: float, loc: float, scale: float) -> Draw:
    exponent = -1.0 / b
    return lambda rng, n: pow(1 - rng.random(n), exponent) * scale + loc


_DIRECT_DRAWS: dict[str, Callable[..., Draw]] = {
    "expon": _draw_expon,
    "gamma": _draw_gamma,
    "lognorm": _draw_lognorm,
    "weibull_min": _draw_weibull_min,
    "pareto": _draw_pareto,
}


@dataclass
class FittedDistribution:
    """One fitted family with its goodness-of-fit scores.

    ``skipped`` lists the ``(family, reason)`` pairs of candidate
    families :func:`fit_distribution` could not fit and left out of
    the ranking.

    The frozen scipy distribution and the sampler are built once per
    fit, on first use, and rebuilt only if ``family`` or ``params``
    change; they are never pickled.
    """

    family: str
    params: tuple[float, ...]
    ks_statistic: float
    ks_pvalue: float
    log_likelihood: float
    skipped: tuple[tuple[str, str], ...] = ()
    _frozen_memo: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )
    _draw_memo: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_frozen_memo"] = state["_draw_memo"] = None
        return state

    @property
    def frozen(self):
        """The frozen scipy distribution for sampling/evaluation."""
        memo = self._frozen_memo
        if memo is None or memo[0] is not self.family or memo[1] is not self.params:
            frozen = getattr(stats, self.family)(*self.params)
            memo = self._frozen_memo = (self.family, self.params, frozen)
        return memo[2]

    def _draw(self) -> Draw:
        memo = self._draw_memo
        if memo is None or memo[0] is not self.family or memo[1] is not self.params:
            memo = self._draw_memo = (self.family, self.params, self._build_draw())
        return memo[2]

    def _build_draw(self) -> Draw:
        direct = _DIRECT_DRAWS.get(self.family)
        if direct is None:
            frozen = self.frozen
            return lambda rng, n: frozen.rvs(size=n, random_state=rng)
        *shapes, loc, scale = (float(p) for p in self.params)
        # scipy's own argument check, done once instead of per draw.
        if not (all(shape > 0 for shape in shapes) and scale >= 0):
            raise ValueError(
                "Domain error in arguments. The `scale` parameter must be "
                "positive for all distributions, and many distributions "
                "have restrictions on shape parameters. Please see the "
                f"`scipy.stats.{self.family}` documentation for details."
            )
        if scale == 0:
            # scipy returns ``loc`` without drawing anything.
            return lambda rng, n: np.full(n, loc)
        return direct(*shapes, loc, scale)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` values from the fitted distribution.

        Bit-identical to ``np.maximum(0, self.frozen.rvs(size=n,
        random_state=rng))``, drawing the same random numbers from
        ``rng``.
        """
        return np.maximum(0.0, self._draw()(rng, n))

    @property
    def mean(self) -> float:
        return float(self.frozen.mean())

    def describe(self) -> str:
        text = (
            f"{self.family}{self.params} "
            f"KS={self.ks_statistic:.4f} p={self.ks_pvalue:.3f}"
        )
        if self.skipped:
            text += "; skipped " + ", ".join(
                f"{family} ({reason})" for family, reason in self.skipped
            )
        return text


def _fit_family(family: str, data: np.ndarray) -> FittedDistribution | str:
    """Fit one family; the reason it was skipped if it cannot be fitted."""
    dist = getattr(stats, family)
    try:
        # Positive data: lock location at 0 for scale families so the
        # fit cannot place mass below zero.
        if family in ("expon", "gamma", "lognorm", "weibull_min"):
            params = dist.fit(data, floc=0.0)
        else:
            params = dist.fit(data)
        frozen = dist(*params)
        ks = stats.kstest(data, frozen.cdf)
        logpdf = frozen.logpdf(data)
        loglik = float(np.sum(logpdf[np.isfinite(logpdf)]))
        if not np.isfinite(ks.statistic):
            return "non-finite KS statistic"
        return FittedDistribution(
            family=family,
            params=tuple(float(p) for p in params),
            ks_statistic=float(ks.statistic),
            ks_pvalue=float(ks.pvalue),
            log_likelihood=loglik,
        )
    except Exception as error:
        # A family can legitimately fail to converge on pathological
        # data; it is excluded from the ranking, and the reason kept.
        return f"{type(error).__name__}: {error}"


def fit_distribution(
    samples: Sequence[float],
    families: Sequence[str] = CANDIDATE_FAMILIES,
) -> FittedDistribution:
    """Fit every candidate family and return the best by KS statistic.

    Raises ``ValueError`` if no family converges or the input is
    degenerate (fewer than 8 samples, or constant data — fit a
    deterministic model yourself in that case).
    """
    data = np.asarray(samples, dtype=float)
    data = data[np.isfinite(data)]
    data = data[data > 0]
    if data.size < 8:
        raise ValueError(f"need >= 8 positive samples, got {data.size}")
    if np.ptp(data) == 0:
        raise ValueError("constant data: distribution fitting is meaningless")
    fits = []
    skipped = []
    for family in families:
        fit = _fit_family(family, data)
        if isinstance(fit, str):
            skipped.append((family, fit))
        else:
            fits.append(fit)
    if not fits:
        raise ValueError(f"no candidate family could be fitted: {skipped}")
    best = min(fits, key=lambda f: f.ks_statistic)
    best.skipped = tuple(skipped)
    return best
