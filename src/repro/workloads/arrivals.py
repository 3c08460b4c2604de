"""Arrival-process models: the traffic shapes the paper never exercised.

The paper's evaluation drives every experiment with a homogeneous Poisson
stream.  This module opens that axis: each :class:`ArrivalModel` describes
one arrival process as a frozen, strictly-validated dataclass and exposes
the two seams the simulators draw through —

* :meth:`ArrivalModel.batch_arrival_times` — the single-cell batch path
  (Figs. 7–10, traces, service replay): ``count`` arrival instants spread
  over a window;
* :meth:`ArrivalModel.sampler` — the multi-cell path (coupled engine
  and per-cell shards): a stateful per-cell sampler yielding successive
  inter-arrival gaps.

Every draw comes from the caller's named :class:`~repro.des.rng.RandomStream`
and every sampler's evolution is a pure function of ``(model, stream,
rate)``, so all workloads inherit the byte-identical-across-backends
guarantee of the seeded-task architecture for free.  :class:`PoissonArrival`
reproduces the legacy draw sequences *exactly* (sorted uniforms over the
window on the batch path, ``exponential(1/rate)`` gaps on the DES path), so
a poisson workload is bit-identical to a config with no workload at all.

The time-varying models (:class:`DiurnalArrival`, :class:`FlashCrowdArrival`)
are nonhomogeneous Poisson processes simulated by Lewis–Shedler thinning;
their rate functions are normalised so the long-run mean rate equals the
configured target, keeping offered load comparable across workloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Protocol

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from ..des.rng import RandomStream

__all__ = [
    "ArrivalModel",
    "InterarrivalSampler",
    "PoissonArrival",
    "MMPPArrival",
    "HeavyTailArrival",
    "DiurnalArrival",
    "FlashCrowdArrival",
]


class InterarrivalSampler(Protocol):
    """Stateful per-run sampler of successive inter-arrival gaps."""

    def next_interarrival(self, now: float) -> float:
        """Gap (seconds) from ``now`` to the next arrival; strictly positive."""
        ...


def _require_positive(name: str, value: float) -> None:
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class ArrivalModel:
    """Base class of arrival-process models.

    Subclasses set :attr:`kind` (the codec discriminator) and implement
    :meth:`sampler`; the default :meth:`batch_arrival_times` walks the
    sampler at the rate that puts ``count`` expected arrivals in the
    window, so only processes with a special closed form (Poisson's order
    statistics) need to override it.
    """

    kind: ClassVar[str] = ""

    def sampler(self, rng: "RandomStream", rate_per_s: float) -> InterarrivalSampler:
        """A fresh stateful sampler targeting ``rate_per_s`` mean arrivals/s."""
        raise NotImplementedError

    def batch_arrival_times(
        self, rng: "RandomStream", count: int, window_s: float
    ) -> list[float]:
        """``count`` increasing arrival instants with mean rate count/window."""
        if count == 0:
            return []
        _require_positive("window_s", window_s)
        sampler = self.sampler(rng, count / window_s)
        times: list[float] = []
        now = 0.0
        for _ in range(count):
            now += sampler.next_interarrival(now)
            times.append(now)
        return times

    def batch_arrival_times_array(
        self, rng: "RandomStream", count: int, window_s: float
    ) -> np.ndarray:
        """:meth:`batch_arrival_times` as a float64 column.

        The default delegates to the list path, so every model is
        bit-identical across the object and columnar trace builders by
        construction; models with a vectorizable closed form (Poisson's
        order statistics) override it.
        """
        return np.asarray(self.batch_arrival_times(rng, count, window_s), dtype=np.float64)

    def mean_rate_multiplier(self) -> float:
        """Long-run mean arrival rate as a multiple of the configured target.

        Every registered model normalises to 1.0; the property tests assert
        the empirical rate against ``rate * mean_rate_multiplier()``.
        """
        return 1.0


class _PoissonSampler:
    def __init__(self, rng: "RandomStream", rate_per_s: float):
        self._rng = rng
        self._mean = 1.0 / rate_per_s

    def next_interarrival(self, now: float) -> float:
        return self._rng.exponential(self._mean)


@dataclass(frozen=True)
class PoissonArrival(ArrivalModel):
    """The paper's homogeneous Poisson process — the byte-identical default.

    Both seams reproduce the legacy draw sequences exactly: the batch path
    draws ``count`` uniforms over the window and sorts them (the order
    statistics of a conditioned Poisson process — the historical
    ``build_requests`` arithmetic), the DES path draws
    ``exponential(1/rate)`` gaps.
    """

    kind: ClassVar[str] = "poisson"

    def sampler(self, rng: "RandomStream", rate_per_s: float) -> InterarrivalSampler:
        _require_positive("rate_per_s", rate_per_s)
        return _PoissonSampler(rng, rate_per_s)

    def batch_arrival_times(
        self, rng: "RandomStream", count: int, window_s: float
    ) -> list[float]:
        _require_positive("window_s", window_s)
        return sorted(rng.uniform(0.0, window_s) for _ in range(count))

    def batch_arrival_times_array(
        self, rng: "RandomStream", count: int, window_s: float
    ) -> np.ndarray:
        """Vectorized order statistics: one sized uniform draw consumes the
        stream exactly like ``count`` scalar draws, so this stays
        bit-identical to :meth:`batch_arrival_times` (and to the legacy
        no-workload sequence)."""
        _require_positive("window_s", window_s)
        return np.sort(rng.uniform_batch(0.0, window_s, count))


class _MMPPSampler:
    """2-state Markov-modulated Poisson sampler.

    While in state ``i`` arrivals come at ``rate * multiplier[i]``; the
    sojourn in each state is exponential.  Competing-exponential race:
    if the candidate gap outlives the remaining sojourn, the elapsed
    sojourn is banked, the state flips, and the gap is redrawn in the new
    state (valid by memorylessness).  One stream drives both the gaps and
    the sojourns, so the trajectory is a pure function of the stream.
    """

    def __init__(self, model: "MMPPArrival", rng: "RandomStream", rate_per_s: float):
        self._model = model
        self._rng = rng
        self._rate = rate_per_s
        self._state = 0
        self._sojourn = rng.exponential(model.mean_sojourn_s[0])

    def next_interarrival(self, now: float) -> float:
        elapsed = 0.0
        while True:
            rate = self._rate * self._model.rate_multipliers[self._state]
            gap = self._rng.exponential(1.0 / rate)
            if gap <= self._sojourn:
                self._sojourn -= gap
                return elapsed + gap
            elapsed += self._sojourn
            self._state = 1 - self._state
            self._sojourn = self._rng.exponential(
                self._model.mean_sojourn_s[self._state]
            )


@dataclass(frozen=True)
class MMPPArrival(ArrivalModel):
    """2-state Markov-modulated Poisson bursts (burst state / calm state).

    ``rate_multipliers`` scale the target rate in each state and
    ``mean_sojourn_s`` are the exponential state-holding means.  The
    stationary state probabilities are proportional to the sojourn means,
    so validation requires the time-weighted mean multiplier to be exactly
    1 — the long-run rate equals the configured target and offered load
    stays comparable to the Poisson baseline.
    """

    rate_multipliers: tuple[float, float] = (3.0, 0.5)
    mean_sojourn_s: tuple[float, float] = (60.0, 240.0)

    kind: ClassVar[str] = "mmpp"

    def __post_init__(self) -> None:
        object.__setattr__(self, "rate_multipliers", tuple(self.rate_multipliers))
        object.__setattr__(self, "mean_sojourn_s", tuple(self.mean_sojourn_s))
        if len(self.rate_multipliers) != 2 or len(self.mean_sojourn_s) != 2:
            raise ValueError(
                "MMPP is 2-state: rate_multipliers and mean_sojourn_s need "
                f"exactly two entries, got {self.rate_multipliers} / "
                f"{self.mean_sojourn_s}"
            )
        for value in (*self.rate_multipliers, *self.mean_sojourn_s):
            _require_positive("MMPP parameters", value)
        s1, s2 = self.mean_sojourn_s
        m1, m2 = self.rate_multipliers
        mean_multiplier = (s1 * m1 + s2 * m2) / (s1 + s2)
        if abs(mean_multiplier - 1.0) > 1e-9:
            raise ValueError(
                "MMPP time-weighted mean rate multiplier must be 1 "
                f"(got {mean_multiplier:.6f}); scale rate_multipliers or "
                "mean_sojourn_s so the long-run rate matches the target"
            )

    def sampler(self, rng: "RandomStream", rate_per_s: float) -> InterarrivalSampler:
        _require_positive("rate_per_s", rate_per_s)
        return _MMPPSampler(self, rng, rate_per_s)


class _HeavyTailSampler:
    def __init__(self, model: "HeavyTailArrival", rng: "RandomStream", rate_per_s: float):
        self._rng = rng
        if model.distribution == "pareto":
            # scale * shape / (shape - 1) == 1 / rate
            self._pareto_scale = (model.shape - 1.0) / (model.shape * rate_per_s)
            self._shape = model.shape
            self._mu = None
        else:  # lognormal: exp(mu + sigma^2/2) == 1 / rate
            self._mu = math.log(1.0 / rate_per_s) - model.sigma**2 / 2.0
            self._sigma = model.sigma

    def next_interarrival(self, now: float) -> float:
        if self._mu is None:
            return self._rng.pareto(self._shape, self._pareto_scale)
        return self._rng.lognormal(self._mu, self._sigma)


@dataclass(frozen=True)
class HeavyTailArrival(ArrivalModel):
    """Heavy-tailed renewal arrivals (Pareto or lognormal gaps).

    The gap distribution is scaled so its mean is exactly ``1/rate`` —
    same long-run rate as Poisson, but with tail episodes (one very long
    gap followed by clusters of short ones) Poisson never produces.
    Pareto requires ``shape > 1`` (finite mean); shapes in ``(1, 2]``
    have infinite variance, so the default 2.8 keeps empirical-rate
    convergence testable while staying genuinely heavy-tailed.
    """

    distribution: str = "pareto"
    shape: float = 2.8
    sigma: float = 1.0

    kind: ClassVar[str] = "heavy-tail"

    def __post_init__(self) -> None:
        if self.distribution not in ("pareto", "lognormal"):
            raise ValueError(
                f"distribution must be 'pareto' or 'lognormal', "
                f"got {self.distribution!r}"
            )
        if self.distribution == "pareto" and not self.shape > 1.0:
            raise ValueError(
                f"pareto shape must exceed 1 (finite mean), got {self.shape}"
            )
        _require_positive("sigma", self.sigma)

    def sampler(self, rng: "RandomStream", rate_per_s: float) -> InterarrivalSampler:
        _require_positive("rate_per_s", rate_per_s)
        return _HeavyTailSampler(self, rng, rate_per_s)


class _ThinningSampler:
    """Lewis–Shedler thinning for a nonhomogeneous Poisson process.

    Candidates arrive at the dominating constant ``max_rate``; each is
    accepted with probability ``rate(t)/max_rate``.  Two draws per
    candidate (gap, acceptance uniform) in a fixed order keep the
    trajectory a pure function of the stream.
    """

    def __init__(self, rng: "RandomStream", max_rate: float, rate_at) -> None:
        self._rng = rng
        self._mean_gap = 1.0 / max_rate
        self._max_rate = max_rate
        self._rate_at = rate_at

    def next_interarrival(self, now: float) -> float:
        t = now
        while True:
            t += self._rng.exponential(self._mean_gap)
            if self._rng.uniform(0.0, 1.0) * self._max_rate <= self._rate_at(t):
                return t - now


@dataclass(frozen=True)
class DiurnalArrival(ArrivalModel):
    """Sinusoidal rate ramp: ``rate(t) = rate * (1 + a sin(2πt/period))``.

    The sinusoid averages to the configured target over each full period,
    so long runs stay load-comparable while individual windows swing
    between ``(1-a)`` and ``(1+a)`` times the nominal rate.
    """

    amplitude: float = 0.6
    period_s: float = 600.0

    kind: ClassVar[str] = "diurnal"

    def __post_init__(self) -> None:
        if not 0.0 < self.amplitude < 1.0:
            raise ValueError(
                f"amplitude must lie in (0, 1) so the rate stays positive, "
                f"got {self.amplitude}"
            )
        _require_positive("period_s", self.period_s)

    def sampler(self, rng: "RandomStream", rate_per_s: float) -> InterarrivalSampler:
        _require_positive("rate_per_s", rate_per_s)
        omega = 2.0 * math.pi / self.period_s

        def rate_at(t: float) -> float:
            return rate_per_s * (1.0 + self.amplitude * math.sin(omega * t))

        return _ThinningSampler(rng, rate_per_s * (1.0 + self.amplitude), rate_at)


@dataclass(frozen=True)
class FlashCrowdArrival(ArrivalModel):
    """Periodic flash-crowd spikes over a Poisson base load.

    Every ``period_s`` seconds the rate jumps to ``multiplier`` times the
    base for ``spike_duration_s`` seconds (starting at ``spike_start_s``
    into the period).  The base rate is normalised down so the long-run
    mean — base plus spikes — equals the configured target exactly.
    """

    multiplier: float = 5.0
    spike_duration_s: float = 60.0
    period_s: float = 600.0
    spike_start_s: float = 120.0

    kind: ClassVar[str] = "flash-crowd"

    def __post_init__(self) -> None:
        if not self.multiplier > 1.0:
            raise ValueError(f"multiplier must exceed 1, got {self.multiplier}")
        _require_positive("spike_duration_s", self.spike_duration_s)
        _require_positive("period_s", self.period_s)
        if self.spike_start_s < 0:
            raise ValueError(
                f"spike_start_s must be non-negative, got {self.spike_start_s}"
            )
        if self.spike_start_s + self.spike_duration_s > self.period_s:
            raise ValueError(
                "spike must fit inside one period: "
                f"start {self.spike_start_s} + duration {self.spike_duration_s} "
                f"exceeds period {self.period_s}"
            )

    def sampler(self, rng: "RandomStream", rate_per_s: float) -> InterarrivalSampler:
        _require_positive("rate_per_s", rate_per_s)
        duty = self.spike_duration_s / self.period_s
        base = rate_per_s / (1.0 + (self.multiplier - 1.0) * duty)
        spike_end = self.spike_start_s + self.spike_duration_s

        def rate_at(t: float) -> float:
            phase = t % self.period_s
            if self.spike_start_s <= phase < spike_end:
                return base * self.multiplier
            return base

        return _ThinningSampler(rng, base * self.multiplier, rate_at)
