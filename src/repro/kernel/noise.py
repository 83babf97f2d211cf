"""OS-noise sources: daemons and services stealing CPU time.

The paper lists OS noise and user daemons among the *extrinsic* causes of
imbalance (section II-B): a profile collector or kernel daemon waking up
on one CPU delays only the rank pinned there. We model each noise source
as renewal process: sleeps ``~Exp(1/period)``, then runs for a bounded
random burst on its CPU.

These feed the same :class:`~repro.kernel.interrupts.KernelEvent` channel
as interrupts; the MPI runtime turns each event into a span of stolen
time (state ``NOISE`` in the trace).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.kernel.interrupts import KernelEvent
from repro.util.rng import RngStreams
from repro.util.validation import check_positive

__all__ = ["NoiseConfig", "NoiseSource", "make_noise_sources"]


@dataclass(frozen=True)
class NoiseConfig:
    """Description of one noise daemon."""

    name: str
    cpu: int
    #: Mean seconds between wakeups.
    mean_period: float
    #: Mean burst length per wakeup (exponential, truncated at 10x).
    mean_burst: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("noise source needs a name")
        if self.cpu < 0:
            raise ConfigurationError(f"cpu must be >= 0, got {self.cpu}")
        check_positive("mean_period", self.mean_period)
        check_positive("mean_burst", self.mean_burst)

    @property
    def duty_cycle(self) -> float:
        """Long-run fraction of the CPU this daemon consumes."""
        return self.mean_burst / (self.mean_period + self.mean_burst)


class NoiseSource:
    """Renewal-process noise generator for one daemon."""

    def __init__(self, config: NoiseConfig, rng: np.random.Generator) -> None:
        self.config = config
        self.rng = rng

    def events(self) -> Iterator[KernelEvent]:
        """Wakeup events from t=0 on, time-ordered, drawn as they are read."""
        cfg = self.config
        event, kind = KernelEvent._trusted, f"noise:{cfg.name}"
        t = 0.0
        while True:
            t += float(self.rng.exponential(cfg.mean_period))
            burst = min(
                float(self.rng.exponential(cfg.mean_burst)), 10.0 * cfg.mean_burst
            )
            yield event(t, cfg.cpu, burst, kind)
            t += burst


def make_noise_sources(
    configs: Sequence[NoiseConfig], streams: RngStreams
) -> List[NoiseSource]:
    """Build sources with independent named RNG streams per daemon."""
    return [
        NoiseSource(cfg, streams.get(f"noise.{cfg.name}.cpu{cfg.cpu}"))
        for cfg in configs
    ]
