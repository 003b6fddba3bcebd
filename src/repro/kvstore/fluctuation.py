"""Server performance fluctuation (paper section V-A).

Server performance in shared clouds varies over time.  Following Schad et
al.'s measurements the paper models it as a **bimodal distribution**: in each
fluctuation interval (50 ms) the mean service time of a server is redrawn to
be either ``t_kv`` or ``t_kv / d`` with equal probability (range parameter
``d = 3``).  Each server fluctuates independently.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.sim.core import Environment
from repro.sim.rng import DrawSource


class StableService:
    """Degenerate model: constant mean service time (ablation baseline)."""

    __slots__ = ("mean_service_time", "current_mean")

    def __init__(self, mean_service_time: float) -> None:
        if mean_service_time <= 0:
            raise ConfigurationError("mean_service_time must be positive")
        self.mean_service_time = mean_service_time
        #: The (constant) mean service time.
        self.current_mean = mean_service_time

    def start(self, env: Environment) -> None:
        """Nothing to schedule for a stable server."""

    def expected_mean(self) -> float:
        """Long-run average of the mean service time."""
        return self.mean_service_time


class BimodalFluctuation:
    """Bimodal mean-service-time fluctuation with a fixed redraw interval."""

    __slots__ = (
        "base_service_time",
        "range_parameter",
        "interval",
        "_draws",
        "current_mean",
        "redraws",
    )

    def __init__(
        self,
        *,
        base_service_time: float,
        range_parameter: float = 3.0,
        interval: float = 50e-3,
        rng: DrawSource,
    ) -> None:
        if base_service_time <= 0:
            raise ConfigurationError("base_service_time must be positive")
        if range_parameter < 1:
            raise ConfigurationError("range parameter d must be >= 1")
        if interval <= 0:
            raise ConfigurationError("fluctuation interval must be positive")
        self.base_service_time = base_service_time
        self.range_parameter = range_parameter
        self.interval = interval
        self._draws = rng
        #: Mean service time in the current fluctuation interval; set here
        #: and at each redraw, read by the server once per request.
        self.current_mean = self._draw()
        self.redraws = 0

    def _draw(self) -> float:
        if self._draws.random() < 0.5:
            return self.base_service_time
        return self.base_service_time / self.range_parameter

    def start(self, env: Environment) -> None:
        """Begin the periodic redraw cycle."""
        env.call_in(self.interval, self._tick, env)

    def _tick(self, env: Environment) -> None:
        self.current_mean = self._draw()
        self.redraws += 1
        env.call_in(self.interval, self._tick, env)

    def expected_mean(self) -> float:
        """Long-run average mean service time: ``(t + t/d) / 2``."""
        return 0.5 * (
            self.base_service_time + self.base_service_time / self.range_parameter
        )

    def expected_rate_utilization_factor(self) -> float:
        """The paper's ``2 / (1 + d)`` factor.

        Rate-averaged capacity under fluctuation: half the time the server
        drains at ``1/t``, half at ``d/t``, so nominal utilization ``rho``
        corresponds to effective utilization ``2 rho / (1 + d)``.
        """
        return 2.0 / (1.0 + self.range_parameter)
