"""NetRS operator: the runtime bundle of switch + accelerator + selector.

A NetRS operator (paper Fig. 1) pairs a programmable switch with an attached
network accelerator.  The controller *activates* an operator when some plan
assigns it traffic groups -- activation installs a selector (cold state, as
the paper notes: new RSNodes rebuild their view from scratch) -- and
*deactivates* it when a later plan drops it.
"""

from __future__ import annotations

from typing import Optional

from repro.core.placement.problem import OperatorSpec
from repro.core.selector_node import NetRSSelector
from repro.errors import ConfigurationError
from repro.network.accelerator import Accelerator
from repro.network.switch import ProgrammableSwitch


class NetRSOperator:
    """Runtime state of one NetRS operator."""

    def __init__(
        self,
        spec: OperatorSpec,
        switch: ProgrammableSwitch,
        accelerator: Accelerator,
    ) -> None:
        if switch.name != spec.switch:
            raise ConfigurationError(
                f"spec names switch {spec.switch}, got {switch.name}"
            )
        if switch.accelerator is not accelerator:
            raise ConfigurationError(
                f"switch {switch.name} is not wired to this accelerator"
            )
        self.spec = spec
        self.switch = switch
        self.accelerator = accelerator
        self.selector: Optional[NetRSSelector] = None
        self.activations = 0

    @property
    def operator_id(self) -> int:
        """The controller-assigned positive integer ID."""
        return self.spec.operator_id

    @property
    def active(self) -> bool:
        """Whether this operator currently acts as an RSNode."""
        return self.selector is not None

    def activate(self, selector: NetRSSelector, directory: dict) -> None:
        """Install selector software; state starts cold."""
        self.selector = selector
        self.switch.bind_operator(selector, directory)
        self.accelerator.reset_utilization()
        self.activations += 1

    def deactivate(self) -> None:
        """Stop acting as an RSNode (rules elsewhere stop steering to us)."""
        self.accelerator.settle(discard_later=True)  # clones that meet no selector
        self.selector = None
        self.switch.unbind_operator()

    def utilization(self) -> float:
        """Accelerator utilization in the current window."""
        return self.accelerator.utilization()
