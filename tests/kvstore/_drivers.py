"""The second driver of the shared endpoint bodies, for unit tests.

``ServerCore``, ``ClientCore``, the fluctuation models and ``Accelerator``
are written against a clock (``now`` / ``post_in`` / ``post_at`` /
``call_in``).  The packet tier's clock is an ``Environment``; the flow
tier's is a ``FlowEngine``.  :func:`idle_flow_engine` hands a test the
latter with nothing of its own scheduled, so that a scripted sequence can be
replayed on both and compared.
"""

from contextlib import contextmanager

from repro.experiments.config import ExperimentConfig
from repro.mesoscale.flow import FlowEngine


class _NoWorkload:
    def start(self):
        """The engine's own experiment never begins."""


@contextmanager
def idle_flow_engine():
    """A flow engine whose ``run(until=...)`` executes only what the test
    posts (plus the engine's own servers' fluctuation ticks, which touch
    nothing a test builds).  ``run`` may be called once."""
    config = ExperimentConfig.tiny(scheme="clirs", seed=1).replace(fidelity="flow")
    engine = FlowEngine(config)
    engine.workload = _NoWorkload()
    try:
        yield engine
    finally:
        engine.teardown()
