"""Results do not depend on hash order: one fixed matrix, run in two
interpreters with different ``PYTHONHASHSEED``s, gives the same bytes.

String hashing is salted per process, so iterating a ``set`` or a
hash-ordered container of server names, hosts or keys enumerates them in a
different order under another seed.  If that order ever reaches the event
schedule, the RNG draw order or a tie-break, a latency sample or a counter
moves.  The matrix covers every scheme on the packet engine with writes,
R=W=2 quorums, churn (leave/join with key migration) and a server crash,
and on ``fidelity="flow"`` with the crash alone, which the flow engines run.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

MATRIX = """
import hashlib
from array import array

from repro.experiments import ExperimentConfig, run_experiment

FAULTS = "server-down@0.01:server#0;server-up@0.03:server#0"
CHURN = "node-leave@0.015:server#1;node-join@0.035:server#1"
for scheme in ("clirs", "clirs-r95", "netrs-tor", "netrs-ilp"):
    base = ExperimentConfig.tiny(
        seed=42, scheme=scheme, fault_schedule=FAULTS,
        request_timeout=0.02, max_retries=5,
    )
    cells = {
        "packet": base.replace(
            write_fraction=0.2, write_quorum=2, read_quorum=2,
            churn_schedule=CHURN,
        ),
        "flow": base.replace(fidelity="flow"),
    }
    for leg, config in cells.items():
        result = run_experiment(config)
        digest = hashlib.sha256(array("d", result.latency.samples).tobytes())
        if result.write_latency is not None:
            digest.update(array("d", result.write_latency.samples).tobytes())
        digest.update(repr(result.counters()).encode())
        print(scheme, leg, digest.hexdigest())
"""


def _run_matrix(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", MATRIX],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_results_are_identical_under_two_hash_seeds():
    first = _run_matrix("0")
    second = _run_matrix("12345")
    assert len(first) == 8
    assert first == second
