"""The three calls ``benchmarks/layered/run.py::_stamp`` makes."""

from repro.sim import backend


def test_stamp_records_a_pure_python_event_core():
    assert backend.resolve("auto").describe() == "python"
    assert backend.numba_version() is None
    assert backend.cython_version() is None
