"""Shared pytest hooks and fixtures: echo acceptance criterion results at
the end, and measure a call's traced memory peak."""

import sys
import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """Bytes a call allocates at its peak, after a first call outside the trace."""
    def peak(run):
        run()  # imports and first-call caches outside the measurement
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            run()
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
    return peak


def pytest_terminal_summary(terminalreporter):
    module = (sys.modules.get("test_acceptance")
              or sys.modules.get("tests.test_acceptance"))
    lines = getattr(module, "RESULTS", [])
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)
