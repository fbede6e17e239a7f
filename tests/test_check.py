"""The equivalence gate's case table (:mod:`repro.check`).

Each in-process slice runs here: the single solver, the serial
clusters (stacked CPU, ``split``, simulated GPU, uneven cuts, traced
and monitored) and the SPMD rank program.  The processes rows, the
SIGSTOP watchdog and the disabled-recorder budgets run in
``python -m repro check``.
"""

import pytest

from repro import check


@pytest.mark.parametrize("slice_", ["single", "serial", "spmd"])
def test_slice(slice_):
    rows = check.run([slice_], out=lambda line: None)
    assert rows and all(row.driver == slice_ for row in rows)


def test_table_covers_every_axis():
    assert {"single", "serial", "processes", "spmd", "cpu", "split", "gpu",
            "periodic", "bounded", "mixed", "uniform", "uneven", "trace",
            "telemetry", "watchdog", "budget", "city_single", "city_procs",
            "strong_serial", "gpu_city", "spmd_pair", "forced"} <= check.SLICES


def test_budget_row_fails_a_slow_disabled_metric(monkeypatch):
    """The least of the batches still catches a real cost: a disabled
    ``metric()`` that spins 2 us per call is over its 1 us budget."""
    from time import perf_counter

    from repro.perf.recorder import Recorder

    def spin(self, *args, **kwargs):
        end = perf_counter() + 2e-6
        while perf_counter() < end:
            pass
    monkeypatch.setattr(Recorder, "metric", spin)
    with pytest.raises(AssertionError, match=r"disabled metric\(\) costs"):
        check.run(["budget"], out=lambda line: None)
