"""Cold-start footprint: the simulation path never loads scipy.

scipy is used in one place, the Student-t quantile behind replication
intervals (``repro.experiments.replication._t_critical``), and is
imported inside that function.  Importing ``repro``, fitting the
estimator, running an armed experiment and printing the CLI help must
therefore leave ``sys.modules`` free of scipy; only building an interval
loads it.  Each check starts a fresh interpreter, since this test
process has scipy loaded already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Printed as the last line of every probe: the scipy modules loaded.
_REPORT = """
import json as _json, sys as _sys
print(_json.dumps(sorted(
    m for m in _sys.modules if m == "scipy" or m.startswith("scipy.")
)))
"""


def scipy_modules_after(code: str) -> list[str]:
    """The scipy modules a fresh interpreter holds after running ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code) + _REPORT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


IMPORT = "import repro"

FIT = """
from repro.api import BaselineConfig, fit_estimator

fit_estimator(BaselineConfig(seed=0))
"""

ARMED_RUN = """
from repro.api import (
    DEFAULT_SLO_RULES, BaselineConfig, ExperimentConfig, TelemetryHub,
    fit_estimator, run_experiment,
)

baseline = BaselineConfig(n_periods=30, seed=0)
hub = TelemetryHub()
hub.arm_slo(DEFAULT_SLO_RULES)
hub.arm_profiler()
config = ExperimentConfig(
    policy="predictive",
    pattern="triangular",
    max_workload_units=15.0,
    baseline=baseline,
    chaos_scenario="mayhem",
    hardened=True,
    checkpoint=5.0,
)
result = run_experiment(config, estimator=fit_estimator(baseline), telemetry=hub)
assert result.metrics.periods_released == 30
"""

CLI_HELP = """
import contextlib, io, runpy, sys

sys.argv = ["repro", "--help"]
with contextlib.redirect_stdout(io.StringIO()) as out:
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exit_:
        assert exit_.code == 0, exit_.code
assert "usage" in out.getvalue()
"""


@pytest.mark.parametrize(
    "code",
    [IMPORT, FIT, ARMED_RUN, CLI_HELP],
    ids=["import", "fit_estimator", "armed_run", "cli_help"],
)
def test_path_loads_no_scipy(code):
    assert scipy_modules_after(code) == []


def test_interval_loads_scipy_on_first_use():
    loaded = scipy_modules_after(
        """
        from repro.experiments.replication import summarize

        s = summarize("m", [1.0, 2.0, 3.0])
        # Mean 2 and sd 1, so the half width is t(0.975, df=2) / sqrt(3).
        assert s.mean == 2.0 and s.std == 1.0, s
        assert abs(s.ci_low - -0.48413771175033027) < 1e-12, s
        assert abs(s.ci_high - 4.48413771175033) < 1e-12, s
        """
    )
    assert "scipy.stats" in loaded
