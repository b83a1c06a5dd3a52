"""Layering lint: the contract parser and the four LAY rules."""

from __future__ import annotations

import re

import pytest

from repro.analysis import parse_contract, parse_source
from repro.analysis.layering import check, load_contract
from repro.errors import AnalysisError

CONTRACT = parse_contract(
    """
[allowed]
errors = []
units = ["errors"]
sim = ["errors", "units"]
experiments = ["errors", "units", "sim"]
parallel = ["errors", "experiments"]
cli = ["errors", "units", "sim", "experiments", "parallel"]
api = ["errors", "units", "sim", "experiments"]
__init__ = ["api"]
lazy_allow = [["experiments", "parallel"]]

[restricted]
parallel = ["experiments", "cli", "parallel"]

[facade]
roots = ["examples", "scripts"]
allowed = ["api", "__init__"]
"""
)


def rule_ids(source: str, module: str) -> list[str]:
    return [v.rule_id for v in check(parse_source(source, module=module), CONTRACT)]


class TestContractParser:
    def test_packaged_contract_loads_and_is_dag(self):
        contract = load_contract()
        assert "experiments" in contract.packages()
        assert ("experiments", "parallel") in contract.lazy_allow

    def test_packaged_contract_places_telemetry_foundation_adjacent(self):
        """Telemetry must stay importable from every simulation layer.

        Its own imports are restricted to the foundation — anything more
        would cycle with the layers that call into the hub.
        """
        contract = load_contract()
        assert "telemetry" in contract.packages()
        allowed = set(contract.allowed["telemetry"])
        assert allowed <= {"errors", "units", "formatting"}
        for importer in ("sim", "cluster", "runtime", "core", "experiments", "cli"):
            assert "telemetry" in contract.allowed[importer], importer

    def test_unknown_package_in_deps_rejected(self):
        with pytest.raises(AnalysisError, match="unknown packages"):
            parse_contract("[allowed]\nsim = [\"nonexistent\"]\n")

    def test_cycle_rejected(self):
        with pytest.raises(AnalysisError, match="cyclic"):
            parse_contract(
                "[allowed]\na = [\"b\"]\nb = [\"a\"]\n"
            )

    def test_missing_allowed_table_rejected(self):
        with pytest.raises(AnalysisError, match="allowed"):
            parse_contract("[restricted]\n")

    def test_malformed_lazy_allow_rejected(self):
        with pytest.raises(AnalysisError, match="lazy_allow"):
            parse_contract(
                "[allowed]\nsim = []\nlazy_allow = [[\"sim\"]]\n"
            )

    def test_invalid_toml_rejected(self):
        with pytest.raises(AnalysisError, match="invalid"):
            parse_contract("not toml [")

    @pytest.mark.parametrize(
        "body,names",
        [
            # Read as empty, either misspelling would leave no entry
            # points and silently switch off every CONC-* rule.
            ("[concurency]\nentry_points = []\n", "[concurency]"),
            ("[concurrency]\nentry_point = []\n", "concurrency.entry_point"),
            ("[vectorization]\nkernel_modules = []\n", "[vectorization]"),
            ("[deprecated]\nnames = []\n", "[deprecated]"),
            ("[facade]\nroot = []\n\n[extra]\n", "[extra], facade.root"),
        ],
        ids=["misspelt-table", "misspelt-key", "vectorization", "deprecated",
             "several"],
    )
    def test_unknown_table_or_key_rejected(self, body, names):
        with pytest.raises(AnalysisError, match=re.escape(f"unknown {names};")):
            parse_contract(f"[allowed]\nsim = []\n\n{body}")


class TestLayDag:
    def test_downward_import_allowed(self):
        src = "from repro.errors import ReproError\n"
        assert rule_ids(src, "repro.sim.engine") == []

    def test_upward_import_flagged(self):
        src = "from repro.experiments.config import BaselineConfig\n"
        assert rule_ids(src, "repro.sim.engine") == ["LAY-DAG"]

    def test_sibling_module_always_allowed(self):
        src = "from repro.sim.events import Event\n"
        assert rule_ids(src, "repro.sim.engine") == []

    def test_type_checking_import_exempt(self):
        src = (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.experiments.config import BaselineConfig\n"
        )
        assert rule_ids(src, "repro.sim.engine") == []

    def test_undeclared_package_surfaces(self):
        src = "from repro.errors import ReproError\n"
        assert rule_ids(src, "repro.newpkg.mod") == ["LAY-DAG"]

    def test_non_repro_imports_ignored(self):
        src = "import numpy as np\nimport os\n"
        assert rule_ids(src, "repro.sim.engine") == []


class TestLayLazy:
    def test_sanctioned_lazy_upward_import_allowed(self):
        src = (
            "def run(n_jobs):\n"
            "    from repro.parallel import run_configs_parallel\n"
            "    return run_configs_parallel\n"
        )
        assert rule_ids(src, "repro.experiments.runner") == []

    def test_unsanctioned_lazy_upward_import_flagged(self):
        src = (
            "def run():\n"
            "    from repro.experiments.config import BaselineConfig\n"
            "    return BaselineConfig\n"
        )
        assert rule_ids(src, "repro.sim.engine") == ["LAY-LAZY"]

    def test_top_level_import_not_excused_by_lazy_allow(self):
        # lazy_allow covers *function-level* imports only; at module
        # load time experiments -> parallel would form a cycle.
        src = "from repro.parallel import run_configs_parallel\n"
        assert rule_ids(src, "repro.experiments.runner") == ["LAY-DAG"]


class TestLayPrivate:
    def test_restricted_package_from_outsider_flagged(self):
        src = "from repro.parallel.pool import map_jobs\n"
        assert rule_ids(src, "repro.sim.engine") == ["LAY-PRIVATE"]

    def test_restricted_package_from_allowed_importer(self):
        src = (
            "def run():\n"
            "    from repro.parallel.pool import map_jobs\n"
            "    return map_jobs\n"
        )
        assert rule_ids(src, "repro.experiments.runner") == []

    def test_restricted_package_imports_itself_freely(self):
        src = "from repro.parallel.jobs import JobSpec\n"
        assert rule_ids(src, "repro.parallel.dispatch") == []


class TestLayFacade:
    def facade_ids(self, source: str, path: str) -> list[str]:
        info = parse_source(source, module="example", path=path)
        return [v.rule_id for v in check(info, CONTRACT)]

    def test_deep_import_from_examples_flagged(self):
        src = "from repro.sim.engine import Engine\n"
        assert self.facade_ids(src, "examples/quickstart.py") == ["LAY-FACADE"]

    def test_plain_import_form_also_flagged(self):
        src = "import repro.experiments.runner\n"
        assert self.facade_ids(src, "scripts/sweep.py") == ["LAY-FACADE"]

    def test_facade_import_allowed(self):
        src = "from repro.api import build_system\n"
        assert self.facade_ids(src, "examples/quickstart.py") == []

    def test_root_reexport_allowed(self):
        src = "from repro import build_system\n"
        assert self.facade_ids(src, "examples/quickstart.py") == []

    def test_non_facade_tree_exempt(self):
        src = "from repro.sim.engine import Engine\n"
        assert self.facade_ids(src, "tools/probe.py") == []

    def test_type_checking_import_exempt(self):
        src = (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.sim.engine import Engine\n"
        )
        assert self.facade_ids(src, "examples/quickstart.py") == []

    def test_unknown_facade_allowed_package_rejected(self):
        with pytest.raises(AnalysisError):
            parse_contract(
                "[allowed]\nerrors = []\n[facade]\nallowed = [\"ghost\"]\n"
            )

    def test_packaged_contract_covers_examples_and_scripts(self):
        contract = load_contract()
        assert {"examples", "scripts"} <= set(contract.facade_roots)
        assert "api" in contract.facade_allowed
