"""Lint driver and CLI: file walking, reports, exit codes, rule
selection, stale suppressions, SARIF and ``--changed``."""

from __future__ import annotations

import json
import subprocess

import pytest

from repro.analysis import (
    ALL_RULES,
    lint_paths,
    render_json,
    render_rules,
    render_sarif,
    render_text,
)
from repro.analysis.model import module_name_for
from repro.cli import main
from repro.errors import AnalysisError

CLEAN = "from repro.errors import ReproError\n\nX = 1\n"
DIRTY = "import time\n\nT = time.time()\n"


def make_tree(tmp_path, sources: dict[str, str]):
    """Lay out a synthetic repro package on disk."""
    for rel, src in {"__init__.py": "", **sources}.items():
        target = tmp_path / "repro" / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(src)
    return tmp_path / "repro"


class TestLintPaths:
    def test_clean_tree(self, tmp_path):
        root = make_tree(tmp_path, {"sim/mod.py": CLEAN})
        violations, n_files = lint_paths([root])
        assert violations == []
        assert n_files == 2  # the module and the package's __init__.py

    def test_violation_found_with_position(self, tmp_path):
        root = make_tree(tmp_path, {"sim/mod.py": DIRTY})
        violations, _ = lint_paths([root])
        assert [v.rule_id for v in violations] == ["DET-TIME"]
        assert violations[0].line == 3

    def test_single_file_target(self, tmp_path):
        root = make_tree(tmp_path, {"sim/mod.py": DIRTY})
        violations, n_files = lint_paths([root / "sim" / "mod.py"])
        assert n_files == 1
        assert len(violations) == 1

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(AnalysisError, match="no such file"):
            lint_paths([tmp_path / "nope"])

    def test_unknown_rule_id_raises(self, tmp_path):
        root = make_tree(tmp_path, {"sim/mod.py": CLEAN})
        with pytest.raises(AnalysisError, match="unknown rule"):
            lint_paths([root], select=["NOT-A-RULE"])

    def test_select_narrows_rules(self, tmp_path):
        both = "import time\nimport random\nT = time.time()\n"
        root = make_tree(tmp_path, {"sim/mod.py": both})
        violations, _ = lint_paths([root], select=["DET-TIME"])
        assert [v.rule_id for v in violations] == ["DET-TIME"]

    def test_syntax_error_is_an_analysis_error(self, tmp_path):
        root = make_tree(tmp_path, {"sim/bad.py": "def broken(:\n"})
        with pytest.raises(AnalysisError, match="parse"):
            lint_paths([root])


class TestModuleNames:
    def test_package_files_named_from_the_package_root(self, tmp_path):
        root = make_tree(tmp_path, {"sim/mod.py": CLEAN})
        assert module_name_for(root / "sim" / "mod.py") == "repro.sim.mod"
        assert module_name_for(root / "__init__.py") == "repro"

    def test_checkout_named_repro_is_not_the_package(self, tmp_path):
        checkout = tmp_path / "repro"
        make_tree(checkout / "src", {"sim/mod.py": CLEAN})
        (checkout / "examples").mkdir()
        assert module_name_for(checkout / "examples" / "demo.py") == "demo"
        assert (
            module_name_for(checkout / "src" / "repro" / "sim" / "mod.py")
            == "repro.sim.mod"
        )


class TestRendering:
    def test_text_report_lists_counts(self, tmp_path):
        root = make_tree(tmp_path, {"sim/mod.py": DIRTY})
        violations, n = lint_paths([root])
        text = render_text(violations, n)
        assert "DET-TIME" in text and "1 violation" in text

    def test_json_report_round_trips(self, tmp_path):
        root = make_tree(tmp_path, {"sim/mod.py": DIRTY})
        violations, n = lint_paths([root])
        data = json.loads(render_json(violations, n))
        assert data["clean"] is False
        assert data["counts"] == {"DET-TIME": 1}
        assert data["violations"][0]["line"] == 3

    def test_rule_catalogue_covers_every_rule(self):
        catalogue = render_rules()
        for rule_id in ALL_RULES:
            assert rule_id in catalogue

    def test_rule_ids_are_unique_across_passes(self):
        # ALL_RULES is a dict keyed by id; collisions would silently drop
        # a rule from the catalogue.  Spot-check the expected families.
        families = {rid.split("-")[0] for rid in ALL_RULES}
        assert families == {
            "DET", "UNIT", "LAY", "PCK", "CKPT", "CONC", "API", "LINT",
        }


class TestCli:
    def test_lint_clean_exits_zero(self, tmp_path, capsys):
        root = make_tree(tmp_path, {"sim/mod.py": CLEAN})
        assert main(["lint", str(root)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_violations_exit_one(self, tmp_path, capsys):
        root = make_tree(tmp_path, {"sim/mod.py": DIRTY})
        assert main(["lint", str(root)]) == 1
        assert "DET-TIME" in capsys.readouterr().out

    def test_lint_json_format(self, tmp_path, capsys):
        root = make_tree(tmp_path, {"sim/mod.py": DIRTY})
        assert main(["lint", str(root), "--format", "json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["counts"] == {"DET-TIME": 1}

    def test_lint_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        assert "DET-TIME" in capsys.readouterr().out

    def test_lint_custom_contract(self, tmp_path, capsys):
        contract = tmp_path / "contract.toml"
        contract.write_text("[allowed]\nsim = []\n")
        root = make_tree(
            tmp_path, {"sim/mod.py": "from repro.errors import ReproError\n"}
        )
        # errors is unknown to this minimal contract -> LAY violation.
        assert main(["lint", str(root), "--contract", str(contract)]) == 1
        assert "LAY-DAG" in capsys.readouterr().out

    def test_lint_bad_path_reports_error(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "missing")]) == 2
        assert "error" in capsys.readouterr().err


class TestUnusedNoqa:
    def test_stale_suppression_flagged(self, tmp_path):
        root = make_tree(tmp_path, {
            "sim/a.py": "x = 1  # repro: noqa DET-TIME\n",
        })
        violations, _ = lint_paths([root])
        assert [v.rule_id for v in violations] == ["LINT-UNUSED-NOQA"]

    def test_live_suppression_not_flagged(self, tmp_path):
        root = make_tree(tmp_path, {
            "sim/a.py": (
                "import time\n"
                "t = time.time()  # repro: noqa DET-TIME\n"
            ),
        })
        violations, _ = lint_paths([root])
        assert violations == []

    def test_unknown_rule_id_flagged(self, tmp_path):
        root = make_tree(tmp_path, {
            "sim/a.py": (
                "import time\n"
                "t = time.time()  # repro: noqa DET-TYPO\n"
            ),
        })
        violations, _ = lint_paths([root])
        ids = [v.rule_id for v in violations]
        assert "LINT-UNUSED-NOQA" in ids  # the typo'd comment is stale
        assert "DET-TIME" in ids  # and it suppressed nothing

    def test_continuation_line_noqa_is_stale(self, tmp_path):
        # Violations anchor to the statement's first line; a suppression
        # on a continuation line silences nothing, so it is stale.
        root = make_tree(tmp_path, {
            "sim/a.py": (
                "import time\n"
                "t = time.time(\n"
                ")  # repro: noqa DET-TIME\n"
            ),
        })
        violations, _ = lint_paths([root])
        ids = sorted(v.rule_id for v in violations)
        assert ids == ["DET-TIME", "LINT-UNUSED-NOQA"]

    def test_docstring_mention_not_a_suppression(self, tmp_path):
        root = make_tree(tmp_path, {
            "sim/a.py": (
                '"""Docs mentioning # repro: noqa DET-TIME literally."""\n'
                "x = 1\n"
            ),
        })
        violations, _ = lint_paths([root])
        assert violations == []


class TestSarif:
    def test_sarif_payload_shape(self, tmp_path):
        root = make_tree(tmp_path, {"sim/a.py": DIRTY})
        violations, n = lint_paths([root])
        payload = json.loads(render_sarif(violations, n))
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        assert run["results"][0]["ruleId"] == "DET-TIME"
        region = run["results"][0]["locations"][0]["physicalLocation"]
        assert region["region"]["startLine"] == 3
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"DET-TIME", "CONC-GLOBAL-MUT", "API-SNAPSHOT"} <= rule_ids

    def test_cli_sarif_format(self, tmp_path, capsys):
        root = make_tree(tmp_path, {"sim/a.py": DIRTY})
        assert main(["lint", str(root), "--format", "sarif"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"][0]["results"]


class TestChanged:
    def init_repo(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        subprocess.run(["git", "init", "-q"], check=True)
        subprocess.run(["git", "config", "user.email", "t@t"], check=True)
        subprocess.run(["git", "config", "user.name", "t"], check=True)

    def test_changed_lints_only_diffed_files(self, tmp_path, monkeypatch, capsys):
        self.init_repo(tmp_path, monkeypatch)
        root = make_tree(tmp_path, {"sim/a.py": CLEAN, "sim/b.py": CLEAN})
        subprocess.run(["git", "add", "-A"], check=True)
        subprocess.run(["git", "commit", "-qm", "base"], check=True)
        (root / "sim" / "a.py").write_text(DIRTY)
        assert main(["lint", "--changed"]) == 1
        out = capsys.readouterr().out
        assert "DET-TIME" in out
        assert "1 file(s)" in out  # b.py untouched, not linted

    def test_changed_includes_untracked_files(self, tmp_path, monkeypatch, capsys):
        self.init_repo(tmp_path, monkeypatch)
        root = make_tree(tmp_path, {"sim/a.py": CLEAN})
        subprocess.run(["git", "add", "-A"], check=True)
        subprocess.run(["git", "commit", "-qm", "base"], check=True)
        (root / "sim" / "new.py").write_text(DIRTY)
        assert main(["lint", "--changed"]) == 1
        assert "DET-TIME" in capsys.readouterr().out

    def test_changed_clean_when_no_diff(self, tmp_path, monkeypatch, capsys):
        self.init_repo(tmp_path, monkeypatch)
        make_tree(tmp_path, {"sim/a.py": CLEAN})
        subprocess.run(["git", "add", "-A"], check=True)
        subprocess.run(["git", "commit", "-qm", "base"], check=True)
        assert main(["lint", "--changed"]) == 0
        assert "0 changed" in capsys.readouterr().out

    def test_changed_skips_project_rules(self, tmp_path, monkeypatch, capsys):
        # A worker-reachable mutation needs the whole project; --changed
        # must not half-run it (CI's full lint covers it).
        self.init_repo(tmp_path, monkeypatch)
        root = make_tree(tmp_path, {"parallel/jobs.py": CLEAN})
        subprocess.run(["git", "add", "-A"], check=True)
        subprocess.run(["git", "commit", "-qm", "base"], check=True)
        (root / "parallel" / "jobs.py").write_text(
            "CACHE = {}\n"
            "def run_job():\n    CACHE[1] = 2\n"
        )
        assert main(["lint", "--changed"]) == 0

    def test_changed_outside_a_work_tree_is_an_error(
        self, tmp_path, monkeypatch, capsys
    ):
        # Exit 1 means "violations found"; a failed git call is an error.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
        assert main(["lint", "--changed"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: repro lint --changed: git rev-parse")

    def test_changed_from_subdirectory_finds_tracked_edit(
        self, tmp_path, monkeypatch, capsys
    ):
        # git diff prints repository-root paths; run from a subdirectory
        # the edit must still be found, not reported as 0 changed files.
        self.init_repo(tmp_path, monkeypatch)
        root = make_tree(tmp_path, {"sim/a.py": CLEAN, "sim/b.py": CLEAN})
        subprocess.run(["git", "add", "-A"], check=True)
        subprocess.run(["git", "commit", "-qm", "base"], check=True)
        (root / "sim" / "a.py").write_text(DIRTY)
        monkeypatch.chdir(root / "sim")
        assert main(["lint", "--changed"]) == 1
        out = capsys.readouterr().out
        assert "DET-TIME" in out
        assert "1 file(s)" in out

    def test_changed_from_subdirectory_sees_whole_repo(
        self, tmp_path, monkeypatch, capsys
    ):
        self.init_repo(tmp_path, monkeypatch)
        root = make_tree(tmp_path, {"sim/a.py": CLEAN, "cluster/b.py": CLEAN})
        subprocess.run(["git", "add", "-A"], check=True)
        subprocess.run(["git", "commit", "-qm", "base"], check=True)
        (root / "cluster" / "new.py").write_text(DIRTY)
        monkeypatch.chdir(root / "sim")
        assert main(["lint", "--changed", "--format", "json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["checked_files"] == 1
        assert data["violations"][0]["file"] == "../../repro/cluster/new.py"
