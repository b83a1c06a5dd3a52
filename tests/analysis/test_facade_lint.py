"""API-SNAPSHOT: facade-snapshot drift."""

from __future__ import annotations

from pathlib import Path

from repro.analysis import build_project, parse_contract, parse_source
from repro.analysis.facade_lint import check_project

CONTRACT = parse_contract(
    """
[allowed]
sim = []

[facade]
snapshot = "tests/public_api_snapshot.txt"
""",
    origin="<test>",
)


def make_api_tree(tmp_path: Path, all_names: list[str], snapshot: list[str] | None):
    """Lay out <root>/repro/api.py plus the snapshot file on disk."""
    api_dir = tmp_path / "repro"
    api_dir.mkdir()
    names = "".join(f'    "{n}",\n' for n in all_names)
    api_path = api_dir / "api.py"
    api_path.write_text(f"__all__ = [\n{names}]\n")
    if snapshot is not None:
        snap = tmp_path / "tests" / "public_api_snapshot.txt"
        snap.parent.mkdir()
        snap.write_text("".join(f"{n}\n" for n in snapshot))
    info = parse_source(
        api_path.read_text(), module="repro.api", path=str(api_path)
    )
    return build_project([info])


class TestSnapshot:
    def test_matching_snapshot_clean(self, tmp_path):
        project = make_api_tree(tmp_path, ["a", "b"], ["a", "b"])
        assert check_project(project, CONTRACT) == []

    def test_unreviewed_addition_flagged(self, tmp_path):
        project = make_api_tree(tmp_path, ["a", "b", "new"], ["a", "b"])
        violations = check_project(project, CONTRACT)
        assert [v.rule_id for v in violations] == ["API-SNAPSHOT"]
        assert "new" in violations[0].message

    def test_silent_removal_flagged(self, tmp_path):
        project = make_api_tree(tmp_path, ["a"], ["a", "gone"])
        violations = check_project(project, CONTRACT)
        assert [v.rule_id for v in violations] == ["API-SNAPSHOT"]
        assert "gone" in violations[0].message

    def test_missing_snapshot_file_skips(self, tmp_path):
        project = make_api_tree(tmp_path, ["a"], None)
        assert check_project(project, CONTRACT) == []

    def test_dynamic_all_flagged(self, tmp_path):
        api_dir = tmp_path / "repro"
        api_dir.mkdir()
        api_path = api_dir / "api.py"
        api_path.write_text("__all__ = sorted(globals())\n")
        snap = tmp_path / "tests" / "public_api_snapshot.txt"
        snap.parent.mkdir()
        snap.write_text("a\n")
        info = parse_source(
            api_path.read_text(), module="repro.api", path=str(api_path)
        )
        violations = check_project(build_project([info]), CONTRACT)
        assert [v.rule_id for v in violations] == ["API-SNAPSHOT"]
        assert "static" in violations[0].message
