"""Checkpoint-safety lint: calendar callbacks and OS-handle state."""

from __future__ import annotations

from repro.analysis import parse_source
from repro.analysis.ckpt import SNAPSHOT_SCOPE, check


def rule_ids(source: str, module: str = "repro.sim.fake") -> list[str]:
    return [v.rule_id for v in check(parse_source(source, module=module))]


class TestScope:
    def test_snapshot_scope_covers_the_simulation_stack(self):
        for package in ("sim", "cluster", "core", "recovery", "telemetry"):
            assert package in SNAPSHOT_SCOPE

    def test_modules_outside_scope_are_ignored(self):
        src = "engine.schedule(1.0, lambda: None)\n"
        assert rule_ids(src, module="repro.analysis.fake") == []
        assert rule_ids(src, module="otherpkg.sim.fake") == []


class TestCalendarCallbacks:
    def test_lambda_callback_flagged(self):
        src = "engine.schedule(1.0, lambda: None)\n"
        assert rule_ids(src) == ["CKPT-LAMBDA-CB"]

    def test_lambda_in_every_flagged(self):
        src = "engine.every(0.5, lambda: tick())\n"
        assert rule_ids(src) == ["CKPT-LAMBDA-CB"]

    def test_lambda_as_scheduled_argument_flagged(self):
        # Arguments to the callback are pickled with the calendar too.
        src = "engine.schedule_at(2.0, fire, lambda: 1)\n"
        assert rule_ids(src) == ["CKPT-LAMBDA-CB"]

    def test_local_function_callback_flagged(self):
        src = (
            "def arm(engine):\n"
            "    def on_fire():\n"
            "        pass\n"
            "    engine.schedule(1.0, on_fire)\n"
        )
        assert rule_ids(src) == ["CKPT-LOCAL-CB"]

    def test_bound_method_callback_allowed(self):
        src = "engine.schedule(1.0, self.step, priority=-10, label='rm.step')\n"
        assert rule_ids(src) == []

    def test_module_level_callable_allowed(self):
        src = (
            "class _Tick:\n"
            "    def __call__(self):\n"
            "        pass\n"
            "def arm(engine):\n"
            "    engine.schedule(1.0, _Tick())\n"
        )
        assert rule_ids(src) == []

    def test_non_payload_keywords_exempt(self):
        src = "engine.schedule(1.0, self.step, priority=100, label='x')\n"
        assert rule_ids(src) == []

    def test_unrelated_schedule_lambda_outside_scope_only(self):
        # Same source inside snapshot scope IS flagged.
        src = "cron.schedule(1.0, lambda: None)\n"
        assert rule_ids(src, module="repro.cluster.fake") == ["CKPT-LAMBDA-CB"]


class TestHandleState:
    def test_open_handle_without_getstate_flagged(self):
        src = (
            "class Sink:\n"
            "    def __init__(self, path):\n"
            "        self._fh = path.open('w')\n"
        )
        assert rule_ids(src) == ["CKPT-HANDLE"]

    def test_lock_without_getstate_flagged(self):
        src = (
            "class Shared:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
        )
        assert rule_ids(src) == ["CKPT-HANDLE"]

    def test_getstate_hook_clears_the_class(self):
        src = (
            "class Sink:\n"
            "    def __init__(self, path):\n"
            "        self._fh = path.open('w')\n"
            "    def __getstate__(self):\n"
            "        state = dict(self.__dict__)\n"
            "        state['_fh'] = None\n"
            "        return state\n"
        )
        assert rule_ids(src) == []

    def test_reduce_hook_clears_the_class(self):
        src = (
            "class Null:\n"
            "    def __init__(self):\n"
            "        self._thread = Thread()\n"
            "    def __reduce__(self):\n"
            "        return (Null, ())\n"
        )
        assert rule_ids(src) == []

    def test_plain_state_allowed(self):
        src = (
            "class Plain:\n"
            "    def __init__(self):\n"
            "        self.values = []\n"
            "        self.count = 0\n"
        )
        assert rule_ids(src) == []

    def test_local_open_not_stored_on_self_allowed(self):
        src = (
            "class Writer:\n"
            "    def dump(self, path):\n"
            "        with path.open('w') as fh:\n"
            "            fh.write('x')\n"
        )
        assert rule_ids(src) == []


class TestRegistration:
    def test_rules_registered_in_engine(self):
        from repro.analysis.engine import ALL_RULES

        for rule_id in ("CKPT-LAMBDA-CB", "CKPT-LOCAL-CB", "CKPT-HANDLE"):
            assert rule_id in ALL_RULES

    def test_source_tree_is_ckpt_clean(self):
        from pathlib import Path

        from repro.analysis import lint_paths

        src = Path(__file__).resolve().parents[2] / "src" / "repro"
        violations, n_files = lint_paths(
            [src],
            select=["CKPT-LAMBDA-CB", "CKPT-LOCAL-CB", "CKPT-HANDLE"],
            project_rules=False,
        )
        assert n_files > 100
        assert violations == []
