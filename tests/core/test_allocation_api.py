"""Unit tests for the two-level allocation contract.

Covers the cycle-scoped :class:`AllocationContext` /
:class:`AllocationPlan` surface, the :class:`CandidatePolicyAdapter`
lift, the registry's error wrapping, and the removal of the old
``repro.core.allocator`` module path.
"""

from __future__ import annotations

import pytest

from repro.bench.app import aaw_task, default_initial_placement
from repro.cluster.topology import build_system
from repro.core.allocation import (
    AllocationContext,
    AllocationOutcome,
    AllocationPlan,
    Allocator,
    CandidatePolicyAdapter,
    as_allocator,
    get_allocator,
    get_policy,
    register_policy,
    registered_policies,
)
from repro.core.deadlines import DeadlineAssignment
from repro.core.nonpredictive import NonPredictivePolicy
from repro.core.predictive import PredictivePolicy
from repro.errors import AllocationError
from repro.tasks.state import ReplicaAssignment

from tests.conftest import exact_estimator


def make_context(candidates=(3,), d_tracks=5000.0, budget=0.35, n_processors=6,
                 excluded=frozenset()):
    """A small cycle context over the benchmark task (subtask 3 flagged)."""
    system = build_system(n_processors=n_processors, seed=0)
    task = aaw_task(noise_sigma=0.0)
    placement = default_initial_placement(task, [p.name for p in system.processors])
    assignment = ReplicaAssignment(task, placement)
    deadlines = DeadlineAssignment(
        subtask_deadlines={s.index: budget for s in task.subtasks},
        message_deadlines={m.index: 0.0 for m in task.messages},
        strategy="test",
    )
    return AllocationContext(
        task=task,
        assignment=assignment,
        system=system,
        estimator=exact_estimator(task),
        deadlines=deadlines,
        d_tracks=d_tracks,
        total_periodic_tracks=d_tracks,
        candidates=tuple(candidates),
        excluded_processors=excluded,
    )


class TestAllocationContext:
    def test_request_for_carries_cycle_payload(self):
        context = make_context(excluded=frozenset({"p5"}))
        request = context.request_for(3)
        assert request.subtask_index == 3
        assert request.d_tracks == context.d_tracks
        assert request.excluded_processors == frozenset({"p5"})
        assert request.assignment is context.assignment

    def test_utilization_snapshot_covers_cluster(self):
        context = make_context()
        snapshot = context.utilization_snapshot()
        assert set(snapshot) == {p.name for p in context.system.processors}
        assert all(v == 0.0 for v in snapshot.values())

    def test_utilization_snapshot_applies_reading_guard(self):
        context = make_context()
        guarded = AllocationContext(
            task=context.task,
            assignment=context.assignment,
            system=context.system,
            estimator=context.estimator,
            deadlines=context.deadlines,
            d_tracks=context.d_tracks,
            total_periodic_tracks=context.total_periodic_tracks,
            candidates=context.candidates,
            reading_guard=lambda reading: 0.42,
        )
        assert set(guarded.utilization_snapshot().values()) == {0.42}

    def test_available_processors_excludes_hosting_and_guarded(self):
        context = make_context(excluded=frozenset({"p5"}))
        hosting = set(context.assignment.processors_of(3))
        names = [p.name for p in context.available_processors(3)]
        assert "p5" not in names
        assert not hosting & set(names)

    def test_stage_threshold_matches_figure5(self):
        context = make_context(budget=0.5)
        assert context.stage_threshold(3, 0.2) == pytest.approx(0.4)


class TestAllocationPlan:
    def test_changed_and_lookup(self):
        plan = AllocationPlan(
            outcomes=(
                AllocationOutcome(subtask_index=3, success=True,
                                  added_processors=("p4",)),
                AllocationOutcome(subtask_index=5, success=False),
            ),
            allocator_name="test",
        )
        assert plan.changed
        assert plan.outcome_for(5).success is False
        assert plan.outcome_for(7) is None

    def test_empty_plan_is_unchanged(self):
        assert not AllocationPlan().changed


class TestCandidatePolicyAdapter:
    def test_adapter_replays_candidates_in_order(self):
        seen = []

        class Recorder:
            name = "recorder"

            def replicate(self, request):
                seen.append(request.subtask_index)
                return AllocationOutcome(
                    subtask_index=request.subtask_index, success=True
                )

        context = make_context(candidates=(5, 3))
        plan = CandidatePolicyAdapter(Recorder()).allocate(context)
        assert seen == [5, 3]
        assert [o.subtask_index for o in plan.outcomes] == [5, 3]
        assert plan.allocator_name == "recorder"

    def test_adapter_matches_direct_policy_calls(self):
        """The lift is the historical loop: same outcomes, same placement."""
        direct = make_context()
        policy = PredictivePolicy(slack_fraction=0.2)
        direct_outcome = policy.replicate(direct.request_for(3))

        lifted = make_context()
        plan = as_allocator(PredictivePolicy(slack_fraction=0.2)).allocate(lifted)
        assert plan.outcomes == (direct_outcome,)
        assert lifted.assignment.processors_of(3) == direct.assignment.processors_of(3)

    def test_as_allocator_passes_level2_through(self):
        adapter = CandidatePolicyAdapter(NonPredictivePolicy())
        assert as_allocator(adapter) is adapter

    def test_as_allocator_rejects_foreign_objects(self):
        with pytest.raises(AllocationError, match="neither"):
            as_allocator(object())

    def test_adapter_satisfies_allocator_protocol(self):
        assert isinstance(CandidatePolicyAdapter(NonPredictivePolicy()), Allocator)


class TestRegistryErrors:
    def test_unknown_name_lists_registry(self):
        with pytest.raises(AllocationError, match="registered:"):
            get_policy("alchemy")

    def test_factory_typeerror_wrapped_with_kwargs(self):
        """Bad kwargs surface as AllocationError naming the accepted set."""
        with pytest.raises(AllocationError) as excinfo:
            get_policy("predictive", no_such_option=1)
        message = str(excinfo.value)
        assert "predictive" in message
        assert "no_such_option" in message
        assert "slack_fraction" in message

    def test_factory_internal_typeerror_also_wrapped(self):
        def exploding_factory(**kwargs):
            raise TypeError("internal boom")

        register_policy("exploding-test", exploding_factory)
        try:
            with pytest.raises(AllocationError, match="internal boom"):
                get_policy("exploding-test")
        finally:
            from repro.core import allocation

            allocation._REGISTRY.pop("exploding-test", None)

    def test_get_allocator_lifts_level1_policies(self):
        allocator = get_allocator("predictive", slack_fraction=0.3)
        assert isinstance(allocator, CandidatePolicyAdapter)
        assert allocator.name == "predictive"

    def test_get_allocator_returns_level2_directly(self):
        from repro.core.zoo import MarketAllocator

        allocator = get_allocator("market")
        assert isinstance(allocator, MarketAllocator)

    def test_zoo_registered(self):
        assert {"market", "fairshare", "oracle"} <= set(registered_policies())


class TestDeprecatedModuleShim:
    def test_old_module_path_is_gone(self):
        # The names live in repro.core.allocation (and repro.api) only.
        with pytest.raises(ModuleNotFoundError):
            import repro.core.allocator  # noqa: F401
