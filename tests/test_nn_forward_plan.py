"""Forward-plan subsystem: linearisation, recording, bit-exact resume."""

import numpy as np
import pytest

from repro import nn
from repro.models import (
    alexnet,
    lenet5,
    mlp,
    mobilenet_lite,
    resnet18,
    resnet50,
    squeezenet_lite,
    vgg11,
    vgg16,
)
from repro.nn import ActivationArena, ForwardPlan


def _input(batch=2, seed=0):
    return np.random.default_rng(seed).normal(size=(batch, 3, 32, 32)).astype(np.float32)


@pytest.fixture(
    params=[
        mlp, lenet5, alexnet, vgg16, resnet18,
        vgg11, resnet50, mobilenet_lite, squeezenet_lite,
    ],
    ids=lambda f: f.__name__,
)
def model_and_plan(request):
    model = request.param(num_classes=10, seed=0).eval()
    x = _input()
    return model, ForwardPlan.trace(model, x), x


class TestLinearisation:
    def test_zoo_models_linearise_into_multiple_segments(self, model_and_plan):
        model, plan, _ = model_and_plan
        assert plan.valid
        assert plan.num_segments > 1
        # Every segment is a module of the model tree with a resolvable name.
        names = dict(model.named_modules())
        for segment, name in zip(plan.segments, plan.segment_names):
            assert names[name] is segment

    def test_residual_blocks_stay_atomic(self):
        model = resnet18(num_classes=10, seed=0).eval()
        plan = ForwardPlan.trace(model, _input())
        # Blocks branch internally (identity + conv path), so they must be
        # kept whole; the top-level stem/stage/pool/fc chain still flattens.
        assert "layer1.0" in plan.segment_names
        assert not any(name.startswith("layer1.0.") for name in plan.segment_names)

    def test_branchy_root_degenerates_to_single_segment(self):
        class Branchy(nn.Module):
            def __init__(self):
                super().__init__()
                self.a = nn.Linear(8, 8, rng=np.random.default_rng(0))
                self.b = nn.Linear(8, 8, rng=np.random.default_rng(1))

            def forward(self, x):
                return self.a(x) + self.b(x)

        model = Branchy().eval()
        x = np.random.default_rng(2).normal(size=(3, 8)).astype(np.float32)
        plan = ForwardPlan.trace(model, x)
        assert not plan.valid
        assert plan.num_segments == 1
        # Degenerate plans still execute correctly as a full forward.
        np.testing.assert_array_equal(plan.resume(0, x), model(x))

    def test_root_mutating_child_output_in_place_is_invalidated(self):
        # The object-identity chain holds (the root returns the child's own
        # array), but the root's in-place post-processing is not part of any
        # segment — the replay validation must reject the plan.
        class MutatingRoot(nn.Module):
            def __init__(self):
                super().__init__()
                self.body = nn.Linear(8, 8, rng=np.random.default_rng(0))

            def forward(self, x):
                y = self.body(x)
                y += 1.0  # in place: id(y) is preserved
                return y

        model = MutatingRoot().eval()
        x = np.random.default_rng(1).normal(size=(2, 8)).astype(np.float32)
        plan = ForwardPlan.trace(model, x)
        assert not plan.valid

    def test_list_output_with_root_post_processing_is_invalidated(self):
        # Same trap for detection-style list outputs: the root returns the
        # head's own list object (so the identity chain holds) but mutates
        # its contents in place.  Without the structural replay comparison
        # the plan would silently drop the root's work.
        class ListHead(nn.Module):
            def __init__(self):
                super().__init__()
                self.lin = nn.Linear(8, 8, rng=np.random.default_rng(0))

            def forward(self, x):
                return [self.lin(x)]

        class ListMutatingRoot(nn.Module):
            def __init__(self):
                super().__init__()
                self.pre = nn.Linear(8, 8, rng=np.random.default_rng(1))
                self.head = ListHead()

            def forward(self, x):
                dets = self.head(self.pre(x))
                dets[0] *= 2.0
                return dets

        class ListChainRoot(ListMutatingRoot):
            def forward(self, x):
                return self.head(self.pre(x))

        x = np.random.default_rng(2).normal(size=(2, 8)).astype(np.float32)
        assert not ForwardPlan.trace(ListMutatingRoot().eval(), x).valid
        # A genuinely linear list-returning model stays valid: the replay
        # comparison recurses into the list's arrays instead of rejecting
        # non-ndarray outputs wholesale.
        clean = ForwardPlan.trace(ListChainRoot().eval(), x)
        assert clean.valid and clean.num_segments == 2

    def test_segment_for_maps_nested_modules_to_containing_segment(self):
        model = resnet18(num_classes=10, seed=0).eval()
        plan = ForwardPlan.trace(model, _input())
        block_index = plan.segment_names.index("layer2.1")
        assert plan.segment_for("layer2.1.conv2") == block_index
        assert plan.segment_for("layer2.1") == block_index
        assert plan.segment_for("not.a.module") is None


class TestResume:
    def test_resume_from_every_boundary_is_bit_exact(self, model_and_plan):
        model, plan, x = model_and_plan
        full = np.asarray(model(x))
        for k in range(plan.num_segments + 1):
            boundary = plan.run_prefix(x, k)
            resumed = np.asarray(plan.resume(k, boundary))
            assert resumed.tobytes() == full.tobytes(), f"resume at segment {k} diverged"

    def test_resume_with_partial_batch_shape(self, model_and_plan):
        model, plan, _ = model_and_plan
        x = _input(batch=1, seed=3)
        full = np.asarray(model(x))
        k = plan.num_segments // 2
        resumed = np.asarray(plan.resume(k, plan.run_prefix(x, k)))
        assert resumed.tobytes() == full.tobytes()

    def test_resume_leaves_the_boundary_activation_untouched(self, model_and_plan):
        # Boundary activations come from the golden cache and are reused by
        # every later faulty suffix, so no segment may write into its input.
        _, plan, x = model_and_plan
        for k in range(plan.num_segments):
            boundary = plan.run_prefix(x, k)
            snapshot = boundary.tobytes()
            plan.resume(k, boundary)
            assert boundary.tobytes() == snapshot, f"resume at segment {k} wrote its input"

    def test_forward_hooks_fire_on_resume(self):
        model = nn.Sequential(
            nn.Linear(8, 8, rng=np.random.default_rng(4)), nn.ReLU(), nn.Linear(8, 2)
        ).eval()
        x = np.random.default_rng(5).normal(size=(2, 8)).astype(np.float32)
        plan = ForwardPlan.trace(model, x)
        boundaries = [plan.run_prefix(x, k) for k in range(plan.num_segments)]
        seen = []
        handle = model._modules["1"].register_forward_hook(
            lambda module, args, out: seen.append(out.copy())
        )
        try:
            outputs = [plan.resume(k, boundaries[k]) for k in range(plan.num_segments)]
        finally:
            handle.remove()
        # The hook fires in the two passes that run segment 1, not in the third.
        assert len(seen) == 2
        np.testing.assert_array_equal(seen[0], seen[1])
        np.testing.assert_array_equal(seen[0], boundaries[2])
        assert outputs[0].tobytes() == model(x).tobytes()

    def test_resume_index_bounds_checked(self, model_and_plan):
        _, plan, x = model_and_plan
        with pytest.raises(IndexError):
            plan.resume(plan.num_segments + 1, x)
        with pytest.raises(IndexError):
            plan.run_prefix(x, -1)


class TestRecording:
    def test_recording_checkpoints_match_prefix_runs(self):
        model = lenet5(seed=0).eval()
        x = _input(seed=4)
        plan = ForwardPlan.trace(model, x)
        output, checkpoints, marks = plan.run_recording(x, "all")
        assert marks is None
        assert set(checkpoints) == set(range(1, plan.num_segments))
        np.testing.assert_array_equal(np.asarray(output), np.asarray(model(x)))
        for k, value in checkpoints.items():
            np.testing.assert_array_equal(np.asarray(value), np.asarray(plan.run_prefix(x, k)))

    def test_selected_boundaries_only(self):
        model = lenet5(seed=0).eval()
        x = _input(seed=5)
        plan = ForwardPlan.trace(model, x)
        _, checkpoints, _ = plan.run_recording(x, [3])
        assert list(checkpoints) == [3]

    def test_arena_buffers_are_reused_across_recordings(self):
        model = lenet5(seed=0).eval()
        x = _input(seed=6)
        plan = ForwardPlan.trace(model, x)
        arena = ActivationArena()
        _, first, _ = plan.run_recording(x, "all", arena=arena)
        nbytes = arena.nbytes
        _, second, _ = plan.run_recording(x + 1.0, "all", arena=arena)
        assert arena.nbytes == nbytes  # same buffers, no growth
        for k in first:
            assert first[k] is second[k]

    def test_recorded_checkpoints_without_arena_are_owned_copies(self):
        model = mlp(seed=0).eval()
        x = _input(seed=7)
        plan = ForwardPlan.trace(model, x)
        _, first, _ = plan.run_recording(x, "all")
        snapshot = {k: v.copy() for k, v in first.items()}
        plan.run_recording(x * -2.0, "all")
        for k in first:
            np.testing.assert_array_equal(first[k], snapshot[k])

    def test_monitor_marks_cover_every_boundary(self):
        from repro.alficore.monitoring import InferenceMonitor

        model = lenet5(seed=0).eval()
        x = _input(seed=8)
        plan = ForwardPlan.trace(model, x)
        # Poison a mid-network weight so NaN events exist to attribute.
        conv2 = model.get_submodule("features.3")
        original = conv2.weight.data[0, 0, 0, 0]
        conv2.weight.data[0, 0, 0, 0] = np.nan
        monitor = InferenceMonitor(model)
        monitor.attach()
        try:
            monitor.reset()
            _, _, marks = plan.run_recording(x, [], monitor=monitor)
            result = monitor.collect()
        finally:
            monitor.detach()
            conv2.weight.data[0, 0, 0, 0] = original
        assert len(marks) == plan.num_segments + 1
        assert marks[0] == (0, 0, 0)
        assert marks[-1] == (len(result.nan_layers), len(result.inf_layers), 0)
        # Counts are monotone and the poisoned layer's events appear only
        # from its segment boundary onwards.
        poisoned = plan.segment_for("features.3")
        assert marks[poisoned][0] == 0
        assert marks[poisoned + 1][0] >= 1
        for before, after in zip(marks, marks[1:]):
            assert all(b <= a for b, a in zip(before, after))
