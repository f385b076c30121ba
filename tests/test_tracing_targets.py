"""The benchmark's tracer wraps program functions by name; a renamed one
would be skipped silently and its per-layer metric would read 0."""

import importlib.util
import pathlib

from vnfscale import scenario, topology

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# `scenario` no longer imports `baseline_forwarding_cost` by name; it is
# called inside `scaling` only, where the tracer's `scaling` entry wraps it.
# The link bandwidth rows are gone from the program, so nothing calls
# `add_bandwidth`.  Decisions price their split by u(q), so the arc walk
# `forwarding_cost_of` left the program and its span,
# `scaling.forwarding_cost_of`, reads 0.
STALE = {"vnfscale.scenario.baseline_forwarding_cost",
         "vnfscale.scenario.forwarding_cost_of",
         "vnfscale.scaling.forwarding_cost_of",
         "FlowNet.add_bandwidth"}
DELETED = {"vnfscale.scenario.forwarding_cost_of",
           "vnfscale.scaling.forwarding_cost_of",
           "FlowNet.add_bandwidth"}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_program_function():
    targets = load_tracing().TARGETS
    resolved = {(attr, span) for owner, attr, span, _ in targets
                if callable(owner.__dict__.get(attr))}
    missing = {"%s.%s" % (owner.__name__, attr): (attr, span)
               for owner, attr, span, _ in targets
               if not callable(owner.__dict__.get(attr))}
    assert set(missing) <= STALE
    # each renamed entry's span is still recorded through another owner
    assert {v for k, v in missing.items() if k not in DELETED} <= resolved


def test_traced_tree_builder_is_the_memoized_one():
    # the tracer wraps `scenario.build_fat_tree` as `topology.build_fat_tree`;
    # it must be the one builder that keeps each tree
    assert scenario.build_fat_tree is topology.build_fat_tree
