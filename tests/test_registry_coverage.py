"""Meta-test: every ``ALGORITHMS`` entry must be covered by the suite.

The property/fault/trace harnesses derive their algorithm lists from
:data:`repro.core.runner.ALGORITHMS` *at import time*, and the golden
parity battery runs whatever ``tests/golden/capture.py`` configures.
These tests compare those frozen lists against the live registry, per
declared capability:

* every algorithm appears in the oracle-equivalence sweep;
* every ``"wire"``-capable family appears in the codec/sieve sweep;
* every ``"faults"``-capable algorithm appears in the random-fault
  battery, its flat variant in the crash-at-every-level sweep;
* every ``"trace-profile"``-capable family appears in the trace
  invariants;
* every engine family has a committed golden fixture configuration;
* every algorithm appears in the kernel-backend equivalence sweep
  (numpy vs pure-python kernels, ``tests/test_property_kernels.py``);
* every algorithm appears in the runtime-backend equivalence sweep
  (sequential vs processes execution runtimes,
  ``tests/test_property_runtimes.py``).

Because the harness lists are import-time snapshots, registering an
algorithm without extending the harness predicates (or, for golden,
without a capture config) makes :func:`harness_gaps` non-empty — the
demonstration test below proves the failure mode by injecting a dummy
registry entry and asserting every gap is reported.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from repro.core.runner import ALGORITHMS, ENGINE_CAPABILITIES, AlgorithmSpec

from tests import (
    test_property_bfs,
    test_property_faults,
    test_property_kernels,
    test_property_runtimes,
    test_trace_invariants,
)

_spec = importlib.util.spec_from_file_location(
    "registry_coverage_capture",
    Path(__file__).resolve().parent / "golden" / "capture.py",
)
golden_capture = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_capture)


def required_coverage(registry: dict[str, AlgorithmSpec]) -> dict[str, set]:
    """harness name -> algorithms the registry says it must cover."""
    return {
        "oracle": set(registry),
        "wire": {
            name
            for name, spec in registry.items()
            if "wire" in spec.capabilities and not spec.hybrid
        },
        "faults": {
            name
            for name, spec in registry.items()
            if "faults" in spec.capabilities
        },
        "crash-sweep": {
            name
            for name, spec in registry.items()
            if "faults" in spec.capabilities and not spec.hybrid
        },
        "trace": {
            name
            for name, spec in registry.items()
            if "trace-profile" in spec.capabilities and not spec.hybrid
        },
        "golden": {
            name
            for name, spec in registry.items()
            if {"wire", "faults"} <= spec.capabilities and not spec.hybrid
        },
        "kernel-backend": set(registry),
        "runtime-backend": set(registry),
    }


def harness_coverage() -> dict[str, set]:
    """harness name -> algorithms the harness modules actually list."""
    return {
        "oracle": set(test_property_bfs.ALL_ALGORITHMS),
        "wire": set(test_property_bfs.WIRE_ALGORITHMS),
        "faults": set(test_property_faults.FAULT_ALGORITHMS),
        "crash-sweep": set(test_property_faults.SWEEP_ALGORITHMS),
        "trace": set(test_trace_invariants.TRACE_ALGORITHMS),
        "golden": set(golden_capture.CONFIGS),
        "kernel-backend": set(test_property_kernels.KERNEL_BACKEND_ALGORITHMS),
        "runtime-backend": set(test_property_runtimes.RUNTIME_BACKEND_ALGORITHMS),
    }


def harness_gaps(registry: dict[str, AlgorithmSpec]) -> list[tuple[str, str]]:
    """(harness, algorithm) pairs the suite fails to cover for ``registry``."""
    covered = harness_coverage()
    return sorted(
        (harness, name)
        for harness, required in required_coverage(registry).items()
        for name in required - covered[harness]
    )


def test_every_algorithm_covered():
    """The live registry has no coverage gaps; a plugin merged without
    harness coverage fails here, by name and by missing harness."""
    assert harness_gaps(ALGORITHMS) == []


def test_harness_lists_carry_no_stale_entries():
    """The harness lists never name algorithms the registry dropped."""
    for harness, covered in harness_coverage().items():
        assert covered <= set(ALGORITHMS), harness


def test_dummy_registration_is_caught(monkeypatch):
    """Demonstrate the failure mode: a full-capability algorithm
    registered without any harness coverage is reported as a gap in
    every harness (the import-time lists predate the registration)."""
    monkeypatch.setitem(
        ALGORITHMS,
        "dummy-uncovered",
        AlgorithmSpec("dummy-uncovered", False, None, ENGINE_CAPABILITIES),
    )
    gaps = harness_gaps(ALGORITHMS)
    for harness in required_coverage(ALGORITHMS):
        assert (harness, "dummy-uncovered") in gaps, harness
    # ... and nothing else is newly missing.
    assert all(name == "dummy-uncovered" for _, name in gaps)


def test_dummy_hybrid_registration_is_caught(monkeypatch):
    """Hybrid variants are exempt from the flat-only sweeps but must
    still appear in the oracle and random-fault batteries."""
    monkeypatch.setitem(
        ALGORITHMS,
        "dummy-hybrid",
        AlgorithmSpec("dummy", True, None, ENGINE_CAPABILITIES),
    )
    gaps = harness_gaps(ALGORITHMS)
    assert ("oracle", "dummy-hybrid") in gaps
    assert ("faults", "dummy-hybrid") in gaps
    assert ("crash-sweep", "dummy-hybrid") not in gaps
    assert ("wire", "dummy-hybrid") not in gaps
