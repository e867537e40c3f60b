"""Hypothesis property tests: scalar and batched engines are one engine.

Random corridor and procgen cells, seeds, and chaos fault draws, written
as cell specs; the property is always the same — the batched stepper's
drive is field-for-field bit-identical to the scalar drive (fingerprint,
mode residency, collision flags, Eq. 1 deadline accounting).  On failure
hypothesis shrinks the coordinates and the assertion message carries
the paste-able ``run_differential_cell`` repro line.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.fleetops.cells import CellSpec, InvariantCell, ProcGenCell
from repro.scene.corridors import corridor_names
from repro.scene.procgen import DEFAULT_SPACE
from repro.testing.differential import run_differential

_SETTINGS = settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)


def _assert_equivalent(specs) -> None:
    report = run_differential(specs)
    assert report.n_cells == len(specs)
    assert report.ok, report.format_report()


@_SETTINGS
@given(
    name=st.sampled_from(sorted(corridor_names())),
    seed=st.integers(min_value=0, max_value=10_000),
    fault_seed=st.none() | st.integers(min_value=0, max_value=10_000),
)
def test_corridor_cells_equivalent(name, seed, fault_seed):
    cell = InvariantCell(
        name, seed, fault_seed=fault_seed, check_determinism=False
    )
    _assert_equivalent([CellSpec(kind="invariant", index=0, cell=cell)])


@_SETTINGS
@given(
    generator_seed=st.integers(min_value=0, max_value=1_000),
    index=st.integers(min_value=0, max_value=63),
)
def test_procgen_cells_equivalent(generator_seed, index):
    cell = ProcGenCell(
        DEFAULT_SPACE, generator_seed, index, check_determinism=False
    )
    _assert_equivalent([CellSpec(kind="procgen", index=index, cell=cell)])


@settings(max_examples=3, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    coords=st.lists(
        st.tuples(
            st.sampled_from(sorted(corridor_names())),
            st.integers(min_value=0, max_value=100),
        ),
        min_size=2,
        max_size=4,
        unique=True,
    )
)
def test_heterogeneous_batches_equivalent(coords):
    """Drives of different scenes in ONE lockstep batch stay identical."""
    _assert_equivalent(
        [
            CellSpec(
                kind="invariant",
                index=i,
                cell=InvariantCell(name, seed, check_determinism=False),
            )
            for i, (name, seed) in enumerate(coords)
        ]
    )
