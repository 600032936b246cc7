"""Shared scene builders and the output fingerprint check for the test suite.

Everything here is deterministic: random draws always come from a
freshly seeded generator so repeated runs see identical inputs.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from lanegame.costs import CostGains, KinematicState, LaneView, NeighborView
from lanegame.road import LaneSpec, RoadGeometry


FINGERPRINTS = Path(__file__).with_name("fingerprints.json")


def check_fingerprints(outputs: dict[str, dict[str, bytes]]) -> None:
    """Assert that each output, `outputs[kind][name]`, has the sha256 that
    `fingerprints.json` records for it. The digests hold for the NumPy
    version recorded there; on any other the check fails and names both.
    A mismatch prints every digest computed, in the manifest's layout, for
    a declared output change to record."""
    got = {kind: {name: hashlib.sha256(data).hexdigest()
                  for name, data in by_name.items()}
           for kind, by_name in outputs.items()}
    want = json.loads(FINGERPRINTS.read_text())
    assert want["numpy"] == np.__version__, (
        f"fingerprints recorded under NumPy {want['numpy']}, "
        f"running NumPy {np.__version__}")
    recorded = {kind: {name: want.get(kind, {}).get(name) for name in digests}
                for kind, digests in got.items()}
    assert got == recorded, json.dumps(got, indent=1, sort_keys=True)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def gains():
    return CostGains()


@pytest.fixture
def two_lane_road():
    return RoadGeometry(kind="straight", length=500.0, lane_width=4.0,
                        lanes={1: LaneSpec(index=1), 2: LaneSpec(index=2)})


@pytest.fixture
def three_lane_arc():
    return RoadGeometry(kind="arc", radius=2000.0, length=600.0, lane_width=4.0,
                        lanes={1: LaneSpec(index=1), 2: LaneSpec(index=2),
                               3: LaneSpec(index=3)})


def make_neighbors(lanes=None, **kw) -> NeighborView:
    """Two open lanes by default; callers override per test."""
    if lanes is None:
        lanes = {1: LaneView(), 2: LaneView()}
    return NeighborView(lanes=lanes, **kw)


@pytest.fixture
def open_neighbors():
    return make_neighbors()


@pytest.fixture
def merge_neighbors():
    """Ego on lane 2 behind nothing, one opponent on lane 1."""
    return make_neighbors(lanes={
        1: LaneView(adjacent=KinematicState(s=0.0, v=15.0), adjacent_v_ref=15.0),
        2: LaneView(),
    })
