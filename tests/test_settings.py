"""Settings guard: every field of the drive and campaign configs, the
planner, the reactive path, the vehicle model and the two offline
executors is set by some caller.

A field that no caller outside its own module passes is a constant
that tests and benchmarks never vary; it belongs in the code as one.
Only ``init`` fields are settings: a field the constructor does not
take (``ReactivePath.triggers``) is state.  A class that is not a
dataclass has the parameters of its ``__init__`` as settings.
"""

import ast
import dataclasses
import inspect
import pathlib
from collections import defaultdict

import pytest

from repro.fleetops.supervisor import FleetConfig
from repro.planning.mpc import MpcPlanner
from repro.planning.reactive import ReactivePath
from repro.runtime.alp import AlpExecutor
from repro.runtime.scheduler import PipelinedExecutor
from repro.runtime.shedding import LoadShedPolicy
from repro.runtime.sov import SovConfig
from repro.triage.campaign import TriageCampaignConfig
from repro.vehicle.dynamics import BicycleModel

REPO = pathlib.Path(__file__).resolve().parent.parent
SCANNED = ("src", "examples", "benchmarks", "perfbench", "tests")
CONFIGS = (
    SovConfig,
    FleetConfig,
    LoadShedPolicy,
    TriageCampaignConfig,
    MpcPlanner,
    ReactivePath,
    BicycleModel,
    AlpExecutor,
    PipelinedExecutor,
)


def _settings(config) -> list:
    if not dataclasses.is_dataclass(config):
        parameters = inspect.signature(config.__init__).parameters
        return [name for name in parameters if name != "self"]
    return [f.name for f in dataclasses.fields(config) if f.init]


@pytest.fixture(scope="module")
def keywords_by_call():
    """Called name -> file -> keyword names passed to it there."""
    calls = defaultdict(lambda: defaultdict(set))
    for root in SCANNED:
        for path in sorted((REPO / root).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(
                    func, "attr", None
                )
                calls[name][path.resolve()].update(
                    kw.arg for kw in node.keywords if kw.arg is not None
                )
    return calls


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.__name__)
def test_every_field_is_passed_outside_its_module(config, keywords_by_call):
    home = pathlib.Path(inspect.getsourcefile(config)).resolve()
    passed = set()
    for path, keywords in keywords_by_call[config.__name__].items():
        if path != home:
            passed |= keywords
    unset = [name for name in _settings(config) if name not in passed]
    assert not unset, (
        f"no constructor call of {config.__name__} outside "
        f"{home.name} passes {unset}: make them constants"
    )


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.__name__)
def test_every_keyword_passed_is_a_field(config, keywords_by_call):
    # Examples and experiments that tier-1 does not run must not pass
    # a field that is gone.
    fields = set(_settings(config))
    unknown = {
        path.relative_to(REPO).as_posix(): sorted(keywords - fields)
        for path, keywords in keywords_by_call[config.__name__].items()
        if keywords - fields
    }
    assert not unknown, f"{config.__name__} has no such fields: {unknown}"
