"""Import guards: a drive loads only the modules it executes.

Every package ``__init__`` but ``repro.experiments`` exports its names
lazily (``repro._lazy``), and the drive path holds no module-level scipy
or networkx import.  The budget checks run in a fresh interpreter, so
modules other tests imported cannot hide a regression.  networkx is
imported here only as the reference the lane map and the dataflow graph
must enumerate like.
"""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys
import zlib

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.runtime.dataflow import LatencyDistribution, SovDataflow, Task
from repro.scene.cache import scene_fingerprint
from repro.scene.corridors import corridor_names, generate_corridor
from repro.scene.lanes import LaneMap, LaneSegment
from repro.scene.providers import resolve_scene

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
PACKAGES = sorted(
    ".".join(("repro",) + path.parent.relative_to(SRC).parts)
    for path in SRC.rglob("__init__.py")
)
#: Subpackages no drive, chaos cell or replay executes.
OFFLINE = (
    "cloud", "perception", "hw", "lidar", "sensors", "sync",
    "experiments", "triage",
)
REPRO_MODULE_BUDGET = 50

_DRIVE = """
from repro.fleetops.cells import CellSpec, ChaosCell, run_cell
from repro.robustness.chaos import ChaosConfig
from repro.runtime.batched import drive_batch
from repro.scene.corridors import generate_corridor, make_corridor_sov

config = ChaosConfig(n_drives=1, seed=0, corridor="slalom")
cell = ChaosCell(config=config, drive_index=0)
run_cell(CellSpec(kind="chaos", index=0, cell=cell))
sovs = [
    make_corridor_sov(generate_corridor(name))
    for name in ("slalom", "narrow_gap")
]
drive_batch(sovs, [1.0, 1.0])
"""


def _fresh_modules(code: str) -> list:
    """``sorted(sys.modules)`` after *code* runs in a new interpreter."""
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))",
        ],
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


class TestDrivePathImports:
    @pytest.fixture(scope="class")
    def modules(self):
        return _fresh_modules(_DRIVE)

    def test_no_scipy_or_networkx(self, modules):
        heavy = [
            m for m in modules if m.split(".")[0] in ("scipy", "networkx")
        ]
        assert not heavy, f"a drive imported {heavy[:10]}"

    def test_no_offline_subpackage(self, modules):
        offline = [
            m for m in modules
            if m.startswith("repro.") and m.split(".")[1] in OFFLINE
        ]
        assert not offline, f"a drive imported {offline}"

    def test_repro_module_budget(self, modules):
        loaded = [m for m in modules if m.split(".")[0] == "repro"]
        assert len(loaded) <= REPRO_MODULE_BUDGET, loaded

    def test_no_procgen(self, modules):
        # Corridor scenes resolve without the procedural generator.
        assert "repro.scene.procgen" not in modules

    def test_bare_import_loads_no_subpackage(self):
        modules = _fresh_modules("import repro")
        loaded = [m for m in modules if m.split(".")[0] == "repro"]
        assert loaded == ["repro", "repro._lazy"]


#: ``python -m repro.triage replay <id>``, run in this interpreter.
_TRIAGE_REPLAY = """
import runpy, sys
sys.argv = ["repro.triage", "replay", "chaos:drill-lane:0:0:raw"]
try:
    runpy.run_module("repro.triage", run_name="__main__", alter_sys=True)
except SystemExit as exit:
    assert exit.code == 0, exit.code
"""


def test_triage_replay_loads_no_campaign_code():
    modules = _fresh_modules(_TRIAGE_REPLAY)
    assert "repro.triage.replay" in modules
    unused = [
        f"repro.triage.{name}"
        for name in ("campaign", "corpus", "fingerprint", "flakes", "shrink")
    ]
    assert not [m for m in unused if m in modules]


def _lazy_table(package: str) -> dict:
    """The ``lazy_exports`` table literal of *package*'s ``__init__``."""
    path = SRC.joinpath(*package.split(".")[1:], "__init__.py")
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "lazy_exports"
        ):
            return ast.literal_eval(node.args[1])
    return {}


class TestLazyExports:
    def test_every_package_but_experiments_is_lazy(self):
        lazy = [p for p in PACKAGES if _lazy_table(p)]
        assert sorted(set(PACKAGES) - set(lazy)) == ["repro.experiments"]

    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_names_resolve_and_are_listed(self, package):
        module = importlib.import_module(package)
        listing = dir(module)
        for name in module.__all__:
            assert getattr(module, name) is not None
            assert name in listing, f"{package}.{name} missing from dir()"

    @pytest.mark.parametrize(
        "package", [p for p in PACKAGES if p != "repro.experiments"]
    )
    def test_names_are_their_submodules_objects(self, package):
        module = importlib.import_module(package)
        table = _lazy_table(package)
        exported = [name for names in table.values() for name in names]
        extra = ["__version__"] if package == "repro" else []
        assert list(module.__all__) == exported + extra
        for submodule, names in table.items():
            home = importlib.import_module(f"{package}.{submodule}")
            for name in names:
                expected = home if name == submodule else getattr(home, name)
                assert getattr(module, name) is expected, f"{package}.{name}"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_unknown_name_raises_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError):
            module.no_such_name
        assert not hasattr(module, "__no_such_dunder__")

    def test_submodule_attribute_imports_it(self):
        # In a fresh interpreter: here other tests may have imported it.
        modules = _fresh_modules(
            "import repro\nassert hasattr(repro.cloud, 'compression')"
        )
        assert "repro.cloud.compression" in modules

    def test_probe_package(self, tmp_path, monkeypatch):
        """A table name, a submodule outside the table, an unknown name,
        and a submodule whose own import fails."""
        package = tmp_path / "lazy_probe"
        package.mkdir()
        (package / "__init__.py").write_text(
            '"""Probe."""\n'
            "from repro._lazy import lazy_exports\n"
            "__getattr__, __dir__, __all__ = lazy_exports(\n"
            '    __name__, {"good": ("value",), "broken": ("thing",)}\n'
            ")\n"
        )
        (package / "good.py").write_text("value = object()\n")
        (package / "plain.py").write_text("")
        (package / "broken.py").write_text(
            "import no_such_dependency_anywhere\nthing = 1\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        try:
            probe = importlib.import_module("lazy_probe")
            assert probe.__all__ == ["value", "thing"]
            assert "value" in dir(probe) and "thing" in dir(probe)
            assert "good" not in sys.modules["lazy_probe"].__dict__
            assert probe.value is sys.modules["lazy_probe.good"].value
            assert probe.__dict__["value"] is probe.value
            assert probe.plain is sys.modules["lazy_probe.plain"]
            with pytest.raises(ModuleNotFoundError) as info:
                probe.thing
            assert info.value.name == "no_such_dependency_anywhere"
            with pytest.raises(AttributeError):
                probe.missing
        finally:
            for name in list(sys.modules):
                if name.split(".")[0] == "lazy_probe":
                    del sys.modules[name]


# -- the drive path's graphs enumerate as networkx did ---------------------

@st.composite
def _dags(draw):
    """A random DAG: names in a shuffled insertion order, edges (repeats
    included) in a random order, each going forward in a hidden rank."""
    n = draw(st.integers(min_value=1, max_value=9))
    rank = draw(st.permutations(range(n)))
    names = [f"t{i}" for i in draw(st.permutations(range(n)))]
    stages = draw(
        st.lists(st.sampled_from(SovDataflow.STAGES), min_size=n, max_size=n)
    )
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=3 * n,
        )
    )
    edges = [
        (names[a], names[b]) for a, b in pairs if rank[a] < rank[b]
    ]
    return names, stages, edges


def _flow(names, stages, edges) -> SovDataflow:
    latency = LatencyDistribution(best_s=0.01)
    return SovDataflow(
        [Task(name, stage, latency) for name, stage in zip(names, stages)],
        edges,
    )


def _digraph(nodes, edges) -> nx.DiGraph:
    graph = nx.DiGraph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(edges)
    return graph


@settings(max_examples=200, deadline=None)
@given(_dags())
def test_dataflow_order_matches_networkx(dag):
    names, stages, edges = dag
    flow = _flow(names, stages, edges)
    graph = _digraph(names, edges)
    assert flow._topo == tuple(nx.topological_sort(graph))
    for name in names:
        assert flow._preds[name] == tuple(graph.predecessors(name))
        assert flow.dependencies(name) == list(graph.predecessors(name))
    for stage in SovDataflow.STAGES:
        members = [n for n, s in zip(names, stages) if s == stage]
        sub = _digraph(
            members, [(u, v) for u, v in edges if u in members and v in members]
        )
        assert flow._stage_topo[stage] == tuple(nx.topological_sort(sub))
        for name in members:
            assert flow._stage_preds[stage][name] == tuple(
                sub.predecessors(name)
            )


@settings(max_examples=100, deadline=None)
@given(_dags(), st.data())
def test_dataflow_rejects_cycles(dag, data):
    names, stages, edges = dag
    back = data.draw(st.sampled_from(edges)) if edges else None
    cyclic = edges + [(back[1], back[0])] if back else [(names[0], names[0])]
    assert not nx.is_directed_acyclic_graph(_digraph(names, cyclic))
    with pytest.raises(ValueError):
        _flow(names, stages, cyclic)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(0, n - 1), st.integers(0, n - 1), st.booleans()
                ),
                max_size=12,
            ),
        )
    )
)
def test_lane_map_edges_match_networkx(case):
    n, connects = case
    lane_map, graph = LaneMap(), nx.DiGraph()
    for i in range(n):
        segment = LaneSegment(f"s{i}", ((0.0, 2.0 * i), (10.0, 2.0 * i)))
        lane_map.add_segment(segment)
        graph.add_node(segment.segment_id)
    for a, b, lane_change in connects:
        lane_map.connect(f"s{a}", f"s{b}", lane_change=lane_change)
        graph.add_edge(f"s{a}", f"s{b}", lane_change=lane_change)
    assert lane_map.edges() == [
        (u, v, bool(data.get("lane_change")))
        for u, v, data in graph.edges(data=True)
    ]
    for sid in lane_map.segment_ids:
        assert lane_map.lane_changes(sid) == [
            v
            for _u, v, data in graph.out_edges(sid, data=True)
            if data.get("lane_change")
        ]


#: ``zlib.crc32(repr(scene_fingerprint(lane_map)))`` as the networkx-backed
#: lane map gave it: the ten corridors at seed 0 and ``procgen:crossroads``.
FINGERPRINT_CRCS = {
    "cluttered_stop": 2246786439,
    "cluttered_stop_lossy_can": 2246786439,
    "narrow_gap": 1828963650,
    "narrow_gap_gps_denied": 1828963650,
    "occluded_crossing": 1355964621,
    "occluded_crossing_stalled": 1355964621,
    "oncoming_agent": 384825592,
    "pedestrian_platoon": 384825592,
    "slalom": 384825592,
    "slalom_flaky_camera": 384825592,
    "procgen:crossroads": 1212758669,
}


def _fingerprint_crc(lane_map: LaneMap) -> int:
    return zlib.crc32(repr(scene_fingerprint(lane_map)).encode())


def test_scene_fingerprints_unchanged():
    assert sorted(corridor_names()) == sorted(
        k for k in FINGERPRINT_CRCS if ":" not in k
    )
    crcs = {
        name: _fingerprint_crc(generate_corridor(name).lane_map)
        for name in corridor_names()
    }
    crcs["procgen:crossroads"] = _fingerprint_crc(
        resolve_scene("procgen:crossroads", 0).lane_map
    )
    assert crcs == FINGERPRINT_CRCS
