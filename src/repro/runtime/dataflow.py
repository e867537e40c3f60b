"""The on-vehicle software dataflow graph (paper Fig. 5, Sec. IV).

Encodes the paper's task structure and its task-level parallelism (TLP):

* sensing -> perception -> planning are serialized (all on the critical
  path);
* within perception, localization and scene understanding are independent;
* within scene understanding, depth estimation is independent of the
  detection -> tracking chain, which is serialized.

Each task carries a latency distribution; the graph computes critical
paths, stage latencies, and end-to-end samples — the machinery behind the
Fig. 10 characterization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..core import calibration


@dataclass(frozen=True)
class LatencyDistribution:
    """A shifted-lognormal latency model: ``best + LogNormal(mu, sigma)``.

    The shift is the best case; the lognormal excess produces the long
    tail the paper observes ("the mean latency (164 ms) is close to the
    best-case latency (149 ms), but a long tail exists").  A zero
    ``excess_mean_s`` makes the task deterministic.
    """

    best_s: float
    excess_mean_s: float = 0.0
    sigma: float = 1.3

    def __post_init__(self) -> None:
        if self.best_s < 0 or self.excess_mean_s < 0 or self.sigma <= 0:
            raise ValueError("latency parameters must be non-negative")

    @property
    def mean_s(self) -> float:
        return self.best_s + self.excess_mean_s

    @property
    def _mu(self) -> float:
        # mean of LogNormal(mu, sigma) = exp(mu + sigma^2/2)
        return math.log(max(self.excess_mean_s, 1e-12)) - self.sigma ** 2 / 2.0

    def sample(self, rng: np.random.Generator) -> float:
        if self.excess_mean_s == 0.0:
            return self.best_s
        return self.best_s + float(rng.lognormal(self._mu, self.sigma))

    def percentile(self, q: float) -> float:
        """Analytical percentile (q in [0, 100])."""
        if not 0 <= q <= 100:
            raise ValueError("q must be in [0, 100]")
        if self.excess_mean_s == 0.0:
            return self.best_s
        from scipy.stats import norm

        z = norm.ppf(q / 100.0)
        return self.best_s + math.exp(self._mu + self.sigma * z)


@dataclass(frozen=True)
class Task:
    """One node of the dataflow graph."""

    name: str
    stage: str  # "sensing" | "perception" | "planning"
    latency: LatencyDistribution


class SovDataflow:
    """The Fig. 5 task graph with latency semantics."""

    STAGES = ("sensing", "perception", "planning")

    def __init__(self, tasks: Sequence[Task], edges: Sequence[Tuple[str, str]]):
        self._tasks: Dict[str, Task] = {}
        #: name -> successors in edge order (a repeated edge keeps its
        #: first place); ``predecessors`` likewise.
        self._successors: Dict[str, Dict[str, None]] = {}
        predecessors: Dict[str, Dict[str, None]] = {}
        for task in tasks:
            if task.name in self._tasks:
                raise ValueError(f"duplicate task {task.name!r}")
            if task.stage not in self.STAGES:
                raise ValueError(f"unknown stage {task.stage!r}")
            self._tasks[task.name] = task
            self._successors[task.name] = {}
            predecessors[task.name] = {}
        for u, v in edges:
            if u not in self._tasks or v not in self._tasks:
                raise KeyError(f"edge ({u!r}, {v!r}) references unknown task")
            self._successors[u][v] = None
            predecessors[v][u] = None
        # The graph never mutates after construction, so the traversal
        # structure every per-tick query re-derives (topological order,
        # predecessor lists, per-stage orders) is hoisted here, in the
        # enumeration order networkx gave, so order-dependent tie-breaks
        # (first-max predecessor in critical_path) are bit-identical.
        self._topo = _topological_order(self._successors)
        self._preds: Dict[str, Tuple[str, ...]] = {
            node: tuple(predecessors[node]) for node in self._topo
        }
        self._stage_topo: Dict[str, Tuple[str, ...]] = {}
        self._stage_preds: Dict[str, Dict[str, Tuple[str, ...]]] = {}
        for stage in self.STAGES:
            members = [n for n, t in self._tasks.items() if t.stage == stage]
            order = _topological_order(
                {
                    n: [v for v in self._successors[n] if v in members]
                    for n in members
                }
            )
            self._stage_topo[stage] = order
            self._stage_preds[stage] = {
                node: tuple(p for p in predecessors[node] if p in members)
                for node in order
            }

    @property
    def task_names(self) -> List[str]:
        return list(self._tasks)

    def task(self, name: str) -> Task:
        return self._tasks[name]

    def dependencies(self, name: str) -> List[str]:
        return list(self._preds[name])

    def independent_pairs(self) -> List[Tuple[str, str]]:
        """Task pairs with no path between them — the exploitable TLP."""
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(self._tasks)
        graph.add_edges_from(
            (u, v) for u, children in self._successors.items() for v in children
        )
        pairs = []
        names = self.task_names
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                if not nx.has_path(graph, a, b) and not nx.has_path(graph, b, a):
                    pairs.append((a, b))
        return pairs

    def critical_path(
        self, latencies: Optional[Mapping[str, float]] = None
    ) -> Tuple[List[str], float]:
        """Longest path by task latency (mean latency by default)."""
        weights = latencies or {
            name: task.latency.mean_s for name, task in self._tasks.items()
        }
        finish: Dict[str, float] = {}
        parent: Dict[str, Optional[str]] = {}
        for node in self._topo:
            preds = self._preds[node]
            if preds:
                best_pred = max(preds, key=lambda p: finish[p])
                start = finish[best_pred]
                parent[node] = best_pred
            else:
                start = 0.0
                parent[node] = None
            finish[node] = start + weights[node]
        end = max(finish, key=lambda n: finish[n])
        path = [end]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        return list(reversed(path)), finish[end]

    def iteration_schedule(
        self, latencies: Mapping[str, float]
    ) -> Dict[str, Tuple[float, float]]:
        """ASAP schedule: each task's ``(start, finish)`` offset within one
        iteration, honouring the dependency edges.

        This is the per-task timeline the tracer exports as Perfetto
        spans; ``max(finish)`` equals :meth:`critical_path`'s total for
        the same latencies.
        """
        finish: Dict[str, float] = {}
        schedule: Dict[str, Tuple[float, float]] = {}
        for node in self._topo:
            start = max(
                (finish[p] for p in self._preds[node]),
                default=0.0,
            )
            finish[node] = start + latencies[node]
            schedule[node] = (start, finish[node])
        return schedule

    def sample_iteration(
        self,
        rng: np.random.Generator,
        skip: Optional[AbstractSet[str]] = None,
    ) -> Tuple[Dict[str, float], float]:
        """Sample one pipeline iteration; returns (per-task, end-to-end).

        *skip* names tasks shed by a load-shedding policy this iteration
        (fault-aware scheduling): their latency is zeroed after sampling.
        Every task is sampled regardless, so the RNG stream — and thus
        the latencies of the tasks that *do* run — is identical whether
        or not anything is shed; shedding can only shorten an iteration.
        """
        latencies = {
            name: task.latency.sample(rng) for name, task in self._tasks.items()
        }
        if skip:
            unknown = set(skip) - set(self._tasks)
            if unknown:
                raise KeyError(f"cannot shed unknown tasks {sorted(unknown)}")
            for name in skip:
                latencies[name] = 0.0
        _path, total = self.critical_path(latencies)
        return latencies, total

    def stage_latency(
        self, stage: str, latencies: Mapping[str, float]
    ) -> float:
        """Critical-path latency *within* one stage."""
        order = self._stage_topo.get(stage)
        if not order:
            return 0.0
        preds = self._stage_preds[stage]
        finish: Dict[str, float] = {}
        for node in order:
            start = max((finish[p] for p in preds[node]), default=0.0)
            finish[node] = start + latencies[node]
        return max(finish.values())


def _topological_order(
    successors: Mapping[str, Sequence[str]]
) -> Tuple[str, ...]:
    """networkx's ``topological_sort`` order of ``node -> successors``.

    Generation by generation: the first in node order, each later one in
    the order its members lost their last in-edge (parents in order,
    each parent's children in edge order).  Raises ``ValueError`` on a
    cycle.
    """
    indegree = dict.fromkeys(successors, 0)
    for children in successors.values():
        for child in children:
            indegree[child] += 1
    generation = [node for node, degree in indegree.items() if degree == 0]
    order: List[str] = []
    while generation:
        order.extend(generation)
        next_generation = []
        for node in generation:
            for child in successors[node]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    next_generation.append(child)
        generation = next_generation
    if len(order) != len(indegree):
        raise ValueError("dataflow graph must be acyclic")
    return tuple(order)


def paper_dataflow() -> SovDataflow:
    """The deployed vehicle's dataflow with calibrated latencies.

    Task latencies reflect the FPGA-offloaded configuration (Sec. V-B2):
    localization on the FPGA (24 ms median), scene understanding on the
    GPU (depth 35 ms; detection 70 ms -> tracking 7 ms), sensing 74 ms
    best-case with the dominant share of the tail, planning 3 ms.
    """
    fig10b = calibration.FIG10B_TASK_LATENCIES_S
    tasks = [
        Task(
            "sensing",
            "sensing",
            LatencyDistribution(
                best_s=calibration.SENSING_BEST_LATENCY_S,
                excess_mean_s=calibration.SENSING_MEAN_LATENCY_S
                - calibration.SENSING_BEST_LATENCY_S,
            ),
        ),
        Task(
            "localization",
            "perception",
            LatencyDistribution(
                best_s=0.020,
                excess_mean_s=fig10b["localization"] - 0.020,
                sigma=1.1,
            ),
        ),
        Task(
            "depth",
            "perception",
            LatencyDistribution(best_s=0.030, excess_mean_s=fig10b["depth"] - 0.030),
        ),
        Task(
            "detection",
            "perception",
            LatencyDistribution(
                best_s=0.065, excess_mean_s=fig10b["detection"] - 0.065
            ),
        ),
        Task(
            "tracking",
            "perception",
            LatencyDistribution(
                best_s=0.006, excess_mean_s=fig10b["tracking"] - 0.006, sigma=0.8
            ),
        ),
        Task(
            "planning",
            "planning",
            LatencyDistribution(
                best_s=calibration.PLANNING_MEAN_LATENCY_S, excess_mean_s=0.0
            ),
        ),
    ]
    edges = [
        ("sensing", "localization"),
        ("sensing", "depth"),
        ("sensing", "detection"),
        ("detection", "tracking"),
        ("localization", "planning"),
        ("depth", "planning"),
        ("tracking", "planning"),
    ]
    return SovDataflow(tasks, edges)
