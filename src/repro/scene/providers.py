"""Named scene-provider registry: one namespace for every scene source.

PR 4 taught the chaos campaign to drive named corridor scenarios via
``ChaosConfig(corridor="slalom")``; the procedural generator
(:mod:`repro.scene.procgen`) is a second scene source, and hard-coding a
second keyword would mean per-suite plumbing in every consumer (chaos,
the invariant harness, the fleet cell grid).  Instead, scene sources
register here as **providers** and every consumer resolves scenes
through one qualified namespace:

* ``"slalom"`` — a bare name resolves through the default ``corridor``
  provider, so every pre-existing spelling keeps working;
* ``"corridor:slalom"`` — the same scene, fully qualified;
* ``"procgen:crossroads"`` — a procedurally generated 4-way-intersection
  scene, sampled bit-identically from the seed the consumer passes.

A provider is three things: a name, a scene listing, and a seeded
builder ``(scene, seed) -> scenario``.  Builders must be pure per
``(scene, seed)`` — the chaos campaign regenerates the scene for every
drive seed and the invariant harness replays cells from the same pair,
so a provider that draws hidden state breaks bit-identical replay.

Scenarios returned by providers duck-type
:class:`repro.scene.corridors.CorridorScenario`: consumers hand them to
:func:`repro.scene.corridors.make_corridor_sov`, which only needs the
world / lane-map / start-state / duration / fault-schedule fields.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

#: Bare (unqualified) scene names resolve through this provider.
DEFAULT_PROVIDER = "corridor"


@dataclass(frozen=True)
class SceneProvider:
    """One registered scene source."""

    name: str
    #: Unqualified scene names this provider can build, callable so lazy
    #: registries (decorator-populated) list their final contents.
    list_scenes: Callable[[], List[str]]
    #: Seeded builder: ``build(scene, seed)`` -> scenario (pure per pair).
    build: Callable[[str, int], object]

    def __post_init__(self) -> None:
        if not self.name or ":" in self.name:
            raise ValueError(
                f"provider name {self.name!r} must be non-empty and free "
                "of ':' (it is the namespace separator)"
            )


_PROVIDERS: Dict[str, SceneProvider] = {}


def register_scene_provider(provider: SceneProvider) -> SceneProvider:
    """Register *provider*; duplicate names are a wiring bug."""
    if provider.name in _PROVIDERS:
        raise ValueError(f"duplicate scene provider {provider.name!r}")
    _PROVIDERS[provider.name] = provider
    return provider


#: The module whose import registers each built-in provider.
_BUILTIN_MODULES = {"corridor": "corridors", "procgen": "procgen"}


def _ensure_builtins(*providers: str) -> None:
    """Register the built-in providers named in *providers*, or all of
    them when none is named, by importing their modules.

    Both modules import this one, so the import happens here (function
    scope) rather than at module top to avoid a cycle.
    """
    for name in providers or _BUILTIN_MODULES:
        module = _BUILTIN_MODULES.get(name)
        if module is not None:
            importlib.import_module(f".{module}", __package__)


def split_scene_spec(spec: str) -> Tuple[str, str]:
    """``"procgen:straight"`` -> ``("procgen", "straight")``; bare names
    map to the default corridor provider."""
    if ":" in spec:
        provider, scene = spec.split(":", 1)
        return provider, scene
    return DEFAULT_PROVIDER, spec


def provider_names() -> List[str]:
    """All registered provider names, sorted."""
    _ensure_builtins()
    return sorted(_PROVIDERS)


def scene_names() -> List[str]:
    """Every qualified scene id, sorted — the full campaign vocabulary."""
    _ensure_builtins()
    return sorted(
        f"{provider.name}:{scene}"
        for provider in _PROVIDERS.values()
        for scene in provider.list_scenes()
    )


def is_known_scene(spec: str) -> bool:
    """Whether *spec* (bare or qualified) resolves to a buildable scene."""
    provider_name, scene = split_scene_spec(spec)
    _ensure_builtins(provider_name)
    provider = _PROVIDERS.get(provider_name)
    return provider is not None and scene in provider.list_scenes()


def resolve_scene(spec: str, seed: int = 0):
    """Build the scenario *spec* names at *seed* (same pair -> same scene)."""
    provider_name, scene = split_scene_spec(spec)
    _ensure_builtins(provider_name)
    try:
        provider = _PROVIDERS[provider_name]
    except KeyError:
        raise KeyError(
            f"unknown scene provider {provider_name!r} in {spec!r}; "
            f"known providers: {provider_names()}"
        ) from None
    if scene not in provider.list_scenes():
        raise KeyError(
            f"provider {provider_name!r} has no scene {scene!r}; "
            f"known: {sorted(provider.list_scenes())}"
        )
    return provider.build(scene, seed)
