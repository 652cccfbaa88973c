"""The structure registry: string names to structure factories.

The paper's framework is *one* abstraction instantiated many ways —
sorted lists, quadtrees, tries, trapezoidal maps — plus the Table 1
baselines it is measured against.  The registry gives every deployable
structure a stable string name so that the :class:`repro.api.cluster
.Cluster` façade can construct any of them from configuration alone::

    Cluster(structure="skipweb1d", items=keys, seed=7)
    Cluster(structure="chord", items=keys)

Structures *self-register*: each instantiation package (``repro.onedim``,
``repro.spatial``, ``repro.strings``, ``repro.planar``) and the baselines
package call :func:`register_structure` at import time.  The registry
itself imports none of them at module level — :func:`ensure_builtin_
structures` pulls them in lazily the first time a name is resolved, so
``import repro.api`` stays cheap and cycle-free.

A :class:`StructureSpec` carries two factories with one common shape
(``factory(items, *, network=None, seed=0, **options)``): the ordinary
constructor and the ``build_from_sorted`` bulk-load path, plus capability
flags (``supports_range``, ``supports_updates``) the façade uses to
explain *why* an operation came back ``"unsupported"`` instead of
pretending every structure can do everything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import StructureError

#: Factory shape shared by ordinary and bulk-load construction.
StructureFactory = Callable[..., Any]


@dataclass(frozen=True)
class StructureSpec:
    """One registered structure family.

    Attributes
    ----------
    name:
        The registry key (``"skipweb1d"``, ``"chord"``, ...).
    cls:
        The structure class the factories produce, for ``isinstance``
        checks and registry-completeness tests.
    factory:
        ``factory(items, *, network=None, seed=0, **options)`` building a
        fresh structure.  Structure-specific options (``memory_size``,
        ``hosts``, ``alphabet``, ``bounding_cube``, ``box``, ...) pass
        through as keywords; irrelevant ones are rejected.
    bulk_factory:
        Same shape, mapping to the structure's ``build_from_sorted``
        bulk-load constructor (pre-sorted, deduplicated items; charges
        CONSTRUCTION ledger messages).
    supports_range:
        Whether ``range_steps`` can ever succeed (``False`` for
        hash-based overlays — the paper's §1.2 point about Chord).
    supports_updates:
        Whether ``insert_steps`` / ``delete_steps`` can ever succeed.
    durable:
        Whether this family round-trips through :mod:`repro.storage`
        snapshots and deterministic log replay (``Cluster(storage=...)``).
        ``True`` for every built-in family — their construction and
        operations are fully determined by the recorded seed and
        operation history; a future family drawing randomness outside
        the seeded streams should register ``False`` so the façade
        refuses to journal runs it could not replay byte-identically.
    description:
        One line for ``repro.cli --structures`` and the docs.
    """

    name: str
    cls: type
    factory: StructureFactory
    bulk_factory: StructureFactory | None = None
    supports_range: bool = True
    supports_updates: bool = True
    durable: bool = True
    description: str = ""
    extras: dict[str, Any] = field(default_factory=dict)


_REGISTRY: dict[str, StructureSpec] = {}

#: Packages whose import self-registers the built-in structures.
_BUILTIN_MODULES = (
    "repro.onedim",
    "repro.spatial",
    "repro.strings",
    "repro.planar",
    "repro.baselines",
)
_builtins_loaded = False


def register_structure(spec: StructureSpec) -> StructureSpec:
    """Add one structure family to the registry (idempotent per class).

    Re-registering the same name for the same class is a no-op (module
    reloads, test isolation); registering a different class under an
    existing name is an error — names are the public API surface.
    """
    existing = _REGISTRY.get(spec.name)
    if existing is not None and existing.cls.__qualname__ != spec.cls.__qualname__:
        raise StructureError(
            f"structure name {spec.name!r} is already registered "
            f"for {existing.cls.__name__}"
        )
    _REGISTRY[spec.name] = spec
    return spec


def ensure_builtin_structures() -> None:
    """Import every built-in structure package so it self-registers."""
    global _builtins_loaded
    if _builtins_loaded:
        return
    import importlib

    for module in _BUILTIN_MODULES:
        importlib.import_module(module)
    _builtins_loaded = True


def resolve_structure(name: str) -> StructureSpec:
    """Look a structure family up by name, loading built-ins on demand."""
    ensure_builtin_structures()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise StructureError(
            f"unknown structure {name!r}; registered structures: {known}"
        ) from None


def available_structures() -> list[str]:
    """Sorted names of every registered structure family."""
    ensure_builtin_structures()
    return sorted(_REGISTRY)


def structure_specs() -> dict[str, StructureSpec]:
    """A copy of the full registry (name -> spec)."""
    ensure_builtin_structures()
    return dict(_REGISTRY)
