"""Model registry for serving: load, budget, hot-swap, evict.

The deployment unit is the v3 whole-model artifact (compiled engine
state, never float weights -- :mod:`repro.api.artifact`); the store
turns a directory of those files into named, versioned, servable
:class:`~repro.api.CompiledModel` handles:

- :meth:`ModelStore.load` reads an artifact by path and registers it
  under a name (version auto-increments; pass one to pin it);
  re-loading an existing name **hot-swaps** atomically -- readers keep
  the old compiled model until they re-``get`` it;
- a byte budget (compiled key/scale bytes, the artifact's deployment
  footprint) is enforced by LRU eviction: least-recently-``get``
  models leave first, the newest arrival never evicts itself;
- :meth:`ModelStore.get` is the serving hot path: one dict lookup and
  an LRU touch under the lock.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.api.model import CompiledModel, QuantModel
from repro.obs import runtime as _obs

__all__ = ["ModelNotFound", "ModelStore", "StoredModel"]


class ModelNotFound(KeyError):
    """No model is registered under the requested name."""


@dataclass
class StoredModel:
    """One registered model plus its bookkeeping."""

    name: str
    version: int
    compiled: CompiledModel
    nbytes: int
    source: str | None  # artifact path, None for in-process handles
    loaded_at: float
    last_used: float
    repro_version: str | None = None  # artifact producer, from manifest

    def describe(self) -> dict:
        """JSON-able metadata for ``/models``."""
        return {
            "name": self.name,
            "version": self.version,
            "weight_bytes": self.nbytes,
            "source": self.source,
            "repro_version": self.repro_version,
            "batch_hint": self.compiled.batch_hint,
            "layers": len(self.compiled.named_layers()),
            "backends": sorted(set(self.compiled.plans.values())),
        }


class ModelStore:
    """Named, versioned, LRU-budgeted collection of compiled models."""

    def __init__(
        self,
        budget_bytes: int | None = None,
        *,
        on_evict: Callable[[str], None] | None = None,
    ):
        if budget_bytes is not None and budget_bytes <= 0:
            raise ValueError(
                f"budget_bytes must be positive or None, got {budget_bytes}"
            )
        self.budget_bytes = budget_bytes
        # Called (outside the store lock) with each evicted name --
        # budget evictions and explicit evict() alike -- so a serving
        # layer can tear down the matching worker pool and actually
        # release the memory the budget is bounding.
        self.on_evict = on_evict
        self._lock = threading.Lock()
        self._models: dict[str, StoredModel] = {}
        self.evictions = 0

    # -- registration --------------------------------------------------
    def load(
        self,
        name: str,
        path: str | Path,
        *,
        version: int | None = None,
    ) -> StoredModel:
        """Read a v3 artifact from *path* and register it as *name*.

        Engines are warmed before the swap so the first request never
        pays compile latency.  Returns the new entry.
        """
        if _obs.TRACING:
            from repro.obs.trace import span

            with span("store.load", model=name, source=str(path)):
                compiled, manifest = _load_artifact(path)
                entry = self.add(
                    name, compiled, version=version, source=str(path)
                )
        else:
            compiled, manifest = _load_artifact(path)
            entry = self.add(name, compiled, version=version, source=str(path))
        entry.repro_version = manifest.get("repro_version")
        return entry

    def add(
        self,
        name: str,
        model: CompiledModel | QuantModel,
        *,
        version: int | None = None,
        source: str | None = None,
    ) -> StoredModel:
        """Register an in-process model (compiling a
        :class:`QuantModel` first).

        Re-using an existing *name* hot-swaps: the entry is replaced
        atomically with a bumped version, and in-flight users of the old
        compiled model finish on it undisturbed.
        """
        if not name:
            raise ValueError("model name must be non-empty")
        if isinstance(model, QuantModel):
            model = model.compile()
        if not isinstance(model, CompiledModel):
            raise TypeError(
                f"expected a CompiledModel or QuantModel, got "
                f"{type(model).__name__}"
            )
        model.warmup()
        from repro.resilience import faults as _faults

        if _faults.ACTIVE:
            # Between warmup and install: the window a concurrent
            # eviction or swap can race (exercised by the fault tests).
            _faults.fire("store.add.before_install")
        nbytes = int(model.weight_nbytes)
        now = time.monotonic()
        with self._lock:
            previous = self._models.get(name)
            if version is None:
                version = previous.version + 1 if previous else 1
            entry = StoredModel(
                name=name,
                version=int(version),
                compiled=model,
                nbytes=nbytes,
                source=source,
                loaded_at=now,
                last_used=now,
            )
            self._models[name] = entry
            evicted = self._enforce_budget(keep=name)
        self._notify_evicted(evicted)
        return entry

    def _enforce_budget(self, keep: str) -> list[str]:
        """LRU-evict (holding the lock) until within budget.

        The *keep* entry -- the one that just arrived -- is never
        evicted, even if it alone exceeds the budget: refusing the load
        would make a budgeted store unable to serve any large model.
        Returns the evicted names for post-lock notification.
        """
        evicted: list[str] = []
        if self.budget_bytes is None:
            return evicted
        while sum(e.nbytes for e in self._models.values()) > self.budget_bytes:
            victims = [n for n in self._models if n != keep]
            if not victims:
                return evicted
            oldest = min(victims, key=lambda n: self._models[n].last_used)
            del self._models[oldest]
            self.evictions += 1
            evicted.append(oldest)
        return evicted

    def _notify_evicted(self, names: list[str]) -> None:
        if self.on_evict is not None:
            for name in names:
                self.on_evict(name)

    # -- serving hot path ----------------------------------------------
    def get(self, name: str) -> CompiledModel:
        """The current compiled model for *name* (bumps LRU recency)."""
        return self.entry(name).compiled

    def entry(self, name: str) -> StoredModel:
        """The full store entry for *name* (bumps LRU recency)."""
        with self._lock:
            entry = self._models.get(name)
            if entry is None:
                raise ModelNotFound(
                    f"no model named {name!r}; registered: "
                    f"{sorted(self._models)}"
                )
            entry.last_used = time.monotonic()
            return entry

    # -- management ----------------------------------------------------
    def evict(self, name: str) -> None:
        """Drop *name* from the store (KeyError if absent)."""
        with self._lock:
            if name not in self._models:
                raise ModelNotFound(f"no model named {name!r}")
            del self._models[name]
        self._notify_evicted([name])

    def models(self) -> list[dict]:
        """Metadata for every registered model (for ``/models``)."""
        with self._lock:
            return [
                entry.describe()
                for _, entry in sorted(self._models.items())
            ]

    def total_bytes(self) -> int:
        """Deployed weight bytes currently resident."""
        with self._lock:
            return sum(e.nbytes for e in self._models.values())

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._models

    def collect_metrics(self, registry) -> None:
        """Pull collector: copy the store's own counts into *registry*
        (:meth:`repro.obs.metrics.MetricsRegistry.register_collector`)."""
        registry.gauge(
            "repro_store_models", "compiled models resident in the store"
        ).set(len(self))
        registry.gauge(
            "repro_store_resident_bytes",
            "compiled weight bytes resident in the store",
        ).set(self.total_bytes())
        registry.counter(
            "repro_store_evictions_total", "models evicted by the budget"
        ).set(self.evictions)

    def __len__(self) -> int:
        with self._lock:
            return len(self._models)


def _load_artifact(path: str | Path) -> tuple[CompiledModel, dict]:
    from repro.api.artifact import load_with_manifest

    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"model artifact {path} does not exist")
    return load_with_manifest(path)
