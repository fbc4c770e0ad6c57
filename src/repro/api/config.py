"""Declarative whole-model quantization configuration.

The paper quantizes *networks*, not layers: one bit-width policy covers
a Transformer encoder stack, with exceptions where accuracy demands
them (e.g. more bits on the feed-forward blocks).  :class:`QuantConfig`
expresses exactly that -- global defaults for every
:class:`~repro.engine.base.QuantSpec` field plus glob-keyed per-layer
overrides -- and replaces the per-layer constructor kwarg soup as the
single input to :func:`repro.api.quantize`.

Pattern semantics
-----------------
Override keys are :mod:`fnmatch`-style globs matched against a layer's
dotted path (``"L0.attn.q"``, ``"L2.ffn.ff1"``, ...) *or any dotted
suffix of it*, so ``"ffn.*"`` selects every feed-forward projection of
every layer without knowing the stack depth.  Overrides apply in
declaration order; when several patterns match one layer, later
declarations win field-by-field.

>>> cfg = QuantConfig(bits=3, overrides={"ffn.*": {"bits": 4}})
>>> cfg.spec_for("L0.attn.q").bits
3
>>> cfg.spec_for("L0.ffn.ff1").bits
4
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from fnmatch import fnmatchcase
from typing import Any, Mapping

from repro.engine import QuantSpec, validate_spec
from repro.engine.registry import current_backend

__all__ = ["QuantConfig", "SPEC_FIELDS", "upgrade_legacy_spec"]

SPEC_FIELDS: tuple[str, ...] = tuple(
    f.name for f in fields(QuantSpec)
)
"""The per-layer knobs a config (and its overrides) can set."""

# Spec fields that saved artifacts may still carry but QuantSpec no
# longer has.  ``a_bits`` configured the removed ``xnor`` engine, and
# ``planner`` chose between the cost model and the removed host
# micro-benchmark ranking; v3 artifacts saved before their removal
# record them in the config and in each layer spec.
_LEGACY_SPEC_FIELDS = frozenset({"a_bits", "planner"})


def upgrade_legacy_spec(data: Mapping[str, Any]) -> dict[str, Any]:
    """*data* in today's spec vocabulary.

    The one compatibility rule for loading saved configs and layer
    specs: a legacy key is ignored, a legacy backend name maps to its
    current one (:func:`repro.engine.registry.current_backend`), and
    any other unknown key still fails in the caller's validation.
    """
    out = {k: v for k, v in data.items() if k not in _LEGACY_SPEC_FIELDS}
    if isinstance(out.get("backend"), str):
        out["backend"] = current_backend(out["backend"])
    return out


def _check_override_table(
    overrides: Mapping[str, Mapping[str, Any]]
) -> dict[str, dict[str, Any]]:
    if not isinstance(overrides, Mapping):
        raise TypeError(
            f"overrides must be a mapping of glob -> field dict, got "
            f"{type(overrides).__name__}"
        )
    out: dict[str, dict[str, Any]] = {}
    for pattern, table in overrides.items():
        if not isinstance(pattern, str) or not pattern:
            raise ValueError(
                f"override pattern must be a non-empty string, got "
                f"{pattern!r}"
            )
        if not isinstance(table, Mapping):
            raise TypeError(
                f"override for {pattern!r} must be a mapping, got "
                f"{type(table).__name__}"
            )
        unknown = sorted(set(table) - set(SPEC_FIELDS))
        if unknown:
            raise ValueError(
                f"override {pattern!r} sets unknown field(s) {unknown}; "
                f"expected a subset of {sorted(SPEC_FIELDS)}"
            )
        out[pattern] = dict(table)
    return out


def _pattern_matches(pattern: str, name: str) -> bool:
    """Glob match against the full dotted path or any dotted suffix."""
    if fnmatchcase(name, pattern):
        return True
    parts = name.split(".")
    return any(
        fnmatchcase(".".join(parts[i:]), pattern)
        for i in range(1, len(parts))
    )


@dataclass
class QuantConfig:
    """One declarative config for quantizing a whole model.

    The leading fields mirror :class:`~repro.engine.base.QuantSpec`
    and set the model-wide defaults; ``overrides`` maps glob patterns to
    partial field dicts applied per layer name (see the module docstring
    for the matching rules).  Mixed bit-width models are one override
    away:

    >>> QuantConfig(bits=3, overrides={"ffn.*": {"bits": 4}})  # doctest: +ELLIPSIS
    QuantConfig(bits=3, ...)

    Every layer spec the config can produce is validated eagerly at
    construction, so a typo'd backend or machine name fails here rather
    than mid-quantization.
    """

    bits: int = 3
    mu: int = 8
    method: str = "greedy"
    backend: str = "auto"
    machine: str = "pc"
    batch_hint: int | None = None
    fuse: str | None = None
    overrides: dict[str, dict[str, Any]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.overrides = _check_override_table(self.overrides)
        validate_spec(self.base_spec())
        for pattern, table in self.overrides.items():
            try:
                validate_spec(replace(self.base_spec(), **table))
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"override {pattern!r} produces an invalid spec: {exc}"
                ) from exc

    # ------------------------------------------------------------------
    # spec resolution
    # ------------------------------------------------------------------
    def base_spec(self) -> QuantSpec:
        """The default :class:`QuantSpec` (no overrides applied)."""
        return QuantSpec(
            bits=self.bits,
            mu=self.mu,
            method=self.method,
            backend=self.backend,
            machine=self.machine,
            batch_hint=self.batch_hint,
            fuse=self.fuse,
        )

    def matching_patterns(self, name: str) -> tuple[str, ...]:
        """The override patterns selecting layer *name*, in order."""
        return tuple(
            p for p in self.overrides if _pattern_matches(p, name)
        )

    def spec_for(self, name: str) -> QuantSpec:
        """Resolve the :class:`QuantSpec` for the layer at dotted path
        *name*, applying every matching override in declaration order."""
        spec = self.base_spec()
        merged: dict[str, Any] = {}
        for pattern in self.matching_patterns(name):
            merged.update(self.overrides[pattern])
        return replace(spec, **merged) if merged else spec

    # ------------------------------------------------------------------
    # construction / conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(
        cls,
        spec: QuantSpec,
        *,
        overrides: Mapping[str, Mapping[str, Any]] | None = None,
    ) -> "QuantConfig":
        """Lift a single layer spec into a model-wide config."""
        if not isinstance(spec, QuantSpec):
            raise TypeError(
                f"spec must be a QuantSpec, got {type(spec).__name__}"
            )
        kw = {name: getattr(spec, name) for name in SPEC_FIELDS}
        return cls(overrides=dict(overrides or {}), **kw)

    def replace(self, **changes: Any) -> "QuantConfig":
        """A copy with *changes* applied (dataclasses.replace semantics)."""
        return replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        """A JSON-able dict (the form embedded in v3 model artifacts)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "QuantConfig":
        """Inverse of :meth:`to_dict`; rejects unknown keys (legacy
        spec fields and backend names, at top level and in overrides,
        are upgraded by :func:`upgrade_legacy_spec`)."""
        if not isinstance(data, Mapping):
            raise TypeError(
                f"config data must be a mapping, got {type(data).__name__}"
            )
        data = upgrade_legacy_spec(data)
        if isinstance(data.get("overrides"), Mapping):
            data["overrides"] = {
                pattern: upgrade_legacy_spec(table)
                if isinstance(table, Mapping) else table
                for pattern, table in data["overrides"].items()
            }
        known = set(SPEC_FIELDS) | {"overrides"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown QuantConfig field(s) {unknown}; expected a "
                f"subset of {sorted(known)}"
            )
        return cls(**data)
