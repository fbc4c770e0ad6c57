"""The v3 whole-model artifact: one file that serves.

The paper ships compiled state, not float weights (footnote 3); PR 1
made that true per engine (v1/v2 formats in
:mod:`repro.core.serialize`).  This module scales it to whole models: a
single ``.npz`` holding a JSON **manifest** (the
:class:`~repro.api.QuantConfig`, the model structure, the per-layer
plans) plus each layer's engine payload through its registered
export/restore hooks -- so *any* registered backend round-trips, and a
separate serving process reconstructs a callable
:class:`~repro.api.CompiledModel` with byte-identical outputs.

Model structure is serialized through a small codec registry
(:func:`register_model_structure`): encoders, plain layer lists and the
MLP adapter ship built in, and new model kinds plug in without touching
the format.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from repro.api.config import SPEC_FIELDS, QuantConfig, upgrade_legacy_spec
from repro.api.model import CompiledModel, QuantMLP, QuantModel
from repro.api.planner import LayerPlan
from repro.core.serialize import load_model_artifact, save_model_artifact
from repro.engine import QuantSpec, engine_entry
from repro.engine.registry import current_backend
from repro.nn.linear import QuantLinear

__all__ = [
    "export_parts",
    "load",
    "load_from_parts",
    "load_with_manifest",
    "register_model_structure",
    "save",
]


# ----------------------------------------------------------------------
# structure codecs
# ----------------------------------------------------------------------
DescribeFn = Callable[[Any], "dict | None"]
RebuildFn = Callable[[Mapping[str, Any], Mapping[str, QuantLinear]], Any]


@dataclass(frozen=True)
class _StructureCodec:
    kind: str
    describe: DescribeFn
    rebuild: RebuildFn


_STRUCTURE_CODECS: dict[str, _StructureCodec] = {}


def register_model_structure(
    kind: str, describe: DescribeFn, rebuild: RebuildFn
) -> None:
    """Teach the artifact format a new model topology.

    *describe(model)* returns a JSON-able dict (without the ``kind``
    key) when it recognises *model*, else ``None``; *rebuild(desc,
    layers_by_path)* wires the restored layers back into a callable
    model.  Registered kinds are tried in registration order on save.
    """
    if kind in _STRUCTURE_CODECS:
        raise ValueError(f"model structure {kind!r} is already registered")
    _STRUCTURE_CODECS[kind] = _StructureCodec(kind, describe, rebuild)


def _describe_structure(model: Any) -> dict:
    for codec in _STRUCTURE_CODECS.values():
        desc = codec.describe(model)
        if desc is not None:
            return {"kind": codec.kind, **desc}
    raise TypeError(
        f"model structure {type(model).__name__} is not registered for "
        f"whole-model serialization; known kinds: "
        f"{sorted(_STRUCTURE_CODECS)} (extend via "
        "repro.api.register_model_structure)"
    )


def _rebuild_structure(
    desc: Mapping[str, Any], layers_by_path: Mapping[str, QuantLinear]
) -> Any:
    kind = desc.get("kind")
    codec = _STRUCTURE_CODECS.get(kind)
    if codec is None:
        raise ValueError(
            f"artifact names unknown model structure {kind!r}; known "
            f"kinds: {sorted(_STRUCTURE_CODECS)}"
        )
    return codec.rebuild(desc, layers_by_path)


# -- built-in codecs ---------------------------------------------------
def _describe_encoder(model: Any):
    from repro.nn.transformer import TransformerEncoder

    if not isinstance(model, TransformerEncoder):
        return None
    cfg = model.config
    return {
        "dim": cfg.dim,
        "heads": cfg.heads,
        "ff_dim": cfg.ff_dim,
        "layers": cfg.layers,
    }


class _ZeroRng:
    """rng stand-in for skeleton builds: no RNG work, cheap zero pages.

    The restored layers replace every skeleton weight immediately, so
    materializing Xavier-random float matrices at load time would waste
    exactly the memory the artifact exists to avoid.
    """

    @staticmethod
    def standard_normal(shape):
        return np.zeros(shape)


def _rebuild_encoder(desc, layers_by_path):
    from repro.api.model import _walk
    from repro.nn.transformer import TransformerConfig, TransformerEncoder

    skeleton = TransformerEncoder(
        TransformerConfig(
            dim=int(desc["dim"]),
            heads=int(desc["heads"]),
            ff_dim=int(desc["ff_dim"]),
            layers=int(desc["layers"]),
        ),
        _ZeroRng(),
        spec=None,
    )
    remaining = dict(layers_by_path)

    def visit(path: str, layer: Any):
        try:
            return remaining.pop(path)
        except KeyError:
            raise ValueError(
                f"artifact carries no payload for encoder layer {path!r}"
            ) from None

    _walk(skeleton, "", visit, set())
    if remaining:
        raise ValueError(
            f"artifact payloads {sorted(remaining)} match no layer of the "
            "declared encoder structure"
        )
    return skeleton


def _describe_layer_list(model: Any):
    if isinstance(model, list):
        return {"size": len(model)}
    return None


def _rebuild_layer_list(desc, layers_by_path):
    size = int(desc["size"])
    expected = [str(i) for i in range(size)]
    if sorted(layers_by_path) != sorted(expected):
        raise ValueError(
            f"layer-list artifact expects paths {expected}, got "
            f"{sorted(layers_by_path)}"
        )
    return [layers_by_path[p] for p in expected]


def _describe_mlp(model: Any):
    if isinstance(model, QuantMLP):
        return {"size": len(model.fc)}
    return None


def _rebuild_mlp(desc, layers_by_path):
    size = int(desc["size"])
    expected = [f"fc.{i}" for i in range(size)]
    if sorted(layers_by_path) != sorted(expected):
        raise ValueError(
            f"mlp artifact expects paths {expected}, got "
            f"{sorted(layers_by_path)}"
        )
    return QuantMLP([layers_by_path[p] for p in expected])


def _describe_decoder_lm(model: Any):
    # The gen subsystem is optional at save time: if its module was
    # never imported, the model cannot be a DecoderLM, and importing it
    # here just to find that out would be pure overhead.
    gen_model = sys.modules.get("repro.gen.model")
    if gen_model is None or not isinstance(model, gen_model.DecoderLM):
        return None
    if model.seed is None:
        raise ValueError(
            "this DecoderLM was built from an explicit rng; its float "
            "state (embedding table, head init) is not reproducible from "
            "a recorded seed, so it cannot ship as a whole-model "
            "artifact -- construct with seed= instead"
        )
    cfg = model.config
    return {
        "dim": cfg.dim,
        "heads": cfg.heads,
        "ff_dim": cfg.ff_dim,
        "layers": cfg.layers,
        "vocab_size": model.vocab_size,
        "seed": model.seed,
    }


def _rebuild_decoder_lm(desc, layers_by_path):
    from repro.api.model import _walk
    from repro.gen.model import DecoderLM
    from repro.nn.transformer import TransformerConfig

    # A real seeded rebuild (not _ZeroRng): the embedding table is part
    # of the model's float state and is *regenerated* bit-exactly from
    # the recorded seed -- the artifact ships engine payloads only.
    model = DecoderLM(
        TransformerConfig(
            dim=int(desc["dim"]),
            heads=int(desc["heads"]),
            ff_dim=int(desc["ff_dim"]),
            layers=int(desc["layers"]),
        ),
        int(desc["vocab_size"]),
        seed=int(desc["seed"]),
    )
    remaining = dict(layers_by_path)

    def visit(path: str, layer: Any):
        try:
            return remaining.pop(path)
        except KeyError:
            raise ValueError(
                f"artifact carries no payload for decoder layer {path!r}"
            ) from None

    _walk(model, "", visit, set())
    if remaining:
        raise ValueError(
            f"artifact payloads {sorted(remaining)} match no layer of the "
            "declared decoder structure"
        )
    return model


register_model_structure(
    "transformer_encoder", _describe_encoder, _rebuild_encoder
)
register_model_structure(
    "decoder_lm", _describe_decoder_lm, _rebuild_decoder_lm
)
register_model_structure("layer_list", _describe_layer_list, _rebuild_layer_list)
register_model_structure("mlp", _describe_mlp, _rebuild_mlp)


# ----------------------------------------------------------------------
# spec <-> json
# ----------------------------------------------------------------------
def _spec_to_dict(spec: QuantSpec) -> dict:
    return {name: getattr(spec, name) for name in SPEC_FIELDS}


def _spec_from_dict(data: Mapping[str, Any]) -> QuantSpec:
    data = upgrade_legacy_spec(data)
    unknown = sorted(set(data) - set(SPEC_FIELDS))
    if unknown:
        raise ValueError(
            f"corrupted model manifest: unknown spec field(s) {unknown}"
        )
    return QuantSpec(**data)


# ----------------------------------------------------------------------
# save / load
# ----------------------------------------------------------------------
def export_parts(
    model: "CompiledModel | QuantModel",
) -> tuple[dict, dict[str, np.ndarray]]:
    """Serialize *model* to its ``(manifest, arrays)`` parts in memory.

    The same content :func:`save` writes to disk, without the file: the
    JSON-able manifest plus each layer's engine payload arrays.  This
    is what multi-process serving packs into shared memory
    (:mod:`repro.serve.cluster`) so N worker processes map one copy of
    the compiled model; :func:`load_from_parts` is the inverse.
    """
    from repro import __version__

    if isinstance(model, QuantModel):
        model = model.compile()
    if not isinstance(model, CompiledModel):
        raise TypeError(
            f"save expects a CompiledModel or QuantModel, got "
            f"{type(model).__name__}"
        )
    model._check_active()  # a superseded handle must not ship stale plans
    structure = _describe_structure(model.model)
    arrays: dict[str, np.ndarray] = {}
    entries: list[dict] = []
    for i, ((layer_path, layer), plan) in enumerate(
        zip(model.named_layers(), model.layer_plans)
    ):
        backend = layer.spec.backend
        entry = engine_entry(backend)
        if entry.export is None:
            raise TypeError(
                f"backend {backend!r} (layer {layer_path!r}) does not "
                "support serialization"
            )
        engine = layer.engine_for(model.batch_hint)
        for key, value in entry.export(engine).items():
            arrays[f"layer{i}.{key}"] = np.asarray(value)
        if layer.bias is not None:
            arrays[f"layer{i}.__bias__"] = layer.bias
        entry_dict = {
            "index": i,
            "path": layer_path,
            "backend": backend,
            "m": layer.shape[0],
            "n": layer.shape[1],
            "planned_backend": plan.backend,
            "spec": _spec_to_dict(layer.spec),
            "has_bias": layer.bias is not None,
        }
        entries.append(entry_dict)
    manifest = {
        "repro_version": __version__,
        "config": model.config.to_dict(),
        "structure": structure,
        "batch_hint": model.batch_hint,
        "layers": entries,
    }
    return manifest, arrays


def save(model: "CompiledModel | QuantModel", path: str | Path) -> None:
    """Write *model* as a version-3 whole-model artifact.

    A :class:`~repro.api.QuantModel` is compiled first (at its config's
    batch hint).  Each layer ships its engine's registered export
    payload -- never float weights -- plus its bias and pinned spec, so
    :func:`load` reconstructs a servable model with byte-identical
    outputs in any process where the backends are registered.
    """
    manifest, arrays = export_parts(model)
    save_model_artifact(path, manifest=manifest, arrays=arrays)


def load(path: str | Path) -> CompiledModel:
    """Reconstruct a servable :class:`~repro.api.CompiledModel`.

    Inverse of :func:`save`: validates the manifest, restores each
    layer's engine through its backend's registry hook, rebuilds the
    declared model structure around them, and returns a compiled model
    whose plans are exactly the saved ones (no re-planning -- the
    artifact *is* the plan).  Restored layers serve their compiled
    backend; truncated or tampered files fail loudly.
    """
    return load_with_manifest(path)[0]


def load_with_manifest(path: str | Path) -> tuple[CompiledModel, dict]:
    """:func:`load` plus the raw JSON manifest it decoded.

    For callers that also want the artifact's provenance/metadata (the
    serving :class:`repro.serve.ModelStore`) without opening and
    validating the file a second time.
    """
    manifest, arrays = load_model_artifact(path)
    return load_from_parts(manifest, arrays)


def load_from_parts(
    manifest: dict, arrays: dict[str, np.ndarray]
) -> tuple[CompiledModel, dict]:
    """Rehydrate a model from already-decoded ``(manifest, arrays)``.

    Inverse of :func:`export_parts`; the file-less half of
    :func:`load_with_manifest`.  The arrays may be read-only views into
    a shared-memory segment -- engines must not mutate their restored
    payloads, and every backend's ``restore`` hook honours that.
    """
    config = QuantConfig.from_dict(manifest["config"])
    layers_by_path: dict[str, QuantLinear] = {}
    plans: list[LayerPlan] = []
    named: list[tuple[str, QuantLinear]] = []
    for i, entry_data in enumerate(manifest["layers"]):
        backend = current_backend(entry_data["backend"])
        entry = engine_entry(backend)
        if entry.restore is None:
            raise ValueError(
                f"backend {backend!r} does not support deserialization"
            )
        prefix = f"layer{i}."
        state = {
            name[len(prefix):]: value
            for name, value in arrays.items()
            if name.startswith(prefix)
        }
        bias = state.pop("__bias__", None)
        if not state:
            raise ValueError(
                f"corrupted model artifact: no payload for layer "
                f"{entry_data['path']!r}"
            )
        spec = _spec_from_dict(entry_data["spec"])
        try:
            engine = entry.restore(state)
        except KeyError as exc:
            raise ValueError(
                f"corrupted model artifact: layer {entry_data['path']!r} "
                f"payload is missing {exc}"
            ) from exc
        if tuple(engine.shape) != (int(entry_data["m"]), int(entry_data["n"])):
            raise ValueError(
                f"corrupted model artifact: layer {entry_data['path']!r} "
                f"payload has shape {tuple(engine.shape)}, manifest says "
                f"({entry_data['m']}, {entry_data['n']})"
            )
        # Artifacts written before the compiled engine ran one native
        # plan per dtype carry a per-layer "specialization" entry (its
        # resident batch traces); there is nothing left to prebuild.
        layer = QuantLinear.from_engine(engine, spec=spec, bias=bias)
        layers_by_path[entry_data["path"]] = layer
        named.append((entry_data["path"], layer))
        plans.append(
            LayerPlan(
                name=entry_data["path"],
                m=int(entry_data["m"]),
                n=int(entry_data["n"]),
                backend=current_backend(
                    entry_data.get("planned_backend", backend)
                ),
                spec=spec,
            )
        )
    model = _rebuild_structure(manifest["structure"], layers_by_path)
    qm = QuantModel(model, config, named)
    return CompiledModel(qm, plans, int(manifest["batch_hint"])), manifest
