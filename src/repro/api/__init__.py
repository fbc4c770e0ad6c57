"""Model-level quantize -> compile -> serve API.

The paper's payoff is end to end: whole Transformer encoders and LSTMs
quantized with BCQ and served through the situationally-best kernel in
the small-batch regime.  This package is that pipeline as four verbs::

    from repro.api import QuantConfig, quantize, save, load
    from repro.nn import build_encoder

    cfg = QuantConfig(bits=3, overrides={"ffn.*": {"bits": 4}})
    served = quantize(build_encoder("transformer-base", scale=16), cfg)
    compiled = served.compile(batch_hint=1).warmup()
    save(compiled, "encoder.npz")          # ... later, in the server:
    compiled = load("encoder.npz")         # byte-identical outputs

- :class:`QuantConfig` -- one declarative config: global defaults plus
  glob-keyed per-layer overrides (mixed bit-width in one line);
- :func:`quantize` -- walk any :mod:`repro.nn` model (or layer list, or
  trained MLP) and quantize every projection under its per-layer spec;
- :meth:`QuantModel.compile` -- one planning pass over all layers
  through the :mod:`repro.engine.dispatch` planner, pinning each layer
  to its planned backend;
- :class:`CompiledModel` -- callable serving handle with ``warmup()``,
  ``cost_report()`` and ``save()``;
- :func:`save` / :func:`load` -- the v3 whole-model artifact (manifest
  + per-layer engine payloads; see :mod:`repro.api.artifact`).
"""

from repro.api.config import QuantConfig
from repro.api.model import (
    CompiledModel,
    QuantMLP,
    QuantModel,
    apply_config,
    named_quant_layers,
    quantize,
)
from repro.api.planner import (
    LayerPlan,
    ModelCostReport,
    cost_report,
    layer_cost,
    plan_layers,
)
from repro.api.artifact import load, register_model_structure, save

__all__ = [
    "CompiledModel",
    "LayerPlan",
    "ModelCostReport",
    "QuantConfig",
    "QuantMLP",
    "QuantModel",
    "apply_config",
    "cost_report",
    "layer_cost",
    "load",
    "named_quant_layers",
    "plan_layers",
    "quantize",
    "register_model_structure",
    "save",
]
