"""Model shapes from the paper's Section II-C and builders for them.

The paper sets its experimental matrix-size range from real NLP models:
Transformer base/big, BERT large, ALBERT xx-large (whose biggest matrix
is ``4K x 16K``, 256 MB in FP32) and the LAS ASR model (six bi-LSTM
encoder layers with ``2.5K x 5K`` weights, two ``1.2K x 1.2K`` decoder
layers).  ``MODEL_SHAPES`` records those dimensions;
:func:`model_gemm_shapes` expands a model into its per-layer GEMM
shapes for cost-model sweeps; :func:`model_backend_plan` runs the
dispatch planner over those shapes (which engine serves each layer at
a batch, on a machine); :func:`build_encoder` instantiates a runnable
random-weight encoder at (optionally scaled-down) size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import check_positive_int
from repro.engine import QuantSpec
from repro.nn.transformer import TransformerConfig, TransformerEncoder

__all__ = [
    "ModelShape",
    "MODEL_SHAPES",
    "model_backend_plan",
    "model_gemm_shapes",
    "build_encoder",
]


@dataclass(frozen=True)
class ModelShape:
    """Headline dimensions of one Section II-C model.

    ``attention_dim`` is the hidden size ``n`` (attention matrices are
    ``n x n``); ``ff_dim`` the feed-forward inner width; ``layers`` the
    encoder depth; ``extra_gemms`` lists any additional named weight
    shapes (e.g. ALBERT's giant embedding-factorized matrix, LAS LSTM
    gates).
    """

    name: str
    attention_dim: int
    ff_dim: int
    layers: int
    heads: int
    extra_gemms: tuple[tuple[str, int, int], ...] = ()


MODEL_SHAPES: dict[str, ModelShape] = {
    "transformer-base": ModelShape(
        name="Transformer base", attention_dim=512, ff_dim=2048, layers=6, heads=8
    ),
    "transformer-big": ModelShape(
        name="Transformer big", attention_dim=1024, ff_dim=4096, layers=6, heads=16
    ),
    "bert-large": ModelShape(
        name="BERT large", attention_dim=1024, ff_dim=4096, layers=24, heads=16
    ),
    "albert-xxlarge": ModelShape(
        name="ALBERT xx-large",
        attention_dim=4096,
        ff_dim=16384,
        layers=12,
        heads=64,
        extra_gemms=(("ffn-biggest", 4096, 16384),),
    ),
    "las-asr": ModelShape(
        name="LAS (bi-LSTM ASR)",
        attention_dim=1280,
        ff_dim=1280,
        layers=6,
        heads=1,
        extra_gemms=(
            ("encoder-lstm-gates", 2560, 5120),  # the paper's 2.5K x 5K
            ("decoder-lstm-gates", 1280, 1280),  # the paper's 1.2K x 1.2K
        ),
    ),
}
"""Registry keyed by the short names the benches use."""


def model_gemm_shapes(key: str) -> list[tuple[str, int, int]]:
    """All weight-GEMM ``(name, m, n)`` shapes of one registered model.

    Attention blocks contribute four ``(d, d)`` projections per layer;
    feed-forward blocks contribute ``(ff, d)`` and ``(d, ff)``;
    ``extra_gemms`` are appended verbatim.  Names follow the dotted-path
    convention of :func:`repro.api.named_quant_layers`
    (``L0.attn.q``, ``L0.ffn.ff1``, ...), so one
    :class:`~repro.api.QuantConfig` override glob speaks to both this
    planner sweep and a real :func:`build_encoder` model.
    """
    try:
        shape = MODEL_SHAPES[key]
    except KeyError:
        raise ValueError(
            f"unknown model {key!r}; expected one of {sorted(MODEL_SHAPES)}"
        ) from None
    d, f = shape.attention_dim, shape.ff_dim
    out: list[tuple[str, int, int]] = []
    for layer in range(shape.layers):
        for proj in ("q", "k", "v", "o"):
            out.append((f"L{layer}.attn.{proj}", d, d))
        out.append((f"L{layer}.ffn.ff1", f, d))
        out.append((f"L{layer}.ffn.ff2", d, f))
    out.extend(shape.extra_gemms)
    return out


def model_backend_plan(
    key: str,
    *,
    batch: int = 1,
    spec: QuantSpec | None = None,
    config=None,
    machine: str | None = None,
) -> list[tuple[str, int, int, str]]:
    """Planner decisions for every weight GEMM of a registered model.

    Returns ``(layer_name, m, n, backend)`` rows -- the whole-model view
    of ``backend="auto"`` under :meth:`repro.api.QuantModel.compile`:
    at decode batch the attention projections all land on the BiQGEMM
    kernel (``biqgemm``), while large batches (or many-bit specs) push
    the big feed-forward shapes onto the dense path.

    Routes through the same :func:`repro.api.plan_layers` pass that
    :meth:`repro.api.QuantModel.compile` uses, so cost-model fixes and
    per-layer :class:`~repro.api.QuantConfig` overrides (pass *config*
    instead of *spec*) apply identically to sweeps and real models.
    """
    check_positive_int(batch, "batch")
    from repro.api.config import QuantConfig
    from repro.api.planner import plan_layers

    if config is not None and spec is not None:
        raise TypeError("pass either spec or config, not both")
    if config is None:
        config = QuantConfig.from_spec(spec or QuantSpec(backend="auto"))
    elif not isinstance(config, QuantConfig):
        raise TypeError(
            f"config must be a QuantConfig, got {type(config).__name__}"
        )
    plans = plan_layers(
        model_gemm_shapes(key), config, batch_hint=batch, machine=machine
    )
    return [(p.name, p.m, p.n, p.backend) for p in plans]


def build_encoder(
    key: str,
    *,
    layers: int | None = None,
    scale: int = 1,
    spec: QuantSpec | None = None,
    seed: int = 0,
) -> TransformerEncoder:
    """Instantiate a runnable random-weight encoder for a registered model.

    ``scale`` divides all widths (e.g. ``scale=8`` turns Transformer-big
    into a 128-wide miniature with identical topology) so full stacks
    stay tractable in pure Python; ``layers`` overrides the depth.
    Weights are seeded and Xavier-scaled.  ``spec`` accepts a
    :class:`~repro.nn.linear.QuantSpec` or a whole-model
    :class:`~repro.api.QuantConfig` (per-layer glob overrides applied
    by path -- the input :func:`repro.api.quantize` also takes).
    """
    check_positive_int(scale, "scale")
    shape = MODEL_SHAPES.get(key)
    if shape is None:
        raise ValueError(
            f"unknown model {key!r}; expected one of {sorted(MODEL_SHAPES)}"
        )
    dim = shape.attention_dim // scale
    ff = shape.ff_dim // scale
    heads = min(shape.heads, max(1, dim // 16))
    while dim % heads != 0:
        heads -= 1
    config = TransformerConfig(
        dim=dim,
        heads=heads,
        ff_dim=ff,
        layers=layers if layers is not None else shape.layers,
    )
    rng = np.random.default_rng(seed)
    return TransformerEncoder(config, rng, spec=spec)
