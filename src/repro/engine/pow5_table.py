"""Generate ``_pow5.h``, the power-of-five tables of the JSON formatter.

``_json.c`` prints each double with its shortest round-trip digits by
Ryu (Adams, "Ryu: fast float-to-string conversion", PLDI 2018), which
scales the binary significand by a 125-bit approximation of ``5^i`` or
``2^j / 5^i``.  This module computes both tables exactly with Python
integers::

    POW5[i]     = floor(5^i / 2^(bitlen(5^i) - 125))           i < 326
    POW5_INV[i] = floor(2^(bitlen(5^i) - 1 + 125) / 5^i) + 1   i < 342

each stored as two 64-bit words, low word first.  The header is
committed; ``tests/contracts/test_json_wire.py`` regenerates it and
compares byte for byte.  To rewrite it::

    PYTHONPATH=src python -m repro.engine.pow5_table
"""

from __future__ import annotations

from pathlib import Path

__all__ = ["HEADER", "render"]

HEADER = Path(__file__).with_name("_pow5.h")

BITS = 125
POW5_SIZE = 326
POW5_INV_SIZE = 342
_MASK64 = (1 << 64) - 1


def _pow5(i: int) -> int:
    p = 5**i
    shift = p.bit_length() - BITS
    return p >> shift if shift >= 0 else p << -shift


def _pow5_inv(i: int) -> int:
    p = 5**i
    return (1 << (p.bit_length() - 1 + BITS)) // p + 1


def _rows(name: str, values: list[int]) -> list[str]:
    lines = [f"static const uint64_t {name}[{len(values)}][2] = {{"]
    for value in values:
        lo, hi = value & _MASK64, value >> 64
        lines.append(f"  {{ {lo}u, {hi}u }},")
    lines.append("};")
    return lines


def render() -> str:
    """The text of ``_pow5.h``."""
    lines = [
        "/* Generated by repro/engine/pow5_table.py; do not edit. */",
        f"#define RYU_POW5_BITS {BITS}",
        f"#define RYU_POW5_INV_BITS {BITS}",
        *_rows("RYU_POW5", [_pow5(i) for i in range(POW5_SIZE)]),
        *_rows("RYU_POW5_INV", [_pow5_inv(i) for i in range(POW5_INV_SIZE)]),
    ]
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    HEADER.write_text(render())
