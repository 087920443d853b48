"""Workload descriptions (batch size, sequence lengths, inference phase).

The paper evaluates every network under varying batch sizes and, for the
transformer models, input/output sequence lengths (Figs. 14, 16, 17).  A
:class:`Workload` captures these knobs; the model builders consume it when
constructing a graph so shapes, KV-cache sizes and arithmetic intensities
follow the requested scale.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Dict, Mapping, Optional


class Phase(Enum):
    """Inference phase of an autoregressive transformer.

    * ``PREFILL`` — the whole input prompt is processed at once
      (sequence-parallel attention; high arithmetic intensity).
    * ``DECODE`` — one token is generated per step, attending to the
      accumulated KV cache (GEMV-shaped products; low arithmetic intensity).
    * ``ENCODE`` — encoder-only models such as BERT (a single
      sequence-parallel pass, no KV cache growth).
    """

    PREFILL = "prefill"
    DECODE = "decode"
    ENCODE = "encode"


@dataclass(frozen=True)
class Workload:
    """Parameters describing one inference request.

    Attributes:
        batch_size: Number of sequences / images per inference.
        seq_len: Input (prompt) sequence length for transformer models.
        output_len: Number of generated tokens for decoder models.  Ignored
            by encoder-only and CNN models.
        phase: Which phase a transformer graph should describe.  CNN models
            ignore this field.
        kv_len: KV-cache length seen by a decode-phase graph.  ``None``
            means "use a representative value" (input length plus half the
            output length), which is what the experiment harness does when
            it integrates a full generation from a single decode-step graph.
        image_size: Input resolution for CNN models (ImageNet default 224).
    """

    batch_size: int = 1
    seq_len: int = 64
    output_len: int = 64
    phase: Phase = Phase.PREFILL
    kv_len: Optional[int] = None
    image_size: int = 224

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.seq_len <= 0:
            raise ValueError(f"seq_len must be positive, got {self.seq_len}")
        if self.output_len < 0:
            raise ValueError(f"output_len must be non-negative, got {self.output_len}")
        if self.image_size <= 0:
            raise ValueError(f"image_size must be positive, got {self.image_size}")
        if self.kv_len is not None and self.kv_len <= 0:
            raise ValueError(f"kv_len must be positive when given, got {self.kv_len}")

    @property
    def effective_kv_len(self) -> int:
        """KV-cache length used when building a decode-phase graph.

        A generation of ``output_len`` tokens sees KV lengths from
        ``seq_len`` to ``seq_len + output_len``; the midpoint is the
        representative length whose per-step cost, multiplied by
        ``output_len``, integrates the whole generation.
        """
        if self.kv_len is not None:
            return self.kv_len
        return self.seq_len + max(self.output_len, 1) // 2

    def prefill(self) -> "Workload":
        """This workload restricted to the prefill phase."""
        return replace(self, phase=Phase.PREFILL)

    def decode(self, kv_len: Optional[int] = None) -> "Workload":
        """This workload restricted to a decode step at ``kv_len``."""
        return replace(self, phase=Phase.DECODE, kv_len=kv_len)

    def encode(self) -> "Workload":
        """This workload restricted to an encoder pass."""
        return replace(self, phase=Phase.ENCODE)

    def describe(self) -> str:
        """Short human-readable description used in reports."""
        return (
            f"batch={self.batch_size} seq={self.seq_len} out={self.output_len} "
            f"phase={self.phase.value}"
        )


def workload_to_payload(workload: Workload) -> Dict:
    """Canonical JSON-compatible rendering of a workload.

    This is the one serialisation every persistence layer shares — DSE
    point keys and run directories (:mod:`repro.dse.space`) and the
    request-trace format (:mod:`repro.sim.traces`) — so a workload
    written by one subsystem always reads back identically in another.
    """
    return {
        "batch_size": workload.batch_size,
        "seq_len": workload.seq_len,
        "output_len": workload.output_len,
        "phase": workload.phase.value,
        "kv_len": workload.kv_len,
        "image_size": workload.image_size,
    }


def workload_from_payload(payload: Mapping) -> Workload:
    """Rebuild a workload from :func:`workload_to_payload` output.

    Raises:
        ValueError: Invalid field values (via ``Workload.__post_init__``)
            or an unknown phase name.
        KeyError: A required field is missing from the payload.
    """
    return Workload(
        batch_size=payload["batch_size"],
        seq_len=payload["seq_len"],
        output_len=payload["output_len"],
        phase=Phase(payload["phase"]),
        kv_len=payload.get("kv_len"),
        image_size=payload.get("image_size", 224),
    )
