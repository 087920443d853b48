#!/usr/bin/env python3
"""Large-language-model inference on a dual-mode CIM chip.

The paper's headline use case: models such as LLaMA2-7B and OPT-13B do not
fit on the chip and spend most of their time moving data, so CMSwitch puts
a substantial share of the arrays in memory mode to hold activations and
the KV cache.  This example

* compiles a LLaMA2-7B transformer block for both the prefill and the
  decode phase,
* compares CMSwitch against the strongest fixed-mode baseline (CIM-MLC),
* integrates a full generation (prompt processing + token-by-token
  decoding) from the per-phase results,
* prints the compute/memory allocation the compiler chose per segment.

Run with ``python examples/llm_inference.py``.
"""

from repro.api import Session
from repro.core import CompilerOptions
from repro.experiments import generative_cycles
from repro.models import Phase, Workload

MODEL = "llama2-7b"
PROMPT_TOKENS = 128
GENERATED_TOKENS = 64
BATCH_SIZE = 1


def compile_phase(session, workload, label: str) -> None:
    """Compile one phase with CMSwitch and CIM-MLC and print the comparison."""
    cmswitch = session.compile(MODEL, workload)
    cim_mlc = session.compile(MODEL, workload, compiler="cim-mlc")
    speedup = cim_mlc.end_to_end_cycles / cmswitch.end_to_end_cycles
    print(f"--- {label} ---")
    print(f"  CMSwitch : {cmswitch.end_to_end_ms:8.3f} ms "
          f"({cmswitch.num_segments} segments/block, "
          f"{cmswitch.mean_memory_array_ratio * 100:.1f}% arrays in memory mode)")
    print(f"  CIM-MLC  : {cim_mlc.end_to_end_ms:8.3f} ms")
    print(f"  speedup  : {speedup:.2f}x")
    print("  per-segment allocation (first 6 segments):")
    for segment in cmswitch.segments[:6]:
        print(
            f"    seg {segment.index:2d}: compute={segment.compute_arrays:3d} "
            f"memory={segment.memory_arrays:3d}  ops={len(segment.operator_names)}"
        )
    print()


def main() -> None:
    # One session for every compile below, CMSwitch's and CIM-MLC's alike.
    session = Session("dynaplasia", options=CompilerOptions(generate_code=False))
    hardware = session.hardware
    print(f"target chip: {hardware.name} "
          f"({hardware.num_arrays} arrays of {hardware.array_rows}x{hardware.array_cols})")
    print()

    prefill = Workload(batch_size=BATCH_SIZE, seq_len=PROMPT_TOKENS, phase=Phase.PREFILL)
    decode = Workload(
        batch_size=BATCH_SIZE,
        seq_len=PROMPT_TOKENS,
        output_len=GENERATED_TOKENS,
        phase=Phase.DECODE,
    )
    compile_phase(session, prefill, f"prefill ({PROMPT_TOKENS} tokens)")
    compile_phase(session, decode, "decode (one token against the KV cache)")

    # Full generation: prefill once, then one decode step per new token.
    workload = Workload(
        batch_size=BATCH_SIZE, seq_len=PROMPT_TOKENS, output_len=GENERATED_TOKENS
    )
    cms = generative_cycles(MODEL, workload, hardware, "cmswitch", session)
    mlc = generative_cycles(MODEL, workload, hardware, "cim-mlc", session)
    print("--- full generation "
          f"({PROMPT_TOKENS} prompt + {GENERATED_TOKENS} generated tokens) ---")
    print(f"  CMSwitch : {hardware.cycles_to_ms(cms['cycles']):8.1f} ms")
    print(f"  CIM-MLC  : {hardware.cycles_to_ms(mlc['cycles']):8.1f} ms")
    print(f"  speedup  : {mlc['cycles'] / cms['cycles']:.2f}x")


if __name__ == "__main__":
    main()
