#!/usr/bin/env python3
"""Deploying CNN classifiers on a dual-mode CIM chip.

Convolutional networks sit at the other end of the arithmetic-intensity
spectrum from LLMs: most layers want as many compute-mode arrays as
possible, but the early layers with huge feature maps still benefit from a
handful of memory-mode arrays for input bandwidth (the Fig. 15(a) story).
This example

* compiles ResNet-18 and VGG-16 at ImageNet resolution,
* compares all four compilers (PUMA, OCC, CIM-MLC, CMSwitch),
* prints the layer-wise arithmetic intensity that explains the allocation
  choices (Fig. 6(a)),
* shows how the chosen compute/memory split changes along the network.

Run with ``python examples/cnn_deployment.py``.
"""

from repro.analysis import layerwise_intensity
from repro.api import Session
from repro.core import CompilerOptions
from repro.models import build_model, default_workload

MODELS = ("resnet18", "vgg16")
COMPILERS = ("puma", "occ", "cim-mlc", "cmswitch")


def main() -> None:
    session = Session("dynaplasia", options=CompilerOptions(generate_code=False))
    for model in MODELS:
        workload = default_workload(model, batch_size=1, seq_len=64)
        graph = build_model(model, workload)

        print(f"=== {model} ===")
        intensities = layerwise_intensity(graph)
        print("layer-wise arithmetic intensity (first / median / last conv):")
        convs = [layer for layer in intensities if layer.op_type == "conv2d"]
        if convs:
            median = convs[len(convs) // 2]
            print(f"  first  {convs[0].operator:28s} {convs[0].intensity:8.1f}")
            print(f"  median {median.operator:28s} {median.intensity:8.1f}")
            print(f"  last   {convs[-1].operator:28s} {convs[-1].intensity:8.1f}")

        results = {name: session.compile(graph, compiler=name) for name in COMPILERS}
        baseline = results["cim-mlc"].end_to_end_cycles
        print("end-to-end latency (normalised to CIM-MLC):")
        for name in COMPILERS:
            cycles = results[name].end_to_end_cycles
            print(f"  {name:9s} {results[name].end_to_end_ms:9.3f} ms "
                  f"({baseline / cycles:5.2f}x vs CIM-MLC)")

        cmswitch = results["cmswitch"]
        print("CMSwitch compute/memory split along the network:")
        for segment in cmswitch.segments:
            total = segment.compute_arrays + segment.memory_arrays
            share = segment.memory_arrays / total if total else 0.0
            print(f"  segment {segment.index:2d}: {segment.compute_arrays:3d}C/"
                  f"{segment.memory_arrays:3d}M ({share * 100:4.1f}% memory) "
                  f"ops={len(segment.operator_names)}")
        print()


if __name__ == "__main__":
    main()
