"""os2e: object/scene-to-event transfer toolkit.

Concept-response statistics, discriminative-diverse class selection, three
transfer-training modes on a small differentiable network, and a
multi-ratio/multi-scale crop-and-fuse inference pipeline, with synthetic
planted-truth benchmarks tying it all together.
"""

__version__ = "0.1.0"
