"""Signature-scheme benchmark harness with a blockchain verification simulator.

The package is organised around four pieces:

- :mod:`chainsig.schemes`: the fixed catalog of signature scheme
  variants and the pluggable backends that turn a catalog entry into
  usable keypair/sign/verify operations.
- :mod:`chainsig.bench`: wall-clock measurement of those operations.
- :mod:`chainsig.sim`: seeded per-block draws that propagate measured
  verify latency into whole-block verification times.
- :mod:`chainsig.report`: CSV and SVG emission for both stages.

:mod:`chainsig.cli` wires the pieces into a command-line pipeline.
"""

__version__ = "0.1.0"
