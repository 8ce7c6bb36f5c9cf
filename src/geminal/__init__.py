"""Classical workbench for two-electron geminal circuits.

Simulates paired-ansatz quantum circuits with optional device-noise
emulation, reduced tomography, and error mitigation, and drives a hybrid
orbital/amplitude optimization to dissociation curves checked against an
internal full-CI oracle.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
