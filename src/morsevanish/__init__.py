"""Finite-action Morse homology of functions with vanishing ends.

The package computes the Morse homology of a smooth function whose action
window is kept finite by a boundary function tau, counts gradient
flowlines for the differential, realises continuation maps by slow
parameter paths, and cross-checks everything against an independent
cubical model of the corresponding relative homology.
"""

__version__ = "0.2.6"
