"""Joint detection and decoding on the BI-AWGN channel.

Detection statistics (preamble, hybrid preamble/energy and decoder-aided,
with a codebook-aided reference), finite-blocklength bounds
(blocklength/SNR converse, decoder-aided achievability, DT and
meta-converse), and a seeded Monte Carlo engine that calibrates thresholds
and measures operating points of the preamble, HyPED and DAD detectors.

The package re-exports nothing: each name is imported from its own module
(``jdd.bounds``, ``jdd.channel``, ``jdd.codebook``, ``jdd.detectors``,
``jdd.montecarlo``, ``jdd.numerics``, ``jdd.sweeps``, ``jdd.cli``). It needs
numpy and ``scipy.special`` only.
"""

__version__ = "0.1.0"
