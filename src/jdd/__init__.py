"""Joint detection and decoding on the BI-AWGN channel.

Detection statistics (preamble, hybrid preamble/energy, decoder-aided,
codebook-aided, genie), finite-blocklength bounds (blocklength/SNR converse,
decoder-aided achievability, DT and meta-converse), and a seeded Monte Carlo
engine for calibrating thresholds and measuring operating points.
"""

from .bounds import (
    Requirements,
    dad_error_bounds,
    dad_gamma,
    dad_max_code_size,
    dt_bound_max_M,
    meta_converse_max_M,
    min_blocklength,
    min_snr_db,
    pie_sandwich,
)
from .channel import ChannelParams, FramePlan, modulate, snr_to_sigma2
from .codebook import Codebook, encode, load_generator, min_distance, ml_decode
from .detectors import (
    DetectorSpec,
    stat_codebook_aided,
    stat_dad,
    stat_genie,
    stat_hyped_exact,
    stat_hyped_heuristic,
    stat_preamble,
)
from .montecarlo import CalibrationResult, RateEstimate, calibrate_threshold, clopper_pearson, estimate_rates
from .numerics import log_cosh, q_func, q_inv

__version__ = "0.1.0"
