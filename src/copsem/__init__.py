"""Rank-copula structural image semantics.

Pairwise rank copulas as a monotone-invariant image representation, a
Jensen-Shannon based structural distortion metric, a quantize/pack codec,
a binary symmetric channel, closed-form design bounds, and an experiment
harness that validates every bound by Monte-Carlo.
"""

from .image_io import GrayImage, read_pgm, write_pgm, synth_gradient, synth_noise
from .rank_copula import (
    DEFAULT_BINS,
    DEFAULT_DELTAS,
    CopulaFamily,
    Displacement,
    EmpiricalCopula,
    RankField,
    extract_copula,
    extract_family,
    coarsen,
    non_overlapping_stride,
    rank_transform,
)
from .metrics import DistortionReport, d_pc, js_divergence, l1_distance, psnr, ssim, tv_distance
from .codec import QuantizedFamily, RdPoint, dequantize, pack, quantize, rd_sweep, unpack
from .channel import ChannelExperiment, ber_experiment, transmit
from .bounds import (
    ConcentrationParams,
    DecoderModel,
    EncoderModel,
    SlaBudget,
    enc_distortion_bound,
    est_distortion_from_samples,
    fit_encoder_model,
    nominal_d,
    r_min,
    rate_achievability,
    rate_converse,
    sample_complexity,
    sla_compose,
    sla_surface,
    t_min,
)
from .transforms import TransformSpec, apply_transform, monotone_check, requantize

__version__ = "0.1.0"
