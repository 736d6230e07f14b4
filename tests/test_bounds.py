import math

import numpy as np
import pytest

from copsem.bounds import (
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

OPERATING = dict(eps=0.05, eps_est=0.01)
DEC = DecoderModel(0.9, 0.1)
ENC_REF = EncoderModel(0.20814, 252)


def test_sample_complexity_anchor():
    assert sample_complexity(ConcentrationParams(4, 2, 0.1, 0.05)) == 2956


def test_sample_complexity_is_at_least_one_pair():
    # t^2 overflows to inf, so the formula's count rounds to 0 pairs
    assert sample_complexity(ConcentrationParams(4, 2, 1e300, 0.05)) == 1
    assert sample_complexity(ConcentrationParams(4, 2, 1e10, 0.05)) == 1


def test_sample_complexity_monotone():
    base = ConcentrationParams(4, 2, 0.1, 0.05)
    assert sample_complexity(ConcentrationParams(8, 2, 0.1, 0.05)) > sample_complexity(base)
    assert sample_complexity(ConcentrationParams(4, 2, 0.05, 0.05)) > sample_complexity(base)
    assert sample_complexity(ConcentrationParams(4, 2, 0.1, 0.01)) > sample_complexity(base)


def test_concentration_params_validated():
    with pytest.raises(ValueError):
        ConcentrationParams(1, 2, 0.1, 0.05)
    with pytest.raises(ValueError):
        ConcentrationParams(4, 0, 0.1, 0.05)
    for t in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            ConcentrationParams(4, 2, t, 0.05)
    with pytest.raises(ValueError):
        ConcentrationParams(4, 2, 0.1, 1.0)


def test_est_distortion_inverts_sample_complexity():
    params = ConcentrationParams(4, 2, 0.1, 0.05)
    eps = est_distortion_from_samples(2956, params)
    assert abs(eps - 0.041626652311164886) < 1e-15
    # ceil makes n_eff slightly generous, so the recovered t is <= 0.1
    assert eps <= (math.sqrt(math.log(2)) / 2) * 0.1


def test_rate_anchors():
    assert rate_achievability(4, 8, 1 / 64) == 1512.0
    assert rate_achievability(4, 8, 1.0) == 0.0
    assert rate_converse(4, 8, 0.5, c=1.0) == 252.0
    assert rate_converse(4, 8, 0.25) == 504.0


def test_enc_bound_anchor():
    assert abs(enc_distortion_bound(8, 1 / 64) - 0.2081386527894244) < 1e-15


def test_sla_compose_sums():
    budget = SlaBudget(0.01, 0.02, 0.03, 0.05, 0.04)
    result = sla_compose(budget)
    assert abs(result.eps_total - 0.06) < 1e-15
    assert abs(result.delta_sla - 0.09) < 1e-15


def test_model_error_terms():
    assert abs(DEC.error(20) - 0.9**20 * 0.1) < 1e-18
    assert DEC.error(0) == 0.1
    assert abs(ENC_REF.error(252) - 0.20814 / 2) < 1e-15
    assert ENC_REF.error(0) == 0.20814


def test_r_min_reference_point():
    r = r_min(20.0, dec=DEC, enc=ENC_REF, **OPERATING)
    assert r is not None
    assert abs(r - 731.354943593927) < 1e-9


def test_headroom_value():
    h = OPERATING["eps"] - OPERATING["eps_est"] - DEC.error(20)
    assert abs(h - 0.027842334540943071) < 1e-15


def test_r_min_defining_identity():
    # feasible T only: the decode floor 0.1 * 0.9^T must stay below 0.04,
    # i.e. T > ln(0.4)/ln(0.9) ~ 8.70
    for t in (9.0, 12.0, 20.0, 33.0):
        r = r_min(t, dec=DEC, enc=ENC_REF, **OPERATING)
        assert r is not None
        total = OPERATING["eps_est"] + ENC_REF.error(r) + DEC.error(t)
        assert abs(total - OPERATING["eps"]) < 1e-9


def test_r_min_infeasible_returns_none():
    # decode error floor alone exceeds the budget at T=1
    assert r_min(1.0, dec=DEC, enc=ENC_REF, **OPERATING) is None


def test_r_min_rejects_empty_budget():
    with pytest.raises(ValueError):
        r_min(20.0, eps=0.01, eps_est=0.01, dec=DEC, enc=ENC_REF)


def test_r_min_zero_when_already_met():
    tiny_enc = EncoderModel(1e-6, 252)
    assert r_min(20.0, dec=DEC, enc=tiny_enc, **OPERATING) == 0.0


def test_nan_inputs_raise_instead_of_reading_as_met():
    nan = math.nan
    for call in (
        lambda: DEC.error(nan),
        lambda: ENC_REF.error(nan),
        lambda: DecoderModel(0.9, nan),
        lambda: EncoderModel(nan, 252),
        lambda: r_min(20.0, eps=nan, eps_est=0.01, dec=DEC, enc=ENC_REF),
        lambda: r_min(20.0, eps=0.05, eps_est=nan, dec=DEC, enc=ENC_REF),
        lambda: t_min(731.0, eps=nan, eps_est=0.01, dec=DEC, enc=ENC_REF),
        lambda: rate_converse(4, 8, 0.5, c=nan),
    ):
        with pytest.raises(ValueError):
            call()
    # inf lies outside every interval that is open at its upper end
    inf = math.inf
    for call in (
        lambda: ConcentrationParams(4, 2, inf, 0.05),
        lambda: DecoderModel(0.9, inf),
        lambda: EncoderModel(inf, 252),
        lambda: rate_converse(4, 8, 0.5, c=inf),
        lambda: r_min(20.0, eps=inf, eps_est=0.01, dec=DEC, enc=ENC_REF),
        lambda: t_min(731.0, eps=inf, eps_est=0.01, dec=DEC, enc=ENC_REF),
    ):
        with pytest.raises(ValueError):
            call()
    assert DEC.error(math.inf) == 0.0 and ENC_REF.error(math.inf) == 0.0


def test_t_min_roundtrip():
    for t in (10.0, 17.0, 25.0):
        r = r_min(t, dec=DEC, enc=ENC_REF, **OPERATING)
        back = t_min(r, dec=DEC, enc=ENC_REF, **OPERATING)
        assert back is not None
        assert abs(back - t) < 1e-9


def test_t_min_infeasible_returns_none():
    huge_enc = EncoderModel(10.0, 252)
    # at R = 0 the encode floor is 10, no T can compensate
    assert t_min(0.0, dec=DEC, enc=huge_enc, **OPERATING) is None


def test_surface_matches_components():
    r_grid = tuple(np.linspace(100.0, 1500.0, 8))
    t_grid = tuple(np.linspace(1.0, 40.0, 8))
    grid = sla_surface(r_grid, t_grid, 0.01, DEC, ENC_REF)
    assert grid.shape == (8, 8)
    for i, r in enumerate(r_grid):
        for j, t in enumerate(t_grid):
            expect = 0.01 + ENC_REF.error(r) + DEC.error(t)
            assert abs(grid[i, j] - expect) < 1e-15
    assert np.all(np.diff(grid, axis=0) < 0.0)
    assert np.all(np.diff(grid, axis=1) < 0.0)


def test_surface_inversion_tight():
    r_grid = tuple(np.linspace(50.0, 1200.0, 6))
    t_grid = tuple(np.linspace(2.0, 30.0, 6))
    grid = sla_surface(r_grid, t_grid, 0.01, DEC, ENC_REF)
    for i, r in enumerate(r_grid):
        for j, t in enumerate(t_grid):
            eps = float(grid[i, j])
            assert abs(r_min(t, eps, 0.01, DEC, ENC_REF) - r) < 1e-9
            assert abs(t_min(r, eps, 0.01, DEC, ENC_REF) - t) < 1e-9


def test_fit_recovers_model(rng):
    rates = np.linspace(200, 1600, 12)
    truth = EncoderModel(7.5, 252)
    distortions = [truth.error(r) for r in rates]
    c2, d_eff, r2 = fit_encoder_model(rates, distortions)
    assert abs(c2 - 7.5) < 1e-9
    assert abs(d_eff - 252.0) < 1e-9
    assert abs(r2 - 1.0) < 1e-12


def test_fit_with_pinned_exponent():
    rates = np.linspace(200, 1600, 12)
    truth = EncoderModel(3.0, 300)
    distortions = [truth.error(r) for r in rates]
    c2, d_eff, r2 = fit_encoder_model(rates, distortions, d=300)
    assert d_eff == 300.0
    assert abs(c2 - 3.0) < 1e-9
    assert abs(r2 - 1.0) < 1e-12


def test_fit_rejects_degenerate_input():
    with pytest.raises(ValueError):
        fit_encoder_model([100.0], [0.5])
    with pytest.raises(ValueError):
        fit_encoder_model([100.0, 200.0], [0.0, 0.1])
    # one rate twice used to return a fit after numpy's RankWarning
    with pytest.raises(ValueError, match="^need at least two distinct rates$"):
        fit_encoder_model([100.0, 100.0, 200.0], [0.1, 0.2, 0.0])
    c2, d_eff, _ = fit_encoder_model([100.0, 100.0], [0.1, 0.2], d=300)  # intercept only
    assert d_eff == 300.0 and c2 > 0.0


def test_fit_rejects_an_ill_conditioned_slope():
    # numpy's RankWarning used to pass any -W error filter and leave R^2 near 1e-15
    with pytest.raises(ValueError, match="^rates too close together for a slope fit"):
        fit_encoder_model([1e17, 1e17 + 16, 1e17 + 32], [0.3, 0.2, 0.1])


def test_rates_finite_at_subnormal_steps():
    # 1 / x overflows to inf for these x; log2(1 / x) = -log2(x) does not
    tiny = 5e-324  # 2**-1074
    assert rate_achievability(4, 8, tiny) == 252 * 1074.0
    assert rate_converse(4, 8, tiny) == 252 * 1074.0
    assert math.copysign(1.0, rate_achievability(4, 8, 1.0)) == 1.0  # +0.0 bits, not -0.0


def test_negative_estimation_budget_is_rejected():
    # used to read as room to spare: r_min and t_min returned 0.0
    msg = r"^eps_est must be in \[0\.0, inf\], got -0\.5$"
    with pytest.raises(ValueError, match=msg):
        r_min(20.0, eps=0.05, eps_est=-0.5, dec=DEC, enc=ENC_REF)
    with pytest.raises(ValueError, match=msg):
        t_min(731.0, eps=0.05, eps_est=-0.5, dec=DEC, enc=ENC_REF)


def test_range_errors_name_the_interval():
    with pytest.raises(ValueError, match=r"^c2 must be in \(0\.0, inf\), got inf$"):
        EncoderModel(math.inf, 252)
    with pytest.raises(ValueError, match=r"^bins must be in \[2, inf\), got 1$"):
        nominal_d(4, 1)
