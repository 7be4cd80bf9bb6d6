"""Unit tests for EI / EIC / safe region (Eq. 3, 6–8)."""
import math

import numpy as np
import pytest

from repro.core.acquisition import (
    eic, expected_improvement, norm_cdf, norm_pdf, prob_below, propose, safe_mask,
)
from repro.core import gp as gp_module
from repro.core.bo import RunHistory, Surrogates, datasize_feature, fit_surrogates, model_rows
from repro.core.config_space import ConfigSpace
from repro.core.objective import ExecResult, TuningProblem


class TestNormal:
    def test_cdf_known_values(self):
        assert norm_cdf(np.array([0.0]))[0] == pytest.approx(0.5)
        assert norm_cdf(np.array([1.96]))[0] == pytest.approx(0.975, abs=1e-3)
        assert norm_cdf(np.array([-1.96]))[0] == pytest.approx(0.025, abs=1e-3)

    def test_pdf_peak(self):
        assert norm_pdf(np.array([0.0]))[0] == pytest.approx(0.3989, abs=1e-4)

    def test_cdf_monotone(self):
        z = np.linspace(-4, 4, 50)
        assert np.all(np.diff(norm_cdf(z)) >= 0)

    @pytest.mark.parametrize("shape", [(), (1,), (7,), (3, 4)])
    def test_cdf_equals_vectorized_erf(self, shape):
        """``math.erf`` per element, as ``np.vectorize`` calls it, bit for
        bit, at any shape (0-d too) and at ±inf and NaN."""
        z = np.random.default_rng(0).normal(0.0, 3.0, shape)
        if z.size > 3:
            z.flat[:3] = [np.inf, -np.inf, np.nan]
        erf = np.vectorize(math.erf, otypes=[np.float64])
        want = 0.5 * (1.0 + erf(z / math.sqrt(2.0)))
        got = norm_cdf(z)
        assert np.shape(got) == shape
        assert np.array_equal(got, want, equal_nan=True)


class TestEI:
    def test_matches_numeric_integral(self):
        mu, sd, best = 2.0, 1.5, 1.0
        y = np.linspace(mu - 8 * sd, mu + 8 * sd, 200001)
        dens = np.exp(-0.5 * ((y - mu) / sd) ** 2) / (sd * np.sqrt(2 * np.pi))
        numeric = np.trapz(np.maximum(best - y, 0.0) * dens, y)
        assert expected_improvement(np.array([mu]), np.array([sd]), best)[0] == pytest.approx(
            numeric, rel=1e-3
        )

    def test_zero_variance_no_improvement(self):
        ei = expected_improvement(np.array([5.0]), np.array([1e-15]), best=1.0)
        assert ei[0] == pytest.approx(0.0, abs=1e-9)

    def test_zero_variance_sure_improvement(self):
        ei = expected_improvement(np.array([0.0]), np.array([1e-15]), best=1.0)
        assert ei[0] == pytest.approx(1.0, abs=1e-6)

    def test_uncertainty_increases_ei_for_bad_mean(self):
        lo = expected_improvement(np.array([2.0]), np.array([0.1]), best=1.0)
        hi = expected_improvement(np.array([2.0]), np.array([2.0]), best=1.0)
        assert hi[0] > lo[0]

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        ei = expected_improvement(rng.normal(size=100), rng.random(100) + 0.01, 0.0)
        assert np.all(ei >= 0)


class TestConstraints:
    def test_prob_below_limits(self):
        assert prob_below(np.array([0.0]), np.array([1.0]), 1e9)[0] == pytest.approx(1.0)
        assert prob_below(np.array([0.0]), np.array([1.0]), -1e9)[0] == pytest.approx(0.0)

    def test_prob_below_half_at_mean(self):
        assert prob_below(np.array([5.0]), np.array([2.0]), 5.0)[0] == pytest.approx(0.5)

    def test_eic_product(self):
        mu, sd = np.array([0.5]), np.array([0.2])
        base = expected_improvement(mu, sd, 1.0)
        runtime = (np.array([0.0]), np.array([1.0]), 0.0)  # Pr = 0.5
        assert eic(mu, sd, 1.0, runtime)[0] == base[0] * 0.5

    def test_eic_no_constraints_is_ei(self):
        mu, sd = np.array([0.5]), np.array([0.2])
        assert eic(mu, sd, 1.0)[0] == eic(mu, sd, 1.0, None)[0] == \
            expected_improvement(mu, sd, 1.0)[0]


class TestSafeRegion:
    def test_safe_mask_upper_bound(self):
        mu = np.array([1.0, 1.0])
        sd = np.array([0.1, 5.0])
        m = safe_mask(mu, sd, threshold=2.0, gamma=1.0)
        assert m[0] and not m[1]

    def test_gamma_controls_conservatism(self):
        mu, sd = np.array([1.0]), np.array([1.5])
        assert safe_mask(mu, sd, 2.0, gamma=0.5)[0]
        assert not safe_mask(mu, sd, 2.0, gamma=1.0)[0]

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            safe_mask(np.array([0.0]), np.array([1.0]), 1.0, gamma=0.0)
        with pytest.raises(ValueError):
            safe_mask(np.array([0.0]), np.array([1.0]), 1.0, gamma=1.5)



class _Fixed:
    """A surrogate with a given posterior over four candidates."""

    def __init__(self, mu, sd):
        self.mu, self.sd = np.array(mu), np.array(sd)

    def predict(self, U):
        assert len(U) == len(self.mu)
        return self.mu, self.sd


class TestPropose:
    """The scoring step Ours and the BO baselines share. Incumbent: 10.
    EI favours candidate 0, which likely breaks the runtime threshold;
    EIC favours candidate 1, which is outside the safe region (γ=0.5);
    candidate 2 is the best safe one."""

    LOG_THR = 3.0
    OBJ = _Fixed([5.0, 8.0, 9.0, 12.0], [1.0, 1.0, 1.0, 1.0])
    LOG_RT = _Fixed([5.0, 2.5, 2.0, 1.0], [0.5, 1.2, 0.5, 0.5])

    @pytest.fixture(scope="class")
    def setup(self):
        space = ConfigSpace()
        h = RunHistory(space, TuningProblem(beta=1.0))
        h.add(space.default_config(),
              ExecResult(runtime_s=10.0, mem_gbh=1, cpu_coreh=1, datasize_mb=1000))
        _, cands = space.snap(space.sample_unit(4, np.random.default_rng(0)))
        return h, cands, Surrogates(self.OBJ, self.LOG_RT, datasize_feature(1000))

    def test_no_thresholds_is_ei_argmax(self, setup):
        h, cands, s = setup
        ei = expected_improvement(self.OBJ.mu, self.OBJ.sd, 10.0)
        assert propose(h, cands, s) == (0, ei[0])

    def test_runtime_threshold_is_eic_argmax(self, setup):
        h, cands, s = setup
        acq = eic(self.OBJ.mu, self.OBJ.sd, 10.0, (self.LOG_RT.mu, self.LOG_RT.sd, self.LOG_THR))
        idx, value = propose(h, cands, s, t_max=np.exp(self.LOG_THR))
        assert idx == 1 == int(np.argmax(acq))
        assert value == pytest.approx(acq[1])

    def test_safe_region_masks_argmax(self, setup):
        h, cands, s = setup
        idx, _ = propose(h, cands, s, t_max=np.exp(self.LOG_THR), gamma=0.5)
        assert idx == 2

    def test_empty_safe_region_picks_most_plausibly_safe(self, setup):
        h, cands, s = setup
        idx, value = propose(h, cands, s, t_max=1e-3, gamma=0.5)
        assert idx == int(np.argmin(self.LOG_RT.mu + 0.5 * self.LOG_RT.sd)) == 3
        assert value == float("inf")

    def test_gps_share_the_query_of_a_writeable_matrix(self, monkeypatch):
        """The objective and log-runtime GPs of one fit build the query's
        kernel parts once, and the caller's matrix stays writeable."""
        space, rng = ConfigSpace(), np.random.default_rng(0)
        h = RunHistory(space, TuningProblem(beta=1.0))
        for cfg in space.sample_random(6, rng):
            h.add(cfg, ExecResult(runtime_s=float(rng.uniform(50, 150)), mem_gbh=1,
                                  cpu_coreh=1, datasize_mb=1000))
        s = fit_surrogates(h, with_datasize=True, runtime=True)
        X = model_rows(space.snap(space.sample_unit(50, rng))[1], s.datasize)
        parts, calls = gp_module.KernelRows.parts, []

        def counted(*args):
            calls.append(args)
            return parts(*args)

        monkeypatch.setattr(gp_module.KernelRows, "parts", counted)
        _, value = propose(h, X, s, t_max=1e4, gamma=0.5)
        assert value != float("inf")  # the safe region is not empty
        assert len(calls) == 1 and X.flags.writeable
