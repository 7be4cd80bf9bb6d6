"""Unit tests for EI / EIC / safe region (Eq. 3, 6–8)."""
import numpy as np
import pytest

from repro.core.acquisition import (
    eic, expected_improvement, norm_cdf, norm_pdf, prob_below, propose, safe_mask,
)
from repro.core.bo import RunHistory, Surrogates
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
        c = (np.array([0.0]), np.array([1.0]), 0.0)  # Pr = 0.5
        assert eic(mu, sd, 1.0, [c])[0] == pytest.approx(base[0] * 0.5)

    def test_eic_no_constraints_is_ei(self):
        mu, sd = np.array([0.5]), np.array([0.2])
        assert eic(mu, sd, 1.0, [])[0] == expected_improvement(mu, sd, 1.0)[0]

    def test_eic_multiple_constraints_multiply(self):
        mu, sd = np.array([0.5]), np.array([0.2])
        c = (np.array([0.0]), np.array([1.0]), 0.0)
        one = eic(mu, sd, 1.0, [c])[0]
        two = eic(mu, sd, 1.0, [c, c])[0]
        assert two == pytest.approx(one * 0.5)


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
        cands = space.sample_random(4, np.random.default_rng(0))
        return h, cands, Surrogates(self.OBJ, self.LOG_RT, with_datasize=True)

    def test_no_thresholds_is_ei_argmax(self, setup):
        h, cands, s = setup
        ei = expected_improvement(self.OBJ.mu, self.OBJ.sd, 10.0)
        assert propose(h, cands, s) == (0, ei[0])

    def test_runtime_threshold_is_eic_argmax(self, setup):
        h, cands, s = setup
        acq = eic(self.OBJ.mu, self.OBJ.sd, 10.0,
                  [(self.LOG_RT.mu, self.LOG_RT.sd, self.LOG_THR)])
        idx, value = propose(h, cands, s, runtime_thresholds=[np.exp(self.LOG_THR)])
        assert idx == 1 == int(np.argmax(acq))
        assert value == pytest.approx(acq[1])

    def test_safe_region_masks_argmax(self, setup):
        h, cands, s = setup
        idx, _ = propose(h, cands, s, runtime_thresholds=[np.exp(self.LOG_THR)], gamma=0.5)
        assert idx == 2

    def test_empty_safe_region_picks_most_plausibly_safe(self, setup):
        h, cands, s = setup
        idx, value = propose(h, cands, s, runtime_thresholds=[1e-3], gamma=0.5)
        assert idx == int(np.argmin(self.LOG_RT.mu + 0.5 * self.LOG_RT.sd)) == 3
        assert value == float("inf")
