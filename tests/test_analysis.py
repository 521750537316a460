import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from immimo import analysis, detnet, training
from immimo.mimo import MimoConfig


def eval_bound_expanded(inputs):
    """Second evaluation path of the bound with distinct algebra.

    Uses expanded polynomial forms of tau and xi, a log-domain Omega, and an
    explicit power-sum loop in place of the geometric closed form.
    """
    i = inputs
    phi_cap = np.sqrt(i.n_t) + np.sqrt(i.n_r)
    root6 = np.sqrt(6.0 * np.sqrt(2.0 / np.pi) * i.n_p)
    root3 = np.sqrt(3.0 * np.sqrt(2.0 / np.pi) * i.n_p)

    phi = 2.0 * i.varpi2 * phi_cap * phi_cap
    tau = i.varpi2 * (i.gamma * root6 * phi_cap**3 + 2.0 * phi_cap**2)
    xi = (
        2.0 * i.varpi1 * i.sigma_n * np.sqrt(2.0 * i.n_r * (i.n_t + i.n_r))
        + 2.0 * i.varpi1 * i.gamma * root3 * (i.n_t + i.n_r) ** 1.5
    )
    omega = np.exp(0.5 * (np.log(4.0 * i.S) - np.log(3.0 * i.n_r)) - i.S / 8.0)

    if phi <= 1.0 + analysis.SINGULARITY_TOL:
        raise analysis.BoundRegimeError(
            f"phi={phi:.6g} <= 1: closed-form accumulation term is invalid"
        )
    # sum_{j=0}^{L-1} phi^j tau^(L-1-j) equals (phi^L - tau^L)/(phi - tau)
    geo = 0.0
    for j in range(i.L):
        geo += phi**j * tau ** (i.L - 1 - j)
    c = 2.0 * i.varpi1 * i.varpi2 * i.gamma * root6
    gamma_cap = c * phi_cap**5 * geo / (phi - 1.0)

    correction = xi * (1.0 - tau * i.L) / (1.0 - tau) + gamma_cap * (
        i.L - 1.0 / (phi - 1.0)
    )
    bound = xi + gamma_cap + correction * omega
    return analysis.BoundReport(
        phi=float(phi), tau=float(tau), xi=float(xi), omega=float(omega),
        gamma_cap=float(gamma_cap), bound=float(bound),
    )


bound_inputs = st.builds(
    analysis.BoundInputs,
    n_t=st.integers(1, 16),
    n_r=st.integers(1, 32),
    L=st.integers(1, 40),
    S=st.integers(8, 256),
    n_p=st.integers(1, 512),
    gamma=st.one_of(st.just(0.0), st.floats(1e-3, 0.06)),
    sigma_n=st.floats(0.0, 2.0),
    varpi1=st.floats(1e-4, 1.0),
    varpi2=st.floats(1e-4, 1.0),
)


class TestBound:
    @settings(max_examples=300, deadline=None)
    @given(bound_inputs)
    def test_matches_expanded_form(self, inputs):
        try:
            report = analysis.eval_bound(inputs)
        except analysis.BoundRegimeError:
            with pytest.raises(analysis.BoundRegimeError):
                eval_bound_expanded(inputs)
            return
        # both forms divide by 1 - tau; next to that pole rounding dominates
        assume(abs(1.0 - report.tau) > 1e-6)
        oracle = eval_bound_expanded(inputs)
        for field in ("phi", "tau", "xi", "omega", "gamma_cap", "bound"):
            assert getattr(report, field) == pytest.approx(getattr(oracle, field), rel=1e-9)

    def test_phi_at_most_one_is_rejected(self):
        inputs = analysis.BoundInputs(n_t=4, n_r=6, L=10, S=64, n_p=150, gamma=0.02,
                                      sigma_n=0.1, varpi1=1e-3, varpi2=1e-3)
        with pytest.raises(analysis.BoundRegimeError):
            analysis.eval_bound(inputs)


class TestFlops:
    @pytest.mark.parametrize("n_t,n_r", [(4, 6), (8, 8), (2, 3), (16, 32)])
    def test_counter_matches_closed_form(self, n_t, n_r):
        c = MimoConfig(n_t=n_t, n_r=n_r)
        assert analysis.count_forward_flops(c) == analysis.flops_per_symbol(c)


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        c = MimoConfig(n_t=2, n_r=3, modulation="qam16", L=3, S=16)
        params = detnet.init_params(c, np.random.default_rng(5))
        params.b1 += np.random.default_rng(6).standard_normal(params.b1.shape)
        path = tmp_path / "params.npz"
        training.save_params(path, params, c)
        loaded, loaded_cfg = training.load_params(path, expected_config=c)
        assert loaded_cfg == c
        for key in detnet.PARAM_KEYS:
            want, got = getattr(params, key), getattr(loaded, key)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

