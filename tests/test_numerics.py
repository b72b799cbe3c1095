import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, special

from centest import (
    Kernel,
    RandomStream,
    chi_square_quantile,
    chi_square_sf,
    generalized_modal_midpoint,
    get_kernel,
)
from centest.numerics import (
    KERNELS,
    RELATIVE_EIG_FLOOR,
    _brentq,
    _golden,
    _ndtr,
    _owens_t,
    floored_eigh,
    standard_normal_rows,
)


def central_difference(f, u, h=1e-6):
    return (f(u + h) - f(u - h)) / (2.0 * h)


def kernel_at(kernel, u):
    return float(kernel.value_at(u)), float(kernel.deriv_at(u))


class TestKernels:
    def test_gaussian_at_zero(self):
        value, deriv = kernel_at(get_kernel("gaussian"), 0.0)
        assert value == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-12)
        assert value == pytest.approx(0.3989423, abs=5e-8)
        assert deriv == 0.0

    def test_gaussian_at_one_against_finite_difference(self):
        kernel = get_kernel("gaussian")
        value, deriv = kernel_at(kernel, 1.0)
        assert value == pytest.approx(0.2419707, abs=5e-8)
        fd = central_difference(lambda u: float(kernel.value_at(u)), 1.0)
        assert deriv == pytest.approx(fd, abs=1e-9)
        assert deriv == pytest.approx(-0.2419707, abs=5e-8)

    def test_biweight_at_zero(self):
        value, deriv = kernel_at(get_kernel("biweight"), 0.0)
        assert value == 15.0 / 16.0
        assert deriv == 0.0

    def test_biweight_vanishes_outside_support(self):
        value, deriv = kernel_at(get_kernel("biweight"), 1.5)
        assert value == 0.0 and deriv == 0.0

    def test_biweight_deriv_against_finite_difference(self):
        kernel = get_kernel("biweight")
        for u in (-0.8, -0.3, 0.2, 0.9):
            fd = central_difference(lambda v: float(kernel.value_at(v)), u)
            assert float(kernel.deriv_at(u)) == pytest.approx(fd, abs=1e-8)

    def test_gaussian_deriv_odd_symmetry_exact(self):
        kernel = get_kernel("gaussian")
        u = np.linspace(0.0, 6.0, 301)
        assert np.array_equal(kernel.deriv_at(-u), -kernel.deriv_at(u))

    @pytest.mark.parametrize("kernel", KERNELS.values())
    def test_unit_mass_and_zero_first_moment(self, kernel):
        lo, hi = kernel.support
        mass, _ = integrate.quad(lambda u: float(kernel.value_at(u)), lo, hi,
                                 epsabs=1e-12)
        first, _ = integrate.quad(lambda u: u * float(kernel.value_at(u)), lo, hi,
                                  epsabs=1e-12)
        assert abs(mass - 1.0) < 1e-8
        assert abs(first) < 1e-8

    @pytest.mark.parametrize(
        "kernel,closed_form",
        [
            (get_kernel("gaussian"), 0.25 / math.sqrt(math.pi)),
            (get_kernel("biweight"), 15.0 / 7.0),
        ],
    )
    def test_deriv_sq_integral_against_quadrature(self, kernel, closed_form):
        lo, hi = kernel.support
        oracle, _ = integrate.quad(lambda u: float(kernel.deriv_at(u)) ** 2, lo, hi,
                                   epsabs=1e-12)
        assert kernel.deriv_sq_integral == pytest.approx(oracle, abs=1e-8)
        assert kernel.deriv_sq_integral == pytest.approx(closed_form, abs=1e-12)
        assert kernel.deriv_sq_integral > 0.0

    def test_get_kernel_by_name(self):
        for name in ("gaussian", "biweight"):
            assert get_kernel(name) is KERNELS[name]
        assert list(KERNELS) == ["gaussian", "biweight"]
        with pytest.raises(ValueError, match="^unknown kernel 'epanechnikov'; "
                                             "choose from gaussian, biweight$"):
            get_kernel("epanechnikov")


def chi2_density(df):
    from scipy.special import gammaln

    def density(x):
        return math.exp(
            (df / 2.0 - 1.0) * math.log(x) - x / 2.0
            - (df / 2.0) * math.log(2.0) - gammaln(df / 2.0)
        )

    return density


def chi2_sf_quadrature(df, x):
    """Independent survival function: quadrature of the density."""
    if x == 0.0:
        return 1.0
    val, _ = integrate.quad(chi2_density(df), 0.0, x, epsabs=1e-12, limit=300)
    return 1.0 - val


def chi2_quantile_bisection(df, p):
    """Independent quantile: bisection on the quadrature survival function."""
    lo, hi = 0.0, 1.0
    while chi2_sf_quadrature(df, hi) > 1.0 - p:
        hi *= 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if chi2_sf_quadrature(df, mid) > 1.0 - p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestChiSquare:
    def test_sf_at_zero(self):
        assert chi_square_sf(2, 0.0) == 1.0

    def test_classic_five_percent_points(self):
        # bisection oracle pins the familiar critical values first
        q1 = chi2_quantile_bisection(1, 0.95)
        q2 = chi2_quantile_bisection(2, 0.95)
        assert q1 == pytest.approx(3.841459, abs=5e-7)
        assert q2 == pytest.approx(5.991465, abs=5e-7)
        assert chi_square_sf(1, 3.841459) == pytest.approx(0.05, abs=1e-7)
        assert chi_square_sf(2, 5.991465) == pytest.approx(0.05, abs=1e-7)

    def test_df2_exponential_identity(self):
        for x in (0.5, 2.0, 5.991465, 11.0):
            assert chi_square_sf(2, x) == pytest.approx(math.exp(-x / 2.0), abs=1e-12)

    @pytest.mark.parametrize("df", [1, 2, 3, 5, 10])
    def test_sf_matches_quadrature_oracle(self, df):
        for x in (0.1, 1.0, 4.0, 12.5):
            assert chi_square_sf(df, x) == pytest.approx(
                chi2_sf_quadrature(df, x), abs=1e-10
            )

    def test_quantile_against_bisection_oracle(self):
        assert chi_square_quantile(2, 0.95) == pytest.approx(
            chi2_quantile_bisection(2, 0.95), abs=1e-7
        )
        assert chi_square_quantile(1, 0.95) == pytest.approx(
            chi2_quantile_bisection(1, 0.95), abs=1e-7
        )

    @pytest.mark.parametrize("df", [1, 2, 3, 7])
    def test_quantile_sf_round_trip(self, df):
        for p in (0.01, 0.25, 0.5, 0.9, 0.95, 0.999):
            x = chi_square_quantile(df, p)
            assert chi_square_sf(df, x) == pytest.approx(1.0 - p, abs=1e-7)

    def test_quantile_monotone_in_p(self):
        grid = np.linspace(0.01, 0.99, 25)
        values = [chi_square_quantile(3, p) for p in grid]
        assert np.all(np.diff(values) > 0)

    @given(st.floats(min_value=0.0, max_value=80.0),
           st.floats(min_value=0.0, max_value=80.0))
    @settings(max_examples=60, deadline=None)
    def test_sf_decreasing_and_bounded(self, a, b):
        lo, hi = sorted((a, b))
        s_lo, s_hi = chi_square_sf(3, lo), chi_square_sf(3, hi)
        assert 0.0 <= s_hi <= s_lo <= 1.0
        if hi > lo + 1e-9:
            assert s_hi < s_lo

    @pytest.mark.parametrize("df", [1, 2, 3])
    def test_array_equals_the_scalar_calls(self, df):
        x = np.concatenate([[0.0, np.nan, 1e-300, 3.841459, 700.0],
                            np.random.default_rng(df).exponential(5.0, 200)])
        p = chi_square_sf(df, x)
        assert isinstance(p, np.ndarray) and p.shape == x.shape
        scalar = np.array([chi_square_sf(df, v) for v in x.tolist()])
        assert p.tobytes() == scalar.tobytes()
        # scipy's regularized upper incomplete gamma function, one Python
        # float at a time: the same zeros and NaN, and 1e-12 relative
        direct = np.array([float(special.gammaincc(df / 2.0, v / 2.0)) for v in x.tolist()])
        assert np.array_equal(p == 0.0, direct == 0.0)
        assert np.allclose(p, direct, rtol=1e-12, atol=0.0, equal_nan=True)
        assert np.isnan(p[1])
        assert chi_square_sf(df, x.reshape(5, 41)).tobytes() == p.tobytes()
        assert type(chi_square_sf(df, 2.0)) is float

    def test_array_domain_error_names_the_first_negative(self):
        with pytest.raises(ValueError, match=r"must be >= 0, got -0\.5$"):
            chi_square_sf(2, np.array([1.0, np.nan, -0.5, -2.0]))
        with pytest.raises(ValueError, match=r"must be >= 0, got -1$"):
            chi_square_sf(2, -1)

    @pytest.mark.parametrize("df", [2.5, 3.0, True, "3"])
    def test_df_must_be_an_integer(self, df):
        # 2.5 once gave sf(2.5, 3) = 0.0833 (scipy: 0.3058) and True df = 1
        with pytest.raises(ValueError, match="^degrees of freedom must be an integer"):
            chi_square_sf(df, 3.0)
        with pytest.raises(ValueError, match="^degrees of freedom must be an integer"):
            chi_square_quantile(df, 0.9)

    def test_numpy_integer_df_is_the_int(self):
        assert chi_square_sf(np.int64(3), 2.5) == chi_square_sf(3, 2.5)
        assert chi_square_quantile(np.int64(3), 0.9) == chi_square_quantile(3, 0.9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            chi_square_sf(0, 1.0)
        with pytest.raises(ValueError):
            chi_square_sf(2, -0.5)
        with pytest.raises(ValueError):
            chi_square_quantile(2, 0.0)
        with pytest.raises(ValueError):
            chi_square_quantile(2, 1.0)


_TINY = np.finfo(float).tiny


def _tail_points(df):
    """Statistics from 0 up past the zero cut of gammaincc, with twenty
    points within 1e-9 relative of the cut on either side."""
    rng = np.random.default_rng(df)
    cut = 2.0 * optimize.brentq(
        lambda h: (df / 2) * math.log(h) - h - math.lgamma(df / 2) + 709.782712893384,
        10.0, 2000.0)
    return np.concatenate([
        [0.0, 1e-300, 1e-10, 1e-3, 1.0, 3.841459, 1400.0],
        cut + np.linspace(-1e-9, 1e-9, 20) * cut,
        rng.exponential(5.0, 2000), rng.uniform(0.0, 1600.0, 4000),
        np.exp(rng.uniform(-690.0, 7.3, 2000)),
    ])


class TestClosedFormTail:
    """The closed-form tail and its quantile against scipy's gammaincc and
    gammainccinv, now a test-only oracle."""

    @pytest.mark.parametrize("df", range(1, 13))
    def test_tail_equals_gammaincc(self, df):
        x = _tail_points(df)
        p = chi_square_sf(df, x)
        oracle = special.gammaincc(df / 2.0, x / 2.0)
        # the same exact zeros, the cut's included, and 1e-12 relative;
        # below the smallest normal double relative accuracy ends, and the
        # bound is 1e-12 of that
        assert np.array_equal(p == 0.0, oracle == 0.0)
        assert np.all(np.abs(p - oracle) <= 1e-12 * np.maximum(oracle, _TINY))
        assert chi_square_sf(df, 0.0) == 1.0 and chi_square_sf(df, 1e-300) == 1.0
        assert math.isnan(chi_square_sf(df, math.nan))
        assert chi_square_sf(df, math.inf) == 0.0

    def test_zero_where_a_stored_p_value_is(self):
        # a 3-df statistic that a stored reference scores at p = 0.0; the
        # series alone would leave a subnormal there
        assert special.gammaincc(1.5, 1487.89 / 2.0) == 0.0
        assert chi_square_sf(3, 1487.89) == 0.0

    @pytest.mark.parametrize("df", [59, 100, 101])
    def test_tail_equals_gammaincc_at_larger_df(self, df):
        # both summation paths: e^-h times the sum up to h = 700, and the
        # sum from its largest term in logs beyond
        x = np.linspace(0.0, 3000.0, 3001)
        p = chi_square_sf(df, x)
        oracle = special.gammaincc(df / 2.0, x / 2.0)
        assert np.array_equal(p == 0.0, oracle == 0.0)
        assert np.all(np.abs(p - oracle) <= 1e-12 * np.maximum(oracle, _TINY))

    @pytest.mark.parametrize("df", range(1, 13))
    def test_quantile_equals_gammainccinv(self, df):
        for p in [*np.linspace(0.001, 0.999, 97).tolist(), 0.9, 0.95, 0.99]:
            oracle = 2.0 * special.gammainccinv(df / 2.0, 1.0 - p)
            assert chi_square_quantile(df, p) == pytest.approx(oracle, rel=1e-13, abs=0.0)


class TestNormalCdfAndOwensT:
    def test_ndtr_equals_scipy_bit_for_bit(self):
        # 120,000 points over [-40, 40], the branch points of cephes' ndtr,
        # erf and erfc (|a| = 1, 8 sqrt 2, the exp underflow) and signed zeros
        rng = np.random.default_rng(7)
        edges = np.array([1.0, 8.0 * math.sqrt(2.0), math.sqrt(2.0 * 709.782712893384),
                          1.0 / math.sqrt(2.0), 38.0, 1e-300, 0.0])
        edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 50.0)])
        a = np.concatenate([rng.uniform(-40.0, 40.0, 100_000), rng.normal(0.0, 3.0, 20_000),
                            edges, -edges, [math.inf, -math.inf]])
        mine = np.array([_ndtr(v) for v in a.tolist()])
        assert mine.tobytes() == special.ndtr(a).tobytes()
        assert math.isnan(_ndtr(math.nan))

    def test_owens_t_against_scipy(self):
        h = np.linspace(-8.0, 8.0, 161)
        for a in [*np.exp(np.linspace(-5.0, 5.0, 41)).tolist(), 1.0, 0.0]:
            for signed in (a, -a):
                mine = np.array([_owens_t(v, signed) for v in h.tolist()])
                assert np.allclose(mine, special.owens_t(h, signed), rtol=0.0, atol=2e-16)


def inverse_sqrt_from_eigh(m):
    # W = Q diag(lam^-1/2) Q', the instrument whitener that stacked_moments builds
    lam, q, notes = floored_eigh(m)
    assert all(note is None for note in notes)
    return (q * lam[..., None, :] ** -0.5) @ np.swapaxes(q, -1, -2)


class TestFlooredEigh:
    def test_identity(self):
        lam, q, notes = floored_eigh(np.eye(3))
        assert np.array_equal(lam, np.ones(3)) and notes == [None]
        assert np.allclose(inverse_sqrt_from_eigh(np.eye(3)), np.eye(3), atol=1e-12)

    def test_diagonal(self):
        lam, _, _ = floored_eigh(np.diag([9.0, 4.0]))
        assert np.allclose(lam, [4.0, 9.0], atol=1e-12)
        w = inverse_sqrt_from_eigh(np.diag([4.0, 9.0]))
        assert np.allclose(w, np.diag([0.5, 1.0 / 3.0]), atol=1e-12)

    def test_defining_identity_on_2x2(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        lam, _, _ = floored_eigh(m)
        assert np.allclose(lam, [1.0, 3.0], atol=1e-12)
        w = inverse_sqrt_from_eigh(m)
        assert np.allclose(w @ m @ w, np.eye(2), atol=1e-8)

    def test_random_spd_batch(self):
        rng = np.random.default_rng(11)
        for k in range(1, 5):
            q0, _ = np.linalg.qr(rng.standard_normal((25, k, k)))
            lam0 = rng.uniform(0.1, 10.0, (25, k))
            stack = (q0 * lam0[:, None, :]) @ np.swapaxes(q0, 1, 2)
            lam, q, notes = floored_eigh(stack)
            assert notes == [None] * 25
            assert np.allclose((q * lam[:, None, :]) @ np.swapaxes(q, 1, 2), stack,
                               atol=1e-10)
            assert np.allclose(lam, np.sort(lam0, axis=1), atol=1e-10)
            for m, lam_m in zip(stack, lam):
                assert np.allclose(floored_eigh(m)[0], lam_m, atol=1e-12)
            w = inverse_sqrt_from_eigh(stack)
            assert np.allclose(w, np.swapaxes(w, 1, 2), atol=1e-12)
            assert np.allclose(w @ stack @ w, np.eye(k), atol=1e-8)

    def test_singular_matrix_reports_eigenvalue(self):
        lam, _, (note,) = floored_eigh(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert lam[1] == pytest.approx(2.0, abs=1e-12)
        assert note == (f"eigenvalue {lam[0]:.6e} below relative floor "
                        f"{RELATIVE_EIG_FLOOR:g} * {lam[1]:.6e}")

    def test_asymmetric_input_uses_symmetric_part(self):
        m = np.array([[1.0, 0.5], [0.0, 1.0]])
        lam, q, notes = floored_eigh(m)
        assert np.allclose(lam, [0.75, 1.25], atol=1e-12) and notes == [None]
        sym = 0.5 * (m + m.T)
        assert np.allclose((q * lam) @ q.T, sym, atol=1e-12)

    def test_solve_matches_direct_solve(self):
        # the S_T engine's solve: x = Q diag(1/lam) Q' rhs
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4))
        m = a @ a.T + 4.0 * np.eye(4)
        rhs = rng.standard_normal(4)
        lam, q, _ = floored_eigh(m)
        assert np.allclose(q @ ((q.T @ rhs) / lam), np.linalg.solve(m, rhs),
                           atol=1e-10)

    def test_nonpositive_spectrum_flagged(self):
        # a zero or a negative definite matrix never passes the floor
        _, _, notes = floored_eigh(np.stack([np.zeros((2, 2)), -np.eye(2)]))
        assert notes[0] == ("eigenvalue 0.000000e+00 below relative floor "
                            f"{RELATIVE_EIG_FLOOR:g} * 0.000000e+00")
        assert notes[1] == ("eigenvalue -1.000000e+00 below relative floor "
                            f"{RELATIVE_EIG_FLOOR:g} * -1.000000e+00")

    def test_floored_eigh_flags_each_matrix_of_a_stack(self):
        # a stack mixing a well-conditioned, a rank-one, a near-floor and a
        # zero matrix: each gets the verdict and message it gets alone
        stack = np.array([
            [[2.0, 1.0], [1.0, 2.0]],
            [[1.0, 1.0], [1.0, 1.0]],
            [[1.0, 0.0], [0.0, 5e-11]],
            [[0.0, 0.0], [0.0, 0.0]],
        ])
        lam, q, notes = floored_eigh(stack)
        assert lam.shape == (4, 2) and q.shape == (4, 2, 2)
        assert notes[0] is None
        for m, note in zip(stack[1:], notes[1:]):
            assert floored_eigh(m)[2] == [note]
            assert "below relative floor" in note


def normal_pdf(mean, sd):
    def density(x):
        z = (x - mean) / sd
        return math.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))

    return density


class TestGeneralizedModalMidpoint:
    def test_standard_normal_returns_center(self):
        value = generalized_modal_midpoint(normal_pdf(0.0, 1.0), 0.5)
        assert value == pytest.approx(0.0, abs=1e-6)

    def test_translation_equivariance(self):
        value = generalized_modal_midpoint(
            normal_pdf(3.0, 1.0), 0.5, support=(-7.0, 13.0)
        )
        assert value == pytest.approx(3.0, abs=1e-6)

    @pytest.mark.parametrize("delta", [1.0, 0.5, 0.2])
    def test_symmetric_unimodal_center_for_all_delta(self, delta):
        value = generalized_modal_midpoint(
            normal_pdf(-2.0, 0.5), delta, support=(-8.0, 4.0)
        )
        assert value == pytest.approx(-2.0, abs=1e-6)

        def logistic(x, loc=1.0, s=0.5):
            z = math.exp(-(x - loc) / s)
            return z / (s * (1.0 + z) ** 2)

        value = generalized_modal_midpoint(logistic, delta, support=(-14.0, 16.0))
        assert value == pytest.approx(1.0, abs=1e-6)

    def test_unnormalized_density_rejected(self):
        with pytest.raises(ValueError, match="mass"):
            generalized_modal_midpoint(lambda x: 2.0 * normal_pdf(0, 1)(x), 0.5)

    def test_nonpositive_delta_rejected(self):
        with pytest.raises(ValueError):
            generalized_modal_midpoint(normal_pdf(0, 1), 0.0)


class TestScalarSearches:
    """_brentq and _golden take scipy.optimize's steps, so they return its
    points to the last bit."""

    @pytest.mark.parametrize("f, a, b, xtol", [
        (math.cos, 0.0, 3.0, 1e-14),
        (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0, 1e-12),
        (lambda x: math.tanh(40.0 * (x - 0.3)), -1.0, 5.0, 1e-10),
        (lambda x: x - 1.0, 1.0, 2.0, 1e-12),  # a root at an end
    ])
    def test_brentq_equals_scipy(self, f, a, b, xtol):
        assert _brentq(f, a, b, xtol) == optimize.brentq(f, a, b, xtol=xtol)

    def test_brentq_needs_a_sign_change(self):
        with pytest.raises(ValueError, match="different signs"):
            _brentq(math.exp, 0.0, 1.0, 1e-12)

    @pytest.mark.parametrize("f, bracket, xtol", [
        (lambda x: (x - 0.7) ** 4 + 0.1 * x, (-1.0, 0.5, 2.0), 1e-10),
        (lambda x: -math.exp(-0.5 * (x + 2.0) ** 2), (-2.5, -2.1, -1.0), 1e-12),
        (math.cosh, (-3.0, 0.9, 1.0), 1e-12),  # the short side on the right
    ])
    def test_golden_equals_scipy(self, f, bracket, xtol):
        expected = optimize.minimize_scalar(f, bracket=bracket, method="golden",
                                            options={"xtol": xtol}).x
        assert _golden(f, *bracket, xtol) == expected


class TestRandomStream:
    def test_same_key_bitwise_identical(self):
        a = RandomStream(seed=123, stream_id=7).generator().random(64)
        b = RandomStream(seed=123, stream_id=7).generator().random(64)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RandomStream(123, 0).generator().random(64)
        b = RandomStream(123, 1).generator().random(64)
        c = RandomStream(124, 0).generator().random(64)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_key_outside_uint64_rejected(self):
        for seed, stream_id, name in [(-1, 5, "seed"), (1 << 64, 5, "seed"),
                                      (3, -1, "stream_id"),
                                      (3, 1 << 64, "stream_id")]:
            with pytest.raises(ValueError,
                               match=rf"{name} must lie in \[0, 2\*\*64\)"):
                RandomStream(seed, stream_id)
        top = RandomStream((1 << 64) - 1, (1 << 64) - 1).generator().random(4)
        assert np.all((0.0 <= top) & (top < 1.0))

    @pytest.mark.parametrize("n", [1, 7, 1001])
    def test_standard_normal_rows_match_fresh_generators(self, n):
        # an odd n leaves a partly used Philox buffer behind each row; the
        # next row must start from a freshly keyed state all the same
        top = (1 << 64) - 1
        streams = [RandomStream(0, 0), RandomStream(5, 3), RandomStream(top, top),
                   RandomStream(0, top), RandomStream(top, 0), RandomStream(5, 3)]
        rows = standard_normal_rows(streams, n)
        assert rows.shape == (len(streams), n)
        for row, stream in zip(rows, streams):
            assert np.array_equal(row, stream.generator().standard_normal(n))
        # one draw of 2n is two successive draws of n
        rng = streams[1].generator()
        halves = np.concatenate([rng.standard_normal(n), rng.standard_normal(n)])
        assert np.array_equal(standard_normal_rows(streams[1:2], 2 * n)[0], halves)

    def test_kernel_dataclass_is_frozen(self):
        with pytest.raises(Exception):
            get_kernel("gaussian").deriv_sq_integral = 1.0  # type: ignore[misc]

    def test_kernel_type(self):
        assert isinstance(get_kernel("gaussian"), Kernel)
