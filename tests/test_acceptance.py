"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every criterion is verified against an independent oracle or an exactly
checkable property; tolerances are stated inline.
"""

import numpy as np
import pytest
from scipy import stats
from scipy.stats import ortho_group

import lgcp_design as ld
from lgcp_design.cli import main as cli_main
from conftest import gaussian_posterior_kl, whitened_inverse


def _report(capsys, num, description, ok, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        extra = f" ({detail})" if detail else ""
        print(f"\n[{status}] criterion {num}: {description}{extra}")
    assert ok, f"criterion {num} failed: {detail}"


def _separated_points(rng, n, dmin):
    pts = []
    while len(pts) < n:
        u = rng.random(3)
        if all(np.linalg.norm(u - p) >= dmin for p in pts):
            pts.append(u)
    return np.array(pts)


def _paired_ci(diff, level=0.975):
    diff = np.asarray(diff, dtype=float)
    half = stats.t.ppf(level, diff.size - 1) * diff.std(ddof=1) / np.sqrt(diff.size)
    return diff.mean() - half, diff.mean() + half


class _MatrixModel:
    """Stub model with a fixed covariance matrix, indexed by the s1 coordinate.

    Used to exercise the Gaussian KL of the Laplace fit on arbitrarily
    conditioned covariance instances independent of any kernel.
    """

    def __init__(self, K, mu, noise_variance):
        self.K = K
        self.mu = mu
        self.obs = ld.GaussianObs(noise_variance)
        self.jitter = 0.0

    def _idx(self, pts):
        return np.atleast_2d(pts)[:, 0].astype(int)

    def cov_at(self, a, b=None):
        ia = self._idx(a)
        ib = ia if b is None else self._idx(b)
        return self.K[np.ix_(ia, ib)]

    def mean_at(self, pts):
        return self.mu[self._idx(pts)]

    def moments_at(self, pts):
        idx = self._idx(pts)
        return self.mu[idx], self.K[idx, idx]


def test_criterion_01_gaussian_kl_closed_form(capsys):
    """The Laplace-fit KL under Gaussian observations vs the generic
    multivariate-normal KL oracle, whose moments have a closed form."""
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(2000 + trial)
        n = int(rng.integers(1, 21))
        if n == 1:
            K = np.array([[float(rng.uniform(0.5, 3.0))]])
        else:
            Q = ortho_group.rvs(n, random_state=rng)
            K = Q @ np.diag(rng.uniform(0.5, 3.0, n)) @ Q.T
            K = 0.5 * (K + K.T)
        mu = rng.normal(size=n)
        s2n = float(rng.uniform(0.1, 2.0))
        y = rng.normal(size=n) * 2.0
        model = _MatrixModel(K, mu, s2n)
        X = np.column_stack([np.arange(n), np.zeros(n), np.zeros(n)])
        kl = ld.kl_lemma1(ld.fit_lgcp(model, X, y))
        oracle = gaussian_posterior_kl(mu, K, s2n, y)
        worst = max(worst, abs(kl - oracle) / max(abs(oracle), 1e-300))
    _report(
        capsys, 1,
        "Laplace-fit Gaussian KL matches generic Gaussian-KL oracle "
        "on 100 instances within 1e-8 relative",
        worst < 1e-8, f"worst relative difference {worst:.2e}",
    )


def test_criterion_02_lemma1_exact_for_gaussian(capsys):
    """Quadrature KL equals the generic Gaussian-KL oracle when the likelihood is Gaussian."""
    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng(4000 + trial)
        mode = ["additive", "separable"][trial % 2]
        sv = 1.0 if mode == "separable" else float(rng.uniform(0.5, 2.0))
        cov = ld.CovStructure(
            mode,
            ld.KernelSpec("matern32", float(rng.uniform(0.25, 0.8)), sv),
            ld.KernelSpec("matern32", float(rng.uniform(0.25, 0.8)), float(rng.uniform(0.5, 2.0))),
        )
        s2n = float(rng.uniform(0.5, 2.0))
        mean = ld.MeanFunction.constant(float(rng.normal()))
        model = ld.Model(mean, cov, ld.GaussianObs(s2n))
        n = int(rng.integers(2, 10))
        X = _separated_points(rng, n, 0.25)
        y = model.mean_at(X) + rng.normal(size=n)
        kl_quad = ld.kl_lemma1(ld.fit_lgcp(model, X, y))
        K = model.cov_at(X) + model.jitter * np.eye(n)
        kl_closed = gaussian_posterior_kl(model.mean_at(X), K, s2n, y)
        worst = max(worst, abs(kl_quad - kl_closed) / max(abs(kl_closed), 1e-12))
    _report(
        capsys, 2,
        "quadrature KL equals generic Gaussian-KL oracle on 50 instances "
        "within 1e-6 relative",
        worst < 1e-6, f"worst relative difference {worst:.2e}",
    )


def _poisson_kl_bruteforce(model, X, y, nodes=4001, half_width=8.0):
    """Dense-quadrature KL oracle over the exact posterior, n in {1, 2}.

    The grid is the tensor product of one axis per site, kept as its axes:
    the prior's quadratic form broadcasts over them, and the Poisson log
    likelihood (up to constants) is a sum of one term per axis, so the
    posterior expectation and the evidence reduce to per-axis sums.
    """
    n = X.shape[0]
    K = model.cov_at(X) + model.jitter * np.eye(n)
    mu = model.mean_at(X)
    sd = np.sqrt(np.diag(K))
    axes = [
        np.linspace(mu[i] - half_width * sd[i], mu[i] + half_width * sd[i], nodes)
        for i in range(n)
    ]
    Kinv = np.linalg.inv(K)
    lik = [y[i] * axes[i] - np.exp(axes[i]) for i in range(n)]
    if n == 1:
        log_prior = -0.5 * Kinv[0, 0] * (axes[0] - mu[0]) ** 2
        log_joint = log_prior + lik[0]
    else:
        d0, d1 = (axes[0] - mu[0])[:, None], (axes[1] - mu[1])[None, :]
        log_prior = Kinv[0, 0] * d0**2 + Kinv[1, 1] * d1**2
        log_prior += (Kinv[0, 1] + Kinv[1, 0]) * d0 * d1
        log_prior *= -0.5
        log_joint = log_prior + lik[0][:, None]
        log_joint += lik[1][None, :]
    # normalized posterior and prior weights, in place of the log arrays
    w = log_joint
    w -= w.max()
    np.exp(w, out=w)
    w /= w.sum()
    pw = log_prior
    pw -= pw.max()
    np.exp(pw, out=pw)
    pw /= pw.sum()
    top = [t.max() for t in lik]
    scaled = [np.exp(t - m) for t, m in zip(lik, top)]
    if n == 1:
        post_lik = w @ lik[0]
        evidence = pw @ scaled[0]
    else:
        post_lik = w.sum(axis=1) @ lik[0] + w.sum(axis=0) @ lik[1]
        evidence = scaled[0] @ pw @ scaled[1]
    # KL(post || prior) = E_post[log lik] - log E_prior[lik]
    log_ml = np.log(evidence) + sum(top)
    return float(post_lik - log_ml)


def test_criterion_03_lemma1_vs_bruteforce_poisson(capsys):
    """Laplace KL vs dense-quadrature exact-posterior oracle, Poisson counts.

    Counts are prior-predictive draws conditioned on at least 5 events per
    site; smaller counts leave the latent posterior strongly skewed, outside
    the quoted 5% Laplace error budget.
    """
    cov = ld.CovStructure(
        "additive", ld.KernelSpec("matern32", 0.8, 0.5), ld.KernelSpec("sqexp", 1.5, 0.5)
    )
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(3000 + trial)
        mu_c = float(rng.uniform(1.0, 2.0))
        model = ld.Model(ld.MeanFunction.constant(mu_c), cov, ld.Poisson())
        n = 1 + trial % 2
        X = rng.random((n, 3))
        L = np.linalg.cholesky(model.cov_at(X) + 1e-10 * np.eye(n))
        while True:
            f = model.mean_at(X) + L @ rng.standard_normal(n)
            y = rng.poisson(np.exp(f)).astype(float)
            if y.min() >= 5:
                break
        kl = ld.kl_lemma1(ld.fit_lgcp(model, X, y))
        oracle = _poisson_kl_bruteforce(model, X, y, nodes=4001)
        worst = max(worst, abs(kl - oracle) / max(abs(oracle), 1e-12))
    _report(
        capsys, 3,
        "Laplace KL within 5% of a 4001-node quadrature oracle "
        "on 20 Poisson instances (n in {1, 2})",
        worst < 0.05, f"worst relative error {worst:.3f}",
    )


def test_criterion_04_zero_information_limit(capsys):
    """Prior mean -20: counts are all zero, so the design learns nothing."""
    cov = ld.CovStructure(
        "additive", ld.KernelSpec("matern32", 0.8, 2.0), ld.KernelSpec("sqexp", 1.5, 2.0)
    )
    model = ld.Model(ld.MeanFunction.constant(-20.0), cov, ld.Poisson())
    grid = ld.discretize(ld.unit_cube(), (6, 6, 5))
    design = ld.random_design(15, seed=1)
    apv = ld.expected_apv(model, design, grid, 20, seed=2, target="latent")
    prior_apv = cov.total_variance
    kl = ld.expected_kl(model, design, 20, seed=3)
    apv_ok = abs(apv.value - prior_apv) / prior_apv < 0.01
    kl_ok = kl.value <= max(1e-3, 2.0 * kl.std_error)
    _report(
        capsys, 4,
        "zero-information limit: expected APV equals prior APV within 1% "
        "and expected KL is statistically zero",
        apv_ok and kl_ok,
        f"APV {apv.value:.4f} vs prior {prior_apv:.4f}; KL {kl.value:.2e}",
    )


def _benefit_setup():
    dom = ld.unit_cube()
    grid = ld.discretize(dom, (10, 10, 8))
    cov = ld.CovStructure(
        "additive", ld.KernelSpec("matern32", 0.8, 2.0), ld.KernelSpec("sqexp", 1.5, 2.0)
    )
    mean = ld.MeanFunction.concave_quadratic_time(2.0, 0.5, 30.0)
    return dom, grid, cov, mean


def test_criterion_05_rejection_benefit_poisson(capsys):
    """Rejection thinning reduces expected APV-intensity under Poisson counts."""
    dom, grid, cov, mean = _benefit_setup()
    model = ld.Model(mean, cov, ld.Poisson())
    incl = ld.InclusionProbability.build("scaled_latent_mean", model, grid)
    n, M = 50, 50
    designs = {
        "random": ld.random_design(n, dom, seed=11),
        "random+rej": ld.rejection_wrap("random", incl, n, dom, seed=11),
        "halton": ld.halton(n, domain=dom),
        "halton+rej": ld.rejection_wrap("halton", incl, n, dom, seed=11),
        "sobol": ld.sobol(n, domain=dom),
        "sobol+rej": ld.rejection_wrap("sobol", incl, n, dom, seed=11),
    }
    rows = ld.compare_designs(
        model, designs, ["apv_intensity"], grid, M, seed=123,
        base_of={"random+rej": "random", "halton+rej": "halton", "sobol+rej": "sobol"},
    )
    byname = {r["design_name"]: r for r in rows}
    ok = True
    details = []
    for base in ("random", "halton", "sobol"):
        rb = byname[base]["replicates"]
        rr = byname[base + "+rej"]["replicates"]
        keep = np.isfinite(rb) & np.isfinite(rr)
        diff = rb[keep] - rr[keep]
        lo, hi = _paired_ci(diff)
        reduction = 100.0 * diff.mean() / rb[keep].mean()
        ok &= lo > 0.0 and 5.0 <= reduction <= 50.0
        details.append(f"{base} {reduction:.1f}% CI [{lo:.2f}, {hi:.2f}]")
    _report(
        capsys, 5,
        "rejection variants cut expected APV-intensity by 5-50% with "
        "paired 95% CIs excluding zero (Random, Halton, Sobol)",
        ok, "; ".join(details),
    )


def test_criterion_06_gaussian_reversal(capsys):
    """With Gaussian observations, rejection thinning makes APV worse."""
    dom, grid, cov, mean = _benefit_setup()
    pois_model = ld.Model(mean, cov, ld.Poisson())
    gauss_model = ld.Model(mean, cov, ld.GaussianObs(0.5))
    incl = ld.InclusionProbability.build("scaled_latent_mean", pois_model, grid)
    n = 50
    ok = True
    details = []
    for base in ("random", "halton"):
        diffs = []
        for s in range(20):
            if base == "random":
                bd = ld.random_design(n, dom, seed=s)
                rd = ld.rejection_wrap("random", incl, n, dom, seed=s)
            else:
                bd = ld.halton(n, offset=s * n, domain=dom)
                rd = ld.rejection_wrap("halton", incl, n, dom, seed=s, offset=s * n)
            # Gaussian APV is deterministic per design, so M = 2 suffices
            eb = ld.expected_apv(gauss_model, bd, grid, 2, seed=0, target="latent").value
            er = ld.expected_apv(gauss_model, rd, grid, 2, seed=0, target="latent").value
            diffs.append(er - eb)
        lo, hi = _paired_ci(diffs)
        ok &= lo > 0.0
        details.append(f"{base} rejection-base APV {np.mean(diffs):+.4f} CI [{lo:.4f}, {hi:.4f}]")
    _report(
        capsys, 6,
        "Gaussian likelihood reverses the benefit: rejection APV exceeds the "
        "base design's with 95% CIs excluding zero (Random, Halton)",
        ok, "; ".join(details),
    )


def test_criterion_07_inhibitory_constraints(capsys):
    """Inhibitory designs satisfy their minimum-distance constraint exactly."""
    ok = True
    worst_margin = np.inf
    for n, delta in ((50, 0.21), (100, 0.15), (150, 0.10)):
        for seed in range(20):
            pts = ld.simple_inhibitory(n, delta, seed=seed).points
            d = np.sqrt(np.sum((pts[:, None] - pts[None, :]) ** 2, axis=-1))
            np.fill_diagonal(d, np.inf)
            ok &= bool(d.min() >= delta) and pts.shape[0] == n
            worst_margin = min(worst_margin, d.min() - delta)
    _report(
        capsys, 7,
        "all pairwise distances >= delta for (n, delta) in "
        "{(50, 0.21), (100, 0.15), (150, 0.10)} over 20 seeds each",
        ok, f"smallest margin above delta {worst_margin:.2e}",
    )


def test_criterion_08_degenerate_thinning(capsys):
    """Inclusion probability 1 everywhere reproduces the base designs exactly."""
    one = ld.InclusionProbability.constant(1.0)
    n = 25
    checks = {
        "random": np.array_equal(
            ld.rejection_wrap("random", one, n, seed=9).points,
            ld.random_design(n, seed=9).points,
        ),
        "halton": np.array_equal(
            ld.rejection_wrap("halton", one, n, seed=9).points, ld.halton(n).points
        ),
        "sobol": np.array_equal(
            ld.rejection_wrap("sobol", one, n, seed=9).points, ld.sobol(n).points
        ),
        "fibonacci": np.array_equal(
            ld.rejection_wrap("fibonacci", one, n, seed=9).points,
            ld.fibonacci_lattice_3d(n).points,
        ),
    }
    grid = ld.discretize(ld.unit_cube(), (5, 5, 4))
    checks["space_fill"] = np.array_equal(
        ld.space_fill_rejection(n, grid.cells, one, seed=9).points,
        ld.coffee_house(n, grid.cells).points,
    )
    ok = all(checks.values())
    bad = [k for k, v in checks.items() if not v]
    _report(
        capsys, 8,
        "rejection thinning with p = 1 reproduces every base generator exactly",
        ok, f"mismatches: {bad}" if bad else "all five generators identical",
    )


def test_criterion_09_woodbury_identity(capsys):
    """The whitener of every fit and prediction gives (K + W^-1)^-1 as a
    direct inverse does."""
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(5000 + trial)
        n = int(rng.integers(2, 20))
        cov = ld.CovStructure(
            "additive",
            ld.KernelSpec("matern32", float(rng.uniform(0.3, 1.0)), 1.0),
            ld.KernelSpec("sqexp", float(rng.uniform(0.3, 1.0)), 1.0),
        )
        X = _separated_points(rng, n, 0.12)
        K = ld.cov_matrix(X, X, cov) + 1e-8 * np.eye(n)
        W = 10.0 ** rng.uniform(-12, 2, n)
        A = np.linalg.inv(K + np.diag(1.0 / W))
        B = whitened_inverse(K, W)
        worst = max(worst, np.max(np.abs(A - B)) / max(np.max(np.abs(A)), 1.0))
    _report(
        capsys, 9,
        "whitener and direct (K + W^-1)^-1 agree within 1e-8 on 100 instances "
        "with W entries down to 1e-12",
        worst < 1e-8, f"worst elementwise difference {worst:.2e}",
    )


def test_criterion_10_derivatives_and_stationarity(capsys):
    """Likelihood derivatives vs finite differences; MAP fits are stationary."""
    h = 1e-5
    worst_fd = 0.0
    for obs in (ld.Poisson(), ld.NegativeBinomial(5.0, 1.0), ld.NegativeBinomial(0.7, 2.5)):
        for y in (0.0, 1.0, 4.0, 11.0):
            for f in (-1.0, 0.0, 0.8, 2.0):
                g_fd = (obs.loglik(y, f + h) - obs.loglik(y, f - h)) / (2 * h)
                w_fd = -(obs.grad(y, f + h) - obs.grad(y, f - h)) / (2 * h)
                worst_fd = max(
                    worst_fd,
                    abs(obs.grad(y, f) - g_fd) / max(abs(g_fd), 1e-2),
                    abs(obs.hessian_diag(y, f) - w_fd) / max(abs(w_fd), 1e-2),
                )
    cov = ld.CovStructure(
        "additive", ld.KernelSpec("matern32", 0.8, 2.0), ld.KernelSpec("sqexp", 1.5, 2.0)
    )
    mean = ld.MeanFunction.concave_quadratic_time(2.0, 0.5, 30.0)
    worst_grad = 0.0
    for trial in range(20):
        rng = np.random.default_rng(6000 + trial)
        obs = ld.Poisson() if trial % 2 == 0 else ld.NegativeBinomial(5.0, 1.0)
        model = ld.Model(mean, cov, obs)
        n = int(rng.integers(5, 30))
        X = rng.random((n, 3))
        f = ld.sample_prior(model, X, 1, rng.integers(2**32))[0]
        y = ld.sample_counts(model, f, rng.integers(2**32)).astype(float)
        post = ld.fit_lgcp(model, X, y)
        grad = obs.grad(y, post.f_hat) - post.alpha
        worst_grad = max(worst_grad, float(np.max(np.abs(grad))))
    _report(
        capsys, 10,
        "Poisson and Negative-Binomial derivatives match finite differences "
        "within 1e-5, and every converged MAP fit has gradient max-norm < 1e-8",
        worst_fd < 1e-5 and worst_grad < 1e-8,
        f"worst FD mismatch {worst_fd:.2e}; worst MAP gradient {worst_grad:.2e}",
    )


def test_criterion_11_negbin_poisson_limit(capsys):
    """Huge dispersion makes Negative-Binomial draws effectively Poisson."""
    cov = ld.CovStructure(
        "additive", ld.KernelSpec("matern32", 0.8, 2.0), ld.KernelSpec("sqexp", 1.5, 2.0)
    )
    model = ld.Model(
        ld.MeanFunction.constant(1.0), cov, ld.NegativeBinomial(1e9, 1.0)
    )
    f = np.full(100_000, 1.0)
    y = ld.sample_counts(model, f, seed=1)
    ratio = float(np.var(y) / np.mean(y))
    _report(
        capsys, 11,
        "Negative-Binomial with r = 1e9: variance/mean of 1e5 draws in [0.97, 1.03]",
        0.97 <= ratio <= 1.03, f"ratio {ratio:.4f}",
    )


def test_criterion_12_simstudy_determinism(capsys, tmp_path, monkeypatch):
    """A 2-cell sweep is byte-identical across reruns and thread counts."""
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "cov_mode additive\n"
        "l_t 1.5\n"
        "sigma2_t 2\n"
        "l_s 0.6 0.8\n"
        "design halton\n"
        "n 15\n"
        "criterion apv_intensity\n"
        "M 5\n"
        "seed 7\n"
        "grid_resolution 5 5 4\n"
    )
    outputs = []
    for name, threads in (("a", None), ("b", None), ("c", "4")):
        if threads is None:
            monkeypatch.delenv("LGCP_DESIGN_THREADS", raising=False)
        else:
            monkeypatch.setenv("LGCP_DESIGN_THREADS", threads)
        out = tmp_path / name
        code = cli_main(["simstudy", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        outputs.append(
            (out / "cells.csv").read_bytes() + (out / "aggregated.csv").read_bytes()
        )
    ok = outputs[0] == outputs[1] == outputs[2]
    _report(
        capsys, 12,
        "simstudy outputs byte-identical across reruns, serial and 4-thread",
        ok,
    )
