"""Independent reference implementations used as test oracles.

Everything in this module is written against the underlying formulas directly,
without importing the production package, so that tests compare two separate
routes to the same number. High-precision pieces use mpmath; brute-force
integrals use dense fixed grids (deterministic, no adaptivity shared with the
code under test).
"""

import mpmath as mp
import numpy as np
from scipy.integrate import quad
from scipy.special import k0e, k1e


# ---------------------------------------------------------------------------
# Lorentz-sum susceptibility, high-precision route
# ---------------------------------------------------------------------------

def chi_mp(terms, omega, dps=40):
    """chi(omega) = sum wp2 / (w0^2 - omega^2 - i*gd*omega) via mpmath.

    terms: iterable of (plasma_strength, resonance, damping) tuples.
    Returns a python complex.
    """
    with mp.workdps(dps):
        w = mp.mpc(omega)
        s = mp.mpc(0)
        for wp2, w0, gd in terms:
            s += mp.mpf(wp2) / (mp.mpf(w0) ** 2 - w * w - 1j * mp.mpf(gd) * w)
        return complex(s)


def drude_re_chi(wp2, gd, omega):
    """Closed-form Re chi for a Drude term: -wp2 / (gd^2 + omega^2)."""
    return -wp2 / (gd * gd + omega * omega)


# ---------------------------------------------------------------------------
# Bessel J0, self-contained series + Hankel asymptotic (switch at 16)
# ---------------------------------------------------------------------------

def j0_reference(x, dps=40):
    """J0 by power series (x <= 16) or Hankel expansion (x > 16).

    Runs in mpmath arithmetic so series cancellation (about 6 digits at the
    switch point) does not eat into the 1e-12 comparison budget.
    """
    with mp.workdps(dps):
        x = mp.mpf(abs(x))
        if x <= 16:
            s = mp.mpf(0)
            t = mp.mpf(1)
            x2 = x * x / 4
            for k in range(200):
                s += t
                t = -t * x2 / ((k + 1) ** 2)
                if abs(t) < mp.mpf(10) ** (-dps):
                    break
            return float(s)
        # Hankel symbol recurrence c_{m+1} = c_m * (-(2m+1)^2) / (4(m+1))
        P = mp.mpf(0)
        Q = mp.mpf(0)
        c = mp.mpf(1)
        last = mp.inf
        for m in range(60):
            term = c / (2 * x) ** m
            if abs(term) > last:
                break
            last = abs(term)
            sgn = (-1) ** (m // 2)
            if m % 2 == 0:
                P += sgn * term
            else:
                Q += sgn * term
            c = c * (-((2 * m + 1) ** 2)) / (4 * (m + 1))
        w = x - mp.pi / 4
        return float(mp.sqrt(2 / (mp.pi * x)) * (mp.cos(w) * P - mp.sin(w) * Q))


# ---------------------------------------------------------------------------
# Oversampled fixed-rule quadrature (Gauss-Legendre, no adaptivity)
# ---------------------------------------------------------------------------

def gauss_fixed(f, a, b, n=2000):
    """Dense fixed-order Gauss-Legendre estimate of int_a^b f."""
    x, w = np.polynomial.legendre.leggauss(n)
    xm = 0.5 * (b + a) + 0.5 * (b - a) * x
    return 0.5 * (b - a) * np.sum(w * f(xm))


# ---------------------------------------------------------------------------
# Textbook Fresnel coefficients (stationary half-space), kz convention
# ---------------------------------------------------------------------------

def fresnel_textbook(eps, mu, kpar, omega):
    """s and p reflection amplitudes for vacuum | (eps, mu) half-space.

    Written in the propagation-constant form r_s = (mu*kz1 - kz2)/(mu*kz1 + kz2),
    r_p = (eps*kz1 - kz2)/(eps*kz1 + kz2) with kz = sqrt(eps*mu*w^2 - kpar^2),
    branch Im kz >= 0 (decay into each half-space). c = 1 units.
    """
    kz1 = np.emath.sqrt(omega ** 2 - kpar ** 2 + 0j)
    kz2 = np.emath.sqrt(eps * mu * omega ** 2 - kpar ** 2 + 0j)
    # retarded branch: Im kz >= 0 so evanescent waves decay away from z = 0
    if np.imag(kz1) < 0 or (np.imag(kz1) == 0 and np.real(kz1) < 0):
        kz1 = -kz1
    if np.imag(kz2) < 0 or (np.imag(kz2) == 0 and np.real(kz2) < 0):
        kz2 = -kz2
    if np.real(kz1) > 0 and np.sign(omega) < 0:
        kz1 = -kz1
    if np.real(kz2) > 0 and np.sign(omega) < 0:
        kz2 = -kz2
    r_s = (mu * kz1 - kz2) / (mu * kz1 + kz2)
    r_p = (eps * kz1 - kz2) / (eps * kz1 + kz2)
    return complex(r_s), complex(r_p)


# ---------------------------------------------------------------------------
# Finite-eta oracle for the coincident free-space Im G (kx-resolved)
# ---------------------------------------------------------------------------

def im_free_green_eta(kx, omega, eta, kcut=50.0, n_coarse=4000, n_fine=6000):
    """Im of int d2K/(2pi)^2 of the free-space k-space Green tensor at fixed kx.

    The azimuthal average of k (x) k over the transverse plane is
    diag(kx^2, K^2/2, K^2/2), which reduces the 2-D integral to 1-D in
    kappa = |k|. The retarded denominator keeps eta finite; callers
    Richardson-extrapolate eta -> 0.
    """
    lo = abs(kx)
    # composite grid: coarse over the full range, geometric refinement at the pole
    kap = [np.linspace(lo, kcut, n_coarse)]
    if lo < omega < kcut:
        half = np.geomspace(eta * 1e-3, 0.5 * omega, n_fine // 2)
        kap.append(omega - half[::-1])
        kap.append(omega + half)
    kap = np.unique(np.concatenate(kap))
    kap = kap[(kap >= lo) & (kap <= kcut)]
    K2 = kap ** 2 - kx ** 2
    denom = omega ** 2 * (kap - omega - 1j * eta) * (kap + omega + 1j * eta)
    out = np.zeros((3, 3))
    for i, num in enumerate([kx ** 2 - omega ** 2, K2 / 2 - omega ** 2]):
        integrand = np.imag(-num / denom) * kap / (2 * np.pi)
        val = np.trapezoid(integrand, kap)
        if i == 0:
            out[0, 0] = val
        else:
            out[1, 1] = out[2, 2] = val
    return out


def im_free_green_richardson(kx, omega, etas=(1e-2, 1e-3, 1e-4)):
    """Two-stage Richardson extrapolation of im_free_green_eta to eta = 0."""
    vals = [im_free_green_eta(kx, omega, e) for e in etas]
    # first stage: remove the O(eta) error between consecutive eta pairs
    r1 = []
    for (e1, v1), (e2, v2) in zip(zip(etas, vals), zip(etas[1:], vals[1:])):
        r1.append((e1 * v2 - e2 * v1) / (e1 - e2))
    # second stage on the pair of first-stage values
    e1, e2 = etas[0], etas[1]
    return (e1 * r1[1] - e2 * r1[0]) / (e1 - e2)


# ---------------------------------------------------------------------------
# Raw frequency-integral route to the moving susceptibility tensors
# ---------------------------------------------------------------------------

def _im_chi_scalar(terms, w):
    return sum(
        (wp2 / ((w0 ** 2 - w ** 2) ** 2 + (gd * w) ** 2)) * gd * w
        for wp2, w0, gd in terms
    )


def chi_spectral(terms, Om, wmax=400.0):
    """chi(Om) from its spectral representation, evaluated independently.

    chi(Om) = (2/pi) P int_0^inf w Im chi(w) / (w^2 - Om^2) dw + i Im chi(|Om|) sgn(Om)

    The PV integral uses scipy's Cauchy-weight quadrature, a different
    algorithm family from the production code.
    """
    s = abs(Om)

    def f(w):
        return (2 / np.pi) * w * _im_chi_scalar(terms, w) / (w + s)

    if s == 0:
        val, _ = quad(lambda w: (2 / np.pi) * _im_chi_scalar(terms, w) / w,
                      0, wmax, limit=400)
        return complex(val)
    pv1, _ = quad(f, 0, 2 * s, weight="cauchy", wvar=s, limit=400)
    rest, _ = quad(lambda w: (2 / np.pi) * w * _im_chi_scalar(terms, w)
                   / (w ** 2 - s ** 2), 2 * s, wmax, limit=400)
    im = _im_chi_scalar(terms, s) * np.sign(Om)
    return complex(pv1 + rest + im * 1j)


def moving_chi_tensors_spectral(e_terms, b_terms, beta, omega_lab, kx):
    """Moving-medium susceptibility tensors from the raw integral route.

    Assembles the coupling-tensor bilinears term by term and resolves the
    retarded pole with chi_spectral, never touching the closed pole-decomposed
    form used in production.
    """
    gamma = 1.0 / np.sqrt(1.0 - beta ** 2)
    Om = gamma * (omega_lab - beta * kx)
    chie = chi_spectral(e_terms, Om)
    chib = chi_spectral(b_terms, Om)
    lam2 = np.diag([1.0, gamma ** 2, gamma ** 2]).astype(complex)
    yz = np.diag([0.0, 1.0, 1.0]).astype(complex)
    vx = beta * np.array([[0, 0, 0], [0, 0, -1.0], [0, 1.0, 0]], dtype=complex)
    chi_ee = lam2 * chie + gamma ** 2 * beta ** 2 * yz * chib
    chi_bb = lam2 * chib + gamma ** 2 * beta ** 2 * yz * chie
    chi_eb = gamma ** 2 * (chie + chib) * vx
    return chi_ee, chi_bb, chi_eb, -chi_eb


# ---------------------------------------------------------------------------
# Dense-grid reflected surface Green function (beta = 0)
# ---------------------------------------------------------------------------

def _reflected_dyad_folded(eps, mu, kx, omega, ky, xi, z0):
    """Reflected dyad summed over +-ky at coincident points, with the 1/xi
    weight: shape (3, 3, n). Textbook Fresnel amplitudes and explicit
    polarization dyads."""
    kpar2 = kx ** 2 + ky ** 2
    xim = np.sqrt(kpar2 - eps * mu * omega ** 2 + 0j)
    if np.any(xim.real < 0):
        raise ValueError("branch")
    rs = (mu * xi - xim) / (mu * xi + xim)
    rp = (eps * xi - xim) / (eps * xi + xim)
    kpar = np.sqrt(kpar2)
    out = 0.0
    for sgn in (+1.0, -1.0):
        kyv = sgn * ky
        e1 = np.stack([kyv, -kx * np.ones_like(ky), np.zeros_like(ky)]) / kpar
        wz_up = 1j * xi
        wz_dn = -1j * xi

        def e2(wz):
            return np.stack([wz * kx * np.ones_like(ky), wz * kyv,
                             -kpar2]) / (kpar * omega)

        dyad = (np.einsum("in,jn->ijn", e1, e1) * rs
                + np.einsum("in,jn->ijn", e2(wz_up), e2(wz_dn)) * rp)
        out = out + dyad * (np.exp(-2.0 * xi * z0) / (2.0 * xi) / (2 * np.pi))
    return out


def reflected_green_dense(eps, mu, kx, omega, z0, kcut, n=200_001):
    """ky-integral of the reflected dyad on a dense fixed grid, beta = 0
    (or a moving medium, given eps and mu at the Doppler frequency).

    For |kx| > omega (no propagating sector) the trapezoid rule runs on
    ky in (0, kcut], omitting its first cell: an O(h) bias. For |kx| < omega
    the light circle kc = sqrt(omega^2 - kx^2) is taken by the angle maps
    ky = kc sin(theta) below it and ky = kc cosh(phi) above it, which turn
    the edge factor 1/xi into a smooth one, each range with the midpoint
    rule on n cells: an O(h^2) bias. mu0 = c = 1.
    """
    if abs(kx) < omega:
        kc = np.sqrt(omega ** 2 - kx ** 2)
        out = np.zeros((3, 3), dtype=complex)
        for top, ky_of, dky_of, xi_of in (
                (0.5 * np.pi, np.sin, np.cos, lambda a: -1j * kc * np.cos(a)),
                (np.arccosh(kcut / kc), np.cosh, np.sinh,
                 lambda a: kc * np.sinh(a) + 0j)):
            step = top / n
            angle = step * (np.arange(n) + 0.5)
            ky = kc * ky_of(angle)
            f = _reflected_dyad_folded(eps, mu, kx, omega, ky, xi_of(angle), z0)
            jac = kc * dky_of(angle)
            out += step * np.sum(f * jac, axis=-1)
        return out
    ky = np.linspace(0.0, kcut, n)[1:]  # skip ky = 0 only to dodge 0/0 at kx=0
    xi = np.sqrt(kx ** 2 + ky ** 2 - omega ** 2)
    return np.trapezoid(_reflected_dyad_folded(eps, mu, kx, omega, ky, xi, z0),
                        ky, axis=-1)


# ---------------------------------------------------------------------------
# Dense-grid 2-D rate oracle
# ---------------------------------------------------------------------------

def chi_np(terms, w):
    """Vectorized Lorentz-sum chi for the dense oracles (numpy arithmetic)."""
    w = np.asarray(w, dtype=complex)
    out = np.zeros_like(w)
    for wp2, w0, gd in terms:
        out = out + wp2 / (w0 ** 2 - w * w - 1j * gd * w)
    return out


def rate_density(e_terms, b_terms, beta, kappa, omega, z0, k, ky):
    """The (s, p) rate density over omega^2 at (k, ky), arrays that
    broadcast (chi is taken on k's shape), ky folded over both signs.

    Follows the diagonal-reflection rate integrand written out directly:
    the mode (-sgn(beta) k, ky, -omega), whose rest-frame frequency is
    gamma (|beta| k - omega); hbar = mu0 = c = 1.
    """
    gamma = 1.0 / np.sqrt(1.0 - beta ** 2)
    kpar2 = k ** 2 + ky ** 2
    xi = np.sqrt(kpar2 - omega ** 2)
    Om = gamma * (abs(beta) * k - omega)  # rest-frame frequency at (-k, -omega)
    eps = 1.0 + chi_np(e_terms, Om)
    mum = 1.0 + chi_np(b_terms, Om)
    # only the susceptibility argument is Doppler shifted; the wave equation
    # keeps the lab frequency (first order in velocity scheme)
    xim = np.sqrt(kpar2 - eps * mum * omega ** 2 + 0j)
    xim = np.where(xim.real < 0, -xim, xim)
    rs = (mum * xi - xim) / (mum * xi + xim)
    rp = (eps * xi - xim) / (eps * xi + xim)
    kxv, kyv, kzv = kappa
    w = np.exp(-2 * xi * z0) / xi / (2 * np.pi) ** 2
    ds = dp = 0.0
    for sgn in (+1.0, -1.0):
        kys = sgn * ky
        e1fac = (kxv * kys + kyv * k) ** 2 / kpar2
        e2fac = (xi ** 2 * (kxv * k - kyv * kys) ** 2 + kzv ** 2 * kpar2 ** 2) \
            / (kpar2 * omega ** 2)
        ds = ds + w * e1fac * np.imag(rs)
        dp = dp + w * e2fac * np.imag(rp)
    return ds, dp


def rate_surface_dense(e_terms, b_terms, beta, kappa, omega, z0, k_max,
                       nk=2000, nky=2000, ky_cut=None):
    """Brute-force double integral of rate_density for the surface
    excitation rate, beta > 0: fixed log-dense k grid and linear ky grid,
    trapezoid in both directions."""
    k_lo = omega / beta
    k = np.geomspace(k_lo * (1 + 1e-9), k_max, nk)
    if ky_cut is None:
        ky_cut = max(20.0 / z0, 2 * omega, 5.0)
    ky = np.linspace(0.0, ky_cut, nky)
    density = rate_density(e_terms, b_terms, beta, kappa, omega, z0,
                           k[:, None], ky[None, :])
    parts = {name: omega ** 2 * np.trapezoid(np.trapezoid(d, ky, axis=1), k)
             for name, d in zip("sp", density)}
    return parts["s"] + parts["p"], parts


# ---------------------------------------------------------------------------
# Near-field (nonretarded) rate, closed form in ky
# ---------------------------------------------------------------------------

def rate_nonretarded(e_terms, beta, kappa, omega, z0, k_max=np.inf):
    """Gamma_NR, the omega -> 0 limit of the surface rate at fixed z0, mu = 1.

    With xi -> kpar the s channel drops out, r_p -> (eps - 1) / (eps + 1)
    at the Doppler frequency Omega = gamma (beta k - omega), and the ky
    integral of the p density closes in Bessel functions (x = 2 z0 k):

        Gamma_NR = 2 / (2 pi)^2 int_{omega/beta}^{k_max} dk Im r_p(Omega) k^2
                   [kappa_x^2 K0(x) + kappa_y^2 K1(x) / x
                    + kappa_z^2 (K0(x) + K1(x) / x)].

    The k integral runs through scipy's QUADPACK, with K0 and K1 scaled by
    e^x (k0e, k1e) so that the far tail does not underflow.
    """
    gamma = 1.0 / np.sqrt(1.0 - beta ** 2)
    cx, cy, cz = (c * c for c in kappa)

    def density(k):
        eps = 1.0 + chi_np(e_terms, gamma * (beta * k - omega))
        im_rp = ((eps - 1.0) / (eps + 1.0)).imag
        x = 2.0 * z0 * k
        k0, k1 = k0e(x), k1e(x) / x
        bessel = cx * k0 + cy * k1 + cz * (k0 + k1)
        return 2.0 / (2.0 * np.pi) ** 2 * float(im_rp) * k * k * bessel * np.exp(-x)

    value, _ = quad(density, omega / beta, k_max, epsabs=0.0, epsrel=1e-12,
                    limit=1000)
    return value
