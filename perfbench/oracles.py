"""Independent computations the benchmark checks the program against.

Nothing here imports `vacdrag`. Each routine works from the formulas
directly: fixed composite Gauss-Legendre grids (no adaptivity shared with the
program's Gauss-Kronrod loop), mpmath susceptibility sums and the textbook
Fresnel coefficients in the propagation-constant form. Models are passed as
plain tuples of (plasma_strength, resonance, damping).
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)


def composite_nodes(edges):
    """Nodes and weights of an 8-point Gauss-Legendre rule on every panel
    between consecutive edges."""
    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1, None], edges[1:, None]
    half = 0.5 * (b - a)
    x = (0.5 * (a + b) + half * _GL_X).ravel()
    w = (half * _GL_W).ravel()
    return x, w


def chi_np(terms, w):
    """Lorentz-sum susceptibility over an array of real frequencies."""
    w = np.asarray(w, dtype=float)
    out = np.zeros(w.shape, dtype=complex)
    for s, w0, g in terms:
        out = out + s / (w0 * w0 - w * w - 1j * g * w)
    return out


def chi_mp(terms, omega, dps=30):
    """The same sum in mpmath arithmetic, returned as a Python complex."""
    with mp.workdps(dps):
        w = mp.mpf(omega)
        total = mp.mpc(0)
        for s, w0, g in terms:
            total += mp.mpf(s) / (mp.mpf(w0) ** 2 - w * w - 1j * mp.mpf(g) * w)
        return complex(total)


def identity_rhs_mp(terms, om, op, shift=0.0, dps=30):
    """Closed form [(om^2 - a) chi(om) - (op^2 - a) chi(op)] / (om^2 - op^2)
    with chi at negative frequency given by the reality condition."""
    with mp.workdps(dps):
        def chi(w):
            value = mp.mpc(chi_mp(terms, abs(w), dps))
            return value if w >= 0 else mp.conj(value)
        a = mp.mpf(shift)
        om, op = mp.mpf(om), mp.mpf(op)
        num = (om * om - a) * chi(om) - (op * op - a) * chi(op)
        return complex(num / (om * om - op * op))


def fresnel_textbook(eps, mu, kpar, omega):
    """Stationary s and p amplitudes, r = (m kz1 - kz2) / (m kz1 + kz2) with
    kz = sqrt(eps mu omega^2 - kpar^2) on the branch Im kz >= 0 (omega > 0)."""
    def kz(n2):
        root = complex(np.sqrt(complex(n2 * omega * omega - kpar * kpar)))
        if root.imag < 0.0 or (root.imag == 0.0 and root.real < 0.0):
            root = -root
        return root
    kz1, kz2 = kz(1.0), kz(eps * mu)
    return ((mu * kz1 - kz2) / (mu * kz1 + kz2),
            (eps * kz1 - kz2) / (eps * kz1 + kz2))


def _rate_density(e_terms, m_terms, beta, kappa, omega, z0, k, ky):
    """Rate density of both channels on a (k, ky) grid, ky folded over both
    signs; the medium sees the Doppler frequency gamma (beta k - omega)."""
    gamma = 1.0 / math.sqrt(1.0 - beta * beta)
    cap = gamma * (beta * k - omega)
    eps = (1.0 + chi_np(e_terms, cap))[:, None]
    mu = (1.0 + chi_np(m_terms, cap))[:, None]
    kk, yy = k[:, None], ky[None, :]
    kpar2 = kk * kk + yy * yy
    xi = np.sqrt(kpar2 - omega * omega)
    xim = np.sqrt(kpar2 - eps * mu * omega * omega + 0j)
    xim = np.where(xim.real < 0.0, -xim, xim)
    im_rs = np.imag((mu * xi - xim) / (mu * xi + xim))
    im_rp = np.imag((eps * xi - xim) / (eps * xi + xim))
    cx, cy, cz = kappa
    fold_s = 0.0
    fold_p = 0.0
    for sgn in (1.0, -1.0):
        y = sgn * yy
        fold_s = fold_s + (cx * y + cy * kk) ** 2 / kpar2
        fold_p = fold_p + (xi * xi * (cx * kk - cy * y) ** 2
                           + cz * cz * kpar2 * kpar2) / (kpar2 * omega * omega)
    weight = np.exp(-2.0 * xi * z0) / xi / (2.0 * math.pi) ** 2
    return weight * fold_s * im_rs, weight * fold_p * im_rp


def rate_dense(e_terms, m_terms, beta, kappa, omega, z0, k_max, ky_cut,
               cap_step=0.005):
    """Surface rate (s, p) as a dense-grid double integral over
    k in [omega/beta, k_max] and ky in [0, ky_cut].

    k panels are uniform in the Doppler frequency with width `cap_step` up to
    the frequency 3, where every resonance and surface polariton of the
    benchmark's models lies, graded geometrically towards zero frequency and
    geometric beyond 3; ky panels are geometric from a fraction of the
    smallest decay constant.
    """
    gamma = 1.0 / math.sqrt(1.0 - beta * beta)
    k_lo = omega / beta
    scale = gamma * beta
    cap_max = scale * (k_max - k_lo)
    # graded towards cap = 0, where a Drude term's Im chi diverges like 1/cap
    fine = np.concatenate(([0.0], np.geomspace(1e-9, cap_step, 30)[:-1],
                           np.arange(cap_step, min(3.0, cap_max), cap_step)))
    coarse = np.geomspace(3.0, cap_max, 120) if cap_max > 3.0 else []
    cap_edges = np.unique(np.concatenate((fine, coarse, [cap_max])))
    cap_edges = cap_edges[cap_edges <= cap_max]
    k, wk = composite_nodes(k_lo + cap_edges / scale)
    xi_min = math.sqrt(k_lo * k_lo - omega * omega)
    ky_edges = np.concatenate(([0.0], np.geomspace(xi_min / 16.0, ky_cut, 160)))
    ky, wky = composite_nodes(ky_edges)
    s = p = 0.0
    for lo in range(0, k.size, 256):
        sl = slice(lo, lo + 256)
        ds, dp = _rate_density(e_terms, m_terms, beta, kappa, omega, z0,
                               k[sl], ky)
        s += float(wk[sl] @ (ds @ wky))
        p += float(wk[sl] @ (dp @ wky))
    return omega * omega * s, omega * omega * p


def reflected_green_dense(eps, mu, kx, omega, z0, ky_max):
    """Coincident reflected Green tensor of a stationary half-space at fixed
    evanescent kx (|kx| > omega), integrated over ky in [-ky_max, ky_max] on
    a dense geometric Gauss-Legendre grid."""
    xi0 = math.sqrt(kx * kx - omega * omega)
    edges = np.concatenate(([0.0], np.geomspace(xi0 / 64.0, ky_max, 400)))
    ky, w = composite_nodes(edges)
    kpar2 = kx * kx + ky * ky
    kpar = np.sqrt(kpar2)
    xi = np.sqrt(kpar2 - omega * omega)
    xim = np.sqrt(kpar2 - eps * mu * omega * omega + 0j)
    xim = np.where(xim.real < 0.0, -xim, xim)
    rs = (mu * xi - xim) / (mu * xi + xim)
    rp = (eps * xi - xim) / (eps * xi + xim)
    weight = w * np.exp(-2.0 * xi * z0) / (2.0 * xi) / (2.0 * math.pi)
    out = np.zeros((3, 3), dtype=complex)
    zeros = np.zeros_like(ky)
    for sgn in (1.0, -1.0):
        y = sgn * ky
        e1 = np.stack([y, -kx + zeros, zeros]) / kpar
        up = np.stack([1j * xi * kx, 1j * xi * y, -kpar2 + 0j]) / (kpar * omega)
        down = np.stack([-1j * xi * kx, -1j * xi * y, -kpar2 + 0j]) / (kpar * omega)
        out += np.einsum("in,jn,n->ij", e1, e1, rs * weight)
        out += np.einsum("in,jn,n->ij", up, down, rp * weight)
    return out
