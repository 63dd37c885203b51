"""The frequency-shift average of rho31, and the quadrature oracle behind it.

avg_susceptibility evaluates the average in closed form.  For one frequency
class rho31/Omega_p = n / (a - b n), with n = delta + omega + i gamma0,
a = omega_c^2 / 2 and b = 2 delta_p + i gamma, which is
chi(0) + (a / b^2) [1 / (z0 - omega) - 1 / z0] with z0 = a / b - n(0).  The
shift is omega = omega_a s(u), s = u^-2 + u^-1, with u unit exponential, and
u^2 / (zeta u^2 - u - 1) splits into partial fractions over the roots r+-
of zeta u^2 - u - 1, zeta = z0 / omega_a.  With F(r) = e^-r E1(-r) the
Stieltjes transform E[1 / (u - r)] (Abramowitz & Stegun 5.1), this gives

    chi_avg = chi(0) + a omega_a [g(r+) - g(r-)] / [(r+ - r-) (b z0)^2],

g(r) = (r + 1) F(r); at omega_a = 0 the average is chi(0) exactly.  Im z0 < 0
whenever gamma > 0, so neither root lies on the positive real axis, where
E1(-r) has its branch cut.

The adaptive Gauss-Kronrod quadrature of the same average is kept as the
independent oracle, in two implementations: a compiled Cython kernel and a
pure-numpy fallback.  The compiled one is preferred; the numpy one is used
when the extension is missing or when RYDEIT_BACKEND=python is set.
"""

import cmath
import math
import os
from collections import namedtuple

from . import _ddicore_py

AvgResult = namedtuple(
    "AvgResult", ["re", "im", "err_re", "err_im", "panels", "converged"])

_compiled = None
if os.environ.get("RYDEIT_BACKEND", "").lower() != "python":
    try:
        from . import _ddicore as _compiled
    except ImportError:
        _compiled = None

_oracle = _compiled if _compiled is not None else _ddicore_py

_EULER = 0.5772156649015329

# Rounding bound of the closed form, relative to its condition-weighted term
# sizes.  A 50-digit evaluation of the same formula on 6000 points, wide and
# near-degenerate (|1 + 4 zeta| <= 1e-2, light-shifted resonance), put the
# worst error at 12 eps of that scale; e^z E1(z) itself is good to 45 eps.
_ROUNDING = 128.0 * 2.220446049250313e-16


def active_backend() -> str:
    """Name of the quadrature oracle in use: 'compiled' or 'python'."""
    return _oracle.BACKEND_NAME


def available_backends():
    """Mapping of oracle name to its quadrature avg_susceptibility callable."""
    out = {"python": _ddicore_py.avg_susceptibility}
    if _compiled is not None:
        out["compiled"] = _compiled.avg_susceptibility
    return out


def _exp_e1(z):
    """e^z E1(z) on the principal branch (cut along the negative real axis).

    Power series near the origin and along the cut, the asymptotic series
    for |z| > 40, the Laguerre continued fraction elsewhere.
    """
    r = abs(z)
    if r > 40.0:
        term = total = 1.0 / z
        for k in range(1, int(r)):  # terms shrink while k < |z|
            term *= -k / z
            total += term
            if abs(term) < 1e-17 * abs(total):
                break
        return total
    if r <= 2.0 or (z.real < 0.0 and abs(z.imag) < 4.0):
        # E1(z) = -euler - log z - sum_k (-z)^k / (k k!)
        mz = -z
        power = 1.0
        total = 0.0
        for k in range(1, int(math.e * r) + 26):
            power = power * mz / k
            term = power / k
            total += term
            if abs(term) < 1e-17 * abs(total):
                break
        return cmath.exp(z) * (-_EULER - cmath.log(z) - total)
    # modified Lentz: 1 / (z + 1 - 1 / (z + 3 - 4 / (z + 5 - ...))); about
    # 230 steps at worst in this region, and the cap stops a NaN argument
    b = z + 1.0
    c = 1e300
    d = 1.0 / b
    h = d
    for k in range(1, 1000):
        an = -float(k * k)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        step = c * d
        h *= step
        if abs(step - 1.0) < 1e-16:
            break
    return h


def avg_susceptibility(delta_p, delta_c, gamma0, omega_c, omega_a, gamma=1.0,
                       rtol=1e-8, atol=1e-12, max_panels=10000) -> AvgResult:
    """Average rho31/Omega_p over the nearest-neighbor shift measure, exactly.

    err_re and err_im bound the rounding error.  The result always has
    panels=0 and converged=True; rtol, atol and max_panels are accepted for
    the quadrature oracle's signature and do not affect this evaluation.
    """
    n0 = complex(delta_p + delta_c, gamma0)
    a = 0.5 * float(omega_c) ** 2
    b = complex(2.0 * delta_p, gamma)
    den = a - b * n0
    chi = n0 / den
    scale = abs(chi)
    if omega_a != 0.0:
        # w = 1 / zeta; the roots r+- = (w +- q) / 2 of u^2 - w u - w, the
        # larger one first so that neither cancels
        omega_a = float(omega_a)
        z0 = den / b
        w = omega_a / z0
        q = cmath.sqrt(w * (w + 4.0))
        if w.real * q.real + w.imag * q.imag < 0.0:
            q = -q
        r_plus = 0.5 * (w + q)
        r_minus = -w / r_plus
        g_plus = (r_plus + 1.0) * _exp_e1(-r_plus)
        g_minus = (r_minus + 1.0) * _exp_e1(-r_minus)
        k = a * omega_a / ((b * z0) ** 2 * q)
        chi += k * (g_plus - g_minus)
        scale += abs(k) * (abs(g_plus) + abs(g_minus))
    err = _ROUNDING * scale * (1.0 + (a + abs(b) * abs(n0)) / abs(den))
    return AvgResult(chi.real, chi.imag, err, err, 0, True)
