"""Parameter model and derived scales for the Rydberg-EIT medium.

All frequencies are expressed in units of the intermediate-state decay rate
(``gamma``, default 1.0), lengths in micrometres.  Conversion from physical
units (MHz) happens only at the CLI boundary.
"""

import math
import warnings
from dataclasses import dataclass

from .exceptions import InsufficientParametersError, ParameterError

FOUR_PI_THIRD = 4.0 * math.pi / 3.0


def require_finite(obj, names):
    """Raise ParameterError unless each named attribute of obj is finite
    (None counts as absent).  NaN fails every ordered comparison, so range
    checks alone let it through."""
    for name in names:
        value = getattr(obj, name)
        if value is not None and not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value!r}")


def warn_if_strong_probe(omega_p_in, omega_c, gamma, stacklevel=2):
    """Warn when the probe amplitude leaves the weak-probe limit, i.e. is not
    below both omega_c and gamma."""
    if omega_p_in >= omega_c or omega_p_in >= gamma:
        warnings.warn(
            "probe is not perturbative (omega_p_in should be below both "
            "omega_c and gamma); results assume the weak-probe limit",
            stacklevel=stacklevel + 1,
        )


@dataclass(frozen=True)
class EitParams:
    """Drive and medium parameters of the ladder EIT system.

    omega_c     coupling Rabi frequency (> 0)
    alpha       optical depth (>= 0)
    omega_p_in  input probe Rabi frequency (>= 0)
    delta_p     probe one-photon detuning
    delta_c     coupling one-photon detuning
    gamma0      Rydberg decoherence rate (>= 0)
    gamma       decay rate of the intermediate state; the frequency unit
    gamma2      Rydberg-state decay rate; kept for bookkeeping, not used in
                the steady-state response (set to zero by default)
    """

    omega_c: float
    alpha: float
    omega_p_in: float = 0.0
    delta_p: float = 0.0
    delta_c: float = 0.0
    gamma0: float = 0.0
    gamma: float = 1.0
    gamma2: float = 0.0

    def __post_init__(self):
        require_finite(self, ("omega_c", "alpha", "omega_p_in", "delta_p",
                              "delta_c", "gamma0", "gamma", "gamma2"))
        if self.gamma <= 0:
            raise ParameterError("gamma must be positive")
        if self.omega_c <= 0:
            raise ParameterError("omega_c must be positive")
        if self.omega_p_in < 0:
            raise ParameterError("omega_p_in must be non-negative")
        if self.gamma0 < 0:
            raise ParameterError("gamma0 must be non-negative")
        if self.alpha < 0:
            raise ParameterError("alpha must be non-negative")
        if self.gamma2 < 0:
            raise ParameterError("gamma2 must be non-negative")
        warn_if_strong_probe(self.omega_p_in, self.omega_c, self.gamma)

    @property
    def delta(self):
        """Two-photon detuning delta_p + delta_c."""
        return self.delta_p + self.delta_c


@dataclass(frozen=True)
class DdiParams:
    """Dipole-dipole interaction inputs.

    Either the physical triple (c6, n_atom, epsilon) or the combined strength
    |c6| * ((4 pi / 3) * n_atom * epsilon)**2 is authoritative; supplying both
    is rejected.  The combined form carries the sign of c6 separately
    (negative by default).  Units: c6 in [gamma * um^6], n_atom in [um^-3],
    combined strength in [gamma].
    """

    c6: float | None = None
    n_atom: float | None = None
    epsilon: float | None = None
    combined_strength: float | None = None
    c6_sign: int = -1

    def __post_init__(self):
        require_finite(self, ("c6", "n_atom", "epsilon", "combined_strength"))
        physical = self.c6 is not None or self.n_atom is not None or self.epsilon is not None
        if physical and self.combined_strength is not None:
            raise ParameterError(
                "give either (c6, n_atom, epsilon) or combined_strength, not both"
            )
        if physical:
            if self.c6 is None or self.n_atom is None or self.epsilon is None:
                raise ParameterError("c6, n_atom and epsilon must all be given")
            if self.n_atom <= 0:
                raise ParameterError("n_atom must be positive")
            if self.epsilon <= 0:
                raise ParameterError("epsilon must be positive")
        elif self.combined_strength is None:
            raise ParameterError("no interaction strength given")
        elif self.combined_strength < 0:
            raise ParameterError("combined_strength must be non-negative")
        if self.c6_sign not in (-1, 1):
            raise ParameterError("c6_sign must be -1 or +1")

    @property
    def has_length_scales(self):
        """True when r-space quantities (r_a, r_B in um) can be derived."""
        return self.c6 is not None

    @property
    def sign(self):
        """Sign of c6 (+1 or -1)."""
        if self.c6 is not None:
            return 1 if self.c6 > 0 else -1
        return self.c6_sign

    @property
    def strength(self):
        """Combined DDI strength |c6| * ((4 pi/3) n_atom epsilon)**2 [gamma]."""
        if self.combined_strength is not None:
            return self.combined_strength
        return abs(self.c6) * (FOUR_PI_THIRD * self.n_atom * self.epsilon) ** 2

    @property
    def sqrt_c6_n_eps(self):
        """sqrt(|c6|) * n_atom * epsilon, the prefactor of the closed-form
        attenuation/phase predictions.  Equals 3 sqrt(strength) / (4 pi) when
        only the combined strength is known."""
        if self.c6 is not None:
            return math.sqrt(abs(self.c6)) * self.n_atom * self.epsilon
        return 3.0 * math.sqrt(self.combined_strength) / (4.0 * math.pi)


@dataclass(frozen=True)
class DerivedScales:
    """Scales derived from (EitParams, DdiParams); see derive_scales."""

    omega_a: float
    w_c: float
    w_p: float
    eit_linewidth: float
    s_ddi: float
    blockade_ratio: float
    linewidth_ratio: float
    r_a: float | None = None
    r_b: float | None = None


def shift_scale(strength, omega_p_in, omega_c):
    """Frequency-shift scale omega_a = strength * rho22^2, with the weak-probe
    Rydberg population rho22 = (omega_p_in / omega_c)^2.  Broadcasts."""
    return strength * ((omega_p_in / omega_c) ** 2) ** 2


def derive_scales(eit: EitParams, ddi: DdiParams, require_lengths: bool = False) -> DerivedScales:
    """Compute all derived scales.

    omega_a uses the weak-probe Rydberg population omega_p_in^2 / omega_c^2
    at the input face.  r_a and r_b (micrometres) are only available from the
    physical (c6, n_atom, epsilon) triple; with require_lengths=True their
    absence raises InsufficientParametersError, otherwise they are None.
    The blockade ratio r_b^3 / r_a^3 reduces to
    rho22 * sqrt(2 gamma strength) / omega_c, so it never needs c6 alone.
    """
    g = eit.gamma
    rho22 = (eit.omega_p_in / eit.omega_c) ** 2
    strength = ddi.strength
    omega_a = shift_scale(strength, eit.omega_p_in, eit.omega_c)
    w_c = math.hypot(g, 2.0 * eit.delta_c)
    w_p = math.hypot(g, 2.0 * eit.delta_p)
    eit_linewidth = (
        eit.omega_c ** 2
        * math.sqrt(g ** 2 + 8.0 * eit.delta_c ** 2)
        / (g ** 2 + 4.0 * eit.delta_c ** 2)
    )
    s_ddi = math.pi ** 2 * eit.alpha * g * ddi.sqrt_c6_n_eps / (3.0 * eit.omega_c ** 3)
    blockade_ratio = rho22 * math.sqrt(2.0 * g * strength) / eit.omega_c

    r_a = r_b = None
    if ddi.has_length_scales:
        r_b = (2.0 * abs(ddi.c6) * g / eit.omega_c ** 2) ** (1.0 / 6.0)
        n_r = ddi.n_atom * ddi.epsilon * rho22
        r_a = math.inf if n_r == 0 else (3.0 / (4.0 * math.pi * n_r)) ** (1.0 / 3.0)
    elif require_lengths:
        raise InsufficientParametersError(
            "insufficient parameters for length-scale output: r_a and r_b "
            "need c6, n_atom and epsilon, not just the combined strength"
        )

    return DerivedScales(
        omega_a=omega_a,
        w_c=w_c,
        w_p=w_p,
        eit_linewidth=eit_linewidth,
        s_ddi=s_ddi,
        blockade_ratio=blockade_ratio,
        linewidth_ratio=omega_a / eit_linewidth,
        r_a=r_a,
        r_b=r_b,
    )


def mirror_detunings(eit: EitParams) -> EitParams:
    """Flip delta_p and delta_c (hence the two-photon detuning).

    This is the detuning half of the positive-c6 substitution rule; applying
    it twice is the identity.
    """
    import dataclasses

    return dataclasses.replace(eit, delta_p=-eit.delta_p, delta_c=-eit.delta_c)
