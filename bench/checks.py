"""Output checks for the benchmark, written apart from the program.

Every function here takes plain numbers or arrays and returns a list of
failure messages (empty when the check passes).  The physics they rely on
is re-derived in this file from the model's definitions, so no check
copies an output or a formula of ``sshscatter``:

- the chain ``t1 = J(1 + delta)``, ``t2 = J(1 - delta)`` with
  ``h(k) = -t1 - t2 exp(-ik)`` and bands ``+/-|h(k)|``;
- the emitter potential ``V = 4 g^2 (dk + dc) / (4 dk (dk + dc) - Omega^2)``;
- the closed-form transmission ``t`` of the three coupling geometries, of
  which only the zeros and the denominator are used here.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

#: flux conservation promised by the ``reflectance`` docstring
TOL_FLUX = 1e-12
#: agreement between independent routes (closed form, pipeline, lattice)
TOL_ROUTE = 1e-10
#: packet transmission against the bandwidth average
TOL_PACKET = 2e-2
#: probability bookkeeping of one wavepacket run (norm drift is held to 1e-8)
TOL_PROBABILITY = 1e-7
#: CLI floats carry 12 significant digits; two roundings of values <= 1
TOL_ROUNDING = 2e-11
#: a transmission "zero" or "one" read back from the CLI
TOL_EXACT_T = 1e-12
#: AB spectra at +delta and -delta must differ by at least this much
MIN_SIGN_CONTRAST = 1e-3


def hoppings(delta: float, J: float = 1.0) -> tuple[float, float]:
    return J * (1.0 + delta), J * (1.0 - delta)


def band_limits(delta: float, J: float = 1.0) -> tuple[float, float]:
    """(gap edge, outer edge) of |omega| for the bare chain."""
    t1, t2 = hoppings(delta, J)
    return abs(t1 - t2), t1 + t2


def in_band(omega, delta: float, sign: int, J: float = 1.0):
    """Mask of energies strictly inside the band of the given sign."""
    gap, outer = band_limits(delta, J)
    omega = np.asarray(omega, dtype=float)
    return (omega * sign > 0) & (np.abs(omega) > gap) & (np.abs(omega) < outer)


def level_shift(g: float, alpha: float, t1: float) -> float:
    """Transmission zero g^2 a(1-a)/t1 of the undriven two-site coupling:
    t vanishes where V a(1-a) = t1, and V = g^2/dk without drive."""
    return g * g * alpha * (1.0 - alpha) / t1


def driven_zeros(g: float, alpha: float, t1: float, omega_rabi: float) -> tuple[float, ...]:
    """Detunings where t vanishes at delta_c = 0.

    Single-site coupling (a(1-a) = 0): the potential diverges at
    +/- Omega/2.  Two-site coupling: V a(1-a) = t1 with
    V = 4 g^2 dk / (4 dk^2 - Omega^2) gives dk^2 - L dk - Omega^2/4 = 0
    with L the level shift, i.e. dk = L/2 +/- sqrt(L^2/4 + Omega^2/4),
    which tends to +/- Omega/2 + L/2 for a strong drive.
    """
    shift = level_shift(g, alpha, t1)
    root = math.sqrt(shift * shift / 4.0 + omega_rabi * omega_rabi / 4.0)
    return shift / 2.0 - root, shift / 2.0 + root


def bloch_energy(k: float, delta: float, J: float = 1.0) -> tuple[complex, float]:
    """h(k) and the upper-band energy |h(k)|."""
    t1, t2 = hoppings(delta, J)
    h = -t1 - t2 * cmath.exp(-1j * k)
    return h, abs(h)


def pole_quadratic(k, delta, J, g, alpha, omega_rabi):
    """Coefficients of the fixed-k pole equation dk^2 - 2 i s dk - Omega^2/4.

    Multiplying the closed-form denominator ``2 t1 t2 sin k - i V E F``
    (F = 1 for single-site coupling, F = 2a(1-a)(exp(-i phi) - 1) + 1 for
    two sites, E exp(i phi) = h(k)) by ``(4 dk^2 - Omega^2) / (8 t1 t2 sin k)``
    at delta_c = 0 leaves this monic quadratic with
    s = g^2 E F / (4 t1 t2 sin k).
    """
    t1, t2 = hoppings(delta, J)
    h, energy = bloch_energy(k, delta, J)
    phi = cmath.phase(h / energy)
    fac = 2.0 * alpha * (1.0 - alpha) * (cmath.exp(-1j * phi) - 1.0) + 1.0
    s = g * g * energy * fac / (4.0 * t1 * t2 * math.sin(k))
    return s, omega_rabi * omega_rabi / 4.0


def closed_form_t(omega, *, delta, J, omega_e, delta_c, omega_rabi, g, alpha, two_site):
    """Closed-form transmission on an array of in-band signed energies.

    With N = 4 g^2 (dk + dc) and D = 4 dk (dk + dc) - Omega^2 the potential
    is V = N/D (g^2/dk without drive).  Writing t with both sides
    multiplied by D keeps it regular at the poles of V:

    - one site:  t = 2 t1 t2 s D / (2 t1 t2 s D - i N E)
    - two sites: t = 2i t2 s (t1 D - N b) / (2i t1 t2 s D + N E F)

    with s = sin k, b = a(1-a), E exp(i phi) = h(k) and
    F = 2b(exp(-i phi) - 1) + 1.
    """
    omega = np.asarray(omega, dtype=float)
    t1, t2 = hoppings(delta, J)
    k = np.arccos(np.clip((omega**2 - t1 * t1 - t2 * t2) / (2.0 * t1 * t2), -1.0, 1.0))
    sin_k = np.sin(k)
    dk = omega - omega_e
    if omega_rabi == 0.0:
        num, den = g * g * np.ones_like(dk), dk
    else:
        num, den = 4.0 * g * g * (dk + delta_c), 4.0 * dk * (dk + delta_c) - omega_rabi**2
    if not two_site:
        s2 = 2.0 * t1 * t2 * sin_k * den
        return s2 / (s2 - 1j * num * omega)
    beta = alpha * (1.0 - alpha)
    phi = np.angle((-t1 - t2 * np.exp(-1j * k)) / omega)
    fac = 2.0 * beta * (np.exp(-1j * phi) - 1.0) + 1.0
    return (2j * t2 * sin_k * (t1 * den - num * beta)
            / (2j * t1 * t2 * sin_k * den + num * omega * fac))


def regime_ratio(k, delta, J, g, alpha, omega_rabi) -> float:
    """Control-field ratio |Omega| / (2|s|), the drive over the linewidth."""
    if omega_rabi == 0.0:
        return 0.0
    s, _ = pole_quadratic(k, delta, J, g, alpha, omega_rabi)
    return omega_rabi / (2.0 * abs(s))


def regime_label(ratio: float) -> str:
    """Documented thresholds: below 0.25 Lorentzian, above 4 Autler-Townes."""
    if ratio < 0.25:
        return "lorentzian"
    return "eit" if ratio <= 4.0 else "ats"


# ---------------------------------------------------------------- checks


def check_close(what: str, got, want, tol: float) -> list[str]:
    """|got - want| <= tol, elementwise for arrays."""
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want)), initial=0.0))
    if not err <= tol:
        return [f"{what}: |difference| {err:.3e} > {tol:.0e}"]
    return []


def check_flux(t, r, tol: float = TOL_FLUX, what: str = "flux") -> list[str]:
    """| |t|^2 + |r|^2 - 1 | <= tol."""
    return check_close(f"{what} |t|^2+|r|^2-1", abs(t) ** 2 + abs(r) ** 2, 1.0, tol)


def check_spectrum_rows(rows: np.ndarray) -> list[str]:
    """Rows (delta_k, T, R, re_t, im_t) read back from a spectrum CSV."""
    if rows.ndim != 2 or rows.shape[1] != 5:
        return [f"spectrum table has shape {rows.shape}, expected (n, 5)"]
    _, trans, refl, re_t, im_t = rows.T
    out = check_close("spectrum T+R-1", trans + refl, 1.0, TOL_ROUNDING)
    out += check_close("spectrum T-|t|^2", trans, re_t**2 + im_t**2, TOL_ROUNDING)
    if np.any(trans < -TOL_ROUNDING) or np.any(trans > 1.0 + TOL_ROUNDING):
        out.append("spectrum T outside [0, 1]")
    return out


def check_grid(read_dk: np.ndarray, want_dk: np.ndarray) -> list[str]:
    """Kept detunings: the in-band part of the requested grid, in order."""
    if read_dk.shape != want_dk.shape:
        return [f"{len(read_dk)} rows kept, expected {len(want_dk)} in-band grid points"]
    scale = max(1.0, float(np.max(np.abs(want_dk), initial=0.0)))
    return check_close("kept delta_k", read_dk, want_dk, 1e-11 * scale)


def check_special_points(dk: np.ndarray, trans: np.ndarray, special) -> list[str]:
    """T at detunings of known transmission: [(dk0, T0)] with T0 in {0, 1}."""
    out = []
    for dk0, t0 in special:
        idx = int(np.argmin(np.abs(dk - dk0)))
        if abs(dk[idx] - dk0) > 1e-9:
            out.append(f"grid lacks the detuning {dk0:.6g}")
        elif abs(trans[idx] - t0) > TOL_EXACT_T:
            out.append(f"T({dk0:.6g}) = {trans[idx]:.3e}, expected {t0}")
    return out


def check_same_spectra(tables) -> list[str]:
    """Spectra that must coincide (A vs B, +delta vs -delta)."""
    first = tables[0]
    out = []
    for other in tables[1:]:
        if other.shape != first.shape:
            return [f"spectra differ in shape {first.shape} vs {other.shape}"]
        out += check_close("spectra that must coincide", other, first, TOL_ROUNDING)
    return out


def check_sign_contrast(t_plus: np.ndarray, t_minus: np.ndarray) -> list[str]:
    """Two-site spectra at +delta and -delta must differ."""
    if t_plus.shape != t_minus.shape:
        return [f"sign pair differs in shape {t_plus.shape} vs {t_minus.shape}"]
    contrast = float(np.max(np.abs(t_plus - t_minus), initial=0.0))
    if not contrast > MIN_SIGN_CONTRAST:
        return [f"AB spectra blind to sign(delta): max |dT| = {contrast:.3e}"]
    return []


def check_dips(found: list[float], expected, step: float) -> list[str]:
    """Each expected dip is found within one grid step, and nothing else."""
    out = []
    for want in expected:
        if not any(abs(pos - want) <= step * (1 + 1e-9) for pos in found):
            out.append(f"no dip within one step ({step:.2e}) of {want:.6g}; found {found}")
    for pos in found:
        if not any(abs(pos - want) <= step * (1 + 1e-9) for want in expected):
            out.append(f"unexpected dip at {pos:.6g}")
    return out


def check_poles(p_plus: complex, p_minus: complex, s: complex, quarter_om2: float) -> list[str]:
    """Both poles solve dk^2 - 2 i s dk - Omega^2/4 = 0.

    Accuracy is judged against the pole scale |s| + Omega/2, the size of
    the larger root: a root off by 1e-10 of that scale leaves a residual of
    about 2e-10 scale^2.
    """
    scale = abs(s) + math.sqrt(quarter_om2)
    out = []
    for name, p in (("pole_plus", p_plus), ("pole_minus", p_minus)):
        resid = p * p - 2j * s * p - quarter_om2
        if not abs(resid) <= 2e-10 * scale * scale:
            out.append(f"{name} = {p} misses the pole equation by {abs(resid):.3e}")
    if abs((p_plus + p_minus) - 2j * s) > 1e-10 * scale:
        out.append("pole pair does not sum to 2 i s (same root twice)")
    return out


def check_regime(label: str, ratio: float, want_ratio: float) -> list[str]:
    out = check_close("regime ratio", ratio, want_ratio, 1e-10 * max(1.0, want_ratio))
    if label != regime_label(want_ratio):
        out.append(f"regime {label!r} for ratio {want_ratio:.6g}")
    return out


def check_momentum(k: float, omega: float, delta: float, J: float) -> list[str]:
    """k in (0, pi) and |h(k)| = |omega|."""
    if not 0.0 < k < math.pi:
        return [f"k = {k} outside (0, pi)"]
    _, energy = bloch_energy(k, delta, J)
    return check_close("dispersion at k", energy, abs(omega), 1e-12 * max(1.0, abs(omega)))


def check_packet(transmitted, reflected, residual, t_average) -> list[str]:
    out = check_close(
        "packet probability", transmitted + reflected + residual, 1.0, TOL_PROBABILITY
    )
    out += check_close("packet T vs bandwidth average", transmitted, t_average, TOL_PACKET)
    return out
