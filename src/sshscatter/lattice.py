"""Independent numerical oracle on a finite chain.

Everything here is built directly from the real-space Hamiltonian: an
exact boundary-matched scattering solve and time-domain wavepacket
transport.  No transfer-matrix or closed-form algebra from the scattering
module is imported (a structural test enforces this), so agreement between
the two routes is a genuine cross-check rather than a tautology.

Boundary matching works by writing the amplitudes on the outermost unit
cells as superpositions of the exact Bloch plane waves at the probe energy
(unit incoming amplitude from the left, unknown reflected and transmitted
amplitudes) and solving the interior equations of motion exactly.  That is
exact at any finite chain length as long as the emitter sits in the bulk.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .bands import band_phase, group_velocity, momentum_from_energy
from .errors import (
    ChainTooShortError,
    IntegrationAccuracyError,
    PlacementError,
    PotentialSingularityError,
    ValidationError,
)
from .params import Band, CouplingConfig, EmitterParams, Variant, WaveguideParams

#: population threshold below which the emitter counts as empty
EMITTER_EMPTY = 1e-6
#: probability allowed within 2 sigma_x of the coupling cell at stop time
WINDOW_CLEAR = 5e-3
#: per-end probability above which a run is flagged as hitting a chain end
END_LEAK = 1e-4


@dataclass(frozen=True)
class LatticeHamiltonian:
    """Single-excitation Hamiltonian on the basis [A1, B1, ..., AN, BN, e, a],
    stored as its diagonal ``onsite``, the ``bonds`` between neighbors in
    that order (-t1/-t2 alternating, 0 from BN to e, Omega/2 from e to a),
    and the ``couplings`` of e to the one or two ``sites`` of cell ``x1``."""

    onsite: np.ndarray
    bonds: np.ndarray
    sites: np.ndarray
    couplings: np.ndarray
    n_cells: int
    x1: int
    config: CouplingConfig

    @property
    def dim(self) -> int:
        return len(self.onsite)

    def _entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(row, column, value) of every stored matrix element."""
        i = np.arange(self.dim)
        e = np.full(len(self.sites), self.dim - 2)
        return (
            np.concatenate((i, i[:-1], i[1:], e, self.sites)),
            np.concatenate((i, i[1:], i[:-1], self.sites, e)),
            np.concatenate((self.onsite, self.bonds, self.bonds, self.couplings, self.couplings)),
        )

    @property
    def matrix(self) -> np.ndarray:
        """Dense (2N+2)-square matrix, for tests at small N."""
        h = np.zeros((self.dim, self.dim))
        rows, cols, vals = self._entries()
        np.add.at(h, (rows, cols), vals)
        return h

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """H psi in O(N) operations."""
        out = self.onsite * psi
        out[:-1] += self.bonds * psi[1:]
        out[1:] += self.bonds * psi[:-1]
        out[-2] += self.couplings @ psi[self.sites]
        out[self.sites] += self.couplings * psi[-2]
        return out


@dataclass(frozen=True)
class ScatterSolution:
    """Numerically exact scattering amplitudes with the solve residual."""

    t_num: complex
    r_num: complex
    residual: float


@dataclass(frozen=True)
class WavepacketRun:
    """Outcome of one time-domain transport run."""

    k0: float
    sigma_x: float
    n_cells: int
    x1: int
    time: float
    transmitted: float
    reflected: float
    residual: float
    emitter_population: float
    norm_drift: float


def build_hamiltonian(
    n_cells: int,
    params: WaveguideParams,
    emitter: EmitterParams,
    config: CouplingConfig,
) -> LatticeHamiltonian:
    """Assemble the (2N+2)-dimensional single-excitation Hamiltonian."""
    n = n_cells
    if n < 1:
        raise ValidationError(f"n_cells = {n} must be positive")
    x1 = emitter.x1
    if not 1 <= x1 <= n:
        raise PlacementError(f"coupling cell x1 = {x1} outside chain of {n} cells")
    onsite = np.zeros(2 * n + 2)
    onsite[2 * n :] = emitter.omega_e, emitter.omega_a
    bonds = np.zeros(2 * n + 1)
    bonds[0 : 2 * n : 2] = -params.t1
    bonds[1 : 2 * n - 1 : 2] = -params.t2
    bonds[2 * n] = emitter.omega_rabi / 2.0
    g1, g2 = config.couplings(emitter.g)
    sites, couplings = {
        Variant.A: ([2 * x1 - 2], [g1]),
        Variant.B: ([2 * x1 - 1], [g2]),
        Variant.AB: ([2 * x1 - 2, 2 * x1 - 1], [g1, g2]),
    }[config.variant]
    return LatticeHamiltonian(onsite, bonds, np.array(sites), np.array(couplings), n, x1, config)


def boundary_matched_solve(
    omega: float,
    n_cells: int,
    params: WaveguideParams,
    emitter: EmitterParams,
    config: CouplingConfig,
    band: Band = Band.UPPER,
) -> ScatterSolution:
    """Exact scattering amplitudes at signed energy ``omega``.

    The outermost cells carry incoming + reflected (left) and transmitted
    (right) plane waves; all interior equations of motion, including the
    emitter rows, are solved as one linear system.  The residual is the
    largest violation of (H - omega) psi = 0 over the enforced rows after
    reconstructing the full state.
    """
    n = n_cells
    if n < 8:
        raise ValidationError(f"n_cells = {n} too small for boundary matching (need >= 8)")
    x1 = emitter.x1
    if not 4 <= x1 <= n - 3:
        raise PlacementError(
            f"x1 = {x1} too close to a chain end for N = {n} (need 4 <= x1 <= N-3)"
        )
    k = momentum_from_energy(omega, params, band)
    phi_e = band_phase(k, omega, params)
    ham = build_hamiltonian(n, params, emitter, config)

    # Each basis state is const + factor * unknown[col], the unknowns ordered
    # r, interior sites, t, e, a: cell 1 holds the incoming plus r times the
    # reflected Bloch wave, cell N t times the transmitted one.
    col = np.r_[0, 0, 1 : 2 * n - 3, 2 * n - 3, 2 * n - 3, 2 * n - 2, 2 * n - 1]
    bloch = np.array([cmath.exp(1j * phi_e), 1.0])
    factor = np.r_[cmath.exp(-1j * k) * bloch.conj(), np.ones(2 * n - 4),
                   cmath.exp(1j * k * n) * bloch, 1.0, 1.0]
    const = np.r_[cmath.exp(1j * k) * bloch, np.zeros(2 * n)]

    # Every row except A_1 and B_N is enforced (all their neighbors have
    # expansions); the equation of row i is numbered col[i].
    rows, states, vals = ham._entries()
    keep = (rows != 0) & (rows != 2 * n - 1)
    vals = (vals - omega * (rows == states))[keep]
    eqs, states = col[rows[keep]], states[keep]
    mat = np.zeros((2 * n, 2 * n), dtype=complex)
    np.add.at(mat, (eqs, col[states]), vals * factor[states])
    rhs = np.zeros(2 * n, dtype=complex)
    np.add.at(rhs, eqs, -vals * const[states])
    try:
        sol = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise PotentialSingularityError(
            f"boundary-matched system singular at omega = {omega}: {exc}",
            pole=omega - emitter.omega_e,
        ) from exc

    psi = const + factor * sol[col]
    residual = float(np.max(np.abs(np.delete(ham.apply(psi) - omega * psi, [0, 2 * n - 1]))))
    return ScatterSolution(t_num=complex(sol[2 * n - 3]), r_num=complex(sol[0]), residual=residual)


def _chebyshev_coefficients(x: float) -> np.ndarray:
    """Chebyshev coefficients (2 - [k = 0]) (-i)^k J_k(x) of exp(-i x y) on
    [-1, 1], read off one FFT of exp(-i x cos theta) (Jacobi-Anger).

    The first order dropped is the first k > |x| + 1 (so at least two terms
    remain) where Kapteyn's bound |J_k(x)| <= [z e^s / (1 + s)]^k,
    z = |x|/k, s = sqrt(1 - z^2), is below 1e-15; the faster-than-geometric
    decay past k = |x| keeps the truncation error within about ten times that.
    """
    order = int(abs(x)) + 2
    while x:
        z = abs(x) / order
        s = math.sqrt(1.0 - z * z)
        if order * (math.log(z) + s - math.log1p(s)) < math.log(1e-15):
            break
        order += 1
    # samples enough for the aliased orders m - k >= m / 2 to be negligible
    m = 1 << (2 * order + 64).bit_length()
    theta = 2.0 * math.pi * np.arange(m) / m
    coeffs = np.fft.fft(np.exp(-1j * x * np.cos(theta)))[:order] / m
    coeffs[1:] *= 2.0
    return coeffs


def evolve(state: np.ndarray, ham: LatticeHamiltonian, t: float) -> np.ndarray:
    """Unitary evolution exp(-i H t) by a Chebyshev expansion (Tal-Ezer and
    Kosloff, J. Chem. Phys. 81, 3967 (1984)).

    With the spectrum in [c - w, c + w] (Gershgorin bounds) and X = (H - c)/w,
    exp(-i H t) = exp(-i c t) sum_k a_k T_k(X), a_k from
    :func:`_chebyshev_coefficients` at x = w t; each term costs one O(N)
    product with H.  The norm is checked to 1e-8 as the method contract.
    """
    rows, cols, vals = ham._entries()
    radius = np.bincount(rows, weights=np.abs(vals) * (rows != cols), minlength=ham.dim)
    lo, hi = float(np.min(ham.onsite - radius)), float(np.max(ham.onsite + radius))
    center, half = (hi + lo) / 2.0, (hi - lo) / 2.0 or 1.0
    s = 2.0 / half  # the recurrence runs on 2X
    two_x = replace(
        ham, onsite=s * (ham.onsite - center), bonds=s * ham.bonds, couplings=s * ham.couplings
    )
    coeffs = _chebyshev_coefficients(half * t)
    psi = np.asarray(state, dtype=complex)
    prev, cur = psi, 0.5 * two_x.apply(psi)
    out = coeffs[0] * prev + coeffs[1] * cur
    for a in coeffs[2:]:
        prev, cur = cur, two_x.apply(cur) - prev
        out += a * cur
    out *= cmath.exp(-1j * center * t)
    drift = abs(float(np.linalg.norm(out)) - float(np.linalg.norm(state)))
    if drift > 1e-8:
        raise IntegrationAccuracyError(f"norm drift {drift:.3e} exceeds 1e-8")
    return out


def packet_momentum_weights(
    k0: float, sigma_x: float, n_cells: int
) -> tuple[np.ndarray, np.ndarray]:
    """Discrete momentum grid and Gaussian weights of the probe packet.

    Weights follow exp(-(k - kc)^2 sigma_x^2 / 2), i.e. sigma_k = 1/sigma_x.
    The carrier is kc = -k0: the upper band disperses downward on (0, pi),
    so rightward group velocity requires a negative carrier momentum.  The
    transmission magnitude is direction-independent, so results are quoted
    against |k0|.
    """
    m = np.arange(n_cells)
    k = 2.0 * math.pi * m / n_cells
    k = np.where(k > math.pi, k - 2.0 * math.pi, k)
    diff = np.mod(k + k0 + math.pi, 2.0 * math.pi) - math.pi
    weights = np.exp(-0.5 * (sigma_x * diff) ** 2)
    return k, weights


def gaussian_packet(
    k0: float,
    sigma_x: float,
    center: int,
    params: WaveguideParams,
    n_cells: int,
) -> np.ndarray:
    """Normalized upper-band Gaussian wavepacket centered on ``center``.

    Built in momentum space and projected onto the upper-band Bloch
    amplitudes (1, exp(-i phi_k)) per cell, then placed on the full
    single-excitation basis with empty emitter levels.
    """
    k, weights = packet_momentum_weights(k0, sigma_x, n_cells)
    phi = np.angle(-params.t1 - params.t2 * np.exp(-1j * k))
    # sum_m w_m exp(i k_m (j - center)) is an inverse DFT read at (j - center) mod N
    shift = (np.arange(1, n_cells + 1) - center) % n_cells
    amps = np.fft.ifft(np.stack((weights, weights * np.exp(-1j * phi))), axis=1)[:, shift]
    psi = np.zeros(2 * n_cells + 2, dtype=complex)
    psi[: 2 * n_cells] = amps.T.ravel()  # A1, B1, A2, ...
    return psi / np.linalg.norm(psi)


def _probabilities(psi: np.ndarray, n_cells: int, x1: int, window: int):
    cell_prob = np.abs(psi[0 : 2 * n_cells : 2]) ** 2 + np.abs(psi[1 : 2 * n_cells : 2]) ** 2
    emitter = float(np.sum(np.abs(psi[2 * n_cells :]) ** 2))
    left = float(np.sum(cell_prob[: x1 - 1]))
    right = float(np.sum(cell_prob[x1:]))
    middle = float(cell_prob[x1 - 1])
    near = float(np.sum(cell_prob[max(0, x1 - 1 - window) : x1 + window]))
    ends = float(cell_prob[:2].sum()), float(cell_prob[-2:].sum())
    return left, right, middle, emitter, near, ends


def wavepacket_transport(
    k0: float,
    sigma_x: float,
    n_cells: int,
    params: WaveguideParams,
    emitter: EmitterParams,
    config: CouplingConfig,
) -> WavepacketRun:
    """Scatter a Gaussian packet off the emitter and tally probabilities.

    The run evolves until both scattered packets are at least 2 sigma_x
    cells clear of the coupling cell and the emitter population has dropped
    below 1e-6; transmitted probability is everything strictly right of the
    coupling cell, with the coupling cell and emitter reported as residual.
    """
    if not 0.2 < k0 < math.pi - 0.2:
        raise ValidationError(f"k0 = {k0} outside the supported carrier window (0.2, pi-0.2)")
    if n_cells < 10 * sigma_x:
        raise ValidationError(f"n_cells = {n_cells} < 10 sigma_x = {10 * sigma_x}")
    x1 = emitter.x1
    start_offset = int(round(3.5 * sigma_x))
    center = x1 - start_offset
    if center - 2 * sigma_x < 1:
        raise ChainTooShortError(
            f"no room left of x1 = {x1} for a packet of width sigma_x = {sigma_x}"
        )
    if x1 + 4 * sigma_x > n_cells:
        raise ChainTooShortError(
            f"no room right of x1 = {x1} to clear the emitter on {n_cells} cells"
        )
    ham = build_hamiltonian(n_cells, params, emitter, config)
    speed = group_velocity(k0, params)
    window = int(round(2.0 * sigma_x))
    t_clear = (start_offset + 2.0 * sigma_x) / speed
    step = sigma_x / (2.0 * speed)
    psi = gaussian_packet(k0, sigma_x, center, params, n_cells)
    for i in range(64):
        psi = evolve(psi, ham, step if i else t_clear)
        t = t_clear + i * step
        left, right, middle, epop, near, (end_l, end_r) = _probabilities(
            psi, n_cells, x1, window
        )
        if max(end_l, end_r) > END_LEAK:
            raise ChainTooShortError(
                f"packet reached a chain end (probabilities {end_l:.2e}/{end_r:.2e}) "
                f"with near-emitter probability still {near:.2e}"
            )
        if epop < EMITTER_EMPTY and near < WINDOW_CLEAR:
            break
    else:
        raise IntegrationAccuracyError(
            f"emitter population {epop:.2e} failed to drop below {EMITTER_EMPTY} "
            "within the evolution budget"
        )
    norm_drift = abs(float(np.linalg.norm(psi)) - 1.0)
    if norm_drift > 1e-8:
        raise IntegrationAccuracyError(f"norm drift {norm_drift:.3e} exceeds 1e-8")
    return WavepacketRun(
        k0=k0,
        sigma_x=sigma_x,
        n_cells=n_cells,
        x1=x1,
        time=t,
        transmitted=right,
        reflected=left,
        residual=middle + epop,
        emitter_population=epop,
        norm_drift=norm_drift,
    )
