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
Numbered by position (the emitter's two levels right after the coupling
cell), that system is banded with lower and upper bandwidth 3.  Long chains
solve it in O(N) by banded Gaussian elimination with partial pivoting;
short ones, where LAPACK's dense LU is faster, expand the same band storage
into a dense matrix.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .bands import band_phase, group_velocity, momentum_from_energy
from .errors import (
    ChainTooShortError,
    IntegrationAccuracyError,
    PlacementError,
    PotentialSingularityError,
    ValidationError,
)
from .params import Band, CouplingConfig, EmitterParams, WaveguideParams

#: population threshold below which the emitter counts as empty
EMITTER_EMPTY = 1e-6
#: probability allowed within 2 sigma_x of the coupling cell at stop time
WINDOW_CLEAR = 5e-3
#: per-end probability above which a run is flagged as hitting a chain end
END_LEAK = 1e-4
#: evolution steps a transport run may take before it gives up
_MAX_STEPS = 64
#: Chebyshev terms held at once by :func:`evolve`, summed by one product
_BLOCK = 16
#: lower and upper bandwidth of the positionally ordered boundary-matched
#: system: the widest reach is the bond from cell x1's B site over e and a
_HALF_BAND = 3
#: chain length from which the boundary-matched system is eliminated over
#: its band instead of by a dense LU.  Band over dense time of one whole
#: solve, median over A/B/AB on both bands in three runs (2-core x86-64,
#: Python 3.11, numpy 2.4, one BLAS thread): 1.2-1.5 at N = 32 (0.24-0.35
#: ms dense), 1.0-1.25 at 48, 0.66-0.79 at 56, 0.37-0.47 at 96
_BAND_SOLVE_MIN_CELLS = 56


@dataclass(frozen=True)
class LatticeHamiltonian:
    """Single-excitation Hamiltonian on the basis [A1, B1, ..., AN, BN, e, a],
    stored as its diagonal ``onsite``, the ``bonds`` between neighbors in
    that order (-t1/-t2 alternating, 0 from BN to e, Omega/2 from e to a),
    and the ``couplings`` (g1, g2) of e to the two ``sites`` of the coupling cell.
    Single-site variants are alpha = 1 or 0: one of the couplings is exactly
    0 and contributes nothing.  What depends on H alone is built on first use
    and kept; :func:`build_hamiltonian` makes the arrays read-only."""

    onsite: np.ndarray
    bonds: np.ndarray
    sites: np.ndarray
    couplings: np.ndarray

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

    @functools.cached_property
    def _stencil(self):
        """H as :func:`_hop` applies it: the diagonal and the bonds each
        repeated twice, for the float64 view of a complex state, and the
        nonzero couplings as (float index of e, float index of the site,
        value)."""
        pairs = zip(self.sites.tolist(), self.couplings.tolist())
        links = tuple((2 * self.dim - 4, 2 * site, g) for site, g in pairs if g)
        return self.onsite.repeat(2), self.bonds.repeat(2), links

    @functools.cached_property
    def _chebyshev(self):
        """(c, w, 2X), the set-up of :func:`evolve`: the center and half-width
        of the Gershgorin interval holding H's spectrum, and 2X = 2 (H - c)/w
        as :attr:`_stencil` gives H."""
        rows, cols, vals = self._entries()
        radius = np.bincount(rows, weights=np.abs(vals) * (rows != cols), minlength=self.dim)
        lo, hi = float(np.min(self.onsite - radius)), float(np.max(self.onsite + radius))
        center, half = (hi + lo) / 2.0, (hi - lo) / 2.0 or 1.0
        s = 2.0 / half
        diag, bonds, links = self._stencil
        links = tuple((e, site, s * g) for e, site, g in links)
        return center, half, (s * (diag - center), s * bonds, links)

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """H psi in O(N) operations."""
        psi = np.ascontiguousarray(psi, dtype=complex)
        out = np.empty_like(psi)
        src, dst = _views((psi, out))
        _hop(dst, src, self._stencil, np.empty(2 * self.dim - 2))
        return out


def _views(rows) -> list[tuple]:
    """Each C-contiguous complex vector of ``rows`` as :func:`_hop` reads
    and writes it: its float64 view, that view less its last and less its
    first complex entry, and a memoryview of it for the scalar updates."""
    views = []
    for row in rows:
        flat = row.view(np.float64)
        views.append((flat, flat[:-2], flat[2:], memoryview(flat)))
    return views


def _hop(out, psi, stencil, tmp) -> None:
    """Write A psi into ``out`` in place, the one H-times-state kernel.

    A is real and symmetric, tridiagonal along the basis plus the emitter
    couplings: ``stencil`` is H as :attr:`LatticeHamiltonian._stencil` gives
    it, or the 2X of :func:`evolve`.  The tridiagonal part runs on the float64
    views of :func:`_views`, where the real and imaginary parts of a complex
    entry share its real coefficient, so no array is cast and ``tmp`` (as
    long as ``bonds``) is the only scratch; each coupling is four scalar updates.
    """
    flat, head, tail, mem = out
    vflat, vhead, vtail, vmem = psi
    diag, bonds, links = stencil
    np.multiply(diag, vflat, out=flat)
    np.multiply(bonds, vtail, out=tmp)
    np.add(head, tmp, out=head)
    np.multiply(bonds, vhead, out=tmp)
    np.add(tail, tmp, out=tail)
    for e, site, g in links:
        mem[e] += g * vmem[site]
        mem[e + 1] += g * vmem[site + 1]
        mem[site] += g * vmem[e]
        mem[site + 1] += g * vmem[e + 1]


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
    sites = np.array([2 * x1 - 2, 2 * x1 - 1])
    couplings = np.array(config.couplings(emitter.g))
    for field in (onsite, bonds, sites, couplings):
        field.setflags(write=False)
    return LatticeHamiltonian(onsite, bonds, sites, couplings)


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
    emitter rows, are solved as one linear system.  Its unknowns and
    equations are numbered by position along the chain, with the emitter
    levels e and a right after cell ``x1``, so it is banded with half-width
    3 and is assembled straight into band storage.  From
    ``_BAND_SOLVE_MIN_CELLS`` cells on it is solved by pivoted banded
    elimination in O(N) time and memory; below, the band is expanded into a
    dense matrix for LAPACK's pivoted LU, which is faster there.  An exactly
    singular system raises :class:`PotentialSingularityError`.  The residual
    is the largest violation of (H - omega) psi = 0 over the enforced rows
    after reconstructing the full state.
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

    # Each basis state is const + factor * unknown[pos], the unknowns numbered
    # by position: r with cell 1, the interior sites in chain order with e
    # and a right after cell x1's two sites, t with cell N.  Cell 1 holds the
    # incoming plus r times the reflected Bloch wave, cell N t times the
    # transmitted one.
    pos = np.arange(-1, 2 * n + 1)
    pos[:2] = 0
    pos[2 * x1 : 2 * n - 2] += 2
    pos[2 * n - 2 : 2 * n] = 2 * n - 1
    pos[2 * n :] = 2 * x1 - 1, 2 * x1
    bloch = np.array([cmath.exp(1j * phi_e), 1.0])
    factor = np.ones(2 * n + 2, dtype=complex)
    factor[:2] = cmath.exp(-1j * k) * bloch.conj()
    factor[2 * n - 2 : 2 * n] = cmath.exp(1j * k * n) * bloch
    const = np.zeros(2 * n + 2, dtype=complex)
    const[:2] = cmath.exp(1j * k) * bloch

    # Every row except A_1 and B_N is enforced (all their neighbors have
    # expansions); the equation of row i is numbered pos[i].  Exact zeros add
    # nothing and are dropped, among them the BN-e bond, the one entry that
    # would otherwise reach outside the band of half-width _HALF_BAND.
    rows, states, vals = ham._entries()
    vals = vals - omega * (rows == states)
    keep = (rows != 0) & (rows != 2 * n - 1) & (vals != 0)
    vals, eqs, states = vals[keep], pos[rows[keep]], states[keep]
    banded = np.zeros((2 * n, 2 * _HALF_BAND + 1), dtype=complex)
    np.add.at(banded, (eqs, pos[states] - eqs + _HALF_BAND), vals * factor[states])
    rhs = np.zeros(2 * n, dtype=complex)
    np.add.at(rhs, eqs, -vals * const[states])
    try:
        if n >= _BAND_SOLVE_MIN_CELLS:
            sol = _band_solve(banded, rhs)
        else:
            sol = np.linalg.solve(_dense(banded), rhs)
    except np.linalg.LinAlgError as exc:
        raise PotentialSingularityError(
            f"boundary-matched system singular at omega = {omega}: {exc}",
            pole=omega - emitter.omega_e,
        ) from exc

    psi = const + factor * sol[pos]
    residual = float(np.max(np.abs(np.delete(ham.apply(psi) - omega * psi, [0, 2 * n - 1]))))
    return ScatterSolution(t_num=complex(sol[2 * n - 1]), r_num=complex(sol[0]), residual=residual)


def _dense(band: np.ndarray) -> np.ndarray:
    """The square matrix whose row i holds columns i - _HALF_BAND ..
    i + _HALF_BAND in ``band[i]``."""
    mat = np.zeros((len(band), len(band)), dtype=complex)
    i, j = np.nonzero(band)
    mat[i, i + j - _HALF_BAND] = band[i, j]
    return mat


def _band_solve(band: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the banded system of :func:`_dense` by Gaussian elimination
    with partial pivoting, the algorithm of LAPACK ``zgbsv`` (Golub and
    Van Loan, *Matrix Computations*, section 4.3), in O(len(rhs)).

    Each row is held as a window that starts at its first nonzero column
    and enters the elimination only at that column's step, so a step pivots
    among and eliminates just the rows that reach its column.  Row
    interchanges widen a pivot row to at most the band's width past its
    diagonal, which the window holds.  An exactly zero pivot column raises
    ``LinAlgError``, as ``np.linalg.solve`` does.
    """
    m, w = band.shape
    nonzero = band != 0
    first = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), _HALF_BAND)
    # row i as its entries from column i - _HALF_BAND + first[i] on,
    # zero-padded to w, then rhs[i]
    cols = first[:, None] + np.arange(w)
    win = np.zeros((m, w + 1), dtype=complex)
    win[:, :w] = np.where(cols < w, np.take_along_axis(band, np.minimum(cols, w - 1), axis=1), 0)
    win[:, w] = rhs
    arrivals = [[] for _ in range(m)]
    for row, s in zip(win.tolist(), (np.arange(m) - _HALF_BAND + first).tolist()):
        arrivals[s].append(row)
    active, pivots = [], []
    for k in range(m):
        active += arrivals[k]
        p, best = -1, 0.0
        for i, row in enumerate(active):
            size = abs(row[0])
            if size > best:
                p, best = i, size
        if p < 0:
            raise np.linalg.LinAlgError("Singular matrix")
        pivots.append(active.pop(p))
        # unrolled over the fixed width 2 * _HALF_BAND + 1
        h, u1, u2, u3, u4, u5, u6, ub = pivots[-1]
        for i, r in enumerate(active):
            f = r[0] / h
            active[i] = [r[1] - f * u1, r[2] - f * u2, r[3] - f * u3, r[4] - f * u4,
                         r[5] - f * u5, r[6] - f * u6, 0j, r[7] - f * ub]
    x = [0j] * (m + w)
    for k in range(m - 1, -1, -1):
        h, u1, u2, u3, u4, u5, u6, b = pivots[k]
        x[k] = (b - u1 * x[k + 1] - u2 * x[k + 2] - u3 * x[k + 3] - u4 * x[k + 4]
                - u5 * x[k + 5] - u6 * x[k + 6]) / h
    return np.array(x[:m])


@functools.lru_cache(maxsize=32)
def _chebyshev_coefficients(x: float) -> np.ndarray:
    """Chebyshev coefficients (2 - [k = 0]) (-i)^k J_k(x) of exp(-i x y) on
    [-1, 1], read off one FFT of exp(-i x cos theta) (Jacobi-Anger).

    The first order dropped is the first k > |x| + 1 (so at least two terms
    remain) where Kapteyn's bound |J_k(x)| <= [z e^s / (1 + s)]^k,
    z = |x|/k, s = sqrt(1 - z^2), is below 1e-15; the faster-than-geometric
    decay past k = |x| keeps the truncation error within about ten times that.
    Memoised on x, since a run repeats one step; the array is read-only.
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
    coeffs.flags.writeable = False
    return coeffs


def evolve(state: np.ndarray, ham: LatticeHamiltonian, t: float) -> np.ndarray:
    """Unitary evolution exp(-i H t) by a Chebyshev expansion (Tal-Ezer and
    Kosloff, J. Chem. Phys. 81, 3967 (1984)).

    With the spectrum in [c - w, c + w] (Gershgorin bounds) and X = (H - c)/w,
    exp(-i H t) = exp(-i c t) sum_k a_k T_k(X), a_k from
    :func:`_chebyshev_coefficients` at x = w t (memoised, so repeated steps
    reuse them).  The terms follow T_{k+1} = 2X T_k - T_{k-1}, each written
    in place by :func:`_hop`, the kernel of :meth:`LatticeHamiltonian.apply`,
    into the next row of a fixed block of ``_BLOCK`` rows; whenever the block
    is full, one complex matrix-vector product adds its a_k T_k to the sum.
    Memory is O(N) whatever the number of terms.  c, w and 2X are set up
    once per Hamiltonian.  The norm is checked to 1e-8 as the method contract.
    """
    center, half, stencil = ham._chebyshev
    coeffs = _chebyshev_coefficients(half * t)
    block = np.empty((_BLOCK, ham.dim), dtype=complex)
    views = _views(block)
    tmp = np.empty(2 * ham.dim - 2)
    block[0] = state
    _hop(views[1], views[0], stencil, tmp)
    block[1] *= 0.5
    out = np.zeros(ham.dim, dtype=complex)
    for k in range(2, len(coeffs)):
        j = k % _BLOCK
        _hop(views[j], views[j - 1], stencil, tmp)
        np.subtract(views[j][0], views[j - 2][0], out=views[j][0])
        if j == _BLOCK - 1:
            out += coeffs[k - j : k + 1] @ block
    rest = len(coeffs) % _BLOCK
    if rest:
        out += coeffs[-rest:] @ block[:rest]
    out *= cmath.exp(-1j * center * t)
    drift = abs(float(np.linalg.norm(out)) - float(np.linalg.norm(state)))
    if drift > 1e-8:
        raise IntegrationAccuracyError(f"norm drift {drift:.3e} exceeds 1e-8")
    return out


def _check_packet_width(sigma_x: float) -> None:
    if not (math.isfinite(sigma_x) and sigma_x > 0.0):
        raise ValidationError(f"sigma_x must be finite and positive, got {sigma_x}")


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
    _check_packet_width(sigma_x)
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
    _check_packet_width(sigma_x)
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
    for i in range(_MAX_STEPS):
        psi = evolve(psi, ham, step if i else t_clear)
        t = t_clear + i * step
        left, right, middle, epop, near, (end_l, end_r) = _probabilities(
            psi, n_cells, x1, window
        )
        if max(end_l, end_r) > END_LEAK:
            raise ChainTooShortError(
                f"packet reached a chain end (probabilities {end_l:.2e}/{end_r:.2e}) "
                f"at t = {t:.6g} after {i + 1} steps "
                f"with near-emitter probability still {near:.2e}"
            )
        if epop < EMITTER_EMPTY and near < WINDOW_CLEAR:
            break
    else:
        raise IntegrationAccuracyError(
            f"emitter population {epop:.2e} failed to drop below {EMITTER_EMPTY} "
            f"within the evolution budget: t = {t:.6g} after {_MAX_STEPS} steps"
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
