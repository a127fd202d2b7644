"""Independent numerical oracle on a finite chain.

Everything here is built directly from the real-space Hamiltonian: an
exact boundary-matched scattering solve and time-domain wavepacket
transport.  No transfer-matrix or closed-form algebra from the scattering
module is imported (a structural test enforces this), so agreement between
the two routes is a genuine cross-check rather than a tautology.

Boundary matching (:func:`boundary_matched_solve`) is exact at any finite
chain length with the emitter in the bulk: Bloch waves fill every other
cell, leaving a 6x6 system at the coupling cell per energy.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bands import (
    band_phase,
    group_velocity,
    momentum_from_energy,
    momentum_grid,
    require_dispersive,
)
from .errors import (
    ChainTooShortError,
    IntegrationAccuracyError,
    PlacementError,
    PotentialSingularityError,
    ValidationError,
)
from .params import Band, CouplingConfig, EmitterParams, WaveguideParams, cell_index, in_units_of_j

#: population threshold below which the emitter counts as empty
EMITTER_EMPTY = 1e-6
#: probability allowed within 2 sigma_x of the coupling cell at stop time
WINDOW_CLEAR = 5e-3
#: per-end probability above which a run is flagged as hitting a chain end
END_LEAK = 1e-4
#: Chebyshev terms held at once by :func:`evolve`, summed by one product
_BLOCK = 16
#: largest |w t| of an :func:`evolve` step, about as many terms: a 2^19-sample FFT, 20 MiB at peak
_MAX_WT = 2.0**17
#: complex entries of psi per chunk of a solve over an array of energies: at
#: 512 kB an array, the few that a residual pass holds stay in a core's L2
#: cache (2^18 took about 1.8 times as long per energy at N = 32 and 512 on
#: a 2-core x86-64 VM with 2 MB of L2 per core)
_CHUNK = 1 << 15


class LatticeHamiltonian(NamedTuple):
    """Single-excitation Hamiltonian H/J, its times in units of 1/J, as the
    named tuple of the numbers it is made of, on the basis
    [A1, B1, ..., AN, BN, e, a] of ``n_cells`` cells: the hoppings ``t1``
    within and ``t2`` between cells (H holds -t1 and -t2; the chain has no
    on-site energy), the levels ``level_e`` and ``level_a`` of e and a, the
    ``drive`` Omega/2J between them, and the couplings ``g1`` and ``g2`` of e
    to the A and B sites of cell ``x1``.  Single-site variants are alpha = 1
    or 0: one coupling is exactly 0 and contributes nothing.

    Nothing it holds grows with N, and being a tuple of numbers it cannot
    change.  The read-only arrays ``onsite``, ``bonds`` (between neighbors
    in basis order: -t1 and -t2 alternating, 0 from BN to e, the drive from
    e to a), ``sites`` and ``couplings``, the stored entries and the dense
    ``matrix`` are derived from these numbers on request, in O(N) or more;
    what :func:`evolve` needs is built on first use and kept for the most
    recent Hamiltonian.  Build one with :func:`build_hamiltonian`."""

    n_cells: int
    t1: float
    t2: float
    level_e: float
    level_a: float
    drive: float
    x1: int
    g1: float
    g2: float

    @property
    def dim(self) -> int:
        return 2 * self.n_cells + 2

    @property
    def onsite(self) -> np.ndarray:
        return _read_only(np.r_[np.zeros(2 * self.n_cells), self.level_e, self.level_a])

    @property
    def bonds(self) -> np.ndarray:
        n2 = 2 * self.n_cells
        bonds = np.zeros(n2 + 1)
        bonds[0:n2:2] = -self.t1
        bonds[1 : n2 - 1 : 2] = -self.t2
        bonds[n2] = self.drive
        return _read_only(bonds)

    @property
    def sites(self) -> np.ndarray:
        return _read_only(np.array([2 * self.x1 - 2, 2 * self.x1 - 1]))

    @property
    def couplings(self) -> np.ndarray:
        return _read_only(np.array([self.g1, self.g2]))

    def _entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(row, column, value) of every stored matrix element."""
        i = np.arange(self.dim)
        e = np.full(2, self.dim - 2)
        sites, couplings = self.sites, self.couplings
        return (
            np.concatenate((i, i[:-1], i[1:], e, sites)),
            np.concatenate((i, i[1:], i[:-1], sites, e)),
            np.concatenate((self.onsite, self.bonds, self.bonds, couplings, couplings)),
        )

    @property
    def matrix(self) -> np.ndarray:
        """Dense (2N+2)-square matrix, for tests at small N."""
        h = np.zeros((self.dim, self.dim))
        rows, cols, vals = self._entries()
        np.add.at(h, (rows, cols), vals)
        return h

    @property
    def _chebyshev(self):
        """:func:`_chebyshev_setup` of this Hamiltonian."""
        return _chebyshev_setup(self)

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """H psi along the last axis, for one state or a stack of states,
        in O(N) operations each: a two-hopping stencil on the A and B
        sublattice views.  Each chain site takes -t1 times its partner in
        the cell, then adds -t2 times its partner in the neighboring cell;
        a coupled site then adds g times e.  The row of e sums its level
        term, the drive term and then the couplings, that of a its level
        term and then the drive term."""
        psi = np.asarray(psi, dtype=complex)
        out = np.empty(psi.shape, dtype=complex)
        n2, lo = 2 * self.n_cells, 2 * self.x1 - 2
        sites_a, sites_b = psi[..., 0:n2:2], psi[..., 1:n2:2]
        out_a, out_b = out[..., 0:n2:2], out[..., 1:n2:2]
        intra = complex(-self.t1)
        np.multiply(sites_b, intra, out=out_a)
        np.multiply(sites_a, intra, out=out_b)
        # the pairs (B_j, A_j+1) across the bonds between cells, times -t2
        across = psi[..., 1 : n2 - 1] * complex(-self.t2)
        from_left, from_right = out_a[..., 1:], out_b[..., :-1]
        from_left += across[..., 0::2]
        from_right += across[..., 1::2]
        # psi.T[i] is entry i of every state: for one state a number, whose
        # arithmetic stays scalar; the dot product is numpy's, for its rounding
        e, a = psi.T[n2], psi.T[n2 + 1]
        couplings = np.dot(psi[..., lo : lo + 2], np.array((self.g1, self.g2), dtype=complex))
        out.T[n2] = self.level_e * e + self.drive * a + couplings.T
        out.T[n2 + 1] = self.level_a * a + self.drive * e
        out.T[lo] += self.g1 * e
        out.T[lo + 1] += self.g2 * e
        return out


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@functools.lru_cache(maxsize=1)
def _chebyshev_setup(ham: LatticeHamiltonian):
    """(w, bonds, (d_e, d_a), links), the set-up of :func:`evolve`: the
    half-width of the Gershgorin interval [-w, w] about zero holding H's
    spectrum, and 2X = 2H/w as the recurrence applies it: the bonds
    repeated twice, for the float64 view of a complex state, the diagonal
    of e and a (the chain has none) and the nonzero couplings as (float
    index of the site, value).  Each row's radius sums its off-diagonal
    moduli in basis order: the bond to the right, the bond to the left,
    then the couplings.  Memoised for the last H, which a transport run repeats."""
    t1, t2, drive = abs(ham.t1), abs(ham.t2), abs(ham.drive)
    g1, g2 = abs(ham.g1), abs(ham.g2)
    rows = [
        t1,  # A1 and BN
        (t1 + t2 if ham.x1 > 1 else t1) + g1,
        (t1 + t2 if ham.x1 < ham.n_cells else t1) + g2,
        abs(ham.level_e) + ((drive + g1) + g2),
        abs(ham.level_a) + drive,
    ]
    if ham.n_cells > 1:
        rows.append(t1 + t2)
    half = max(rows) or 1.0
    s = 2.0 / half
    pairs = ((2 * ham.x1 - 2, ham.g1), (2 * ham.x1 - 1, ham.g2))
    links = tuple((2 * site, s * g) for site, g in pairs if g)
    bonds = _read_only((s * ham.bonds).repeat(2))
    return half, bonds, (s * ham.level_e, s * ham.level_a), links


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


def _cell_count(n_cells) -> int:
    """``n_cells`` if it is a positive integer (a bool is not), else ValidationError."""
    if type(n_cells) is not int:
        if isinstance(n_cells, bool) or not isinstance(n_cells, numbers.Integral):
            raise ValidationError(f"n_cells must be an integer cell count, got {n_cells!r}")
        n_cells = int(n_cells)
    if n_cells < 1:
        raise ValidationError(f"n_cells = {n_cells} must be positive")
    return n_cells


def build_hamiltonian(
    n_cells: int,
    params: WaveguideParams,
    emitter: EmitterParams,
    config: CouplingConfig,
) -> LatticeHamiltonian:
    """The (2N+2)-dimensional H/J of every lattice route, its times in units of 1/J,
    as its numbers: hoppings 1 +- delta, levels omega_e/J and omega_e/J - delta_c/J,
    drive and couplings from :func:`~sshscatter.params.in_units_of_j` (exact at
    J = 2^n).  Nothing is allocated that grows with N."""
    n = _cell_count(n_cells)
    x1 = cell_index(emitter.x1)
    if not 1 <= x1 <= n:
        raise PlacementError(f"coupling cell x1 = {x1} outside chain of {n} cells")
    omega_e, delta_c, omega_rabi, g = in_units_of_j(params, emitter)
    return LatticeHamiltonian(n, 1.0 + params.delta, 1.0 - params.delta, omega_e,
                              omega_e - delta_c, omega_rabi / 2.0, x1, *config.couplings(g))


#: where the entries of :func:`_coupling_cell_equations` sit, row by row, in
#: the 42 of the augmented 6x7 system [M | b]; every other entry is 0
_SYSTEM_ENTRIES = _read_only(np.array([0, 1, 6, 7, 8, 9, 11, 13, 15, 16, 17, 18, 23, 24, 29, 30,
                                       32, 33, 39, 40]))


def _coupling_cell_equations(ham: LatticeHamiltonian, omega, left, right) -> tuple:
    """The six rows of (H - omega) psi = 0 that reach an unknown, as the
    entries of the augmented system [M | b] in the unknowns
    (r, A_x1, B_x1, t, e, a) at ``_SYSTEM_ENTRIES``:

    - B of cell x1 - 1: r, A_x1 | b;
    - A of cell x1: r, A_x1, B_x1, e | b;
    - B of cell x1: A_x1, B_x1, t, e;
    - A of cell x1 + 1: B_x1, t;
    - e: A_x1, B_x1, e, a;
    - a: e, a.

    ``left`` and ``right`` are the (A, B) amplitudes of the incoming wave on
    cells x1 - 1 and x1 + 1, the reflected wave being their conjugate; every
    coefficient is read off the Hamiltonian's numbers: -t1 within a cell,
    -t2 between cells, no on-site energy on the chain.  The same expressions
    hold for a float omega with complex waves and for arrays of them.  A
    level with no path to the chain is pinned: its row is that of psi = 0.
    """
    intra, inter, chain = -ham.t1, -ham.t2, -omega
    drive, g1, g2 = ham.drive, ham.g1, ham.g2
    (l_a, l_b), (r_a, r_b) = left, right
    coupled = bool(g1 or g2)
    e_row = (g1, g2, ham.level_e - omega, drive) if coupled else (0.0, 0.0, 1.0, 0.0)
    a_row = (drive, ham.level_a - omega) if coupled and drive else (0.0, 1.0)
    return (
        chain * l_b.conjugate() + intra * l_a.conjugate(), inter, -(chain * l_b) - intra * l_a,
        inter * l_b.conjugate(), chain, intra, g1, -inter * l_b,
        intra, chain, inter * r_a, g2,
        inter, chain * r_a + intra * r_b,
        *e_row,
        *a_row,
    )


def _powers(z, n: int) -> np.ndarray:
    """z^j for j = 1..N along the last axis, for one ``z`` or an array of
    them: the incoming wave exp(ikj) from the powers of one rounded exp(ik),
    so that neighbors are one rounding apart where exp(ikj) per cell would
    leave residuals growing with j."""
    lead = z.shape if isinstance(z, np.ndarray) else ()  # np.shape(z) costs ~1 us on a number
    powers = np.empty(lead + (n,), dtype=complex)
    powers.T[...] = z  # z along the leading axes, repeated along the last
    return np.multiply.accumulate(powers, axis=-1, out=powers)


def _residuals(ham, omega, powers, phase, sol):
    """The largest violation of (H - omega) psi = 0 over every row of H but
    A_1 and B_N: a float for one energy (``omega`` and ``phase`` numbers,
    ``powers`` and ``sol`` 1-d), an array for a stack of them (one more
    leading axis on each).  psi is, per cell, the incoming wave powers
    (exp(i phi_E), 1) plus r times its conjugate left of cell x1 and t
    times it right of x1, and the solved sites and levels ``sol``
    (r, A_x1, B_x1, t, e, a).  Transposed, an array puts its energies
    last, so that one energy's numbers and a stack's arrays broadcast
    alike.  The product with the phase reads the contiguous ``powers``:
    numpy's complex product rounds differently on strided operands."""
    n2, lo, hi = 2 * ham.n_cells, 2 * ham.x1 - 2, 2 * ham.x1
    psi = np.empty(powers.shape[:-1] + (n2 + 2,), dtype=complex)
    np.multiply(powers.T, phase, out=psi[..., 0:n2:2].T)
    psi[..., 1:n2:2] = powers
    left, right = psi[..., :lo].T, psi[..., hi:n2].T
    left += sol.T[0] * left.conj()
    right *= sol.T[3]
    psi[..., lo:hi] = sol[..., 1:3]
    psi[..., n2:] = sol[..., 4:]
    violation = ham.apply(psi).T
    violation -= omega * psi.T
    violation = np.abs(violation)
    violation[0] = violation[n2 - 1] = 0.0
    return violation.max(axis=0)


def boundary_matched_solve(
    omega,
    n_cells: int,
    params: WaveguideParams,
    emitter: EmitterParams,
    config: CouplingConfig,
    band: Band = Band.UPPER,
) -> ScatterSolution | tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact scattering amplitudes at signed energy ``omega``, a float or a
    1-d array of energies.

    Every cell left of ``x1`` holds the incoming plus r times the reflected
    Bloch wave, every cell right of it t times the transmitted one.  In a
    stretch without coupling, at an in-band energy, the equations of motion
    admit only those two waves, so the full-chain solution has this form and
    the unknowns are six: r, the two sites of cell ``x1``, t and the
    emitter levels e and a.  Their equations are the six rows that reach an
    unknown, written once by :func:`_coupling_cell_equations` from the
    Hamiltonian's numbers:

    - B of cell x1 - 1, in r and A_x1;
    - A of cell x1, in r, A_x1, B_x1 and e;
    - B of cell x1, in A_x1, B_x1, t and e;
    - A of cell x1 + 1, in B_x1 and t;
    - e, in A_x1, B_x1, e and a;
    - a, in e and a.

    They are solved as one dense 6x6 system; a null vector of it is one of
    the full system, so both are singular at the same energies.  An emitter
    level with no path to the chain (e without couplings, a without the
    drive or without e) is pinned to psi = 0, the solution; its row would
    be empty at its own energy.  The system is the H/J of
    :func:`build_hamiltonian` at omega/J (exact at J = 2^n, and no product
    of its entries leaves the normal doubles).  The residual is J times
    the largest violation of (H/J - omega/J) psi = 0 over every row of H but
    A_1 and B_N, so it also checks the Bloch waves on every free row of the
    chain.

    The chain is checked first (at least 8 cells), then the Hamiltonian is
    built, which checks x1 and the energies, then the placement 4 <= x1 <= N-3.
    A float returns a :class:`ScatterSolution`; an out-of-band energy raises
    as :func:`momentum_from_energy` does, and an exactly singular system or
    a residual that is not finite raises :class:`PotentialSingularityError`.
    An array returns ``(solved, t, r, residual)``: the mask of the energies
    that are in band (as :func:`momentum_grid` gives it) with a nonsingular
    system and a finite residual, and the two amplitudes and the residual at
    those energies only.  The energies are solved ``_CHUNK`` complex entries
    of psi at a time: one stacked ``np.linalg.solve`` and one residual pass
    per chunk.
    """
    n = _cell_count(n_cells)
    if n < 8:
        raise ValidationError(f"n_cells = {n} too small for boundary matching (need >= 8)")
    ham = build_hamiltonian(n, params, emitter, config)
    x1 = ham.x1
    if not 4 <= x1 <= n - 3:
        raise PlacementError(
            f"x1 = {x1} too close to a chain end for N = {n} (need 4 <= x1 <= N-3)"
        )
    j = params.J
    if type(omega) is float or isinstance(omega, numbers.Real):
        k = momentum_from_energy(omega, params, band)
        omega = float(omega)
        unit = omega / j
        phase = cmath.exp(1j * band_phase(k, omega, params))
        powers = _powers(cmath.exp(1j * k), n)
        left, right = powers[x1 - 2 : x1 + 1 : 2].tolist()
        system = np.zeros(42, dtype=complex)
        system[_SYSTEM_ENTRIES] = _coupling_cell_equations(
            ham, unit, (left * phase, left), (right * phase, right))
        system = system.reshape(6, 7)
        try:
            sol = np.linalg.solve(system[:, :6], system[:, 6])
        except np.linalg.LinAlgError as exc:
            raise PotentialSingularityError(
                f"boundary-matched system singular at omega = {omega}: {exc}",
                pole=omega - emitter.omega_e,
            ) from exc
        residual = float(_residuals(ham, unit, powers, phase, sol))
        if not math.isfinite(residual):
            raise PotentialSingularityError(
                f"amplitudes beyond the doubles at omega = {omega}", pole=omega - emitter.omega_e)
        r, _, _, t, _, _ = sol.tolist()
        return ScatterSolution(t, r, residual * j)

    omega = np.asarray(omega, dtype=float)
    if omega.ndim != 1:
        raise ValidationError(f"omega must be a float or a 1-d array, got shape {omega.shape}")
    in_band, k = momentum_grid(omega, params, band)
    omega = omega[in_band]
    phase = np.exp(1j * band_phase(k, omega, params))
    unit = omega / j
    z = np.exp(1j * k)
    solved = np.ones(len(omega), dtype=bool)
    t, r, residual = (np.empty(len(omega), dtype=dtype) for dtype in (complex, complex, float))
    step = max(1, _CHUNK // ham.dim)
    for start in range(0, len(omega), step):
        part = slice(start, start + step)
        powers = _powers(z[part], n)
        left, right = powers[:, x1 - 2], powers[:, x1]
        entries = _coupling_cell_equations(
            ham, unit[part], (left * phase[part], left), (right * phase[part], right)
        )
        system = np.zeros((len(left), 42), dtype=complex)
        for col, entry in zip(_SYSTEM_ENTRIES.tolist(), entries):
            system[:, col] = entry
        system = system.reshape(-1, 6, 7)
        mat, vec = system[:, :, :6], system[:, :, 6:]
        try:
            sol = np.linalg.solve(mat, vec)[:, :, 0]
        except np.linalg.LinAlgError:
            # rare: find the exactly singular systems, solve the others
            singular = np.linalg.slogdet(mat)[0] == 0.0
            mat[singular] = np.eye(6)
            solved[part] = ~singular
            sol = np.linalg.solve(mat, vec)[:, :, 0]
        t[part], r[part] = sol[:, 3], sol[:, 0]
        residual[part] = _residuals(ham, unit[part], powers, phase[part], sol)
    solved &= np.isfinite(residual)
    mask = in_band.copy()
    mask[in_band] = solved
    return mask, t[solved], r[solved], residual[solved] * j


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
    Kosloff, J. Chem. Phys. 81, 3967 (1984)), t in units of 1/J for the H/J
    of :func:`build_hamiltonian`.

    With the spectrum in [-w, w] (Gershgorin bounds about zero) and X = H/w,
    exp(-i H t) = sum_k a_k T_k(X), a_k from :func:`_chebyshev_coefficients`
    at x = w t (memoised, so repeated steps reuse them).  The terms follow
    T_{k+1} = 2X T_k - T_{k-1}, each written in place into the next row of
    a fixed block of ``_BLOCK`` rows; whenever the block is full, one
    complex matrix-vector product adds its a_k T_k to the sum.  A term is
    four array operations on float64 views, the real and imaginary parts of
    an entry sharing its real coefficient, and scalar updates for the
    diagonal of e and a and the couplings: the chain has no on-site energy.
    Memory is O(N) whatever the number of terms.  A state that does not
    have H's 2N+2 entries, or holds NaN or inf, raises ValidationError; the
    norm is checked to 1e-8 as the method contract.

    An emitter disc reaching beyond the chain's widens [-w, w] on both
    sides: at g = 0.2 J and Omega = 0.4 J, omega_e = 3.5 J takes about 1.25
    times the terms of an interval centred on the spectrum at long steps, 6 J
    about 1.45 times; on the chains of ``validate`` the two are the same.
    """
    state = np.asarray(state)
    if state.shape != (ham.dim,):
        raise ValidationError(
            f"state of shape {state.shape} does not fit the Hamiltonian's {ham.dim} entries")
    if not np.isfinite(state).all():
        raise ValidationError("state holds NaN or inf")
    half, bonds, (d_e, d_a), links = ham._chebyshev
    if not abs(half * t) <= _MAX_WT:
        raise ValidationError(f"evolve step t = {float(t)!r} out of range: w t = "
                              f"{float(half * t)!r} must be finite, |w t| <= {_MAX_WT:g}")
    coeffs = _chebyshev_coefficients(half * t)
    block = np.empty((_BLOCK, ham.dim), dtype=complex)
    rows = [(flat, flat[:-2], flat[2:], memoryview(flat)) for flat in block.view(np.float64)]
    views = [(rows[j], rows[j - 1], rows[j - 2][0]) for j in range(_BLOCK)]
    tmp = np.empty(2 * ham.dim - 2)
    e, a = 2 * ham.dim - 4, 2 * ham.dim - 2
    block[0] = state
    out = np.zeros(ham.dim, dtype=complex)
    for k in range(1, len(coeffs)):
        j = k % _BLOCK
        (flat, head, tail, mem), (_, vhead, vtail, vmem), before = views[j]
        np.multiply(bonds, vtail, out=head)
        # head ends before a: its stale entry is overwritten before tail adds
        mem[a] = d_a * vmem[a]
        mem[a + 1] = d_a * vmem[a + 1]
        np.multiply(bonds, vhead, out=tmp)
        np.add(tail, tmp, out=tail)
        mem[e] += d_e * vmem[e]
        mem[e + 1] += d_e * vmem[e + 1]
        for site, g in links:
            mem[e] += g * vmem[site]
            mem[e + 1] += g * vmem[site + 1]
            mem[site] += g * vmem[e]
            mem[site + 1] += g * vmem[e + 1]
        if k > 1:
            np.subtract(flat, before, out=flat)
        else:
            flat *= 0.5
        if j == _BLOCK - 1:
            out += coeffs[k - j : k + 1] @ block
    rest = len(coeffs) % _BLOCK
    if rest:
        out += coeffs[-rest:] @ block[:rest]
    drift = abs(float(np.linalg.norm(out)) - float(np.linalg.norm(state)))
    if not drift <= 1e-8:
        raise IntegrationAccuracyError(f"norm drift {drift:.3e} exceeds 1e-8")
    return out


def _check_packet_width(sigma_x: float) -> None:
    """A packet is at least one cell wide: narrower, the transport step
    sigma_x / 2v would shrink toward 0 and a run never reach a chain end."""
    if not (math.isfinite(sigma_x) and sigma_x >= 1.0):
        raise ValidationError(f"sigma_x must be finite and at least 1 cell, got {sigma_x}")


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
    n = _cell_count(n_cells)
    k = 2.0 * math.pi * np.arange(n) / n
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
    n = _cell_count(n_cells)
    k, weights = packet_momentum_weights(k0, sigma_x, n)
    phi = band_phase(k, 1.0, params)  # any positive energy: the upper band
    # sum_m w_m exp(i k_m (j - center)) is an inverse DFT read at (j - center) mod N
    shift = (np.arange(1, n + 1) - center) % n
    amps = np.fft.ifft(np.stack((weights, weights * np.exp(-1j * phi))), axis=1)[:, shift]
    psi = np.zeros(2 * n + 2, dtype=complex)
    psi[: 2 * n] = amps.T.ravel()  # A1, B1, A2, ...
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

    The run evolves in steps of sigma_x / 2v until both scattered packets
    are at least 2 sigma_x cells clear of the coupling cell and the emitter
    population has dropped below 1e-6; transmitted probability is everything
    strictly right of the coupling cell, with the coupling cell and emitter
    reported as residual.  The chain is the only limit on a run: the carrier
    window on a dispersive band keeps v > 0, so a packet that has not cleared
    reaches a chain end within about 2 N / sigma_x steps, and
    :class:`ChainTooShortError` names t (in units of 1/J where t/J overflows);
    a ValidationError names J where a finished run's t/J overflows.
    """
    _check_packet_width(sigma_x)
    if not 0.2 < k0 < math.pi - 0.2:
        raise ValidationError(f"k0 = {k0} outside the supported carrier window (0.2, pi-0.2)")
    require_dispersive(params, k0)
    n_cells = _cell_count(n_cells)
    if n_cells < 10 * sigma_x:
        raise ValidationError(f"n_cells = {n_cells} < 10 sigma_x = {10 * sigma_x}")
    x1 = cell_index(emitter.x1)
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
    speed = group_velocity(k0, WaveguideParams(params.delta))
    window = int(round(2.0 * sigma_x))
    t_clear = (start_offset + 2.0 * sigma_x) / speed
    step = sigma_x / (2.0 * speed)
    psi = gaussian_packet(k0, sigma_x, center, params, n_cells)
    for i in itertools.count():
        psi = evolve(psi, ham, step if i else t_clear)
        t = t_clear + i * step
        left, right, middle, epop, near, (end_l, end_r) = _probabilities(
            psi, n_cells, x1, window
        )
        if max(end_l, end_r) > END_LEAK:
            when = f"{t / params.J:.6g}" if math.isfinite(t / params.J) else f"{t:.6g}/J"
            raise ChainTooShortError(
                f"packet reached a chain end (probabilities {end_l:.2e}/{end_r:.2e}) "
                f"at t = {when} after {i + 1} steps "
                f"with near-emitter probability still {near:.2e}"
            )
        if epop < EMITTER_EMPTY and near < WINDOW_CLEAR:
            break
    norm_drift = abs(float(np.linalg.norm(psi)) - 1.0)
    if not norm_drift <= 1e-8:
        raise IntegrationAccuracyError(f"norm drift {norm_drift:.3e} exceeds 1e-8")
    if not math.isfinite(t / params.J):
        raise ValidationError(f"J out of range: {params.J} (the run lasts {t:.6g}/J)")
    return WavepacketRun(
        k0=k0,
        sigma_x=sigma_x,
        n_cells=n_cells,
        x1=x1,
        time=t / params.J,
        transmitted=right,
        reflected=left,
        residual=middle + epop,
        emitter_population=epop,
        norm_drift=norm_drift,
    )
