"""Brute-force verification layer.

Assembles the full 4x4 linearized dynamical matrix over (d, d+, b, b+),
solves the frequency-domain response by direct dense inversion at every
grid point, contracts with the input noise correlators to build spectra
numerically, and takes occupations from the exact stationary covariance
of the same drift matrix (a Lyapunov solve).  Nothing here reuses the
closed forms it is meant to audit.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .cavity import Spectrum
from .errors import DomainError, InstabilityError
from .params import SystemParams
from .squeezing import SqueezeSpec
from .steady import SteadyState

_IDENT = np.eye(4, dtype=complex)
#: The index permutation P of (d, d+, b, b+) that swaps each mode with its
#: adjoint: (d, d+, b, b+) -> (d+, d, b+, b).
_ADJOINT = [1, 0, 3, 2]


@dataclass(frozen=True)
class DynamicalMatrix:
    """Linearized drift matrix M and sqrt-decay matrix K of one operating
    point, with the scalars needed to scale derived spectra."""

    m: np.ndarray            # 4x4 complex
    k: np.ndarray            # 4x4 diagonal real
    ss: SteadyState = field(repr=False)
    p: SystemParams = field(repr=False)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvals(self.m)

    def is_stable(self) -> bool:
        return bool(np.all(self.eigenvalues().real < 0.0))


def build_matrix(ss: SteadyState, p: SystemParams) -> DynamicalMatrix:
    """Drift matrix of d/dt A = M A - K A_in with A = (d, d+, b, b+)."""
    lam = ss.lambda_abs * cmath.exp(2j * ss.phi_c)
    g = ss.g_abs * cmath.exp(1j * ss.phi_c)
    dt = ss.delta_tilde
    m = np.array([
        [1j * dt - p.kappa / 2.0, 1j * lam, -1j * g, -1j * g],
        [-1j * lam.conjugate(), -1j * dt - p.kappa / 2.0, 1j * g.conjugate(), 1j * g.conjugate()],
        [-1j * g.conjugate(), -1j * g, -1j * p.omega_m - p.gamma_m / 2.0, 0.0],
        [1j * g.conjugate(), 1j * g, 0.0, 1j * p.omega_m - p.gamma_m / 2.0],
    ], dtype=complex)
    k = np.diag([math.sqrt(p.kappa), math.sqrt(p.kappa),
                 math.sqrt(p.gamma_m), math.sqrt(p.gamma_m)]).astype(float)
    return DynamicalMatrix(m=m, k=k, ss=ss, p=p)


def input_correlators(p: SystemParams, sq: SqueezeSpec | None = None,
                      phi_c: float = 0.0) -> np.ndarray:
    """Correlator matrix C with <A_in,i(t) A_in,j(t')> = C_ij delta(t - t')
    over (d_in, d_in+, b_in, b_in+): vacuum plus optional squeezing on the
    cavity port, thermal occupation n_th on the mechanical port.

    The squeezing angle of a SqueezeSpec is measured in the frame where the
    cavity amplitude is real; pass the steady state's phi_c so the noise
    phase lands in the same gauge as the drift matrix.
    """
    c = np.zeros((4, 4), dtype=complex)
    c[0, 1] = 1.0
    c[2, 3] = p.n_th + 1.0
    c[3, 2] = p.n_th
    if sq is not None and sq.xi > 0.0:
        c[0, 1] += sq.xi * sq.n_s
        c[1, 0] = sq.xi * sq.n_s
        anomalous = -sq.xi * sq.m_s * cmath.exp(2j * (sq.phase + phi_c))
        c[0, 0] = anomalous
        c[1, 1] = anomalous.conjugate()
    return c


def transfer(dm: DynamicalMatrix, omega, left) -> np.ndarray:
    """Row left^T T(w) of the response matrix T(w) = (M + i w I)^(-1) K,
    which maps input noise amplitudes to mode amplitudes, batched over a
    frequency array: shape (n, 4).  It is one solve with (M + i w I)^T
    against `left`, scaled by the diagonal of K."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    lhs = dm.m.T[None, :, :] + 1j * omega[:, None, None] * _IDENT[None, :, :]
    try:
        return np.linalg.solve(lhs, np.asarray(left, dtype=complex)) * np.diag(dm.k)
    except np.linalg.LinAlgError as exc:
        raise InstabilityError(f"singular response at some frequency: {exc}") from exc


def _contract(row_pos: np.ndarray, row_neg: np.ndarray, corr: np.ndarray) -> np.ndarray:
    """S(w) = sum_ij c_i(w) c_j(-w) C_ij for row coefficient arrays of
    shape (n, 4) evaluated at +w and -w."""
    return np.einsum("ni,nj,ij->n", row_pos, row_neg, corr)


def numeric_spectrum(dm: DynamicalMatrix, correlators: np.ndarray,
                     pair: str, grid) -> Spectrum:
    """Numerically assembled spectrum on a grid.

    pair selects the observable: "nn" photon number, "ff" radiation
    pressure force, "bb" mechanical occupation spectrum.

    The response is solved once, at +w.  The drift matrix pairs every
    mode with its adjoint, M = P conj(M) P with P the permutation
    (d, d+, b, b+) -> (d+, d, b+, b), and K is real, diagonal and
    unchanged by P, so T(-w) = (M - i w I)^(-1) K = P conj(T(w)) P: row
    i of T(-w) is the conjugate of row P(i) of T(w) with its columns
    permuted by P.  Only the row the contraction needs is solved for.
    """
    if not dm.is_stable():
        raise InstabilityError("dynamical matrix has an eigenvalue with Re >= 0")
    grid = np.asarray(grid, dtype=float)
    if pair in ("nn", "ff"):
        ph = cmath.exp(-1j * dm.ss.phi_c)
        w_pos = transfer(dm, grid, [ph, ph.conjugate(), 0.0, 0.0])
        # ph T(-w)[0] + conj(ph) T(-w)[1] = conj(conj(ph) T(w)[1] + ph T(w)[0]) P
        w_neg = np.conj(w_pos[:, _ADJOINT])
        values = dm.ss.n_c * _contract(w_pos, w_neg, correlators)
        if pair == "ff":
            values = dm.p.g0 ** 2 * values
    elif pair == "bb":
        row_b = transfer(dm, grid, _IDENT[2])
        # T(-w)[3] = conj(T(w)[2]) P
        values = _contract(np.conj(row_b[:, _ADJOINT]), row_b, correlators)
    else:
        raise DomainError(f"unknown spectrum pair {pair!r}")
    values = np.real_if_close(values, tol=1e6)
    return Spectrum(grid=grid, values=np.real(values))


def numeric_occupation(dm: DynamicalMatrix, correlators: np.ndarray):
    """Occupation <b+ b> from the exact stationary covariance; returns
    (value, error_estimate).

    The covariance Sigma = <A A^T> of d/dt A = M A - K A_in solves the
    Lyapunov equation M Sigma + Sigma M^T + K C K^T = 0, solved here as
    one 16x16 system (M (x) I + I (x) M) vec(Sigma) = -vec(K C K^T) with
    row-major vec.  The error estimate is the relative Frobenius residual
    of the solved equation times |value|, in phonons.
    """
    if not dm.is_stable():
        raise InstabilityError("dynamical matrix has an eigenvalue with Re >= 0")
    drive = dm.k @ correlators @ dm.k.T
    kron_sum = np.kron(dm.m, _IDENT) + np.kron(_IDENT, dm.m)
    try:
        sigma = np.linalg.solve(kron_sum, -drive.ravel()).reshape(4, 4)
    except np.linalg.LinAlgError as exc:
        raise InstabilityError(f"singular Lyapunov system: {exc}") from exc
    value = float(sigma[3, 2].real)
    residual = dm.m @ sigma + sigma @ dm.m.T + drive
    return value, float(np.linalg.norm(residual) / np.linalg.norm(drive)) * abs(value)
