"""States in two pictures: density matrices and Bloch coordinates, plus the
one-parameter state families rho^n and their probe states."""

from dataclasses import dataclass

import numpy as np

from .basis import GeneratorBasis, gellmann_basis
from .errors import (
    DimensionMismatchError,
    IncoherentDirectionError,
    InvalidDimensionError,
    UnphysicalStateError,
)

HERM_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = -1e-9  # accumulated round-off in G G^dag / Tr compositions
REAL_TOL = 1e-12


@dataclass(frozen=True)
class DensityMatrix:
    d: int
    m: np.ndarray


@dataclass(frozen=True)
class StateFamily:
    """Unit direction n with multiplicative factor chi; members are
    rho = I/d + (chi/2) n . X."""

    d: int
    n: np.ndarray
    chi: float


@dataclass(frozen=True)
class ProbeState:
    """Family member rescaled so its l1 coherence is exactly 1.

    ``physical`` records the PSD check; formal (non-PSD) probes are allowed
    since the factorization law is an algebraic identity in chi.
    """

    n: np.ndarray
    chi_p: float
    state: DensityMatrix
    physical: bool


def purity_radius(d):
    """Largest |x| compatible with a physical state: sqrt(2(d-1)/d)."""
    return np.sqrt(2.0 * (d - 1) / d)


def density_matrix(m):
    """Wrap a matrix as a validated DensityMatrix."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidDimensionError(f"expected a square matrix, got shape {m.shape}")
    return validate_density(DensityMatrix(d=m.shape[0], m=m))


def validate_density(rho):
    """Raise UnphysicalStateError unless rho is finite, Hermitian, unit trace, PSD."""
    m = rho.m
    if m.ndim != 2:
        raise InvalidDimensionError(f"validation takes one d x d matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise UnphysicalStateError("matrix has non-finite entries")
    # a state's entries have size at most 1, so this rejects no state; it
    # keeps huge entries from overflowing in the checks below
    if np.max(np.maximum(np.abs(m.real), np.abs(m.imag))) > 2.0:
        raise UnphysicalStateError("matrix has an entry larger than 2 in size")
    if np.max(np.abs(m - m.conj().T)) > HERM_TOL:
        raise UnphysicalStateError("matrix is not Hermitian")
    if abs(np.trace(m).real - 1.0) > TRACE_TOL or abs(np.trace(m).imag) > TRACE_TOL:
        raise UnphysicalStateError(f"trace is {np.trace(m)}, expected 1")
    w = np.linalg.eigvalsh(m)
    if w[0] < PSD_TOL:
        raise UnphysicalStateError(
            f"matrix is not positive semidefinite (min eigenvalue {w[0]:.3e})",
            min_eigenvalue=float(w[0]),
        )
    return rho


def is_psd(m):
    """PSD flag of a d x d matrix, or the flags of a (s, d, d) stack."""
    ok = np.linalg.eigvalsh(np.asarray(m))[..., 0] >= PSD_TOL
    return bool(ok) if ok.ndim == 0 else ok


def bloch_decompose(rho: DensityMatrix, basis: GeneratorBasis) -> np.ndarray:
    """The real (d^2-1,) array of Bloch coordinates x_i = Tr(rho X_i) in a
    Gell-Mann or Pauli tensor basis; a state holding an (s, d, d) stack
    gives (s, d^2-1) coordinates."""
    if rho.d != basis.d:
        raise DimensionMismatchError(f"state d={rho.d} vs basis d={basis.d}")
    x = np.einsum("...ab,iba->...i", rho.m, basis.elements)
    if np.max(np.abs(x.imag)) > REAL_TOL:
        raise UnphysicalStateError(
            f"Bloch coordinates have imaginary residue {np.max(np.abs(x.imag)):.3e}; "
            "input is not Hermitian"
        )
    return x.real


def bloch_compose(x, basis: GeneratorBasis) -> DensityMatrix:
    """Compose rho = I/d + (1/2) sum_i x_i X_i from Bloch coordinates in a
    Gell-Mann or Pauli tensor basis, unvalidated. Rows of an (s, d^2-1)
    array of coordinates give a DensityMatrix holding an (s, d, d) stack."""
    x = np.asarray(x, dtype=float)
    d = basis.d
    if x.ndim not in (1, 2) or x.shape[-1] != d * d - 1:
        raise DimensionMismatchError(f"expected {d * d - 1} coordinates, got {x.shape}")
    return DensityMatrix(d=d, m=np.eye(d) / d + 0.5 * np.tensordot(x, basis.elements, 1))


def family_member(fam: StateFamily) -> DensityMatrix:
    """Density matrix of rho^n at the family's chi."""
    return bloch_compose(fam.chi * fam.n, gellmann_basis(fam.d))


def coherence_weight(n, d):
    """g(n^s) = sum_r sqrt(n_{2r-1}^2 + n_{2r}^2) over the off-diagonal pairs;
    an array of weights for the rows of a 2-D ``n``. Of Gell-Mann Bloch
    coordinates x it is C_l1 in the Bloch picture; the diagonal (w_l)
    coordinates do not contribute."""
    n = np.asarray(n, dtype=float)
    d0 = (d * d - d) // 2
    g = np.sum(np.hypot(n[..., 0 : 2 * d0 : 2], n[..., 1 : 2 * d0 : 2]), axis=-1)
    return float(g) if g.ndim == 0 else g


def probe_factor(n, d):
    """chi_p = 1/g(n^s), the factor that gives the direction n (each row of
    a 2-D ``n``) a probe of l1 coherence 1; raises IncoherentDirectionError
    when a direction has no coherent part."""
    g = coherence_weight(n, d)
    if np.any(g <= 1e-12):
        raise IncoherentDirectionError(
            "direction has no coherent part (g = 0); probe state undefined"
        )
    return 1.0 / g


def probe_state(n, d) -> ProbeState:
    """Probe state of the family direction n of a d-dimensional system:
    chi_p = 1/g(n^s), C_l1 = 1.

    Probes with chi_p beyond the purity radius are returned flagged
    ``physical=False`` rather than rejected.
    """
    n = np.asarray(n, dtype=float)
    if n.shape != (d * d - 1,):
        raise DimensionMismatchError(f"expected {d * d - 1} components, got {n.shape}")
    chi_p = probe_factor(n, d)
    state = bloch_compose(chi_p * n, gellmann_basis(d))
    return ProbeState(n=n, chi_p=chi_p, state=state, physical=is_psd(state.m))


def random_state(d, seed=None, size=None) -> DensityMatrix:
    """Random full-rank state G G^dag / Tr(G G^dag), G complex Gaussian; with
    ``size``, a DensityMatrix holding the (size, d, d) stack of that many.
    Each state draws its real, then its imaginary d x d block, so the first
    states of a stack do not depend on its size."""
    if d < 2:
        raise InvalidDimensionError(f"dimension must be >= 2, got {d}")
    rng = np.random.default_rng(seed)  # a Generator passes through unchanged
    return ginibre_state(rng.standard_normal((2, d, d) if size is None else (size, 2, d, d)))


def ginibre_state(z) -> DensityMatrix:
    """The state G G^dag / Tr(G G^dag) of G = z[..., 0, :, :] + i z[..., 1, :, :],
    for each (2, d, d) block of the real array z; a stack of blocks gives a
    stack of states, each computed on its own."""
    g = z[..., 0, :, :] + 1j * z[..., 1, :, :]
    m = g @ g.conj().swapaxes(-2, -1)
    return DensityMatrix(d=z.shape[-1], m=m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None])


def chi_interval(n, d):
    """Closed-form range lo <= chi <= hi of the physical members of the
    d-dimensional families with the unit directions in the rows of ``n``.

    I/d + (chi/2) n.X has eigenvalues 1/d + (chi/2) lam, with lam those of
    n.X (lam_min < 0 < lam_max for a traceless n.X != 0), so it passes the
    PSD check iff -2c/lam_max <= chi <= 2c/|lam_min|, c = 1/d - PSD_TOL
    (Kimura, Phys. Lett. A 314, 339 (2003); Bertlmann and Krammer,
    J. Phys. A 41, 235303 (2008)). Each row's n.X is its own product, so a
    row's interval does not depend on the rows beside it. Returns the
    arrays (lo, hi).
    """
    n = np.asarray(n, dtype=float)
    if n.shape[-1:] != (d * d - 1,):
        raise DimensionMismatchError(f"expected {d * d - 1} components, got {n.shape}")
    gens = gellmann_basis(d).elements.reshape(d * d - 1, d * d)
    lam = np.linalg.eigvalsh((n[..., None, :] @ gens).reshape(n.shape[:-1] + (d, d)))
    c = 2.0 * (1.0 / d - PSD_TOL)
    return -c / lam[..., -1], c / -lam[..., 0]


def random_families(d, rng, count, block=None):
    """Unit directions (rows of n) and factors chi of ``count`` random
    families drawn from the generator ``rng``.

    One uniform draw u of ``block`` rows (at least ``count``), then one
    stacked normal draw of the ``count`` directions, row by row; chi = a +
    u (b - a) is uniform on the physical range [a, b] = [max(lo, -r),
    min(hi, r)] of its family (chi_interval, r the purity radius), the law
    of drawing chi uniformly in [-r, r] until it is physical. So every
    count <= block gives the same first families, and no direction past
    count is drawn.
    """
    if d < 2:
        raise InvalidDimensionError(f"dimension must be >= 2, got {d}")
    u = rng.uniform(size=max(count, block or 0))[:count]
    v = rng.standard_normal((count, d * d - 1))
    n = v / np.linalg.norm(v, axis=-1, keepdims=True)
    lo, hi = chi_interval(n, d)
    bound = purity_radius(d)
    a, b = np.maximum(lo, -bound), np.minimum(hi, bound)
    return n, a + u * (b - a)


def random_family(d, seed=None) -> StateFamily:
    """Random unit direction with chi uniform on the family's physical
    range: the one-family case of random_families."""
    n, chi = random_families(d, np.random.default_rng(seed), 1)
    return StateFamily(d=d, n=n[0], chi=float(chi[0]))
