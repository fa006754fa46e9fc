"""States in two pictures: density matrices and Bloch coordinates, plus the
one-parameter state families rho^n and their probe states."""

from dataclasses import dataclass

import numpy as np

from .basis import _by_row_blocks, _dimension_of, gellmann_basis
from .errors import (
    CohfactError,
    DimensionMismatchError,
    IncoherentDirectionError,
    InvalidDimensionError,
    UnphysicalStateError,
)

HERM_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = -1e-9  # accumulated round-off in G G^dag / Tr compositions


@dataclass(frozen=True)
class DensityMatrix:
    """A d x d matrix, or an (s, d, d) stack; d is read from the array."""

    m: np.ndarray
    d = property(lambda self: self.m.shape[-1])


def purity_radius(d):
    """Largest |x| compatible with a physical state: sqrt(2(d-1)/d)."""
    return np.sqrt(2.0 * (d - 1) / d)


def density_matrix(m):
    """Wrap a matrix as a validated DensityMatrix."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidDimensionError(f"expected a square matrix, got shape {m.shape}")
    return validate_density(DensityMatrix(m))


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
    _require_hermitian(m)
    if abs(np.trace(m).real - 1.0) > TRACE_TOL or abs(np.trace(m).imag) > TRACE_TOL:
        raise UnphysicalStateError(f"trace is {np.trace(m)}, expected 1")
    w = np.linalg.eigvalsh(m)
    if w[0] < PSD_TOL:
        raise UnphysicalStateError(
            f"matrix is not positive semidefinite (min eigenvalue {w[0]:.3e})",
            min_eigenvalue=float(w[0]),
        )
    return rho


def _require_hermitian(m):
    """Raise UnphysicalStateError unless max |m - m^dag| <= HERM_TOL for the
    d x d matrix ``m``, or for each matrix of an (s, d, d) stack; NaN fails."""
    err = np.max(np.abs(m - m.conj().swapaxes(-2, -1)))
    if not err <= HERM_TOL:
        raise UnphysicalStateError(f"matrix is not Hermitian (max |m - m^dag| = {err:.3e})")


def is_psd(m):
    """PSD flag of a d x d matrix, or the flags of a (s, d, d) stack."""
    ok = np.linalg.eigvalsh(np.asarray(m))[..., 0] >= PSD_TOL
    return bool(ok) if ok.ndim == 0 else ok


def _pairs(d):
    """The (d^2-1, 2 d^2) real view of the Gell-Mann generators: row i holds X_{i+1}'s (re, im) pairs."""
    return gellmann_basis(d).reshape(d * d - 1, -1).view(float)


def bloch_decompose(rho: DensityMatrix) -> np.ndarray:
    """The real (d^2-1,) array of Gell-Mann Bloch coordinates x_i = Re Tr(rho X_i)
    (x @ y_to_x_transform(N) are the Pauli tensor ones of d = 2^N); an (s, d, d)
    stack gives (s, d^2-1) coordinates, a row's bits not depending on the rows
    beside it (_by_row_blocks). The state must be Hermitian to HERM_TOL, as
    validate_density requires."""
    _require_hermitian(rho.m)
    m = np.ascontiguousarray(rho.m, dtype=complex)
    # X is Hermitian, so Re Tr(rho X) is the real product of the (re, im) pairs of rho and X
    return _by_row_blocks(m.reshape(m.shape[:-2] + (-1,)).view(float), _pairs(rho.d).T)


def bloch_compose(x) -> DensityMatrix:
    """Compose rho = I/d + (1/2) sum_i x_i X_i, unvalidated, from Gell-Mann
    Bloch coordinates, d read from their d^2-1 components; the rows of an
    (s, d^2-1) array give a DensityMatrix holding an (s, d, d) stack."""
    x = np.asarray(x, dtype=float)
    if x.ndim > 2:
        raise DimensionMismatchError(f"expected one row or an (s, d^2 - 1) array of coordinates, got {x.shape}")
    d = _dimension_of(x, "components")
    return DensityMatrix(np.eye(d) / d + 0.5 * _by_row_blocks(x, _pairs(d)).view(complex).reshape(*x.shape[:-1], d, d))


def family_member(n, chi) -> DensityMatrix:
    """Density matrix of rho^n = I/d + (chi/2) n . X, unvalidated, d read
    from the d^2 - 1 components of the direction n."""
    return bloch_compose(chi * np.asarray(n, dtype=float))


def coherence_weight(n):
    """g(n^s) = sum_r sqrt(n_{2r-1}^2 + n_{2r}^2) over the off-diagonal pairs,
    d read from the d^2 - 1 components of ``n``; an array of weights for the
    rows of a 2-D ``n``. Of Gell-Mann Bloch coordinates x it is C_l1 in the
    Bloch picture; the diagonal (w_l) coordinates do not contribute."""
    n = np.asarray(n, dtype=float)
    d = _dimension_of(n, "components")
    d0 = (d * d - d) // 2
    g = np.sum(np.hypot(n[..., 0 : 2 * d0 : 2], n[..., 1 : 2 * d0 : 2]), axis=-1)
    return float(g) if g.ndim == 0 else g


def _finite_weights(g):
    """The coherence weights ``g``, raising CohfactError, which names the
    first, if one is NaN or infinite: NaN fails every comparison, so it
    would pass a check of g <= 1e-12."""
    bad = np.ravel(~np.isfinite(g))
    if bad.any():
        raise CohfactError(f"direction has a non-finite coherence weight g = {np.ravel(g)[np.argmax(bad)]}")
    return g


def probe_factor(n):
    """chi_p = 1/g(n^s), the factor that gives the direction n (each row of
    a 2-D ``n``) a probe of l1 coherence 1; raises IncoherentDirectionError
    when a direction has no coherent part, CohfactError when its weight is
    not finite."""
    g = _finite_weights(coherence_weight(n))
    if np.any(g <= 1e-12):
        raise IncoherentDirectionError(
            "direction has no coherent part (g = 0); probe state undefined"
        )
    return 1.0 / g


def probe_state(n) -> DensityMatrix:
    """Probe state of the direction n (a stack for the rows of a 2-D ``n``): the unvalidated member at chi_p =
    probe_factor(n), whose C_l1 is 1. A formal probe, chi_p beyond the purity radius, is returned, not refused,
    as the factorization law is an algebraic identity in chi; is_psd tells."""
    return bloch_compose(np.asarray(probe_factor(n))[..., None] * n)


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
    return DensityMatrix(m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None])


def chi_interval(n):
    """Closed-form range lo <= chi <= hi of the physical members of the
    families with the unit directions (d^2 - 1 components) in the rows of ``n``.

    I/d + (chi/2) n.X has eigenvalues 1/d + (chi/2) lam, with lam those of
    n.X (lam_min < 0 < lam_max for a traceless n.X != 0), so it passes the
    PSD check iff -2c/lam_max <= chi <= 2c/|lam_min|, c = 1/d - PSD_TOL
    (Kimura, Phys. Lett. A 314, 339 (2003); Bertlmann and Krammer,
    J. Phys. A 41, 235303 (2008)); a row's interval does not depend on the
    rows beside it (_by_row_blocks). Returns the arrays (lo, hi); a
    direction with a NaN or infinite component, or with n.X = 0, raises
    CohfactError, which names the first such row.
    """
    n = np.asarray(n, dtype=float)
    d = _dimension_of(n, "components")
    if not np.isfinite(n).all():
        row = np.argmin(np.ravel(np.isfinite(n).all(axis=-1)))
        raise CohfactError(f"direction in row {row} has a non-finite component")
    lam = np.linalg.eigvalsh(_by_row_blocks(n, _pairs(d)).view(complex).reshape(*n.shape[:-1], d, d))
    if not np.all(lam[..., -1] > 0):  # traceless: n.X has a positive eigenvalue unless it is 0
        raise CohfactError(f"direction in row {np.argmin(np.ravel(lam[..., -1] > 0))} has n.X = 0")
    c = 2.0 * (1.0 / d - PSD_TOL)
    return -c / lam[..., -1], c / -lam[..., 0]


def random_families(d, rng, count, block=None):
    """Unit directions (rows of n), factors chi and upper ends hi of the
    physical ranges (chi_interval, not clipped to the purity radius) of
    ``count`` random families drawn from the generator ``rng``, as the
    arrays (n, chi, hi).

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
    lo, hi = chi_interval(n)
    bound = purity_radius(d)
    a, b = np.maximum(lo, -bound), np.minimum(hi, bound)
    return n, a + u * (b - a), hi


def random_family(d, seed=None):
    """Random unit direction n and factor chi uniform on the family's
    physical range, as the pair (n, chi): the one-family case of
    random_families."""
    n, chi, _ = random_families(d, np.random.default_rng(seed), 1)
    return n[0], float(chi[0])
