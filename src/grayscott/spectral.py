"""Eigenbasis, fractional operators, semigroups and Sobolev norms on the
unit interval/square.

Fields are stored as coefficient vectors in a real L2-orthonormal
eigenbasis of -Laplace with either Neumann or periodic boundary
conditions.  All operators used by the solver (fractional powers,
semigroups, Sobolev weights) are diagonal in this basis; products are
evaluated on a dealiased uniform grid and projected back (Galerkin
truncation).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

BOUNDARIES = ("periodic", "neumann")


@dataclass(frozen=True)
class SpaceConfig:
    """Spatial discretization of the unit box/torus in d = 1 or 2.

    modes_per_axis is the per-axis truncation N; the total mode count is
    K = N**d.  grid_points_per_axis is the grid M of the initial-data
    negativity check, of lp_norm and of a stroock_varopoulos_check given
    no grid; the time step and the recorded norms use the dealiased grid
    dealias_points(q) instead.  Negative spectral powers drop the
    constant mode, and the noise does not drive it.
    """

    d: int = 1
    boundary: str = "neumann"
    modes_per_axis: int = 32
    grid_points_per_axis: int = 64

    def __post_init__(self):
        violations = []
        if self.d not in (1, 2):
            violations.append(f"d must be 1 or 2, got {self.d}")
        if self.boundary not in BOUNDARIES:
            violations.append(f"boundary must be one of {BOUNDARIES}, got {self.boundary!r}")
        if self.modes_per_axis < 2:
            violations.append(f"modes_per_axis must be >= 2, got {self.modes_per_axis}")
        if self.grid_points_per_axis < self.modes_per_axis:
            violations.append(
                "grid_points_per_axis must be >= modes_per_axis, got "
                f"{self.grid_points_per_axis} < {self.modes_per_axis}"
            )
        if (
            self.boundary == "periodic"
            and self.modes_per_axis % 2 == 0
            and self.grid_points_per_axis <= self.modes_per_axis
        ):
            # an even periodic truncation carries an unpaired top cosine
            # mode that aliases onto the constant on an M == N grid
            violations.append(
                "periodic boundary with even modes_per_axis requires "
                "grid_points_per_axis >= modes_per_axis + 1"
            )
        if violations:
            raise ValidationError(violations)

    @property
    def total_modes(self) -> int:
        return self.modes_per_axis**self.d

    def dealias_points(self, q: float) -> int:
        """Grid size for degree-(q+1) products, re-projected exactly for
        integer q; non-integer q keeps the same rule on ceil(q)."""
        return math.ceil((math.ceil(q) + 2) / 2) * self.modes_per_axis


def _axis_labels(space: SpaceConfig) -> np.ndarray:
    n = space.modes_per_axis
    if space.boundary == "neumann":
        return np.arange(n)
    labels = [0]
    m = 1
    while len(labels) < n:
        labels.append(m)
        if len(labels) < n:
            labels.append(-m)
        m += 1
    return np.asarray(labels)


def _axis_eigenvalues(space: SpaceConfig, labels: np.ndarray) -> np.ndarray:
    if space.boundary == "neumann":
        return (np.pi**2) * labels.astype(float) ** 2
    return (4.0 * np.pi**2) * labels.astype(float) ** 2


def _axis_functions(space: SpaceConfig, labels: np.ndarray,
                    x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Basis function values and derivatives, each of shape (len(x), len(labels))."""
    values = np.zeros((x.size, labels.size))
    derivatives = np.zeros((x.size, labels.size))
    r2 = math.sqrt(2.0)
    for j, m in enumerate(labels):
        if m == 0:
            values[:, j] = 1.0
        elif space.boundary == "neumann":
            values[:, j] = r2 * np.cos(m * np.pi * x)
            derivatives[:, j] = -r2 * m * np.pi * np.sin(m * np.pi * x)
        elif m > 0:
            values[:, j] = r2 * np.cos(2.0 * np.pi * m * x)
            derivatives[:, j] = -r2 * 2.0 * np.pi * m * np.sin(2.0 * np.pi * m * x)
        else:
            values[:, j] = r2 * np.sin(2.0 * np.pi * (-m) * x)
            derivatives[:, j] = r2 * 2.0 * np.pi * (-m) * np.cos(2.0 * np.pi * (-m) * x)
    return values, derivatives


def _grid_nodes(space: SpaceConfig, m: int) -> np.ndarray:
    if space.boundary == "neumann":
        return (np.arange(m) + 0.5) / m  # midpoint rule, exact for low cosines
    return np.arange(m) / m


class GridPlan:
    """Per-axis synthesis/analysis matrices for one uniform grid size."""

    def __init__(self, basis: "Basis", points_per_axis: int):
        space = basis.space
        self.points_per_axis = points_per_axis
        self.nodes = _grid_nodes(space, points_per_axis)
        self.values, self.derivatives = _axis_functions(space, basis.axis_labels, self.nodes)
        self.weight = points_per_axis ** (-space.d)


class Basis:
    """Immutable-after-build plan cache for one SpaceConfig.

    Holds the eigenpairs of -Laplace sorted by eigenvalue (mode_labels:
    per-axis cosine index, or signed Fourier index whose negative is the
    sine partner), the permutation between sorted and tensor coefficient
    order, and lazily built GridPlans.  GridPlan construction is guarded
    by a lock; reads are lock-free afterwards.
    """

    def __init__(self, space: SpaceConfig):
        self.space = space
        self.axis_labels = _axis_labels(space)
        axis_ev = _axis_eigenvalues(space, self.axis_labels)
        n = space.modes_per_axis
        if space.d == 1:
            tensor_ev = axis_ev
            tensor_labels = self.axis_labels[:, None]
        else:
            tensor_ev = (axis_ev[:, None] + axis_ev[None, :]).reshape(-1)
            l1 = np.repeat(self.axis_labels, n)
            l2 = np.tile(self.axis_labels, n)
            tensor_labels = np.stack([l1, l2], axis=1)
        order = np.lexsort(
            tuple(tensor_labels[:, j] for j in reversed(range(space.d))) + (tensor_ev,)
        )
        self.perm = order  # sorted position -> tensor flat index
        self._sorted_is_tensor = bool((order == np.arange(order.size)).all())
        self._tensor_order = np.argsort(order)  # tensor flat index -> sorted position
        self.eigenvalues = tensor_ev[order]
        self.mode_labels = tensor_labels[order]
        self._plans: dict[int, GridPlan] = {}
        self._lock = threading.Lock()

    def plan(self, points_per_axis: int | None = None) -> GridPlan:
        m = points_per_axis or self.space.grid_points_per_axis
        got = self._plans.get(m)
        if got is None:
            with self._lock:
                got = self._plans.get(m)
                if got is None:
                    got = GridPlan(self, m)
                    self._plans[m] = got
        return got

    # -- coefficient layout ------------------------------------------------

    def to_tensor(self, coeffs: np.ndarray) -> np.ndarray:
        """Sorted coefficient vector(s) -> tensor-ordered array."""
        n = self.space.modes_per_axis
        out = coeffs if self._sorted_is_tensor else coeffs[..., self._tensor_order]
        if self.space.d == 2:
            return out.reshape(coeffs.shape[:-1] + (n, n))
        return out

    def from_tensor(self, tensor: np.ndarray) -> np.ndarray:
        if self.space.d == 2:
            n = self.space.modes_per_axis
            tensor = tensor.reshape(tensor.shape[:-2] + (n * n,))
        return tensor if self._sorted_is_tensor else tensor[..., self.perm]

    # -- synthesis / analysis ------------------------------------------------

    def synthesize(self, coeffs: np.ndarray, points_per_axis: int | None = None) -> np.ndarray:
        """Physical grid values; shape batch + (M,) or batch + (M, M)."""
        plan = self.plan(points_per_axis)
        t = self.to_tensor(np.asarray(coeffs, dtype=float))
        if self.space.d == 1:
            return t @ plan.values.T
        # out[x, y] = sum_ij V[x, i] t[i, j] V[y, j]
        return np.matmul(plan.values, np.matmul(t, plan.values.T))

    def synthesize_gradient(
        self, coeffs: np.ndarray, points_per_axis: int | None = None
    ) -> np.ndarray:
        """Spatial gradient on the grid, shape (d,) + batch + grid."""
        plan = self.plan(points_per_axis)
        t = self.to_tensor(np.asarray(coeffs, dtype=float))
        if self.space.d == 1:
            return (t @ plan.derivatives.T)[None, ...]
        gx = np.matmul(plan.derivatives, np.matmul(t, plan.values.T))
        gy = np.matmul(plan.values, np.matmul(t, plan.derivatives.T))
        return np.stack([gx, gy], axis=0)

    def analyze(self, values: np.ndarray, points_per_axis: int | None = None) -> np.ndarray:
        """L2 projection of grid values onto the basis by quadrature."""
        plan = self.plan(points_per_axis)
        values = np.asarray(values, dtype=float)
        if self.space.d == 1:
            t = values @ plan.values * plan.weight
        else:
            # t[i, j] = w sum_xy V[x, i] F[x, y] V[y, j]
            t = plan.weight * np.matmul(plan.values.T, np.matmul(values, plan.values))
        return self.from_tensor(t)

    def quadrature(self, values: np.ndarray, points_per_axis: int | None = None) -> np.ndarray:
        """Integral of grid values over the unit box."""
        plan = self.plan(points_per_axis)
        axes = tuple(range(-self.space.d, 0))
        return np.asarray(values).sum(axis=axes) * plan.weight


_BASIS_CACHE: dict[SpaceConfig, Basis] = {}
_BASIS_LOCK = threading.Lock()


def get_basis(space: SpaceConfig) -> Basis:
    got = _BASIS_CACHE.get(space)
    if got is None:
        with _BASIS_LOCK:
            got = _BASIS_CACHE.get(space)
            if got is None:
                got = Basis(space)
                _BASIS_CACHE[space] = got
    return got


@dataclass
class SpectralField:
    """One scalar field as eigenbasis coefficients ``<f, phi_k>``."""

    coeffs: np.ndarray
    space: SpaceConfig

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        expected = self.space.total_modes
        if self.coeffs.shape != (expected,):
            raise ValidationError(
                [f"coefficient vector must have shape ({expected},), got {self.coeffs.shape}"]
            )

    def l2_norm(self) -> float:
        return float(np.sqrt(np.dot(self.coeffs, self.coeffs)))


def constant_field(value: float, space: SpaceConfig) -> SpectralField:
    coeffs = np.zeros(space.total_modes)
    coeffs[0] = value  # phi_0 is the constant function 1
    return SpectralField(coeffs, space)


def mode_field(space: SpaceConfig, k: int, amplitude: float = 1.0) -> SpectralField:
    coeffs = np.zeros(space.total_modes)
    coeffs[k] = amplitude
    return SpectralField(coeffs, space)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def fractional_weights(space: SpaceConfig, s: float) -> np.ndarray:
    """Per-mode multipliers lambda_k**s; the constant mode (lambda = 0) takes
    1 at s = 0 and 0 otherwise."""
    lam = get_basis(space).eigenvalues
    w = np.empty_like(lam)
    pos = lam > 0.0
    w[pos] = lam[pos] ** s
    w[~pos] = 1.0 if s == 0 else 0.0
    return w


def semigroup_factors(space: SpaceConfig, r: float, a: float, t: float,
                      aleph: float = 2.0) -> np.ndarray:
    """Per-mode factors exp((-r lambda_k**(aleph/2) + a) t) of the semigroup
    of r A + a, A = -(-Laplace)**(aleph/2); aleph = 2 is the Laplacian."""
    return np.exp((-r * fractional_weights(space, aleph / 2.0) + a) * t)


def sobolev_weights(space: SpaceConfig, s: float) -> np.ndarray:
    return (1.0 + get_basis(space).eigenvalues) ** s


def sobolev_norm(f: SpectralField, s: float) -> float:
    """Inhomogeneous H^s norm ( sum_k (1+lambda_k)^s coeff_k^2 )^(1/2).

    The (I - Laplace) weight makes H^0 coincide with L2 exactly and keeps
    negative-order norms finite on the constant mode.
    """
    return float(np.sqrt(np.sum(sobolev_weights(f.space, s) * f.coeffs**2)))


def lp_norm(f: SpectralField, p: float) -> float:
    """Grid-quadrature L^p norm on the grid_points_per_axis grid."""
    if p < 1:
        raise ValidationError(["lp_norm requires p >= 1"])
    basis = get_basis(f.space)
    vals = basis.synthesize(f.coeffs)
    return float(basis.quadrature(np.abs(vals) ** p) ** (1.0 / p))
