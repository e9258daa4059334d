"""Cylindrical Wiener noise in the eigenbasis and its coloring.

Increments are produced by a stateless counter-based generator: every
scalar draw is a pure function of (seed, path, process, segment, step,
mode), so parallel paths, glue segments and dt refinements never need
stream coordination.  One SplitMix64 finalizer mixes every word of the
address, and a source draws both Wiener processes in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import ValidationError
from .spectral import SpaceConfig, SpectralField, fractional_weights, get_basis

_GOLDEN = 0x9E3779B97F4A7C15
# distinct odd multipliers keep the path/step/mode roles asymmetric
_MULT_PATH = 0xA24BAED4963EE407
_MULT_STEP = 0x9FB21C651E98DF25
_MULT_MODE = 0xC2B2AE3D27D4EB4F
_MULT_PROC = 0x165667B19E3779F9
_MULT_SEG = 0xD6E8FEB86659FD93


_U30, _U27, _U31 = np.uint64(30), np.uint64(27), np.uint64(31)
_U_MIX1, _U_MIX2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)


def _mix_arr(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, elementwise on uint64 words."""
    z = z.astype(np.uint64)
    z ^= z >> _U30
    z *= _U_MIX1
    z ^= z >> _U27
    z *= _U_MIX2
    z ^= z >> _U31
    return z


def _role_arr(words: np.ndarray, mult: int) -> np.ndarray:
    w = np.asarray(words, dtype=np.uint64)
    return _mix_arr((w + np.uint64(_GOLDEN)) * np.uint64(mult))


def _stream_keys(seed: int, path_ids: np.ndarray, segment, n_modes: int) -> np.ndarray:
    """(2, len(path_ids), n_modes) uint64 keys, process 1 first: every word
    of a draw's address but the step, which only the counter carries."""
    # one-element arrays, not numpy scalars: scalar products warn when they wrap
    base = _mix_arr(np.array([seed], dtype=np.uint64))
    base = _mix_arr(base ^ _mix_arr(np.array([2, 3], dtype=np.uint64) * np.uint64(_MULT_PROC)))
    # the segment word mixed into the base, per path when segment is an array
    seg = np.atleast_1d(np.asarray(segment, dtype=np.uint64))
    rseg = _mix_arr(base[:, None] ^ _mix_arr((seg + np.uint64(1)) * np.uint64(_MULT_SEG)))
    rp = rseg ^ _role_arr(np.asarray(path_ids), _MULT_PATH)
    return rp[..., None] ^ _role_arr(np.arange(n_modes), _MULT_MODE)


def _keyed_normals(keys: np.ndarray, step_words: np.ndarray) -> np.ndarray:
    """Standard normals of shape (P, S, K) from (P, K) stream keys and S step words."""
    bits = _mix_arr(keys[:, None, :] ^ step_words[None, :, None])
    # 53-bit uniform strictly inside (0, 1), then inverse normal CDF
    u = ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * (2.0**-53)
    return ndtri(u)


@dataclass(frozen=True)
class NoiseConfig:
    """Coloring exponents and sampling parameters of the two Wiener drives."""

    gamma1: float = 1.0
    gamma2: float = 0.75
    mode_cutoff: int | None = None  # noise modes retained; None = all usable modes
    interpretation: str = "ito"
    seed: int = 0

    def __post_init__(self):
        violations = []
        if self.gamma1 <= 0:
            violations.append(f"gamma1 must be > 0, got {self.gamma1}")
        if self.gamma2 <= 0:
            violations.append(f"gamma2 must be > 0, got {self.gamma2}")
        if self.interpretation not in ("ito", "stratonovich"):
            violations.append(
                f"interpretation must be 'ito' or 'stratonovich', got {self.interpretation!r}"
            )
        if self.mode_cutoff is not None and self.mode_cutoff < 1:
            violations.append(f"mode_cutoff must be >= 1, got {self.mode_cutoff}")
        if self.seed < 0:
            violations.append(f"seed must be >= 0, got {self.seed}")
        elif self.seed >= 2**64:  # the noise keys mix the seed as a 64-bit word
            violations.append(f"seed must be < 2**64, got {self.seed}")
        if violations:
            raise ValidationError(violations)

    def gamma(self, process: int) -> float:
        return self.gamma1 if process == 1 else self.gamma2


def noise_modes(space: SpaceConfig, k_noise: int | None) -> int:
    """How many modes carry noise: the modes 1..k_noise, every mode but the
    constant one when k_noise is None."""
    usable = space.total_modes - 1
    if k_noise is not None and k_noise > usable:
        raise ValidationError([f"mode_cutoff {k_noise} exceeds the {usable} usable noise modes"])
    return usable if k_noise is None else k_noise


def coloring_weights(space: SpaceConfig, gamma: float, k_noise: int | None) -> np.ndarray:
    """lambda_k**(-gamma/2) of the noise modes k = 1..noise_modes(space, k_noise)."""
    k = noise_modes(space, k_noise)
    return fractional_weights(space, -gamma / 2.0)[1:1 + k]


class WienerSource:
    """Per-path increment stream of both Wiener processes bound to
    (config, space).

    Vectorized over a fixed tuple of path ids; each draw names its glue
    segment, one for all paths or one per path.  Every draw is addressed
    by its step index, so two sources with overlapping keys replay
    bit-equal increments.  Keys are mixed once per segment; a draw mixes
    in only its step words.
    """

    def __init__(self, config: NoiseConfig, space: SpaceConfig, path_ids):
        self.config = config
        self.path_ids = np.atleast_1d(np.asarray(path_ids, dtype=np.int64))
        self.k_noise = noise_modes(space, config.mode_cutoff)
        self._keys: tuple[np.ndarray, np.ndarray] | None = None  # (segment, keys)

    def increment_block(self, step0: int, count: int, dt: float, segment) -> np.ndarray:
        """(2, n_paths, count, K_noise) increments of variance dt for
        consecutive steps, process 1 first, drawn in glue segment
        ``segment`` (one for all paths or one per path)."""
        seg = np.array(segment, dtype=np.int64)  # a copy, detached from the caller's
        v = []
        if not dt > 0:  # also rejects NaN
            v.append(f"dt must be > 0, got {dt}")
        if count < 1:
            v.append(f"count must be >= 1, got {count}")
        if step0 < 0:
            v.append(f"step0 must be >= 0, got {step0}")
        if seg.ndim > 1 or seg.ndim == 1 and seg.size != self.path_ids.size:
            v.append(f"segment must be one value or one per path ({self.path_ids.size}), "
                     f"got shape {seg.shape}")
        elif (seg < 0).any():
            v.append(f"segment must be >= 0, got {segment}")
        if v:
            raise ValidationError(v)
        if self._keys is None or not np.array_equal(self._keys[0], seg):
            self._keys = (seg, _stream_keys(self.config.seed, self.path_ids, seg, self.k_noise))
        words = _role_arr(np.arange(step0, step0 + count), _MULT_STEP)
        out = np.empty((2, self.path_ids.size, count, self.k_noise))
        for j in (0, 1):  # one process per pass: one (2, P, count, K) pass is slower
            np.multiply(np.sqrt(dt), _keyed_normals(self._keys[1][j], words), out=out[j])
        return out


def aggregate_increments(fine: np.ndarray, factor: int) -> np.ndarray:
    """Sum consecutive fine increments (..., steps, K_noise) into coarse
    ones along axis -2.

    The blockwise sum realizes the refinement tree: the coarse stream is
    pathwise exactly the sum of its fine children.
    """
    *lead, steps, modes = fine.shape
    if steps % factor:
        raise ValidationError(["fine step count must be a multiple of the factor"])
    return fine.reshape(*lead, steps // factor, factor, modes).sum(axis=-2)


# ---------------------------------------------------------------------------
# quantities of the colored noise modes
# ---------------------------------------------------------------------------


def _colored_modes(space: SpaceConfig, gamma: float, k_noise: int | None,
                   m: int) -> tuple[np.ndarray, np.ndarray]:
    """(lambda_k**(-gamma/2), phi_k on the m-point grid) for the noise modes."""
    weights = coloring_weights(space, gamma, k_noise)
    eye = np.eye(weights.size, space.total_modes, 1)  # row j is mode j + 1
    return weights, get_basis(space).synthesize(eye, m)


def squared_eigenfunction_sum(space: SpaceConfig, gamma: float, k_noise: int | None,
                              points_per_axis: int) -> np.ndarray:
    """Grid values of sum_k lambda_k^(-gamma) phi_k(x)^2 over the first
    k_noise noise modes (all when None), on the points_per_axis grid."""
    weights, phi_vals = _colored_modes(space, gamma, k_noise, points_per_axis)
    return np.tensordot(weights**2, phi_vals**2, axes=(0, 0))


def hilbert_schmidt_sum(u: SpectralField, gamma: float, k_noise: int | None) -> float:
    """Truncated Hilbert-Schmidt norm sum_k lambda_k^(-gamma) |P(u phi_k)|_{L2}^2
    over the first k_noise noise modes (all when None), with P the Galerkin
    projection the scheme lives in."""
    basis = get_basis(u.space)
    m = u.space.dealias_points(1.0)
    weights, phi_vals = _colored_modes(u.space, gamma, k_noise, m)
    prod = basis.analyze(basis.synthesize(u.coeffs, m)[None, ...] * phi_vals, m)
    return float(np.sum(weights**2 * np.sum(prod**2, axis=-1)))


def hs_tail_sum(gamma: float, delta2: float, space: SpaceConfig,
                n_terms: int = 10_000) -> dict:
    """Partial sum sum_{k=1}^{n} k^((2/d)(delta2 - gamma)) with a
    convergence verdict from consecutive dyadic block sums.

    The verdict matches the analytic criterion gamma > delta2 + d/2.
    """
    if n_terms < 16:
        raise ValidationError(["n_terms must be >= 16 for a dyadic verdict"])
    exponent = (2.0 / space.d) * (delta2 - gamma)
    k = np.arange(1, n_terms + 1, dtype=float)
    terms = k**exponent
    value = float(np.sum(terms))
    j_max = int(np.floor(np.log2(n_terms + 1))) - 1
    last = float(np.sum(terms[(1 << j_max) - 1 : (1 << (j_max + 1)) - 1]))
    prev = float(np.sum(terms[(1 << (j_max - 1)) - 1 : (1 << j_max) - 1]))
    return {"value": value, "converged": bool(last < prev)}
