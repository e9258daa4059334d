"""Cylindrical Wiener noise in the eigenbasis and its coloring.

Increments are produced by a stateless counter-based generator: every
scalar draw is a pure function of (seed, path, process, segment, step,
mode), so parallel paths, glue segments and dt refinements never need
stream coordination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import ValidationError
from .spectral import SpaceConfig, SpectralField, fractional_weights, get_basis

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# distinct odd multipliers keep the path/step/mode roles asymmetric
_MULT_PATH = 0xA24BAED4963EE407
_MULT_STEP = 0x9FB21C651E98DF25
_MULT_MODE = 0xC2B2AE3D27D4EB4F
_MULT_PROC = 0x165667B19E3779F9
_MULT_SEG = 0xD6E8FEB86659FD93


def _mix_int(z: int) -> int:
    """SplitMix64 finalizer on a Python int."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


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


def _stream_keys(seed: int, path_ids: np.ndarray, process: int, segment,
                 n_modes: int) -> np.ndarray:
    """(len(path_ids), n_modes) uint64 keys: every word of a draw's address
    but the step, which only the counter carries."""
    base = _mix_int(seed)
    base = _mix_int(base ^ _mix_int(((process + 1) * _MULT_PROC) & _MASK))
    # the segment word mixed into the base, per path when segment is an array
    seg = np.atleast_1d(np.asarray(segment, dtype=np.uint64))
    rseg = _mix_arr(np.uint64(base) ^ _mix_arr((seg + np.uint64(1)) * np.uint64(_MULT_SEG)))
    rp = rseg ^ _role_arr(np.asarray(path_ids), _MULT_PATH)
    return rp[:, None] ^ _role_arr(np.arange(n_modes), _MULT_MODE)


def _keyed_normals(keys: np.ndarray, step_words: np.ndarray) -> np.ndarray:
    """Standard normals of shape (P, S, K) from (P, K) stream keys and S step words."""
    bits = _mix_arr(keys[:, None, :] ^ step_words[None, :, None])
    # 53-bit uniform strictly inside (0, 1), then inverse normal CDF
    u = ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * (2.0**-53)
    return ndtri(u)


def counter_normals(seed: int, path_ids: np.ndarray, process: int, segment,
                    steps: np.ndarray, n_modes: int) -> np.ndarray:
    """Standard normals of shape (len(path_ids), len(steps), n_modes).

    segment is one glue segment for all paths or one per path.
    Deterministic in every index; distinct tuples give independent draws.
    """
    keys = _stream_keys(seed, path_ids, process, segment, n_modes)
    return _keyed_normals(keys, _role_arr(steps, _MULT_STEP))


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


def noise_mode_indices(space: SpaceConfig, k_noise: int | None = None) -> np.ndarray:
    """Eigen indices carrying noise, honoring the zero-mode policy.

    Under 'drop'/'reject' the constant mode is excluded; under 'shift' it
    participates with its eigenvalue shifted to one.
    """
    total = space.total_modes
    if space.zero_mode == "shift":
        idx = np.arange(total)
    else:
        idx = np.arange(1, total)
    if k_noise is not None:
        if k_noise > idx.size:
            raise ValidationError(
                [f"mode_cutoff {k_noise} exceeds the {idx.size} usable noise modes"]
            )
        idx = idx[:k_noise]
    return idx


def coloring_weights(space: SpaceConfig, gamma: float,
                     k_noise: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(eigen indices, lambda_k**(-gamma/2)) for the retained noise modes."""
    idx = noise_mode_indices(space, k_noise)
    return idx, fractional_weights(space, -gamma / 2.0)[idx]


class WienerSource:
    """Per-path increment stream bound to (config, space, segment).

    Vectorized over a fixed tuple of path ids; segment is one glue
    segment for all paths or one per path.  Every draw is addressed by
    its step index, so two sources with overlapping keys replay
    bit-equal increments.  Keys are mixed once per process and segment;
    a draw mixes in only its step word.
    """

    def __init__(self, config: NoiseConfig, space: SpaceConfig,
                 path_ids, segment=0):
        self.config = config
        self.space = space
        self.segment = segment
        self.path_ids = np.atleast_1d(np.asarray(path_ids, dtype=np.int64))
        self.k_noise = config.mode_cutoff or noise_mode_indices(space).size
        self._keys: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # process -> (segment, keys)

    def increment_block(self, step0: int, count: int, dt: float,
                        process: int) -> np.ndarray:
        """(n_paths, count, K_noise) increments of variance dt for
        consecutive steps."""
        if dt <= 0:
            raise ValidationError(["dt must be > 0"])
        seg = np.array(self.segment, dtype=np.uint64)  # a copy, detached from self.segment
        got = self._keys.get(process)
        if got is None or not (got[0] == seg).all():  # first draw, or segment has changed
            got = self._keys[process] = (
                seg, _stream_keys(self.config.seed, self.path_ids, process, seg, self.k_noise))
        # _role_arr(steps, _MULT_STEP) on Python ints: a one-step draw makes no ufunc call here
        words = [_mix_int(((n + _GOLDEN) * _MULT_STEP) & _MASK) for n in range(step0, step0 + count)]
        z = _keyed_normals(got[1], np.array(words, dtype=np.uint64))
        return np.sqrt(dt) * z


def aggregate_increments(fine: np.ndarray, factor: int) -> np.ndarray:
    """Sum consecutive fine increments into coarse ones along axis -2.

    The blockwise sum realizes the refinement tree: the coarse stream is
    pathwise exactly the sum of its fine children.
    """
    paths, steps, modes = fine.shape
    if steps % factor:
        raise ValidationError(["fine step count must be a multiple of the factor"])
    return fine.reshape(paths, steps // factor, factor, modes).sum(axis=2)


# ---------------------------------------------------------------------------
# quantities of the colored noise modes
# ---------------------------------------------------------------------------


def _colored_modes(space: SpaceConfig, gamma: float, k_noise: int | None,
                   m: int) -> tuple[np.ndarray, np.ndarray]:
    """(lambda_k**(-gamma/2), phi_k on the m-point grid) for the noise modes."""
    idx, weights = coloring_weights(space, gamma, k_noise)
    eye = np.zeros((idx.size, space.total_modes))
    eye[np.arange(idx.size), idx] = 1.0
    return weights, get_basis(space).synthesize(eye, m)


def squared_eigenfunction_sum(space: SpaceConfig, gamma: float,
                              k_noise: int | None = None,
                              points_per_axis: int | None = None) -> np.ndarray:
    """Grid values of sum_k lambda_k^(-gamma) phi_k(x)^2 over noise modes."""
    m = points_per_axis or get_basis(space).dealias_points(1.0)
    weights, phi_vals = _colored_modes(space, gamma, k_noise, m)
    return np.tensordot(weights**2, phi_vals**2, axes=(0, 0))


def hilbert_schmidt_sum(u: SpectralField, gamma: float,
                        k_noise: int | None = None) -> float:
    """Truncated Hilbert-Schmidt norm sum_k lambda_k^(-gamma) |P(u phi_k)|_{L2}^2
    with P the Galerkin projection the scheme lives in."""
    basis = get_basis(u.space)
    m = basis.dealias_points(1.0)
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
