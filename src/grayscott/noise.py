"""Cylindrical Wiener noise in the eigenbasis and its coloring.

Increments are produced by a stateless counter-based generator: every
scalar draw is a pure function of (seed, path, process, segment, step,
mode), so parallel paths, glue segments and dt refinements never need
stream coordination.  One SplitMix64 finalizer mixes every word of the
address.  A source draws both Wiener processes in one call, in place, a
chunk of rows at a time: a draw reads only its address, so no bit moves.

An open source (``with WienerSource(...) as source``) draws the block
after the one it hands out on one worker thread, while the caller steps:
a wide block only (``DRAW_BUDGET``), and returned only if the next request
asks for that very address.  Each draw is a pure function of its
address, so which thread drew it moves no bit.
"""

from __future__ import annotations

import numbers
from concurrent.futures import Future, ThreadPoolExecutor
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
# values a draw mixes and converts per pass, so its words and output rows stay in cache
_CHUNK_VALUES = 1 << 14
# noise elements (paths x noise modes x steps) a driver's loop draws per call,
# for at most MAX_DRAW_STEPS steps: small batches gain from long blocks, while
# a wide batch draws one step at a time, where a block no longer fits in cache.
# An open source draws ahead the blocks of at least DRAW_BUDGET values per
# process: at half that, a 4-path d=2 N=8 forced sweep holds a second block
# and its peak passes the bound of its memory test
DRAW_BUDGET = 8192
MAX_DRAW_STEPS = 64


_U30, _U27, _U31 = np.uint64(30), np.uint64(27), np.uint64(31)
_U_MIX1, _U_MIX2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)


def _mix_arr(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, elementwise and in place on fresh uint64 words."""
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


def _keyed_normals(keys: np.ndarray, words: np.ndarray, scale: float, out: np.ndarray):
    """Fill out (R, S, K) with scale times standard normals from (R, K)
    stream keys and S step words, _CHUNK_VALUES values at a time."""
    rows = max(_CHUNK_VALUES // out[0].size, 1)
    bits = np.empty((min(rows, len(out)),) + out.shape[1:], dtype=np.uint64)
    for r in range(0, len(out), rows):
        o = out[r:r + rows]
        z = _mix_arr(np.bitwise_xor(keys[r:r + rows, None], words[:, None], out=bits[:len(o)]))
        z >>= np.uint64(11)  # 53-bit uniform strictly inside (0, 1), then inverse normal CDF
        np.add(z, 0.5, out=o)
        o *= 2.0**-53
        ndtri(o, out=o)
        o *= scale


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


def draw_steps(n_paths: int, k_noise: int) -> int:
    """Steps of noise a driver's loop draws per call for a batch."""
    return min(max(DRAW_BUDGET // (n_paths * k_noise), 1), MAX_DRAW_STEPS)


def path_id_array(path_ids) -> np.ndarray:
    """path_ids as a 1-D int64 array (a scalar is one path); raises
    ValidationError on none, on a second dimension, on anything but int
    or float numbers (strings, bools, None), on fractions and on ids
    outside [-2**63, 2**63)."""
    raw = np.asarray(path_ids)
    if raw.ndim > 1 or raw.size == 0:
        raise ValidationError([f"path_ids must be non-empty and 1-D, got shape {raw.shape}"])
    numeric = (int, float, np.integer, np.floating)
    if not (raw.dtype.kind in "iuf" or raw.dtype.kind == "O" and all(
            isinstance(v, numeric) and not isinstance(v, bool) for v in raw.ravel().tolist())):
        raise ValidationError([f"path_ids must be int or float numbers, got {raw.tolist()!r}"])
    if raw.dtype.kind == "f" and not (np.isfinite(raw) & (raw == np.round(raw))).all():
        raise ValidationError([f"path_ids must be whole numbers, got {raw.tolist()}"])
    if raw.dtype.kind in "ufO" and not ((raw >= -2**63) & (raw < 2**63)).all():
        raise ValidationError([f"path_ids must be within int64, got {raw.tolist()}"])
    return np.atleast_1d(np.asarray(path_ids, dtype=np.int64))


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

    Open as a context manager, the source draws ahead: after handing out
    a block of at least DRAW_BUDGET values per process it draws, on its
    one worker thread, the block of the same count, dt and segment that
    follows it.  The next request gets that block if it names the same
    address; otherwise the look-ahead is cancelled, or waited for if it
    has started, and the request is drawn in the caller's thread.  The
    worker keeps its own keys; leaving the context shuts it down.
    """

    def __init__(self, config: NoiseConfig, space: SpaceConfig, path_ids):
        self.config = config
        self.path_ids = path_id_array(path_ids)
        self.k_noise = noise_modes(space, config.mode_cutoff)
        self._keys: list = []  # [segment, keys] of the caller's draws
        self._ahead_keys: list = []  # the same of the worker's
        self._pool: ThreadPoolExecutor | None = None  # the worker, while open
        # the drawn-ahead block: ((step0, count, dt), segment, its future)
        self._ahead: tuple[tuple, np.ndarray, Future] | None = None

    def __enter__(self) -> WienerSource:
        self._pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="noise-ahead")
        return self

    def __exit__(self, *exc):
        self._drop_ahead()
        self._pool.shutdown()
        self._pool = None

    def _drop_ahead(self):
        """Cancel the look-ahead, or wait for it if it has started: a
        discarded draw runs beside no other."""
        if self._ahead is not None:
            future = self._ahead[2]
            self._ahead = None
            if not future.cancel():
                future.exception()  # waits; a discarded draw's error is nobody's

    def increment_block(self, step0: int, count: int, dt: float, segment) -> np.ndarray:
        """(2, n_paths, count, K_noise) increments of variance dt for
        consecutive steps, process 1 first, drawn in glue segment
        ``segment`` (one for all paths or one per path)."""
        seg = np.array(segment, dtype=np.int64)  # a copy, detached from the caller's
        v = [] if dt > 0 else [f"dt must be > 0, got {dt}"]  # also rejects NaN
        # exact addresses: a fraction or a bool would be rounded or read as a step
        for name, value, low in (("count", count, 1), ("step0", step0, 0)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                v.append(f"{name} must be a whole number, got {value!r}")
            elif value < low:
                v.append(f"{name} must be >= {low}, got {value}")
        if seg.ndim > 1 or seg.ndim == 1 and seg.size != self.path_ids.size:
            v.append(f"segment must be one value or one per path ({self.path_ids.size}), "
                     f"got shape {seg.shape}")
        elif (seg < 0).any():
            v.append(f"segment must be >= 0, got {segment}")
        if v:
            raise ValidationError(v)
        step0, count = int(step0), int(count)
        ahead = self._ahead
        if ahead is not None and ahead[0] == (step0, count, dt) and np.array_equal(ahead[1], seg):
            self._ahead = None
            out = ahead[2].result()
        else:
            self._drop_ahead()
            out = self._draw(self._keys, step0, count, dt, seg)
        if self._pool is not None and self.path_ids.size * count * self.k_noise >= DRAW_BUDGET:
            self._ahead = ((step0 + count, count, dt), seg, self._pool.submit(
                self._draw, self._ahead_keys, step0 + count, count, dt, seg))
        return out

    def _draw(self, keys: list, step0: int, count: int, dt: float, seg: np.ndarray) -> np.ndarray:
        """The block at this address, keyed from the [segment, keys] cache
        of the thread drawing it."""
        if not keys or not np.array_equal(keys[0], seg):
            keys[:] = seg, _stream_keys(self.config.seed, self.path_ids, seg, self.k_noise)
        words = _role_arr(np.arange(step0, step0 + count), _MULT_STEP)
        out = np.empty((2, self.path_ids.size, count, self.k_noise))
        _keyed_normals(keys[1].reshape(-1, self.k_noise), words, np.sqrt(dt),
                       out.reshape(-1, count, self.k_noise))
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
