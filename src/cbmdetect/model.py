"""Censored block model primitives.

A graph on n nodes carries one symbol per unordered pair: +1 (same-community
evidence), -1 (cross-community evidence), or 0 (pair not revealed). Under
labels sigma and parameters (p, zeta), pair (i, j) shows sigma_i * sigma_j
with probability p(1 - zeta), the opposite sign with probability p * zeta,
and 0 with probability 1 - p. sample_cbm draws one uniform per pair, read as
the top 53 bits of a raw 64-bit output of the bit generator and compared in
integers: the same uniforms, and so the same graphs, as Generator.random.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._rng import SAMPLE, stream

_PAIR_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_MASK_CACHE: dict[int, np.ndarray] = {}

# the two symbols other than x, in a fixed order, indexed by x + 1
FOREIGN = (np.array([0, -1, -1], dtype=np.int8), np.array([1, 1, 0], dtype=np.int8))


def n_pairs(n):
    return n * (n - 1) // 2


def pair_indices(n):
    """Row/col indices of the strict upper triangle, row-major order."""
    if n not in _PAIR_CACHE:
        _PAIR_CACHE[n] = np.triu_indices(n, k=1)
    return _PAIR_CACHE[n]


def _upper_mask(n):
    """Boolean n x n mask of the strict upper triangle; row-major order is pair_indices order."""
    if n not in _MASK_CACHE:
        mask = np.triu(np.ones((n, n), dtype=bool), k=1)
        mask.flags.writeable = False
        _MASK_CACHE[n] = mask
    return _MASK_CACHE[n]


def pair_pos(i, j, n):
    """Position of pair (i, j), i < j, in the row-major upper triangle."""
    return i * n - i * (i + 1) // 2 + (j - i - 1)


def check_n(n):
    """n, if it is an int >= 2 (a bool is not); else a ValueError naming it."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError(f"n must be an int >= 2, got {n!r}")
    return n


def check_positive(name, value):
    """A ValueError naming name and value unless value > 0 (NaN is not)."""
    if not value > 0:
        raise ValueError(f"{name}={value} must be positive")


def validate_labels(labels, n=None):
    """Check a +-1 vector and return it as int8."""
    arr = np.asarray(labels)
    if arr.ndim != 1:
        raise ValueError("labels must be a 1-d vector")
    if n is not None and arr.shape[0] != n:
        raise ValueError(f"expected {n} labels, got {arr.shape[0]}")
    if arr.shape[0] < 2:
        raise ValueError("need at least 2 nodes")
    # count_nonzero on the mask costs a fraction of np.all on it; this check
    # runs several times per detector step
    if np.count_nonzero(np.abs(arr) != 1):
        raise ValueError("labels must be +1 or -1")
    return arr.astype(np.int8)


def canonical(labels, n=None):
    """Representative of the global-flip class: first entry +1."""
    arr = validate_labels(labels, n)
    return arr if arr[0] == 1 else -arr


def random_labels(n, rng):
    """Uniform draw over the 2^(n-1) canonical labelings."""
    out = np.empty(n, dtype=np.int8)
    out[0] = 1
    out[1:] = rng.integers(0, 2, size=n - 1, dtype=np.int8) * 2 - 1
    return out


def hamming(a, b):
    """Entrywise disagreements, orientation as given."""
    a = validate_labels(a)
    b = validate_labels(b, a.shape[0])
    return int(np.count_nonzero(a != b))


def err(a, b):
    """Disagreements up to a global flip: min over both orientations."""
    d = hamming(a, b)
    return min(d, a.shape[0] - d)


def correlation(a, b):
    """|<a, b>| / n, flip-invariant; 1 iff a = +-b."""
    a = validate_labels(a)
    b = validate_labels(b, a.shape[0])
    return abs(int(a @ b)) / a.shape[0]


def parse_labels(text):
    """'++-+' -> int8 vector."""
    table = {"+": 1, "-": -1}
    try:
        return np.array([table[ch] for ch in text.strip()], dtype=np.int8)
    except KeyError as exc:
        raise ValueError(f"labels may only contain + and -: {text!r}") from exc


def format_labels(labels):
    return "".join("+" if v == 1 else "-" for v in validate_labels(labels))


@dataclass(frozen=True)
class CbmParams:
    """Model parameters: n nodes, reveal probability p, sign flip probability zeta."""

    n: int
    p: float
    zeta: float

    def __post_init__(self):
        check_n(self.n)
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p={self.p} outside [0, 1]")
        if not 0.0 < self.zeta < 0.5:
            raise ValueError(f"zeta={self.zeta} outside (0, 0.5)")

    @classmethod
    def from_scale(cls, n, a, zeta):
        """Parameters at the p = a*log(n)/n operating point."""
        return cls(n=n, p=a * math.log(n) / n, zeta=zeta)


@dataclass(eq=False)
class TernaryGraph:
    """Symmetric ternary adjacency, stored as the strict upper triangle.

    Symmetry and a zero diagonal hold by construction: only the n(n-1)/2
    upper entries exist. `dense()` materializes the full matrix on demand.
    """

    n: int
    upper: np.ndarray

    def __post_init__(self):
        check_n(self.n)
        arr = np.asarray(self.upper)
        if arr.shape != (n_pairs(self.n),):
            raise ValueError(
                f"upper triangle for n={self.n} needs {n_pairs(self.n)} entries, "
                f"got shape {arr.shape}"
            )
        # checked before the cast, which would wrap 255 to -1 and truncate 0.7 to 0
        if arr.dtype == np.int8:
            ternary = arr.min() >= -1 and arr.max() <= 1
        else:
            ternary = np.all((arr == -1) | (arr == 0) | (arr == 1))
        if not ternary:
            raise ValueError("graph entries must be -1, 0, or +1")
        self.upper = arr.astype(np.int8, copy=False)
        self._dense = None

    @classmethod
    def zero(cls, n):
        return cls(n, np.zeros(n_pairs(n), dtype=np.int8))

    @classmethod
    def from_dense(cls, matrix):
        m = np.asarray(matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("adjacency must be square")
        if np.any(np.diagonal(m) != 0):
            raise ValueError("diagonal must be zero")
        if not np.array_equal(m, m.T):
            raise ValueError("adjacency must be symmetric")
        return cls(m.shape[0], m[_upper_mask(m.shape[0])])

    def dense(self):
        """Full symmetric float64 matrix (cached, read-only).

        The one n x n allocation: the upper triangle is scattered into a
        zero float64 matrix through the mask, and again through the same
        mask into its transpose, which fills the lower triangle. No n x n
        temporary is made.
        """
        if self._dense is None:
            mask = _upper_mask(self.n)
            m = np.zeros((self.n, self.n))
            m[mask] = self.upper
            m.T[mask] = self.upper
            m.flags.writeable = False
            self._dense = m
        return self._dense

    @property
    def edge_count(self):
        """Number of revealed pairs (nonzero upper entries)."""
        return int(np.count_nonzero(self.upper))

    def __eq__(self, other):
        if not isinstance(other, TernaryGraph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.upper, other.upper)


def quad_form(graph, labels):
    """Full quadratic form sigma^T A sigma (both triangles counted).

    Read from the cached dense matrix: every partial sum is an integer of
    size at most n^2, so float64 holds it exactly.
    """
    s = validate_labels(labels, graph.n).astype(np.float64)
    return int(s @ (graph.dense() @ s))


# bit generators whose Generator.random() is (next_uint64 >> 11) 2^-53
_RAW64 = (np.random.Philox, np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64)


def _raw_uniforms(rng, size):
    """size 64-bit words w, the uniforms rng.random(size) would draw being (w >> 11) 2^-53.

    Read straight from the bit generator where its doubles are its raw words'
    top 53 bits; otherwise (MT19937, say) from random() itself, scaled by
    2^64, which is exact. Either way the generator ends where random(size)
    would leave it.
    """
    if isinstance(rng.bit_generator, _RAW64):
        return rng.bit_generator.random_raw(size)
    return (rng.random(size) * 2.0**64).astype(np.uint64)


def _below(words, x, out=None):
    """Bool mask (into out, if given) of (w >> 11) 2^-53 < x, x in [0, 1]: w < ceil(x 2^53) 2^11."""
    if out is None:
        out = np.empty(words.shape, dtype=bool)
    k = math.ceil(x * 2.0**53)
    if k >= 1 << 53:  # 2^64 does not fit a uint64, and every uniform is below 1
        out[...] = True
    else:
        np.less(words, np.uint64(k << 11), out=out)
    return out


@functools.lru_cache(maxsize=8)
def _label_products(key):
    """Upper-triangle products sigma_i sigma_j of the int8 labels with bytes `key`, read-only."""
    labels = np.frombuffer(key, dtype=np.int8)
    prod = np.multiply.outer(labels, labels)[_upper_mask(len(labels))]
    prod.flags.writeable = False
    return prod


SAMPLE_BLOCK = 1 << 14  # raw words sample_cbm reads and decides at a time


def sample_cbm(params, labels, seed):
    """Draw one graph: reveal each pair w.p. p, flip its sign w.p. zeta.

    The upper triangle is drawn in row-major pair order, taking the
    n(n-1)/2 uniforms rng.random(n(n-1)/2) would take, and leaving rng where
    that call would. Each uniform is the top 53 bits of one raw 64-bit
    output (Philox, PCG64, PCG64DXSM, SFC64); u < x is decided in integers
    as raw < ceil(x 2^53) 2^11, which is exact. Any other bit generator
    (MT19937, say) goes through random() itself; the graph is the same
    either way. The words are read SAMPLE_BLOCK at a time, in order, and
    decided straight into the int8 output, so a draw's scratch stays a few
    hundred kilobytes whatever n is. seed is an int, read as the stream
    generator(seed, SAMPLE), so a fixed (params, labels, seed) triple is
    fully reproducible; or a np.random.Generator, which the draw advances,
    so one generator can feed a sequence of graphs in order. params is read
    only for n, p and zeta.
    """
    labels = validate_labels(labels, params.n)
    rng = stream(seed, SAMPLE)
    size = n_pairs(params.n)
    sign = np.empty(size, dtype=np.int8)
    shown = np.empty(min(size, SAMPLE_BLOCK), dtype=bool)
    for lo in range(0, size, SAMPLE_BLOCK):
        words = _raw_uniforms(rng, min(SAMPLE_BLOCK, size - lo))
        block = sign[lo : lo + len(words)]
        # 2 [u < p(1 - zeta)] - [u < p]: +1 keeps the label product, -1 flips it, 0 hides the pair
        _below(words, params.p * (1.0 - params.zeta), block.view(bool))
        block += block
        block -= _below(words, params.p, shown[: len(words)]).view(np.int8)
    sign *= _label_products(labels.tobytes())
    return TernaryGraph(params.n, sign)


@dataclass
class ChangeScenario:
    """Pre/post labelings with a change time nu.

    Labelings are normalized at construction: pre is canonical (first entry
    +1) and post is oriented so Ham(pre, post) <= n/2, flipping post globally
    if needed. nu is the 1-based index of the first post-change sample;
    math.inf means the change never happens.
    """

    pre: np.ndarray
    post: np.ndarray
    nu: float
    params_pre: CbmParams
    params_post: CbmParams

    def __post_init__(self):
        self.pre = canonical(self.pre)
        n = self.pre.shape[0]
        post = canonical(self.post, n)
        if hamming(self.pre, post) > n - hamming(self.pre, post):
            post = -post
        self.post = post
        if self.nu != math.inf:
            if isinstance(self.nu, (bool, str)) or int(self.nu) != self.nu or self.nu < 1:
                raise ValueError(f"nu must be an integer >= 1 or inf, got {self.nu!r}")
            self.nu = int(self.nu)
        if self.params_pre.n != n or self.params_post.n != n:
            raise ValueError("params and labels disagree on n")

    def regime_at(self, t):
        """(labels, params) in force for sample index t (1-based)."""
        if t >= self.nu:
            return self.post, self.params_post
        return self.pre, self.params_pre
