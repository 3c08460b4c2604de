"""Reproducible random-number streams for simulations.

Each logical source of randomness in a simulation (arrival times, holding
times, user speeds, ...) gets its own named substream derived from a master
seed, so changing the number of draws in one stream does not perturb the
others — the standard variance-reduction / reproducibility discipline for
simulation studies.

Some draws are seeded per request instead, from a label that describes it
(SCC's reservation draws, see
:meth:`~repro.cac.scc.system.ShadowClusterController._establish_reservations`).
:func:`mix_seeds` and :func:`pcg64_random_raw` make such draws for many
labels at once, one array op per step: bit for bit, row ``i`` is
``np.random.PCG64(_mix_seed(seed, labels[i])).random_raw(count)``.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

__all__ = ["BufferedNormals", "RandomStream", "StreamFactory", "mix_seeds", "pcg64_random_raw"]

#: Standard normals a :class:`BufferedNormals` draws at a time: one draw of
#: this size costs about as much as six scalar ``normal`` calls.
_NORMALS_BLOCK = 256


class RandomStream:
    """A named, seeded random stream with the distributions the simulator needs."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)

    # -- uniform / choice ------------------------------------------------
    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Uniform draw on ``[low, high)``."""
        if high < low:
            raise ValueError(f"uniform bounds reversed: low={low}, high={high}")
        return float(self._rng.uniform(low, high))

    def integer(self, low: int, high: int) -> int:
        """Uniform integer on ``[low, high]`` inclusive."""
        if high < low:
            raise ValueError(f"integer bounds reversed: low={low}, high={high}")
        return int(self._rng.integers(low, high + 1))

    def choice(self, options: Sequence, weights: Sequence[float] | None = None):
        """Draw one element, optionally with (unnormalised) weights."""
        if not len(options):
            raise ValueError("cannot choose from an empty sequence")
        if weights is None:
            index = int(self._rng.integers(0, len(options)))
            return options[index]
        weights_arr = np.asarray(weights, dtype=float)
        if len(weights_arr) != len(options):
            raise ValueError(
                f"weights length {len(weights_arr)} does not match options length {len(options)}"
            )
        if np.any(weights_arr < 0) or weights_arr.sum() <= 0:
            raise ValueError("weights must be non-negative and sum to a positive value")
        probabilities = weights_arr / weights_arr.sum()
        index = int(self._rng.choice(len(options), p=probabilities))
        return options[index]

    def random(self) -> float:
        """One standard uniform draw on ``[0, 1)``."""
        return self._rng.random()

    # -- batch draws (bit-identical to the scalar loops) -------------------
    #
    # numpy's ``Generator`` fills sized draws element by element from the
    # same bit stream as the matching scalar calls, so each method below
    # consumes the generator exactly like ``count`` scalar calls — the
    # columnar trace builder leans on this to stay byte-identical to the
    # historical per-request draw loops.

    def uniform_batch(self, low: float, high: float, count: int) -> np.ndarray:
        """``count`` uniform draws on ``[low, high)``; same stream as
        ``count`` calls of :meth:`uniform`."""
        if high < low:
            raise ValueError(f"uniform bounds reversed: low={low}, high={high}")
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return self._rng.uniform(low, high, size=count)

    def random_batch(self, count: int) -> np.ndarray:
        """``count`` standard uniforms on ``[0, 1)``.

        ``uniform(low, high)`` is exactly ``low + (high - low) * u`` over one
        standard uniform ``u``, so callers that need per-draw bounds (e.g.
        interleaved speed/angle/distance columns) can draw the raw batch and
        apply the affine maps themselves, bit for bit.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return self._rng.random(size=count)

    def standard_normal_batch(self, count: int) -> np.ndarray:
        """``count`` standard normals; same stream as ``count`` calls of
        :meth:`normal` (numpy draws ``normal(mean, std)`` as ``mean + std
        * z`` over one standard normal ``z``)."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return self._rng.standard_normal(count)

    def exponential_by_means(self, means: np.ndarray) -> np.ndarray:
        """One exponential draw per entry of ``means``; same stream as
        calling :meth:`exponential` with each mean in order."""
        means = np.asarray(means, dtype=np.float64)
        if means.size and not np.all(means > 0):
            raise ValueError("exponential means must all be positive")
        return means * self._rng.standard_exponential(means.size)

    def choice_indices(self, probabilities: np.ndarray, count: int) -> np.ndarray:
        """``count`` index draws from pre-normalised probabilities; same
        stream as ``count`` calls of :meth:`choice` with those weights."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return self._rng.choice(len(probabilities), size=count, p=probabilities)

    def shuffle(self, items: list) -> list:
        """Return a new list with the items in random order."""
        indices = self._rng.permutation(len(items))
        return [items[i] for i in indices]

    # -- common simulation distributions ----------------------------------
    def exponential(self, mean: float) -> float:
        """Exponential draw with the given mean (inter-arrival/holding times)."""
        if mean <= 0:
            raise ValueError(f"exponential mean must be positive, got {mean}")
        return float(self._rng.exponential(mean))

    def normal(self, mean: float = 0.0, std: float = 1.0) -> float:
        if std < 0:
            raise ValueError(f"normal std must be non-negative, got {std}")
        return float(self._rng.normal(mean, std))

    def lognormal(self, mean: float = 0.0, sigma: float = 1.0) -> float:
        if sigma < 0:
            raise ValueError(f"lognormal sigma must be non-negative, got {sigma}")
        return float(self._rng.lognormal(mean, sigma))

    def poisson(self, lam: float) -> int:
        if lam < 0:
            raise ValueError(f"poisson rate must be non-negative, got {lam}")
        return int(self._rng.poisson(lam))

    def bernoulli(self, probability: float) -> bool:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must lie in [0, 1], got {probability}")
        return bool(self._rng.random() < probability)

    def pareto(self, shape: float, scale: float = 1.0) -> float:
        """Pareto draw (heavy-tailed session sizes for data traffic)."""
        if shape <= 0 or scale <= 0:
            raise ValueError("pareto shape and scale must be positive")
        return float(scale * (1.0 + self._rng.pareto(shape)))

    def angle_degrees(self) -> float:
        """Uniform direction on [-180, 180) degrees (user heading)."""
        return float(self._rng.uniform(-180.0, 180.0))

    def spawn(self, suffix: str) -> "RandomStream":
        """Derive a child stream whose seed depends on this stream's seed and a label."""
        child_seed = _mix_seed(self.seed, suffix)
        return RandomStream(f"{self.name}/{suffix}", child_seed)


class BufferedNormals:
    """A stream's normal draws, read ahead in blocks of standard normals.

    :meth:`normal` returns ``mean + std * z`` for the stream's next standard
    normal ``z``, numpy's own formula for ``Generator.normal``.  At
    ``mean=0.0`` that is :meth:`RandomStream.normal` bit for bit (``0.0 +
    std * z`` rounds once, whether or not numpy fuses the multiply-add), and
    the stream yields the same normals in the same order.  A block of
    :data:`_NORMALS_BLOCK` is drawn when the previous one runs out, never on
    construction, so a source nobody reads leaves its stream untouched; the
    unread rest of the last block is the only extra consumption.
    """

    __slots__ = ("_stream", "_buffer", "_next")

    def __init__(self, stream: RandomStream):
        self._stream = stream
        self._buffer: list[float] = []
        self._next = 0

    def normal(self, mean: float = 0.0, std: float = 1.0) -> float:
        if std < 0:
            raise ValueError(f"normal std must be non-negative, got {std}")
        index = self._next
        if index == len(self._buffer):
            self._buffer = self._stream.standard_normal_batch(_NORMALS_BLOCK).tolist()
            index = 0
        self._next = index + 1
        return mean + std * self._buffer[index]


class StreamFactory:
    """Creates independent named random streams from a single master seed."""

    def __init__(self, master_seed: int = 12345):
        self.master_seed = int(master_seed)
        self._streams: dict[str, RandomStream] = {}

    def stream(self, name: str) -> RandomStream:
        """Return (creating on first use) the stream with the given name."""
        if name not in self._streams:
            self._streams[name] = RandomStream(name, _mix_seed(self.master_seed, name))
        return self._streams[name]

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def stream_names(self) -> list[str]:
        return sorted(self._streams)


def _mix_seed(seed: int, label: str) -> int:
    """Derive a 63-bit child seed from a parent seed and a string label.

    Uses the SplitMix64 finaliser over the parent seed combined with a simple
    polynomial hash of the label, which is deterministic across platforms and
    Python processes (unlike the built-in ``hash``).
    """
    label_hash = 0
    for char in label:
        label_hash = (label_hash * 131 + ord(char)) & 0xFFFFFFFFFFFFFFFF
    z = (seed ^ label_hash) & 0xFFFFFFFFFFFFFFFF
    z = (z + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    z = z ^ (z >> 31)
    return int(z & 0x7FFFFFFFFFFFFFFF)


# -- many seeded generators at once -------------------------------------------
#
# ``mix_seeds`` and ``pcg64_random_raw`` compute, one array op per step over
# all rows, what ``_mix_seed`` and a fresh ``np.random.PCG64(seed)`` compute
# for one: SeedSequence's pool mixing in uint32, PCG64's 128-bit state in two
# uint64 limbs.  Every constant is a Python int, and the arithmetic wraps in
# array ops, which numpy does silently (a numpy *scalar* op would warn).

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """SeedSequence's ``(xor, multiply)`` constants for ``count`` successive
    hashes; they do not depend on the data, so each is a column to stack."""
    xors, mults = [], []
    for _ in range(count):
        xors.append(init)
        init = (init * mult) & _MASK32
        mults.append(init)
    return (
        np.array(xors, dtype=np.uint32)[:, None],
        np.array(mults, dtype=np.uint32)[:, None],
    )


# numpy.random.SeedSequence with its default pool of 4 words: 4 hashes fill
# the pool, 12 mix it, and 8 more draw PCG64's four 64-bit seed words.
_POOL_XOR, _POOL_MULT = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_XOR, _STATE_MULT = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L = 0xCA01F9DD
_MIX_R = 0x4973F715
#: PCG64's 128-bit multiplier, as high and low limbs and the low limb's halves.
_PCG_HIGH = 0x2360ED051FC65DA4
_PCG_LOW = 0x4385DF649FCCF645
_PCG_LOW_0 = _PCG_LOW & _MASK32
_PCG_LOW_1 = _PCG_LOW >> 32


@functools.lru_cache(maxsize=8)
def _powers_of_131(width: int) -> np.ndarray:
    """``131**(width - 1), ..., 131, 1`` mod 2**64, as uint64."""
    powers = np.array(
        [pow(131, power, 1 << 64) for power in range(width - 1, -1, -1)], dtype=np.uint64
    )
    powers.flags.writeable = False
    return powers


def mix_seeds(seed: int, labels: Sequence[str]) -> np.ndarray:
    """``_mix_seed(seed, label)`` for every (ASCII) label, as uint64.

    The label hash is a polynomial in 131 over the label's bytes, so the
    labels are NUL-left-padded to one width and each row is a dot product
    with the powers of 131 mod 2**64.
    """
    width = max((len(label) for label in labels), default=0) or 1
    padded = np.array([label.rjust(width, "\0") for label in labels], dtype=f"S{width}")
    octets = padded.view(np.uint8).reshape(len(labels), width)
    z = (octets * _powers_of_131(width)).sum(axis=1, dtype=np.uint64) ^ (seed & _MASK64)
    z += 0x9E3779B97F4A7C15
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return (z ^ (z >> 31)) & 0x7FFFFFFFFFFFFFFF


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """PCG64's four seed words per seed, ``SeedSequence(s).generate_state(4,
    np.uint64)`` for every seed ``s < 2**64``, as a ``(4, n)`` uint64 array.

    A seed's entropy is its low and high 32-bit words; numpy omits a zero
    high word, and its pool pads with the hash of zero, which is the same.
    """
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    pool[0] = seeds & _MASK32
    pool[1] = seeds >> 32
    pool = (pool ^ _POOL_XOR[:4]) * _POOL_MULT[:4]
    pool ^= pool >> 16
    for source in range(4):
        # The three other words, each mixed with its own hash of this one.
        constants = slice(4 + 3 * source, 7 + 3 * source)
        hashes = (pool[source] ^ _POOL_XOR[constants]) * _POOL_MULT[constants]
        hashes ^= hashes >> 16
        others = [word for word in range(4) if word != source]
        mixed = pool[others] * _MIX_L - hashes * _MIX_R
        pool[others] = mixed ^ (mixed >> 16)
    state = (np.concatenate([pool, pool]) ^ _STATE_XOR) * _STATE_MULT
    state ^= state >> 16
    state = state.astype(np.uint64)
    return state[0::2] | (state[1::2] << 32)


def _pcg64_step(
    high: np.ndarray, low: np.ndarray, inc_high: np.ndarray, inc_low: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One PCG64 step, ``state * multiplier + increment`` mod 2**128."""
    # The high 64 bits of low * _PCG_LOW, from the 32-bit halves of both.
    low_0 = low & _MASK32
    low_1 = low >> 32
    cross_0 = low_0 * _PCG_LOW_1
    cross_1 = low_1 * _PCG_LOW_0
    middle = ((low_0 * _PCG_LOW_0) >> 32) + (cross_0 & _MASK32) + (cross_1 & _MASK32)
    low_high = low_1 * _PCG_LOW_1 + (cross_0 >> 32) + (cross_1 >> 32) + (middle >> 32)
    new_low = low * _PCG_LOW + inc_low
    carry = new_low < inc_low
    return low_high + low * _PCG_HIGH + high * _PCG_LOW + inc_high + carry, new_low


def pcg64_random_raw(seeds: np.ndarray, count: int) -> np.ndarray:
    """``np.random.PCG64(int(s)).random_raw(count)`` for every seed ``s``,
    bit for bit, as the rows of an ``(n, count)`` uint64 array.

    Seeds must lie in ``[0, 2**64)``.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    words = _seed_words(seeds)
    # Seeding: the increment is twice the second 128-bit word plus one; the
    # state steps from zero (to the increment), adds the first word and
    # steps again.
    inc_high = (words[2] << 1) | (words[3] >> 63)
    inc_low = (words[3] << 1) | 1
    low = inc_low + words[1]
    high = inc_high + words[0] + (low < inc_low)
    high, low = _pcg64_step(high, low, inc_high, inc_low)
    out = np.empty((count, len(seeds)), dtype=np.uint64)
    for draw in out:
        high, low = _pcg64_step(high, low, inc_high, inc_low)
        # XSL-RR: the xor of the two halves, rotated right by the top 6 bits.
        folded = high ^ low
        rotation = high >> 58
        draw[:] = (folded >> rotation) | (folded << ((64 - rotation) & 63))
    return out.T
