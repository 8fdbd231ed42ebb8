"""The restart sampler: one seeded N-subset of the mesh per random restart.

Multi-start searches run their restarts in order, one after another, in
one thread.  Random restart r starts from the sorted indices that numpy
would draw as

    np.sort(default_rng(SeedSequence(seed).spawn(r + 1)[r])
            .choice(K, size=N, replace=False))

and `restart_indices` reproduces that stream bit for bit in pure Python:
SeedSequence pool mixing, PCG64 (128-bit LCG, XSL-RR output, numpy's
buffered 32-bit draws), Lemire's bounded integers, and `choice`'s two
paths, Floyd's set algorithm and the tail shuffle.  So no run loads
numpy.random, and artifacts do not depend on numpy's Generator algorithms,
which NEP 19 does not keep stream-stable across numpy versions.
"""

from __future__ import annotations

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words32(n: int) -> list:
    """Little-endian 32-bit words of a nonnegative integer ([0] for 0)."""
    out = [n & _M32]
    while n > _M32:
        n >>= 32
        out.append(n & _M32)
    return out


def _seed_state(seed: int, restart: int) -> list:
    """SeedSequence(seed).spawn(restart + 1)[restart].generate_state(4, uint64)."""
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value ^= const
        const = (const * _MULT_A) & _M32
        value = (value * const) & _M32
        return value ^ (value >> 16)

    def mix(x, y):
        r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return r ^ (r >> 16)

    run = _words32(seed)
    # a spawn key is present, so the entropy is padded to the pool size
    entropy = run + [0] * (_POOL_SIZE - len(run)) + _words32(restart)
    pool = [hashmix(entropy[i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, state = _INIT_B, []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ const
        const = (const * _MULT_B) & _M32
        value = (value * const) & _M32
        state.append(value ^ (value >> 16))
    return [state[i] | state[i + 1] << 32 for i in range(0, 2 * _POOL_SIZE, 2)]


class _PCG64:
    """numpy's PCG64 seeded from four 64-bit words, with its 32-bit buffer."""

    def __init__(self, words):
        # pcg64_srandom_r: step from 0, add the initial state, step again
        self.inc = ((words[2] << 64 | words[3]) << 1 | 1) & _M128
        self.state = ((self.inc + (words[0] << 64 | words[1])) * _PCG_MULT + self.inc) & _M128
        self.spare = None

    def next64(self) -> int:
        self.state = (self.state * _PCG_MULT + self.inc) & _M128
        s = self.state
        rot = s >> 122
        x = (s >> 64 ^ s) & _M64
        return (x >> rot | x << (64 - rot)) & _M64

    def next32(self) -> int:
        if self.spare is not None:
            out, self.spare = self.spare, None
            return out
        x = self.next64()
        self.spare = x >> 32
        return x & _M32

    def bounded(self, high: int) -> int:
        """Uniform integer in [0, high] by Lemire's multiply-and-reject."""
        if high == 0:
            return 0
        bits, draw = (32, self.next32) if high <= _M32 else (64, self.next64)
        span, mask = high + 1, (1 << bits) - 1
        m = draw() * span
        if m & mask < span:
            threshold = (1 << bits) % span
            while m & mask < threshold:
                m = draw() * span
        return m >> bits


def restart_indices(seed: int, restart: int, K: int, N: int) -> list:
    """Sorted start indices of random restart `restart`: N distinct rows of K.

    Bit for bit numpy's `np.sort(default_rng(SeedSequence(seed)
    .spawn(restart + 1)[restart]).choice(K, size=N, replace=False))`.
    """
    rng = _PCG64(_seed_state(int(seed), restart))
    if K > 10000 and N > K // 50:
        # tail shuffle of arange(K); its last N entries are the subset
        data = {}
        for i in range(K - 1, max(K - N, 1) - 1, -1):
            j = rng.bounded(i)
            data[i], data[j] = data.get(j, j), data.get(i, i)
        return sorted(data.get(i, i) for i in range(K - N, K))
    # Floyd's algorithm; numpy's final shuffle only reorders the subset
    chosen = set()
    for j in range(K - N, K):
        v = rng.bounded(j)
        chosen.add(j if v in chosen else v)
    return sorted(chosen)
