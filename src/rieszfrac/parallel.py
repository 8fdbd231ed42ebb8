"""Restart fan-out and the restart sampler of multi-start searches.

`parallel_map(task_fn, items)` returns `[task_fn(x) for x in items]`.
Where more than one CPU is usable (`os.sched_getaffinity`) and the
platform has `os.fork`, it runs the items on forked worker processes, one
per usable core, and sends each result back pickled through a pipe; the
result list and every artifact are the same for any worker count.  The
local search fans its restarts out this way once a search is large enough
to repay the fork (minimize._FAN_OUT_MIN), and runs them in order
otherwise.  Nothing is configurable: `taskset -c 0 rieszfrac ...` runs
every restart in one process.

Random restart r starts from the sorted indices that numpy would draw as

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

import os
import pickle


def _usable_cores() -> int:
    """The CPUs this process may run on; 1 where the platform cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def _share(task_fn, items, start: int, step: int):
    """Run items start, start + step, ...: (None, [(index, result), ...]),
    or (index, exception) for the first of them that raised."""
    done = []
    try:
        for i in range(start, len(items), step):
            done.append((i, task_fn(items[i])))
    except Exception as exc:
        return i, exc
    return None, done


def _run_child(task_fn, items, start: int, step: int, write_fd: int):
    """Body of a forked worker: send its _share pickled, then leave with
    os._exit, so that no cleanup of the parent's (atexit handlers, buffered
    output) runs twice."""
    status = 1
    try:
        sent = _share(task_fn, items, start, step)
        with os.fdopen(write_fd, "wb") as out:
            out.write(pickle.dumps(sent))
        status = 0
    finally:
        os._exit(status)


def _collect(children: dict, pid: int):
    """Read worker pid's pipe to EOF, reap it and unpickle what it sent."""
    pipe = children[pid]
    data = pipe.read()
    pipe.close()
    _, status = os.waitpid(pid, 0)
    del children[pid]
    if os.WIFSIGNALED(status):
        raise RuntimeError(f"worker process {pid} was killed by signal {os.WTERMSIG(status)}")
    if status != 0 or not data:
        raise RuntimeError(f"worker process {pid} exited with status {status} and no result")
    return pickle.loads(data)


def parallel_map(task_fn, items) -> list:
    """[task_fn(x) for x in items], on one forked process per usable core.

    With w = min(len(items), usable cores) >= 2, w - 1 children are forked;
    child g runs its share, items g, g + w, ..., while this process runs
    items 0, w, 2w, ... by the same loop (_share), then reads each child's
    pipe to EOF and reaps it.  The results come back in item order.  If
    items raise, the exception of the first failing item in item order is
    raised with its own type, so error exit codes are kept; a worker killed
    by a signal raises RuntimeError.
    Workers still running when this process raises, KeyboardInterrupt
    included, are killed and reaped, so none outlives the call.  With
    w < 2, or without os.fork, the items run here in order.

    Forking is safe for the tasks the package fans out.  numpy's OpenBLAS
    keeps a thread pool, but it quiesces the pool around fork through
    pthread_atfork, and the children run only elementwise numpy and einsum
    code, never BLAS or LAPACK (minimize._Mesh solves for the fixed points
    before any fork).  Python >= 3.12 still raises a DeprecationWarning
    when a process with threads forks.  It is left unsilenced: the default
    filters hide it, since it is raised in this module, and test runners
    such as pytest list it.
    """
    items = list(items)
    w = min(len(items), _usable_cores())
    if w < 2 or not hasattr(os, "fork"):
        return [task_fn(x) for x in items]
    children = {}  # pid -> read end of its pipe, until the worker is reaped
    try:
        for g in range(1, w):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                _run_child(task_fn, items, g, w, write_fd)
            os.close(write_fd)
            children[pid] = os.fdopen(read_fd, "rb")
        shares = [_share(task_fn, items, 0, w)]
        shares += [_collect(children, pid) for pid in list(children)]
        failed = [share for share in shares if share[0] is not None]
        if failed:
            raise min(failed, key=lambda share: share[0])[1]
        results = [None] * len(items)
        for _, done in shares:
            for i, value in done:
                results[i] = value
        return results
    finally:
        if children:
            import signal

            for pid, pipe in children.items():
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


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
