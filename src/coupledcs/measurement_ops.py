"""Matrix-free spatially-coupled measurement operators.

A CoupledOperator realizes one draw of the block measurement matrix for
a CouplingSpec.  Row-orthogonal blocks select M_q distinct rows of the
N_p-point unitary DFT, permute its columns, and scale by
sqrt(J[q,p] * N_p / N), so every entry has squared modulus exactly
J[q,p] / N.  Gaussian blocks are dense i.i.d. complex Gaussian with the
same per-entry variance.  Application takes one transform per DFT block
instead of an O(M_q N_p) product and adds the block outputs in (q, p)
order.

Block sizes N_p = N / L_c are seldom FFT-friendly, and pocketfft is slow
on a large prime factor: at N = 2^17, L_c = 10 a 13107 = 3 * 17 * 257-point
transform costs five to six 16384-point ones.  So an N_p whose largest
prime-power factor p^a has p > _SPLIT_PRIME is transformed as an
(N_p / p^a) x p^a two-axis DFT through the prime-factor (Good-Thomas)
layout of `_layout`.  When a = 1 and p - 1 has no prime factor above
_RADER_FACTOR, the p axis is transformed by Rader's algorithm: reordered
by powers of a primitive root, the p-point DFT is a cyclic convolution of
length p - 1, one FFT pair with a cached kernel (BENCH_15.json).  A whole
prime N_p = p takes Rader's algorithm as a 1 x p layout under its own rule,
_PRIME_RADER_SIZE (BENCH_35.json).  Every other N_p keeps the 1-D
transform and its bytes; split and Rader sizes change outputs by rounding
only.  Each DftBlock keeps its row selection and column permutation
composed with the layout's index maps once, when the operator is drawn,
so a block application is a gather, one transform and a gather.

All randomness flows from one counter-based Philox generator: the
instance seed feeds a SeedSequence whose spawned children are assigned,
in row-major block order, one stream per block (plus dedicated streams
for the signal and the noise), so draws are reproducible across
platforms and independent of block evaluation order.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .replica_core import CouplingSpec, Ensemble, _check_ensemble
from .scalar_channel import BernoulliGaussianPrior, _sample_prior, _whole_number

# block sizes whose largest prime-power factor p^a has p above this take the
# two-axis layout.  Over the N_p of N = 2^15 and 2^17 at L_c = 6..30 (numpy
# 2.4's pocketfft, two-row stacks, BENCH_14.json) the split took 1.2-2.3x the
# 1-D time wherever p <= 97 and 0.37-0.86x wherever p >= 127 and N_p > 2400;
# p = 101, 103 and smaller N_p read 1.0-1.3x on transforms of under 0.6 ms.
# The alternative rule p^2 > N_p would also split 1328 = 2^4 * 83 (2.3x).
_SPLIT_PRIME = 100
# the prime axis p^1 of a split block takes Rader's algorithm when p - 1 has
# no prime factor above this.  Over the split sizes of BENCH_14.json's table
# (BENCH_15.json, two-row stacks) Rader took 0.51-0.93x pocketfft's time at
# all 28 whose p - 1 passes, 257 (2^8) among them at 0.51-0.64x, and
# 1.02-2.3x at 15 of the 16 that fail, 809 (2^3 * 101) among them at
# 1.4-1.5x; 3284 = 4 * 821 (820 = 2^2 * 5 * 41) read 0.78x.  Re-timed one
# block at a time (numpy 2.4.6), the 13107 = 51 x 257 layout with Rader's
# stage took 0.29-0.46 ms with its scatter against 2.2-2.4 ms for the 1-D
# transform; no other size was re-timed.
_RADER_FACTOR = 31
# a whole prime block p takes Rader's stage, as a (1, p) layout, when p is at
# least this and no prime factor q of p - 1 has q^2 > p - 1: then pocketfft
# transforms the p - 1 axis without Bluestein's algorithm.  The q <= 31 rule
# above would refuse the showcase's 13109 (13108 = 2^2 * 29 * 113).  Timed one
# row at a time, a forward plus an inverse transform, minimum of 21 calls,
# on all 2237 primes in 101-20000 (numpy 2.4.6, table in BENCH_35.json): the
# 920 the rule admits took 0.16-0.98x the 1-D time (median 0.39x; 13109 at
# 0.52x, 1373 at 0.41x, 409 at 0.69x); the four smaller primes the q rule
# admits, 101, 109, 113 and 127, read 1.06-1.09x.  Of the 1317 refused, 981
# read 1.8-2.5x (pocketfft takes their p - 1 by Bluestein, e.g. 9719 =
# 2 * 43 * 113 + 1 at 2.0x), and 299 read 0.44-1.0x (median 0.65x, e.g. 1213,
# q = 101, at 0.84x): taking those too would save 12% more time than the rule.
_PRIME_RADER_SIZE = 150


def _generator(seed_seq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed_seq))


@dataclass
class DftBlock:
    """Subsampled, column-permuted unitary DFT block with constant entry modulus.

    The drawn rows and column permutation are kept composed with the
    transform layout of `_layout(n)`: column j enters the stack at flat
    position time_map[j], time_inv is that map's inverse, and selected row
    r is read at freq_map[r].  int32 holds the three in (2n + m) * 4 bytes,
    no more than the (n + m) * 8 of the drawn intp arrays.  gain is scale
    times the layout's transform norm.
    """

    n: int
    m: int
    scale: float
    gain: float
    time_map: np.ndarray
    time_inv: np.ndarray
    freq_map: np.ndarray

    @property
    def row_selection(self) -> np.ndarray:
        """The drawn DFT rows, in draw order."""
        return _drawn(self.freq_map, _layout(self.n)[2])

    @property
    def col_permutation(self) -> np.ndarray:
        """The drawn column permutation: column j holds DFT time index col_permutation[j]."""
        return _drawn(self.time_map, _layout(self.n)[1])


@dataclass
class GaussianBlock:
    """Dense i.i.d. complex Gaussian block."""

    matrix: np.ndarray


@dataclass
class CoupledOperator:
    """Blocks plus the row/column offsets that stitch them together."""

    spec: CouplingSpec
    N: int
    M: int
    kind: Ensemble
    blocks: dict
    col_offsets: np.ndarray
    row_offsets: np.ndarray


@dataclass
class SyntheticInstance:
    """One synthetic measurement y = A x + sigma z with its provenance."""

    x: np.ndarray
    y: np.ndarray
    sigma: float
    seed: int


def _block_sizes(spec: CouplingSpec, N: int):
    # N_p = floor(gamma_p N), remainder assigned to the last block
    col_sizes = np.floor(spec.gamma * N).astype(int)
    col_sizes[-1] += N - col_sizes.sum()
    row_sizes = np.rint(spec.row_rates * N).astype(int)
    if np.any(col_sizes < 1) or np.any(row_sizes < 1):
        raise ValueError("N too small: every block needs at least one row and column")
    return col_sizes, row_sizes


def build_coupled_operator(spec: CouplingSpec, N: int, seed: int,
                           kind: Ensemble) -> CoupledOperator:
    """Draw one measurement operator of total signal dimension N.

    Row-orthogonal blocks require M_q <= N_p wherever J[q,p] > 0, since
    distinct DFT rows cannot be selected beyond the block dimension.
    """
    _check_ensemble(kind)
    N, seed = _whole_number("N", N, 1), _whole_number("seed", seed, 0)
    col_sizes, row_sizes = _block_sizes(spec, N)
    root = np.random.SeedSequence(seed)
    streams = root.spawn(spec.L_r * spec.L_c)
    blocks = {}
    for q in range(spec.L_r):
        for p in range(spec.L_c):
            if spec.J[q, p] == 0.0:
                continue
            n_p, m_q = int(col_sizes[p]), int(row_sizes[q])
            rng = _generator(streams[q * spec.L_c + p])
            if kind is Ensemble.ROW_ORTHOGONAL:
                if m_q > n_p:
                    raise ValueError(
                        f"block ({q}, {p}): cannot select {m_q} distinct DFT rows "
                        f"from an {n_p}-point transform")
                rows = rng.choice(n_p, size=m_q, replace=False)
                perm = rng.permutation(n_p)
                # realized block fraction n_p / N keeps the entry variance at
                # exactly J / N despite integer block sizing
                scale = float(np.sqrt(spec.J[q, p] * n_p / N))
                blocks[(q, p)] = _dft_block(n_p, rows, perm, scale)
            else:
                std = np.sqrt(spec.J[q, p] / N / 2.0)
                mat = std * (rng.standard_normal((m_q, n_p))
                             + 1j * rng.standard_normal((m_q, n_p)))
                blocks[(q, p)] = GaussianBlock(matrix=mat)
    return CoupledOperator(spec=spec, N=int(col_sizes.sum()), M=int(row_sizes.sum()),
                           kind=kind, blocks=blocks,
                           col_offsets=np.concatenate([[0], np.cumsum(col_sizes)]),
                           row_offsets=np.concatenate([[0], np.cumsum(row_sizes)]))


def _factor(n: int) -> dict:
    """{prime: prime power} of n's factorization."""
    powers, m, d = {}, n, 2
    while d * d <= m:
        while m % d == 0:
            powers[d] = powers.get(d, 1) * d
            m //= d
        d += 1
    if m > 1:
        powers[m] = m
    return powers


@functools.lru_cache(maxsize=None)
def _layout(n: int):
    """(shape, time_pos, freq_pos, kernel) of the n-point DFT's transform.

    With n = n1 * n2 and gcd(n1, n2) = 1, Good's map puts time index i at
    (i1, i2) with i = (i1 n2 + i2 n1) mod n and the CRT map puts frequency
    index k at (k mod n1, k mod n2).  Then i k = i1 k1 n2 + i2 k2 n1 mod n,
    so the n-point DFT is the n1 x n2 two-axis DFT, with no twiddle factors;
    time_pos and freq_pos hold the flat positions of each index.  The kernel
    is symmetric in i and k, so the inverse DFT reads the same maps with the
    roles of input and output swapped.  n2 = p^a is the largest prime-power
    factor of n; when p <= _SPLIT_PRIME, or n is a prime power that Rader's
    stage does not take, the shape is (n,) and the other three are None.

    Rader's stage (C. M. Rader, Proc. IEEE 56, 1968) takes an n2 = p axis
    whose p - 1 has no prime factor above _RADER_FACTOR (n1 > 1, the sizes
    where it beat pocketfft in BENCH_15.json), and a whole prime n = p >=
    _PRIME_RADER_SIZE, shape (1, p), whose p - 1 has no prime factor f with
    f^2 > p - 1 (BENCH_35.json).  With g a primitive root mod p, the p axis
    holds index 0 at position 0, time index g^q at 1 + q and frequency index
    g^-m at 1 + m, so X[g^-m] = x[0] + sum_q x[g^q] w^(g^(q - m)),
    w = e^(-2 pi i / p), is a cyclic convolution of length p - 1 with
    b_j = w^(g^-j), and kernel = FFT(b) / (p - 1).  The inverse DFT's kernel
    b_j* read backwards has the FFT conj(kernel).  `_transform` says how a
    block laid out in this shape is transformed.
    """
    p, n2 = max(_factor(n).items(), key=lambda item: item[1], default=(1, n))
    n1 = n // n2
    top = max(_factor(p - 1), default=1)  # the largest prime factor of p - 1
    rader = n2 == p and (top <= _RADER_FACTOR if n1 > 1
                         else p >= _PRIME_RADER_SIZE and top * top < p)
    if p <= _SPLIT_PRIME or (n1 == 1 and not rader):
        return (n,), None, None, None
    # positions along the n2 axis of its time and frequency indices
    axis_in = axis_out = np.arange(n2)
    kernel = None
    if rader:
        g = next(g for g in range(2, p)
                 if all(pow(g, (p - 1) // f, p) != 1 for f in _factor(p - 1)))
        g_pow = np.empty(p - 1, dtype=np.intp)  # g^q mod p
        g_pow[0] = 1
        for q in range(1, p - 1):
            g_pow[q] = g_pow[q - 1] * g % p
        g_inv = g_pow[-np.arange(p - 1)]  # g^-m mod p
        axis_in, axis_out = np.zeros(p, dtype=np.intp), np.zeros(p, dtype=np.intp)
        axis_in[g_pow] = axis_out[g_inv] = np.arange(1, p)
        kernel = np.fft.fft(np.exp(-2j * np.pi * g_inv / p)) / (p - 1)
    i1, i2 = np.divmod(np.arange(n), n2)
    time_pos = np.empty(n, dtype=np.intp)
    time_pos[(i1 * n2 + i2 * n1) % n] = i1 * n2 + axis_in[i2]
    k = np.arange(n)
    return (n1, n2), time_pos, (k % n1) * n2 + axis_out[k % n2], kernel


def _dft_block(n: int, rows: np.ndarray, perm: np.ndarray, scale: float) -> DftBlock:
    """The drawn rows and column permutation composed with `_layout(n)`'s positions."""
    _, time_pos, freq_pos, kernel = _layout(n)
    if time_pos is not None:
        perm, rows = time_pos[perm], freq_pos[rows]
    time_map = perm.astype(np.int32)
    time_inv = np.empty(n, dtype=np.int32)
    time_inv[time_map] = np.arange(n, dtype=np.int32)
    # Rader's stage leaves its transform unnormalized: the unitary norm goes into the gain
    gain = scale * (1.0 / np.sqrt(n)) if kernel is not None else scale
    return DftBlock(n=n, m=len(rows), scale=scale, gain=gain, time_map=time_map,
                    time_inv=time_inv, freq_map=rows.astype(np.int32))


def _drawn(flat: np.ndarray, pos) -> np.ndarray:
    """The DFT indices that a layout's positions pos (None: the identity) put at flat."""
    # argsort inverts the permutation pos
    return flat.astype(np.intp) if pos is None else np.argsort(pos)[flat]


def _transform(w: np.ndarray, kernel, adjoint: bool) -> np.ndarray:
    """The DFT of a block laid out as w, the inverse DFT when adjoint.

    Without a Rader kernel one unitary fftn / ifftn call over every axis.
    With one, w is transformed in place and unnormalized (the block's gain
    holds the norm 1 / sqrt(n)): an FFT along the n1 axis unless n1 = 1,
    then Rader's stage on the last axis: position 0 takes the axis sum,
    positions 1.. take x[0] plus the cyclic convolution of positions 1..
    with the kernel's inverse FFT, one FFT pair of length p - 1.
    """
    if kernel is None:
        return (np.fft.ifftn if adjoint else np.fft.fftn)(w, norm="ortho")
    if w.shape[0] > 1:  # a whole prime's length-1 axis needs no FFT
        if adjoint:
            np.fft.ifft(w, axis=0, norm="forward", out=w)
        else:
            np.fft.fft(w, axis=0, out=w)
    spec = np.fft.fft(w[:, 1:], axis=-1)
    total = spec[:, 0] + w[:, 0]
    spec *= kernel.conj() if adjoint else kernel
    # x[0] added to the zero-frequency bin reaches every output of the inverse
    spec[:, 0] += w[:, 0]
    np.fft.ifft(spec, axis=-1, norm="forward", out=w[:, 1:])
    w[:, 0] = total
    return w


def _accumulate(op: CoupledOperator, v: np.ndarray, out: np.ndarray,
                adjoint: bool) -> np.ndarray:
    """out += A v (A^H v when adjoint), adding the blocks into out in (q, p) order."""
    for (q, p), block in op.blocks.items():
        rows = slice(op.row_offsets[q], op.row_offsets[q + 1])
        cols = slice(op.col_offsets[p], op.col_offsets[p + 1])
        src, dst = (rows, cols) if adjoint else (cols, rows)
        if isinstance(block, GaussianBlock):
            # conj(v^H M) is M^H v without materializing the conjugate transpose
            out[dst] += (v[src].conj() @ block.matrix).conj() if adjoint else block.matrix @ v[src]
            continue
        # lay the input out on the stack, transform, and read the outputs at
        # their positions; the forward input fills every position, so it is a gather
        shape, _, _, kernel = _layout(block.n)
        if adjoint:
            w = np.zeros(shape, dtype=complex)
            w.put(block.freq_map, v[src])
            gather = block.time_map
        else:
            w = v[src].take(block.time_inv).reshape(shape)
            gather = block.freq_map
        out[dst] += block.gain * _transform(w, kernel, adjoint).take(gather)
    return out


def apply(op: CoupledOperator, x) -> np.ndarray:
    """y = A x, one transform per DFT block and a dense product per Gaussian block.

    Block outputs are added into y in (q, p) order.
    """
    x = np.asarray(x, dtype=complex)
    if x.shape != (op.N,):
        raise ValueError(f"x must have shape ({op.N},)")
    return _accumulate(op, x, np.zeros(op.M, dtype=complex), adjoint=False)


def adjoint_apply(op: CoupledOperator, y) -> np.ndarray:
    """x = A^H y, the exact conjugate-transpose action, block by block as in `apply`."""
    y = np.asarray(y, dtype=complex)
    if y.shape != (op.M,):
        raise ValueError(f"y must have shape ({op.M},)")
    return _accumulate(op, y, np.zeros(op.N, dtype=complex), adjoint=True)


def gen_instance(op: CoupledOperator, prior: BernoulliGaussianPrior,
                 sigma: float, seed: int) -> SyntheticInstance:
    """Draw x from the prior and measure it: y = A x + sigma z."""
    if not (np.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma!r}")
    seed = _whole_number("seed", seed, 0)
    root = np.random.SeedSequence(seed)
    sig_seq, noise_seq = root.spawn(2)
    x = _sample_prior(_generator(sig_seq), op.N, prior)
    y = apply(op, x)
    if sigma > 0:
        rng = _generator(noise_seq)
        y = y + sigma * (rng.standard_normal(op.M)
                         + 1j * rng.standard_normal(op.M)) / np.sqrt(2)
    return SyntheticInstance(x=x, y=y, sigma=float(sigma), seed=seed)


def block_variance_report(op: CoupledOperator) -> dict:
    """Per-block empirical entry variance against the nominal J[q,p] / N.

    DFT blocks have constant entry modulus, so their ratio is exact by
    construction; Gaussian blocks report the sample variance of the
    stored matrix.
    """
    report = {}
    for (q, p), block in op.blocks.items():
        nominal = op.spec.J[q, p] / op.N
        if isinstance(block, DftBlock):
            # constant-modulus rows: the per-entry variance is pinned to
            # scale^2 / n = J/N by construction, with no sampling error
            empirical = nominal
        else:
            empirical = float(np.mean(np.abs(block.matrix) ** 2))
        report[f"{q},{p}"] = {"nominal": nominal, "empirical": empirical,
                              "ratio": empirical / nominal}
    return report
