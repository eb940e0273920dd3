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
layout of `_layout`, whose index maps are composed with each block's row
selection and column permutation; every other N_p keeps the 1-D
transform and its bytes.  When a = 1 and p - 1 has no prime factor above
_RADER_FACTOR, the p axis is transformed by Rader's algorithm: reordered
by powers of a primitive root, the p-point DFT is a cyclic convolution of
length p - 1, one FFT pair with a cached kernel (BENCH_15.json).  Split
and Rader sizes change outputs by rounding only.

All randomness flows from one counter-based Philox generator: the
instance seed feeds a SeedSequence whose spawned children are assigned,
in row-major block order, one stream per block (plus dedicated streams
for the signal and the noise), so draws are reproducible across
platforms and independent of block evaluation order.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .replica_core import CouplingSpec, Ensemble
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
# 1.4-1.5x; 3284 = 4 * 821 (820 = 2^2 * 5 * 41) read 0.78x.  Whole prime
# blocks keep the 1-D call: the table times only nine of them.  Re-timed
# one block at a time (numpy 2.4.6), the 13107 = 51 x 257 layout with
# Rader's stage took 0.29-0.46 ms with its scatter against 2.2-2.4 ms for
# the 1-D transform; no other size was re-timed.
_RADER_FACTOR = 31


def _generator(seed_seq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed_seq))


@dataclass
class DftBlock:
    """Subsampled, column-permuted unitary DFT block with constant entry modulus."""

    n: int
    m: int
    row_selection: np.ndarray
    col_permutation: np.ndarray
    scale: float


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
                blocks[(q, p)] = DftBlock(n=n_p, m=m_q, row_selection=rows,
                                          col_permutation=perm, scale=scale)
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
    factor of n; when p <= _SPLIT_PRIME or n is a prime power the shape is
    (n,) and the other three are None.

    Rader's stage (C. M. Rader, Proc. IEEE 56, 1968) takes an n2 = p axis
    whose p - 1 has no prime factor above _RADER_FACTOR, the sizes where it
    beat pocketfft in BENCH_15.json.  With g a primitive root mod p, the p
    axis holds index 0 at position 0, time index g^q at 1 + q and frequency
    index g^-m at 1 + m, so X[g^-m] = x[0] + sum_q x[g^q] w^(g^(q - m)),
    w = e^(-2 pi i / p), is a cyclic convolution of length p - 1 with
    b_j = w^(g^-j), and kernel = FFT(b) / (p - 1).  The inverse DFT's kernel
    b_j* read backwards has the FFT conj(kernel).  `_transform` says how a
    block laid out in this shape is transformed.
    """
    p, n2 = max(_factor(n).items(), key=lambda item: item[1], default=(1, n))
    if p <= _SPLIT_PRIME or n2 == n:
        return (n,), None, None, None
    n1 = n // n2
    # positions along the n2 axis of its time and frequency indices
    axis_in = axis_out = np.arange(n2)
    kernel = None
    if n2 == p and max(_factor(p - 1)) <= _RADER_FACTOR:
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


def _transform(w: np.ndarray, kernel, adjoint: bool):
    """(w', norm): the DFT of a block laid out as w is norm * w'.

    The inverse DFT when adjoint, both unitary.  Without a Rader kernel one
    fftn / ifftn call over every axis (norm 1).  With one, w is transformed
    in place, unnormalized (norm 1 / sqrt(n)): an FFT along the n1 axis,
    then Rader's stage on the last axis: position 0 takes the axis sum,
    positions 1.. take x[0] plus the cyclic convolution of positions 1..
    with the kernel's inverse FFT, one FFT pair of length p - 1.
    """
    if kernel is None:
        return (np.fft.ifftn if adjoint else np.fft.fftn)(w, norm="ortho"), 1.0
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
    return w, 1.0 / np.sqrt(w.size)


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
        # scatter the input through the layout's positions, transform, then
        # gather the outputs with the transform's norm folded into the block scale
        shape, time_pos, freq_pos, kernel = _layout(block.n)
        time_idx, freq_idx = block.col_permutation, block.row_selection
        if time_pos is not None:
            time_idx, freq_idx = time_pos[time_idx], freq_pos[freq_idx]
        scatter, gather = (freq_idx, time_idx) if adjoint else (time_idx, freq_idx)
        w = np.zeros(shape, dtype=complex)
        w.reshape(-1)[scatter] = v[src]
        w, norm = _transform(w, kernel, adjoint)
        out[dst] += block.scale * norm * w.reshape(-1)[gather]
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
