"""Coupled measurement operators against dense oracles and sample statistics."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupledcs import (BernoulliGaussianPrior, Ensemble, SeedingParams, adjoint_apply, apply,
                       build_coupled_operator, build_seeding_spec, gen_instance,
                       single_block_spec)
from coupledcs import measurement_ops
from coupledcs.cli import export_instance
from coupledcs.measurement_ops import DftBlock, _generator
from coupledcs.scalar_channel import _sample_prior

from conftest import dense_from_blocks, dense_materialize, random_coupled_spec

ORTH = Ensemble.ROW_ORTHOGONAL
GAUSS = Ensemble.GAUSSIAN_IID


def read_complex_csv(path) -> np.ndarray:
    """The complex entries of a (re, im) CSV that `write_complex_csv` wrote."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0] + 1j * data[:, 1]


def dft_oracle(op, v, adjoint):
    """A v (A^H v when adjoint) block by block, added into the output in (q, p) order.

    A DFT block is the 1-D unitary DFT of its input scattered by the column
    permutation, read at the selected rows (the adjoint: the inverse DFT of
    the input scattered by the row selection, read at the permutation), with
    no transform layout.  The Gaussian adjoint multiplies by the materialized
    conjugate transpose: conj(y^H M) runs the same BLAS kernel on conjugated
    inputs, and negating imaginary parts commutes with every rounding, so the
    bytes agree.
    """
    out = np.zeros(op.N if adjoint else op.M, dtype=complex)
    for (q, p), block in op.blocks.items():
        rows = slice(op.row_offsets[q], op.row_offsets[q + 1])
        cols = slice(op.col_offsets[p], op.col_offsets[p + 1])
        if isinstance(block, DftBlock):
            w = np.zeros(block.n, dtype=complex)
            if adjoint:
                w[block.row_selection] = v[rows]
                out[cols] += block.scale * np.fft.ifft(w, norm="ortho")[block.col_permutation]
            else:
                w[block.col_permutation] = v[cols]
                out[rows] += block.scale * np.fft.fft(w, norm="ortho")[block.row_selection]
        elif adjoint:
            out[cols] += block.matrix.conj().T @ v[rows]
        else:
            out[rows] += block.matrix @ v[cols]
    return out


def assert_matches_dft_oracle(op, v, adjoint):
    """Each output block row (column, when adjoint) against `dft_oracle`.

    The bytes where every block it sums keeps the 1-D transform; within
    1e-13 of its largest entry where one takes the two-axis layout or is a
    whole prime transformed by Rader's stage.
    """
    got = (adjoint_apply if adjoint else apply)(op, v)
    ref = dft_oracle(op, v, adjoint)
    offsets = op.col_offsets if adjoint else op.row_offsets
    for k in range(len(offsets) - 1):
        seg = slice(offsets[k], offsets[k + 1])
        if any(isinstance(b, DftBlock) and measurement_ops._layout(b.n)[1] is not None
               for key, b in op.blocks.items() if key[1 if adjoint else 0] == k):
            assert np.abs(got[seg] - ref[seg]).max() <= 1e-13 * np.abs(ref[seg]).max()
        else:
            assert np.array_equal(got[seg], ref[seg])


def equal_width_spec(spec):
    """The same rows, J and prior on equal column fractions, so DFT blocks share a size."""
    gamma = np.full(spec.L_c, 1.0 / spec.L_c)
    row_rates = spec.alpha[:, 0] * spec.gamma[0]
    return dataclasses.replace(spec, gamma=gamma, alpha=row_rates[:, None] / gamma[None, :])


class TestSampleSignal:
    def test_zero_density(self):
        x = _sample_prior(_generator(np.random.SeedSequence(0)), 100, BernoulliGaussianPrior(0.0))
        assert np.all(x == 0)

    def test_unit_density_second_moment(self):
        x = _sample_prior(_generator(np.random.SeedSequence(1)), 10 ** 5,
                          BernoulliGaussianPrior(1.0))
        power = np.abs(x) ** 2
        assert abs(power.mean() - 1.0) <= 3 * power.std() / np.sqrt(x.size)

    def test_nonzero_fraction_concentrates(self):
        n, rho = 10 ** 5, 0.4
        x = _sample_prior(_generator(np.random.SeedSequence(2)), n, BernoulliGaussianPrior(rho))
        frac = np.count_nonzero(x) / n
        assert abs(frac - rho) <= 3 * np.sqrt(rho * (1 - rho) / n)

    def test_deterministic(self):
        a = _sample_prior(_generator(np.random.SeedSequence(3)), 1000, BernoulliGaussianPrior(0.4))
        b = _sample_prior(_generator(np.random.SeedSequence(3)), 1000, BernoulliGaussianPrior(0.4))
        assert np.array_equal(a, b)


class TestOperatorConstruction:
    def test_full_dft_block_is_unitary(self):
        spec = single_block_spec(0.4, 1e-4, 1.0)
        op = build_coupled_operator(spec, 64, seed=0, kind=ORTH)
        A = dense_materialize(op)
        assert np.abs(A.conj().T @ A - np.eye(64)).max() <= 1e-12

    def test_dft_entry_modulus_exact(self, rng):
        spec = random_coupled_spec(rng)
        op = build_coupled_operator(spec, 256, seed=1, kind=ORTH)
        A = dense_from_blocks(op)
        for (q, p), block in op.blocks.items():
            sub = A[op.row_offsets[q]:op.row_offsets[q + 1],
                    op.col_offsets[p]:op.col_offsets[p + 1]]
            if isinstance(block, DftBlock):
                expected = spec.J[q, p] / op.N
                assert np.abs(np.abs(sub) ** 2 - expected).max() <= 1e-15 * max(1, expected)

    def test_selected_rows_orthogonal(self):
        spec = single_block_spec(0.4, 1e-4, 0.5)
        op = build_coupled_operator(spec, 512, seed=2, kind=ORTH)
        A = dense_from_blocks(op)
        G = A @ A.conj().T
        off = G - np.diag(np.diag(G))
        assert np.abs(off).max() <= 1e-12

    def test_gaussian_block_variance(self):
        spec = single_block_spec(0.4, 1e-4, 0.5)
        op = build_coupled_operator(spec, 2 ** 12, seed=3, kind=GAUSS)
        block = op.blocks[(0, 0)]
        var = np.mean(np.abs(block.matrix) ** 2)
        assert abs(var / (1.0 / 2 ** 12) - 1.0) <= 0.05

    def test_rejects_oversampled_dft_block(self):
        spec = single_block_spec(0.4, 1e-4, 1.0)
        # alpha = 1 with remainder rounding can be fine; force M > N via tiny N
        bad = single_block_spec(0.4, 1e-4, 1.2)
        with pytest.raises(ValueError, match="distinct DFT rows"):
            build_coupled_operator(bad, 64, seed=0, kind=ORTH)
        build_coupled_operator(spec, 64, seed=0, kind=ORTH)

    def test_seeded_reproducibility(self, rng):
        spec = random_coupled_spec(rng)
        a = build_coupled_operator(spec, 128, seed=9, kind=ORTH)
        b = build_coupled_operator(spec, 128, seed=9, kind=ORTH)
        for key in a.blocks:
            assert np.array_equal(a.blocks[key].row_selection, b.blocks[key].row_selection)
            assert np.array_equal(a.blocks[key].col_permutation, b.blocks[key].col_permutation)

    @pytest.mark.parametrize("n", [64, 1174, 13107, 13109])
    def test_composed_maps_give_back_the_draws(self, n):
        # the draws of `build_coupled_operator`, repeated from the block's own stream, against
        # the maps a DftBlock keeps composed with the layout: 1-D, two-axis, two-axis with
        # Rader's stage and a whole prime by Rader
        op = build_coupled_operator(single_block_spec(0.4, 1e-4, 0.5), n, seed=n, kind=ORTH)
        block = op.blocks[(0, 0)]
        rng = _generator(np.random.SeedSequence(n).spawn(1)[0])
        rows = rng.choice(n, size=block.m, replace=False)
        perm = rng.permutation(n)
        for got, drawn in ((block.row_selection, rows), (block.col_permutation, perm)):
            assert got.dtype == drawn.dtype and got.tobytes() == drawn.tobytes()

    @pytest.mark.parametrize("n", [64, 1174, 13107, 13109])
    def test_index_bytes_stay_within_the_draws(self, n):
        # the composed maps may take no more memory than the drawn rows and permutation,
        # (n + m) intp entries
        op = build_coupled_operator(single_block_spec(0.4, 1e-4, 0.5), n, seed=0, kind=ORTH)
        block = op.blocks[(0, 0)]
        index_bytes = sum(a.nbytes for a in vars(block).values() if isinstance(a, np.ndarray))
        assert index_bytes <= (block.n + block.m) * 8

    @pytest.mark.parametrize("N, seed, name", [(64.5, 0, "N"), (0, 0, "N"), (64, None, "seed"),
                                               (64, -1, "seed"), (64, 2.5, "seed")])
    def test_size_and_seed_must_be_whole_numbers(self, N, seed, name, monkeypatch):
        # 64.5 built a 64-column operator and None drew from fresh OS entropy; both fail
        # now before any draw (a draw fails the test)
        spec = single_block_spec(0.4, 1e-4, 0.5)
        monkeypatch.setattr(measurement_ops, "_generator", lambda seq: pytest.fail("drew"))
        with pytest.raises(ValueError, match=f"{name} must be a whole number >= "):
            build_coupled_operator(spec, N, seed=seed, kind=ORTH)

    def test_numpy_integers_build_the_same_operator(self, rng):
        spec = random_coupled_spec(rng)
        a = build_coupled_operator(spec, 128, seed=9, kind=ORTH)
        b = build_coupled_operator(spec, np.int64(128), seed=np.uint8(9), kind=ORTH)
        assert b.N == 128 and type(b.N) is int
        for key in a.blocks:
            assert np.array_equal(a.blocks[key].row_selection, b.blocks[key].row_selection)
            assert np.array_equal(a.blocks[key].col_permutation, b.blocks[key].col_permutation)


class TestApply:
    def test_zero_input(self, rng):
        op = build_coupled_operator(random_coupled_spec(rng), 128, seed=0, kind=ORTH)
        assert np.all(apply(op, np.zeros(op.N)) == 0)
        assert np.all(adjoint_apply(op, np.zeros(op.M)) == 0)

    def test_matches_dense_oracle(self, rng):
        # N = 309 = 3 * 103 is one block in the two-axis layout
        assert measurement_ops._layout(309)[0] == (3, 103)
        for kind, spec, N in ((ORTH, random_coupled_spec(rng), 256),
                              (GAUSS, random_coupled_spec(rng), 256),
                              (ORTH, single_block_spec(0.4, 1e-4, 0.5), 309)):
            op = build_coupled_operator(spec, N, seed=4, kind=kind)
            A = dense_from_blocks(op)
            x = rng.standard_normal(op.N) + 1j * rng.standard_normal(op.N)
            y = rng.standard_normal(op.M) + 1j * rng.standard_normal(op.M)
            assert np.abs(apply(op, x) - A @ x).max() <= 1e-10
            assert np.abs(adjoint_apply(op, y) - A.conj().T @ y).max() <= 1e-10

    def test_linearity(self, rng):
        op = build_coupled_operator(random_coupled_spec(rng), 128, seed=5, kind=ORTH)
        x1 = rng.standard_normal(op.N) + 1j * rng.standard_normal(op.N)
        x2 = rng.standard_normal(op.N) + 1j * rng.standard_normal(op.N)
        a, b = 1.3 - 0.2j, -0.7 + 2j
        lhs = apply(op, a * x1 + b * x2)
        rhs = a * apply(op, x1) + b * apply(op, x2)
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1, np.abs(rhs).max())

    @settings(deadline=None, max_examples=10)
    @given(seed=st.integers(0, 10 ** 6), width=st.sampled_from([None, 202, 1373, 1213]))
    def test_adjoint_identity(self, seed, width):
        # N = 96 never splits; equal-width blocks of 202 = 2 * 101 points take
        # the two-axis layout with Rader's stage on the 101 axis, the whole prime
        # 1373 takes Rader's stage, the whole prime 1213 the 1-D transform
        rng = np.random.default_rng(seed)
        spec = random_coupled_spec(rng)
        if width:
            spec = equal_width_spec(spec)
            assert (measurement_ops._layout(width)[3] is not None) is (width != 1213)
        op = build_coupled_operator(spec, width * spec.L_c if width else 96, seed=seed, kind=ORTH)
        x = rng.standard_normal(op.N) + 1j * rng.standard_normal(op.N)
        y = rng.standard_normal(op.M) + 1j * rng.standard_normal(op.M)
        lhs = np.vdot(y, apply(op, x))
        rhs = np.vdot(adjoint_apply(op, y), x)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_energy_bound_orthogonal(self, rng):
        for _ in range(5):
            spec = random_coupled_spec(rng)
            op = build_coupled_operator(spec, 200, seed=6, kind=ORTH)
            x = rng.standard_normal(op.N) + 1j * rng.standard_normal(op.N)
            bound = np.sqrt(spec.J.max(axis=1).sum()) * np.linalg.norm(x)
            assert np.linalg.norm(apply(op, x)) <= bound + 1e-10

    def test_dimension_mismatch(self, rng):
        op = build_coupled_operator(random_coupled_spec(rng), 64, seed=7, kind=ORTH)
        with pytest.raises(ValueError):
            apply(op, np.zeros(op.N + 1))
        with pytest.raises(ValueError):
            adjoint_apply(op, np.zeros(op.M + 1))


class TestBlockTransforms:
    """Block-by-block application against 1-D DFTs and dense products."""

    @pytest.mark.parametrize("kind", [ORTH, GAUSS])
    def test_matches_dft_oracle(self, rng, kind):
        split, rader = set(), set()
        for trial in range(14):
            spec = random_coupled_spec(rng)
            if trial % 2 or trial >= 8:
                spec = equal_width_spec(spec)
            # 253 is a multiple of no L up to 4: the last column block is wider;
            # the last six trials have blocks of 202 = 2 * 101, 309 = 3 * 103
            # (two-axis layout, Rader's stage on the prime axis) or 1174 = 2 * 587
            # (two-axis layout only)
            N = 253 if trial < 8 else (202, 309, 1174)[trial % 3] * spec.L_c
            op = build_coupled_operator(spec, N, seed=trial, kind=kind)
            x = rng.standard_normal(op.N) + 1j * rng.standard_normal(op.N)
            y = rng.standard_normal(op.M) + 1j * rng.standard_normal(op.M)
            assert_matches_dft_oracle(op, x, adjoint=False)
            assert_matches_dft_oracle(op, y, adjoint=True)
            if kind is ORTH:
                split |= {b.n for b in op.blocks.values()
                          if measurement_ops._layout(b.n)[1] is not None}
                rader |= {b.n for b in op.blocks.values()
                          if measurement_ops._layout(b.n)[3] is not None}
        if kind is ORTH:
            assert split == {202, 309, 1174} and rader == {202, 309}

    @pytest.mark.parametrize("n, split", [
        (4369, True), (4854, True), (8738, True), (13107, True), (21845, True),
        (786, True), (1174, True), (13109, True), (1373, True),
        (5698, False), (10082, False), (1213, False), (13122, False), (16384, False)])
    def test_layout_matches_1d_transform(self, n, split):
        # a full-rate single block (scale 1) against the 1-D DFT of its own draws:
        # 17 * 257, 2 * 3 * 809, ... split on a prime above 100; 2 * 7 * 11 * 37,
        # 2 * 71^2, 2 * 3^8 and 2^14 keep the 1-D transform and its bytes.
        # Rader's stage takes a split prime axis above 100 whose p - 1 has no
        # prime factor above 31: 257 (256 = 2^8) and 131 (2 * 5 * 13) of
        # 2 * 3 * 131, not 587 (2 * 293) of 2 * 587 or 809 (2^3 * 101); and a
        # whole prime p >= 150 whose p - 1 has no prime factor q with q^2 > p - 1,
        # as a (1, p) layout: 13109 (4 * 29 * 113) and 1373 (4 * 7^3), not the
        # prime 1213 (4 * 3 * 101), which keeps the 1-D transform and its bytes
        op = build_coupled_operator(single_block_spec(0.4, 1e-4, 1.0), n, seed=n, kind=ORTH)
        block = op.blocks[(0, 0)]
        shape, time_pos, freq_pos, kernel = measurement_ops._layout(n)
        assert (time_pos is not None) is split
        assert (kernel is not None) is (n in (786, 4369, 8738, 13107, 21845, 13109, 1373))
        for pos in (time_pos, freq_pos):
            # each composed map sends range(n) onto the stack's n flat positions
            assert pos is None if not split else np.array_equal(np.sort(pos), np.arange(n))
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w = np.zeros(n, dtype=complex)
        w[block.col_permutation] = x
        ref_fwd = np.fft.fft(w, norm="ortho")[block.row_selection]
        w[:] = 0
        w[block.row_selection] = x
        ref_adj = np.fft.ifft(w, norm="ortho")[block.col_permutation]
        for got, ref in ((apply(op, x), ref_fwd), (adjoint_apply(op, x), ref_adj)):
            if split:
                assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
            else:
                assert np.array_equal(got, ref)

    def test_showcase_chain_matches_dft_oracle(self):
        # the N = 2^17 seeding chain: blocks of 13107 = 3 * 17 * 257 points
        # (two-axis layout, Rader's stage) and a last column of 13109 (a whole
        # prime by Rader's stage), both within 1e-13 of the oracle's largest entry
        params = SeedingParams(L=10, W=2, alpha_seed=0.70, alpha_bulk=0.49, J=0.5)
        op = build_coupled_operator(build_seeding_spec(params, 0.4, 1e-6), 2 ** 17,
                                    seed=0, kind=ORTH)
        assert {b.n for b in op.blocks.values()} == {13107, 13109}
        assert measurement_ops._layout(13107)[3] is not None
        assert measurement_ops._layout(13109)[0] == (1, 13109)
        assert measurement_ops._layout(13109)[3] is not None
        rng = np.random.default_rng(0)
        x = rng.standard_normal(op.N) + 1j * rng.standard_normal(op.N)
        assert_matches_dft_oracle(op, x, adjoint=False)
        assert_matches_dft_oracle(op, apply(op, x), adjoint=True)

    @pytest.mark.parametrize("n", [257, 409, 1373, 13109, 786, 4369, 13107])
    def test_rader_power_table(self, n):
        # whole primes 257, 409, 1373 and 13109, and the split prime axes 131 of 2 * 3 * 131
        # and 257 of 17 * 257 and 3 * 17 * 257: the p axis holds time index g^q at position
        # 1 + q, so the table read back from the layout's row i1 = 0, which holds time index
        # i2 n1 at its axis position, is the powers of g mod p (and g a primitive root)
        shape, time_pos, _, kernel = measurement_ops._layout(n)
        n1, p = shape
        assert kernel is not None
        table = np.argsort(time_pos[np.arange(p) * n1 % n])[1:]
        g = int(table[1])
        assert table.tolist() == [pow(g, q, p) for q in range(p - 1)]


class TestDenseMaterialize:
    @pytest.mark.parametrize("kind", [ORTH, GAUSS])
    def test_columns_are_basis_images(self, rng, kind):
        # Gaussian blocks are copied in, DFT blocks are applied to the basis
        op = build_coupled_operator(random_coupled_spec(rng), 64, seed=8, kind=kind)
        A = dense_materialize(op)
        e = np.zeros(op.N, dtype=complex)
        for k in (0, op.N // 2, op.N - 1):
            e[:] = 0
            e[k] = 1
            assert np.array_equal(A[:, k], apply(op, e))

    def test_size_guard(self, rng):
        spec = single_block_spec(0.4, 1e-4, 0.25)
        op = build_coupled_operator(spec, 8192, seed=0, kind=ORTH)
        with pytest.raises(ValueError, match="4096"):
            dense_materialize(op)


class TestInstances:
    def test_noiseless_instance(self, rng):
        op = build_coupled_operator(random_coupled_spec(rng), 128, seed=0, kind=ORTH)
        inst = gen_instance(op, BernoulliGaussianPrior(0.4), sigma=0.0, seed=5)
        assert np.array_equal(inst.y, apply(op, inst.x))

    def test_noise_second_moment(self):
        spec = single_block_spec(0.4, 1e-4, 1.0)
        op = build_coupled_operator(spec, 10 ** 4, seed=0, kind=ORTH)
        sigma = 0.3
        inst = gen_instance(op, BernoulliGaussianPrior(0.4), sigma=sigma, seed=6)
        resid = np.abs(inst.y - apply(op, inst.x)) ** 2
        assert abs(resid.mean() - sigma ** 2) <= 3 * resid.std() / np.sqrt(op.M)

    @pytest.mark.parametrize("sigma", [-0.1, np.nan, np.inf])
    def test_invalid_noise_level_is_rejected(self, rng, sigma):
        # NaN fails both sigma < 0 and sigma > 0, so a sign test alone passes it through
        op = build_coupled_operator(random_coupled_spec(rng), 64, seed=0, kind=ORTH)
        with pytest.raises(ValueError, match="sigma must be finite"):
            gen_instance(op, BernoulliGaussianPrior(0.4), sigma=sigma, seed=5)

    @pytest.mark.parametrize("seed", [None, -1, 2.5, 64.5])
    def test_seed_must_be_a_whole_number(self, rng, seed, monkeypatch):
        # None reached int(seed) only after x was drawn and measured
        op = build_coupled_operator(random_coupled_spec(rng), 64, seed=0, kind=ORTH)
        monkeypatch.setattr(measurement_ops, "_generator", lambda seq: pytest.fail("drew"))
        with pytest.raises(ValueError, match="seed must be a whole number >= 0"):
            gen_instance(op, BernoulliGaussianPrior(0.4), sigma=0.1, seed=seed)

    def test_numpy_integer_seed_draws_the_same_instance(self, rng):
        op = build_coupled_operator(random_coupled_spec(rng), 64, seed=0, kind=GAUSS)
        a = gen_instance(op, BernoulliGaussianPrior(0.4), sigma=0.1, seed=7)
        b = gen_instance(op, BernoulliGaussianPrior(0.4), sigma=0.1, seed=np.int64(7))
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y) and b.seed == 7

    def test_deterministic(self, rng):
        op = build_coupled_operator(random_coupled_spec(rng), 64, seed=0, kind=GAUSS)
        a = gen_instance(op, BernoulliGaussianPrior(0.4), sigma=0.1, seed=7)
        b = gen_instance(op, BernoulliGaussianPrior(0.4), sigma=0.1, seed=7)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_export_round_trip(self, rng, tmp_path):
        op = build_coupled_operator(random_coupled_spec(rng), 64, seed=0, kind=ORTH)
        inst = gen_instance(op, BernoulliGaussianPrior(0.4), sigma=0.05, seed=8)
        prefix = str(tmp_path / "inst")
        export_instance(op, inst, prefix)
        assert np.abs(read_complex_csv(f"{prefix}_x.csv") - inst.x).max() == 0.0
        assert np.abs(read_complex_csv(f"{prefix}_y.csv") - inst.y).max() == 0.0
        import json
        with open(f"{prefix}.json") as fh:
            header = json.load(fh)
        assert header["N"] == op.N and header["M"] == op.M
        assert header["sigma"] == 0.05 and header["seed"] == 8
