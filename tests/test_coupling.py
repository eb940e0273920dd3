"""Seeding-spec construction and JSON round-trip."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupledcs import SeedingParams, build_seeding_spec, spec_from_json, spec_to_json

from conftest import BAD_SIZES, random_coupled_spec


def test_degenerate_single_block():
    spec = build_seeding_spec(SeedingParams(L=1, W=1, alpha_seed=0.6, alpha_bulk=0.5, J=0.7), 0.4, 1e-4)
    assert spec.L_r == spec.L_c == 1
    assert spec.alpha[0, 0] == 0.6
    assert np.array_equal(spec.J, [[1.0]])


def test_band_plus_upper_diagonal_pattern():
    # unit diagonal, W sub-diagonals, single upper diagonal at J (per-block units)
    L, W = 8, 2
    spec = build_seeding_spec(SeedingParams(L=L, W=W, alpha_seed=0.7, alpha_bulk=0.5, J=0.3), 0.4, 1e-4)
    for q in range(L):
        for p in range(L):
            if 0 <= q - p <= W:
                assert spec.J[q, p] == pytest.approx(1.0 * L)
            elif p == q + 1:
                assert spec.J[q, p] == pytest.approx(0.3 * L)
            else:
                assert spec.J[q, p] == 0.0


def test_overall_rate_seeding_example():
    spec = build_seeding_spec(SeedingParams(L=10, W=2, alpha_seed=0.70, alpha_bulk=0.49, J=0.5), 0.4, 1e-6)
    assert spec.total_rate == pytest.approx(0.511, abs=1e-15)


def test_overall_rate_approaches_bulk():
    rates = [build_seeding_spec(
        SeedingParams(L=L, W=2, alpha_seed=0.70, alpha_bulk=0.49, J=0.5), 0.4, 1e-6).total_rate
        for L in (4, 8, 16, 32, 64)]
    assert all(a > b for a, b in zip(rates, rates[1:]))
    assert rates[-1] == pytest.approx(0.49, abs=0.004)


def test_connectivity_of_built_specs():
    spec = build_seeding_spec(SeedingParams(L=12, W=3, alpha_seed=0.7, alpha_bulk=0.45, J=0.2), 0.4, 1e-4)
    assert np.all((spec.J > 0).sum(axis=0) >= 1)
    assert np.all((spec.J > 0).sum(axis=1) >= 1)


def test_param_validation():
    with pytest.raises(ValueError):
        SeedingParams(L=0, W=1, alpha_seed=0.7, alpha_bulk=0.5, J=0.5)
    with pytest.raises(ValueError):
        SeedingParams(L=4, W=5, alpha_seed=0.7, alpha_bulk=0.5, J=0.5)
    with pytest.raises(ValueError):
        SeedingParams(L=4, W=2, alpha_seed=0.0, alpha_bulk=0.5, J=0.5)
    with pytest.raises(ValueError):
        SeedingParams(L=4, W=2, alpha_seed=0.7, alpha_bulk=0.5, J=-0.1)


def test_whole_float_sizes_build_the_int_spec():
    params = SeedingParams(L=10.0, W=2.0, alpha_seed=0.7, alpha_bulk=0.5, J=0.5)
    assert (type(params.L), type(params.W)) == (int, int)
    got = build_seeding_spec(params, 0.4, 1e-4)
    want = build_seeding_spec(SeedingParams(L=10, W=2, alpha_seed=0.7, alpha_bulk=0.5, J=0.5),
                              0.4, 1e-4)
    for field in ("gamma", "alpha", "J"):
        assert np.array_equal(getattr(got, field), getattr(want, field))


@pytest.mark.parametrize("sizes", [{"L": 2.5}, {"L": True}, {"L": np.inf}, {"L": np.nan},
                                   {"L": None}, {"W": 1.5}, {"W": False}])
def test_sizes_must_be_whole_numbers(sizes):
    with pytest.raises(ValueError, match="whole number"):
        SeedingParams(**{"L": 4, "W": 2, **sizes}, alpha_seed=0.7, alpha_bulk=0.5, J=0.5)


@settings(deadline=None, max_examples=50)
@given(L=st.integers(1, 24), W=st.integers(1, 6),
       a_seed=st.floats(0.05, 0.95), a_bulk=st.floats(0.05, 0.95),
       J=st.floats(0.0, 4.0), rho=st.floats(0.05, 0.95))
def test_random_params_build_valid_specs(L, W, a_seed, a_bulk, J, rho):
    W = min(W, L)
    spec = build_seeding_spec(SeedingParams(L=L, W=W, alpha_seed=a_seed, alpha_bulk=a_bulk, J=J),
                              rho, 1e-4)
    expected = (a_seed + (L - 1) * a_bulk) / L
    assert spec.total_rate == pytest.approx(expected, abs=1e-13)


def test_json_round_trip():
    spec = build_seeding_spec(SeedingParams(L=5, W=2, alpha_seed=0.7, alpha_bulk=0.48, J=1.5), 0.4, 1e-6)
    back = spec_from_json(spec_to_json(spec))
    assert back.L_r == spec.L_r and back.L_c == spec.L_c
    assert np.array_equal(back.gamma, spec.gamma)
    assert np.array_equal(back.alpha, spec.alpha)
    assert np.array_equal(back.J, spec.J)
    assert back.sigma2 == spec.sigma2
    assert back.prior.rho == spec.prior.rho


def test_json_round_trip_of_random_specs():
    # random block grids, most of them not square; the text is the spec's fixed point
    specs = [random_coupled_spec(np.random.default_rng(seed), max_blocks=6) for seed in range(30)]
    assert sum(spec.L_r != spec.L_c for spec in specs) >= 15
    for seed, spec in enumerate(specs):
        text = spec_to_json(spec)
        back = spec_from_json(text)
        assert spec_to_json(back) == text, seed
        assert (back.L_r, back.L_c) == (spec.L_r, spec.L_c), seed
        for name in ("gamma", "alpha", "J"):
            assert np.array_equal(getattr(back, name), getattr(spec, name)), (seed, name)
        assert back.sigma2 == spec.sigma2 and back.prior.rho == spec.prior.rho, seed


@pytest.mark.parametrize("override", BAD_SIZES.values(), ids=BAD_SIZES.keys())
def test_json_rejects_sizes_that_are_not_alphas_shape(override):
    import json
    spec = build_seeding_spec(SeedingParams(L=2, W=1, alpha_seed=0.7, alpha_bulk=0.5, J=0.5), 0.4, 1e-4)
    with pytest.raises(ValueError):
        spec_from_json(json.dumps({**json.loads(spec_to_json(spec)), **override}))


def test_json_rejects_bad_documents():
    spec = build_seeding_spec(SeedingParams(L=2, W=1, alpha_seed=0.7, alpha_bulk=0.5, J=0.5), 0.4, 1e-4)
    import json
    doc = json.loads(spec_to_json(spec))
    doc["gamma"] = [0.6, 0.6]
    with pytest.raises(ValueError, match="gamma"):
        spec_from_json(json.dumps(doc))
    doc2 = json.loads(spec_to_json(spec))
    doc2["schema"] = "other"
    with pytest.raises(ValueError, match="schema"):
        spec_from_json(json.dumps(doc2))
    doc3 = json.loads(spec_to_json(spec))
    del doc3["sigma2"]
    with pytest.raises(ValueError, match="sigma2"):
        spec_from_json(json.dumps(doc3))


@pytest.mark.parametrize("field, literal", [("sigma2", "NaN"), ("alpha", "[[NaN, NaN], [0.5, 0.5]]"),
                                            ("J", "[[Infinity, 0.5], [1.0, 1.0]]"),
                                            ("gamma", "[NaN, 0.5]")])
def test_json_rejects_non_finite_values(field, literal):
    import json
    spec = build_seeding_spec(SeedingParams(L=2, W=1, alpha_seed=0.7, alpha_bulk=0.5, J=0.5), 0.4, 1e-4)
    doc = json.loads(spec_to_json(spec))
    doc[field] = "PLACEHOLDER"
    text = json.dumps(doc).replace('"PLACEHOLDER"', literal)
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        spec_from_json(text)
