"""Seeding (spatially-coupled) system construction and JSON round-trip.

A seeding system chains L equally sized signal blocks.  Block row 1 is
the seed, measured at a higher rate alpha_seed; rows 2..L run at
alpha_bulk.  Row q couples to its own column, to W columns behind it
(the reconstruction wave's wake) at unit strength, and to the next
column ahead through a single upper-diagonal entry of strength J.

Block coupling strengths are expressed in per-block units: a strength of
1 means the block's entries carry variance 1/N_p, like an uncoupled
system's.  CouplingSpec.J is in global variance units (entry variance
J/N), so the constructor scales the pattern by L ( = 1/gamma_p).  Without
that scaling the per-measurement signal power of the chain would shrink
like 1/L and the reachable MSE floor would drift away from sigma2 as the
chain grows.
"""

import json
from dataclasses import dataclass
from functools import partial

import numpy as np

from .replica_core import CouplingSpec
from .scalar_channel import BernoulliGaussianPrior, _whole_number

SPEC_SCHEMA = "coupledcs-spec-v1"


@dataclass(frozen=True)
class SeedingParams:
    """Chain length L, coupling window W, seed/bulk rates, forward strength J.

    L and W are whole numbers (10.0 counts, bool does not), stored as int.
    """

    L: int
    W: int
    alpha_seed: float
    alpha_bulk: float
    J: float

    def __post_init__(self):
        for name in ("L", "W"):
            object.__setattr__(self, name, _whole_number(name, getattr(self, name), 1))
        if self.W > self.L:
            raise ValueError("W must satisfy 1 <= W <= L")
        if not self.alpha_seed > 0:
            raise ValueError("alpha_seed must be > 0")
        if not self.alpha_bulk > 0:
            raise ValueError("alpha_bulk must be > 0")
        if self.J < 0:
            raise ValueError("J must be >= 0")


def build_seeding_spec(params: SeedingParams, rho: float, sigma2: float) -> CouplingSpec:
    """CouplingSpec of the seeding chain (uniform gamma_p = 1/L).

    Band support: unit diagonal plus W sub-diagonals (0 <= q - p <= W),
    single upper diagonal at strength params.J.  The L = 1 chain
    degenerates to the uncoupled system with J = [[1]].
    """
    L = params.L
    gamma = np.full(L, 1.0 / L)
    J = np.zeros((L, L))
    for q in range(L):
        lo = max(0, q - params.W)
        J[q, lo:q + 1] = 1.0
        if q + 1 < L:
            J[q, q + 1] = params.J
    J *= L  # per-block strength -> global variance units
    alpha = np.empty((L, L))
    alpha[0, :] = params.alpha_seed
    alpha[1:, :] = params.alpha_bulk
    return CouplingSpec(gamma=gamma, alpha=alpha, J=J, sigma2=float(sigma2),
                        prior=BernoulliGaussianPrior(rho))


def spec_to_json(spec: CouplingSpec) -> str:
    """Serialize a CouplingSpec to the versioned JSON document."""
    doc = {
        "schema": SPEC_SCHEMA,
        "L_r": spec.L_r,
        "L_c": spec.L_c,
        "gamma": spec.gamma.tolist(),
        "alpha": spec.alpha.tolist(),
        "J": spec.J.tolist(),
        "sigma2": spec.sigma2,
        "rho": spec.prior.rho,
    }
    return json.dumps(doc, indent=2)


def _number(value):
    """A JSON number as float; the strings and booleans float() would coerce are refused."""
    if isinstance(value, (bool, str)):
        raise ValueError
    return float(value)


def _array(value):
    """Nested JSON lists of numbers as a float array, every entry checked by _number."""
    cells = np.asarray(value, dtype=object)
    return np.reshape([_number(v) for v in cells.flat], cells.shape)


_size = partial(_whole_number, "size", least=0)
_FIELDS = {"L_r": _size, "L_c": _size, "gamma": _array, "alpha": _array, "J": _array,
           "sigma2": _number, "rho": _number}


def spec_from_json(text: str) -> CouplingSpec:
    """Parse the versioned JSON document back into a CouplingSpec.

    Raises ValueError for a document that is not an object, a missing
    field, a field of the wrong type, or sizes L_r, L_c that are not
    alpha's shape.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"spec document must be a JSON object, got {type(doc).__name__}")
    schema = doc.get("schema")
    if schema != SPEC_SCHEMA:
        raise ValueError(f"unsupported spec schema {schema!r}, expected {SPEC_SCHEMA!r}")
    missing = [k for k in _FIELDS if k not in doc]
    if missing:
        raise ValueError(f"spec document missing fields: {', '.join(missing)}")
    fields = {}
    for key, convert in _FIELDS.items():
        try:
            fields[key] = convert(doc[key])
        except (TypeError, ValueError):
            raise ValueError(f"spec field {key} has the wrong type: {doc[key]!r}") from None
    sizes = (fields.pop("L_r"), fields.pop("L_c"))
    if fields["alpha"].shape != sizes:
        raise ValueError(f"spec sizes (L_r, L_c) = {sizes} differ from alpha's shape "
                         f"{fields['alpha'].shape}")
    rho = fields.pop("rho")
    return CouplingSpec(**fields, prior=BernoulliGaussianPrior(rho))
