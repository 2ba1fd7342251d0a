"""Curated experiment configurations for the `dynsamp repro` command."""

from __future__ import annotations

from .config import ExperimentConfig, parse_config
from .errors import InvalidInput

PRESET_NAMES = (
    "aldroubi-diagonal",
    "shift-orbit",
    "circulant-zmodel",
    "perturbation-gallery",
    "vacuity-search",
)


def _aldroubi_diagonal(dim: int, seed: int) -> dict:
    lam = [1.0 - 2.0 ** -(k + 1) for k in range(dim)]
    gen = [(1.0 - v * v) ** 0.5 for v in lam]
    return {
        "schema_version": 1,
        "dimension": dim,
        "operator": {"kind": "diagonal", "values": lam},
        "generators": [gen],
        "horizon": 2 * dim,
        "checks": ["repro-aldroubi", "stein", "orbit-bounds"],
        "seed": seed,
        "params": {"repro-aldroubi": {"sweep_dims": [4, 8, 16, 32]}},
    }


def _shift_orbit(dim: int, seed: int) -> dict:
    delta1 = [1.0] + [0.0] * (dim - 1)
    return {
        "schema_version": 1,
        "dimension": dim,
        "operator": {"kind": "nilpotent_shift", "dimension": dim},
        "generators": [delta1],
        "weights": {"kind": "geometric", "value": 0.5},
        "horizon": dim + 1,
        "checks": [
            "orbit-bounds",
            "surjectivity",
            "riesz-profile",
            "kernel-invariance",
            "representation",
            "ratio-bound",
        ],
        "seed": seed,
    }


def _circulant_zmodel(dim: int, seed: int) -> dict:
    first_row = [0.0] * (dim - 1) + [1.0]  # cyclic shift
    phi = [1.0, 1.0] + [0.0] * (dim - 2)
    return {
        "schema_version": 1,
        "dimension": dim,
        "operator": {"kind": "circulant", "first_row": first_row},
        "generators": [phi],
        "horizon": dim,
        "checks": ["periodic", "orbit-bounds", "nogo-proxy"],
        "seed": seed,
        "params": {"nogo-proxy": {"horizons": [dim, 2 * dim, 3 * dim]}},
    }


def _perturbation_gallery(dim: int, seed: int) -> dict:
    # 3-dimensional block: two-step shift plus a 1/2 contraction coordinate.
    return {
        "schema_version": 1,
        "dimension": 3,
        "operator": {
            "kind": "block_diag",
            "blocks": [
                {"kind": "nilpotent_shift", "dimension": 2},
                {"kind": "diagonal", "values": [0.5]},
            ],
        },
        "generators": [[1.0, 0.0, 0.0]],
        "horizon": 2,
        "checks": [
            "perturbation:riesz_orbit_perturbation",
            "perturbation:weighted_frame_perturbation",
            "perturbation:scaled_generator_perturbation",
            "perturbation:two_operator_frame",
        ],
        "seed": seed,
        "params": {
            "perturbation:riesz_orbit_perturbation": {
                "subspace_coords": [2],
                "psi_scales": [0.1, 0.4, 0.6],
                "horizon": 2,
            },
            "perturbation:weighted_frame_perturbation": {
                "subspace_coords": [2],
                "psi_scales": [0.3, 0.5, 1.0],
                "horizon": 4,
                "weights": {"kind": "constant", "value": 1.0},
            },
            "perturbation:scaled_generator_perturbation": {
                "operator": {"kind": "nilpotent_shift", "dimension": 2},
                "phi": [1.0, 0.0],
                "psi_direction": [1.0, 0.0],
                "psi_scales": [0.1],
                "horizon": 2,
                "weights": {"kind": "constant", "value": 1.0},
            },
            "perturbation:two_operator_frame": {
                "operator": {"kind": "diagonal", "values": [0.5]},
                "second_operator": {"kind": "diagonal", "values": [0.25]},
                "phi": [1.0],
                "subspace_coords": [0],
                "horizon": 32,
            },
        },
    }


def _vacuity_search(dim: int, seed: int) -> dict:
    return {
        "schema_version": 1,
        "dimension": 1,
        "operator": {"kind": "diagonal", "values": [0.5]},
        "generators": [[1.0]],
        "horizon": 1,
        "checks": [
            "satisfiability:multi_generator_riesz",
            "satisfiability:two_operator_frame",
            "satisfiability:riesz_orbit_perturbation",
        ],
        "seed": seed,
        "params": {
            "satisfiability:multi_generator_riesz": {
                "trials": 1000, "max_satisfying": 0,
            },
            "satisfiability:two_operator_frame": {
                "trials": 1000, "max_satisfying": 0,
            },
            "satisfiability:riesz_orbit_perturbation": {
                "trials": 100, "min_satisfying": 1,
            },
        },
    }


_BUILDERS = {
    "aldroubi-diagonal": (_aldroubi_diagonal, 16),
    "shift-orbit": (_shift_orbit, 4),
    "circulant-zmodel": (_circulant_zmodel, 3),
    "perturbation-gallery": (_perturbation_gallery, 3),
    "vacuity-search": (_vacuity_search, 1),
}
# presets whose builder ignores ``dim``: their dimension is the default
_FIXED_DIM = ("perturbation-gallery", "vacuity-search")


def preset_config(name: str, dim: int | None = None,
                  seed: int | None = None) -> ExperimentConfig:
    if name not in _BUILDERS:
        raise InvalidInput(
            f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}"
        )
    builder, default_dim = _BUILDERS[name]
    if dim is None:
        dim = default_dim
    elif dim < 1:
        raise InvalidInput(f"preset dimension must be >= 1, got {dim}")
    elif name in _FIXED_DIM and dim != default_dim:
        raise InvalidInput(f"preset {name!r} has the fixed dimension "
                           f"{default_dim}, got {dim}")
    raw = builder(dim, 7 if seed is None else int(seed))
    return parse_config(raw)
