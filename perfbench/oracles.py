"""Independent oracles for dynsamp-lab reports.

Everything here is plain numpy and never imports ``dynsamp_lab``.  Each
oracle rebuilds the inputs from the config echoed in a report and
recomputes a reported number another way:

* ``orbit-bounds``: ``b_opt`` (and ``a_opt`` where the d-th squared singular
  value is far from the 1e-10 * b cutoff) from the SVD of the benchmark's
  own orbit matrix;
* ``stein``: the extreme eigenvalues of the infinite-orbit frame operator,
  from the truncated series ``sum_n T^n g g* T*^n`` with its geometric tail
  bound, or the Cauchy-like closed form when T is diagonal;
* ``repro-aldroubi``: the entrywise error of {T^(1/2) e_k} and the sweep's
  eigenvalues, from the closed form written with gaps ``1 - lambda``;
* certificates: every reported margin, re-derived from its hypothesis
  values, and zero satisfying instances for the two certificates whose
  hypothesis sets are provably empty;
* every report: ``payload_hash`` recomputed from the written content.

A comparison that the conditioning of the problem makes meaningless is
counted as skipped, not as agreement.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

# Stein solutions are accepted by the program when the residual is at most
# 1e-12 * (1 + ||C||_F); see numkit.solve_stein.
STEIN_RESIDUAL_TOL = 1e-12

# Hypothesis sets shown empty by a trace argument: the certificate margin is
# at most minus half the generator energy, so no trial can satisfy it.
EMPTY_HYPOTHESIS_SETS = ("multi_generator_riesz", "two_operator_frame")


class Tally:
    """Counts of oracle comparisons, mismatches and skipped comparisons."""

    def __init__(self):
        self.compared = 0
        self.skipped = 0
        self.mismatches: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.compared += 1
        if not ok:
            self.mismatches.append(what)

    def close(self, got, want, tol: float, what: str) -> None:
        got = _num(got)
        self.expect(abs(got - want) <= tol,
                    f"{what}: reported {got!r}, oracle {want!r}, tol {tol:.3g}")


def _num(value) -> float:
    """Report numbers; non-finite values are written as strings."""
    return float(value)


def _complex(value) -> complex:
    if isinstance(value, list):
        return complex(float(value[0]), float(value[1]))
    return complex(value)


def build_operator(spec: dict) -> np.ndarray:
    kind = spec["kind"]
    if kind == "diagonal":
        return np.diag([_complex(v) for v in spec["values"]])
    if kind == "nilpotent_shift":
        d = int(spec["dimension"])
        return np.eye(d, k=-1, dtype=complex)
    if kind == "circulant":
        row = np.array([_complex(v) for v in spec["first_row"]])
        d = row.size
        # row k is the first row rotated right by k places
        idx = (np.arange(d)[None, :] - np.arange(d)[:, None]) % d
        return row[idx]
    if kind == "dense":
        entries = np.array([_complex(v) for v in spec["entries"]])
        d = math.isqrt(entries.size)
        return entries.reshape(d, d)
    if kind == "block_diag":
        blocks = [build_operator(b) for b in spec["blocks"]]
        d = sum(b.shape[0] for b in blocks)
        out = np.zeros((d, d), dtype=complex)
        at = 0
        for b in blocks:
            out[at:at + b.shape[0], at:at + b.shape[0]] = b
            at += b.shape[0]
        return out
    raise ValueError(f"unknown operator kind {kind!r}")


def weight_sequence(spec: dict | None, count: int) -> np.ndarray:
    if spec is None:
        return np.ones(count, dtype=complex)
    if spec["kind"] == "constant":
        return np.full(count, _complex(spec.get("value", 1.0)))
    if spec["kind"] == "geometric":
        return np.asarray(_complex(spec["value"])) ** np.arange(count)
    return np.array([_complex(v) for v in spec["values"][:count]])


def orbit_matrix(t, generators, weights, horizon) -> np.ndarray:
    """Columns a_n T^n g, generator-major, n = 0 .. horizon-1."""
    cols = []
    a = weight_sequence(weights, horizon)
    for g in generators:
        v = g
        for n in range(horizon):
            cols.append(a[n] * v)
            v = t @ v
    return np.column_stack(cols)


def _config_arrays(config: dict):
    t = build_operator(config["operator"])
    gens = [np.array([_complex(v) for v in g]) for g in config["generators"]]
    return t, gens


# -- per-check oracles -----------------------------------------------------

def _orbit_bounds(config, record, tally: Tally, label: str) -> None:
    t, gens = _config_arrays(config)
    u = orbit_matrix(t, gens, config.get("weights"), config["horizon"])
    sq = np.linalg.svd(u, compute_uv=False) ** 2
    b = float(sq[0])
    out = record["outputs"]
    tally.close(out["b_opt"], b, 1e-9 * b, f"{label} orbit-bounds b_opt")
    d = t.shape[0]
    cut = 1e-10 * b
    sd = float(sq[d - 1]) if sq.size >= d else 0.0
    if sd >= 1e4 * cut:
        tally.close(out["a_opt"], sd, 1e-8 * sd, f"{label} orbit-bounds a_opt")
    elif sd <= 1e-4 * cut:
        tally.close(out["a_opt"], 0.0, 0.0, f"{label} orbit-bounds a_opt")
    else:
        tally.skipped += 1


def _stein_tolerance(c_fro: float, t_norm: float, lam_max: float) -> float:
    """Absolute eigenvalue error the program's residual target allows.

    ``||S - S_exact|| <= residual / (1 - ||T||^2)`` for a contraction T.
    """
    return (STEIN_RESIDUAL_TOL * (1.0 + c_fro) / (1.0 - t_norm**2)
            + 1e-12 * lam_max)


def _compare_extremes(got_min, got_max, w, tol, tally: Tally, what: str):
    tally.close(got_max, float(w[-1]), tol, f"{what} lambda_max")
    if w[0] > 100.0 * tol:
        tally.close(got_min, float(w[0]), tol, f"{what} lambda_min")
    else:
        tally.skipped += 1


def diagonal_stein(lam: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Closed form S_ij = g_i conj(g_j) / (1 - lam_i conj(lam_j)).

    For real lam in [1/2, 1) the gap e = 1 - lam is exact, and
    1 - lam_i lam_j = e_i + e_j - e_i e_j avoids the cancellation.
    """
    if np.all(np.isreal(lam)) and np.all((lam.real >= 0.5) & (lam.real < 1.0)):
        e = 1.0 - lam.real
        denom = e[:, None] + e[None, :] - e[:, None] * e[None, :]
    else:
        denom = 1.0 - lam[:, None] * np.conj(lam)[None, :]
    return np.outer(g, np.conj(g)) / denom


def series_stein(t, gens, max_terms: int = 20000):
    """Truncated series K K* with K = [T^n g], and its tail bound.

    The tail beyond N terms is at most sum_g ||T^N g||^2 / (1 - ||T||^2).
    Returns None when ||T|| is too close to one for the series.
    """
    t_norm = float(np.linalg.svd(t, compute_uv=False)[0])
    if t_norm >= 1.0 - 1e-6:
        return None
    cols = []
    vs = list(gens)
    head = sum(float(np.vdot(v, v).real) for v in vs)
    for _ in range(max_terms):
        cols.extend(vs)
        vs = [t @ v for v in vs]
        tail = sum(float(np.vdot(v, v).real) for v in vs) / (1.0 - t_norm**2)
        if tail <= 1e-16 * head:
            k = np.column_stack(cols)
            return k @ k.conj().T, tail
    return None


def _stein(config, record, tally: Tally, label: str) -> None:
    t, gens = _config_arrays(config)
    c_fro = float(np.linalg.norm(sum(np.outer(g, g.conj()) for g in gens)))
    t_norm = float(np.linalg.svd(t, compute_uv=False)[0])
    if np.count_nonzero(t - np.diag(np.diag(t))) == 0:
        lam = np.diag(t)
        s = sum(diagonal_stein(lam, g) for g in gens)
        tail = 0.0
    else:
        found = series_stein(t, gens)
        if found is None:
            tally.skipped += 2
            return
        s, tail = found
    w = np.linalg.eigvalsh((s + s.conj().T) / 2.0)
    tol = tail + _stein_tolerance(c_fro, t_norm, float(w[-1]))
    out = record["outputs"]
    _compare_extremes(out["lambda_min"], out["lambda_max"], w, tol, tally,
                      f"{label} stein")


def _repro_aldroubi(config, record, tally: Tally, label: str) -> None:
    t, _ = _config_arrays(config)
    lam = np.real(np.diag(t))
    root = np.sqrt(lam)
    err = float(np.max(np.abs(root * root - lam)))
    out = record["outputs"]
    tally.close(out["entrywise_error"], err, 1e-12 * max(1.0, float(lam.max())),
                f"{label} repro-aldroubi entrywise_error")
    for row in out.get("sweep", []):
        d = int(row["dimension"])
        lam_d = 1.0 - 2.0 ** -(np.arange(1, d + 1))
        b = np.sqrt(1.0 - lam_d**2)
        w = np.linalg.eigvalsh(diagonal_stein(lam_d.astype(complex), b))
        c_fro = float(np.linalg.norm(np.outer(b, b)))
        tol = _stein_tolerance(c_fro, float(lam_d[-1]), float(w[-1]))
        _compare_extremes(row["lambda_min"], row["lambda_max"], w, tol, tally,
                          f"{label} repro-aldroubi sweep d={d}")
        tally.expect(_num(row["operator_norm"]) == 1.0 - 2.0 ** -d,
                     f"{label} repro-aldroubi sweep d={d} operator_norm")


def certificate_margin(name: str, h: dict) -> float:
    """A certificate's margin, re-derived from its hypothesis values."""
    h = {k: _num(v) for k, v in h.items()}
    if name == "riesz_orbit_perturbation":
        return (1.0 - h["mu"]) * math.sqrt(h["lower_riesz_bound"]) - h["psi_norm"]
    if name == "weighted_frame_perturbation":
        return (math.sqrt(h["lower_bound"] * (1.0 - h["mu"] ** 2))
                - h["sup_weight"] * h["psi_norm"])
    if name == "scaled_generator_perturbation":
        if h["psi_norm"] == 0.0 or h["bessel_bound"] <= 0.0:
            return math.inf
        return math.sqrt(h["lower_bound"] / h["bessel_bound"]) - h["sup_ratio"]
    if name == "multi_generator_riesz":
        return h["threshold"] - h["generator_energy"]
    if name == "two_operator_frame":
        return (math.sqrt(h["lower_bound"] * (1.0 - h["lambda"] ** 2))
                - 2.0 * h["phi_norm"])
    if name == "two_operator_riesz_sum":
        return h["lower_bound"] - (h["difference_sum"]
                                   + h["difference_tail_bound"])
    raise ValueError(f"unknown certificate {name!r}")


def _margin(name, instance, tally: Tally, what: str) -> None:
    want = certificate_margin(name, instance["hypothesis_values"])
    got = _num(instance["margin"])
    if math.isinf(want):
        tally.expect(got == want, f"{what} margin: reported {got!r}, oracle {want!r}")
    else:
        tally.close(got, want, 1e-12 * max(1.0, abs(want)), f"{what} margin")


def _perturbation(config, record, tally: Tally, label: str) -> None:
    for i, inst in enumerate(record["outputs"]["instances"]):
        what = f"{label} {record['name']}[{i}] {inst['name']}"
        _margin(inst["name"], inst, tally, what)
        tally.expect(bool(inst["verdict"]) == (_num(inst["margin"]) > 0),
                     f"{what} verdict")


def _satisfiability(config, record, tally: Tally, label: str) -> None:
    cert = record["name"].split(":", 1)[1]
    out = record["outputs"]
    trials = int(config["params"].get(record["name"], {}).get("trials", 1000))
    tally.expect(int(out["tried"]) == trials, f"{label} {record['name']} tried")
    if cert in EMPTY_HYPOTHESIS_SETS:
        tally.expect(int(out["satisfying_count"]) == 0,
                     f"{label} {record['name']} found an instance of an empty set")
    for inst in out["satisfying"]:
        what = f"{label} {record['name']} trial {inst['trial']}"
        _margin(cert, inst, tally, what)
        tally.expect(_num(inst["margin"]) > 0, f"{what} positive margin")


ORACLES = {
    "orbit-bounds": _orbit_bounds,
    "stein": _stein,
    "repro-aldroubi": _repro_aldroubi,
    "perturbation": _perturbation,
    "satisfiability": _satisfiability,
}


def payload_hash(report: dict) -> str:
    """sha256 of the canonical report payload without timings and hash."""
    payload = {k: v for k, v in report.items() if k != "payload_hash"}
    payload["checks"] = [{k: v for k, v in c.items() if k != "wall_time"}
                         for c in report["checks"]]
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def check_report(report: dict, exit_code: int, tally: Tally, label: str) -> None:
    """Run every applicable oracle on one written report."""
    tally.expect(payload_hash(report) == report["payload_hash"],
                 f"{label} payload_hash does not match the report content")
    passed = all(c["passed"] for c in report["checks"])
    tally.expect(report["passed"] == passed and exit_code == (0 if passed else 2),
                 f"{label} exit code {exit_code} vs verdicts")
    config = report["metadata"]["config"]
    for record in report["checks"]:
        oracle = ORACLES.get(record["name"].split(":", 1)[0])
        if oracle is not None and record["error"] is None:
            oracle(config, record, tally, label)
