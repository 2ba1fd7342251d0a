"""The search's pruning bounds and the records it keeps.

``multi_generator_riesz`` and ``two_operator_frame`` carry the README's
proofs as a ``bound``: from one trial's draws, an upper bound on its
margin.  The search runs no kernel for a trial whose bound is negative,
so these two searches draw and factorise nothing; and it computes
hypothesis values only for the first ``KEPT_RECORDS`` recorded trials.
Everything else it yields must be the bits of the unpruned search
(``conftest.unprune``), which the parity tests hold to the scalar oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import unprune
from dynsamp_lab import perturb
from dynsamp_lab.errors import HypothesisViolated

EMPTY = ("multi_generator_riesz", "two_operator_frame")
# the raw draws of one search instance, as the search draws them
RAW = {"multi_generator_riesz": perturb._draw_multi,
       "two_operator_frame": perturb._draw_two_operator}


def _margin(name: str, stack: perturb._Stack) -> float:
    """The public certificate function's margin of a stack's one instance,
    on the whole space."""
    eye = np.eye(stack.t.shape[1], dtype=complex)
    t = perturb.contraction_data(stack.t[0], eye)
    w = perturb.contraction_data(stack.w[0], eye)
    if name == "multi_generator_riesz":
        return perturb.multi_generator_riesz_certificate(
            w, t, stack.gens[0], stack.horizon).margin
    return perturb.two_operator_certificates(
        t, w, stack.phi[0], stack.horizon)[0].margin


def test_only_the_two_proven_sets_carry_a_bound():
    assert [name for name, kind in perturb.CERTIFICATES.items()
            if kind.bound is not None] == list(EMPTY)


@pytest.mark.parametrize("name", EMPTY)
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**64 - 1))
def test_the_pruning_bound_is_the_readmes_proof(name, seed):
    kind = perturb.CERTIFICATES[name]
    bound = kind.bound(RAW[name](np.random.default_rng(seed)))
    ((_, stack),) = kind.draw([np.random.default_rng(seed)])
    assert bound < 0
    try:
        margin = _margin(name, stack)
    except HypothesisViolated:
        return
    assert bound >= margin


@pytest.fixture
def factorisations(monkeypatch):
    """Counts of the SVDs and orbit stacks the program runs."""
    calls = {"svd": 0, "orbit_stack": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    monkeypatch.setattr(perturb, "orbit_stack",
                        counted("orbit_stack", perturb.orbit_stack))
    return calls


@pytest.mark.parametrize("name", EMPTY)
def test_a_provably_empty_search_factorises_nothing(name, factorisations):
    report = perturb.satisfiability_search(name, 1000, 1)
    assert (report.tried, report.satisfying_count, report.satisfying) \
        == (1000, 0, [])
    assert factorisations == {"svd": 0, "orbit_stack": 0}


def _as_searched(trials: list, evaluated: set, kept: int) -> list:
    """What the search yields of the unpruned ``trials``: those it
    evaluates, with hypothesis values on the first ``kept`` records only."""
    out, records = [], 0
    for t in trials:
        if t.index in evaluated:
            certs = []
            for c in t.certificates:
                records += perturb._recorded(c.margin)
                certs.append(c if records <= kept
                             else c._replace(hypothesis_values={}))
            out.append(t._replace(certificates=tuple(certs)))
    return out


@pytest.mark.parametrize("chunk", [perturb.SEARCH_CHUNK, 7])
@pytest.mark.parametrize("name", perturb.CERTIFICATE_NAMES)
def test_the_search_is_the_unpruned_search_cut_to_its_kept_records(
        name, chunk, monkeypatch):
    trials, seed = 120, 11
    monkeypatch.setattr(perturb, "SEARCH_CHUNK", chunk)
    kind, kept = perturb.CERTIFICATES[name], perturb.KEPT_RECORDS
    evaluated = {i for idx, _ in kind.draw(
        [np.random.default_rng([seed, n]) for n in range(trials)], kind.bound)
        for i in idx}
    searched = list(perturb.search_trials(name, trials, seed))
    report = perturb.satisfiability_search(name, trials, seed)
    unprune(monkeypatch)
    every = list(perturb.search_trials(name, trials, seed))
    everything = perturb.satisfiability_search(name, trials, seed)

    assert (name in EMPTY) == (not evaluated)
    assert repr(searched) == repr(_as_searched(every, evaluated, kept))
    assert report.satisfying_count == everything.satisfying_count \
        == len(everything.satisfying)
    assert repr(report.satisfying) == repr(everything.satisfying[:kept])
    assert len(report.satisfying) == min(kept, report.satisfying_count)
