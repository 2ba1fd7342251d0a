"""The satisfiability search's bulk-seeded trial streams and whole-space
stacks.

Trial n of a search draws from numpy's ``default_rng([seed, n])``, seeded
in bulk per chunk by ``seeding.trial_streams``; every state and draw must
be numpy's bit for bit, for seeds and trial numbers of any word length.  A stack whose contraction
subspace is the whole space carries no basis and reads its factors off
one stacked SVD; they must be the bits ``contraction_data`` gives on the
identity basis.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsamp_lab import perturb, seeding
from dynsamp_lab.errors import InvalidHypothesis
from test_cli import run_python

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 1)
NUMBERS = (0, 1, 511, 512, 2**32 - 1, 2**32, 2**32 + 1)
DRAWS = {
    "contraction": lambda rng: perturb._draw_contraction(rng, 5),
    "block": lambda rng: perturb._draw_block(rng, weighted=False),
    "weighted block": lambda rng: perturb._draw_block(rng, weighted=True),
    "scaled": perturb._draw_scaled,
    "multi": perturb._draw_multi,
    "two operator": perturb._draw_two_operator,
}


def _numpy(seed: int, n: int) -> np.random.Generator:
    return np.random.default_rng([seed, n])


@pytest.mark.parametrize("seed", SEEDS)
def test_bulk_states_are_numpys(seed):
    # sparse trial numbers of one, two and three words, out of order
    numbers = (*NUMBERS, 2**64 + 3, 7, 2**32 + 1)
    for n, rng in zip(numbers, seeding.trial_streams(seed, numbers)):
        assert rng.bit_generator.state == _numpy(seed, n).bit_generator.state


@pytest.mark.parametrize("draw", DRAWS)
@pytest.mark.parametrize("seed", SEEDS)
def test_first_draws_are_numpys(seed, draw):
    sample = DRAWS[draw]
    for n, rng in zip(NUMBERS, seeding.trial_streams(seed, NUMBERS)):
        want = sample(_numpy(seed, n))
        assert pickle.dumps(sample(rng)) == pickle.dumps(want)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**96 - 1),
       st.lists(st.integers(0, 2**40 - 1), min_size=1, max_size=4))
def test_bulk_states_are_numpys_for_any_seed(seed, numbers):
    for n, rng in zip(numbers, seeding.trial_streams(seed, numbers)):
        assert rng.bit_generator.state == _numpy(seed, n).bit_generator.state
        assert rng.random() == _numpy(seed, n).random()


def test_a_negative_seed_is_refused_as_numpy_refuses_it():
    with pytest.raises(ValueError) as want:
        _numpy(-1, 0)
    with pytest.raises(ValueError) as got:
        next(seeding.trial_streams(-1, [0]))
    assert str(got.value) == str(want.value)


def _fields(stack: perturb._Stack) -> list:
    return [(k, v.dtype, v.shape, v.tobytes()) if isinstance(v, np.ndarray)
            else (k, v) for k, v in stack._asdict().items()]


@pytest.mark.parametrize("name", perturb.CERTIFICATE_NAMES)
def test_search_stacks_are_those_of_numpys_streams(name):
    """The streams are consumed one trial at a time: a sampler that listed
    them first would draw every trial from the last state."""
    kind = perturb.CERTIFICATES[name]
    numbers = range(40, 140)
    got = kind.draw(seeding.trial_streams(3, numbers))
    want = kind.draw([_numpy(3, n) for n in numbers])
    assert [idx for idx, _ in got] == [idx for idx, _ in want]
    assert [_fields(s) for _, s in got] == [_fields(s) for _, s in want]


@pytest.mark.parametrize("preset, loaded", [("perturbation-gallery", False),
                                            ("vacuity-search", True)])
def test_only_a_search_loads_the_seeding_module(tmp_path, preset, loaded):
    proc = run_python(
        "import sys\n"
        "from dynsamp_lab import cli\n"
        "code = cli.main(['repro', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(code, 'dynsamp_lab.perturb' in sys.modules,\n"
        "      'dynsamp_lab.seeding' in sys.modules)",
        preset, str(tmp_path / "r.json"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 True {loaded}"


# -- whole-space stacks --------------------------------------------------------

@pytest.mark.parametrize("name", ["multi_generator_riesz",
                                  "two_operator_frame",
                                  "two_operator_riesz_sum"])
def test_whole_space_factors_are_those_of_the_identity_basis(name):
    kind = perturb.CERTIFICATES[name]
    for _, stack in kind.draw([_numpy(5, n) for n in range(100)]):
        assert stack.basis is None and stack.w_basis is None
        eye = np.eye(stack.t.shape[1], dtype=complex)
        for i in range(len(stack.t)):
            assert stack.mu[i] == perturb.contraction_data(stack.t[i], eye).mu
            assert stack.w_mu[i] \
                == perturb.contraction_data(stack.w[i], eye).mu


def test_a_whole_space_factor_of_one_is_refused_t_first():
    t = np.diag([1.25, 0.5]).astype(complex)
    w = np.diag([1.5, 0.5]).astype(complex)
    eye = np.eye(2, dtype=complex)
    stack = perturb._whole_space(np.stack([t, 0.5 * t, t]),
                                 np.stack([w, w, 0.5 * w]), horizon=2)
    fails = [None] * 3
    perturb._contracted(stack, fails)
    with pytest.raises(InvalidHypothesis) as t_refusal:
        perturb.contraction_data(t, eye)
    with pytest.raises(InvalidHypothesis) as w_refusal:
        perturb.contraction_data(w, eye)
    assert [str(f) for f in fails] == [str(t_refusal.value),
                                       str(w_refusal.value),
                                       str(t_refusal.value)]


@pytest.fixture
def orbit_calls(monkeypatch):
    """Log of the orbit stacks ``perturb`` builds."""
    calls = []
    orbit_stack = perturb.orbit_stack

    def counted(*args, **kwargs):
        calls.append(1)
        return orbit_stack(*args, **kwargs)

    monkeypatch.setattr(perturb, "orbit_stack", counted)
    return calls


@pytest.mark.parametrize("name, orbits_per_group", [
    ("multi_generator_riesz", 0),  # its bound prunes every trial
    ("two_operator_frame", 0),  # as does its bound
    ("two_operator_riesz_sum", 2),  # its margin reads the W-orbits
])
def test_a_search_builds_only_the_orbits_it_reads(name, orbits_per_group,
                                                  orbit_calls):
    kind = perturb.CERTIFICATES[name]
    groups = len(kind.draw([_numpy(7, n) for n in range(100)]))
    perturb.satisfiability_search(name, 100, 7)
    assert len(orbit_calls) == orbits_per_group * groups


def test_a_stack_with_a_basis_builds_every_orbit(orbit_calls):
    eye = np.eye(2, dtype=complex)
    t = perturb.contraction_data(np.diag([0.5, 0.25]), eye)
    w = perturb.contraction_data(np.diag([0.25, 0.5]), eye)
    stack = perturb._Stack.one(4, t=t.operator, mu=t.mu, basis=eye,
                               w=w.operator, w_mu=w.mu, w_basis=eye,
                               phi=np.ones(2, dtype=complex))
    perturb._two_operator_kernel(stack, [None], names=("two_operator_frame",))
    assert len(orbit_calls) == 2
