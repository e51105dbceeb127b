"""Solver records behave like the records their public constructors build.

The scalar solvers build ``FoldingSolution``, ``GeneralCrtSolution`` and
``CascadeSolution`` in one step and leave an exact mean as an integer ratio
until it is read.  Each record a solver returns, for int, ``Fraction`` and
float observations, must be indistinguishable from the one the public
constructor builds from the ``fraction_reference`` values: equality, hash,
repr, ``asdict``, ``replace``, copies, pickling (whose state is exactly the
public fields, with the mean resolved) and immutability, whether or not its
mean was read first.
"""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

import fraction_reference as ref
from robustrns.multi_mod import cascade_reconstruct, cascade_spec, general_robust_crt
from robustrns.two_mod import RemainderObservation, TwoModSystem, level_context, solve_basic, solve_with_context

SYSTEM = TwoModSystem.from_moduli(234, 377)
CTX = level_context(SYSTEM, 3)
MODULI = (120, 300, 210, 490)
SPEC = cascade_spec(MODULI[:2], MODULI[2:], 2)
VALUE = 13000
ERRORS = {int: (2, -1, 0, 3), Fraction: (Fraction(5, 3), Fraction(-1, 2), 0, Fraction(7, 4)),
          float: (1.25, -0.5, 0.0, 2.75)}


def remainders(kind, moduli):
    return [kind(VALUE % m) + e for m, e in zip(moduli, ERRORS[kind])]


def two_mod_obs(kind):
    return RemainderObservation(*remainders(kind, (SYSTEM.m1, SYSTEM.m2)))


def split(rs):
    return rs[:2], rs[2:]


# (solver call, the same call on fraction_reference, whose records come from
# the public constructors) per observation kind
SOLVERS = {
    "solve_with_context": (lambda kind: solve_with_context(CTX, two_mod_obs(kind)),
                           lambda kind: ref.solve_with_context(CTX, two_mod_obs(kind))),
    "solve_basic": (lambda kind: solve_basic(SYSTEM, two_mod_obs(kind)),
                    lambda kind: ref.solve_basic(SYSTEM, two_mod_obs(kind))),
    "general_robust_crt": (lambda kind: general_robust_crt(MODULI, remainders(kind, MODULI)),
                           lambda kind: ref.general_robust_crt(MODULI, remainders(kind, MODULI))),
    "cascade_reconstruct": (
        lambda kind: cascade_reconstruct(SPEC, *split(remainders(kind, MODULI))),
        lambda kind: ref.cascade_reconstruct(SPEC, *split(remainders(kind, MODULI)))),
}


CASES = [(name, kind, read) for name in SOLVERS for kind in (int, Fraction, float)
         for read in (False, True)]


@pytest.fixture(params=CASES, ids=lambda c: f"{c[0]}-{c[1].__name__}-{'read' if c[2] else 'unread'}")
def records(request):
    """A factory of fresh solver records (mean read first or not) and the
    public-constructor record with the same values."""
    name, kind, read = request.param
    solve, reference = SOLVERS[name]
    public = reference(kind)

    def fresh():
        sol = solve(kind)
        if read:
            sol.mean
        return sol

    return fresh, public


def public_fields(record):
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


def test_mean_matches_reference_in_value_and_type(records):
    fresh, public = records
    sol = fresh()
    assert sol.mean == public.mean and type(sol.mean) is type(public.mean)
    assert sol.mean is sol.mean  # built once, then cached


def test_equality_and_hash(records):
    fresh, public = records
    assert fresh() == public and public == fresh()
    assert not fresh() != public
    assert hash(fresh()) == hash(public)
    assert len({fresh(), public}) == 1


def test_repr(records):
    fresh, public = records
    assert repr(fresh()) == repr(public)


def test_asdict_and_replace(records):
    fresh, public = records
    got, want = dataclasses.asdict(fresh()), dataclasses.asdict(public)
    assert got == want and type(got["mean"]) is type(want["mean"])
    assert dataclasses.astuple(fresh()) == dataclasses.astuple(public)
    assert dataclasses.replace(fresh()) == public
    changed = dataclasses.replace(fresh(), estimate=-1)
    assert changed == dataclasses.replace(public, estimate=-1)
    assert type(changed.mean) is type(public.mean)


def test_copies(records):
    fresh, public = records
    for clone in (copy.copy(fresh()), copy.deepcopy(fresh())):
        assert clone == public and repr(clone) == repr(public) and hash(clone) == hash(public)
        assert type(clone.mean) is type(public.mean)


def test_pickle_state_is_exactly_the_public_fields(records):
    fresh, public = records
    sol = fresh()
    _, _, state, *_ = sol.__reduce_ex__(pickle.HIGHEST_PROTOCOL)
    assert state == public_fields(public) and list(state) == list(public_fields(public))
    assert type(state["mean"]) is type(public.mean)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        data = pickle.dumps(fresh(), protocol)
        assert b"_mean_ratio" not in data
        back = pickle.loads(data)
        assert back == public and repr(back) == repr(public) and vars(back) == public_fields(public)
    assert pickle.dumps(fresh()) == pickle.dumps(public)


def test_immutable(records):
    fresh, public = records
    for name in public_fields(public):
        sol = fresh()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(sol, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(sol, name)
        assert sol == public


def test_exact_mean_is_deferred_and_float_mean_is_not():
    """The solvers' exact means stay integer ratios until read."""
    for kind, deferred in ((int, True), (Fraction, True), (float, False)):
        for name, (solve, _) in SOLVERS.items():
            sol = solve(kind)
            assert ("mean" not in vars(sol)) is deferred, (name, kind)
            sol.mean
            assert "mean" in vars(sol), (name, kind)


def test_public_constructor_is_unchanged():
    sol = type(solve_basic(SYSTEM, two_mod_obs(int)))(1, 2, 3, Fraction(7, 2))
    assert (sol.n1, sol.n2, sol.estimate, sol.mean) == (1, 2, 3, Fraction(7, 2))
    assert vars(sol) == {"n1": 1, "n2": 2, "estimate": 3, "mean": Fraction(7, 2)}
    assert [f.name for f in dataclasses.fields(sol)] == ["n1", "n2", "estimate", "mean"]
    with pytest.raises(TypeError):
        type(sol)(1, 2, 3)  # the mean has no default
