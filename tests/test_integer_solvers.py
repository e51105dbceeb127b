"""The integer-arithmetic solvers against the ``Fraction`` reference copies.

Every scalar solver must return results equal to ``fraction_reference`` field
by field (folds, estimate, mean, and the mean's type) on random coprime
systems, for int, ``Fraction`` and float observations, inside the guarantee
and in the fallback region, in range and out of range, and at edge sizes:
cofactors near 2^61 on their depth-1 level, and m = 2^40 + 7 over
(1000, 1001).  A float is taken at its exact binary value: the reference runs
on the exact ``Fraction`` of each float, and the solver's mean must be the
reference mean rounded to a float.
"""

import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import fraction_reference as ref
import ladder_reference as ladders
from robustrns import multi_mod
from robustrns.multi_mod import (
    ModuliGroup,
    cascade_reconstruct,
    cascade_spec,
    general_robust_crt,
    single_stage_robust_crt,
)
from robustrns.two_mod import (
    Ladder,
    RemainderObservation,
    TwoModSystem,
    level_context,
    sigma_chain,
    solve_basic,
    solve_level,
    solve_level_real,
    solve_with_context,
)

SETTINGS = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def same(new, old):
    """Equal fields, and means of one type (``Fraction`` stays ``Fraction``)."""
    assert new == old
    mean = (lambda sol: sol[-1]) if isinstance(new, tuple) else (lambda sol: sol.mean)
    assert type(mean(new)) is type(mean(old))


def _without_mean(sol):
    if isinstance(sol, tuple):
        return sol[:-1], sol[-1]
    return {f.name: getattr(sol, f.name) for f in dataclasses.fields(sol) if f.name != "mean"}, sol.mean


def _remainders(arg):
    if isinstance(arg, RemainderObservation):
        return [arg.r1, arg.r2]
    return arg if isinstance(arg, list) else []


def _exact(arg):
    """A solver argument with each float remainder as its exact ``Fraction``."""
    if isinstance(arg, RemainderObservation):
        return RemainderObservation(*_exact([arg.r1, arg.r2]))
    if isinstance(arg, list):
        return [Fraction(r) if isinstance(r, float) else r for r in arg]
    return arg


def same_as_reference(solve, reference, *args):
    """``solve(*args)`` against ``reference``: ``same`` on int and ``Fraction``
    remainders.  With a float remainder the reference runs on the exact values,
    and every field but the mean must be equal, the mean being the reference
    mean rounded to a float."""
    new = solve(*args)
    if not any(isinstance(r, float) for arg in args for r in _remainders(arg)):
        same(new, reference(*args))
        return
    (fields, mean), (want, exact_mean) = _without_mean(new), _without_mean(reference(*map(_exact, args)))
    assert fields == want
    assert type(mean) is float and mean == float(exact_mean)


@st.composite
def coprime_systems(draw, gamma_max=400, m_max=60):
    g1 = draw(st.integers(2, gamma_max - 1))
    g2 = draw(st.integers(g1 + 1, gamma_max))
    assume(math.gcd(g1, g2) == 1)
    return TwoModSystem(draw(st.integers(1, m_max)), g1, g2)


KINDS = st.sampled_from([int, Fraction, float])


@st.composite
def errors(draw, bound, kind):
    """An error of the given kind: int, Fraction (denominators up to 12) or float."""
    if kind is int:
        return draw(st.integers(-bound, bound))
    if kind is Fraction:
        den = draw(st.integers(1, 12))
        return Fraction(draw(st.integers(-bound * den, bound * den)), den)
    return draw(st.floats(-float(bound), float(bound)))


@st.composite
def observations(draw, system, value_bound, err_bound):
    """Noisy remainders of a value below ``value_bound`` (both errors of one
    kind, so int and Fraction draws stay exact); small errors land inside the
    guarantee, large ones in the fallback region and outside ``[0, m_i)``."""
    value = draw(st.integers(0, value_bound - 1))
    kind = draw(KINDS)
    d1, d2 = draw(errors(err_bound, kind)), draw(errors(err_bound, kind))
    return RemainderObservation(value % system.m1 + d1, value % system.m2 + d2)


@st.composite
def level_cases(draw):
    system = draw(coprime_systems())
    j = draw(st.integers(1, sigma_chain(system).levels))
    ctx = level_context(system, j)
    inside = draw(st.booleans())
    err = max(1, system.m * ctx.sigma // 4) if inside else system.m2
    bound = ctx.dynamic_range if inside else system.lcm
    return ctx, draw(observations(system, bound, err))


@SETTINGS
@given(level_cases())
def test_solve_with_context_matches_reference(case):
    ctx, obs = case
    same_as_reference(solve_with_context, ref.solve_with_context, ctx, obs)


@SETTINGS
@given(st.data())
def test_solve_basic_and_estimate_match_reference(data):
    system = data.draw(coprime_systems())
    assume(system.gamma2 % system.gamma1 > 0)
    obs = data.draw(observations(system, system.lcm, system.m2))
    same_as_reference(solve_basic, ref.solve_basic, system, obs)
    sol = solve_basic(system, obs)
    assert ref._solution(system, obs, sol.n1, sol.n2).estimate == sol.estimate


@SETTINGS
@given(st.data())
def test_real_mode_matches_reference_bit_for_bit(data):
    g = data.draw(coprime_systems())
    system = TwoModSystem.real(data.draw(st.floats(0.1, 50.0)), g.gamma1, g.gamma2)
    j = data.draw(st.integers(1, sigma_chain(system).levels))
    ctx = level_context(system, j)
    value = data.draw(st.floats(0.0, system.lcm, exclude_max=True))
    d1, d2 = (data.draw(st.floats(-system.m2, system.m2)) for _ in range(2))
    obs = RemainderObservation(value % system.m1 + d1, value % system.m2 + d2)
    # m = p / q exactly, q a power of two: the reference solves the integer
    # system (p, gamma1, gamma2) on every input scaled by q
    p, q = system.m.as_integer_ratio()
    scaled_ctx = level_context(TwoModSystem(p, g.gamma1, g.gamma2), j)
    scaled = RemainderObservation(Fraction(obs.r1) * q, Fraction(obs.r2) * q)
    for new, old in ((solve_with_context(ctx, obs), ref.solve_with_context(scaled_ctx, scaled)),
                     (solve_basic(system, obs), ref.solve_basic(scaled_ctx.system, scaled))):
        assert (new.n1, new.n2) == (old.n1, old.n2)
        want = float(old.mean / q)
        assert repr(new.estimate) == repr(want) and repr(new.mean) == repr(want)


def _edges(system, ctx):
    """Scaled differences q on every comparison edge of both solvers: the
    branch thresholds, the window edges around each ladder element, the
    midpoints between neighbours (the fallback's ties), and the coarse
    solver's wrap limits and rounding ties."""
    half = Fraction(ctx.sigma, 2)
    qs = {half, -half}
    for elems, sign in ((ladders.rungs(ctx.s2), 1), (ladders.rungs(ctx.s1), -1)):
        for lo, hi in zip(elems, elems[1:]):
            qs.update(sign * x for x in (lo - half, lo + half, Fraction(lo + hi, 2)))
    g1, beta = system.gamma1, system.gamma2 % system.gamma1
    if beta:
        bhalf, top = Fraction(beta, 2), (g1 // beta) * beta
        qs.update((bhalf, -bhalf, -g1 + bhalf, -g1 + top - bhalf, Fraction(3 * beta, 2)))
    return sorted(qs)


@st.composite
def edge_observations(draw):
    """Observations whose ``(r1 - r2) / m`` sits on, or one remainder step (or
    half a step) beside, a comparison edge: equality tests must match exactly,
    in integer and in float arithmetic."""
    system = draw(coprime_systems(gamma_max=120, m_max=12))
    ctx = level_context(system, draw(st.integers(1, sigma_chain(system).levels)))
    q = draw(st.sampled_from(_edges(system, ctx)))
    diff = q * system.m + draw(st.sampled_from([0, 0, 0, 1, -1, Fraction(1, 2), Fraction(-1, 2)]))
    r2 = draw(st.integers(-system.m2, 2 * system.m2))
    kind = draw(KINDS if diff.denominator == 1 else st.sampled_from([Fraction, float]))
    return ctx, RemainderObservation(kind(r2 + diff), kind(r2))  # exact: small dyadic values


@settings(max_examples=4 * settings.default.max_examples, deadline=None)
@given(edge_observations())
def test_comparison_edges_match_reference(case):
    ctx, obs = case
    same_as_reference(solve_with_context, ref.solve_with_context, ctx, obs)
    if ctx.system.gamma2 % ctx.system.gamma1:
        same_as_reference(solve_basic, ref.solve_basic, ctx.system, obs)


@st.composite
def coprime_cofactors(draw, max_size):
    """Pairwise-coprime cofactors up to 40 (the first may be 1), each drawn
    from the values coprime to the earlier ones, so nothing is filtered."""
    cofactors = []
    for _ in range(draw(st.integers(1, max_size))):
        lo = 1 if not cofactors else 2
        cofactors.append(draw(st.sampled_from(
            [c for c in range(lo, 41) if all(math.gcd(c, other) == 1 for other in cofactors)])))
    return cofactors


@st.composite
def groups(draw, max_size=4):
    """Pairwise-coprime cofactors times a common gcd."""
    cofactors = draw(coprime_cofactors(max_size))
    m = draw(st.integers(1, 40))
    return ModuliGroup.from_moduli([m * c for c in cofactors])


@st.composite
def cross_groups(draw):
    """Two groups whose lcms form a valid cross system: neither lcm divides
    the other, so the cross cofactors satisfy 1 < gamma1 < gamma2.  The gcds
    are drawn from the pairs that achieve this, so nothing is filtered."""
    c1, c2 = draw(coprime_cofactors(3)), draw(coprime_cofactors(3))
    p1, p2 = math.prod(c1), math.prod(c2)
    a, b = draw(st.sampled_from([(a, b) for a in range(1, 41) for b in range(1, 41)
                                 if (a * p1) % (b * p2) and (b * p2) % (a * p1)]))
    return (ModuliGroup.from_moduli([a * c for c in c1]),
            ModuliGroup.from_moduli([b * c for c in c2]))


@st.composite
def group_remainders(draw, moduli, value_bound, err_bound):
    value = draw(st.integers(0, value_bound - 1))
    kind = draw(KINDS)
    return [value % mk + draw(errors(err_bound, kind)) for mk in moduli]


@SETTINGS
@given(st.data())
def test_single_stage_matches_reference(data):
    group = data.draw(groups())
    inside = data.draw(st.booleans())
    err = max(1, group.gcd // 4) if inside else max(group.moduli)
    rs = data.draw(group_remainders(group.moduli, group.eta, err))
    same_as_reference(single_stage_robust_crt, ref.single_stage_robust_crt, group, rs)


@SETTINGS
@given(st.data())
def test_general_matches_reference(data):
    moduli = data.draw(st.lists(st.integers(1, 300), min_size=2, max_size=5))
    m = math.gcd(*moduli)
    inside = data.draw(st.booleans())
    err = max(1, m // 4) if inside else max(moduli)
    rs = data.draw(group_remainders(moduli, math.lcm(*moduli), err))
    same_as_reference(general_robust_crt, ref.general_robust_crt, moduli, rs)


@SETTINGS
@given(st.data())
def test_cascade_matches_reference(data):
    """Each group's errors are of a kind drawn for that group (int, ``Fraction``
    or float), so the one common denominator of a solve also spans groups of
    different kinds."""
    g1, g2 = data.draw(cross_groups())
    spec = cascade_spec(g1.moduli, g2.moduli, 1)
    level = data.draw(st.integers(1, sigma_chain(spec.cross).levels))
    spec = cascade_spec(g1.moduli, g2.moduli, level)
    inside = data.draw(st.booleans())
    bound = level_context(spec.cross, level).dynamic_range if inside else spec.cross.lcm
    err = max(1, min(g1.gcd, g2.gcd) // 4) if inside else max(g1.moduli + g2.moduli)
    value = data.draw(st.integers(0, bound - 1))
    rs1, rs2 = [[value % mk + data.draw(errors(err, kind)) for mk in group.moduli]
                for group, kind in ((g1, data.draw(KINDS)), (g2, data.draw(KINDS)))]
    float_mean = any(isinstance(r, float) for r in rs1 + rs2)
    same_record(cascade_reconstruct(spec, rs1, rs2),
                ref.cascade_reconstruct(spec, _exact(rs1), _exact(rs2)), float_mean)


@st.composite
def huge_depth_one_cases(draw):
    """Cofactors in [2^60, 2^62) with g1 < g2 < 2 g1 and g2 mod g1 > g1 / 2:
    level 1 then has ladder depths (1, 1), so its ladders hold two elements."""
    g1 = draw(st.integers(2**60, 2**61))
    b = draw(st.integers(g1 // 2 + 1, g1 - 1))
    assume(math.gcd(g1, b) == 1)
    system = TwoModSystem(draw(st.integers(1, 2**20)), g1, g1 + b)
    ctx = level_context(system, 1)
    assert (ctx.depth1, ctx.depth2) == (1, 1)
    inside = draw(st.booleans())
    err = system.m * ctx.sigma // 4 if inside else system.m2
    bound = ctx.dynamic_range if inside else system.lcm
    return ctx, draw(observations(system, bound, err))


@SETTINGS
@given(huge_depth_one_cases())
def test_cofactors_near_2_61_match_reference(case):
    ctx, obs = case
    same_as_reference(solve_with_context, ref.solve_with_context, ctx, obs)
    same_as_reference(solve_basic, ref.solve_basic, ctx.system, obs)


@pytest.fixture(scope="module")
def wide_context():
    return level_context(TwoModSystem(2**40 + 7, 1000, 1001), 1)


@SETTINGS
@given(st.data())
def test_60_bit_lcm_is_exact(wide_context, data):
    ctx = wide_context
    system = ctx.system
    value = data.draw(st.integers(0, ctx.dynamic_range - 1))
    err = system.m * ctx.sigma // 4 - 1
    d1, d2 = data.draw(st.integers(-err, err)), data.draw(st.integers(-err, err))
    obs = RemainderObservation(value % system.m1 + d1, value % system.m2 + d2)
    sol = solve_with_context(ctx, obs)
    same(sol, ref.solve_with_context(ctx, obs))
    assert (sol.n1, sol.n2) == (value // system.m1, value // system.m2)
    assert abs(sol.estimate - value) <= max(abs(d1), abs(d2))


def _nudged(x, ulps):
    """``x`` moved by ``ulps`` units in the last place."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


def _near_edge_probes(system, rng):
    """Real-mode observations within two ulps of a comparison edge: ``r2`` at
    random, ``r1`` the float nearest to ``r2 + q m`` for every edge ``q`` of
    every level (``_edges``), then nudged by -2 to 2 ulps."""
    m = Fraction(system.m)
    for j in range(1, sigma_chain(system).levels + 1):
        ctx = level_context(system, j)
        for q in _edges(system, ctx):
            for _ in range(2):
                r2 = float(rng.uniform(0, system.m2))
                r1 = float(Fraction(r2) + q * m)
                for ulps in range(-2, 3):
                    yield ctx, RemainderObservation(_nudged(r1, ulps), r2)


@pytest.mark.parametrize("m", [2.5, 0.1])
def test_real_mode_folds_are_exact_next_to_window_edges(m):
    system = TwoModSystem.real(m, 18, 29)
    p, q = system.m.as_integer_ratio()
    probes = mismatches = 0
    for ctx, obs in _near_edge_probes(system, np.random.default_rng(7)):
        scaled_ctx = level_context(TwoModSystem(p, 18, 29), ctx.j)
        want = ref.solve_with_context(scaled_ctx, RemainderObservation(Fraction(obs.r1) * q,
                                                                       Fraction(obs.r2) * q))
        got = solve_with_context(ctx, obs)
        probes += 1
        mismatches += (got.n1, got.n2) != (want.n1, want.n2)
    assert (probes, mismatches) == (1030, 0)


def test_real_mode_mean_is_the_correctly_rounded_exact_mean():
    system = TwoModSystem.real(0.1, 18, 29)
    m = Fraction(system.m)
    rng = np.random.default_rng(11)
    draws = 4000
    levels = rng.integers(1, sigma_chain(system).levels + 1, size=draws).tolist()
    r1s, r2s = rng.uniform(0, system.m1, size=draws).tolist(), rng.uniform(0, system.m2, size=draws).tolist()
    misses = 0
    for j, r1, r2 in zip(levels, r1s, r2s):
        sol = solve_level_real(system, RemainderObservation(r1, r2), j)
        exact = (Fraction(r1) + Fraction(r2) + (sol.n1 * system.gamma1 + sol.n2 * system.gamma2) * m) / 2
        misses += type(sol.mean) is not float or sol.mean != float(exact) or sol.estimate != sol.mean
    assert misses == 0


def same_record(new, old, float_mean=False):
    """Every field of ``new`` equal to ``old``'s, the estimate and the mean
    of ``old``'s types, and ``vars(new)`` in field order with the mean last,
    under ``_mean_ratio`` while an exact mean is unread.  With ``float_mean``
    the reference ran on exact values and the mean must be its mean rounded
    to a float."""
    names = [f.name for f in dataclasses.fields(old)]
    assert list(vars(new)) in (names, [*names[:-1], "_mean_ratio"])
    assert [getattr(new, name) for name in names[:-1]] == [getattr(old, name) for name in names[:-1]]
    assert type(new.estimate) is type(old.estimate)
    want = float(old.mean) if float_mean else old.mean
    assert new.mean == want and type(new.mean) is type(want)
    assert [key for key in vars(new) if key != "_mean_ratio"] == names


# int-valued remainders of other types: each leaves the int shortcut of
# solve_with_context for the general exact path, with the same answer
INT_LIKE = {"int64": np.int64, "Fraction": lambda k: Fraction(k, 1), "float": float}


@SETTINGS
@given(level_cases(), st.sampled_from(sorted(INT_LIKE)), st.booleans())
def test_int_valued_remainders_of_other_types_match_reference(case, kind, both):
    ctx, obs = case
    assume(type(obs.r1) is int)
    convert = INT_LIKE[kind]
    r1, r2 = convert(obs.r1) if both else obs.r1, convert(obs.r2)
    new = solve_level(ctx.system, RemainderObservation(r1, r2), ctx.j)
    old = ref.solve_with_context(ctx, RemainderObservation(Fraction(obs.r1), Fraction(obs.r2)))
    same_record(new, old, float_mean=kind == "float")
    same_record(solve_level(ctx.system, obs, ctx.j), old)


def test_bool_remainders_match_reference():
    ctx = level_context(TwoModSystem.from_moduli(234, 377), 3)
    for r1 in (False, True, 0, 1, 200):
        for r2 in (False, True, 0, 1, 300):
            obs = RemainderObservation(r1, r2)
            old = ref.solve_with_context(ctx, RemainderObservation(int(r1), int(r2)))
            same_record(solve_with_context(ctx, obs), old)


@SETTINGS
@given(st.data())
def test_int_remainders_on_real_systems_match_reference(data):
    g = data.draw(coprime_systems())
    system = TwoModSystem.real(data.draw(st.floats(0.1, 50.0)), g.gamma1, g.gamma2)
    j = data.draw(st.integers(1, sigma_chain(system).levels))
    bound = int(system.m2) + 1
    r1, r2 = data.draw(st.integers(-bound, 2 * bound)), data.draw(st.integers(-bound, 2 * bound))
    if data.draw(st.booleans()):
        r2 = data.draw(st.floats(-bound, 2 * bound))
    new = solve_level_real(system, RemainderObservation(r1, r2), j)
    # the integer system (p, gamma1, gamma2) on every input scaled by q, as above
    p, q = system.m.as_integer_ratio()
    old = ref.solve_with_context(level_context(TwoModSystem(p, g.gamma1, g.gamma2), j),
                                 RemainderObservation(Fraction(r1) * q, Fraction(r2) * q))
    assert (new.n1, new.n2) == (old.n1, old.n2)
    want = float(old.mean / q)
    assert type(new.estimate) is float and type(new.mean) is float
    assert repr(new.estimate) == repr(want) and repr(new.mean) == repr(want)
    assert list(vars(new)) == ["n1", "n2", "estimate", "mean"]


# every level below the top of these searches its ladders
SEARCHED_SYSTEMS = [(2**64 + 1, 2**64 + 3 + 2**40), (2**100 + 1, 2**100 + 3 + 2**60)]


@st.composite
def searched_cases(draw):
    g1, g2 = draw(st.sampled_from(SEARCHED_SYSTEMS))
    system = TwoModSystem(draw(st.sampled_from([1, 3, 1024])), g1, g2)
    ctx = level_context(system, draw(st.integers(1, sigma_chain(system).levels - 1)))
    assert type(ctx.s1) is type(ctx.s2) is Ladder
    inside = draw(st.booleans())
    err = max(1, system.m * ctx.sigma // 4 - 1) if inside else system.m2
    bound = ctx.dynamic_range if inside else system.lcm
    return ctx, draw(observations(system, bound, err))


@SETTINGS
@given(searched_cases())
def test_cofactors_near_2_64_and_2_100_match_reference(case):
    ctx, obs = case
    new = solve_with_context(ctx, obs)
    float_mean = isinstance(obs.r1, float) or isinstance(obs.r2, float)
    same_record(new, ref.solve_with_context(ctx, _exact(obs)), float_mean)
    if type(obs.r1) is int:
        same_record(solve_level(ctx.system, obs, ctx.j), ref.solve_with_context(ctx, obs))


_TABLE = TwoModSystem.from_moduli(234, 377)
_SPEC = cascade_spec((120, 300), (210, 490), 2)


@pytest.mark.parametrize("caller, solve, bad", [
    ("solve_level", lambda bad: solve_level(_TABLE, RemainderObservation(bad, 240), 3), "5"),
    ("solve_level", lambda bad: solve_level(_TABLE, RemainderObservation(69, bad), 3), None),
    ("solve_level_real",
     lambda bad: solve_level_real(TwoModSystem.real(2.5, 18, 29), RemainderObservation(7, bad), 3),
     "7"),
    ("solve_with_context",
     lambda bad: solve_with_context(level_context(_TABLE, 3), RemainderObservation(bad, 240)), 1j),
    ("cascade_reconstruct", lambda bad: cascade_reconstruct(_SPEC, (40, bad), (160, 370)), "100"),
    ("cascade_reconstruct", lambda bad: cascade_reconstruct(_SPEC, (40, 100), (bad, 370)), None),
    ("general_robust_crt", lambda bad: general_robust_crt((120, 300, 210), (40, 100, bad)), "160"),
])
def test_a_remainder_that_is_not_a_number_is_refused_in_the_callers_name(caller, solve, bad):
    message = f"^{caller}: {re.escape(repr(bad))} is not an int, a rational or a float$"
    with pytest.raises(ValueError, match=message):
        solve(bad)


@pytest.mark.parametrize("caller, solve", [
    ("cascade_reconstruct", lambda: cascade_reconstruct(_SPEC, (40, 100, "x"), (160,))),
    ("cascade_reconstruct", lambda: cascade_reconstruct(_SPEC, (40,), (160, 370, "x"))),
    ("cascade_reconstruct", lambda: cascade_reconstruct(_SPEC, (40,), (160, 370))),
    ("cascade_reconstruct", lambda: cascade_reconstruct(_SPEC, (40, 100), (160,))),
    ("single_stage_robust_crt", lambda: single_stage_robust_crt(_SPEC.group1, (40, 100, "x"))),
    ("single_stage_robust_crt", lambda: single_stage_robust_crt(_SPEC.group1, (40,))),
])
def test_a_count_mismatch_is_refused_in_the_callers_name_before_any_scaling(caller, solve):
    """3 + 1 remainders on 2 + 2 moduli, or one group short by one: the count
    refusal comes first, also over a non-number in the over-long group."""
    message = f"^{caller}: remainder/modulus count mismatch$"
    with pytest.raises(ValueError, match=message):
        solve()

    def scaled(values, _caller):
        raise AssertionError(f"{_caller} scaled {values!r} before it checked the counts")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(multi_mod, "common_denominator", scaled)
        with pytest.raises(ValueError, match=message):
            solve()
