import math
import random
import sys
import threading
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hamming_cutoff import (
    ParameterError,
    RadialDistribution,
    ResourceBudgetError,
    class_weights,
    enumerate_tiny,
    kstep_excess,
    kstep_numerators,
    kstep_oracle,
    kstep_trajectory,
    kstep_tv,
    make_scheme,
    point_mass,
    power_step,
    radial_matrix,
    reversibility_holds,
    tv_distance,
    uniform,
)
from hamming_cutoff import bounds, cli, radial, verify
from hamming_cutoff.radial import _float_marks, float_step_arrays


def neighbor_census(n, q, base_word):
    """Independent oracle: classify all neighbours of a word by distance."""
    down = stay = up = 0
    d0 = sum(1 for c in base_word if c != 0)
    for i in range(n):
        for v in range(q):
            if v == base_word[i]:
                continue
            word = list(base_word)
            word[i] = v
            d = sum(1 for c in word if c != 0)
            if d == d0 - 1:
                down += 1
            elif d == d0:
                stay += 1
            else:
                up += 1
    return down, stay, up


def test_radial_matrix_examples_against_neighbor_census():
    p = make_scheme(3, 3)
    m = radial_matrix(p)
    down, stay, up = neighbor_census(3, 3, (1, 0, 0))
    assert (down, stay, up) == (1, 1, 4)
    assert (m.down[1], m.stay[1], m.up[1]) == (
        Fraction(1, 6),
        Fraction(1, 6),
        Fraction(2, 3),
    )

    p = make_scheme(2, 3)
    m = radial_matrix(p)
    down, stay, up = neighbor_census(2, 3, (1, 1))
    assert (down, stay, up) == (2, 2, 0)
    assert (m.down[2], m.stay[2], m.up[2]) == (
        Fraction(1, 2),
        Fraction(1, 2),
        0,
    )


def test_radial_matrix_full_census():
    for n, q in [(1, 2), (2, 2), (3, 2), (2, 4), (3, 5)]:
        p = make_scheme(n, q)
        m = radial_matrix(p)
        deg = n * (q - 1)
        for l in range(n + 1):
            word = tuple([1] * l + [0] * (n - l))
            down, stay, up = neighbor_census(n, q, word)
            assert m.down[l] == Fraction(down, deg)
            assert m.stay[l] == Fraction(stay, deg)
            assert m.up[l] == Fraction(up, deg)


def test_rows_sum_to_one_and_binary_case():
    for n in (1, 4, 9):
        for q in (2, 3, 6):
            m = radial_matrix(make_scheme(n, q))
            for l in range(n + 1):
                assert m.down[l] + m.stay[l] + m.up[l] == 1
            if q == 2:
                assert all(v == 0 for v in m.stay)
            assert m.down[0] == 0 and m.up[0] == 1 and m.up[n] == 0


def test_power_step_examples():
    p = make_scheme(2, 3)
    m = radial_matrix(p)
    one = power_step(point_mass(p), m)
    assert one.mass == (0, 1, 0)
    two = power_step(one, m)
    assert two.mass == (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))


def test_power_step_params_mismatch():
    with pytest.raises(ParameterError):
        power_step(point_mass(make_scheme(2, 3)), radial_matrix(make_scheme(3, 3)))


def test_uniform_is_fixed_point():
    for n in range(1, 11):
        for q in (2, 3, 6):
            p = make_scheme(n, q)
            u = uniform(p)
            assert power_step(u, radial_matrix(p)).mass == u.mass


def test_reversibility():
    for n in (1, 5, 12):
        for q in (2, 3, 6):
            assert reversibility_holds(make_scheme(n, q))


def test_kstep_oracle_examples():
    p = make_scheme(2, 3)
    assert kstep_oracle(p, 0).mass == point_mass(p).mass
    assert kstep_oracle(p, 2).mass == (
        Fraction(1, 4),
        Fraction(1, 4),
        Fraction(1, 2),
    )
    assert tv_distance(kstep_oracle(p, 2), uniform(p)) == Fraction(7, 36)


def test_bit_budget_aborts():
    with pytest.raises(ResourceBudgetError):
        kstep_oracle(make_scheme(12, 3), 500, bit_budget=2000)


def test_enumerate_tiny_examples():
    assert enumerate_tiny(make_scheme(1, 3), 1).mass == (0, 1)
    p = make_scheme(3, 2)
    assert enumerate_tiny(p, 2).mass == kstep_oracle(p, 2).mass
    p = make_scheme(2, 3)
    assert enumerate_tiny(p, 4).mass == kstep_oracle(p, 4).mass


def test_enumerate_tiny_budget():
    # H(13, 3) has 1,594,323 vertices, past DEFAULT_STATE_BUDGET
    with pytest.raises(ResourceBudgetError, match="1594323 exceeds the state budget"):
        enumerate_tiny(make_scheme(13, 3), 1)


def test_float_powering_matches_exact():
    for n, q, k in [(5, 3, 40), (30, 3, 300), (8, 2, 64), (6, 6, 25)]:
        p = make_scheme(n, q)
        ex = kstep_oracle(p, k)
        fl = next(kstep_trajectory(p, (k,), "float"))[1]
        assert max(abs(float(a) - b) for a, b in zip(ex.mass, fl.mass)) < 1e-13


def test_mass_invariants_along_trajectories():
    for n, q in [(4, 3), (6, 2), (3, 6)]:
        p = make_scheme(n, q)
        m = radial_matrix(p)
        d = point_mass(p)
        for _ in range(25):
            d = power_step(d, m)
            assert all(v >= 0 for v in d.mass)
            assert d.total_mass() == 1


def test_float_step_arrays_match_radial_matrix():
    for n in (1, 2, 7, 30, 119, 300, 1000):
        for q in (2, 3, 4, 7, 16):
            p = make_scheme(n, q)
            m = radial_matrix(p)
            arrays = float_step_arrays(p)
            for exact, fl in zip((m.down, m.stay, m.up), arrays):
                assert fl.tolist() == [float(v) for v in exact]


def test_float_trajectory_matches_single_k_powering():
    p = make_scheme(25, 4)
    ks = (0, 1, 2, 9, 40, 41, 150)

    def float_single(p, k):
        return next(kstep_trajectory(p, (k,), "float"))[1]

    for backend, single in (("float", float_single), ("exact", kstep_oracle)):
        got = list(kstep_trajectory(p, ks, backend))
        assert [k for k, _ in got] == list(ks)
        for k, dist in got:
            assert dist.backend == backend
            assert list(dist.mass) == list(single(p, k).mass)
        assert list(kstep_trajectory(p, (), backend)) == []
        for bad in ((3, 2), (4, 4), (-1, 2)):
            with pytest.raises(ParameterError):
                list(kstep_trajectory(p, bad, backend))
    with pytest.raises(ParameterError):
        list(kstep_trajectory(p, ks, "decimal"))


def test_kstep_tv_matches_tv_of_the_trajectory():
    # exact: equal Fractions; float: bit for bit the tv_distance glue
    for n, q in [(1, 3), (2, 2), (7, 4), (25, 3)]:
        p = make_scheme(n, q)
        ks = (0, 1, 5, 40, 77)
        for backend in ("exact", "float"):
            uni = uniform(p, backend)
            ref = [(k, tv_distance(d, uni)) for k, d in kstep_trajectory(p, ks, backend)]
            assert list(kstep_tv(p, ks, backend)) == ref
    # float at n = 300 across a_n +- 4 b_n, where the order of the fsum
    # terms matters for its cost: still the natural-order sum, bit for bit
    p = make_scheme(300, 3)
    uni = uniform(p, "float").mass
    ks = range(240, 1041, 25)
    ref = [(k, 0.5 * math.fsum(np.abs(d.mass - uni)))
           for k, d in kstep_trajectory(p, ks, "float")]
    assert list(kstep_tv(p, ks, "float")) == ref
    with pytest.raises(ResourceBudgetError):
        list(kstep_tv(make_scheme(12, 3), (500,), "exact", bit_budget=2000))
    for bad in ((3, 2), (-1,)):
        with pytest.raises(ParameterError):
            list(kstep_tv(p, bad, "exact"))
    with pytest.raises(ParameterError):
        list(kstep_tv(p, (1,), "decimal"))


def _counted_steps(monkeypatch):
    """A list that grows by one at each `radial.int_power_step` call."""
    calls, step = [], radial.int_power_step

    def counting_step(*args):
        calls.append(1)
        return step(*args)

    monkeypatch.setattr(radial, "int_power_step", counting_step)
    return calls


def test_bit_budget_trips_exactly_past_the_numerator_bits(monkeypatch):
    # the price (min(n, k) + 1)(k bitlen(d) + 1) from the point mass, d =
    # 27: a budget equal to it is served, one bit less is refused before
    # any step toward k
    p = make_scheme(9, 4)
    m = radial_matrix(p)
    ref = [point_mass(p)]  # the Fraction reference, one power_step per k
    for _ in range(40):
        ref.append(power_step(ref[-1], m))
    steps = _counted_steps(monkeypatch)
    for k, price in ((1, 12), (17, 860), (40, 2010)):
        assert kstep_oracle(p, k, bit_budget=price).mass == ref[k].mass
        steps.clear()
        with pytest.raises(ResourceBudgetError, match=f"^exact numerators walk at n=9, q=4, "
                           f"k={k} may hold {price} bits, past the budget {price - 1}$"):
            kstep_oracle(p, k, bit_budget=price - 1)
        assert steps == []
    # k = 0 takes no step, so no budget applies
    assert kstep_oracle(p, 0, bit_budget=0).mass == point_mass(p).mass


def test_numerator_walks_trip_where_their_own_bits_say(monkeypatch):
    # each k is priced before the walk steps toward it: the simulate walks
    # at n = 300 serve k = 1 and refuse their second k after that one
    # step, and a walk whose budget binds only past its first k serves
    # that k
    steps = _counted_steps(monkeypatch)
    for q, k, price in ((4, 600, 1806301), (3, 400, 1204301)):
        steps.clear()
        walk = kstep_numerators(make_scheme(300, q), (1, k))
        assert next(walk)[0] == 1
        with pytest.raises(ResourceBudgetError, match=f"at n=300, q={q}, k={k} may hold "
                           f"{price} bits, past the budget 1000000$"):
            next(walk)
        assert len(steps) == 1
    p = make_scheme(9, 4)
    steps.clear()
    walk = kstep_numerators(p, (1, 40), 2010 // 2)
    assert next(walk)[0] == 1
    with pytest.raises(ResourceBudgetError, match="k=40 may hold 2010 bits, past the budget 1005$"):
        next(walk)
    assert len(steps) == 1


def test_a_range_of_steps_is_checked_without_being_built():
    huge = range(0, 10 ** 30, 7)
    assert radial._sorted_steps(huge) is huge
    for ks in (range(3, 3), range(4, 5, -1), range(4, 3, -1), range(0, 10 ** 30)):
        assert radial._sorted_steps(ks) is ks
    with pytest.raises(ParameterError, match="sorted"):
        radial._sorted_steps(range(10 ** 30, 0, -1))
    with pytest.raises(ParameterError, match=">= 0"):
        radial._sorted_steps(range(-3, 10 ** 30))
    with pytest.raises(ParameterError, match=">= 0"):
        radial._sorted_steps(range(5, -2, -3))
    assert radial._sorted_steps(iter([2, 5])) == (2, 5)


def test_step_call_budget_refuses_a_pass_before_its_first_step(monkeypatch):
    monkeypatch.setattr(radial, "float_power_step", lambda *a: pytest.fail("stepped"))
    p, q = make_scheme(3, 7), make_scheme(5, 7)
    _float_marks.cache_clear()
    # 4e10 class-steps pass the class-step budget, 10**10 step calls do not
    with pytest.raises(ResourceBudgetError,
                       match=r"^float pass of 10000000000 steps exceeds the step budget"):
        next(radial.float_lockstep(((p, range(0, 10 ** 10 + 1)),)))
    # the longest row sets the step calls: 10 here, 76 class-steps
    jobs = ((p, (4, 10)), (q, (6,)))
    monkeypatch.setattr(radial, "STEP_CALL_BUDGET", 9)
    with pytest.raises(ResourceBudgetError, match=r"of 10 steps exceeds the step budget 9$"):
        next(radial.float_lockstep(jobs))
    # the class-step budget is checked first
    monkeypatch.setattr(radial, "FLOAT_STEP_BUDGET", 75)
    with pytest.raises(ResourceBudgetError, match="76 class-steps"):
        next(radial.float_lockstep(jobs))


def test_exact_walks_are_planned_before_their_first_step(monkeypatch):
    # 10**8 steps of H(1, 3) plan only 2e8 class-steps, under that budget
    monkeypatch.setattr(radial, "int_power_step", lambda *a: pytest.fail("stepped"))
    with pytest.raises(ResourceBudgetError,
                       match="^exact numerators walk of 100000000 steps exceeds the step budget"):
        next(kstep_numerators(make_scheme(1, 3), range(0, 10 ** 8 + 1), math.inf))
    monkeypatch.setattr(radial, "FLOAT_STEP_BUDGET", 3 * 7 - 1)
    with pytest.raises(ResourceBudgetError, match="walk of 21 class-steps"):
        next(kstep_excess(make_scheme(2, 3), (0, 7), math.inf))


def test_excess_chain_is_numerators_minus_uniform():
    # e = num q**n - w (n(q-1))**k, the excess over uniform, at every k
    for n in range(1, 13):
        for q in range(2, 7):
            p = make_scheme(n, q)
            w, big_q, d = class_weights(p).w, p.size, p.degree
            pairs = zip(kstep_excess(p, range(61), math.inf),
                        kstep_numerators(p, range(61), math.inf))
            for (k, e), (_, num) in pairs:
                assert e == [v * big_q - wl * d ** k for v, wl in zip(num, w)], (n, q, k)


def test_excess_bit_budget_trips_exactly_past_the_excess_bits(monkeypatch):
    # the price (n + 1)(k bitlen(d) + bitlen(2(q**n - 1))) from the excess
    # start, d = 27 and 2(4**9 - 1) of 19 bits: a budget equal to it is
    # served, one bit less is refused before any step toward k
    p = make_scheme(9, 4)
    steps = _counted_steps(monkeypatch)
    for k, price in ((1, 240), (17, 1040), (40, 2190)):
        ref = next(kstep_excess(p, (k,), math.inf))[1]
        assert next(kstep_excess(p, (k,), price))[1] == ref
        assert next(kstep_tv(p, (k,), "exact", price))[1] == tv_distance(
            kstep_oracle(p, k), uniform(p))
        steps.clear()
        with pytest.raises(ResourceBudgetError, match=f"^exact excess walk at n=9, q=4, k={k} "
                           f"may hold {price} bits, past the budget {price - 1}$"):
            list(kstep_excess(p, (k,), price - 1))
        with pytest.raises(ResourceBudgetError, match=f"k={k} may hold {price} bits"):
            list(kstep_tv(p, (k,), "exact", price - 1))
        assert steps == []
    # k = 0 takes no step, so no budget applies
    assert next(kstep_tv(p, (0,), "exact", 0))[1] == 1 - Fraction(1, p.size)


def test_negative_bit_budget_is_a_usage_error_before_any_step(monkeypatch):
    monkeypatch.setattr(radial, "int_power_step", lambda *a: pytest.fail("stepped"))
    p = make_scheme(5, 3)
    for chain in (kstep_numerators, kstep_excess):
        for ks in ((), (0,), (3,)):
            with pytest.raises(ParameterError, match="bit budget"):
                list(chain(p, ks, -1))
    with pytest.raises(ParameterError, match="bit budget"):
        list(kstep_tv(p, (3,), "exact", -5))
    with pytest.raises(ParameterError, match="bit budget"):
        kstep_oracle(p, 3, bit_budget=-5)


def test_float_tv_matches_exact_across_the_n500_window():
    # every 7th k of the exact cutoff window a_n +- 4 b_n at (500, 3)
    p = make_scheme(500, 3)
    ks = range(483, 1819, 7)
    exact = kstep_tv(p, ks, "exact", 10 ** 7)
    for (k, fl), (ke, ex) in zip(kstep_tv(p, ks, "float"), exact, strict=True):
        assert k == ke
        assert abs(fl - float(ex)) < 1e-14, k


MARK_SCHEMES = [make_scheme(7, 3), make_scheme(12, 4), make_scheme(20, 5)]
step_lists = st.lists(st.integers(0, 60), max_size=5, unique=True).map(sorted)
float_calls = st.lists(
    st.tuples(
        st.sampled_from(("trajectory", "tv", "interleaved")),
        st.integers(0, len(MARK_SCHEMES) - 1),
        step_lists,
        step_lists,
        st.integers(0, 5),  # items taken before a generator is abandoned
    ),
    max_size=8,
)


def _masses(pairs):
    return [(k, dist.mass.tolist()) for k, dist in pairs]


def _run_float_call(call):
    """Outputs of one call: (k, masses) per trajectory, (k, tv) for tv."""
    op, i, ks, ks2, take = call
    p = MARK_SCHEMES[i]
    if op == "tv":
        return [list(kstep_tv(p, ks, "float"))]
    if op == "trajectory":
        return [_masses(islice(kstep_trajectory(p, ks, "float"), take))]
    # zip alternates next() on two live generators and abandons the longer
    both = list(zip(kstep_trajectory(p, ks, "float"), kstep_trajectory(p, ks2, "float")))
    return [_masses(a for a, _ in both), _masses(b for _, b in both)]


@settings(max_examples=60, deadline=None)
@given(float_calls)
def test_float_checkpoints_leave_outputs_bit_identical(calls):
    # any sequence of float calls on warm checkpoints equals a cold cache
    _float_marks.cache_clear()
    warm = [_run_float_call(call) for call in calls]
    for call, got in zip(calls, warm):
        _float_marks.cache_clear()
        assert got == _run_float_call(call), call


lockstep_jobs = st.lists(
    st.tuples(
        st.integers(1, 40),  # n
        st.integers(2, 9),  # q
        st.lists(st.integers(0, 120), max_size=6, unique=True).map(sorted),
        st.lists(st.integers(1, 120), max_size=3, unique=True).map(sorted),  # warm-up ks
    ),
    max_size=7,
)


def _walk_alone(p, ks):
    """(k, masses) of one scheme on its own 1-D float arrays from k = 0,
    each class stepped as (stay + up) + down."""
    down, stay, up = float_step_arrays(p)
    mass, done, out = point_mass(p, "float").mass, 0, []
    for k in ks:
        for _ in range(k - done):
            new = mass * stay
            new[1:] += mass[:-1] * up[:-1]
            new[:-1] += mass[1:] * down[1:]
            mass = new
        done = k
        out.append((k, mass.tolist()))
    return out


@settings(max_examples=60, deadline=None)
@given(lockstep_jobs)
@example([(1, 3, [0, 1, 2], []), (40, 5, [0, 3, 10], []), (1, 2, [0], [])])
@example([(1, 4, [0, 7], [5]), (30, 3, [4, 9, 21], [2, 3]), (6, 9, [], [1])])
def test_lockstep_pass_is_bit_identical_to_each_scheme_alone(jobs):
    # mixed n and q in one packed array (n = 1 rows, k = 0 events, a tail
    # row short of class n), rows resumed from checkpoints at different
    # k0: every mass equals the scheme's own cold 1-D walk, and every tv
    # its readers take is tv_distance of that law to the float uniform law
    schemes = [make_scheme(n, q) for n, q, _, _ in jobs]
    cold = []
    for p, (_, _, ks, _) in zip(schemes, jobs):
        alone = _walk_alone(p, ks)
        cold.append([(k, mass, tv_distance(RadialDistribution(p, mass, "float"),
                                           uniform(p, "float"))) for k, mass in alone])
        _float_marks.cache_clear()
        assert _masses(kstep_trajectory(p, ks, "float")) == alone
        _float_marks.cache_clear()
        assert list(kstep_tv(p, ks, "float")) == [(k, tv) for k, _, tv in cold[-1]]
    stack = [(p, ks) for p, (_, _, ks, _) in zip(schemes, jobs)]

    def warm_up():
        _float_marks.cache_clear()
        for p, (_, _, _, warm) in zip(schemes, jobs):
            list(kstep_trajectory(p, warm, "float"))

    warm_up()
    got = [[] for _ in jobs]
    for i, k, mass in radial.float_lockstep(stack):
        assert not mass.flags.writeable
        got[i].append((k, mass.tolist()))
    assert got == [[(k, mass) for k, mass, _ in rows] for rows in cold]
    # the packed pass's tv reader: a bound of -inf decides every cell in float
    warm_up()
    got = [[] for _ in jobs]
    cells = [(p, "minorant", [(k, 0.0, -math.inf) for k in ks]) for p, ks in stack]
    reports = bounds._bound_reports(
        cells, "float", lambda i, k, law: got[i].append((k, law.mass.tolist())))
    for i, rs in enumerate(reports):
        got[i] = [(k, mass, r.tv_exact) for (k, mass), r in zip(got[i], rs)]
    assert got == cold


def test_one_c_majorant_calls_resume_from_checkpoints(monkeypatch):
    steps = []
    step = radial.float_power_step

    def counting_step(*args):
        steps.append(1)
        return step(*args)

    monkeypatch.setattr(radial, "float_power_step", counting_step)
    p = make_scheme(40, 8)
    cs = tuple(0.25 * i for i in range(1, 25))  # verify_majorant's default grid
    _float_marks.cache_clear()
    reports = [bounds.check_majorant(p, c, "ceil", "float") for c in cs]
    assert len(steps) == max(r.k for r in reports)
    # the grid pass leaves the scheme's last state, past every one-c k, so
    # an ascending run walks again from k = 0, max k steps in all
    verify.verify_majorant(q_values=(8,), n_max=40)
    steps.clear()
    for c in cs:
        bounds.check_majorant(p, c, "ceil", "float")
    assert len(steps) == max(r.k for r in reports)


def test_verify_majorant_steps_its_whole_grid_in_lockstep(monkeypatch):
    steps = []
    step = radial.float_power_step

    def counting_step(*args):
        steps.append(1)
        return step(*args)

    monkeypatch.setattr(radial, "float_power_step", counting_step)
    _float_marks.cache_clear()
    report = verify.verify_majorant()
    k_max = max(math.ceil(bounds.schedule_step(make_scheme(n, q), 6.0))
                for q in range(3, 9) for n in range(1, 41))
    assert report.checked == 5688 and report.ok
    assert 0 < len(steps) <= k_max + 1  # one scheme after another: ~21,000


def test_verify_majorant_steps_only_the_live_rows_unpadded(monkeypatch):
    # each call steps the n+1 classes of every row still short of its
    # last k, end to end: no padding to the widest n
    sizes = []
    step = radial.float_power_step

    def counting_step(mass, *args):
        sizes.append(len(mass))
        return step(mass, *args)

    monkeypatch.setattr(radial, "float_power_step", counting_step)
    _float_marks.cache_clear()
    verify.verify_majorant()
    cs = tuple(0.25 * i for i in range(1, 25))
    schemes = [p for q in range(3, 9) for p in map(make_scheme, range(1, 41), [q] * 40)
               if bounds.majorant_in_scope(p)]
    last = [max(math.ceil(bounds.schedule_step(p, c)) for c in cs) for p in schemes]
    assert len(sizes) == max(last)
    live = [sum(p.n + 1 for p, k in zip(schemes, last) if k >= t)
            for t in range(1, len(sizes) + 1)]
    assert all(size <= bound for size, bound in zip(sizes, live))
    assert sizes[-1] == live[-1] and sizes[0] == live[0]


def test_float_checkpoints_stay_within_their_cap(capsys):
    p = make_scheme(1800, 3)
    _float_marks.cache_clear()
    assert cli.main(["profile", "--n", "1800", "--q", "3", "--k-min", "7400",
                     "--k-max", "12200", "--k-step", "20", "--backend", "float"]) == 0
    capsys.readouterr()
    # one state per scheme: the last row the profile yielded
    k, mass = _float_marks(p)
    assert k == 12200
    assert mass.shape == (1801,) and not mass.flags.writeable
    assert _float_marks.cache_info().maxsize == 32


def test_float_checkpoints_shared_by_threads():
    # threads recording and resuming on one scheme still get cold outputs
    p = make_scheme(2000, 3)  # one state per scheme: overwritten on every yield
    _float_marks.cache_clear()
    ref = dict(kstep_tv(p, range(201), "float"))
    rng = random.Random(5)
    plans = [[sorted(rng.sample(range(201), 8)) for _ in range(25)] for _ in range(6)]
    results, errors = [[] for _ in plans], []

    def work(i):
        try:
            for ks in plans[i]:
                results[i].append(list(kstep_tv(p, ks, "float")))
        except Exception as exc:  # reported below, not lost in the thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _float_marks.cache_clear()
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(plans))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    for plan, got in zip(plans, results):
        assert got == [[(k, ref[k]) for k in ks] for ks in plan]


def test_float_step_budget_refuses_a_pass_before_its_first_step(monkeypatch):
    p, q = make_scheme(3, 7), make_scheme(5, 7)
    jobs = ((p, (4, 10)), (q, (6,)))  # 10 * 4 + 6 * 6 = 76 class-steps from k = 0
    _float_marks.cache_clear()
    ref = list(radial.float_lockstep(jobs))
    _float_marks.cache_clear()
    monkeypatch.setattr(radial, "FLOAT_STEP_BUDGET", 76)
    assert [(i, k, mass.tolist()) for i, k, mass in radial.float_lockstep(jobs)] == [
        (i, k, mass.tolist()) for i, k, mass in ref]
    _float_marks.cache_clear()
    monkeypatch.setattr(radial, "FLOAT_STEP_BUDGET", 75)
    monkeypatch.setattr(radial, "float_power_step", lambda *a: pytest.fail("stepped"))
    with pytest.raises(ResourceBudgetError, match="76 class-steps"):
        next(radial.float_lockstep(jobs))
    # a row resumed from a checkpoint plans only the steps it has left
    _float_marks(p)[:] = 4, next(mass for i, k, mass in ref if (i, k) == (0, 4))
    monkeypatch.setattr(radial, "FLOAT_STEP_BUDGET", 23)
    with pytest.raises(ResourceBudgetError, match="24 class-steps"):
        next(radial.float_lockstep(((p, (10,)),)))
