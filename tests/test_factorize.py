"""Factorization tests: offset extraction, orderings, reconstruction."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_guard_continuous,
    random_expression_vector,
)
from lpvembed.errors import InvalidOrdering, ModelFormatError, NonFiniteEntry
from lpvembed.expr import Expression, FuncFactor, GuardedQuotient, Term, parse
from lpvembed.factorize import (
    SchedulingMap,
    _check_removable,
    check_reconstruction,
    extract_offset,
    factorize,
)

MSD_F = parse("0.1*sin(10*z1)*z2 + 0.2*z2^2 + 10*z1^3", 2)


# --- offset extraction -----------------------------------------------------------


def test_extract_offset_msd():
    f_tilde, c = extract_offset((MSD_F,))
    assert np.array_equal(c, [0.0])
    assert f_tilde == (MSD_F,)


def test_extract_offset_polynomial_constant():
    f_tilde, c = extract_offset((parse("z1^2 + 1", 1),))
    assert np.array_equal(c, [1.0])
    assert f_tilde == (parse("z1^2", 1),)


def test_extract_offset_transcendental_constant():
    f = parse("sin(z1) + cos(z1)", 1)
    f_tilde, c = extract_offset((f,))
    assert np.array_equal(c, [1.0])  # sin(0) + cos(0)
    assert f_tilde[0].evaluate([0.0]) == 0.0
    assert f_tilde[0] == parse("sin(z1) + cos(z1) - 1", 1)


def test_extract_offset_refuses_rows_of_differing_arity():
    with pytest.raises(ModelFormatError, match="rows have differing arity"):
        extract_offset((parse("z1", 1), parse("z1", 2)))


# --- orderings on the two-mass example ---------------------------------------------


def test_factorize_msd_default_ordering():
    m = factorize((MSD_F,), (1, 2))
    assert m.entry(1, 1) == parse("10*z1^2", 2)
    assert m.entry(1, 2) == parse("0.1*sin(10*z1) + 0.2*z2", 2)
    assert m.channels() == ((1, 1), (1, 2))


def test_factorize_msd_reversed_ordering():
    m = factorize((MSD_F,), (2, 1))
    assert m.entry(1, 2) == parse("0.2*z2", 2)
    q = m.entry(1, 1)
    assert isinstance(q, GuardedQuotient)
    assert q.numerator == parse("0.1*sin(10*z1)*z2 + 10*z1^3", 2)
    assert q.derivative == parse("cos(10*z1)*z2 + 30*z1^2", 2)
    z = [0.3, 0.5]
    expected = (0.1 * math.sin(3.0) * 0.5 + 10.0 * 0.3**3) / 0.3
    assert q.evaluate(z) == pytest.approx(expected, rel=1e-14)


def test_factorize_cross_term_prunes():
    m = factorize((parse("z1*z2", 2),), (1, 2))
    assert m.entry(1, 1) is None
    assert m.entry(1, 2) == parse("z1", 2)
    assert m.channels() == ((1, 2),)


def test_factorize_splits_off_the_offset():
    m = factorize((parse("z1^2 + 1", 1),))
    assert np.array_equal(m.c, [1.0])
    assert m.entry(1, 1) == parse("z1", 1)


def test_rounding_at_the_origin_is_not_refused():
    # f_tilde(0) adds -c to the other terms at z = 0 and rounds here to
    # -1.2e-10; that is no fault of f, and the map reconstructs it
    f = (parse("1e6*exp(z1) + 0.1*cos(z1) + 0.2*cos(2*z1)", 1),)
    assert extract_offset(f)[0][0].evaluate([0.0]) != 0.0
    m = factorize(f)
    assert np.array_equal(m.c, [1000000.3])
    assert check_reconstruction(m, f, np.linspace(-2.0, 2.0, 101)[:, None]).passed


def test_overflow_at_the_origin_is_typed():
    f = (parse("z1^2", 2), parse("exp(z1 + 800)*z2", 2))
    for split in (extract_offset, factorize):
        with pytest.raises(NonFiniteEntry, match="row 2 overflows at z = 0"):
            split(f)
    # a product that overflows to inf without raising is refused too
    with pytest.raises(NonFiniteEntry, match="row 1 evaluates to inf at z = 0"):
        factorize((parse("1e300*exp(z1 + 700)", 1),))


def test_factorize_rejects_bad_ordering():
    with pytest.raises(InvalidOrdering):
        factorize((parse("z1", 2),), (1, 1))
    with pytest.raises(InvalidOrdering):
        factorize((parse("z1", 2),), (1, 3))


def test_zero_entries_evaluate_to_zero():
    # z1*z2 along (1, 2): all of it goes to column 2, so entry (1, 1) is
    # structurally zero, not an expression that happens to evaluate to 0
    m = factorize((parse("z1*z2", 2),), (1, 2))
    assert m.entry(1, 1) is None
    assert m.channels() == ((1, 2),)


# --- reconstruction --------------------------------------------------------------


def test_reconstruction_msd_both_orderings():
    rng = np.random.default_rng(41)
    Z = rng.uniform(-2.0, 2.0, (1000, 2))
    for ordering in ((1, 2), (2, 1)):
        m = factorize((MSD_F,), ordering)
        report = check_reconstruction(m, (MSD_F,), Z)
        assert report.passed, str(report)


def test_reconstruction_negative_control():
    rng = np.random.default_rng(43)
    Z = rng.uniform(-2.0, 2.0, (200, 2))
    m = factorize((MSD_F,), (1, 2))
    rows = list(m.entries)
    rows[0] = (None, m.entry(1, 2))  # artificially zero one entry
    broken = SchedulingMap(tuple(rows), m.ordering, m.c)
    report = check_reconstruction(broken, (MSD_F,), Z)
    assert not report.passed
    assert report.row_max_rel_error[0] > 1e-6


@pytest.mark.parametrize(
    "text, z1, message",
    [
        ("exp(800*z1) - 1", 40.0, "overflow at sample #2"),
        ("z1^200 + sin(z1)", 40.0, "overflow at sample #2"),
        ("1e300*z1^3", 1e3, "not finite at sample #2"),  # a * that gives inf
    ],
)
def test_reconstruction_overflow_is_typed(text, z1, message):
    f = (parse(text, 1),)
    m = factorize(f, (1,))
    with pytest.raises(NonFiniteEntry, match=message):
        check_reconstruction(m, f, [[0.1], [-0.5], [z1], [0.2]])


def test_reconstruction_random_vectors_all_orderings():
    rng = np.random.default_rng(47)
    for _ in range(30):
        n_z = int(rng.integers(1, 5))
        n_w = int(rng.integers(1, 4))
        f = random_expression_vector(rng, n_w, n_z)
        Z = rng.uniform(-3.0, 3.0, (300, n_z))
        if n_z <= 3:
            orderings = list(itertools.permutations(range(1, n_z + 1)))
        else:
            orderings = [tuple(rng.permutation(n_z) + 1)]
        for ordering in orderings:
            m = factorize(f, ordering)
            report = check_reconstruction(m, f, Z)
            assert report.passed, f"{ordering}: {report}"


def test_ordering_covariance():
    # entry (r, sigma(k)) depends only on z_sigma(1..k): finite-difference
    # sensitivity to any excluded variable stays at zero
    rng = np.random.default_rng(53)
    for _ in range(10):
        n_z = int(rng.integers(2, 5))
        f = random_expression_vector(rng, 1, n_z)
        ordering = tuple(rng.permutation(n_z) + 1)
        m = factorize(f, ordering)
        for k, i in enumerate(ordering):
            entry = m.entry(1, i)
            if entry is None:
                continue
            allowed = set(ordering[: k + 1])
            for j in range(1, n_z + 1):
                if j in allowed:
                    continue
                z = rng.uniform(-2.0, 2.0, n_z)
                zp = z.copy()
                zp[j - 1] += 1e-4
                zm = z.copy()
                zm[j - 1] -= 1e-4
                sens = abs(entry.evaluate(zp) - entry.evaluate(zm)) / 2e-4
                assert sens <= 1e-8, (ordering, i, j)


def test_polynomial_closure_no_guards():
    rng = np.random.default_rng(59)
    for _ in range(20):
        n_z = int(rng.integers(1, 5))
        rows = []
        for _ in range(int(rng.integers(1, 3))):
            text_terms = []
            for _ in range(int(rng.integers(1, 5))):
                j = int(rng.integers(1, n_z + 1))
                k = int(rng.integers(1, n_z + 1))
                coeff = rng.uniform(-2, 2)
                text_terms.append(f"({coeff!r})*z{j}*z{k}")
            rows.append(parse(" + ".join(text_terms), n_z))
        m = factorize(tuple(rows), tuple(rng.permutation(n_z) + 1))
        for row in m.entries:
            for entry in row:
                assert not isinstance(entry, GuardedQuotient)


def test_guard_continuity_of_produced_entries():
    rng = np.random.default_rng(61)
    found = 0
    for _ in range(15):
        n_z = int(rng.integers(2, 4))
        f = random_expression_vector(rng, 2, n_z)
        m = factorize(f)
        for row in m.entries:
            for entry in row:
                if isinstance(entry, GuardedQuotient):
                    found += 1
                    assert_guard_continuous(entry, rng, n_contexts=4)
    assert found > 0  # the sample must actually exercise guarded entries


# few distinct numbers, so that terms meet on one key when variables are
# restricted away and merges in different orders round differently
_COEFFS = st.sampled_from([0.1, 0.2, 0.3, -0.6, 0.7, -1.1, 1.3])
_WEIGHTS = st.sampled_from([0.0, 0.0, 1.0, -1.0, 0.5])
_EXPONENTS = st.sampled_from([0, 0, 0, 1, 2])


def _term(data, n_z: int, biases) -> Term:
    factors = tuple(
        FuncFactor(
            data.draw(st.sampled_from(["sin", "cos", "tanh", "exp"])),
            tuple(data.draw(st.lists(_WEIGHTS, min_size=n_z, max_size=n_z))),
            data.draw(biases),
        )
        for _ in range(data.draw(st.integers(0, 2)))
    )
    exps = data.draw(st.lists(_EXPONENTS, min_size=n_z, max_size=n_z))
    return Term(data.draw(_COEFFS), tuple(exps), factors)


def _free_of(t: Term, i: int) -> Term:
    """t with z_i's exponent and weights set to zero."""
    def drop(values, zero):
        return (*values[: i - 1], zero, *values[i:])

    factors = tuple(FuncFactor(f.name, drop(f.weights, 0.0), f.bias) for f in t.factors)
    return Term(t.coeff, drop(t.exponents, 0), factors)


def test_removability_of_merge_prone_rows():
    # every guarded numerator factorize builds, under every ordering, passes
    # the restriction check, rounding residues included; the numerator plus
    # any term free of z_i (its biases nonzero, so no factor folds to 0) is
    # refused.  Under every ordering the map keeps extract_offset's c, bit
    # for bit, and a row with a term that is not constant keeps a channel
    seen = {"quotients": 0, "residues": 0}

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.data())
    def check(data):
        n_z = data.draw(st.integers(1, 4))
        terms = [_term(data, n_z, st.sampled_from([0.0, 0.0, 0.5]))
                 for _ in range(data.draw(st.integers(2, 7)))]
        extra = _term(data, n_z, st.sampled_from([0.5, -0.25, 1.0]))
        f = [Expression.from_terms(terms, n_z)]
        c = extract_offset(f)[1]
        varies = any(any(t.exponents) or t.factors for t in f[0].terms)
        for ordering in itertools.permutations(range(1, n_z + 1)):
            m = factorize(f, ordering)
            assert m.c.tobytes() == c.tobytes()
            assert bool(m.channels()) == varies
            for q in m.entries[0]:
                if not isinstance(q, GuardedQuotient):
                    continue
                i = q.divisor_index
                _check_removable(q.numerator, i)
                seen["quotients"] += 1
                others = [j for j in range(1, n_z + 1) if j != i]
                seen["residues"] += bool(q.numerator.restrict(others).terms)
                pole = q.numerator + Expression.from_terms([_free_of(extra, i)], n_z)
                with pytest.raises(ModelFormatError, match=f"not vanish on z{i} = 0"):
                    _check_removable(pole, i)

    check()
    assert seen["residues"] > 0, seen  # the draw must exercise rounding residues
