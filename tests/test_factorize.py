"""Factorization tests: offset extraction, orderings, reconstruction."""

import itertools
import math

import numpy as np
import pytest

from conftest import (
    assert_guard_continuous,
    random_expression_vector,
)
from lpvembed.errors import InvalidOrdering, NonFiniteEntry, NonzeroAtOrigin
from lpvembed.expr import GuardedQuotient, parse
from lpvembed.factorize import (
    SchedulingMap,
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


# --- orderings on the two-mass example ---------------------------------------------


def test_factorize_msd_default_ordering():
    f_tilde, c = extract_offset((MSD_F,))
    m = factorize(f_tilde, (1, 2), c=c)
    assert m.entry(1, 1) == parse("10*z1^2", 2)
    assert m.entry(1, 2) == parse("0.1*sin(10*z1) + 0.2*z2", 2)
    assert m.channels() == ((1, 1), (1, 2))


def test_factorize_msd_reversed_ordering():
    f_tilde, c = extract_offset((MSD_F,))
    m = factorize(f_tilde, (2, 1), c=c)
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


def test_factorize_requires_zero_at_origin():
    with pytest.raises(NonzeroAtOrigin):
        factorize((parse("z1^2 + 1", 1),))


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
    f_tilde, c = extract_offset((MSD_F,))
    for ordering in ((1, 2), (2, 1)):
        m = factorize(f_tilde, ordering, c=c)
        report = check_reconstruction(m, (MSD_F,), Z)
        assert report.passed, str(report)


def test_reconstruction_negative_control():
    rng = np.random.default_rng(43)
    Z = rng.uniform(-2.0, 2.0, (200, 2))
    f_tilde, c = extract_offset((MSD_F,))
    m = factorize(f_tilde, (1, 2), c=c)
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
    f_tilde, c = extract_offset(f)
    m = factorize(f_tilde, (1,), c=c)
    with pytest.raises(NonFiniteEntry, match=message):
        check_reconstruction(m, f, [[0.1], [-0.5], [z1], [0.2]])


def test_reconstruction_random_vectors_all_orderings():
    rng = np.random.default_rng(47)
    for _ in range(30):
        n_z = int(rng.integers(1, 5))
        n_w = int(rng.integers(1, 4))
        f = random_expression_vector(rng, n_w, n_z)
        f_tilde, c = extract_offset(f)
        Z = rng.uniform(-3.0, 3.0, (300, n_z))
        if n_z <= 3:
            orderings = list(itertools.permutations(range(1, n_z + 1)))
        else:
            orderings = [tuple(rng.permutation(n_z) + 1)]
        for ordering in orderings:
            m = factorize(f_tilde, ordering, c=c)
            report = check_reconstruction(m, f, Z)
            assert report.passed, f"{ordering}: {report}"


def test_ordering_covariance():
    # entry (r, sigma(k)) depends only on z_sigma(1..k): finite-difference
    # sensitivity to any excluded variable stays at zero
    rng = np.random.default_rng(53)
    for _ in range(10):
        n_z = int(rng.integers(2, 5))
        f = random_expression_vector(rng, 1, n_z)
        f_tilde, c = extract_offset(f)
        ordering = tuple(rng.permutation(n_z) + 1)
        m = factorize(f_tilde, ordering, c=c)
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
        f_tilde, c = extract_offset(tuple(rows))
        m = factorize(f_tilde, tuple(rng.permutation(n_z) + 1), c=c)
        for row in m.entries:
            for entry in row:
                assert not isinstance(entry, GuardedQuotient)


def test_guard_continuity_of_produced_entries():
    rng = np.random.default_rng(61)
    found = 0
    for _ in range(15):
        n_z = int(rng.integers(2, 4))
        f = random_expression_vector(rng, 2, n_z)
        f_tilde, c = extract_offset(f)
        m = factorize(f_tilde, c=c)
        for row in m.entries:
            for entry in row:
                if isinstance(entry, GuardedQuotient):
                    found += 1
                    assert_guard_continuous(entry, rng, n_contexts=4)
    assert found > 0  # the sample must actually exercise guarded entries
