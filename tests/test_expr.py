"""Term-language tests: parsing, evaluation, calculus, guarded quotients."""

import math

import numpy as np
import pytest

from conftest import (
    assert_expr_close,
    assert_guard_continuous,
    central_difference,
    random_expression,
)
from lpvembed.errors import (
    ArityMismatch,
    NegativeExponent,
    NonAffineFunctionArgument,
    NonFiniteEntry,
    ParseError,
    UnsupportedFunction,
)
from lpvembed.expr import (
    MAX_NESTING,
    Expression,
    FuncFactor,
    GuardedQuotient,
    Term,
    parse,
)

MSD_F = "0.1*sin(10*z1)*z2 + 0.2*z2^2 + 10*z1^3"


# --- parsing -------------------------------------------------------------------


def test_parse_msd_nonlinearity():
    e = parse(MSD_F, 2)
    assert len(e.terms) == 3
    assert e.n_vars == 2


def test_parse_cancellation_gives_zero():
    e = parse("0*z1 + z1 - z1", 2)
    assert e.terms == ()
    assert str(e) == "0"
    assert e.evaluate([3.7, -1.2]) == 0.0


def test_parse_rejects_nonaffine_argument():
    with pytest.raises(NonAffineFunctionArgument):
        parse("sin(z1*z2)", 2)
    with pytest.raises(NonAffineFunctionArgument):
        parse("sin(z1^2)", 1)
    with pytest.raises(NonAffineFunctionArgument):
        parse("cos(sin(z1))", 1)


def test_parse_accepts_affine_arguments():
    e = parse("tanh(2*z1 - 3*z2 + 0.5)", 2)
    (t,) = e.terms
    (f,) = t.factors
    assert f.weights == (2.0, -3.0)
    assert f.bias == 0.5


def test_parse_error_cases():
    with pytest.raises(UnsupportedFunction):
        parse("foo(z1)", 1)
    with pytest.raises(UnsupportedFunction):
        parse("Sin(z1)", 1)
    with pytest.raises(NegativeExponent):
        parse("z1^-2", 1)
    with pytest.raises(ParseError):
        parse("z1^2.5", 1)
    with pytest.raises(ParseError):
        parse("z3 + 1", 2)
    with pytest.raises(ParseError):
        parse("2z1", 1)
    with pytest.raises(ParseError):
        parse("z1/2", 1)
    with pytest.raises(ParseError):
        parse("q1 + 1", 1)


@pytest.mark.parametrize(
    "text", ["1e999*z1", "z1*1e308*10", "sin(1e999*z1)", "exp(1000)"]
)
def test_parse_rejects_nonfinite_coefficients(text):
    with pytest.raises(NonFiniteEntry):
        parse(text, 1)


def test_nonfinite_function_factor_rejected():
    factor = FuncFactor("sin", (math.inf,), 0.0)
    with pytest.raises(NonFiniteEntry):
        Expression.from_terms([Term(1.0, (0,), (factor,))], 1)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc_info:
        parse("z1 +", 1)
    assert exc_info.value.position is not None
    with pytest.raises(ParseError) as exc_info:
        parse("z1 @ z2", 2)
    assert exc_info.value.position == 3


def test_parse_parenthesized_powers_and_signs():
    e = parse("(z1 + 1)^2", 1)
    assert e == parse("z1^2 + 2*z1 + 1", 1)
    assert parse("-z1 - 2", 1) == parse("0 - z1 - 2", 1)
    assert parse("3*(-z1)", 1) == parse("-3*z1", 1)


@pytest.mark.parametrize(
    "templates, value",
    [(("({})",), "z1"), (("cos(0*{})",), "1"), (("({})", "cos(0*{})"), "1")],
    ids=["parentheses", "calls", "mixed"],
)
def test_parse_nesting_cap(templates, value):
    # one counter covers parentheses and function calls; the "(" that opens
    # level MAX_NESTING + 1 is the one reported
    def nested(depth):
        text = "z1"
        for k in range(depth):
            text = templates[k % len(templates)].format(text)
        return text

    assert parse(nested(MAX_NESTING), 1) == parse(value, 1)
    text = nested(MAX_NESTING + 1)
    with pytest.raises(ParseError, match="nesting") as exc_info:
        parse(text, 1)
    opens = [k for k, ch in enumerate(text) if ch == "("]
    assert exc_info.value.position == opens[MAX_NESTING]


@pytest.mark.parametrize("text", [7, 1.5, True, None, [], {}])
def test_parse_rejects_non_text(text):
    with pytest.raises(ParseError, match="must be text"):
        parse(text, 1)


def test_parse_sum_matches_left_fold():
    # Sums are canonicalized once; a left fold e = e +/- t merges each
    # coefficient in the same written order, so both agree bit for bit.
    rng = np.random.default_rng(71)
    monomials = ("z1", "z2^2", "z1*z2", "sin(z1 - z2)", "1")
    for _ in range(60):
        n = int(rng.integers(2, 40))
        signs = rng.choice(["+", "-"], n)
        pieces = [
            f"{float(rng.uniform(0.0, 10.0) * 10.0 ** rng.integers(-3, 4))!r}"
            f"*{rng.choice(monomials)}"
            for _ in range(n)
        ]
        text = "".join(f" {s} {p}" for s, p in zip(signs, pieces))
        ref = parse(pieces[0], 2).scale(-1.0 if signs[0] == "-" else 1.0)
        for s, p in zip(signs[1:], pieces[1:]):
            ref = ref - parse(p, 2) if s == "-" else ref + parse(p, 2)
        got = parse(text, 2)
        assert got.terms == ref.terms, text
        assert str(got) == str(ref)


def test_canonical_merge_and_constant_fold():
    assert parse("z1*z2 + z2*z1", 2) == parse("2*z1*z2", 2)
    # a factor with all-zero weights folds into the coefficient
    assert parse("2*cos(0*z1)", 1) == parse("2", 1)
    assert parse("sin(0*z1)*z1", 1).terms == ()


# --- printing / round trip -------------------------------------------------------


def test_print_parse_round_trip_fixed():
    for text, n in [(MSD_F, 2), ("1e-3*exp(0.2*z1 - 0.1) - z2^4", 2), ("0", 1)]:
        e = parse(text, n)
        assert parse(str(e), n) == e
        assert str(parse(str(e), n)) == str(e)


def test_print_parse_round_trip_random():
    rng = np.random.default_rng(7)
    for _ in range(120):
        n = int(rng.integers(1, 5))
        e = random_expression(rng, n)
        assert parse(str(e), n) == e


def test_terms_are_sorted_deterministically():
    e = parse("z2 + z1 + z1^2", 2)
    assert [t.exponents for t in e.terms] == [(0, 1), (1, 0), (2, 0)]


# --- evaluation ----------------------------------------------------------------


def test_evaluate_msd_values():
    e = parse(MSD_F, 2)
    assert e.evaluate([0.0, 0.0]) == 0.0
    assert e.evaluate([1.0, 0.0]) == 10.0
    assert e.evaluate([0.0, 1.0]) == 0.2


def test_evaluate_arity_mismatch():
    with pytest.raises(ArityMismatch):
        parse("z1", 1).evaluate([1.0, 2.0])


def test_evaluate_batch_matches_scalar():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        e = random_expression(rng, n)
        Z = rng.uniform(-3.0, 3.0, (40, n))
        batch = e.evaluate_batch(Z)
        scalar = np.array([e.evaluate(list(z)) for z in Z])
        np.testing.assert_allclose(batch, scalar, rtol=1e-13, atol=1e-300)


def test_evaluate_finite_everywhere():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        e = random_expression(rng, n)
        Z = rng.uniform(-3.0, 3.0, (50, n))
        assert np.all(np.isfinite(e.evaluate_batch(Z)))


# --- differentiation -------------------------------------------------------------


def test_partial_power_rule():
    assert parse("10*z1^3", 2).partial(1) == parse("30*z1^2", 2)


def test_partial_linear_factor():
    e = parse("0.1*sin(10*z1)*z2", 2)
    assert e.partial(2) == parse("0.1*sin(10*z1)", 2)


def test_partial_chain_rule_at_zero():
    e = parse("sin(10*z1)", 1)
    d = e.partial(1)
    assert d.evaluate([0.0]) == 10.0
    fd = central_difference(e, [0.0], 1, 1e-6)
    assert abs(d.evaluate([0.0]) - fd) <= 1e-6 * (1.0 + abs(fd))


@pytest.mark.parametrize("text,n,expected", [
    ("tanh(z1)", 1, "1 - tanh(z1)^2"),
    ("cosh(2*z1)", 1, "2*sinh(2*z1)"),
    ("exp(0.5*z1)", 1, "0.5*exp(0.5*z1)"),
])
def test_partial_function_set_closed(text, n, expected):
    assert parse(text, n).partial(1) == parse(expected, n)


def test_partial_matches_finite_differences():
    rng = np.random.default_rng(17)
    h = 1e-5
    for _ in range(60):
        n = int(rng.integers(1, 5))
        e = random_expression(rng, n)
        for _ in range(10):
            z = [float(v) for v in rng.uniform(-2.0, 2.0, n)]
            i = int(rng.integers(1, n + 1))
            sym = e.partial(i).evaluate(z)
            fd = central_difference(e, z, i, h)
            assert abs(sym - fd) <= 1e-6 * (1.0 + abs(sym))


# --- restriction ------------------------------------------------------------------


def test_restrict_msd_examples():
    e = parse(MSD_F, 2)
    assert e.restrict([1]) == parse("10*z1^3", 2)
    assert e.restrict([]).terms == ()
    assert e.restrict([1, 2]) == e


def test_restrict_rebiases_function_factors():
    e = parse("sin(z1 + 2*z2 + 0.5)", 2)
    r = e.restrict([1])
    assert r == parse("sin(z1 + 0.5)", 2)


def test_restrict_keeps_any_set_of_variables():
    e = parse("z1*z2 + z1 + z2^2*sin(z1 + 2*z2) + 3*cos(0.5*z1 - z2 + 1)", 2)
    assert e.restrict({2}) == parse("z2^2*sin(2*z2) + 3*cos(-z2 + 1)", 2)
    # the tanh factor loses its middle weight; exp(0.2*z2) folds to 1
    e = parse("z1*z3*tanh(z1 - 4*z2 + z3 + 0.5) + z1*z2 + exp(0.2*z2)", 3)
    assert e.restrict({1, 3}) == parse("z1*z3*tanh(z1 + z3 + 0.5) + 1", 3)
    with pytest.raises(ValueError):
        e.restrict({0, 1})
    with pytest.raises(ValueError):
        e.restrict({4})


def test_restrict_composition_laws():
    rng = np.random.default_rng(19)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        e = random_expression(rng, n)
        assert e.restrict(range(1, n + 1)) == e
        i = int(rng.integers(0, n + 1))
        j = int(rng.integers(0, n + 1))
        assert_expr_close(
            e.restrict(range(1, i + 1)).restrict(range(1, j + 1)),
            e.restrict(range(1, min(i, j) + 1)),
        )


# --- exact division -----------------------------------------------------------------


def test_divide_msd_examples():
    assert parse("10*z1^3", 2).try_exact_divide(1) == parse("10*z1^2", 2)
    e = parse("0.1*sin(10*z1)*z2 + 0.2*z2^2", 2)
    assert e.try_exact_divide(2) == parse("0.1*sin(10*z1) + 0.2*z2", 2)
    assert parse("sin(10*z1)", 1).try_exact_divide(1) is None


def test_divide_soundness_property():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        i = int(rng.integers(1, n + 1))
        e = random_expression(rng, n)
        multiplied = e * Expression.variable(i, n)
        back = multiplied.try_exact_divide(i)
        assert back is not None
        for _ in range(10):
            z = [float(v) for v in rng.uniform(-3.0, 3.0, n)]
            lhs = back.evaluate(z) * z[i - 1]
            rhs = multiplied.evaluate(z)
            assert abs(lhs - rhs) <= 1e-14 * (1.0 + abs(rhs))


# --- guarded quotients ----------------------------------------------------------------


def make_sinc_like():
    num = parse("sin(10*z1)", 1)
    return GuardedQuotient(num, 1, num.partial(1))


def test_guarded_quotient_branches():
    q = make_sinc_like()
    v = q.evaluate([math.pi / 10.0])
    assert abs(v) <= 1e-14  # sin(pi)/ (pi/10)
    assert q.evaluate([0.0]) == 10.0  # derivative branch exactly at zero


def test_guarded_quotient_near_guard():
    q = make_sinc_like()
    tau_eff = q.effective_threshold([0.0])
    inside = q.evaluate([tau_eff / 2.0])
    outside = q.evaluate([2.0 * tau_eff])
    assert abs(inside - outside) <= 1e-9


def test_guarded_quotient_batch_matches_scalar():
    q = make_sinc_like()
    z = np.linspace(-1e-6, 1e-6, 101)[:, None]
    batch = q.evaluate_batch(z)
    scalar = np.array([q.evaluate([v]) for v in z[:, 0]])
    np.testing.assert_array_equal(batch, scalar)


def test_guarded_quotient_continuity_sweep():
    rng = np.random.default_rng(29)
    assert_guard_continuous(make_sinc_like(), rng)
    num = parse("tanh(z1 + 0.3*z2)*z2 - tanh(0.3*z2)*z2", 2)
    q = GuardedQuotient(num, 1, num.partial(1))
    assert_guard_continuous(q, rng)
