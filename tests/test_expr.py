"""Term-language tests: parsing, evaluation, calculus, guarded quotients."""

import dataclasses
import math
import operator
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_expr_close,
    assert_guard_continuous,
    central_difference,
    random_expression,
    random_expression_vector,
)
from lpvembed.errors import (
    ArityMismatch,
    LpvEmbedError,
    NegativeExponent,
    NonAffineFunctionArgument,
    NonFiniteEntry,
    ParseError,
    UnsupportedFunction,
)
from lpvembed.expr import (
    DEFAULT_GUARD_TAU,
    EMITTED_FUNCTIONS,
    FUNCTIONS,
    MAX_EXPONENT,
    MAX_NESTING,
    Expression,
    FuncFactor,
    GuardedQuotient,
    Term,
    ValueTable,
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


def test_parse_exponent_cap():
    # e ** k multiplies k times, so an exponent above the cap is refused
    # before the first multiplication, at the position of the exponent
    assert parse(f"z1^{MAX_EXPONENT}", 1).terms == (Term(1.0, (MAX_EXPONENT,), ()),)
    for exponent in (str(MAX_EXPONENT + 1), "0" * 5000 + str(MAX_EXPONENT + 1)):
        text = f"2*z1^{exponent}"
        with pytest.raises(ParseError, match="exponent") as exc_info:
            parse(text, 1)
        assert exc_info.value.position == text.index("^") + 1
    assert Expression.variable(1, 1) ** MAX_EXPONENT == parse(f"z1^{MAX_EXPONENT}", 1)
    with pytest.raises(ParseError, match="exponent"):
        Expression.variable(1, 1) ** (MAX_EXPONENT + 1)


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


_REF_TOKEN = re.compile(
    r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^()])"
)


def reference_parse(text: str, n: int) -> Expression:
    """parse folded from Expression's operators: every number, variable
    and call an Expression of its own, every product, power and sum an
    operator, so each step is canonicalized and checked on its own."""
    tokens, pos = [], 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _REF_TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    state = {"k": 0, "depth": 0}

    def peek_op():
        kind, val, _ = tokens[state["k"]]
        return val if kind == "op" else None

    def take():
        state["k"] += 1
        return tokens[state["k"] - 1]

    def group(at):
        state["depth"] += 1
        if state["depth"] > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", at)
        e = expression()
        kind, val, at = take()
        if (kind, val) != ("op", ")"):
            raise ParseError(f"expected ')', found {val or 'end of input'!r}", at)
        state["depth"] -= 1
        return e

    def expression():
        # a sum is canonicalized once, after its last term
        terms = []
        while True:
            sign = take()[1] if peek_op() in ("+", "-") else "+"
            t = term()
            terms += (t.scale(-1.0) if sign == "-" else t).terms
            if peek_op() not in ("+", "-"):
                return Expression.from_terms(terms, n)

    def term():
        e = power()
        while peek_op() == "*":
            take()
            e = e * power()
        return e

    def power():
        e = atom()
        if peek_op() != "^":
            return e
        take()
        kind, val, at = take()
        if (kind, val) == ("op", "-"):
            raise NegativeExponent("negative exponent", at)
        if kind != "num" or not re.fullmatch(r"\d+", val):
            raise ParseError("exponent must be a nonnegative integer", at)
        digits = val.lstrip("0") or "0"
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
            raise ParseError(f"exponent is above {MAX_EXPONENT}", at)
        return e ** int(digits)

    def atom():
        kind, val, at = take()
        if kind == "num":
            return Expression.constant(float(val), n)
        if (kind, val) == ("op", "("):
            return group(at)
        if kind != "name":
            raise ParseError(f"unexpected {val or 'end of input'!r}", at)
        m = re.match(r"z(\d+)\Z", val)
        if m:
            if not 1 <= int(m.group(1)) <= n:
                raise ParseError(f"variable {val} out of range for arity {n}", at)
            return Expression.variable(int(m.group(1)), n)
        if peek_op() != "(":
            raise ParseError(f"unknown identifier {val!r}", at)
        if val not in FUNCTIONS:
            raise UnsupportedFunction(
                f"unsupported function {val!r} (supported: {', '.join(sorted(FUNCTIONS))})",
                at,
            )
        arg = group(take()[2])
        weights, bias = [0.0] * n, 0.0
        for t in arg.terms:
            if t.factors or sum(t.exponents) > 1:
                raise NonAffineFunctionArgument("function argument must be affine in z", at)
            if sum(t.exponents) == 0:
                bias += t.coeff
            else:
                weights[t.exponents.index(1)] += t.coeff
        factor = FuncFactor(val, tuple(weights), bias)
        return Expression.from_terms([Term(1.0, (0,) * n, (factor,))], n)

    e = expression()
    kind, val, at = tokens[state["k"]]
    if kind != "end":
        raise ParseError(f"unexpected {val!r}", at)
    return e


def _outcome(parser, text, n):
    """The terms parser gives, every float as its bytes, or its error's
    type, message and position."""
    try:
        e = parser(text, n)
    except LpvEmbedError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
    pack = struct.Struct("d").pack
    return [
        (pack(t.coeff), t.exponents,
         [(f.name, [pack(w) for w in f.weights], pack(f.bias)) for f in t.factors])
        for t in e.terms
    ]


# numbers that overflow or underflow in products and powers, and zeros
_NUMBERS = ("0", "0.0", "1", "2", "0.5", "2.5", "10", ".5", "3.", "1e308", "1e-200",
            "1e-160", "1e999", "700", "1000", "0.1", "3e-5")
# tokens that break the grammar somewhere, or fold, overflow or underflow
_STRAYS = ("@", ")", "(", "*", "+", "-", "^", "^-1", "^2.5", "^300", "^0", "z3", "z0",
           "q", "foo(", "sin", "cos(0*z1 + 0.5)", "z1*1e308*10", "1e-200*1e-200*z1",
           "exp(1000)", "0*", " ")


def _grammar_text(tape: list[int]) -> str:
    """A text of the grammar, each choice read off the tape (the first
    option once it runs out): signed sums of up to four products of up to
    four powers 0 to 4 of numbers, variables, calls and parenthesized sums,
    nested at most three deep."""
    choices = iter(tape)

    def pick(options):
        return options[next(choices, 0) % len(options)]

    def more(count):
        return count < 4 and pick((False, True))

    def power(depth):
        kind = pick(("leaf", "leaf", "group", "call")) if depth < 3 else "leaf"
        if kind == "leaf":
            atom = pick(_LEAVES)
        elif kind == "group":
            atom = f"({signed_sum(depth + 1)})"
        else:
            atom = f"{pick(sorted(FUNCTIONS))}({signed_sum(depth + 1)})"
        return atom + pick(("", "^0", "^1", "^2", "^3", "^4"))

    def product(depth):
        powers = [power(depth)]
        while more(len(powers)):
            powers.append(power(depth))
        return "*".join(powers)

    def signed_sum(depth):
        text = pick(("", "-", "+")) + product(depth)
        count = 1
        while more(count):
            text += pick((" + ", " - ")) + product(depth)
            count += 1
        return text

    return signed_sum(0)


_LEAVES = ("z1", "z2", "cos(0*z1 + 0.5)", "0*z1") + _NUMBERS


@settings(derandomize=True, database=None, max_examples=1500, deadline=None)
@given(st.lists(st.integers(0, 2**16), min_size=8, max_size=160), st.data())
def test_parse_matches_operator_fold(tape, data):
    # the one-pass parser gives the Expression, or the error, that folding
    # the tokens with Expression's operators gives, bit for bit
    text = _grammar_text(tape)
    if data.draw(st.booleans()):  # a stray token somewhere
        k = data.draw(st.integers(0, len(text)))
        text = text[:k] + data.draw(st.sampled_from(_STRAYS)) + text[k:]
    assert _outcome(parse, text, 2) == _outcome(reference_parse, text, 2), text


@pytest.mark.parametrize("text, expected", [
    ("z1*1e308*10", (NonFiniteEntry, "expression coefficient inf is not finite", None)),
    ("-z1*1e308*10 + foo(z1)", (NonFiniteEntry, "expression coefficient inf is not finite", None)),
    ("1e-200*1e-200*z1*1e308*1e308", []),
    ("0^0*z2", "z2"),
    ("(1e-200*z1 + 1e-200)^2*z2", []),
    ("cos(0*z1 + 0.5)*z1", f"{math.cos(0.5)!r}*z1"),
    ("exp(1000)*0", (NonFiniteEntry, "constant exp(1000) overflows", None)),
    ("2*(z1 - z2)*3*z1", "-6*z1*z2 + 6*z1^2"),
    ("(z1 + z2)*(z1 - z2)", "-z2^2 + z1^2"),
])
def test_parse_fold_cases(text, expected):
    # a product checks each step as Expression's operators do: an overflow
    # raises at its product, before later atoms are read, and a product
    # that underflows to zero is dropped with what follows it
    got = _outcome(parse, text, 2)
    assert got == _outcome(reference_parse, text, 2)
    if isinstance(expected, str):
        assert str(parse(text, 2)) == expected
    else:
        assert got == expected


def test_operators_refuse_what_has_no_expression():
    e = parse("z1", 1)
    with pytest.raises(ArityMismatch, match="arity mismatch: 1 vs 2"):
        e + parse("z1", 2)
    with pytest.raises(NegativeExponent, match="negative exponent -1"):
        e ** -1


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
    # bit for bit, also for a guarded quotient at z_i = 0 and inside its band
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        e = random_expression(rng, n)
        Z = rng.uniform(-3.0, 3.0, (40, n))
        np.testing.assert_array_equal(
            e.evaluate_batch(Z), [e.evaluate(z) for z in Z.tolist()]
        )
        i = int(rng.integers(1, n + 1))
        q = GuardedQuotient(e - e.restrict(k for k in range(1, n + 1) if k != i), i)
        Z[:20, i - 1] = 0.0
        band = q.tau * (1.0 + np.max(np.abs(Z[10:20]), axis=1))
        Z[10:20, i - 1] = rng.uniform(-0.9, 0.9, 10) * band
        assert all(abs(z[i - 1]) <= q.effective_threshold(z) for z in Z[:20].tolist())
        np.testing.assert_array_equal(
            q.evaluate_batch(Z), [q.evaluate(z) for z in Z.tolist()]
        )


def test_evaluate_batch_overflow_raises_as_evaluate():
    # one arithmetic: an overflow raises instead of becoming inf or NaN
    for e in (parse("exp(800*z1) - 1", 1), parse("z1^200 + sin(z1)", 1)):
        with pytest.raises(OverflowError):
            e.evaluate([40.0])
        with pytest.raises(OverflowError):
            e.evaluate_batch([[0.5], [40.0]])


def test_numpy_coordinates_evaluate_as_python_floats():
    # numpy's scalar power gives inf with a warning where a float raises
    f = parse(MSD_F, 2)
    for z in ([np.float64(1e200), np.float64(0.0)], np.array([1e200, 0.0])):
        with pytest.raises(OverflowError):
            f.evaluate(z)
    rng = np.random.default_rng(29)
    q = GuardedQuotient(parse("z1^2*z2 + sin(z1)*z2", 2), 1)
    Z = rng.uniform(-2.0, 2.0, (20, 2))
    Z[:5, 0] = 0.0
    for e in (f, q):
        for z, floats in zip(Z, Z.tolist()):
            assert type(e.evaluate(z)) is float
            assert e.evaluate(z) == e.evaluate(floats)
            assert e.evaluate([*z]) == e.evaluate(floats)
    with pytest.raises(OverflowError):
        q.evaluate(np.array([1e200, 1.0]))


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


def test_products_by_one_plain_term_keep_canonical_order():
    # a product by one term without function factors, scale and exact
    # division build their terms without sorting; they are what
    # from_terms of the same terms gives, zero drops included
    rng = np.random.default_rng(26)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        e = random_expression(rng, n)
        exps = tuple(int(v) for v in rng.integers(0, 3, n))
        coeff = float(rng.choice([1.0, -2.5, 1e-320, 0.0]))
        plain = Expression.from_terms([Term(coeff, exps, ())], n)
        products = Expression.from_terms(
            [Term(t.coeff * coeff, tuple(map(operator.add, t.exponents, exps)), t.factors)
             for t in e.terms], n)
        assert (e * plain).terms == (plain * e).terms == products.terms
        assert e.scale(coeff).terms == Expression.from_terms(
            [Term(t.coeff * coeff, t.exponents, t.factors) for t in e.terms], n).terms
        i = int(rng.integers(1, n + 1))
        shifted = e * Expression.variable(i, n)
        assert shifted.try_exact_divide(i).terms == e.terms
    with pytest.raises(NonFiniteEntry, match="coefficient inf"):
        parse("1e300*z1 + 1e300", 1) * parse("1e10*z1^2", 1)


def test_scale_multiplies_by_a_python_float():
    # numpy 2 keeps float32 in float32 * float products; scale converts
    # first, so a float32 factor prints as the float it holds
    row = parse(MSD_F, 2)
    expected = "0.30000000000000004*z2*sin(10*z1) + 0.6000000000000001*z2^2 + 30*z1^3"
    assert str(row.scale(3.0)) == expected
    assert str(row.scale(np.float32(3.0))) == expected
    assert {type(t.coeff) for t in row.scale(np.float32(3.0)).terms} == {float}


def test_terms_store_python_numbers():
    # numpy and other real numbers become Python floats and ints where the
    # terms are canonicalized, so a float32 coefficient's products are
    # float64 products of the float it holds
    factor = FuncFactor("sin", (np.float32(0.5), np.int64(2)), np.float32(0.25))
    e = Expression.from_terms([Term(np.float32(0.1), (np.int64(2), 1), (factor,))], 2)
    (t,) = e.terms
    assert type(t.coeff) is float and t.coeff == float(np.float32(0.1))
    assert [type(v) for v in t.exponents] == [int, int]
    assert [type(v) for v in (*t.factors[0].weights, t.factors[0].bias)] == [float] * 3
    want = Expression.from_terms(
        [Term(float(np.float32(0.1)), (2, 1), (FuncFactor("sin", (0.5, 2.0), 0.25),))], 2
    )
    three = Expression.constant(np.float32(3.0), 2)
    assert str(e * three) == str(want * Expression.constant(3.0, 2))
    assert parse(str(e), 2) == e
    assert type(Expression.constant(np.int64(4), 1).terms[0].coeff) is float


@pytest.mark.parametrize(
    "term, error, message",
    [
        (Term(2.0, (-1,), ()), NegativeExponent, "negative exponent -1"),
        (Term(2.0, (np.int64(-2),), ()), NegativeExponent, "negative exponent -2"),
        (Term(2.0, (1.5,), ()), ParseError, "exponent 1.5 is not"),
        (Term(2.0, (2.0,), ()), ParseError, "exponent 2.0 is not"),
        (Term(True, (1,), ()), ParseError, "coefficient True is not a real"),
        (Term(np.bool_(True), (1,), ()), ParseError, "is not a real number"),
        (Term(1j, (1,), ()), ParseError, "coefficient 1j is not a real"),
        (Term("2", (1,), ()), ParseError, "coefficient '2' is not a real"),
        (Term(1.0, (1,), (FuncFactor("sin", (False,), 0.0),)), ParseError,
         "weight False is not a real"),
        (Term(1.0, (1,), (FuncFactor("sin", (1.0,), 1j),)), ParseError,
         "bias 1j is not a real"),
        (Term(10**400, (1,), ()), NonFiniteEntry, "beyond float range"),
        (Term(1.0, ("a",), ()), ParseError, "exponent 'a' is not"),
        (Term(1.0, (None,), ()), ParseError, "exponent None is not"),
        (Term(1.0, (1,), (FuncFactor("foo", (1.0,), 0.0),)), UnsupportedFunction,
         "unsupported function 'foo'"),
        (Term(1.0, (1,), (FuncFactor("foo", (0.0,), 0.0),)), UnsupportedFunction,
         "unsupported function 'foo'"),
        (Term(1.0, (1,), (FuncFactor(["sin"], (1.0,), 0.0),)), UnsupportedFunction,
         "unsupported function ['sin']"),
        (Term(1.0, (1, 1), ()), ArityMismatch, "term has 2 exponents, expected 1"),
    ],
    ids=["exponent-1", "exponent-int64-2", "exponent-1.5", "exponent-2.0",
         "coeff-True", "coeff-bool_", "coeff-1j", "coeff-text", "weight-False",
         "bias-1j", "coeff-10^400", "exponent-text", "exponent-None", "function-foo",
         "constant-function-foo", "function-list", "exponents-2"],
)
def test_terms_refuse_what_would_not_reparse(term, error, message):
    # unchecked, Term(2.0, (-1,), ()) would print "2", (1.5,) "z1^1.5" and
    # Term(True, ...) "z1": texts that do not parse back to the term; a text
    # exponent or a function name the parser does not know fails as the
    # parser fails on it, not with a TypeError or a KeyError
    with pytest.raises(error, match=re.escape(message)):
        Expression.from_terms([term], 1)


def test_variable_index_beyond_int_digits_is_a_parse_error():
    # int() reads at most 4 300 digits; leading zeros are still read
    with pytest.raises(ParseError, match="out of range for arity 2") as info:
        parse("z1 + z" + "9" * 5000, 2)
    assert str(info.value).endswith("(at position 5)")
    assert parse("z" + "0" * 5000 + "2", 2) == parse("z2", 2)
    with pytest.raises(ParseError, match="out of range for arity 2"):
        parse("z" + "0" * 5000, 2)


# --- guarded quotients ----------------------------------------------------------------


def make_sinc_like():
    num = parse("sin(10*z1)", 1)
    return GuardedQuotient(num, 1)


def test_guarded_quotient_holds_only_numerator_and_divisor():
    # the derivative and tau follow from the numerator and i, so a quotient
    # with a foreign derivative or band cannot be built
    num = parse("tanh(z1 + 0.3*z2)*z2 - tanh(0.3*z2)*z2", 2)
    for i in (1, 2):
        q = GuardedQuotient(num, i)
        assert [f.name for f in dataclasses.fields(q)] == ["numerator", "divisor_index"]
        assert q.derivative == num.partial(i)
        assert q.derivative is q.derivative
        assert q.tau == DEFAULT_GUARD_TAU
    with pytest.raises(TypeError):
        GuardedQuotient(num, 1, num.partial(1))


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
    q = GuardedQuotient(num, 1)
    assert_guard_continuous(q, rng)


# --- emitted code ------------------------------------------------------------------


def emitted(entry, n_vars):
    """The function of z1..zn that runs entry.emit's statements."""
    z = [f"z{j}" for j in range(n_vars)]
    values = ValueTable()
    source = "\n".join(
        [f"def f({', '.join(z)}):"]
        + ["    " + line for line in values.statements(entry.emit("v", z, values))]
        + ["    return v"]
    )
    namespace = dict(EMITTED_FUNCTIONS)
    exec(compile(source, "<emitted>", "exec"), namespace)
    return namespace["f"]


def test_emitted_values_match_evaluate_bit_for_bit():
    rng = np.random.default_rng(41)
    names, checked, guarded = set(), 0, [0, 0]
    for _ in range(60):
        n_z = int(rng.integers(1, 5))
        for e in random_expression_vector(rng, 3, n_z):
            names.update(f.name for t in e.terms for f in t.factors)
            i = int(rng.integers(1, n_z + 1))
            num = e * Expression.variable(i, n_z)
            entries = [e, GuardedQuotient(num, i)]
            runs = [emitted(entry, n_z) for entry in entries]
            for _ in range(6):
                z = rng.uniform(-2.0, 2.0, n_z)
                tau_eff = DEFAULT_GUARD_TAU * (1.0 + float(np.max(np.abs(z))))
                # far from, at, and inside the guard band of z_i
                for zi in (z[i - 1], 0.0, 0.5 * tau_eff, -0.9 * tau_eff):
                    z[i - 1] = zi
                    pt = z.tolist()
                    guarded[abs(pt[i - 1]) > entries[1].effective_threshold(pt)] += 1
                    for entry, run in zip(entries, runs):
                        want = entry.evaluate(pt)
                        assert run(*pt).hex() == want.hex(), (entry, pt)
                        checked += 1
    assert names == set(FUNCTIONS)
    assert checked > 5000 and min(guarded) > 1000


def test_term_of_numpy_numbers_evaluates_as_its_emitted_code():
    # a numpy coefficient, bias and exponent are read as Python numbers, so
    # evaluate gives the emitted code's bits, as a float, and overflows
    # where that code does
    factor = FuncFactor("sin", (np.float64(3.0), 0.0), np.float64(0.25))
    e = Expression.from_terms([Term(np.float64(0.7), (np.int64(3), 1), (factor,))], 2)
    assert type(e.terms[0].coeff) is float
    run = emitted(e, 2)
    for z in ([0.3, -1.2], [2.5, 0.125], [-1e-3, 7.0]):
        value = e.evaluate(z)
        assert type(value) is float and value.hex() == run(*z).hex()
    for at in (e.evaluate, lambda z: run(*z)):
        with pytest.raises(OverflowError):
            at([1e200, 1.0])


def emitted_together(entries, n_vars):
    """The function of z1..zn that runs the statements of every entry,
    emitted with one ValueTable, and returns their values."""
    z = [f"z{j}" for j in range(n_vars)]
    values = ValueTable()
    targets = [f"t{k}" for k in range(len(entries))]
    body = [
        line for entry, t in zip(entries, targets) for line in entry.emit(t, z, values)
    ]
    source = "\n".join(
        [f"def f({', '.join(z)}):"]
        + ["    " + line for line in values.statements(body)]
        + [f"    return [{', '.join(targets)}]"]
    )
    namespace = dict(EMITTED_FUNCTIONS)
    exec(compile(source, "<emitted>", "exec"), namespace)
    return namespace["f"], source


def test_entries_sharing_a_value_table_match_evaluate_bit_for_bit():
    # an expression and its quotients by each variable share calls and
    # powers; inside a guard band the derivative branch evaluates values the
    # quotient branch does not, so later entries read values that only some
    # paths named
    rng = np.random.default_rng(43)
    checked, tested = 0, 0
    for _ in range(40):
        n_z = int(rng.integers(2, 5))
        e = random_expression(rng, n_z)
        entries = [e] + [
            GuardedQuotient(e * Expression.variable(i, n_z), i)
            for i in range(1, n_z + 1)
        ]
        run, source = emitted_together(entries, n_z)
        tested += "is not None" in source
        for _ in range(10):
            z = rng.uniform(-2.0, 2.0, n_z)
            z[rng.random(n_z) < 0.4] = 1e-9  # inside the band
            pt = z.tolist()
            got = run(*pt)
            for entry, v in zip(entries, got):
                assert v.hex() == entry.evaluate(pt).hex(), (entry, pt)
                checked += 1
    assert checked > 1000 and tested > 10


def test_emit_checks_arity():
    with pytest.raises(ArityMismatch):
        parse(MSD_F, 2).emit("v", ["z0"], ValueTable())
