"""Symbolic term language for multivariate static nonlinearities.

An :class:`Expression` is a finite sum of terms

    coeff * z1^e1 * ... * zN^eN * func(a1) * func(a2) * ...

where every function factor applies one of a fixed set of smooth elementary
functions (sin, cos, exp, tanh, sinh, cosh) to an argument that is affine in
the variables, ``w . z + b``.  The language is closed under addition,
multiplication, partial differentiation, restriction of any set of
variables to zero, and (when every term carries the divisor variable)
exact division by that variable -- precisely the operations the
scheduling-map factorization needs.  There are no denominators anywhere inside an
Expression, so evaluation at a finite point is finite unless a float overflows.

:class:`GuardedQuotient` adds the single division the factorization
introduces.  It evaluates ``numerator(z) / z_i`` away from ``z_i = 0`` and
switches to the analytic partial derivative of the numerator inside the
band ``|z_i| <= tau * (1 + |z|_inf)``, so no singularity or discontinuity
is produced by the quotient.

Canonical form: terms are merged on exact equality of their exponent tuple
and factor list (floats compared exactly, no tolerances), zero-coefficient
terms are dropped, function factors whose weights are all zero are folded
into the coefficient, and terms are kept sorted by exponent tuple then
factor list.  Every number is a Python float and every exponent an int,
converted where the terms are canonicalized.  The printed form (``str``)
is deterministic and reparses to the identical Expression.

Each Expression caches one term spec, ``_compiled``: ``evaluate`` runs
it and ``emit`` renders it as a kernel's statements, so both have one
term order, one zero filter and one set of numbers.

:func:`parse` reads a text in one pass.  Each printed product becomes one
term, its coefficients multiplied left to right with the zero drop and
the overflow check of every product of the operators, and each sum is
canonicalized once; only a parenthesized sum, or its power, takes part
in Expression arithmetic.  So a text parses to the Expression, and
raises the error, that folding it with the operators gives, bit for bit.
A product by one term without function factors (``scale``, a product by
a monomial or a constant) and an exact division shift every term's key
alike, so they keep the canonical order without sorting again.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, ClassVar, Iterable, Sequence

import numpy as np

from .errors import (
    ArityMismatch,
    NegativeExponent,
    NonAffineFunctionArgument,
    NonFiniteEntry,
    ParseError,
    UnsupportedFunction,
)

__all__ = [
    "FUNCTIONS",
    "EMITTED_FUNCTIONS",
    "DEFAULT_GUARD_TAU",
    "FuncFactor",
    "Term",
    "Expression",
    "GuardedQuotient",
    "ValueTable",
    "parse",
]

FUNCTIONS: dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "tanh": math.tanh,
    "sinh": math.sinh,
    "cosh": math.cosh,
}

#: The names code from the ``emit`` methods calls FUNCTIONS by, in order.
EMITTED_FUNCTIONS: dict[str, Callable[[float], float]] = {
    f"_fn{k}": fn for k, fn in enumerate(FUNCTIONS.values())
}
_EMITTED_NAME = {fn: name for name, fn in EMITTED_FUNCTIONS.items()}

# d/dx func(x) expressed inside the language: a sum of (coefficient,
# replacement function names) pairs, every replacement applied to the same
# affine argument.  tanh' = 1 - tanh^2 needs the two-entry form.
_DERIVATIVES: dict[str, tuple[tuple[float, tuple[str, ...]], ...]] = {
    "sin": ((1.0, ("cos",)),),
    "cos": ((-1.0, ("sin",)),),
    "exp": ((1.0, ("exp",)),),
    "sinh": ((1.0, ("cosh",)),),
    "cosh": ((1.0, ("sinh",)),),
    "tanh": ((1.0, ()), (-1.0, ("tanh", "tanh"))),
}

#: Guard scale for quotient entries.  The effective switching threshold at a
#: point z is ``tau * (1 + |z|_inf)``: below it the quotient numerator loses
#: eps/tau relative accuracy to cancellation while the derivative branch is
#: O(tau) away from the limit, and 1e-7 balances the two near 1e-7.
DEFAULT_GUARD_TAU = 1e-7


def _at_rows(evaluate, points, n_vars: int) -> np.ndarray:
    """evaluate at each row of an (m, n_vars) array, passed as Python floats,
    so every value is bit for bit the scalar one and an overflow raises."""
    try:
        Z = np.asarray(points, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ArityMismatch(f"batch cannot be read as numbers: {exc}") from None
    if Z.ndim != 2 or Z.shape[1] != n_vars:
        raise ArityMismatch(f"batch shape {Z.shape} incompatible with arity {n_vars}")
    return np.array([evaluate(z) for z in Z.tolist()], dtype=float)


class ValueTable:
    """The pure values that emitted statements have evaluated so far.

    A value is the text of a function call ``_fnK(arg)``, a power
    ``z_j ** e`` or a quotient guard's threshold: a pure function of the z
    locals, so each evaluation of one text gives the same bits.  ``read``
    evaluates a value where no path has yet.  Where an evaluation
    dominates, it reads the value's name ``vN``; where only some paths
    have evaluated it, it reads the name if it is not None and evaluates
    the value otherwise.  So no value is evaluated earlier than without
    the table, none that would not be, and none twice on one path.  The
    emitted lines are finished by ``statements``: it binds a value to its
    name with an assignment expression where it is first evaluated, if and
    only if some site reads the name, and heads them with the statement
    that sets the names read under the test to None.  The statements run
    while the z locals keep their values.
    """

    def __init__(self):
        self.names: dict[str, str] = {}  # values some site reads by name
        self.on_every_path: set[str] = set()
        self.on_some_path: set[str] = set()
        self.tested: dict[str, None] = {}  # names read under the test, in order

    def read(self, text: str) -> str:
        if text not in self.on_some_path:
            self.on_every_path.add(text)
            self.on_some_path.add(text)
            # marked until statements() knows whether a later site reads it
            return f"\0{text}\0"
        name = self.names.setdefault(text, f"v{len(self.names)}")
        if text in self.on_every_path:
            return name
        self.tested[name] = None
        self.on_every_path.add(text)
        return f"({name} if {name} is not None else ({name} := {text}))"

    def branches(self, *emitters) -> list[list[str]]:
        """The statements of alternative branches, emitted by the callables
        in order, each from the values evaluated where the branches start.
        After them, a value is evaluated on every path if every branch
        evaluated it, and on some path if any did."""
        every, some = self.on_every_path, self.on_some_path
        out, ends = [], []
        for emit in emitters:
            self.on_every_path, self.on_some_path = set(every), set(some)
            out.append(emit())
            ends.append((self.on_every_path, self.on_some_path))
        self.on_every_path = set.intersection(*(e for e, _ in ends))
        self.on_some_path = set.union(*(s for _, s in ends))
        return out

    def statements(self, lines: list[str]) -> list[str]:
        """The lines emitted with this table, as statements that run."""
        # a value's text holds no NUL, so the odd parts are the first
        # evaluations
        parts = "\n".join(lines).split("\0")
        parts[1::2] = [
            f"({name} := {text})" if (name := self.names.get(text)) else text
            for text in parts[1::2]
        ]
        body = "".join(parts).split("\n") if lines else []
        return ([" = ".join([*self.tested, "None"])] if self.tested else []) + body


def _format_float(v: float) -> str:
    if v.is_integer() and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _signed_sum(pieces: Iterable[tuple[float, str]]) -> str:
    """(value, text of |value|) pairs written as ``-a + b - c``."""
    out = "".join([(" - " if v < 0 else " + ") + text for v, text in pieces])
    return out[3:] if out.startswith(" + ") else "-" + out[3:]


@dataclass(frozen=True)
class FuncFactor:
    """One smooth factor ``name(w . z + b)`` with an affine argument."""

    name: str
    weights: tuple[float, ...]
    bias: float

    def key(self):
        return (self.name, self.weights, self.bias)

    def __str__(self) -> str:
        pieces = [
            (w, f"z{j + 1}" if abs(w) == 1.0 else f"{_format_float(abs(w))}*z{j + 1}")
            for j, w in enumerate(self.weights) if w != 0.0
        ]
        if self.bias != 0.0 or not pieces:
            pieces.append((self.bias, _format_float(abs(self.bias))))
        return f"{self.name}({_signed_sum(pieces)})"


@dataclass(frozen=True)
class Term:
    """``coeff * prod z_j^exponents[j] * prod factors``."""

    coeff: float
    exponents: tuple[int, ...]
    factors: tuple[FuncFactor, ...]

    def key(self):
        return (self.exponents, tuple(f.key() for f in self.factors))

    def __str__(self) -> str:
        return self.render(self.coeff)

    def render(self, coeff: float) -> str:
        parts = []
        if coeff != 1.0:
            parts.append(_format_float(coeff))
        for j, e in enumerate(self.exponents):
            if e == 1:
                parts.append(f"z{j + 1}")
            elif e > 1:
                parts.append(f"z{j + 1}^{e}")
        k = 0
        while k < len(self.factors):
            f = self.factors[k]
            count = 1
            while k + count < len(self.factors) and self.factors[k + count] == f:
                count += 1
            parts.append(str(f) if count == 1 else f"{f}^{count}")
            k += count
        if not parts:
            return _format_float(coeff)
        return "*".join(parts)


def _finite(coeff: float) -> float:
    """coeff, unless it is not finite: a product or sum that overflowed."""
    if not math.isfinite(coeff):
        raise NonFiniteEntry(f"expression coefficient {coeff} is not finite")
    return coeff


def _real(v, what: str) -> float:
    """v as a Python float: ParseError for a bool or a number that is not
    real, NonFiniteEntry for one beyond float range."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise ParseError(f"{what} {v!r} is not a real number")
    try:
        return float(v)
    except OverflowError:
        raise NonFiniteEntry(f"{what} {v!r} is beyond float range") from None


def _exponent(e) -> int:
    """e as a Python int: ParseError unless an integer, NegativeExponent below 0."""
    if isinstance(e, bool) or not isinstance(e, numbers.Integral):
        raise ParseError(f"exponent {e!r} is not a nonnegative integer")
    if e < 0:
        raise NegativeExponent(f"negative exponent {e}")
    return int(e)


def _canonical_terms(terms: Iterable[Term], n_vars: int) -> tuple[Term, ...]:
    """Merge, fold, drop and sort; each term's key is computed once.

    Numbers are stored as Python floats, exponents as ints, and what would
    not reparse from its printed text is refused (_real, _exponent, an
    UnsupportedFunction).  A merged coefficient adds the terms of one key
    in the order given; the last term of a key gives its exponents and
    factors, and the first coefficient that is not finite, in order of
    first appearance, is the one reported.
    """
    merged: dict = {}  # key -> (coeff, exponents, factors)
    for t in terms:
        exps, coeff, factors = t.exponents, t.coeff, t.factors
        if len(exps) != n_vars:
            raise ArityMismatch(f"term has {len(exps)} exponents, expected {n_vars}")
        # cheap tests let Python numbers through (and a bool exponent, as
        # the int it equals); anything else is converted or refused
        if type(coeff) is not float:
            coeff = _real(coeff, "coefficient")
        try:
            plain = type(sum(exps)) is int and min(exps) >= 0
        except TypeError:  # an exponent that is not a number
            plain = False
        if not plain:
            exps = tuple(map(_exponent, exps))
        if factors:
            kept = []
            for f in factors:
                if not isinstance(f.name, str) or f.name not in FUNCTIONS:
                    raise UnsupportedFunction(f"unsupported function {f.name!r}")
                if type(f.bias) is not float or {*map(type, f.weights)} != {float}:
                    weights = tuple([_real(w, "weight") for w in f.weights])
                    f = FuncFactor(f.name, weights, _real(f.bias, "bias"))
                if not all(map(math.isfinite, f.weights)) or not math.isfinite(f.bias):
                    raise NonFiniteEntry(f"function factor {f} is not finite")
                if any(f.weights):
                    kept.append(f)
                    continue
                try:
                    coeff *= FUNCTIONS[f.name](f.bias)
                except OverflowError:
                    raise NonFiniteEntry(f"constant {f} overflows") from None
            factors = tuple(sorted(kept, key=FuncFactor.key))
        if coeff == 0.0:
            continue
        key = (exps, tuple([f.key() for f in factors]))
        # each key's sum starts from 0.0 and adds in the order given
        merged[key] = (merged.get(key, (0.0,))[0] + coeff, exps, factors)
    for coeff, _, _ in merged.values():
        _finite(coeff)
    return tuple([
        Term(*merged[key]) for key in sorted(merged) if merged[key][0] != 0.0
    ])


@dataclass(frozen=True)
class Expression:
    """Canonical sum of terms over variables z1..z{n_vars}.

    Instances are immutable; all operations return new Expressions.  Build
    via :meth:`from_terms`, the algebraic operators, or :func:`parse`.
    """

    terms: tuple[Term, ...]
    n_vars: int

    # --- construction ---------------------------------------------------

    @classmethod
    def from_terms(cls, terms: Iterable[Term], n_vars: int) -> "Expression":
        return cls(_canonical_terms(terms, n_vars), n_vars)

    @classmethod
    def constant(cls, value: float, n_vars: int) -> "Expression":
        return cls.from_terms([Term(value, (0,) * n_vars, ())], n_vars)

    @classmethod
    def variable(cls, i: int, n_vars: int) -> "Expression":
        """The monomial z_i (1-based index)."""
        if not 1 <= i <= n_vars:
            raise ValueError(f"variable index {i} out of range 1..{n_vars}")
        exps = tuple(1 if j == i - 1 else 0 for j in range(n_vars))
        return cls.from_terms([Term(1.0, exps, ())], n_vars)

    # --- algebra ----------------------------------------------------------

    def _check_same_arity(self, other: "Expression"):
        if self.n_vars != other.n_vars:
            raise ArityMismatch(
                f"arity mismatch: {self.n_vars} vs {other.n_vars}"
            )

    def __add__(self, other: "Expression") -> "Expression":
        self._check_same_arity(other)
        return Expression.from_terms(self.terms + other.terms, self.n_vars)

    def __sub__(self, other: "Expression") -> "Expression":
        return self + (-other)

    def __neg__(self) -> "Expression":
        return self.scale(-1.0)

    def scale(self, s: float) -> "Expression":
        """Every coefficient times float(s), so a numpy scalar's precision
        does not leak into the terms."""
        return self._times(float(s), None)

    def _times(self, coeff: float, exponents: tuple[int, ...] | None) -> "Expression":
        """self times ``coeff * z^exponents`` (None: z^0), a term without
        function factors: every key shifts alike, so the terms stay in
        canonical order and only the zero drop and the finiteness check of
        from_terms apply."""
        out = []
        for t in self.terms:
            c = t.coeff * coeff
            if c != 0.0:
                exps = t.exponents if exponents is None else tuple(
                    [a + b for a, b in zip(t.exponents, exponents)]
                )
                out.append(Term(_finite(c), exps, t.factors))
        return Expression(tuple(out), self.n_vars)

    def __mul__(self, other: "Expression") -> "Expression":
        self._check_same_arity(other)
        # one side a single term without function factors: no sort needed
        for a, b in ((self, other), (other, self)):
            if len(b.terms) == 1 and not b.terms[0].factors:
                return a._times(b.terms[0].coeff, b.terms[0].exponents)
        prods = []
        for a in self.terms:
            for b in other.terms:
                exps = tuple(x + y for x, y in zip(a.exponents, b.exponents))
                prods.append(Term(a.coeff * b.coeff, exps, a.factors + b.factors))
        return Expression.from_terms(prods, self.n_vars)

    def __pow__(self, k: int) -> "Expression":
        if k < 0:
            raise NegativeExponent(f"negative exponent {k}")
        if k > MAX_EXPONENT:  # k multiplications follow
            raise ParseError(f"exponent {k} is above {MAX_EXPONENT}")
        out = Expression.constant(1.0, self.n_vars)
        for _ in range(k):
            out = out * self
        return out

    # --- evaluation -------------------------------------------------------

    @cached_property
    def _compiled(self):
        """The spec ``evaluate`` runs and ``emit`` renders: per term
        ``(coeff, ((j, e), ...), ((fn, ((j, w), ...), bias), ...))``, only
        nonzero exponents and weights."""
        def nonzero(values):
            return tuple([(j, v) for j, v in enumerate(values) if v])

        return tuple([
            (t.coeff, nonzero(t.exponents),
             tuple([(FUNCTIONS[f.name], nonzero(f.weights), f.bias) for f in t.factors]))
            for t in self.terms
        ])

    def evaluate(self, z: Sequence[float]) -> float:
        """Exact sum-of-products evaluation at a single point, read as Python
        floats as the kernel reads it: a numpy scalar keeps its bits, an
        overflowing power raises OverflowError, and the value is a float."""
        if len(z) != self.n_vars:
            raise ArityMismatch(
                f"point has {len(z)} coordinates, expression arity is {self.n_vars}"
            )
        z = [*map(float, z)]
        total = 0.0
        for coeff, monos, facs in self._compiled:
            v = coeff
            for j, e in monos:
                v *= z[j] ** e
            for fn, ws, b in facs:
                a = b
                for j, w in ws:
                    a += w * z[j]
                v *= fn(a)
            total += v
        return total

    def emit(self, target: str, z: Sequence[str], values: ValueTable) -> list[str]:
        """Python statements that set ``target`` to ``evaluate`` at z.

        ``z[j]`` names the local holding z_{j+1}.  The statements render
        ``_compiled``, the spec evaluate runs, so they repeat its float
        operations, on its numbers, in its order: the value is bit for bit
        the same and ``**`` still raises on overflow.  One ``+=`` per term
        keeps a sum of any length within what ``compile`` accepts.
        Each call and power is read through ``values``: evaluated once and
        read by its name where the evaluation dominates, here or in
        statements emitted later with the same table, whose ``statements``
        then finishes the lines.  Only float literals, integer exponents, the
        names given, the table's names, None and the keys of
        EMITTED_FUNCTIONS appear.
        """
        if len(z) != self.n_vars:
            raise ArityMismatch(
                f"{len(z)} variable names, expression arity is {self.n_vars}"
            )
        lines = [f"{target} = 0.0"]
        for coeff, monos, facs in self._compiled:
            # listed in the order Python evaluates the product
            v = [repr(coeff)]
            v += [values.read(f"{z[j]} ** {e}") for j, e in monos]
            for fn, ws, b in facs:
                arg = repr(b) + "".join(f" + {w!r} * {z[j]}" for j, w in ws)
                v.append(values.read(f"{_EMITTED_NAME[fn]}({arg})"))
            lines.append(f"{target} += {' * '.join(v)}")
        return lines

    def evaluate_batch(self, points) -> np.ndarray:
        """``evaluate`` at each row of an (m, n_vars) array of points."""
        return _at_rows(self.evaluate, points, self.n_vars)

    # --- calculus ----------------------------------------------------------

    def partial(self, i: int) -> "Expression":
        """Exact symbolic partial derivative with respect to z_i (1-based)."""
        if not 1 <= i <= self.n_vars:
            raise ValueError(f"variable index {i} out of range 1..{self.n_vars}")
        j = i - 1
        out = []
        for t in self.terms:
            e = t.exponents[j]
            if e:
                exps = list(t.exponents)
                exps[j] = e - 1
                out.append(Term(t.coeff * e, tuple(exps), t.factors))
            for k, f in enumerate(t.factors):
                w = f.weights[j]
                if w == 0.0:
                    continue
                rest = t.factors[:k] + t.factors[k + 1 :]
                for dc, names in _DERIVATIVES[f.name]:
                    repl = tuple(
                        FuncFactor(nm, f.weights, f.bias) for nm in names
                    )
                    out.append(Term(t.coeff * w * dc, t.exponents, rest + repl))
        return Expression.from_terms(out, self.n_vars)

    def restrict(self, keep: Iterable[int]) -> "Expression":
        """Substitute zero for every variable z_i whose i is not in ``keep``.

        Terms carrying a positive power of a dropped variable vanish;
        function factors lose the dropped weights (the affine argument of a
        zeroed variable contributes nothing).
        """
        keep = set(keep)
        if not keep <= set(range(1, self.n_vars + 1)):
            raise ValueError(
                f"kept variables {sorted(keep)} not in 1..{self.n_vars}"
            )
        if len(keep) == self.n_vars:
            return self
        kept = [j + 1 in keep for j in range(self.n_vars)]
        out = []
        for t in self.terms:
            if any(e and not k for e, k in zip(t.exponents, kept)):
                continue
            factors = tuple(
                FuncFactor(
                    f.name,
                    tuple(w if k else 0.0 for w, k in zip(f.weights, kept)),
                    f.bias,
                )
                for f in t.factors
            )
            out.append(Term(t.coeff, t.exponents, factors))
        return Expression.from_terms(out, self.n_vars)

    def try_exact_divide(self, i: int) -> "Expression | None":
        """Divide by z_i when every term carries it; None when not divisible.

        None is a normal outcome (the caller falls back to a guarded
        quotient), not an error.
        """
        if not 1 <= i <= self.n_vars:
            raise ValueError(f"variable index {i} out of range 1..{self.n_vars}")
        j = i - 1
        if any(t.exponents[j] < 1 for t in self.terms):
            return None
        # every key loses the same z_i, so the terms stay in canonical order
        return Expression(tuple([
            Term(t.coeff, (*t.exponents[:j], t.exponents[j] - 1, *t.exponents[j + 1:]),
                 t.factors)
            for t in self.terms
        ]), self.n_vars)

    # --- misc ---------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return _signed_sum((t.coeff, t.render(abs(t.coeff))) for t in self.terms)


# --- guarded quotient ------------------------------------------------------


@dataclass(frozen=True)
class GuardedQuotient:
    """``numerator(z) / z_i`` with the analytic derivative near ``z_i = 0``.

    The numerator vanishes on ``z_i = 0`` (factorize and the loader prove
    it by restriction), so the quotient is removable; evaluation switches
    to ``d numerator / d z_i`` (at the actual point, z_i as given) whenever
    ``|z_i| <= tau * (1 + |z|_inf)``.  The result is continuous in z up to
    O(tau) across the guard.
    """

    numerator: Expression
    divisor_index: int  # 1-based
    # one band for every quotient; not a field, so no quotient has another
    tau: ClassVar[float] = DEFAULT_GUARD_TAU

    @cached_property
    def derivative(self) -> Expression:  # derived, so never a foreign one
        return self.numerator.partial(self.divisor_index)

    def effective_threshold(self, z: Sequence[float]) -> float:
        """``tau * (1 + |z|_inf)``: evaluate runs this formula and emit
        writes it as the guard's text, so ``max`` keeps 0.0 against a NaN
        coordinate in both."""
        return self.tau * (1.0 + max(0.0, *map(abs, z)))

    def evaluate(self, z: Sequence[float]) -> float:
        """The guarded quotient at z; each branch reads z as Python floats
        (see Expression.evaluate), and so does the division."""
        zi = float(z[self.divisor_index - 1])
        if abs(zi) > self.effective_threshold(z):
            return self.numerator.evaluate(z) / zi
        return self.derivative.evaluate(z)

    def emit(self, target: str, z: Sequence[str], values: ValueTable) -> list[str]:
        """Python statements that set ``target`` to ``evaluate`` at z.

        The guard is effective_threshold's formula, so ``max`` skips NaN
        here as there.  The threshold, and each call and power of the two
        branches, is read through ``values`` as in Expression.emit; the
        branches are alternatives (ValueTable.branches).
        """
        zi = z[self.divisor_index - 1]
        bound = ", ".join(f"abs({v})" for v in z)
        guard = values.read(f"{self.tau!r} * (1.0 + max(0.0, {bound}))")
        quotient, derivative = values.branches(
            lambda: self.numerator.emit(target, z, values),
            lambda: self.derivative.emit(target, z, values),
        )
        return [
            f"if abs({zi}) > {guard}:",
            *("    " + s for s in quotient),
            f"    {target} /= {zi}",
            "else:",
            *("    " + s for s in derivative),
        ]

    def evaluate_batch(self, points) -> np.ndarray:
        """``evaluate`` at each row (see Expression's)."""
        return _at_rows(self.evaluate, points, self.numerator.n_vars)


# --- parser -----------------------------------------------------------------

# One match per token, its text in the group of its kind.  Whitespace before
# a token is skipped; any other character is a token of its own, "bad".
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^()])"
    r"|(?P<bad>\S))"
)

_END = ("", "", "", "")  # (num, name, op, bad) of the end of input

#: Deepest nesting of parentheses and function calls the parser accepts;
#: printed expressions nest at most 2 deep, and the cap keeps the
#: recursive descent far from Python's recursion limit.
MAX_NESTING = 100

#: Largest exponent of a power; ``e ** k`` multiplies k times.
MAX_EXPONENT = 256


class _Parser:
    """Recursive descent over the tokens of one text.

    A printed product is folded into one loose term ``(coeff, ((j, e),
    ...), factors)``: the coefficients multiplied left to right, as
    Expression's product of single terms multiplies them, the exponents
    summed and the function factors collected.  Each product is checked as
    from_terms checks it, so a zero drops the term (a loose None) and an
    overflow raises NonFiniteEntry at that product.  An operand with
    several terms, a parenthesized sum or its power, is an Expression, and
    the rest of its product is Expression arithmetic.  Each sum is
    canonicalized once, so merges add in written order.
    """

    def __init__(self, text: str, n_vars: int):
        self.text = text
        self.n_vars = n_vars
        self.index_digits = len(str(n_vars))  # the most a variable's index has
        self.tokens = _TOKEN_RE.findall(text)
        bad = [k for k, (_, _, _, char) in enumerate(self.tokens) if char]
        if bad:
            char = self.tokens[bad[0]][3]
            raise ParseError(f"unexpected character {char!r}", self.pos(bad[0]))
        self.tokens.append(_END)
        self.k = 0
        self.depth = 0

    def pos(self, k: int) -> int:
        """Where token k starts in the text; the end of input is its length."""
        starts = [m.start(m.lastgroup) for m in _TOKEN_RE.finditer(self.text)]
        return starts[k] if k < len(starts) else len(self.text)

    def found(self, k: int) -> str:
        return "".join(self.tokens[k]) or "end of input"

    def expect_close(self):
        k = self.k
        self.k += 1
        if self.tokens[k][2] != ")":
            raise ParseError(f"expected ')', found {self.found(k)!r}", self.pos(k))

    def group(self, k: int) -> tuple[Term, ...]:
        """The canonical terms of the sum after the "(" at token k, up to
        its ")"."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", self.pos(k))
        terms = self.expression()
        self.expect_close()
        self.depth -= 1
        return terms

    def parse(self) -> Expression:
        terms = self.expression()
        if self.tokens[self.k] is not _END:
            raise ParseError(f"unexpected {self.found(self.k)!r}", self.pos(self.k))
        return Expression(terms, self.n_vars)

    def expression(self) -> tuple[Term, ...]:
        """A signed sum's canonical terms."""
        terms: list[Term] = []
        tokens = self.tokens
        while True:
            op = tokens[self.k][2]
            sign = 1.0
            if op == "+" or op == "-":
                self.k += 1
                sign = -1.0 if op == "-" else 1.0
            self.product(sign, terms)
            op = tokens[self.k][2]
            if op != "+" and op != "-":
                return _canonical_terms(terms, self.n_vars)

    def product(self, sign: float, out: list[Term]) -> None:
        """Append the terms of one product, times sign, to out."""
        tokens = self.tokens
        coeff, exps, factors = 1.0, [0] * self.n_vars, []
        whole = None  # the product so far, once an operand had several terms
        while True:
            p = self.power()
            if whole is not None:
                whole = whole * self.as_expression(p)
            elif coeff == 0.0:
                pass  # a dropped product stays dropped
            elif p is None:
                coeff = 0.0
            elif type(p) is Expression:
                so_far = Term(coeff, tuple(exps), tuple(factors))
                whole = Expression.from_terms([so_far], self.n_vars) * p
            else:
                c, monos, facs = p
                coeff *= c
                if coeff != 0.0:
                    _finite(coeff)
                    for j, e in monos:
                        exps[j] += e
                    factors += facs
            if tokens[self.k][2] != "*":
                break
            self.k += 1
        if whole is not None:
            out += [Term(sign * t.coeff, t.exponents, t.factors) for t in whole.terms]
        elif coeff != 0.0:
            out.append(Term(sign * coeff, tuple(exps), tuple(factors)))

    def as_expression(self, p) -> Expression:
        """The Expression of a loose term, or p if it is one."""
        if type(p) is Expression:
            return p
        exps = [0] * self.n_vars
        terms = []
        if p is not None:
            coeff, monos, factors = p
            for j, e in monos:
                exps[j] += e
            terms.append(Term(coeff, tuple(exps), tuple(factors)))
        return Expression.from_terms(terms, self.n_vars)

    def power(self):
        """An atom and its power as a loose term, None or an Expression."""
        p = self.atom()
        if self.tokens[self.k][2] != "^":
            return p
        k = self.k + 1
        self.k += 2
        num, _, op, _ = self.tokens[k]
        if op == "-":
            raise NegativeExponent("negative exponent", self.pos(k))
        if not num.isdecimal():
            raise ParseError("exponent must be a nonnegative integer", self.pos(k))
        digits = num.lstrip("0") or "0"  # int() reads at most 4 300 digits
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
            raise ParseError(f"exponent is above {MAX_EXPONENT}", self.pos(k))
        n = int(digits)
        if n == 0:
            return 1.0, (), ()
        if p is None:
            return None
        if type(p) is Expression:
            return self.loose((p ** n).terms)
        # Expression.__pow__'s n products with p, each checked
        c, monos, factors = p
        coeff = 1.0
        for _ in range(n):
            coeff *= c
            if coeff == 0.0:
                return None
            _finite(coeff)
        return coeff, tuple([(j, e * n) for j, e in monos]), factors * n

    def loose(self, terms: tuple[Term, ...]):
        """Canonical terms as a loose term: None for none, an Expression
        for several."""
        if len(terms) > 1:
            return Expression(terms, self.n_vars)
        if not terms:
            return None
        (t,) = terms
        return t.coeff, tuple([(j, e) for j, e in enumerate(t.exponents) if e]), t.factors

    def atom(self):
        k = self.k
        num, name, op, _ = self.tokens[k]
        self.k = k + 1
        if num:  # as Expression.constant
            coeff = float(num)
            return None if coeff == 0.0 else (_finite(coeff), (), ())
        if op == "(":
            return self.loose(self.group(k))
        if not name:
            raise ParseError(f"unexpected {self.found(k)!r}", self.pos(k))
        if name[0] == "z" and name[1:].isdigit():
            digits = name[1:].lstrip("0") or "0"  # int() reads at most 4 300 digits
            idx = int(digits) if len(digits) <= self.index_digits else 0
            if not 1 <= idx <= self.n_vars:
                raise ParseError(
                    f"variable {name} out of range for arity {self.n_vars}", self.pos(k)
                )
            return 1.0, ((idx - 1, 1),), ()
        if self.tokens[k + 1][2] != "(":
            raise ParseError(f"unknown identifier {name!r}", self.pos(k))
        if name not in FUNCTIONS:
            raise UnsupportedFunction(
                f"unsupported function {name!r} "
                f"(supported: {', '.join(sorted(FUNCTIONS))})",
                self.pos(k),
            )
        self.k = k + 2
        factor = FuncFactor(name, *self.affine(self.group(k + 1), k))
        if any(factor.weights):
            return 1.0, (), (factor,)
        # a constant factor folds into the coefficient 1.0, as in from_terms
        try:
            coeff = FUNCTIONS[name](factor.bias)
        except OverflowError:
            raise NonFiniteEntry(f"constant {factor} overflows") from None
        return None if coeff == 0.0 else (_finite(coeff), (), ())

    def affine(self, terms: tuple[Term, ...], k: int):
        """The weights and bias of a function argument; the function's name
        is token k."""
        weights = [0.0] * self.n_vars
        bias = 0.0
        for t in terms:
            deg = sum(t.exponents)
            if t.factors or deg > 1:
                raise NonAffineFunctionArgument(
                    "function argument must be affine in z", self.pos(k)
                )
            if deg == 0:
                bias += t.coeff
            else:
                weights[t.exponents.index(1)] += t.coeff
        return tuple(weights), bias


def parse(text: str, n_vars: int) -> Expression:
    """Parse expression text over variables z1..z{n_vars}.

    Grammar (whitespace-insensitive)::

        expression = [sign] term { sign term }
        term       = power { "*" power }
        power      = atom [ "^" integer ]
        atom       = number | variable | function "(" expression ")"
                   | "(" expression ")"

    Function arguments must reduce to affine forms in the variables,
    parentheses and function calls nest at most ``MAX_NESTING`` deep, and
    an exponent is at most ``MAX_EXPONENT``.  The result is the Expression
    that folding the text with Expression's operators gives, bit for bit,
    with the same error at the same place: each term is built in one pass
    (see _Parser) and each sum canonicalized once.
    """
    if n_vars < 1:
        raise ValueError("n_vars must be >= 1")
    if not isinstance(text, str):
        raise ParseError(f"expression must be text, got {text!r}")
    return _Parser(text, n_vars).parse()
