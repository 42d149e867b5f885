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
Expression, so evaluation at any finite point yields a finite real.

:class:`GuardedQuotient` adds the single division the factorization
introduces.  It evaluates ``numerator(z) / z_i`` away from ``z_i = 0`` and
switches to the analytic partial derivative of the numerator inside the
band ``|z_i| <= tau * (1 + |z|_inf)``, so no singularity or discontinuity
is produced by the quotient.

Canonical form: terms are merged on exact equality of their exponent tuple
and factor list (floats compared exactly, no tolerances), zero-coefficient
terms are dropped, function factors whose weights are all zero are folded
into the coefficient, and terms are kept sorted by exponent tuple then
factor list.  The printed form (``str``) is deterministic and reparses to
the identical Expression.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

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
    "DEFAULT_GUARD_TAU",
    "FuncFactor",
    "Term",
    "Expression",
    "GuardedQuotient",
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

_BATCH_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "tanh": np.tanh,
    "sinh": np.sinh,
    "cosh": np.cosh,
}

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


def _format_float(v: float) -> str:
    if v.is_integer() and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


@dataclass(frozen=True)
class FuncFactor:
    """One smooth factor ``name(w . z + b)`` with an affine argument."""

    name: str
    weights: tuple[float, ...]
    bias: float

    def key(self):
        return (self.name, self.weights, self.bias)

    def __str__(self) -> str:
        parts = [(w, f"z{j + 1}") for j, w in enumerate(self.weights) if w != 0.0]
        if self.bias != 0.0 or not parts:
            parts.append((self.bias, None))
        out = []
        for k, (val, var) in enumerate(parts):
            mag = abs(val)
            if var is None:
                piece = _format_float(mag)
            elif mag == 1.0:
                piece = var
            else:
                piece = f"{_format_float(mag)}*{var}"
            if k == 0:
                out.append(("-" if val < 0 else "") + piece)
            else:
                out.append((" - " if val < 0 else " + ") + piece)
        return f"{self.name}({''.join(out)})"


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


def _canonical_terms(terms: Iterable[Term], n_vars: int) -> tuple[Term, ...]:
    acc: dict = {}
    reps: dict = {}
    for t in terms:
        if len(t.exponents) != n_vars:
            raise ArityMismatch(
                f"term has {len(t.exponents)} exponents, expected {n_vars}"
            )
        coeff = t.coeff
        kept = []
        for f in t.factors:
            if not all(map(math.isfinite, f.weights)) or not math.isfinite(f.bias):
                raise NonFiniteEntry(f"function factor {f} is not finite")
            if all(w == 0.0 for w in f.weights):
                try:
                    coeff *= FUNCTIONS[f.name](f.bias)
                except OverflowError:
                    raise NonFiniteEntry(f"constant {f} overflows") from None
            else:
                kept.append(f)
        if coeff == 0.0:
            continue
        factors = tuple(sorted(kept, key=FuncFactor.key))
        key = (t.exponents, tuple(f.key() for f in factors))
        acc[key] = acc.get(key, 0.0) + coeff
        reps[key] = (t.exponents, factors)
    out = [
        Term(coeff, *reps[key]) for key, coeff in acc.items() if coeff != 0.0
    ]
    for t in out:
        if not math.isfinite(t.coeff):
            raise NonFiniteEntry(f"expression coefficient {t.coeff} is not finite")
    out.sort(key=Term.key)
    return tuple(out)


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
        return cls.from_terms([Term(float(value), (0,) * n_vars, ())], n_vars)

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
        return Expression.from_terms(
            [Term(t.coeff * s, t.exponents, t.factors) for t in self.terms],
            self.n_vars,
        )

    def __mul__(self, other: "Expression") -> "Expression":
        self._check_same_arity(other)
        prods = []
        for a in self.terms:
            for b in other.terms:
                exps = tuple(x + y for x, y in zip(a.exponents, b.exponents))
                prods.append(Term(a.coeff * b.coeff, exps, a.factors + b.factors))
        return Expression.from_terms(prods, self.n_vars)

    def __pow__(self, k: int) -> "Expression":
        if k < 0:
            raise NegativeExponent(f"negative exponent {k}")
        out = Expression.constant(1.0, self.n_vars)
        for _ in range(k):
            out = out * self
        return out

    # --- evaluation -------------------------------------------------------

    @cached_property
    def _compiled(self):
        spec = []
        for t in self.terms:
            monos = tuple((j, e) for j, e in enumerate(t.exponents) if e)
            facs = tuple(
                (
                    FUNCTIONS[f.name],
                    tuple((j, w) for j, w in enumerate(f.weights) if w != 0.0),
                    f.bias,
                )
                for f in t.factors
            )
            spec.append((t.coeff, monos, facs))
        return tuple(spec)

    def evaluate(self, z: Sequence[float]) -> float:
        """Exact sum-of-products evaluation at a single point."""
        if len(z) != self.n_vars:
            raise ArityMismatch(
                f"point has {len(z)} coordinates, expression arity is {self.n_vars}"
            )
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

    def evaluate_batch(self, points) -> np.ndarray:
        """Vectorized evaluation over an (m, n_vars) array of points."""
        Z = np.asarray(points, dtype=float)
        if Z.ndim != 2 or Z.shape[1] != self.n_vars:
            raise ArityMismatch(
                f"batch shape {Z.shape} incompatible with arity {self.n_vars}"
            )
        out = np.zeros(Z.shape[0])
        for t in self.terms:
            v = np.full(Z.shape[0], t.coeff)
            for j, e in enumerate(t.exponents):
                if e:
                    v = v * Z[:, j] ** e
            for f in t.factors:
                a = Z @ np.asarray(f.weights) + f.bias
                v = v * _BATCH_FUNCTIONS[f.name](a)
            out += v
        return out

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
        out = []
        for t in self.terms:
            exps = list(t.exponents)
            exps[j] -= 1
            out.append(Term(t.coeff, tuple(exps), t.factors))
        return Expression.from_terms(out, self.n_vars)

    # --- misc ---------------------------------------------------------------

    def is_constant(self) -> bool:
        return all(
            not any(t.exponents) and not t.factors for t in self.terms
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        out = []
        for k, t in enumerate(self.terms):
            body = t.render(abs(t.coeff))
            if k == 0:
                out.append(("-" if t.coeff < 0 else "") + body)
            else:
                out.append((" - " if t.coeff < 0 else " + ") + body)
        return "".join(out)


# --- guarded quotient ------------------------------------------------------


@dataclass(frozen=True)
class GuardedQuotient:
    """``numerator(z) / z_i`` with the analytic derivative near ``z_i = 0``.

    The numerator vanishes identically on ``z_i = 0``, so the quotient is
    removable; evaluation switches to ``d numerator / d z_i`` (at the actual
    point, z_i as given) whenever ``|z_i| <= tau * (1 + |z|_inf)``.  The
    result is continuous in z up to O(tau) across the guard.
    """

    numerator: Expression
    divisor_index: int  # 1-based
    derivative: Expression
    tau: float = DEFAULT_GUARD_TAU

    def effective_threshold(self, z: Sequence[float]) -> float:
        m = 0.0
        for v in z:
            a = abs(v)
            if a > m:
                m = a
        return self.tau * (1.0 + m)

    def evaluate(self, z: Sequence[float]) -> float:
        zi = z[self.divisor_index - 1]
        if abs(zi) > self.effective_threshold(z):
            return self.numerator.evaluate(z) / zi
        return self.derivative.evaluate(z)

    def evaluate_batch(self, points) -> np.ndarray:
        Z = np.asarray(points, dtype=float)
        zi = Z[:, self.divisor_index - 1]
        tau_eff = self.tau * (1.0 + np.max(np.abs(Z), axis=1))
        quot = np.abs(zi) > tau_eff
        num = self.numerator.evaluate_batch(Z)
        der = self.derivative.evaluate_batch(Z)
        return np.where(quot, num / np.where(quot, zi, 1.0), der)


# --- parser -----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^()])"
)

_VAR_RE = re.compile(r"z(\d+)\Z")

#: Deepest nesting of parentheses and function calls the parser accepts;
#: printed expressions nest at most 2 deep, and the cap keeps the
#: recursive descent far from Python's recursion limit.
MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str, n_vars: int):
        self.text = text
        self.n_vars = n_vars
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            kind = m.lastgroup
            self.tokens.append((kind, m.group(), pos))
            pos = m.end()
        self.k = 0
        self.depth = 0

    def peek(self):
        if self.k < len(self.tokens):
            return self.tokens[self.k]
        return ("end", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.k += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, found {val or 'end of input'!r}", pos)

    def group(self, pos: int) -> Expression:
        """The expression after the "(" at pos, up to its ")"."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", pos)
        e = self.expression()
        self.expect_op(")")
        self.depth -= 1
        return e

    def parse(self) -> Expression:
        e = self.expression()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {val!r}", pos)
        return e

    def expression(self) -> Expression:
        """A signed sum, canonicalized once: merges add in written order."""
        terms = []
        kind, val, _ = self.peek()
        while True:
            sign = 1.0
            if kind == "op" and val in "+-":
                self.next()
                sign = -1.0 if val == "-" else 1.0
            terms += (
                Term(sign * t.coeff, t.exponents, t.factors) for t in self.term().terms
            )
            kind, val, _ = self.peek()
            if kind != "op" or val not in "+-":
                return Expression.from_terms(terms, self.n_vars)

    def term(self) -> Expression:
        e = self.power()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                e = e * self.power()
            else:
                return e

    def power(self) -> Expression:
        e = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, val, pos = self.next()
            if kind == "op" and val == "-":
                raise NegativeExponent("negative exponent", pos)
            if kind != "num" or not re.fullmatch(r"\d+", val):
                raise ParseError("exponent must be a nonnegative integer", pos)
            e = e ** int(val)
        return e

    def atom(self) -> Expression:
        kind, val, pos = self.next()
        if kind == "num":
            return Expression.constant(float(val), self.n_vars)
        if kind == "op" and val == "(":
            return self.group(pos)
        if kind == "name":
            m = _VAR_RE.match(val)
            if m:
                idx = int(m.group(1))
                if not 1 <= idx <= self.n_vars:
                    raise ParseError(
                        f"variable {val} out of range for arity {self.n_vars}", pos
                    )
                return Expression.variable(idx, self.n_vars)
            nxt_kind, nxt_val, _ = self.peek()
            if nxt_kind == "op" and nxt_val == "(":
                if val not in FUNCTIONS:
                    raise UnsupportedFunction(
                        f"unsupported function {val!r} "
                        f"(supported: {', '.join(sorted(FUNCTIONS))})",
                        pos,
                    )
                arg = self.group(self.next()[2])
                weights, bias = self._as_affine(arg, pos)
                factor = FuncFactor(val, weights, bias)
                return Expression.from_terms(
                    [Term(1.0, (0,) * self.n_vars, (factor,))], self.n_vars
                )
            raise ParseError(f"unknown identifier {val!r}", pos)
        raise ParseError(f"unexpected {val or 'end of input'!r}", pos)

    def _as_affine(self, e: Expression, pos: int):
        weights = [0.0] * self.n_vars
        bias = 0.0
        for t in e.terms:
            deg = sum(t.exponents)
            if t.factors or deg > 1:
                raise NonAffineFunctionArgument(
                    "function argument must be affine in z", pos
                )
            if deg == 0:
                bias += t.coeff
            else:
                j = next(j for j, ex in enumerate(t.exponents) if ex)
                weights[j] += t.coeff
        return tuple(weights), bias


def parse(text: str, n_vars: int) -> Expression:
    """Parse expression text over variables z1..z{n_vars}.

    Grammar (whitespace-insensitive)::

        expression = [sign] term { sign term }
        term       = power { "*" power }
        power      = atom [ "^" integer ]
        atom       = number | variable | function "(" expression ")"
                   | "(" expression ")"

    Function arguments must reduce to affine forms in the variables, and
    parentheses and function calls nest at most ``MAX_NESTING`` deep.
    """
    if n_vars < 1:
        raise ValueError("n_vars must be >= 1")
    if not isinstance(text, str):
        raise ParseError(f"expression must be text, got {text!r}")
    return _Parser(text, n_vars).parse()
