"""Seeded synthetic nonlinear-LFR models for the benchmark.

Every model is drawn from one ``numpy.random.default_rng(seed)`` stream and
returned as raw model-file content (the dict ``validate_nlfr`` accepts), so
the same seed and sizes give a byte-identical JSON document.  No data files
are involved.

The draw:

* ``A`` is a random matrix shifted left so that its spectral abscissa is
  -1 or below (stable), rounded to four decimals so the file is short and
  the shift does not depend on the last bits of the eigenvalue routine.
* ``Bw``, ``Cz``, ``Dzu`` and ``Dyw`` are sparse: two nonzeros per ``Bw``
  column and ``Cz`` row, and a third of ``Dzu``/``Dyw`` filled in a fixed
  pattern (so ``Dzu`` is nonzero and the ``Bk``/``Dk`` basis matrices are
  exercised).  Offset models also get a strong ``Dzu`` diagonal unless
  ``dc_path=False``; without it the DC gain that the offset solve inverts
  can be ill-conditioned.
* Each nonlinearity row is a sum of terms from the expression language:
  monomials, and sin, cos, exp, tanh, sinh and cosh of affine arguments
  (bounded functions freely, unbounded ones with small weights and times a
  variable).  Row 1 also carries one power of a sum, which factorization
  expands into many terms.  With ``offset=True`` every row gets a nonzero
  constant, so embedding runs the offset (DC-gain) layer.

Apart from where the two nonzeros of each ``Bw`` column and ``Cz`` row sit
(the basis matrices are dense products either way), only numbers are
drawn: which terms, functions and variables appear, and the ``Dzu`` and
``Dyw`` patterns, depend on the sizes alone.  So every seed costs the same
work, and runs with different seeds can be compared.

Coefficients are small against the stability margin of ``A`` so the
closed loop stays bounded for unit-RMS inputs.
"""

from __future__ import annotations

import json

import numpy as np

BOUNDED = ("sin", "cos", "tanh")
UNBOUNDED = ("exp", "sinh", "cosh")
VANISHING = ("sin", "tanh", "sinh")  # f(0) = 0 for these at zero bias


def _num(v: float) -> str:
    return repr(round(float(v), 3))


def _signed(terms: list[tuple[float, str]]) -> str:
    """Join (coefficient, body) pairs into expression text."""
    out = []
    for k, (c, body) in enumerate(terms):
        mag = _num(abs(c))
        piece = mag if not body else f"{mag}*{body}"
        if k == 0:
            out.append(("-" if c < 0 else "") + piece)
        else:
            out.append((" - " if c < 0 else " + ") + piece)
    return "".join(out)


def _signed_uniform(rng, lo: float, hi: float) -> float:
    return float(rng.uniform(lo, hi) * rng.choice((-1, 1)))


def _affine(rng, idx, scale: float, bias: float = 0.0) -> str:
    terms = [(_signed_uniform(rng, 0.3, 1.0) * scale, f"z{j + 1}") for j in sorted(set(idx))]
    if bias:
        terms.append((bias, ""))
    return _signed(terms)


def _term(rng, r: int, k: int, n_z: int) -> tuple[float, str]:
    """Term k of row r; it vanishes at the origin.

    The kind, function and variables follow from (r, k) alone and only the
    numbers are drawn, so every seed gives the same structure: the same
    scheduling channels, guarded entries and term counts, hence the same
    amount of work.
    """
    kind = (r + k) % 4
    a, b, c = ((r + 2 * k + j) % n_z for j in range(3))
    pick = (2 * r + k) % 3
    coeff = _signed_uniform(rng, 0.05, 0.3)
    if kind == 0:  # monomial of degree 2 or 3
        return 0.2 * coeff, (f"z{a + 1}*z{b + 1}" if k % 2 == 0 else f"z{a + 1}^2*z{b + 1}")
    if kind == 1:  # vanishing function of a zero-bias affine argument
        name = VANISHING[pick]
        return coeff, f"{name}({_affine(rng, (a, b), 0.4 if name == 'sinh' else 1.0)})"
    if kind == 2:  # bounded function of a biased argument, times a variable
        bias = _signed_uniform(rng, 0.1, 1.0)
        return coeff, f"{BOUNDED[pick]}({_affine(rng, (a, b), 1.5, bias)})*z{c + 1}"
    bias = _signed_uniform(rng, 0.05, 0.3)  # small unbounded factor, times a variable
    return coeff, f"{UNBOUNDED[pick]}({_affine(rng, (a, b), 0.3, bias)})*z{c + 1}"


def _power_of_sum(rng, n_z: int) -> tuple[float, str]:
    base = _affine(rng, (0, 2 % n_z, 4 % n_z), 1.0)
    return 0.02 * float(rng.choice((-1, 1))), f"({base})^3"


def _entries(rng, shape, every: int) -> np.ndarray:
    """Nonzeros where (row + column) % every == 0: a fixed pattern."""
    mask = np.add.outer(np.arange(shape[0]), np.arange(shape[1])) % every == 0
    vals = rng.uniform(0.5, 1.5, shape) * rng.choice((-1.0, 1.0), shape)
    return np.round(np.where(mask, vals, 0.0), 4)


def _two_per(rng, count: int, length: int) -> np.ndarray:
    """count vectors of the given length with two nonzeros each."""
    out = np.zeros((count, length))
    for k in range(count):
        idx = rng.choice(length, size=min(2, length), replace=False)
        out[k, idx] = np.round(rng.uniform(0.5, 1.5, idx.size) * rng.choice((-1.0, 1.0), idx.size), 4)
    return out


def synth_model(
    seed: int,
    n_x: int,
    n_u: int,
    n_y: int,
    n_w: int,
    n_z: int,
    *,
    terms_per_row: int = 3,
    offset: bool = False,
    dc_path: bool = True,
) -> dict:
    """Raw model-file content of one seeded synthetic nonlinear-LFR model."""
    rng = np.random.default_rng(seed)
    M = np.round(rng.standard_normal((n_x, n_x)) / np.sqrt(n_x), 4)
    shift = round(float(np.max(np.linalg.eigvals(M).real)) + 1.0, 2) + 0.01
    A = M - shift * np.eye(n_x)
    Bw = _two_per(rng, n_w, n_x).T
    Cz = _two_per(rng, n_z, n_x)
    Dzu = _entries(rng, (n_z, n_u), 3)
    if offset and dc_path:
        # A strong direct path u -> z keeps the DC gain G2_0 well
        # conditioned, so the input shift d that cancels the offset stays
        # of the offset's size instead of growing without bound.
        for i in range(n_z):
            Dzu[i, i % n_u] = round(_signed_uniform(rng, 2.0, 3.0), 4)
    Dyw = _entries(rng, (n_y, n_w), 3)
    Bu = np.round(rng.uniform(-1.0, 1.0, (n_x, n_u)), 4)
    Cy = np.round(rng.uniform(-1.0, 1.0, (n_y, n_x)) / np.sqrt(n_x), 4)
    Dyu = np.zeros((n_y, n_u))

    rows = []
    for r in range(n_w):
        terms = [_term(rng, r, k, n_z) for k in range(terms_per_row)]
        if r == 0:
            terms.append(_power_of_sum(rng, n_z))
        if offset:
            terms.append((_signed_uniform(rng, 0.1, 0.5), ""))
        rows.append(_signed(terms))
    return {
        "dims": {"n_x": n_x, "n_u": n_u, "n_y": n_y, "n_w": n_w, "n_z": n_z},
        "A": A.tolist(),
        "Bw": Bw.tolist(),
        "Bu": Bu.tolist(),
        "Cz": Cz.tolist(),
        "Cy": Cy.tolist(),
        "Dzu": Dzu.tolist(),
        "Dyw": Dyw.tolist(),
        "Dyu": Dyu.tolist(),
        "f": rows,
    }


def model_json(raw: dict) -> str:
    """The model file text, formatted like ``lpvembed example`` writes it."""
    return json.dumps(raw, indent=2) + "\n"
