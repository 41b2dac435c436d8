"""Sparse multivariate polynomial arithmetic over exact and floating domains.

A polynomial is a map from exponent vectors (one non-negative integer per
variable) to nonzero coefficients.  Coefficients live in one of three domains:
exact rationals (`fractions.Fraction`), exact Gaussian rationals
(:class:`GaussianRational`, ``a + b*i`` with rational ``a``, ``b``), or
double-precision complex numbers.  Exact arithmetic never rounds.

The canonical term order is graded lexicographic, descending; printing and
parsing use it, and structural equality is defined on the canonical form.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import UsageError

MINUS_INFINITY = float("-inf")


class GaussianRational:
    """Exact Gaussian rational a + b*i.  Immutable; a field, so division is exact."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result = GaussianRational(1)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __abs__(self):
        return abs(complex(self))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


@dataclass(frozen=True)
class Domain:
    """Coefficient domain tag.  ``atol`` is the comparison tolerance for floats."""

    tag: str
    atol: float = 0.0

    @property
    def is_exact(self) -> bool:
        return self.tag != "complex"

    def coerce(self, value):
        if self.tag == "rational":
            if isinstance(value, Fraction):
                return value
            if isinstance(value, int):
                return Fraction(value)
            if isinstance(value, GaussianRational) and value.im == 0:
                return value.re
            raise UsageError(f"cannot coerce {value!r} into the rational domain")
        if self.tag == "gaussian":
            if isinstance(value, GaussianRational):
                return value
            if isinstance(value, (int, Fraction)):
                return GaussianRational(value)
            raise UsageError(f"cannot coerce {value!r} into the Gaussian rational domain")
        if isinstance(value, (int, float)):
            return complex(value)
        if isinstance(value, complex):
            return value
        if isinstance(value, Fraction):
            return complex(float(value))
        if isinstance(value, GaussianRational):
            return complex(value)
        raise UsageError(f"cannot coerce {value!r} into the complex domain")

    def zero(self):
        return self.coerce(0)

    def one(self):
        return self.coerce(1)

    def eq(self, a, b) -> bool:
        if self.is_exact:
            return a == b
        return abs(a - b) <= self.atol * max(1.0, abs(a), abs(b))


RATIONAL = Domain("rational")
GAUSSIAN = Domain("gaussian")
COMPLEX = Domain("complex", atol=1e-10)

DOMAINS = {"rational": RATIONAL, "gaussian": GAUSSIAN, "complex": COMPLEX}


def domain_of(values, domain: Domain = RATIONAL) -> Domain:
    """The smallest domain that holds ``domain`` and every scalar in ``values``.

    ``int`` and ``Fraction`` values keep ``domain``, a :class:`GaussianRational`
    lifts the rational domain to the Gaussian one, and any other value (a
    float or a complex number) needs the complex domain.
    """
    # one test per distinct type: long exact rows hold one or two types
    for kind in set(map(type, values)):
        if issubclass(kind, GaussianRational):
            if domain.tag == "rational":
                domain = GAUSSIAN
        elif not issubclass(kind, (int, Fraction)):
            return COMPLEX
    return domain


def join_domains(*domains: Domain) -> Domain:
    """Smallest common domain: rational < gaussian < complex."""
    tags = {d.tag for d in domains}
    if "complex" in tags:
        return COMPLEX
    if "gaussian" in tags:
        return GAUSSIAN
    return RATIONAL


def _term_key(exp):
    return (sum(exp), exp)


class MultiPoly:
    """Sparse multivariate polynomial over a fixed ordered variable list."""

    __slots__ = ("variables", "domain", "terms")

    def __init__(self, variables, terms, domain: Domain = RATIONAL):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise UsageError(f"duplicate variable names in {variables}")
        clean = {}
        nvars = len(variables)
        for exp, coeff in terms.items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != nvars:
                raise UsageError(
                    f"exponent vector {exp} does not match {nvars} variables"
                )
            if any(e < 0 for e in exp):
                raise UsageError(f"negative exponent in {exp}")
            c = domain.coerce(coeff)
            if c != domain.zero():
                prev = clean.get(exp)
                if prev is not None:
                    c = prev + c
                    if c == domain.zero():
                        del clean[exp]
                        continue
                clean[exp] = c
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, variables, domain: Domain = RATIONAL) -> "MultiPoly":
        return cls(variables, {}, domain)

    @classmethod
    def constant(cls, variables, value, domain: Domain = RATIONAL) -> "MultiPoly":
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): value}, domain)

    @classmethod
    def variable(cls, variables, name, domain: Domain = RATIONAL) -> "MultiPoly":
        variables = tuple(variables)
        if name not in variables:
            raise UsageError(f"unknown symbol {name!r}; variables are {variables}")
        exp = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {exp: 1}, domain)

    # -- basic structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self):
        """Total degree; the zero polynomial reports minus infinity."""
        if not self.terms:
            return MINUS_INFINITY
        return max(sum(e) for e in self.terms)

    def degree_in(self, var):
        idx = self._var_index(var)
        if not self.terms:
            return MINUS_INFINITY
        return max(e[idx] for e in self.terms)

    def degrees_over(self, names):
        """Set of total degrees restricted to the given variables."""
        idx = [self._var_index(v) for v in names]
        return {sum(e[i] for i in idx) for e in self.terms}

    def _var_index(self, var) -> int:
        try:
            return self.variables.index(var)
        except ValueError:
            raise UsageError(
                f"unknown symbol {var!r}; variables are {self.variables}"
            ) from None

    def sorted_terms(self):
        """Terms in descending graded-lex order."""
        return sorted(self.terms.items(), key=lambda kv: _term_key(kv[0]), reverse=True)

    def leading_term(self):
        if not self.terms:
            raise UsageError("the zero polynomial has no leading term")
        exp = max(self.terms, key=_term_key)
        return exp, self.terms[exp]

    # -- arithmetic ---------------------------------------------------------

    def _lift_scalar(self, other):
        if isinstance(other, MultiPoly):
            if other.variables != self.variables:
                raise UsageError(
                    f"mismatched variable lists {other.variables} vs {self.variables}"
                )
            if other.domain.tag != self.domain.tag:
                raise UsageError(
                    f"mismatched domains {other.domain.tag} vs {self.domain.tag}"
                )
            return other
        if isinstance(other, (int, float, complex, Fraction, GaussianRational)):
            return MultiPoly.constant(self.variables, other, self.domain)
        return None

    def __add__(self, other):
        o = self._lift_scalar(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        zero = self.domain.zero()
        for exp, c in o.terms.items():
            s = out.get(exp, zero) + c
            if s == zero:
                out.pop(exp, None)
            else:
                out[exp] = s
        return self._raw(out)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift_scalar(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._lift_scalar(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return self._raw({e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        o = self._lift_scalar(other)
        if o is None:
            return NotImplemented
        if not self.terms or not o.terms:
            return MultiPoly.zero(self.variables, self.domain)
        out = {}
        zero = self.domain.zero()
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(exp, zero) + c1 * c2
                if s == zero:
                    out.pop(exp, None)
                else:
                    out[exp] = s
        return self._raw(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise UsageError("polynomial powers must be non-negative integers")
        result = MultiPoly.constant(self.variables, 1, self.domain)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def _raw(self, terms: dict) -> "MultiPoly":
        p = MultiPoly.__new__(MultiPoly)
        object.__setattr__(p, "variables", self.variables)
        object.__setattr__(p, "domain", self.domain)
        object.__setattr__(p, "terms", terms)
        return p

    def __eq__(self, other):
        o = self._lift_scalar(other)
        if o is None:
            return NotImplemented
        if self.domain.is_exact:
            return self.terms == o.terms
        zero = 0j
        for exp in set(self.terms) | set(o.terms):
            if not self.domain.eq(self.terms.get(exp, zero), o.terms.get(exp, zero)):
                return False
        return True

    def __bool__(self):
        return bool(self.terms)

    # -- calculus and evaluation --------------------------------------------

    def derivative(self, var) -> "MultiPoly":
        idx = self._var_index(var)
        out = {}
        for exp, c in self.terms.items():
            e = exp[idx]
            if e == 0:
                continue
            nexp = exp[:idx] + (e - 1,) + exp[idx + 1 :]
            out[nexp] = out.get(nexp, self.domain.zero()) + c * e
        return self._raw({e: c for e, c in out.items() if c != self.domain.zero()})

    def eval(self, point: dict):
        """Evaluate at ``point`` (symbol -> scalar).

        A full assignment returns a scalar; a partial one returns a polynomial
        in the remaining variables.  Float values force a complex result even
        for exact inputs.
        """
        for name in point:
            if name not in self.variables:
                raise UsageError(
                    f"unknown symbol {name!r}; variables are {self.variables}"
                )
        target = domain_of(point.values(), self.domain)
        assigned = [
            (i, target.coerce(point[v]))
            for i, v in enumerate(self.variables)
            if v in point
        ]
        remaining = tuple(v for v in self.variables if v not in point)
        out = {}
        zero = target.zero()
        for exp, c in self.terms.items():
            val = target.coerce(c)
            for i, x in assigned:
                e = exp[i]
                if e:
                    val = val * x**e
            rexp = tuple(exp[i] for i, v in enumerate(self.variables) if v not in point)
            s = out.get(rexp, zero) + val
            if s == zero:
                out.pop(rexp, None)
            else:
                out[rexp] = s
        if remaining:
            return MultiPoly(remaining, out, target)
        return out.get((), zero)

    def with_domain(self, domain: Domain) -> "MultiPoly":
        if domain.tag == self.domain.tag:
            return self
        return MultiPoly(self.variables, self.terms, domain)

    def with_variables(self, variables) -> "MultiPoly":
        """Re-index onto a new variable list (must cover all used symbols)."""
        variables = tuple(variables)
        if variables == self.variables:
            return self
        pos = {}
        for i, v in enumerate(self.variables):
            if v in variables:
                pos[i] = variables.index(v)
            elif any(e[i] for e in self.terms):
                raise UsageError(f"variable {v!r} is used but absent from {variables}")
        out = {}
        for exp, c in self.terms.items():
            nexp = [0] * len(variables)
            for i, e in enumerate(exp):
                if e:
                    nexp[pos[i]] = e
            out[tuple(nexp)] = c
        return MultiPoly(variables, out, self.domain)

    def coefficients_in(self, var):
        """Coefficients of ``var^0, var^1, ...`` as polynomials without ``var``."""
        idx = self._var_index(var)
        deg = self.degree_in(var)
        rest = self.variables[:idx] + self.variables[idx + 1 :]
        if deg == MINUS_INFINITY:
            return [MultiPoly.zero(rest, self.domain)]
        buckets = [dict() for _ in range(deg + 1)]
        for exp, c in self.terms.items():
            rexp = exp[:idx] + exp[idx + 1 :]
            buckets[exp[idx]][rexp] = c
        return [MultiPoly(rest, b, self.domain) for b in buckets]

    # -- exact division (fraction-free elimination support) ------------------

    def exact_div(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact polynomial division; raises if the division is not exact."""
        d = self._lift_scalar(divisor)
        if d is None:
            raise UsageError("exact_div expects a polynomial or exact scalar")
        if not self.domain.is_exact:
            raise UsageError("exact division requires an exact coefficient domain")
        if d.is_zero:
            raise UsageError("division by the zero polynomial")
        if self.is_zero:
            return self
        lead_d, cd = d.leading_term()
        rem = dict(self.terms)
        quo = {}
        zero = self.domain.zero()
        while rem:
            lead_r = max(rem, key=_term_key)
            cr = rem[lead_r]
            exp = tuple(a - b for a, b in zip(lead_r, lead_d))
            if any(e < 0 for e in exp):
                raise ArithmeticError("inexact polynomial division")
            coeff = cr / cd
            quo[exp] = quo.get(exp, zero) + coeff
            for e2, c2 in d.terms.items():
                tgt = tuple(a + b for a, b in zip(exp, e2))
                s = rem.get(tgt, zero) - coeff * c2
                if s == zero:
                    rem.pop(tgt, None)
                else:
                    rem[tgt] = s
        return self._raw({e: c for e, c in quo.items() if c != zero})

    # -- canonical text form --------------------------------------------------

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp, coeff in self.sorted_terms():
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.variables, exp)
                if e
            )
            body, negative = _coeff_text(coeff, self.domain)
            if mono:
                piece = mono if body == "1" else f"{body}*{mono}"
            else:
                piece = body
            if not parts:
                parts.append(f"-{piece}" if negative else piece)
            else:
                parts.append(f" - {piece}" if negative else f" + {piece}")
        return "".join(parts)

    def __repr__(self):
        return f"MultiPoly({self.to_text()!r}, vars={self.variables}, domain={self.domain.tag})"

    @classmethod
    def parse(cls, text: str, variables, domain: Domain = RATIONAL) -> "MultiPoly":
        return _parse_poly(text, tuple(variables), domain)


def _coeff_text(coeff, domain: Domain):
    """Render a coefficient; returns (body, negative) with the sign split off
    for purely real values.  Mixed Gaussian/complex values are parenthesized."""
    if isinstance(coeff, Fraction):
        return str(abs(coeff)), coeff < 0
    if isinstance(coeff, GaussianRational):
        if coeff.im == 0:
            return str(abs(coeff.re)), coeff.re < 0
        if coeff.re == 0:
            body = "i" if abs(coeff.im) == 1 else f"{abs(coeff.im)}*i"
            return body, coeff.im < 0
        sign = "+" if coeff.im > 0 else "-"
        im = abs(coeff.im)
        imtxt = "i" if im == 1 else f"{im}*i"
        return f"({coeff.re}{sign}{imtxt})", False
    c = complex(coeff)
    if c.imag == 0:
        return f"{abs(c.real):.17g}", c.real < 0
    if c.real == 0:
        mag = abs(c.imag)
        body = "i" if mag == 1 else f"{mag:.17g}*i"
        return body, c.imag < 0
    sign = "+" if c.imag > 0 else "-"
    return f"({c.real:.17g}{sign}{abs(c.imag):.17g}*i)", False


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise UsageError(f"cannot tokenize polynomial text at {text[pos:]!r}")
        pos = m.end()
        if m.group("num") is not None:
            out.append(("num", m.group("num")))
        elif m.group("name") is not None:
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
    return out


class _Parser:
    def __init__(self, tokens, variables, domain):
        self.tokens = tokens
        self.i = 0
        self.variables = variables
        self.domain = domain

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val = self.next()
        if kind != "op" or val != op:
            raise UsageError(f"expected {op!r} in polynomial text, got {val!r}")

    def parse_number(self, raw):
        if "." in raw or "e" in raw or "E" in raw:
            if self.domain.is_exact:
                raise UsageError(f"float literal {raw!r} in exact domain")
            value = float(raw)
        else:
            value = Fraction(int(raw))
        if self.peek() == ("op", "/"):
            self.next()
            kind, den = self.next()
            if kind != "num" or not den.isdigit():
                raise UsageError("expected integer denominator after '/'")
            value = value / Fraction(int(den))
        return value

    def imaginary_unit(self):
        if self.domain.tag == "gaussian":
            return GaussianRational(0, 1)
        if self.domain.tag == "complex":
            return 1j
        raise UsageError("imaginary unit 'i' is not valid in the rational domain")

    def parse_paren_scalar(self):
        """Scalar sum inside parentheses, e.g. (1/2-3/4*i)."""
        total = self.domain.zero()
        sign = 1
        first = True
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                sign = 1 if val == "+" else -1
            elif not first:
                break
            atom = self.domain.coerce(self.parse_scalar_atom())
            total = total + (-atom if sign < 0 else atom)
            sign = 1
            first = False
            kind, val = self.peek()
            if kind == "op" and val == ")":
                break
        self.expect_op(")")
        return total

    def parse_scalar_atom(self):
        kind, val = self.next()
        if kind == "num":
            value = self.parse_number(val)
            if self.peek() == ("op", "*") and self.tokens[self.i + 1 : self.i + 2] == [("name", "i")]:
                self.next()
                self.next()
                return self.domain.coerce(value) * self.imaginary_unit()
            if self.peek() == ("name", "i"):
                self.next()
                return self.domain.coerce(value) * self.imaginary_unit()
            return value
        if kind == "name" and val == "i":
            return self.imaginary_unit()
        raise UsageError(f"unexpected token {val!r} in coefficient")

    def parse(self):
        poly = MultiPoly.zero(self.variables, self.domain)
        sign = 1
        expect_term = True
        while self.i < len(self.tokens):
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                sign = sign * (1 if val == "+" else -1)
                expect_term = True
                continue
            if not expect_term:
                raise UsageError(f"unexpected token {val!r} in polynomial text")
            poly = poly + self.parse_term(sign)
            sign = 1
            expect_term = False
        if expect_term and poly.is_zero and not self.tokens:
            raise UsageError("empty polynomial text")
        return poly

    def parse_term(self, sign):
        coeff = self.domain.one()
        exp = [0] * len(self.variables)
        saw_factor = False
        while True:
            kind, val = self.peek()
            if kind == "num":
                self.next()
                coeff = coeff * self.domain.coerce(self.parse_number(val))
            elif kind == "name":
                self.next()
                if val == "i" and val not in self.variables:
                    coeff = coeff * self.imaginary_unit()
                else:
                    if val not in self.variables:
                        raise UsageError(
                            f"unknown symbol {val!r}; variables are {self.variables}"
                        )
                    power = 1
                    if self.peek() == ("op", "^"):
                        self.next()
                        k, p = self.next()
                        if k != "num" or not p.isdigit():
                            raise UsageError("expected integer exponent after '^'")
                        power = int(p)
                    exp[self.variables.index(val)] += power
            elif kind == "op" and val == "(":
                self.next()
                coeff = coeff * self.parse_paren_scalar()
            else:
                break
            saw_factor = True
            if self.peek() == ("op", "*"):
                self.next()
                continue
            kind, val = self.peek()
            if kind in ("num", "name") or (kind == "op" and val == "("):
                continue
            break
        if not saw_factor:
            raise UsageError("expected a term in polynomial text")
        if sign < 0:
            coeff = -coeff
        return MultiPoly(self.variables, {tuple(exp): coeff}, self.domain)


def _parse_poly(text, variables, domain):
    tokens = _tokenize(text)
    if not tokens:
        raise UsageError("empty polynomial text")
    if tokens == [("num", "0")]:
        return MultiPoly.zero(variables, domain)
    return _Parser(tokens, variables, domain).parse()


class PolyMatrix:
    """Dense matrix of :class:`MultiPoly` entries over a shared variable list."""

    __slots__ = ("rows", "cols", "variables", "domain", "entries")

    def __init__(self, entries):
        entries = tuple(tuple(row) for row in entries)
        if not entries or not entries[0]:
            raise UsageError("PolyMatrix needs positive dimensions")
        rows, cols = len(entries), len(entries[0])
        first = entries[0][0]
        for row in entries:
            if len(row) != cols:
                raise UsageError("ragged PolyMatrix rows")
            for p in row:
                if not isinstance(p, MultiPoly):
                    raise UsageError("PolyMatrix entries must be MultiPoly values")
                if p.variables != first.variables or p.domain.tag != first.domain.tag:
                    raise UsageError("PolyMatrix entries must share variables and domain")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "variables", first.variables)
        object.__setattr__(self, "domain", first.domain)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    def entry(self, i: int, j: int) -> MultiPoly:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise UsageError(f"entry ({i},{j}) out of bounds for {self.rows}x{self.cols}")
        return self.entries[i][j]

    def submatrix(self, row_indices, col_indices) -> "PolyMatrix":
        return PolyMatrix(
            [[self.entry(i, j) for j in col_indices] for i in row_indices]
        )

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(
                self.entries[i][j] == other.entries[i][j]
                for i in range(self.rows)
                for j in range(self.cols)
            )
        )


def symbolic_matrix(rows: int, cols: int) -> PolyMatrix:
    """Rational matrix of fresh symbols ``a{i}{j}`` with 1-based indices."""
    names = tuple(f"a{i + 1}{j + 1}" for i in range(rows) for j in range(cols))
    grid = [
        [MultiPoly.variable(names, f"a{i + 1}{j + 1}") for j in range(cols)]
        for i in range(rows)
    ]
    return PolyMatrix(grid)


# -- module-level operations -------------------------------------------------


def sym_det(M: PolyMatrix, columns=None):
    """Symbolic determinant of a square polynomial matrix, or minors of a wide one.

    The determinant is a division-free Laplace expansion over column subsets,
    so it stays inside the coefficient domain.  With ``columns``, an iterable
    of increasing column-index sequences as long as ``M`` has rows, the result
    is the list of the minors of ``M`` on those column sets, in that order,
    all from one expansion.
    """
    if columns is not None:
        return _det_laplace(M, columns)
    if M.rows != M.cols:
        raise UsageError(f"determinant of a non-square {M.rows}x{M.cols} matrix")
    return _det_laplace(M, [range(M.cols)])[0]


def _det_laplace(M: PolyMatrix, columns) -> list:
    """The minors of ``M`` on each column set of ``columns``, from one Laplace
    expansion down the rows.

    Level r maps each bit mask of r+1 columns to the minor of the first r+1
    rows on those columns; only masks inside some requested set are kept, so
    the last level holds every requested minor.  Polynomials are raw
    ``{packed exponent: coefficient}`` dicts: an exponent vector is one int
    with a bit field per variable, as wide as the sum over the rows of the
    row's largest degree in that variable needs, so a monomial product is one
    integer addition.  Rational rows are scaled to integers by the lcm of
    their denominators, and the product of the scales is divided out of the
    final minors.  Each product term is formed in full before it is added to
    its mask's sum, masks in order of first appearance, so floating-point
    minors round exactly as the expansion of each submatrix on its own would.
    """
    m, n = M.rows, M.cols
    targets = []
    for cols in columns:
        cols = tuple(cols)
        if len(cols) != m or not all(0 <= a < b for a, b in zip(cols, cols[1:] + (n,))):
            raise UsageError(f"column set {cols} is not {m} increasing indices below {n}")
        targets.append(sum(1 << c for c in cols))
    # masks inside a requested set; every mask of at most m columns is inside
    # one when all m-subsets are requested
    useful = None
    if len(set(targets)) < math.comb(n, m):
        useful = set()
        for t in targets:
            sub = t
            while sub:
                useful.add(sub)
                sub = (sub - 1) & t
    rational = M.domain.tag == "rational"
    zero = 0 if rational else M.domain.zero()
    fields, shift = [], 0
    for v in range(len(M.variables)):
        bound = sum(max((e[v] for p in row for e in p.terms), default=0) for row in M.entries)
        fields.append((shift, (1 << bound.bit_length()) - 1))
        shift += bound.bit_length()
    rows, scale = [], 1
    for row in M.entries:
        row_scale = math.lcm(*(c.denominator for p in row for c in p.terms.values())) if rational else 1
        scale *= row_scale
        rows.append([
            {
                sum(e << at for e, (at, _) in zip(exp, fields)):
                    c.numerator * (row_scale // c.denominator) if rational else c
                for exp, c in p.terms.items()
            }
            for p in row
        ])
    level = {0: {0: 1 if rational else M.domain.one()}}
    for r, row in enumerate(rows):
        nxt = {}
        for mask, minor in level.items():
            for c, entry in enumerate(row):
                bit = 1 << c
                key = mask | bit
                if mask & bit or not entry or (useful is not None and key not in useful):
                    continue
                term = {}
                for e1, c1 in entry.items():
                    for e2, c2 in minor.items():
                        k = e1 + e2
                        s = term.get(k, zero) + c1 * c2
                        if s:
                            term[k] = s
                        else:
                            term.pop(k, None)
                # the sign of column c's position inside the subset
                if (r + (mask & (bit - 1)).bit_count()) & 1:
                    term = {k: -s for k, s in term.items()}
                acc = nxt.get(key)
                if acc is None:
                    nxt[key] = term
                    continue
                for k, s in term.items():
                    s = acc.get(k, zero) + s
                    if s:
                        acc[k] = s
                    else:
                        acc.pop(k, None)
        level = nxt
        if not level:
            break
    template = MultiPoly.zero(M.variables, M.domain)
    return [
        template._raw({
            tuple((k >> at) & bits for at, bits in fields): Fraction(s, scale) if rational else s
            for k, s in level.get(t, {}).items()
        })
        for t in targets
    ]


def resultant_univariate(p: MultiPoly, q: MultiPoly, var) -> MultiPoly:
    """Sylvester resultant eliminating ``var``; rows carry p's coefficients
    first, then q's.  The result lives in the remaining variables."""
    pc = p.coefficients_in(var)
    qc = q.coefficients_in(var)
    dp, dq = len(pc) - 1, len(qc) - 1
    if dp < 1 or pc[dp].is_zero:
        raise UsageError(f"first argument is constant in {var!r}")
    if dq < 1 or qc[dq].is_zero:
        raise UsageError(f"second argument is constant in {var!r}")
    rest = pc[0].variables
    domain = pc[0].domain
    zero = MultiPoly.zero(rest, domain)
    size = dp + dq
    grid = []
    for i in range(dq):
        row = [zero] * i + [pc[dp - t] for t in range(dp + 1)] + [zero] * (dq - 1 - i)
        grid.append(row)
    for i in range(dp):
        row = [zero] * i + [qc[dq - t] for t in range(dq + 1)] + [zero] * (dp - 1 - i)
        grid.append(row)
    assert all(len(r) == size for r in grid)
    return sym_det(PolyMatrix(grid))


def extract_monomial_factor(p: MultiPoly, var):
    """Largest ``e`` with ``var^e`` dividing every term, plus the quotient."""
    if p.is_zero:
        raise UsageError("cannot extract a monomial factor from the zero polynomial")
    idx = p._var_index(var)
    e = min(exp[idx] for exp in p.terms)
    if e == 0:
        return 0, p
    out = {
        exp[:idx] + (exp[idx] - e,) + exp[idx + 1 :]: c for exp, c in p.terms.items()
    }
    return e, MultiPoly(p.variables, out, p.domain)
