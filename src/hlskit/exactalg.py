"""Exact sparse Laurent polynomials with integer coefficients.

A polynomial is a map from monomials to nonzero Python ints, so coefficients
are arbitrary precision for free.  Monomials are sorted tuples of
``(variable id, exponent)`` pairs with no zero exponents; negative exponents
are first class, there is no separate plain-polynomial type.

Everything is immutable after construction and every operation returns a new
value in canonical form, which makes structural equality the same thing as
mathematical equality and makes values safe to share across threads.

Printing is deterministic: terms are ordered by total degree, ties broken by
the dense exponent vector, with variables ordered as in the ``VarTable``.
The text format is the one used by the CLI and the golden tests, e.g.
``1 - Y[1,1]^2*X{0^2}``.  ``_power_text`` and ``_terms_text`` state it, for
``LaurentPoly.text``, the packed numerators and expansion coefficients of
``_packed`` and the X monomials of the CLI's ``expand`` lines alike.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, Mapping, Sequence

# A monomial: ((var id, exponent), ...), sorted by var id, exponents nonzero.
Monomial = tuple[tuple[int, int], ...]


class VarTable:
    """Bijection between dense variable ids ``0..V-1`` and display names.

    Names follow the conventions of the rest of the package: ``Y[i,j]`` for
    the weight variables, ``X{...}`` for element variables, plain identifiers
    (``q``, ``Y``, ``x0``) for anything generic.  The table itself does not
    care; it only guarantees the bijection.
    """

    __slots__ = ("names", "_ids")

    def __init__(self, names: Iterable[str]):
        self.names: tuple[str, ...] = tuple(names)
        self._ids: dict[str, int] = {}
        for i, name in enumerate(self.names):
            if name in self._ids:
                raise ValueError(f"duplicate variable name {name!r}")
            self._ids[name] = i

    def id(self, name: str) -> int:
        return self._ids[name]

    def name(self, vid: int) -> str:
        return self.names[vid]

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VarTable):
            return NotImplemented
        return self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VarTable({list(self.names)!r})"


def _mono_mul(m: Monomial, n: Monomial) -> Monomial:
    if not m:
        return n
    if not n:
        return m
    d = dict(m)
    for v, e in n:
        e2 = d.get(v, 0) + e
        if e2:
            d[v] = e2
        else:
            del d[v]
    return tuple(sorted(d.items()))


class LaurentPoly:
    """An immutable sparse Laurent polynomial over a fixed ``VarTable``."""

    __slots__ = ("table", "terms")

    def __init__(self, table: VarTable, terms: dict[Monomial, int]):
        # Trusted constructor: `terms` must already be canonical (sorted
        # monomials, no zero coefficients).  Use the factories otherwise.
        self.table = table
        self.terms = terms

    # -- factories -----------------------------------------------------

    @classmethod
    def zero(cls, table: VarTable) -> "LaurentPoly":
        return cls(table, {})

    @classmethod
    def const(cls, table: VarTable, c: int) -> "LaurentPoly":
        c = int(c)
        return cls(table, {(): c} if c else {})

    @classmethod
    def variable(cls, table: VarTable, vid: int, exponent: int = 1) -> "LaurentPoly":
        if not 0 <= vid < len(table):
            raise ValueError(f"variable id {vid} out of range")
        if exponent == 0:
            return cls.const(table, 1)
        return cls(table, {((vid, exponent),): 1})

    @classmethod
    def monomial(cls, table: VarTable, exps: Mapping[int, int], coeff: int = 1) -> "LaurentPoly":
        coeff = int(coeff)
        if coeff == 0:
            return cls.zero(table)
        m = tuple(sorted((v, e) for v, e in exps.items() if e))
        return cls(table, {m: coeff})

    # -- basic structure -----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(): 1}

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def term_count(self) -> int:
        return len(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.terms == ({(): other} if other else {})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.table, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"<LaurentPoly {self.text()}>"

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            if other.table is not self.table and other.table != self.table:
                raise ValueError("operands use different variable tables")
            return other
        if isinstance(other, int):
            return LaurentPoly.const(self.table, other)
        return None

    def __add__(self, other) -> "LaurentPoly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        out = dict(self.terms)
        for m, c in q.terms.items():
            c2 = out.get(m, 0) + c
            if c2:
                out[m] = c2
            else:
                del out[m]
        return LaurentPoly(self.table, out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.table, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other) -> "LaurentPoly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q + (-self)

    def __mul__(self, other) -> "LaurentPoly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        if not self.terms or not q.terms:
            return LaurentPoly.zero(self.table)
        out: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in q.terms.items():
                m = _mono_mul(m1, m2)
                c = out.get(m, 0) + c1 * c2
                if c:
                    out[m] = c
                elif m in out:
                    del out[m]
        return LaurentPoly(self.table, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = LaurentPoly.const(self.table, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- variable maps ---------------------------------------------------

    def invert_vars(self, vids: Iterable[int]) -> "LaurentPoly":
        """Negate every exponent of the selected variables."""
        s = set(vids)
        if not s:
            return self
        out = {}
        for m, c in self.terms.items():
            m2 = tuple(sorted((v, -e if v in s else e) for v, e in m))
            out[m2] = c
        return LaurentPoly(self.table, out)

    def eval_at_one(self, vids: Iterable[int]) -> "LaurentPoly":
        """Substitute 1 for each selected variable and renormalize."""
        s = set(vids)
        if not s:
            return self
        out: dict[Monomial, int] = {}
        for m, c in self.terms.items():
            m2 = tuple((v, e) for v, e in m if v not in s)
            c2 = out.get(m2, 0) + c
            if c2:
                out[m2] = c2
            elif m2 in out:
                del out[m2]
        return LaurentPoly(self.table, out)

    def subs(
        self,
        images: Mapping[int, "LaurentPoly | int"],
        table: VarTable | None = None,
    ) -> "LaurentPoly":
        """Apply a ring homomorphism sending each mapped variable to its image.

        Unmapped variables are sent to the variable of the same name in the
        target table.  A variable occurring with a negative exponent may only
        be mapped to a unit (a single monomial with coefficient +-1).
        """
        target = table if table is not None else self.table
        acc = LaurentPoly.zero(target)
        img_cache: dict[int, LaurentPoly] = {}

        def image_of(v: int) -> LaurentPoly:
            if v not in img_cache:
                img = images.get(v)
                if img is None:
                    img_cache[v] = LaurentPoly.variable(target, target.id(self.table.name(v)))
                elif isinstance(img, int):
                    img_cache[v] = LaurentPoly.const(target, img)
                else:
                    if img.table != target:
                        raise ValueError("substitution image uses the wrong variable table")
                    img_cache[v] = img
            return img_cache[v]

        for m, c in self.terms.items():
            term = LaurentPoly.const(target, c)
            for v, e in m:
                img = image_of(v)
                if e >= 0:
                    term = term * img**e
                else:
                    if len(img.terms) != 1:
                        raise ValueError(
                            f"variable {self.table.name(v)!r} occurs with a negative exponent; "
                            "its image must be a unit monomial"
                        )
                    ((mono, coeff),) = img.terms.items()
                    if coeff not in (1, -1):
                        raise ValueError("negative exponent of a non-unit image")
                    powered = tuple(sorted((w, ex * e) for w, ex in mono))
                    term = term * LaurentPoly(target, {powered: coeff if e % 2 else 1})
            acc = acc + term
        return acc

    # -- canonical rendering ------------------------------------------------

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Terms by total degree, then by the dense exponent vector in variable order.

        Each term sorts on a key read off its sparse monomial.  Two dense
        vectors first differ at the least variable ``v`` where the monomials
        differ, and there the larger exponent wins, an absent variable's
        being 0.  After the degree, each factor ``(v, e)`` contributes
        ``n - v, e`` if ``e > 0`` and ``v - n, e`` if ``e < 0``, with ``n``
        the table's size, and a final 0 ends the key.  At the first place two
        keys differ, the same ``v`` compares its exponents; otherwise a
        positive exponent of the lesser variable compares greater, and a
        negative one less, than a later variable's entry or the end.
        """
        n = len(self.table)

        def key(term: tuple[Monomial, int]) -> list[int]:
            degree, out = 0, [0]
            for v, e in term[0]:
                degree += e
                out += (n - v, e) if e > 0 else (v - n, e)
            out[0] = degree
            out.append(0)
            return out

        return sorted(self.terms.items(), key=key)

    def text(self) -> str:
        """Canonical text form, bit-exact across runs."""
        names = self.table.names
        # Loops, not comprehensions: on Python 3.11 each comprehension is a
        # call, one per term, and most polynomials printed are small.
        terms = []
        for m, c in self.sorted_terms():
            factors = []
            for v, e in m:
                factors.append(_power_text(names[v], e))
            terms.append((factors, c))
        return _terms_text(terms)


# -- the text format ---------------------------------------------------------


def _power_text(name: str, e: int) -> str:
    """A factor of a monomial: ``Y[1,1]^2``, or the bare name for ``e = 1``."""
    return name if e == 1 else f"{name}^{e}"


def _terms_text(terms: Iterable[tuple[Sequence[str], int]]) -> str:
    """Text of a polynomial from its terms in print order.

    A term is the texts of its monomial's factors in variable order, and
    its coefficient.  Factors join with ``*``, the coefficient shows first
    unless it is 1 or -1 on a monomial other than 1, signs join the terms
    as ``+ `` or ``- ``, and a leading ``+`` is dropped, as in
    ``1 + X{0} - 2*Y[1,1]^2*X{0^2}``.  No terms print as ``0``.
    """
    parts = []
    for factors, c in terms:
        body = "*".join(factors)
        if not body:
            body = str(abs(c))
        elif c != 1 and c != -1:
            body = f"{abs(c)}*{body}"
        parts.append(f"- {body}" if c < 0 else f"+ {body}")
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text[0] == "+" else "-" + text[2:]


# -- q-analogs ---------------------------------------------------------------


def y_integer(table: VarTable, n: int, v: int) -> LaurentPoly:
    """[n] = 1 + Y + ... + Y^(n-1); the empty sum for n = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    terms: dict[Monomial, int] = {}
    for e in range(n):
        terms[() if e == 0 else ((v, e),)] = 1
    return LaurentPoly(table, terms)


def y_binomial(table: VarTable, n: int, k: int, v: int) -> LaurentPoly:
    """Gaussian binomial [n choose k] in the variable ``v``, its coefficients computed once."""
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"binomial parameters out of range: n={n}, k={k}")
    c = _gaussian(n, k)
    return LaurentPoly(table, {((v, e),) if e else (): x for e, x in enumerate(c) if x})


@cache
def _gaussian(n: int, k: int) -> tuple[int, ...]:
    """The coefficients of [n choose k], indexed by the exponent, computed once per (n, k).

    The product formula prod_{i=1..k} (1 - Y^(n-k+i)) / (1 - Y^i), computed
    on a list of int coefficients indexed by the exponent of Y.  Each step
    multiplies by 1 - Y^(n-k+i) in place, then divides exactly by 1 - Y^i
    as a running sum with stride i; the i coefficients it drops must be zero.
    """
    c = [1]
    for i in range(1, k + 1):
        s = n - k + i
        c.extend([0] * s)
        for j in range(len(c) - 1, s - 1, -1):
            c[j] -= c[j - s]
        for j in range(i, len(c)):
            c[j] += c[j - i]
        assert not any(c[-i:]), f"1 - Y^{i} does not divide exactly"
        del c[-i:]
    return tuple(c)


def y_multinomial(table: VarTable, n: int, thresholds: Iterable[int], v: int) -> LaurentPoly:
    """Telescoping product of Gaussian binomials over a multiset in [n]."""
    es = sorted(thresholds)
    if any(e < 1 or e > n for e in es):
        raise ValueError(f"multiset members must lie in [1, {n}]")
    es.append(n)
    result = LaurentPoly.const(table, 1)
    for i in range(len(es) - 1):
        result = result * y_binomial(table, es[i + 1], es[i], v)
    return result
