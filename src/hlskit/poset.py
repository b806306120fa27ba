"""Tableau-order posets on bounded multisets, their chains and multichains.

A component lives in the poset of sub-multisets of ``{0^r, 1, ..., n}``,
encoded as a tuple ``(a_0, a_1, ..., a_n)`` with ``a_0 <= r`` and
``a_i <= 1`` for ``i >= 1``.  The partial order compares prefix sums.
A full element of the product poset is a tuple of such components.

Enumeration order is reverse lexicographic per component (last coordinate
most significant) and lexicographic across components, which is the order
every matrix and variable list in this package is indexed by.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

Component = tuple[int, ...]
Element = tuple[Component, ...]

DEFAULT_MAX_ELEMENTS = 1 << 18
DEFAULT_MAX_CHAINS = 10**7


class CapExceededError(RuntimeError):
    """An enumeration would exceed its configured resource cap."""


class DegenerateSpecError(ValueError):
    """The operation presupposes a poset whose bottom and top differ."""


@dataclass(frozen=True)
class PosetSpec:
    """Shape descriptor: one (n_i, r_i) bound pair per component."""

    n: tuple[int, ...]
    r: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", tuple(int(v) for v in self.n))
        object.__setattr__(self, "r", tuple(int(v) for v in self.r))
        if len(self.n) != len(self.r):
            raise ValueError("n and r must have the same length")
        if not self.n:
            raise ValueError("at least one component is required")
        if any(v < 0 for v in self.n) or any(v < 0 for v in self.r):
            raise ValueError("bounds must be nonnegative")

    @property
    def g(self) -> int:
        return len(self.n)

    def component_count(self, i: int) -> int:
        return (self.r[i] + 1) << self.n[i]

    def element_count(self) -> int:
        total = 1
        for i in range(self.g):
            total *= self.component_count(i)
        return total

    def bottom(self) -> Element:
        return tuple((0,) * (ni + 1) for ni in self.n)

    def top(self) -> Element:
        return tuple((ri,) + (1,) * ni for ni, ri in zip(self.n, self.r))

    def is_degenerate(self) -> bool:
        return self.bottom() == self.top()

    def validate_element(self, e: Element) -> None:
        if len(e) != self.g:
            raise ValueError(f"element has {len(e)} components, expected {self.g}")
        for i, a in enumerate(e):
            if len(a) != self.n[i] + 1:
                raise ValueError(f"component {i + 1} has wrong arity")
            if not 0 <= a[0] <= self.r[i]:
                raise ValueError(f"component {i + 1}: zero count out of range")
            if any(x not in (0, 1) for x in a[1:]):
                raise ValueError(f"component {i + 1}: entries above index 0 must be 0/1")


# -- order and statistics ------------------------------------------------------


def s_vector(a: Component) -> tuple[int, ...]:
    """Prefix statistics: entry 0 is C(a_0, 2), entry i is sum of a_0..a_{i-1}."""
    out = [a[0] * (a[0] - 1) // 2]
    acc = 0
    for x in a:
        acc += x
        out.append(acc)
    return tuple(out)


def delta(a: Component, b: Component, i: int) -> int:
    """s_i(b) - s_i(a)."""
    if len(a) != len(b):
        raise ValueError("components have different arities")
    if not 0 <= i <= len(a):
        raise ValueError(f"index {i} out of range [0, {len(a)}]")
    if i == 0:
        return b[0] * (b[0] - 1) // 2 - a[0] * (a[0] - 1) // 2
    return sum(b[:i]) - sum(a[:i])


def leq_component(a: Component, b: Component) -> bool:
    if len(a) != len(b):
        raise ValueError("components have different arities")
    sa = 0
    sb = 0
    for x, y in zip(a, b):
        sa += x
        sb += y
        if sa > sb:
            return False
    return True


def leq_t(a: Element, b: Element) -> bool:
    """Product tableau order: every component dominates in prefix sums."""
    if len(a) != len(b):
        raise ValueError("elements have different numbers of components")
    return all(leq_component(x, y) for x, y in zip(a, b))


def lt_t(a: Element, b: Element) -> bool:
    return a != b and leq_t(a, b)


def complement(spec: PosetSpec, a: Element) -> Element:
    """Componentwise multiset complement inside the top element."""
    spec.validate_element(a)
    top = spec.top()
    return tuple(tuple(t - x for t, x in zip(tc, ac)) for tc, ac in zip(top, a))


def iso_n1_to_np1(a: Component, r: int) -> Component:
    """Order isomorphism from a component with r = 1 into one with r = 0.

    The multiset map sends 0 to 1 and i to i + 1.
    """
    if r != 1:
        raise ValueError("the isomorphism is defined for r = 1 components only")
    if a[0] not in (0, 1):
        raise ValueError("component violates the r = 1 bound")
    return (0,) + tuple(a)


# -- enumeration ---------------------------------------------------------------


def enumerate_component_elements(n: int, r: int) -> list[Component]:
    """All (r+1)*2^n component vectors in reverse lexicographic order."""
    ranges = [range(2)] * n + [range(r + 1)]
    return [tuple(reversed(rev)) for rev in itertools.product(*ranges)]


def enumerate_elements(spec: PosetSpec, max_elements: int | None = None) -> list[Element]:
    cap = DEFAULT_MAX_ELEMENTS if max_elements is None else max_elements
    count = spec.element_count()
    if count > cap:
        raise CapExceededError(f"poset has {count} elements, cap is {cap}")
    streams = [enumerate_component_elements(n, r) for n, r in zip(spec.n, spec.r)]
    return [tuple(combo) for combo in itertools.product(*streams)]


def interval_elements(
    spec: PosetSpec, interval: str = "half_open", max_elements: int | None = None
) -> list[Element]:
    """Elements of (bottom, top] or (bottom, top), in enumeration order."""
    if interval not in ("half_open", "open"):
        raise ValueError(f"unknown interval kind {interval!r}")
    elements = enumerate_elements(spec, max_elements)
    bottom = spec.bottom()
    top = spec.top()
    if bottom == top:
        return []
    out = [e for e in elements if e != bottom]
    if interval == "open":
        out = [e for e in out if e != top]
    return out


# -- relations -----------------------------------------------------------------


def above_lists(
    elements: Sequence[Element], leq: Callable[[Element, Element], bool] = leq_t
) -> list[list[int]]:
    """For each element, the indices of the elements strictly above it.

    The one pass over the strict order that covers, chains, multichains and
    the chain series read; it makes ``len(elements) ** 2`` order tests.
    """
    return [
        [j for j, b in enumerate(elements) if j != i and leq(a, b)]
        for i, a in enumerate(elements)
    ]


def cover_relations(
    spec: PosetSpec, max_elements: int | None = None
) -> list[tuple[Element, Element]]:
    """All covering pairs (a, b), a below b, in enumeration order."""
    elements = enumerate_elements(spec, max_elements)
    above = above_lists(elements)
    masks = [sum(1 << j for j in js) for js in above]
    covers = []
    for i, js in enumerate(above):
        # j covers i unless j lies above some k that lies above i.
        through = 0
        for k in js:
            through |= masks[k]
        covers.extend((elements[i], elements[j]) for j in js if not through >> j & 1)
    return covers


# -- chains and multichains ------------------------------------------------------


def _walk(
    elements: Sequence[Element],
    successors: Sequence[Sequence[int]],
    max_length: int,
    cap: int,
    noun: str,
) -> Iterator[tuple[Element, ...]]:
    """Breadth-first walk over index sequences, each step to a successor.

    Yields every sequence of at most ``max_length`` elements, the empty one
    first, by length and then lexicographically by index tuple; the cap
    counts the empty sequence too.
    """
    produced = 1
    if produced > cap:
        raise CapExceededError(f"{noun} enumeration exceeds cap {cap}")
    yield ()
    frontier: list[tuple[int, ...]] = [()]
    while frontier and len(frontier[0]) < max_length:
        nxt: list[tuple[int, ...]] = []
        for prefix in frontier:
            candidates = successors[prefix[-1]] if prefix else range(len(elements))
            for j in candidates:
                produced += 1
                if produced > cap:
                    raise CapExceededError(f"{noun} enumeration exceeds cap {cap}")
                chain = prefix + (j,)
                yield tuple(elements[k] for k in chain)
                nxt.append(chain)
        frontier = nxt


def chains_in(
    elements: Sequence[Element],
    leq: Callable[[Element, Element], bool] = leq_t,
    max_chains: int | None = None,
) -> Iterator[tuple[Element, ...]]:
    """Every strict chain of a finite poset, including the empty chain.

    Deterministic order: by length, then lexicographically by the index
    tuple of the chain relative to ``elements``.
    """
    cap = DEFAULT_MAX_CHAINS if max_chains is None else max_chains
    return _walk(elements, above_lists(elements, leq), len(elements), cap, "chain")


def enumerate_chains(
    spec: PosetSpec,
    interval: str = "half_open",
    max_chains: int | None = None,
    max_elements: int | None = None,
) -> Iterator[tuple[Element, ...]]:
    """Strict chains of the tagged interval between bottom and top."""
    elements = interval_elements(spec, interval, max_elements)
    return chains_in(elements, max_chains=max_chains)


def enumerate_multichains(
    spec: PosetSpec,
    interval: str = "half_open",
    max_total_length: int = 0,
    max_chains: int | None = None,
    max_elements: int | None = None,
) -> Iterator[tuple[Element, ...]]:
    """Weakly increasing sequences of interval elements, up to a length bound."""
    if max_total_length < 0:
        raise ValueError("length bound must be nonnegative")
    cap = DEFAULT_MAX_CHAINS if max_chains is None else max_chains
    elements = interval_elements(spec, interval, max_elements)
    at_or_above = [sorted(js + [i]) for i, js in enumerate(above_lists(elements))]
    return _walk(elements, at_or_above, max_total_length, cap, "multichain")


def is_multichain(chain: Sequence[Element]) -> bool:
    return all(leq_t(chain[k], chain[k + 1]) for k in range(len(chain) - 1))


# -- rendering and parsing -------------------------------------------------------


def render_component(a: Component) -> str:
    """Multiset notation: '0^k' for repeated zeros, '-' for the empty multiset."""
    parts: list[str] = []
    if a[0] == 1:
        parts.append("0")
    elif a[0] >= 2:
        parts.append(f"0^{a[0]}")
    parts.extend(str(i) for i in range(1, len(a)) if a[i])
    return " ".join(parts) if parts else "-"


def render_element(e: Element) -> str:
    return "|".join(render_component(a) for a in e)


def parse_component(text: str, n: int, r: int) -> Component:
    """Parse multiset notation: space-separated tokens '0', '0^k', or i in [n]."""
    text = text.strip()
    vec = [0] * (n + 1)
    if text == "-":
        return tuple(vec)
    for token in text.split():
        if token == "0":
            vec[0] += 1
        elif token.startswith("0^"):
            k = int(token[2:])
            if k < 1:
                raise ValueError(f"bad zero multiplicity in token {token!r}")
            vec[0] += k
        else:
            i = int(token)
            if not 1 <= i <= n:
                raise ValueError(f"entry {i} out of range [1, {n}]")
            if vec[i]:
                raise ValueError(f"repeated entry {i}")
            vec[i] = 1
    if vec[0] > r:
        raise ValueError(f"too many zeros: {vec[0]} > r = {r}")
    return tuple(vec)


def parse_element(text: str, spec: PosetSpec) -> Element:
    parts = text.split("|")
    if len(parts) != spec.g:
        raise ValueError(f"expected {spec.g} components separated by '|', got {len(parts)}")
    return tuple(
        parse_component(part, spec.n[i], spec.r[i]) for i, part in enumerate(parts)
    )


def parse_chain(text: str, spec: PosetSpec) -> tuple[Element, ...]:
    """Parse a '<'-separated multichain literal and check weak increase."""
    pieces = [p for p in text.split("<") if p.strip()]
    chain = tuple(parse_element(p, spec) for p in pieces)
    if not is_multichain(chain):
        raise ValueError("elements do not form a multichain in the tableau order")
    return chain


# -- exports -----------------------------------------------------------------------


def hasse_dot(spec: PosetSpec, max_elements: int | None = None) -> str:
    """Byte-stable DOT rendering of the Hasse diagram, edges pointing upward."""
    elements = enumerate_elements(spec, max_elements)
    covers = cover_relations(spec, max_elements)
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for e in elements:
        lines.append(f'  "{render_element(e)}";')
    for a, b in covers:
        lines.append(f'  "{render_element(a)}" -> "{render_element(b)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
