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

import collections
import itertools
import math
import operator
from typing import Callable, Iterator, Sequence

Component = tuple[int, ...]
Element = tuple[Component, ...]

DEFAULT_MAX_ELEMENTS = 1 << 18
DEFAULT_MAX_CHAINS = 10**7
DEFAULT_MAX_HASSE_ELEMENTS = 1 << 16


class CapExceededError(RuntimeError):
    """An enumeration would exceed its configured resource cap."""


def count_text(c: int, k: int = 0) -> str:
    """``c * 2^k`` in a cap message: decimal below 2^64; from there ``c * 2^k`` (``2^k`` if c
    is 1) while c is below 2^64, else ``2^b``, or ``over 2^b`` if no power of 2, b its top bit."""
    b = c.bit_length() - 1 + k
    if b < 64:
        return str(c << k)
    if c >> 64 == 0:
        return f"{c} * 2^{k}".removeprefix("1 * ")
    return f"{'over ' if c & c - 1 else ''}2^{b}"


class DegenerateSpecError(ValueError):
    """The operation presupposes a poset whose bottom and top differ."""


class PosetSpec:
    """Shape descriptor: one (n_i, r_i) bound pair per component.

    Immutable and hashable, with equality by value, so a spec can key a dict.
    """

    def __init__(self, n: Sequence[int], r: Sequence[int]):
        n = tuple(int(v) for v in n)
        r = tuple(int(v) for v in r)
        if len(n) != len(r):
            raise ValueError("n and r must have the same length")
        if not n:
            raise ValueError("at least one component is required")
        if any(v < 0 for v in n) or any(v < 0 for v in r):
            raise ValueError("bounds must be nonnegative")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", r)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.r) == (other.n, other.r)

    def __hash__(self):
        return hash((self.n, self.r))

    def __repr__(self):
        return f"PosetSpec(n={self.n!r}, r={self.r!r})"

    @property
    def g(self) -> int:
        return len(self.n)

    def element_count(self) -> int:
        return math.prod(r + 1 for r in self.r) << sum(self.n)

    def bottom(self) -> Element:
        return tuple((0,) * (ni + 1) for ni in self.n)

    def top(self) -> Element:
        return tuple((ri,) + (1,) * ni for ni, ri in zip(self.n, self.r))

    def is_degenerate(self) -> bool:
        return not any(self.n) and not any(self.r)

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


# -- enumeration ---------------------------------------------------------------


def enumerate_component_elements(n: int, r: int) -> list[Component]:
    """All (r+1)*2^n component vectors in reverse lexicographic order."""
    ranges = [range(2)] * n + [range(r + 1)]
    return [tuple(reversed(rev)) for rev in itertools.product(*ranges)]


def enumerate_elements(spec: PosetSpec, max_elements: int | None = None) -> list[Element]:
    cap = DEFAULT_MAX_ELEMENTS if max_elements is None else max_elements
    # The count c * 2^k is built only while 2^k is within the cap.
    c, k = math.prod(r + 1 for r in spec.r), sum(spec.n)
    if k >= cap.bit_length() or c << k > cap:
        raise CapExceededError(f"poset has {count_text(c, k)} elements, cap is {count_text(cap)}")
    streams = [enumerate_component_elements(n, r) for n, r in zip(spec.n, spec.r)]
    return list(itertools.product(*streams))


def interval_elements(
    spec: PosetSpec, interval: str = "half_open", max_elements: int | None = None
) -> list[Element]:
    """Elements of (bottom, top] or (bottom, top): slices of the enumeration order,
    which lists the bottom first and the top last."""
    if interval not in ("half_open", "open"):
        raise ValueError(f"unknown interval kind {interval!r}")
    elements = enumerate_elements(spec, max_elements)
    return elements[1:] if interval == "half_open" else elements[1:-1]


# -- relations -----------------------------------------------------------------


def order_key(e: Element) -> tuple[int, ...]:
    """The key vector of the tableau order: each component's prefix sums, in turn.

    ``leq_t(a, b)`` holds exactly when every coordinate of ``order_key(a)``
    is at most that of ``order_key(b)``, as ``leq_component`` compares.
    """
    return tuple(itertools.chain.from_iterable(map(itertools.accumulate, e)))


# Maps the digit "0" to a false byte, so a binary string selects positions.
_ZERO_FALSE = bytes.maketrans(b"0", b"\0")


def _members(mask: int) -> list[int]:
    """The set bits of ``mask``, ascending, in time linear in its length."""
    digits = bin(mask)[:1:-1].encode().translate(_ZERO_FALSE)
    return list(itertools.compress(itertools.count(), digits))


def _digit_planes(column: Sequence[int]) -> list[bytes]:
    """A column of nonnegative ints as base-256 digit planes, most significant first.

    Each plane is read backwards, so the first entry of the column is the
    last byte: the lowest bit once a translated plane is read as a binary
    number.
    """
    count = max(1, (max(column).bit_length() + 7) // 8)
    if count == 1:
        return [bytes(column[::-1])]
    shifts = range(8 * count - 8, -8, -8)
    return [bytes(v >> shift & 255 for v in reversed(column)) for shift in shifts]


def _join_planes(blocks: Sequence[list[bytes]]) -> list[bytes]:
    """The digit planes of a column from those of its consecutive blocks.

    A block with fewer planes than the widest gets zero planes on top, and
    the blocks join last first, as each plane is read backwards.
    """
    count = max(map(len, blocks))
    padded = [[bytes(len(planes[0]))] * (count - len(planes)) + planes for planes in blocks]
    return [b"".join(planes[p] for planes in reversed(padded)) for p in range(count)]


# Elements an OrderIndex keys at a time: the key tuples of one block are the
# only ones it holds while it builds its digit planes.
_KEY_BLOCK = 4096


class OrderIndex:
    """Componentwise ``<=`` of key vectors on a list of elements, as bitmasks.

    Bit ``i`` of a mask stands for ``elements[i]``.  ``at_least(c, t)``
    masks the elements whose coordinate ``c`` is at least ``t``, so the
    elements at or above element ``i`` are the AND over ``c`` of
    ``at_least(c, key_i[c])``: one big-int AND per coordinate in place of
    one order test per element.  ``key`` maps an element to nonnegative
    ints, as many for every element.

    Each column of keys is kept as base-256 digit planes and nothing else:
    keys are taken a block of elements at a time, and ``up`` reads them back
    from the planes.  A threshold mask combines, plane by plane, the masks
    of the entries whose digit is at least some ``d``; each of those is one
    ``bytes.translate`` of a plane read as a binary number, built the first
    time it is needed and kept.  So a caller that reads a few rows builds
    only a few masks, and a column with many distinct values, such as a
    long chain's, costs at most 256 translations per plane, each linear in
    the number of elements.
    """

    def __init__(
        self, elements: Sequence[Element], key: Callable[[Element], Sequence[int]] = order_key
    ):
        self.full = (1 << len(elements)) - 1
        blocks = []  # per block of elements, per column, its digit planes
        for start in range(0, len(elements), _KEY_BLOCK):
            block = elements[start : start + _KEY_BLOCK]
            flat = list(itertools.chain.from_iterable(map(key, block)))
            width = len(flat) // len(block)
            blocks.append([_digit_planes(flat[c::width]) for c in range(width)])
        self._planes = [_join_planes(column) for column in zip(*blocks)]
        self._digit_masks = [[{} for _ in planes] for planes in self._planes]
        # Digit masks of a one-plane column are its threshold masks; up() reads
        # them there.  Those of a wider column are not kept: a long chain has
        # as many thresholds as elements.
        self._thresholds = [masks[0] if len(masks) == 1 else {} for masks in self._digit_masks]

    def _digits_at_least(self, c: int, p: int, d: int) -> int:
        """The mask of the elements whose digit ``p`` of coordinate ``c`` is at least ``d``."""
        masks = self._digit_masks[c][p]
        mask = masks.get(d)
        if mask is None:
            table = b"0" * d + b"1" * (256 - d)
            mask = masks[d] = int(self._planes[c][p].translate(table), 2) if d < 256 else 0
        return mask

    def at_least(self, c: int, t: int) -> int:
        """The mask of the elements whose coordinate ``c`` is at least ``t``.

        From the lowest digit up: an entry is at least ``t`` in its last
        ``k`` digits when its ``k``-th last digit is above ``t``'s, or equal
        to it and the entry is at least ``t`` in the digits below.
        """
        last = len(self._planes[c]) - 1
        digits = t.to_bytes(last + 1, "big")
        mask = self._digits_at_least(c, last, digits[last])
        for p in range(last - 1, -1, -1):
            above = self._digits_at_least(c, p, digits[p] + 1)
            mask = above | (self._digits_at_least(c, p, digits[p]) ^ above) & mask
        return mask

    def up(self, i: int) -> int:
        """The mask of the elements at or above element ``i``.

        Element ``i``'s key is read from the digit planes, byte ``~i`` of each.
        """
        mask = self.full
        for c, planes in enumerate(self._planes):
            if len(planes) == 1:
                t = planes[0][~i]
            else:
                t = int.from_bytes(bytes(plane[~i] for plane in planes), "big")
            found = self._thresholds[c].get(t)
            mask &= self.at_least(c, t) if found is None else found
        return mask

    def above(self, i: int) -> list[int]:
        """The indices of the elements strictly above element ``i``, ascending."""
        return _members(self.up(i) ^ 1 << i)


def above_lists(
    elements: Sequence[Element], key: Callable[[Element], Sequence[int]] = order_key
) -> list[list[int]]:
    """For each element, the indices of the elements strictly above it.

    The order is ``OrderIndex(elements, key)``: one up-set mask per element,
    a few big-int ANDs each, and no pairwise order test.
    """
    index = OrderIndex(elements, key)
    return [index.above(i) for i in range(len(elements))]


def cover_relations(
    spec: PosetSpec, max_elements: int | None = None
) -> list[tuple[Element, Element]]:
    """All covering pairs (a, b), a below b, in enumeration order.

    ``max_elements`` defaults to ``DEFAULT_MAX_HASSE_ELEMENTS``.  The
    elements are indexed in order of key sum, which rises strictly up the
    order, so the lowest set bit of a mask is a minimal element of it: the
    covers of ``a`` are found one at a time, each taking the up-set of the
    last one found out of what is left above ``a``.
    """
    cap = DEFAULT_MAX_HASSE_ELEMENTS if max_elements is None else max_elements
    elements = enumerate_elements(spec, cap)
    ranked = sorted(elements, key=lambda e: sum(order_key(e)))
    index = OrderIndex(ranked)
    position = {e: k for k, e in enumerate(elements)}
    above: list[list[Element]] = [[] for _ in elements]
    for k, a in enumerate(ranked):
        rest = index.up(k) ^ 1 << k
        found = above[position[a]]
        while rest:
            low = (rest & -rest).bit_length() - 1
            found.append(ranked[low])
            rest &= ~index.up(low)
        found.sort(key=position.__getitem__)
    return [(a, b) for a, bs in zip(elements, above) for b in bs]


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


def chain_plan(
    elements: Sequence[Element],
    key: Callable[[Element], Sequence[int]] = order_key,
    max_chains: int | None = None,
    degree: int | None = None,
) -> tuple[list[Sequence[int]], list[int], int]:
    """The order bookkeeping of a chain route over ``elements`` under ``key``.

    The routes number their nodes alike: node ``i < m`` is ``elements[i]``,
    node ``m`` a bottom below all of them and node ``m + 1`` a top above
    all of them.  Returns the nodes strictly above each node but the top,
    ascending, the bottom's row ``range(m)``; the elements in one linear
    extension from the bottom up, by the number of elements below each,
    ties by index; and the count of the strict chains of ``elements``, the
    empty one included.  With a ``degree`` D, a chain of ``l`` elements
    counts ``C(D, l)``, the multichains of degree at most D on it, so the
    count is that of the multichains.  The chains are counted first, from
    the up-set masks of one ``OrderIndex``, top down in order of key sum,
    which rises up the order: the empty chain, then those starting at each
    element, by length, up to D.  Once the count passes ``max_chains``, by
    default ``DEFAULT_MAX_CHAINS``, it stops and raises
    ``CapExceededError``, before any strict-above list is built.
    """
    m = len(elements)
    index = OrderIndex(elements, key)
    cap = DEFAULT_MAX_CHAINS if max_chains is None else max_chains
    starting: list[list[int]] = [[]] * m  # per element, the chains starting there by length
    weights: list[int] = []  # what a chain of l elements counts, at l - 1, as far as needed
    count = 1
    for i in sorted(range(m), key=lambda i: sum(key(elements[i])), reverse=True):
        if count > cap:
            break
        longer = itertools.zip_longest(*map(starting.__getitem__, index.above(i)), fillvalue=0)
        starting[i] = [1, *map(sum, longer)][:degree]
        while len(weights) < len(starting[i]):
            weights.append(1 if degree is None else math.comb(degree, len(weights) + 1))
        count += sum(map(operator.mul, weights, starting[i]))
    if count > cap:
        noun = "chain" if degree is None else "multichain"
        bound = "" if degree is None else f" up to degree {count_text(degree)}"
        raise CapExceededError(f"{noun} enumeration exceeds cap {count_text(cap)}{bound}")
    above = [*map(index.above, range(m)), range(m)]
    below = collections.Counter(itertools.chain.from_iterable(above[:m]))
    return above, sorted(range(m), key=below.__getitem__), count


def chains_in(
    elements: Sequence[Element], max_chains: int | None = None
) -> Iterator[tuple[Element, ...]]:
    """Every strict chain of ``elements``, including the empty chain.

    Each chain lists its elements from the lowest up.  Deterministic order:
    by length, then lexicographically by the index tuple of the chain
    relative to ``elements``.
    """
    cap = DEFAULT_MAX_CHAINS if max_chains is None else max_chains
    return _walk(elements, above_lists(elements), len(elements), cap, "chain")


def enumerate_chains(
    spec: PosetSpec,
    interval: str = "half_open",
    max_chains: int | None = None,
    max_elements: int | None = None,
) -> Iterator[tuple[Element, ...]]:
    """Strict chains of the tagged interval between bottom and top."""
    elements = interval_elements(spec, interval, max_elements)
    return chains_in(elements, max_chains)


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
    # No message quotes a token or a number read from one, so each stays short.
    for token in text.split():
        zeros = token.startswith("0^")
        try:
            i = 1 if token == "0" else int(token[2:] if zeros else token)
        except ValueError:
            raise ValueError("a token is not '0', '0^k' or an integer") from None
        if zeros or token == "0":
            if i < 1:
                raise ValueError("a zero multiplicity is below 1")
            vec[0] += i
        elif not 1 <= i <= n:
            raise ValueError(f"an entry is out of range [1, {n}]")
        elif vec[i]:
            raise ValueError(f"repeated entry {i}")
        else:
            vec[i] = 1
    if vec[0] > r:
        raise ValueError(f"more than r = {r} zeros")
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
    """Byte-stable DOT rendering of the Hasse diagram, edges pointing upward.

    ``max_elements`` defaults to ``DEFAULT_MAX_HASSE_ELEMENTS``.
    """
    covers = cover_relations(spec, max_elements)
    elements = enumerate_elements(spec, max_elements)
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for e in elements:
        lines.append(f'  "{render_element(e)}";')
    for a, b in covers:
        lines.append(f'  "{render_element(a)}" -> "{render_element(b)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
