"""Quivers, dimension vectors, and the homological Euler form.

All arithmetic is exact: integers and fractions.Fraction only, never floats.
Dimension vectors and stability vectors are plain tuples of ints, indexed by
vertex. Multiplicities arrows[i][j] count arrows from vertex i to vertex j.

Integer inputs of this module, `stability` and `kronecker` pass one gate, `_integers`
(operator.index): ints, bools, numpy integers; 2.0, Fraction(2), "2" raise ValueError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import index, mul
from typing import Iterable, Optional, Sequence


def _integers(values: Iterable, name: str, size: Optional[int] = None, nonneg=False) -> tuple:
    """values as a tuple of ints: size of them if size is given, none negative if nonneg."""
    try:
        out = tuple(map(index, values))
    except TypeError:
        bad = next((x for x in values if not hasattr(type(x), "__index__")), values)
        raise ValueError(f"{name}: expected an integer, got {bad!r}") from None
    if size is not None and len(out) != size:
        raise ValueError(f"{name} has {len(out)} entries, quiver has {size} vertices")
    if nonneg and out and min(out) < 0:
        raise ValueError(f"{name} entries must be nonnegative")
    return out


@dataclass(frozen=True)
class Quiver:
    """Finite quiver on vertices 0..vertex_count-1 with an arrow multiplicity matrix."""

    vertex_count: int
    arrows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        (k,) = _integers((self.vertex_count,), "vertex_count")
        arrows = tuple(_integers(row, "arrows") for row in self.arrows)
        if k < 1:
            raise ValueError("quiver needs at least one vertex")
        if len(arrows) != k or any(len(row) != k for row in arrows):
            raise ValueError(f"arrow matrix must be {k}x{k}")
        if any(m < 0 for row in arrows for m in row):
            raise ValueError("arrow multiplicities must be nonnegative")
        object.__setattr__(self, "vertex_count", k)
        object.__setattr__(self, "arrows", arrows)
        # the nonzero arrows as (i, j, mult), listed once for _euler and to_text; not a
        # field, so equality, hashing and repr see only the matrix
        object.__setattr__(self, "_arrow_list", tuple(
            (i, j, m) for i, row in enumerate(arrows) for j, m in enumerate(row) if m
        ))

    @staticmethod
    def from_matrix(rows: Sequence[Sequence[int]]) -> "Quiver":
        return Quiver(len(rows), rows)

    def to_text(self) -> str:
        lines = [f"vertices {self.vertex_count}"]
        lines += (f"arrow {i} {j} {m}" for i, j, m in self._arrow_list)
        return "\n".join(lines) + "\n"


def loop_quiver(m: int) -> Quiver:
    """One vertex, m loops."""
    if _integers((m,), "m")[0] < 0:
        raise ValueError("loop count must be nonnegative")
    return Quiver(1, ((m,),))


def kronecker_quiver(m: int) -> Quiver:
    """Two vertices, m arrows from vertex 0 to vertex 1."""
    if _integers((m,), "m")[0] < 0:
        raise ValueError("arrow count must be nonnegative")
    return Quiver(2, ((0, m), (0, 0)))


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"line {lineno}: expected an integer, got {token!r}") from None


def parse_quiver(text: str) -> Quiver:
    """Parse the plain text format: a `vertices <k>` line, then `arrow <i> <j> <mult>` lines.

    Blank lines and lines starting with `#` are ignored. Vertex indices are 0-based.
    """
    vertex_count = None
    arrow_lines: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "vertices":
            if vertex_count is not None:
                raise ValueError(f"line {lineno}: duplicate vertices line")
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 'vertices <k>'")
            vertex_count = _parse_int(parts[1], lineno)
        elif parts[0] == "arrow":
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: expected 'arrow <i> <j> <mult>'")
            arrow_lines.append(tuple(_parse_int(t, lineno) for t in parts[1:]))
        else:
            raise ValueError(f"line {lineno}: unknown directive {parts[0]!r}")
    if vertex_count is None:
        raise ValueError("missing 'vertices' line")
    if vertex_count < 1:
        raise ValueError("vertex count must be positive")
    rows = [[0] * vertex_count for _ in range(vertex_count)]
    for i, j, m in arrow_lines:
        if not (0 <= i < vertex_count and 0 <= j < vertex_count):
            raise ValueError(f"arrow ({i},{j}) out of range for {vertex_count} vertices")
        if m < 0:
            raise ValueError("arrow multiplicity must be nonnegative")
        rows[i][j] += m
    return Quiver.from_matrix(rows)


def load_quiver(spec: str) -> Quiver:
    """Load a quiver from a file path, or from the shorthands `loop:m` / `kronecker:m`."""
    if spec.startswith("loop:"):
        return loop_quiver(int(spec.split(":", 1)[1]))
    if spec.startswith("kronecker:"):
        return kronecker_quiver(int(spec.split(":", 1)[1]))
    with open(spec, encoding="utf-8") as fh:
        return parse_quiver(fh.read())


def euler_form(q: Quiver, d: Sequence[int], e: Sequence[int]) -> int:
    """<d,e> = sum_i d_i e_i - sum_{arrows i->j} d_i e_j. Bilinear, generally asymmetric."""
    k = q.vertex_count
    return _euler(q, _integers(d, "d", k, nonneg=True), _integers(e, "e", k, nonneg=True))


def _euler(q: Quiver, d: tuple[int, ...], e: tuple[int, ...]) -> int:
    """euler_form on vectors already checked against q; for loops over many pairs."""
    total = sum(map(mul, d, e))
    for i, j, mult in q._arrow_list:
        total -= mult * d[i] * e[j]
    return total


def slope(theta: Sequence[int], d: Sequence[int]) -> Fraction:
    """theta(d) / (sum of entries of d), exact and in lowest terms. d must be nonzero."""
    theta, d = _integers(theta, "theta"), _integers(d, "d")
    if len(theta) != len(d):
        raise ValueError("theta and d must have equal length")
    total = sum(d)
    if total == 0:
        raise ValueError("slope undefined for the zero dimension vector")
    return Fraction(sum(t * x for t, x in zip(theta, d)), total)


def gcd_of(d: Sequence[int]) -> int:
    """gcd of the entries of a nonzero dimension vector."""
    d = _integers(d, "d")
    if not d or all(x == 0 for x in d):
        raise ValueError("gcd undefined for the zero vector")
    return math.gcd(*d)


def _bezout_min(g: int, di: int) -> tuple[int, int, int]:
    """Solve x*g + y*di = gcd(g, di) with |y| minimal, positive y on ties.

    Returns (g2, x, y). Assumes g, di >= 0, not both zero. For g > 0, y is the
    inverse r of di/g2 modulo g/g2 or r - g/g2, the smaller in absolute value.
    """
    g2 = math.gcd(g, di)
    if g == 0:
        return g2, 0, 1 if di else 0
    step = g // g2
    r = pow(di // g2, -1, step)
    y = r if 2 * r <= step else r - step
    return g2, (g2 - y * di) // g, y


def linearization_weights(d: Sequence[int]) -> tuple[int, ...]:
    """Integers a_i with sum a_i d_i = 1, computed by iterated extended gcd.

    Each step keeps the newly introduced weight minimal in absolute value
    (positive on ties), so the result is deterministic. Requires gcd_of(d) == 1.
    """
    d = _integers(d, "d")
    if not d or min(d) < 0:
        raise ValueError("dimension vector must be nonempty with nonnegative entries")
    if (g := gcd_of(d)) != 1:
        raise ValueError(f"no integral weights: gcd of {d} is {g}, not 1")
    g = d[0]
    coeffs = [1]
    for di in d[1:]:
        g, x, y = _bezout_min(g, di)
        coeffs = [c * x for c in coeffs] + [y]
    assert g == 1 and sum(c * x for c, x in zip(coeffs, d)) == 1
    return tuple(coeffs)


def moduli_dimension(q: Quiver, d: Sequence[int]) -> int:
    """1 - <d,d>, the dimension of the stable moduli space when stables exist."""
    d = _integers(d, "d", q.vertex_count, nonneg=True)
    if not any(d):
        raise ValueError("dimension vector must be nonzero")
    return 1 - _euler(q, d, d)


def framed_bundle_relative_dimension(d: Sequence[int], n: Sequence[int]) -> int:
    """n.d - 1, the fiber dimension of the projectivized framed bundle P_n."""
    d, n = _integers(d, "d"), _integers(n, "n")
    if len(d) != len(n):
        raise ValueError("d and n must have equal length")
    nd = sum(a * b for a, b in zip(n, d))
    if nd == 0:
        raise ValueError("n.d = 0: the framed bundle is empty")
    return nd - 1
