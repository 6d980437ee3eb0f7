"""Exact rational arithmetic: multihomogeneous polynomials and linear algebra.

Everything in this module is exact.  Coefficients are `fractions.Fraction`
throughout; linear algebra goes through fraction-free (Bareiss) elimination
on integer matrices so that ranks and kernels are certified, not numerical.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence


class BlockMismatchError(ValueError):
    """Raised when combining polynomials over different variable blocks."""


def primitive(vector: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Scale a rational vector to a primitive integer vector.

    The result has coprime integer entries and its first nonzero entry is
    positive, which makes kernel bases deterministic.
    """
    denom = lcm(*(Fraction(v).denominator for v in vector)) if vector else 1
    ints = [int(Fraction(v) * denom) for v in vector]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g == 0:
        return tuple(Fraction(0) for _ in ints)
    lead = next(v for v in ints if v != 0)
    if lead < 0:
        g = -g
    return tuple(Fraction(v // g) for v in ints)


class MultiPoly:
    """Multihomogeneous polynomial over named variable blocks.

    ``blocks`` is an ordered tuple such as ``(("x", 3), ("y", 3))``.  Terms
    map flat exponent tuples (concatenated over the blocks) to nonzero
    rational coefficients; zero coefficients are never stored.
    """

    __slots__ = ("blocks", "terms")

    def __init__(self, blocks, terms: Mapping | None = None):
        self.blocks = tuple((str(n), int(s)) for n, s in blocks)
        nvars = sum(s for _, s in self.blocks)
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exp, c in terms.items():
                c = Fraction(c)
                if c == 0:
                    continue
                exp = tuple(int(e) for e in exp)
                if len(exp) != nvars or any(e < 0 for e in exp):
                    raise ValueError(f"bad exponent vector {exp!r}")
                acc = clean.get(exp, Fraction(0)) + c
                if acc == 0:
                    clean.pop(exp, None)
                else:
                    clean[exp] = acc
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, blocks) -> "MultiPoly":
        return cls(blocks)

    @classmethod
    def constant(cls, blocks, value) -> "MultiPoly":
        nvars = sum(int(s) for _, s in blocks)
        return cls(blocks, {(0,) * nvars: Fraction(value)})

    @classmethod
    def variable(cls, blocks, block: str, index: int) -> "MultiPoly":
        blocks = tuple((str(n), int(s)) for n, s in blocks)
        off = 0
        for name, size in blocks:
            if name == block:
                if not 0 <= index < size:
                    raise ValueError(f"index {index} out of range in block {block!r}")
                nvars = sum(s for _, s in blocks)
                exp = [0] * nvars
                exp[off + index] = 1
                return cls(blocks, {tuple(exp): Fraction(1)})
            off += size
        raise ValueError(f"no block named {block!r}")

    # -- structure ----------------------------------------------------

    @property
    def nvars(self) -> int:
        return sum(s for _, s in self.blocks)

    def block_offset(self, block: str) -> tuple[int, int]:
        off = 0
        for name, size in self.blocks:
            if name == block:
                return off, size
            off += size
        raise ValueError(f"no block named {block!r}")

    def is_zero(self) -> bool:
        return not self.terms

    def multidegree(self) -> tuple[int, ...] | None:
        """Per-block degree tuple, or None if not multihomogeneous."""
        if not self.terms:
            return None
        degs = None
        for exp in self.terms:
            cur, off = [], 0
            for _, size in self.blocks:
                cur.append(sum(exp[off:off + size]))
                off += size
            cur = tuple(cur)
            if degs is None:
                degs = cur
            elif degs != cur:
                return None
        return degs

    # -- arithmetic ---------------------------------------------------

    def _check_blocks(self, other: "MultiPoly"):
        if self.blocks != other.blocks:
            raise BlockMismatchError(f"{self.blocks} vs {other.blocks}")

    def __add__(self, other):
        if isinstance(other, MultiPoly):
            self._check_blocks(other)
            merged = dict(self.terms)
            for exp, c in other.terms.items():
                merged[exp] = merged.get(exp, Fraction(0)) + c
            return MultiPoly(self.blocks, merged)
        return NotImplemented

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return MultiPoly(self.blocks, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            self._check_blocks(other)
            out: dict[tuple[int, ...], Fraction] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    out[e] = out.get(e, Fraction(0)) + c1 * c2
            return MultiPoly(self.blocks, out)
        if isinstance(other, (int, Fraction)):
            c0 = Fraction(other)
            return MultiPoly(self.blocks, {e: c * c0 for e, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.blocks == other.blocks
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.blocks, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        names = [f"{n}{i+1}" for n, s in self.blocks for i in range(s)]
        bits = []
        for exp in sorted(self.terms):
            c = self.terms[exp]
            mono = "*".join(f"{v}^{e}" if e > 1 else v
                            for v, e in zip(names, exp) if e)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "MultiPoly(" + " + ".join(bits) + ")"

    # -- calculus and evaluation ---------------------------------------

    def partial(self, block: str, index: int) -> "MultiPoly":
        """Formal partial derivative with respect to one variable."""
        off, size = self.block_offset(block)
        if not 0 <= index < size:
            raise ValueError(f"index {index} out of range in block {block!r}")
        k = off + index
        out: dict[tuple[int, ...], Fraction] = {}
        for exp, c in self.terms.items():
            if exp[k] == 0:
                continue
            e = list(exp)
            e[k] -= 1
            out[tuple(e)] = c * exp[k]
        return MultiPoly(self.blocks, out)

    def substitute(self, assignment: Mapping[str, Sequence]) -> "MultiPoly":
        """Substitute rational points for a subset of blocks.

        Substituted blocks disappear from the result; the remaining blocks
        are kept.  With every block substituted the result is a constant
        polynomial over no variables.
        """
        spans = {}
        off = 0
        keep_blocks = []
        for name, size in self.blocks:
            if name in assignment:
                pt = tuple(Fraction(v) for v in assignment[name])
                if len(pt) != size:
                    raise ValueError(f"point for block {name!r} has wrong size")
                spans[name] = (off, size, pt)
            else:
                keep_blocks.append((name, size))
            off += size
        keep_idx = [i for (name, size), base in
                    zip(self.blocks, _offsets(self.blocks))
                    for i in range(base, base + size) if name not in assignment]
        out: dict[tuple[int, ...], Fraction] = {}
        for exp, c in self.terms.items():
            val = c
            for off0, size, pt in spans.values():
                for j in range(size):
                    e = exp[off0 + j]
                    if e:
                        val *= pt[j] ** e
                if val == 0:
                    break
            if val == 0:
                continue
            key = tuple(exp[i] for i in keep_idx)
            out[key] = out.get(key, Fraction(0)) + val
        return MultiPoly(tuple(keep_blocks), out)

    def evaluate(self, assignment: Mapping[str, Sequence]) -> Fraction:
        """Fully evaluate; every block must be assigned."""
        res = self.substitute(assignment)
        if res.blocks:
            raise ValueError("evaluate requires every block to be assigned")
        return res.terms.get((), Fraction(0))

    def coefficient_vector(self, monomials: Sequence[tuple[int, ...]]) -> tuple[Fraction, ...]:
        extra = set(self.terms) - set(monomials)
        if extra:
            raise ValueError(f"terms outside the monomial list: {sorted(extra)[:3]}")
        return tuple(self.terms.get(m, Fraction(0)) for m in monomials)


def _offsets(blocks):
    out, off = [], 0
    for _, size in blocks:
        out.append(off)
        off += size
    return out


def det3_poly(entries: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    """Determinant of a 3x3 matrix of polynomials, by permutation expansion."""
    a = entries
    return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))


class QMatrix:
    """Dense matrix with exact rational entries."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[Iterable]):
        rows = [tuple(Fraction(v) for v in row) for row in entries]
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged matrix")
        self.entries = tuple(rows)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def __eq__(self, other):
        return isinstance(other, QMatrix) and self.entries == other.entries

    def _integer_rows(self) -> list[list[int]]:
        out = []
        for row in self.entries:
            denom = lcm(*(v.denominator for v in row)) if row else 1
            out.append([int(v * denom) for v in row])
        return out

    def rank(self) -> int:
        echelon, pivots = _bareiss_echelon(self._integer_rows())
        return len(pivots)

    def kernel(self) -> list[tuple[Fraction, ...]]:
        """Exact basis of the right null space, primitive integer vectors."""
        nc = self.cols
        echelon, pivots = _bareiss_echelon(self._integer_rows())
        pivset = set(pivots)
        free = [c for c in range(nc) if c not in pivset]
        basis = []
        for f in free:
            x = [Fraction(0)] * nc
            x[f] = Fraction(1)
            for i in range(len(pivots) - 1, -1, -1):
                p = pivots[i]
                s = sum((Fraction(echelon[i][j]) * x[j] for j in range(p + 1, nc)),
                        Fraction(0))
                x[p] = -s / echelon[i][p]
            basis.append(primitive(x))
        return basis

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        if self.rows == 0:
            return Fraction(1)
        scale = Fraction(1)
        rows = []
        for row in self.entries:
            denom = lcm(*(v.denominator for v in row)) if row else 1
            scale *= denom
            rows.append([int(v * denom) for v in row])
        d, sign = _bareiss_det(rows)
        return Fraction(sign * d, 1) / scale


def _bareiss_echelon(m: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form with column pivoting.

    Returns the nonzero echelon rows and the list of pivot columns.  All
    divisions are exact (Bareiss), so intermediate growth stays bounded by
    minor sizes.
    """
    m = [r[:] for r in m]
    nr = len(m)
    nc = len(m[0]) if m else 0
    pivots: list[int] = []
    r, prev = 0, 1
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nr):
            mic = m[i][c]
            for j in range(c + 1, nc):
                m[i][j] = (m[r][c] * m[i][j] - mic * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return m[:r], pivots


def _bareiss_det(m: list[list[int]]) -> tuple[int, int]:
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return 0, 1
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            mik = m[i][k]
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - mik * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return m[n - 1][n - 1], sign


def solve_exact(matrix: QMatrix, rhs: Sequence[Fraction]) -> tuple[Fraction, ...] | None:
    """Solve M x = b exactly; None when inconsistent.

    For underdetermined consistent systems an arbitrary (deterministic)
    solution is returned.
    """
    aug = QMatrix([list(row) + [-Fraction(b)] for row, b in zip(matrix.entries, rhs)])
    for vec in aug.kernel():
        if vec[-1] != 0:
            t = vec[-1]
            return tuple(v / t for v in vec[:-1])
    return None
