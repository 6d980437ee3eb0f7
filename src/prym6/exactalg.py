"""Exact rational arithmetic: sparse rational vectors, multihomogeneous
polynomials and linear algebra.

Everything in this module is exact, and the arithmetic runs on Python ints.
A `QVector` is integer numerators over one positive common denominator,
keyed by basis keys and reduced by their gcd once per result; it carries the
linear arithmetic of `MultiPoly` here, of `chow.ChowClass` and of the
divisor and curve classes of `moduli`.  A `QMatrix` stores each row as
integer numerators over a positive row denominator.  Linear algebra goes
through fraction-free (Bareiss) elimination on the integer rows, so ranks
and kernels are certified, not numerical.  `fractions.Fraction` appears only
at the interface: coefficients read through `QVector.coeffs`, and values,
gradients and determinants.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import add
from typing import Iterable, Mapping, Sequence


class SpaceMismatchError(ValueError):
    """Raised when combining vectors over different spaces."""


def rational(value):
    """value itself if it is an int or a Fraction; TypeError otherwise.

    Exact values enter the package through this check, so a float, which
    would round silently, raises instead.
    """
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError("exact values are int or Fraction, "
                    f"not {type(value).__name__}")


def integer_numerators(values: Iterable) -> tuple[list[int], int]:
    """(nums, d): the values as integer numerators over one denominator.

    d is the least common multiple of the values' reduced denominators, so
    values[k] = nums[k] / d, and no factor of d divides every numerator.
    Each value passes through `rational`, so a float raises `TypeError`.
    Every exact value that becomes integers goes through here.
    """
    vals = [rational(v) for v in values]
    d = lcm(*(v.denominator for v in vals))
    return [v.numerator * (d // v.denominator) for v in vals], d


def primitive(vector: Sequence) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector.

    The result has coprime integer entries and its first nonzero entry is
    positive, which makes kernel bases deterministic.
    """
    ints, _ = integer_numerators(vector)
    g = gcd(*ints)
    if g == 0:
        return tuple(ints)
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(v // g for v in ints)


def _reduced(nums: Mapping, den: int) -> tuple[dict, int]:
    """nums / den in lowest terms, with the zero numerators dropped."""
    nums = {e: n for e, n in nums.items() if n}
    g = gcd(den, *nums.values())
    if g != 1:
        nums = {e: n // g for e, n in nums.items()}
        den //= g
    return nums, den


class QVector:
    """Sparse rational vector over a space, stored as integer numerators.

    The vector is ``nums / den``: ``nums`` maps basis keys to nonzero
    integer numerators, and ``den`` is a positive integer with no factor
    common to all of them (1 for the zero vector), so equal vectors have
    equal ``nums``, ``den`` and hash.  Coefficients and scalars are `int` or
    `Fraction`; anything else, a float included, raises `TypeError`.
    ``coeffs`` gives the coefficients as `Fraction`s.

    Sums, differences and products combine two vectors of one type over
    equal spaces (``==``: value equality for a tuple of blocks, identity for
    a ring) and raise `SpaceMismatchError` otherwise.  A subclass supplies
    its product as ``_product``.  A subclass whose vectors carry more than
    the coefficients declares it in ``__slots__``, which == and hash
    compare, and passes it on to results in ``_like``.
    """

    __slots__ = ("space", "nums", "den")

    def __init__(self, space, coeffs: Mapping | None = None):
        coeffs = coeffs or {}
        nums, den = integer_numerators(coeffs.values())
        self.space = space
        self.nums, self.den = _reduced(dict(zip(coeffs, nums)), den)

    @classmethod
    def from_ints(cls, space, nums: Mapping, den: int = 1):
        """nums / den for integer numerators and den > 0, reduced; neither
        the space nor the keys are checked."""
        if den <= 0:
            raise ValueError("the denominator must be positive")
        self = object.__new__(cls)
        self.space = space
        self.nums, self.den = _reduced(nums, den)
        return self

    def _like(self, nums: Mapping, den: int, other: "QVector"):
        """nums / den over this space, as the result of self and other."""
        out = object.__new__(type(self))
        out.space = self.space
        out.nums, out.den = _reduced(nums, den)
        return out

    @property
    def coeffs(self) -> dict:
        """Basis key -> nonzero `Fraction` coefficient, built on demand."""
        den = self.den
        return {k: Fraction(n, den) for k, n in self.nums.items()}

    def _matches(self, other) -> bool:
        """Whether other has this type; raises if it is over another space."""
        if type(other) is not type(self):
            return False
        if self.space != other.space:
            raise SpaceMismatchError(f"{self.space} vs {other.space}")
        return True

    def _combine(self, other, sign: int):
        if not self._matches(other):
            return NotImplemented
        den = lcm(self.den, other.den)
        s1, s2 = den // self.den, sign * (den // other.den)
        out = {k: n * s1 for k, n in self.nums.items()}
        for k, n in other.nums.items():
            out[k] = out.get(k, 0) + n * s2
        return self._like(out, den, other)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self._like({k: -n for k, n in self.nums.items()}, self.den, self)

    def __mul__(self, other):
        if isinstance(other, QVector):
            return self._product(other) if self._matches(other) else NotImplemented
        c = rational(other)
        return self._like({k: n * c.numerator for k, n in self.nums.items()},
                          self.den * c.denominator, self)

    __rmul__ = __mul__

    def _product(self, other):
        return NotImplemented

    def _tags(self) -> tuple:
        return tuple(getattr(self, a) for a in self.__slots__
                     if a not in QVector.__slots__)

    def __eq__(self, other):
        return (type(other) is type(self) and self.space == other.space
                and self.den == other.den and self.nums == other.nums
                and self._tags() == other._tags())

    def __hash__(self):
        return hash((self.space, self.den, frozenset(self.nums.items()),
                     self._tags()))

    def __repr__(self):
        return f"{type(self).__name__}({self.coeffs})"


class MultiPoly(QVector):
    """Multihomogeneous polynomial over named variable blocks.

    A `QVector` whose space is ``blocks``, an ordered tuple such as
    ``(("x", 3), ("y", 3))``, and whose keys are flat exponent tuples
    (concatenated over the blocks).  ``terms`` gives the coefficients as
    `Fraction`s.
    """

    __slots__ = ()

    blocks = QVector.space
    terms = QVector.coeffs

    def __init__(self, blocks, terms: Mapping | None = None):
        blocks = tuple((str(n), int(s)) for n, s in blocks)
        nvars = sum(s for _, s in blocks)
        clean: dict = {}
        for exp, c in (terms or {}).items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != nvars or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp!r}")
            clean[exp] = clean.get(exp, 0) + c
        super().__init__(blocks, clean)

    # -- structure ----------------------------------------------------

    def block_offset(self, block: str) -> tuple[int, int]:
        off = 0
        for name, size in self.blocks:
            if name == block:
                return off, size
            off += size
        raise ValueError(f"no block named {block!r}")

    def is_zero(self) -> bool:
        return not self.nums

    def multidegree(self) -> tuple[int, ...] | None:
        """Per-block degree tuple, or None if not multihomogeneous."""
        if not self.nums:
            return None
        degs = None
        for exp in self.nums:
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

    def _product(self, other):
        out: dict = {}
        for e1, c1 in self.nums.items():
            for e2, c2 in other.nums.items():
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return self._like(out, self.den * other.den, other)

    # -- calculus and evaluation ---------------------------------------

    def partial(self, block: str, index: int) -> "MultiPoly":
        """Formal partial derivative with respect to one variable."""
        off, size = self.block_offset(block)
        if not 0 <= index < size:
            raise ValueError(f"index {index} out of range in block {block!r}")
        k = off + index
        out = {}
        for exp, n in self.nums.items():
            e = exp[k]
            if e:
                out[exp[:k] + (e - 1,) + exp[k + 1:]] = n * e
        return MultiPoly.from_ints(self.blocks, out, self.den)

    def substitute(self, assignment: Mapping[str, Sequence]) -> "MultiPoly":
        """Substitute rational points for a subset of blocks.

        Substituted blocks disappear from the result; the remaining blocks
        are kept.  With every block substituted the result is a constant
        polynomial over no variables.

        Each substituted point is written P/d with integer P.  A term whose
        degree in that block is s takes P^e d^(top - s), top being the
        block's highest degree, so the sums run in integers and the result
        is over den times d^top for each block.

        Nothing in the package calls it: `jet` evaluates, and a fiber conic
        is read from `SymQuadricMatrix.evaluated`.  It stays as the general
        restriction that the tests check `jet` against, and because
        ``perfbench/tracer.py`` counts its calls (ROADMAP item 1).
        """
        spans = []  # (offset, P, d, top) of each substituted block
        keep_blocks: list[tuple[str, int]] = []
        keep_idx: list[int] = []
        den = self.den
        off = 0
        for name, size in self.blocks:
            if name in assignment:
                P, d = integer_numerators(assignment[name])
                if len(P) != size:
                    raise ValueError(f"point for block {name!r} has wrong size")
                top = max((sum(e[off:off + size]) for e in self.nums), default=0)
                spans.append((off, P, d, top))
                den *= d ** top
            else:
                keep_blocks.append((name, size))
                keep_idx.extend(range(off, off + size))
            off += size
        out: dict = {}
        for exp, val in self.nums.items():
            for off0, P, d, top in spans:
                s = 0
                for j, v in enumerate(P):
                    e = exp[off0 + j]
                    if e:
                        val *= v ** e
                        s += e
                if not val:
                    break
                if s != top:
                    val *= d ** (top - s)
            if val:
                key = tuple(exp[i] for i in keep_idx)
                out[key] = out.get(key, 0) + val
        return MultiPoly.from_ints(tuple(keep_blocks), out, den)

    def evaluate(self, assignment: Mapping[str, Sequence]) -> Fraction:
        """Fully evaluate; every block must be assigned."""
        return self.jet(assignment, 0)[0]

    def jet(self, assignment: Mapping[str, Sequence], order: int = 2) -> tuple:
        """Value, gradient and Hessian at a rational point, in one pass.

        Every block must be assigned.  Returns ``order + 1`` entries: the
        value; for order >= 1 the gradient over all variables, in the flat
        order of the exponent tuples; for order 2 the Hessian as a tuple of
        rows.

        Each block's point is written P/d with integer P, and each
        coefficient is its numerator C over ``den``.  A term whose block
        degrees are |e_b| then adds C P^e prod_b d_b^(deg_b - |e_b|) to
        den prod_b d_b^deg_b times the value, deg_b being the top degree of
        block b, so every sum runs in integers.  A derivative in a
        coordinate of block b lowers |e_b| by one, so its output takes one
        factor d_b back; each output is divided once.

        A term whose degree in the point's zero coordinates exceeds
        ``order`` is skipped: every derivative of order at most ``order``
        keeps a positive power of a zero coordinate, so the term adds 0 to
        each output.
        """
        if not 0 <= order <= 2:
            raise ValueError("order must be 0, 1 or 2")
        coords: list[int] = []
        back: list[int] = []  # per variable, the denominator d of its block
        lifts = []  # (start, stop, d, deg) of each block with d != 1
        for name, size in self.blocks:
            if name not in assignment:
                raise ValueError("every block must be assigned")
            P, d = integer_numerators(assignment[name])
            if len(P) != size:
                raise ValueError(f"point for block {name!r} has wrong size")
            if d != 1:
                a = len(coords)
                deg = max((sum(e[a:a + size]) for e in self.nums), default=0)
                lifts.append((a, a + size, d, deg))
            coords += P
            back += [d] * size
        n = len(coords)
        zeros = [k for k, v in enumerate(coords) if not v]
        tops = map(max, zip(*self.nums)) if self.nums else [0] * n
        pw = [[v ** e for e in range(top + 1)] for v, top in zip(coords, tops)]
        value = 0
        grad = [0] * n
        hess = [[0] * n for _ in range(n)]
        for exp, C in self.nums.items():
            if zeros:
                vanishing = 0
                for k in zeros:
                    vanishing += exp[k]
                if vanishing > order:
                    continue
            for a, b, d, deg in lifts:
                C *= d ** (deg - sum(exp[a:b]))
            support = [k for k in range(n) if exp[k]]
            mono = [pw[k][exp[k]] for k in support]
            term = C
            for m in mono:
                term *= m
            value += term
            if not order:
                continue
            for i, k in enumerate(support):
                e = exp[k]
                # C times every factor of the monomial but the k-th
                rest = C
                for j, m in enumerate(mono):
                    if j != i:
                        rest *= m
                grad[k] += e * pw[k][e - 1] * rest
                if order < 2:
                    continue
                if e >= 2:
                    hess[k][k] += e * (e - 1) * pw[k][e - 2] * rest
                for i2 in range(i + 1, len(support)):
                    l = support[i2]
                    f = exp[l]
                    mixed = C * e * pw[k][e - 1] * f * pw[l][f - 1]
                    for j, m in enumerate(mono):
                        if j != i and j != i2:
                            mixed *= m
                    hess[k][l] += mixed
        total = self.den
        for _, _, d, deg in lifts:
            total *= d ** deg
        out: tuple = (Fraction(value, total),)
        if order:
            out += (tuple(Fraction(g * back[k], total) for k, g in enumerate(grad)),)
        if order == 2:
            rows = [[Fraction(0)] * n for _ in range(n)]
            for k in range(n):
                for l in range(k, n):
                    rows[k][l] = rows[l][k] = Fraction(
                        hess[k][l] * back[k] * back[l], total)
            out += (tuple(map(tuple, rows)),)
        return out


def det3_poly(entries: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    """Determinant of a 3x3 matrix of polynomials, by permutation expansion."""
    a = entries
    return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))


class QMatrix:
    """Dense matrix with exact rational entries.

    Row i is stored as integer numerators ``nums[i]`` over a positive row
    denominator ``dens[i]``, in lowest terms.  The constructor checks exact
    values; `from_ints` takes integer rows.  Rank, kernel and determinant
    eliminate on the integer rows.
    """

    __slots__ = ("nums", "dens")

    def __init__(self, entries: Iterable[Iterable]):
        self._set_rows([integer_numerators(row) for row in entries])

    @classmethod
    def from_ints(cls, rows: Iterable[Iterable[int]], den: int = 1) -> "QMatrix":
        """rows / den for integer rows and den > 0; the entries are not
        checked."""
        if den <= 0:
            raise ValueError("the denominator must be positive")
        self = object.__new__(cls)
        self._set_rows([(row, den) for row in rows])
        return self

    def _set_rows(self, rows: list[tuple[Sequence[int], int]]) -> None:
        """Store each (integer row, denominator) pair in lowest terms."""
        nums, dens = [], []
        for row, d in rows:
            g = gcd(d, *row)
            nums.append(tuple(row) if g == 1 else tuple(v // g for v in row))
            dens.append(d // g)
        if nums and any(len(r) != len(nums[0]) for r in nums):
            raise ValueError("ragged matrix")
        self.nums, self.dens = tuple(nums), tuple(dens)

    @property
    def rows(self) -> int:
        return len(self.nums)

    @property
    def cols(self) -> int:
        return len(self.nums[0]) if self.nums else 0

    def __eq__(self, other):
        return (isinstance(other, QMatrix) and self.nums == other.nums
                and self.dens == other.dens)

    def rank(self) -> int:
        _, pivots, _ = _bareiss_echelon(self.nums)
        return len(pivots)

    def kernel(self) -> list[tuple[int, ...]]:
        """Exact basis of the right null space, primitive integer vectors."""
        nc = self.cols
        echelon, pivots, _ = _bareiss_echelon(self.nums)
        pivset = set(pivots)
        free = [c for c in range(nc) if c not in pivset]
        basis = []
        for f in free:
            # back-substitute in integers: x is the solution with x[f] = 1
            # times the least common denominator of the entries found so far
            x = [0] * nc
            x[f] = 1
            for i in range(len(pivots) - 1, -1, -1):
                p = pivots[i]
                row = echelon[i]
                s = sum(row[j] * x[j] for j in range(p + 1, nc) if x[j])
                g = gcd(s, row[p])
                if row[p] < 0:
                    g = -g
                scale = row[p] // g
                if scale != 1:
                    x = [v * scale for v in x]
                x[p] = -s // g
            basis.append(primitive(x))
        return basis

    def det(self) -> Fraction:
        """Sign times the last Bareiss pivot at full rank, and 0 below it."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        if self.rows == 0:
            return Fraction(1)
        echelon, pivots, sign = _bareiss_echelon(self.nums)
        if len(pivots) < self.rows:
            return Fraction(0)
        return Fraction(sign * echelon[-1][-1], prod(self.dens))


def _bareiss_echelon(m: Sequence[Sequence[int]]
                     ) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free row echelon form with column pivoting.

    Returns the nonzero echelon rows, the list of pivot columns and the sign
    of the row permutation.  All divisions are exact (Bareiss), so
    intermediate growth stays bounded by minor sizes, and the pivot of row k
    is the leading (k+1)-minor of the permuted rows on the pivot columns: at
    full rank, the last pivot of a square matrix is sign times its
    determinant.
    """
    m = [list(r) for r in m]
    nr = len(m)
    nc = len(m[0]) if m else 0
    pivots: list[int] = []
    r, prev, sign = 0, 1, 1
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
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
    return m[:r], pivots, sign


def solve_exact(matrix: QMatrix, rhs: Sequence[Fraction]) -> tuple[Fraction, ...] | None:
    """Solve M x = b exactly; None when inconsistent.

    For underdetermined consistent systems an arbitrary (deterministic)
    solution is returned.  Row i of M is nums_i / d_i and b is B / e with
    integer B, so equation i is e nums_i . x - d_i B_i = 0, in integers.

    Nothing in the package calls it since residual lines are found by
    dividing the fiber conic; it stays because ``perfbench/tracer.py`` spans
    it, and goes with that span (ROADMAP item 1).
    """
    B, e = integer_numerators(rhs)
    aug = QMatrix.from_ints([tuple(e * n for n in row) + (-d * b,)
                             for row, d, b in zip(matrix.nums, matrix.dens, B)])
    for vec in aug.kernel():
        if vec[-1] != 0:
            t = vec[-1]
            return tuple(Fraction(v, t) for v in vec[:-1])
    return None
