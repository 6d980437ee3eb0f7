"""Exact rational arithmetic: sparse rational vectors, multihomogeneous
polynomials and linear algebra.

Everything in this module is exact, and the arithmetic runs on Python ints.
A `QVector` is integer numerators over one positive common denominator,
keyed by basis keys and reduced by their gcd once per result; it carries the
linear arithmetic of `MultiPoly` here, of `chow.ChowClass` and of the
divisor and curve classes of `moduli`.  A `QMatrix` stores integer rows
over one positive denominator.  Linear algebra goes through fraction-free
(Bareiss) elimination on the integer rows, so ranks and kernels are
certified, not numerical.  `det3_poly` takes dense integer forms, the
layout of `planesys`, and multiplies them with `planesys.p3_mul`.
`fractions.Fraction` appears only at the interface: coefficients read
through `QVector.coeffs`, substituted points, values and determinants.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import add, index, sub
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
    positive, which makes kernel bases deterministic.  A vector of ints is
    read as it is; any other goes through `integer_numerators`, so a float
    raises `TypeError`.
    """
    if all(type(v) is int for v in vector):
        ints = vector
    else:
        ints, _ = integer_numerators(vector)
    g = gcd(*ints)
    if g == 0:
        return tuple(ints)
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(v // g for v in ints)


def _reduced(nums: dict, den: int) -> tuple[dict, int]:
    """nums / den in lowest terms, with the zero numerators dropped.

    The result keeps nums, a fresh dict, unless a numerator is 0 or a
    common factor divides out; over den == 1 no gcd is taken.
    """
    if 0 in nums.values():
        nums = {e: n for e, n in nums.items() if n}
    if den == 1:
        return nums, den
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
        the space nor the keys are checked.  The numerators are copied once,
        so the vector shares no dict with the caller."""
        if den <= 0:
            raise ValueError("the denominator must be positive")
        self = object.__new__(cls)
        self.space = space
        self.nums, self.den = _reduced(dict(nums), den)
        return self

    def _like(self, nums: dict, den: int, other: "QVector"):
        """nums / den over this space, as the result of self and other; nums
        is a fresh dict, which the result keeps."""
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
        """self + sign * other; over one denominator the numerators are
        added, with no lcm and no scaling."""
        if not self._matches(other):
            return NotImplemented
        den = self.den
        if other.den == den:
            out, s2 = dict(self.nums), sign
        else:
            den = lcm(den, other.den)
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
        blocks = tuple((str(n), index(s)) for n, s in blocks)
        nvars = sum(s for _, s in blocks)
        clean: dict = {}
        for exp, c in (terms or {}).items():
            exp = tuple(map(index, exp))
            if len(exp) != nvars or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp!r}")
            clean[exp] = clean.get(exp, 0) + c
        super().__init__(blocks, clean)

    # -- structure ----------------------------------------------------

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
        off = 0
        for name, size in self.blocks:
            if name == block:
                break
            off += size
        else:
            raise ValueError(f"no block named {block!r}")
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
        polynomial over no variables.  Each coordinate passes through
        `rational`, and each term adds its coefficient times the product of
        the substituted powers.  `evaluate` is the one caller; the package
        reads forms at points through dense tables.
        """
        values = []  # (position, value) of each substituted coordinate
        keep_blocks: list[tuple[str, int]] = []
        keep_idx: list[int] = []
        off = 0
        for name, size in self.blocks:
            if name in assignment:
                point = [rational(v) for v in assignment[name]]
                if len(point) != size:
                    raise ValueError(f"point for block {name!r} has wrong size")
                values.extend(zip(range(off, off + size), point))
            else:
                keep_blocks.append((name, size))
                keep_idx.extend(range(off, off + size))
            off += size
        out: dict = {}
        for exp, c in self.coeffs.items():
            key = tuple(exp[i] for i in keep_idx)
            out[key] = out.get(key, 0) + c * prod(v ** exp[i] for i, v in values)
        return MultiPoly(keep_blocks, out)

    def evaluate(self, assignment: Mapping[str, Sequence]) -> Fraction:
        """Fully evaluate: `substitute` with every block assigned."""
        if any(name not in assignment for name, _ in self.blocks):
            raise ValueError("every block must be assigned")
        return self.substitute(assignment).terms.get((), Fraction(0))


def det3_poly(entries: Sequence[Sequence[Sequence[int]]]) -> list[int]:
    """Determinant of a 3x3 matrix of dense integer forms of one degree n,
    as a dense form of degree 3n: the cofactor expansion along the first
    row, each product a `planesys.p3_mul`.

    Raises ValueError unless entries is 3x3 and its nine forms have one
    length: the sums below would cut a longer product to a shorter one.
    """
    from .planesys import p3_mul

    a = entries
    if len(a) != 3 or any(len(row) != 3 for row in a):
        raise ValueError("det3_poly takes a 3x3 matrix")
    if len({len(e) for row in a for e in row}) != 1:
        raise ValueError("the entries of det3_poly are forms of one degree")

    def minor(j, k):
        return list(map(sub, p3_mul(a[1][j], a[2][k]), p3_mul(a[1][k], a[2][j])))

    return [u - v + w for u, v, w in zip(p3_mul(a[0][0], minor(1, 2)),
                                         p3_mul(a[0][1], minor(0, 2)),
                                         p3_mul(a[0][2], minor(0, 1)))]


class QMatrix:
    """Dense matrix with exact rational entries.

    The matrix is the integer rows ``nums`` over one positive denominator
    ``den``, in lowest terms: no factor of ``den`` divides every entry.  The
    constructor checks exact values; `from_ints` takes integer rows.  Rank,
    kernel and determinant eliminate on the integer rows.
    """

    __slots__ = ("nums", "den")

    def __init__(self, entries: Iterable[Iterable]):
        # lowest terms with no gcd: each prime power of den is the
        # denominator of some entry, whose numerator the prime does not divide
        rows = [integer_numerators(row) for row in entries]
        den = lcm(*(d for _, d in rows))
        self._store([[n * (den // d) for n in row] for row, d in rows], den)

    @classmethod
    def from_ints(cls, rows: Iterable[Iterable[int]]) -> "QMatrix":
        """The matrix of integer rows; the entries are not checked."""
        self = object.__new__(cls)
        self._store(rows, 1)
        return self

    def _store(self, rows: Iterable[Sequence[int]], den: int) -> None:
        nums = tuple(map(tuple, rows))
        if nums and any(len(r) != len(nums[0]) for r in nums):
            raise ValueError("ragged matrix")
        self.nums, self.den = nums, den

    @property
    def rows(self) -> int:
        return len(self.nums)

    @property
    def cols(self) -> int:
        return len(self.nums[0]) if self.nums else 0

    def __eq__(self, other):
        return (isinstance(other, QMatrix) and self.nums == other.nums
                and self.den == other.den)

    def rank(self) -> int:
        _, pivots, _ = _bareiss_echelon(self.nums)
        return len(pivots)

    def kernel(self) -> list[tuple[int, ...]]:
        """Exact basis of the right null space, primitive integer vectors.

        The vector of a free column f is 0 on the other free columns, and
        the k pivot rows whose pivot columns come before f fix it.  By
        Cramer's rule, x[f] = D, the leading k-minor on those rows and
        columns, which is the Bareiss pivot of row k - 1 (1 when k = 0),
        makes every pivot entry x[p] an integer k-minor, and the pivots
        after f read 0.  So back-substitution on the echelon rows divides
        exactly, and one `primitive` scales the vector.
        """
        nc = self.cols
        echelon, pivots, _ = _bareiss_echelon(self.nums)
        pivset = set(pivots)
        basis = []
        k = 0
        for f in range(nc):
            if f in pivset:
                k += 1
                continue
            x = [0] * nc
            x[f] = echelon[k - 1][pivots[k - 1]] if k else 1
            for i in range(k - 1, -1, -1):
                p = pivots[i]
                row = echelon[i]
                s = sum(row[j] * x[j] for j in range(p + 1, nc) if x[j])
                x[p] = -s // row[p]
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
        return Fraction(sign * echelon[-1][-1], self.den ** self.rows)


def _bareiss_echelon(m: Sequence[Sequence[int]]
                     ) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free row echelon form with column pivoting.

    Returns the nonzero echelon rows, the list of pivot columns and the sign
    of the row permutation.  Each column pivots on the remaining row whose
    entry there is smallest in absolute value, the first such row on ties;
    that row is swapped up and the sign flips.

    After step k every remaining row holds, in each later column, the
    (k+1)-minor on the pivot rows so far, that row, the pivot columns so
    far and that column (Sylvester's identity; Bareiss, Math. Comp. 22,
    1968).  So whichever nonzero row is chosen, the pivot of row k is a
    leading (k+1)-minor of the permuted rows on the pivot columns, the
    division by the previous pivot is exact, and every entry stays the
    size of a minor.  The smallest pivot makes the later minors smaller.

    No result depends on the rule.  The pivot columns are the column rank
    profile: column c is a pivot exactly when it is not in the span of the
    columns before it.  The rows span the row space, so the kernel vector
    of each free column, with the other free columns 0, is unique once
    primitive.  At full rank the last pivot of a square matrix is sign
    times its determinant.
    """
    m = [list(r) for r in m]
    nr = len(m)
    nc = len(m[0]) if m else 0
    pivots: list[int] = []
    r, prev, sign = 0, 1, 1
    for c in range(nc):
        nonzero = [i for i in range(r, nr) if m[i][c]]
        if not nonzero:
            continue
        piv = min(nonzero, key=lambda i: abs(m[i][c]))
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        top = m[r]
        pc = top[c]
        for i in range(r + 1, nr):
            row = m[i]
            mic = row[c]
            for j in range(c + 1, nc):
                row[j] = (pc * row[j] - mic * top[j]) // prev
            row[c] = 0
        prev = pc
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return m[:r], pivots, sign


def solve_exact(matrix: QMatrix, rhs: Sequence[Fraction]) -> tuple[Fraction, ...] | None:
    """Solve M x = b exactly; None when inconsistent.

    For underdetermined consistent systems an arbitrary (deterministic)
    solution is returned.  M is nums / D and b is B / e with integer B, so
    equation i is e nums_i . x - D B_i = 0, in integers.

    Nothing in the package calls it since residual lines are found by
    dividing the fiber conic; it stays because ``perfbench/tracer.py`` spans
    it, and goes with that span (ROADMAP item 1).
    """
    B, e = integer_numerators(rhs)
    aug = QMatrix.from_ints([tuple(e * n for n in row) + (-matrix.den * b,)
                             for row, b in zip(matrix.nums, B)])
    for vec in aug.kernel():
        if vec[-1] != 0:
            t = vec[-1]
            return tuple(Fraction(v, t) for v in vec[:-1])
    return None
