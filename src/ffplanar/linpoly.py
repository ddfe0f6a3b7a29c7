"""Linearized (p-polynomial) maps on F_{p^(m*n)} and their subspaces.

A linearized polynomial sum_t c_t x^(p^t) induces an F_p-linear endomorphism
of the field.  Functional coefficient vectors have length exactly m*n (reduced
mod x^(p^(m*n)) - x); "formal" coefficient tuples keep the unreduced degree so
identities between polynomials of degree p^(m*n) can be checked exactly.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .field import FieldCtx


# ---------------------------------------------------------------------------
# Dense linear algebra over F_p.
# ---------------------------------------------------------------------------

def fp_rref(rows, p: int):
    """Reduced row echelon form mod p of a 2-D sequence (lists or an ndarray);
    returns (reduced rows as lists, pivot column list)."""
    mat = [[int(v) % p for v in row] for row in rows]
    pivots = []
    r, n = 0, len(mat)
    for c in range(len(mat[0]) if mat else 0):
        for piv in range(r, n):
            if mat[piv][c]:
                break
        else:
            continue
        top = mat[piv]
        mat[piv] = mat[r]
        inv = pow(top[c], -1, p)
        mat[r] = top = [v * inv % p for v in top]
        for i in range(n):
            f = mat[i][c]
            if f and i != r:
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], top)]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return mat, pivots


def fp_rank(rows, p: int) -> int:
    return len(fp_rref(rows, p)[1])


def fp_is_singular(rows, p: int) -> bool:
    """True iff the square matrix `rows` is singular mod p, by forward
    elimination alone: each step drops a pivot row and the first column,
    and the first column without a pivot ends it."""
    mat = [[v % p for v in row] for row in rows]
    while mat:
        for k, row in enumerate(mat):
            if row[0]:
                break
        else:
            return True
        top = mat.pop(k)
        inv = pow(top[0], -1, p)
        top = top[1:]
        mat = [[(a - f * b) % p for a, b in zip(row[1:], top)]
               if (f := row[0] * inv % p) else row[1:] for row in mat]
    return False


def fp_nullspace(mat, p: int) -> list[list[int]]:
    """Basis of {v : mat @ v = 0 mod p}, one vector per free column."""
    red, pivots = fp_rref(mat, p)
    # a matrix without rows still has columns when it is an ndarray
    ncols = len(red[0]) if red else np.shape(mat)[-1]
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = 1
        for r_i, c in enumerate(pivots):
            v[c] = -red[r_i][f] % p
        basis.append(v)
    return basis


def fp_singular(mats, p: int) -> np.ndarray:
    """Bool mask over an (N, d, d) stack: which matrices are singular mod p.

    Swap-free, fraction-free elimination of the whole stack at once: column c
    pivots on the first row with a nonzero entry there; every row becomes
    piv * row - row[c] * pivot_row mod p, which zeroes the pivot row itself,
    so it is never chosen again.  A column without a pivot lies in the span of
    the earlier ones.  Entries are reduced after every column, so both
    products stay below p^2 <= 2^62 and their difference fits in int64 for
    p < 2^31."""
    mats = np.asarray(mats, dtype=np.int64) % p
    rows = np.arange(len(mats))
    singular = np.zeros(len(mats), dtype=bool)
    while mats.shape[-1]:
        col = mats[:, :, 0]
        pivot = (col != 0).argmax(axis=1)
        piv = col[rows, pivot]
        singular |= piv == 0
        # the eliminated column is all zero, so only the others are kept
        mats = (mats[:, :, 1:] * piv[:, None, None]
                - col[:, :, None] * mats[rows, pivot, None, 1:]) % p
    return singular


def digit_rows(ctx: FieldCtx, elems) -> np.ndarray:
    """The base-p digits of each element index, on a new last axis of
    length m*n."""
    weights = _digit_weights(ctx.p, ctx.degree)
    return np.asarray(elems, dtype=np.int64)[..., None] // weights % ctx.p


def span_table(ctx: FieldCtx, rows) -> np.ndarray:
    """sum_i c_i v_i at position sum_i c_i p^i, for every c in F_p^k, where
    v_i is the element with digit row rows[..., i, :] and k <= m*n: a table
    over each half of the rows by digit arithmetic, and one add_vec that sums
    the two.  Leading axes of rows give a stack of tables."""
    p, h = ctx.p, rows.shape[-2] // 2
    weights = _digit_weights(p, ctx.degree)
    hi, lo = (_digit_matrix(p, part.shape[-2]) @ part % p @ weights
              for part in (rows[..., h:, :], rows[..., :h, :]))
    return ctx.add_vec(hi[..., :, None], lo[..., None, :]).reshape(*rows.shape[:-2], -1)


@functools.lru_cache(maxsize=16)
def _digit_weights(p: int, k: int) -> np.ndarray:
    """p^i for i < k."""
    out = p ** np.arange(k, dtype=np.int64)
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=16)
def _digit_matrix(p: int, k: int) -> np.ndarray:
    """The (p^k, k) digits of 0 .. p^k - 1, least significant first."""
    out = np.arange(p**k, dtype=np.int64)[:, None] // _digit_weights(p, k) % p
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=16)
def _basis_conjugates(ctx: FieldCtx) -> tuple[tuple[int, ...], ...]:
    """(p^j)^(p^t) at [j][t], j, t < m*n: the images of the basis element
    p^j under each x^(p^t)."""
    return tuple(tuple(ctx.frobenius(ctx.p**j, t) for t in range(ctx.degree))
                 for j in range(ctx.degree))


def value_tables(ctx: FieldCtx, digits) -> np.ndarray:
    """(k, order) value tables of the k F_p-linear maps whose basis images
    ell(p^j) have the digit rows digits[i, j]; ValueError above the table
    cap.  ell(sum_j c_j p^j) = sum_j c_j ell(p^j), so each is the span table
    of its images."""
    ctx._need_tables()
    return span_table(ctx, digits)


@functools.lru_cache(maxsize=16)
def _image_map(ctx: FieldCtx) -> np.ndarray:
    """The (d*d, d*d) matrix over F_p that takes the digits of a map's d
    coefficients, one coefficient after another, to the digits of its d
    basis images: ell(p^j) = sum_t c_t (p^j)^(p^t) and c -> c v is F_p-linear,
    so row t*d + s holds the digits of p^s (p^j)^(p^t) in columns j*d to
    j*d + d - 1."""
    d = ctx.degree
    conj = np.array(_basis_conjugates(ctx))  # [j, t]
    prods = ctx.mul_vec(ctx.p ** np.arange(d)[:, None], conj.T[:, None, :])  # [t, s, j]
    out = digit_rows(ctx, prods).reshape(d * d, d * d)
    out.setflags(write=False)
    return out


def fill_values(ells) -> np.ndarray:
    """The (k, order) stack of the value tables of k polynomials on one
    field; ValueError above the table cap, before any order-sized array is
    made.  The tables missing from `LinearizedPoly.values` are made as one
    read-only stack and cached there as its rows, so a list of new
    polynomials, as in a scan batch, gets that stack itself, with no copy,
    and any other list a new stack of its rows.

    Their basis images come from one vector pass too, with no scalar field
    op: the digits of the k maps' images are the digits of their (k, d)
    coefficients times `_image_map`, mod p.  `LinearizedPoly.images` is
    cached from them where it is missing."""
    todo = [ell for ell in ells if "values" not in vars(ell)]
    if todo:
        ctx = todo[0].ctx
        d = ctx.degree
        coeffs = digit_rows(ctx, [ell.coeffs for ell in todo]).reshape(len(todo), d * d)
        digits = (coeffs @ _image_map(ctx) % ctx.p).reshape(len(todo), d, d)
        tabs = value_tables(ctx, digits)
        tabs.flags.writeable = False
        images = (digits @ _digit_weights(ctx.p, d)).tolist()
        # where functools.cached_property keeps them
        for ell, row, tab in zip(todo, images, tabs):
            vars(ell).setdefault("images", tuple(row))
            vars(ell)["values"] = tab
        if len(todo) == len(ells):
            return tabs
    return np.array([ell.values for ell in ells])


# ---------------------------------------------------------------------------
# Subspaces of the field over F_p.
# ---------------------------------------------------------------------------

class Subspace:
    """F_p-subspace of the field, held as a canonical RREF basis."""

    def __init__(self, ctx: FieldCtx, basis: tuple[int, ...]):
        self.ctx = ctx
        self.basis = basis

    @classmethod
    def from_vectors(cls, ctx: FieldCtx, elems) -> "Subspace":
        red, pivots = fp_rref([ctx.digits(e) for e in elems], ctx.p)
        return cls(ctx, tuple(ctx.from_digits(row) for row in red[:len(pivots)]))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def elements(self) -> tuple[int, ...]:
        """All p^dim member elements; one field addition per element visited."""
        if not hasattr(self, "_elems"):
            ctx = self.ctx
            cur = [0]
            for b in self.basis:
                block = list(cur)
                for lam in range(1, ctx.p):
                    shift = ctx.mul(lam, b)
                    block.extend(ctx.add(e, shift) for e in cur)
                cur = block
            self._elems = tuple(cur)
        return self._elems

    def to_json(self) -> dict:
        return {"basis": [self.ctx.format_element(b) for b in self.basis]}

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ctx == other.ctx
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ctx, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, basis={self.basis})"


def all_subspaces(ctx: FieldCtx, dim: int | None = None):
    """Yield every F_p-subspace (via direct RREF enumeration), by dimension."""
    d = ctx.degree
    dims = range(d + 1) if dim is None else [dim]
    for k in dims:
        if k == 0:
            yield Subspace(ctx, ())
            continue
        for pivots in itertools.combinations(range(d), k):
            free_pos = [
                (r, c)
                for r in range(k)
                for c in range(pivots[r] + 1, d)
                if c not in pivots
            ]
            for vals in itertools.product(range(ctx.p), repeat=len(free_pos)):
                mat = np.zeros((k, d), dtype=np.int64)
                for r in range(k):
                    mat[r, pivots[r]] = 1
                for (r, c), v in zip(free_pos, vals):
                    mat[r, c] = v
                yield Subspace(ctx, tuple(ctx.from_digits(row) for row in mat))


# ---------------------------------------------------------------------------
# Linearized polynomials.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearizedPoly:
    """sum_t coeffs[t] * x^(p^t) with exactly m*n coefficient slots."""

    ctx: FieldCtx
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.ctx.degree:
            raise ValueError("coefficient vector must have length m*n")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "LinearizedPoly":
        return cls(ctx, (0,) * ctx.degree)

    @classmethod
    def identity(cls, ctx: FieldCtx) -> "LinearizedPoly":
        return cls(ctx, (1,) + (0,) * (ctx.degree - 1))

    @classmethod
    def monomial(cls, ctx: FieldCtx, coeff: int, t: int) -> "LinearizedPoly":
        c = [0] * ctx.degree
        c[t % ctx.degree] = coeff
        return cls(ctx, tuple(c))

    @classmethod
    def from_formal(cls, ctx: FieldCtx, raw) -> "LinearizedPoly":
        """Reduce a formal coefficient tuple mod x^(p^(m*n)) - x."""
        c = [0] * ctx.degree
        for t, v in enumerate(raw):
            s = t % ctx.degree
            c[s] = ctx.add(c[s], v)
        return cls(ctx, tuple(c))

    @classmethod
    def from_json(cls, ctx: FieldCtx, obj: dict) -> "LinearizedPoly":
        c = [0] * ctx.degree
        for t, digits in obj["coeffs"].items():
            if not 0 <= int(t) < ctx.degree:
                raise ValueError(f"coefficient index {t} outside 0..{ctx.degree - 1}")
            c[int(t)] = ctx.parse_element(digits)
        return cls(ctx, tuple(c))

    def to_json(self) -> dict:
        return {
            "coeffs": {
                str(t): self.ctx.format_element(v)
                for t, v in enumerate(self.coeffs)
                if v
            }
        }

    # -- evaluation and algebra --------------------------------------------

    def __call__(self, x: int) -> int:
        return eval_formal(self.ctx, self.coeffs, x)

    @functools.cached_property
    def images(self) -> tuple[int, ...]:
        """The basis images ell(p^j) = sum_t c_t (p^j)^(p^t), j < m*n, which
        fix the map."""
        ctx, out = self.ctx, []
        for conjugates in _basis_conjugates(ctx):
            acc = 0
            for c, v in zip(self.coeffs, conjugates):
                if c:
                    acc = ctx.add(acc, ctx.mul(c, v))
            out.append(acc)
        return tuple(out)

    @functools.cached_property
    def values(self) -> np.ndarray:
        """Read-only table of ell at every element index, cached on the
        polynomial, a row of the stack `fill_values` makes; ValueError above
        the table cap."""
        return fill_values([self])[0]

    def eval_vec(self, xs: np.ndarray) -> np.ndarray:
        """ell at each index in xs, read from `values`."""
        return self.values[xs]

    def scale(self, c: int) -> "LinearizedPoly":
        return LinearizedPoly(
            self.ctx, tuple(self.ctx.mul(c, v) for v in self.coeffs)
        )

    def __add__(self, other: "LinearizedPoly") -> "LinearizedPoly":
        return LinearizedPoly(
            self.ctx,
            tuple(self.ctx.add(a, b) for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other: "LinearizedPoly") -> "LinearizedPoly":
        return LinearizedPoly(
            self.ctx,
            tuple(self.ctx.sub(a, b) for a, b in zip(self.coeffs, other.coeffs)),
        )

    # -- linear-map structure ------------------------------------------------

    def as_matrix(self) -> np.ndarray:
        """Matrix over F_p acting on digit vectors, columns indexed by alpha^j."""
        cols = [self.ctx.digits(v) for v in self.images]
        return np.array(cols, dtype=np.int64).T

    def kernel(self) -> Subspace:
        vecs = fp_nullspace(self.as_matrix(), self.ctx.p)
        return Subspace.from_vectors(
            self.ctx, [self.ctx.from_digits(v) for v in vecs]
        )

    def image(self) -> Subspace:
        return Subspace.from_vectors(self.ctx, self.images)

    def is_permutation(self) -> bool:
        return fp_rank(self.as_matrix(), self.ctx.p) == self.ctx.degree


# ---------------------------------------------------------------------------
# Formal coefficient vectors (degree tracked, no wraparound).
# ---------------------------------------------------------------------------

def eval_formal(ctx: FieldCtx, raw, x: int) -> int:
    """sum_t raw[t] * x^(p^t) at a field element x."""
    acc = 0
    for t, c in enumerate(raw):
        if c:
            acc = ctx.add(acc, ctx.mul(c, ctx.frobenius(x, t)))
    return acc


def compose_formal(ctx: FieldCtx, f_raw, g_raw) -> tuple[int, ...]:
    """Formal coefficients of f(g(x)); index t holds the x^(p^t) coefficient."""
    out = [0] * (len(f_raw) + len(g_raw) - 1)
    for t, ct in enumerate(f_raw):
        if not ct:
            continue
        for s, cs in enumerate(g_raw):
            if not cs:
                continue
            out[t + s] = ctx.add(out[t + s], ctx.mul(ct, ctx.frobenius(cs, t)))
    return tuple(out)


def full_field_annihilator(ctx: FieldCtx) -> tuple[int, ...]:
    """Formal coefficients of x^(p^(m*n)) - x."""
    raw = [0] * (ctx.degree + 1)
    raw[0] = ctx.neg(1)
    raw[ctx.degree] = 1
    return tuple(raw)


def annihilator_coeffs(sub: Subspace) -> tuple[int, ...]:
    """Formal coefficients of the monic linearized polynomial vanishing on sub.

    Built incrementally: adjoining xi maps g to g(x)^p - g(xi)^(p-1) * g(x).
    """
    ctx = sub.ctx
    raw = [1]
    for xi in sub.basis:
        val = eval_formal(ctx, raw, xi)
        if val == 0:
            raise ValueError("subspace basis is not independent")
        factor = ctx.pow(val, ctx.p - 1)
        new = [0] * (len(raw) + 1)
        for t, c in enumerate(raw):
            new[t + 1] = ctx.pow(c, ctx.p)
            new[t] = ctx.sub(new[t], ctx.mul(factor, c))
        raw = new
    return tuple(raw)


def image_poly_coeffs(sub: Subspace) -> tuple[int, ...]:
    """Formal coefficients of the monic g of degree p^(m*n - dim) whose image
    is the given subspace.

    g is derived from h = annihilator of the subspace by solving the formal
    identity h(g(x)) = x^(p^(m*n)) - x top-down; each unknown is an exact
    p^k-th root, extracted by the inverse Frobenius power x^(p^(m*n-k)).
    """
    ctx = sub.ctx
    d, k = ctx.degree, sub.dim
    h = annihilator_coeffs(sub)
    target = full_field_annihilator(ctx)
    g = [0] * (d - k + 1)
    g[d - k] = 1
    for s in range(d - k - 1, -1, -1):
        i = k + s
        acc = target[i]
        for j in range(k):
            s2 = i - j
            if s2 <= d - k and g[s2]:
                acc = ctx.sub(acc, ctx.mul(h[j], ctx.pow(g[s2], ctx.p**j)))
        g[s] = ctx.pow(acc, ctx.p ** (d - k)) if acc else 0
    # remaining equations must close; a failure would contradict the
    # subspace/image correspondence
    if compose_formal(ctx, h, tuple(g)) != target:
        raise RuntimeError("image polynomial recursion is inconsistent")
    return tuple(g)


def image_poly_for_subspace(sub: Subspace) -> LinearizedPoly:
    """Functional linearized polynomial whose image equals the subspace."""
    return LinearizedPoly.from_formal(sub.ctx, image_poly_coeffs(sub))
