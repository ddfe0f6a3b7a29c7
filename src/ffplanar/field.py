"""Arithmetic for F_{p^(m*n)} with the intermediate subfield F_q, q = p^m.

Elements are plain integers in [0, p^(m*n)): the base-p digits of the index
are the coordinates over the power basis 1, alpha, alpha^2, ... where alpha
is a root of the modulus polynomial.  Index 0 is the additive identity and
index 1 the multiplicative identity.

Fields small enough for the configured table cap run on exp/log tables
(multiplication and inversion by discrete logs); larger fields fall back to
modular polynomial arithmetic.  Both modes implement the same operations and
agree elementwise.

Scalar operations read the numpy tables the vector operations use, through
memoryviews made on first use: mul, inv and pow read the exp/log tables in
table mode, and add, neg and sub read the addition and negation tables when
the field has at most ADD_TABLE_CAP (1024) elements.  Above that, in table
mode, add and sub read the Zech table Z[k] = log(1 + g^k), g^i + g^j =
g^(i + Z(j - i)), and neg is -g^i = g^(i + (order-1)/2); Z is one gather
from the exp and log tables, made on first use.  In polynomial mode add and
neg run digit by digit, and mul, inv and pow by polynomial arithmetic.
`log_sum` evaluates a sum of monomials at one point in table mode with no
field addition: each term is one exponent, and the terms are summed as
logarithms through Z.  Vector addition works on one plane of a few digits
at a time in every field, the addition table's included: read at random,
its order^2 entries would push the other tables out of cache.
The differences f(y + c/2) - f(y - c/2) that brute force counts read the
same planes, at points taken from sums of the high and the low halves of
the digits (two tables, kept while they stay small); an even f is read on
half the field, its values as pairs {v, -v} through balanced digits.

The relative trace, the absolute trace of F_q and their tables are one sum
over an element's conjugates, run with the scalar or the vector ops.  The
relative norm, the product of the same conjugates, is the one power
a^((q^n - 1)/(q - 1)).
In table mode elements print from two cached lists of digit strings, one
for each half of the digits.
Subfield elements are 0 and the powers of one generator power, in both modes,
so listing F_{q^level} costs q^level multiplications, not a field walk.

The modulus for a given (p, m, n) is the lexicographically smallest monic
primitive polynomial of degree d = m*n over F_p, coefficients compared
low-degree-first, so the same parameters always produce the identical field.
A primitive polynomial has constant term (-1)^d g, g a primitive root mod p
(Lidl-Niederreiter, Finite Fields, Thm 3.18).  So the search takes c_0
outermost and skips each block of p^(d-1) candidates whose c_0 fails that
test without visiting it; in the other blocks it tests the order of x on
each candidate, c_1-major, except those with root 1 or -1 (for p = 3, every
candidate with a root in F_p).  p^d - 1 is factored by trial division, then
Miller-Rabin and Pollard-Brent rho.

The exp/log tables are built TABLE_BLOCK powers of alpha at a time: the digit
vectors of a block times C^TABLE_BLOCK mod p, C the companion matrix of the
modulus, are the next block, and one dot with the powers of p turns a block
into element indices.  No (order, degree) array is ever held.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math

import numpy as np

from .config import DEFAULT_TABLE_CAP

# add/sub lookup matrices are only built for small fields; larger fields use
# digitwise vector arithmetic instead
ADD_TABLE_CAP = 1024
# powers of alpha per block of the exp/log table build; a power of two
TABLE_BLOCK = 1 << 12
# largest field order: element indices and table entries are int64
MAX_ORDER = 1 << 62
# shifted_differences keeps the digitwise sums of every pair of half-digit
# values while each of its two tables holds at most this many (128 KB): every
# even degree up to 2^16 elements, odd ones up to F_13^3, F_5^5 and F_3^9.
# Above (odd degree and a large p, a prime field F_p with p > 256) the tables
# would hold about p times the order, so each block of directions sums its own
HALF_TABLE_CAP = 1 << 16
# shifted_differences keeps the index tables of the blocks of directions it
# saw last, at most this many bytes of them per field: every block of a
# batched F_625 scan (about 48 KB), and the first block of one candidate up
# to F_3^7 (34 KB) but not on F_3^8 (105 KB)
INDEX_CACHE_BYTES = 1 << 16


# prime_factors: trial division below TRIAL_BOUND, then Miller-Rabin with the
# first 13 primes as bases, exact for every n below 3.3*10^24
# (Sorenson-Webster 2017), then Pollard-Brent rho on a composite cofactor
TRIAL_BOUND = 100
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Strong probable-prime test of n >= 2 to MR_BASES; exact below
    3.3*10^24."""
    for b in MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int) -> int:
    """A proper factor of the odd composite n, by Pollard-Brent rho on
    y -> y^2 + c for c = 1, 2, ... (Brent 1980)."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # the batched product overshot: redo the last batch step by step
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _balanced(v: np.ndarray, p: int, count: int, radix: int) -> np.ndarray:
    """sum of d_i p^i over the first `count` base-`radix` digits of v, each
    taken mod p as a balanced digit d_i in -(p-1)/2 .. (p-1)/2."""
    out, w = 0, 1
    for _ in range(count):
        digit = v % radix % p
        out = out + (digit - p * (digit > p // 2)) * w
        v, w = v // radix, w * p
    return out


def prime_factors(n: int) -> list[int]:
    """Sorted distinct prime factors of n (none for n < 2).

    Exact for n below 3.3*10^24, which covers every field order the library
    accepts; above it a factor reported prime is a strong probable prime to
    the 13 bases MR_BASES."""
    if n < 2:
        return []
    out = set()
    for f in itertools.chain((2,), range(3, TRIAL_BOUND, 2)):
        if f * f > n:
            break
        if n % f == 0:
            out.add(f)
            while n % f == 0:
                n //= f
    rest = [n] if n > 1 else []
    while rest:
        k = rest.pop()
        # k is prime or has no factor below TRIAL_BOUND
        if k < TRIAL_BOUND**2 or _is_prime(k):
            out.add(k)
        else:
            f = _rho_factor(k)
            rest += [f, k // f]
    return sorted(out)


# ---------------------------------------------------------------------------
# F_p[x] helpers.  Polynomials are lists of ints in [0, p), little-endian
# (constant term first), with trailing zeros trimmed.
# ---------------------------------------------------------------------------

def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mulmod(a, b, modulus, p):
    if not a or not b:
        return []
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _poly_modred(prod, modulus, p)


def _poly_modred(a, modulus, p):
    # modulus is monic
    d = len(modulus) - 1
    a = list(a)
    for i in range(len(a) - 1, d - 1, -1):
        c = a[i] % p
        if c:
            a[i] = 0
            for j in range(d):
                a[i - d + j] = (a[i - d + j] - c * modulus[j]) % p
    del a[d:]
    return _poly_trim(a)


def _poly_powmod(base, e, modulus, p):
    result = [1]
    cur = _poly_modred(base, modulus, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, cur, modulus, p)
        cur = _poly_mulmod(cur, cur, modulus, p)
        e >>= 1
    return result


def _x_order_is(modulus, p, order, order_factors):
    """True iff x has multiplicative order exactly `order` mod modulus."""
    if modulus[0] == 0:
        return False
    if _poly_powmod([0, 1], order, modulus, p) != [1]:
        return False
    for r in order_factors:
        if _poly_powmod([0, 1], order // r, modulus, p) == [1]:
            return False
    return True


def find_primitive_modulus(p: int, degree: int) -> tuple[int, ...]:
    """Lexicographically smallest monic primitive polynomial of given degree.

    Coefficient tuples (c_0, ..., c_{d-1}) are compared low-degree-first;
    the returned tuple includes the leading 1.  A primitive polynomial has
    constant term (-1)^degree g with g a primitive root mod p (Lidl-
    Niederreiter, Finite Fields, Thm 3.18), so the c_0 blocks failing that
    are skipped whole, and only the others are walked, c_1-major; a candidate
    of degree >= 2 with root 1 or -1 is skipped before its order test.
    """
    order = p**degree - 1
    factors = prime_factors(order)
    root_tests = [(p - 1) // r for r in prime_factors(p - 1)]
    sign = (-1) ** degree
    for c0 in range(1, p):
        if any(pow(sign * c0, e, p) == 1 for e in root_tests):
            continue
        for rest in itertools.product(range(p), repeat=degree - 1):
            modulus = [c0, *rest, 1]
            # a root 1 or -1 is a linear factor: reducible unless degree 1
            if degree > 1 and (sum(modulus) % p == 0
                               or (sum(modulus[::2]) - sum(modulus[1::2])) % p == 0):
                continue
            if _x_order_is(modulus, p, order, factors):
                return tuple(modulus)
    raise ValueError(f"no primitive polynomial of degree {degree} over F_{p}")


class FieldCtx:
    """Immutable description of F_{p^(m*n)} with precomputed tables.

    Do not call directly; use new_ctx so identical parameters share one
    cached, verified instance.
    """

    def __init__(self, p: int, m: int, n: int, table_cap: int):
        self.p = p
        self.m = m
        self.n = n
        self.degree = m * n
        self.order = p**self.degree
        self.q = p**m
        self._hash = hash((p, m, n))
        self.modulus = find_primitive_modulus(p, self.degree)
        self.table_mode = self.order <= table_cap
        self.exp_table = None
        self.log_table = None
        if self.table_mode:
            self._build_tables()
        self._verify()
        self._cache = {}
        self._shift_cache = {}
        self._shift_cache_bytes = 0

    # -- construction ------------------------------------------------------

    def _build_tables(self):
        """exp[i] = alpha^i and log[alpha^i] = i, a block of TABLE_BLOCK
        powers at a time.  A block is a (rows, degree) array of digit
        vectors; the next block is this one times C^rows mod p, C being the
        companion matrix of the modulus (row v times C is alpha v).  Products
        stay below degree * p^2, inside int64 for any table that fits in
        memory."""
        p, d, N = self.p, self.degree, self.order
        exp = np.zeros(N - 1, dtype=np.int64)
        log = np.full(N, -1, dtype=np.int64)
        companion = np.zeros((d, d), dtype=np.int64)
        companion[np.arange(d - 1), np.arange(1, d)] = 1
        companion[d - 1] = [-c % p for c in self.modulus[:d]]
        weights = p ** np.arange(d, dtype=np.int64)
        # first block by doubling: rows k..2k-1 are rows 0..k-1 times C^k
        block = np.eye(1, d, dtype=np.int64)
        step = companion
        while len(block) < min(TABLE_BLOCK, N - 1):
            block = np.vstack([block, block @ step % p])
            step = step @ step % p
        # now step = C^len(block)
        for start in range(0, N - 1, len(block)):
            idx = block[:N - 1 - start] @ weights
            exp[start:start + len(idx)] = idx
            log[idx] = np.arange(start, start + len(idx))
            block = block @ step % p
        if np.count_nonzero(log >= 0) != N - 1:
            raise ValueError("generator does not have full multiplicative order")
        self.exp_table = exp
        self.log_table = log

    @property
    def generator(self) -> int:
        """Index of the fixed primitive element (the class of x, for degree > 1)."""
        if self.degree == 1:
            return (-self.modulus[0]) % self.p
        return self.p

    def _verify(self):
        p, d = self.p, self.degree
        # irreducibility: x^(p^d) = x and x^(p^(d/r)) != x mod modulus
        x_red = _poly_modred([0, 1], self.modulus, p)
        if _poly_powmod([0, 1], p**d, self.modulus, p) != x_red:
            raise ValueError("modulus is not irreducible")
        for r in prime_factors(d):
            if _poly_powmod([0, 1], p ** (d // r), self.modulus, p) == x_red:
                raise ValueError("modulus is not irreducible")
        if self.table_mode:
            e, l = self.exp_table, self.log_table
            if any(e[l[v]] != v for v in (1, self.generator, self.order - 1)):
                raise ValueError("exp/log tables inconsistent")

    # -- element digits ----------------------------------------------------

    def digits(self, a: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.degree):
            a, r = divmod(a, self.p)
            out.append(r)
        return tuple(out)

    def from_digits(self, ds) -> int:
        idx = 0
        for c in reversed(list(ds)):
            idx = idx * self.p + c % self.p
        return idx

    def parse_element(self, text: str) -> int:
        ds = [int(t) for t in text.split(",")]
        if len(ds) > self.degree or any(not 0 <= c < self.p for c in ds):
            raise ValueError(f"bad element digits {text!r} for {self}")
        return self.from_digits(ds)

    def format_element(self, a: int) -> str:
        """The base-p digits of a, least significant first, comma-separated;
        read from `_digit_strings` when it is kept."""
        strings = self._digit_strings
        if strings is None:
            return ",".join(map(str, self.digits(a)))
        split, low, high = strings
        hi, lo = divmod(a, split)
        return low[lo] + high[hi]

    @functools.cached_property
    def _digit_strings(self) -> tuple[int, list[str], list[str]] | None:
        """(split, low, high) for format_element in table mode, split =
        p^ceil(d/2): low[v] is the digit string of v < split, and high[v]
        that of v * split, its d - ceil(d/2) digits each after a comma.
        Neither list is order-sized; a prime field (d = 1) and polynomial
        mode keep none and join the digits."""
        if not self.table_mode or self.degree == 1:
            return None
        h = -(-self.degree // 2)

        def strings(count, lead):
            # little-endian digits: the first digit varies fastest
            return [lead + ",".join(map(str, ds[::-1]))
                    for ds in itertools.product(range(self.p), repeat=count)]

        return self.p**h, strings(h, ""), strings(self.degree - h, ",")

    def to_json(self) -> dict:
        return {"p": self.p, "m": self.m, "n": self.n, "modulus": list(self.modulus)}

    # -- scalar arithmetic -------------------------------------------------

    def add(self, a: int, b: int) -> int:
        tab = self._add_view
        if tab is not None:
            return tab[a, b]
        if self.table_mode:
            if a == 0 or b == 0:
                return a or b
            log = self._log_view
            return self._zech_add(log[a], log[b])
        p, out, w = self.p, 0, 1
        for _ in range(self.degree):
            out += (a % p + b % p) % p * w
            a //= p
            b //= p
            w *= p
        return out

    def neg(self, a: int) -> int:
        tab = self._neg_view
        if tab is not None:
            return tab[a]
        if self.table_mode:
            if a == 0:
                return 0
            half = (self.order - 1) // 2  # -1 = g^half
            return self._exp_view[(self._log_view[a] + half) % (self.order - 1)]
        p, out, w = self.p, 0, 1
        for _ in range(self.degree):
            out += (-a % p) * w
            a //= p
            w *= p
        return out

    def sub(self, a: int, b: int) -> int:
        tab = self._add_view
        if tab is not None:
            return tab[a, self._neg_view[b]]
        if self.table_mode:
            if b == 0:
                return a
            if a == 0:
                return self.neg(b)
            log = self._log_view
            return self._zech_add(log[a], log[b] + (self.order - 1) // 2)
        return self.add(a, self.neg(b))

    def _zech_add(self, i: int, j: int) -> int:
        """g^i + g^j, by g^i (1 + g^(j - i)) = g^(i + Z(j - i))."""
        M = self.order - 1
        z = self._zech_view[(j - i) % M]
        return 0 if z < 0 else self._exp_view[(i + z) % M]

    def log_sum(self, terms, x: int) -> int:
        """sum of c x^e at a nonzero x in table mode, for the terms given as
        pairs (log c, e mod (order - 1)) of nonzero c: each term is one
        exponent g^(log c + e log x), and the terms are summed as logs
        through the Zech table, with -1 standing for a zero sum."""
        M = self.order - 1
        lx, zech = self._log_view[x], self._zech_view
        acc = -1
        for lc, e in terms:
            t = (lc + e * lx) % M
            if acc < 0:
                acc = t
            else:
                z = zech[(t - acc) % M]
                acc = -1 if z < 0 else (acc + z) % M
        return 0 if acc < 0 else self._exp_view[acc]

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self.table_mode:
            log = self._log_view
            return self._exp_view[(log[a] + log[b]) % (self.order - 1)]
        prod = _poly_mulmod(list(self.digits(a)), list(self.digits(b)), self.modulus, self.p)
        return self.from_digits(prod + [0] * (self.degree - len(prod)))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in a finite field")
        if self.table_mode:
            return self._exp_view[-self._log_view[a] % (self.order - 1)]
        return self.pow(a, self.order - 2)

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of 0")
            return 0
        e %= self.order - 1
        if self.table_mode:
            return self._exp_view[self._log_view[a] * e % (self.order - 1)]
        poly = _poly_powmod(list(self.digits(a)), e, self.modulus, self.p)
        return self.from_digits(poly + [0] * (self.degree - len(poly)))

    def frobenius(self, a: int, e: int) -> int:
        """a^(p^e), with e reduced mod m*n."""
        return self.pow(a, self.p ** (e % self.degree))

    def _conjugate_sum(self, a, e: int, count: int, frob, add):
        """a plus its next count - 1 conjugates a^(p^e), a^(p^2e), ...: the
        traces; frob and add are the scalar or the vector ops, to match a."""
        acc = cur = a
        for _ in range(count - 1):
            cur = frob(cur, e)
            acc = add(acc, cur)
        return acc

    def rel_trace(self, a: int) -> int:
        """Trace from F_{q^n} down to F_q."""
        return self._conjugate_sum(a, self.m, self.n, self.frobenius, self.add)

    @functools.cached_property
    def _norm_exponent(self) -> int:
        return (self.order - 1) // (self.q - 1)

    def rel_norm(self, a: int) -> int:
        """Norm from F_{q^n} down to F_q: the product of a's n conjugates
        a^(q^i), which is the one power a^(1 + q + ... + q^(n-1))."""
        return self.pow(a, self._norm_exponent)

    def in_subfield(self, a: int, level: int = 1) -> bool:
        """Membership in F_{q^level}, tested as a^(q^level) = a."""
        return self.pow(a, self.q**level) == a

    def quadratic_character(self, a: int, level: int | None = None) -> int:
        """+1 for a nonzero square of F_{q^level}, -1 for a nonsquare, 0 for 0."""
        if a == 0:
            return 0
        big_q = self.q ** (self.n if level is None else level)
        v = self.pow(a, (big_q - 1) // 2)
        if v == 1:
            return 1
        if v == self.neg(1):
            return -1
        raise ValueError("element outside the requested subfield level")

    def subfield_abs_trace(self, a: int) -> int:
        """Trace from F_q to F_p of a subfield element, as an int in [0, p)."""
        return self._conjugate_sum(a, 1, self.m, self.frobenius, self.add)

    def elements(self) -> range:
        return range(self.order)

    def subfield_elements(self, level: int = 1) -> list[int]:
        """Sorted elements of F_{q^level} inside this field: 0 and the powers
        of generator^((order - 1) / (q^level - 1)), which generates its units."""
        key = ("subfield", level)
        if key not in self._cache:
            sub_order = self.q**level
            if (self.order - 1) % (sub_order - 1) != 0:
                raise ValueError(f"F_q^{level} is not a subfield of {self}")
            root = self.pow(self.generator, (self.order - 1) // (sub_order - 1))
            elems = [0, 1]
            for _ in range(sub_order - 2):
                elems.append(self.mul(elems[-1], root))
            self._cache[key] = sorted(elems)
        return self._cache[key]

    # -- vectorized arithmetic on numpy index arrays -------------------------

    def _need_tables(self):
        if not self.table_mode:
            raise ValueError(f"{self} exceeds the table cap; vector ops unavailable")

    @functools.cached_property
    def _add_planes(self) -> tuple[np.ndarray, np.ndarray, int]:
        """(planes, reduce, base) for _plane_add.

        Plane k holds digits k*g .. k*g+g-1 of every element re-expanded in
        base 2p-1, so adding two planes adds g digit pairs with no carry;
        reduce maps such a sum to the digitwise sum mod p, read in base p, and
        base = p^g.  g is the largest digit count (at least 1) whose sums
        stay below 2^16, so that planes and their sums are uint16."""
        p, d, b = self.p, self.degree, 2 * self.p - 1
        g = 1
        while g < d and b ** (g + 1) <= 1 << 16:
            g += 1
        idx = np.arange(self.order, dtype=np.int64)
        planes = np.empty((-(-d // g), self.order),
                          dtype=np.uint16 if b**g <= 1 << 16 else np.int64)
        for k, plane in enumerate(planes):
            plane[:] = sum(idx // p**i % p * b ** (i - k * g)
                           for i in range(k * g, min(d, k * g + g)))
        sums = np.arange(b**g, dtype=np.int64)
        reduce = sum(sums // b**i % b % p * p**i for i in range(g))
        return planes, reduce, p**g

    @functools.cached_property
    def _plane_rows(self) -> tuple[np.ndarray, ...]:
        """The planes of _add_planes, highest first, as _plane_add reads them."""
        return tuple(self._add_planes[0][::-1])

    def _plane_add(self, a, b) -> np.ndarray:
        """Digitwise a + b, one contiguous plane of digits at a time, so that
        no (..., degree) temporary is built."""
        _, reduce, base = self._add_planes
        top, *rest = self._plane_rows
        out = reduce.take(top.take(a) + top.take(b))
        for plane in rest:
            out *= base
            out += reduce.take(plane.take(a) + plane.take(b))
        return out

    @functools.cached_property
    def _neg_planes(self) -> np.ndarray:
        """The digit planes of -x for every x, so that shifted_differences
        reads -f in one gather."""
        return self._add_planes[0].take(self._neg_table, axis=1)

    @functools.cached_property
    def _class_reduce(self) -> np.ndarray:
        """reduce of _add_planes with each digit sum mod p read as a balanced
        digit, in -(p-1)/2 .. (p-1)/2.  The balanced planes combine, times
        base, to the one integer V(v) in -(order-1)/2 .. (order-1)/2 with
        V(-v) = -V(v), so |V| numbers the classes {v, -v} from 0 to
        (order-1)/2.  On a field of one plane the table holds |V| itself.
        A plane's |V| is at most (base - 1)/2 < 2^15."""
        p = self.p
        planes, reduce, base = self._add_planes
        out = _balanced(np.arange(len(reduce)), p, round(math.log(base, p)), 2 * p - 1)
        return (np.abs(out) if len(planes) == 1 else out).astype(np.int16)

    @functools.cached_property
    def _half_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """(hi, lo) for _shift_tables: with split = p^ceil(d/2), lo[u, v] is
        the digitwise sum of u and v below split, and hi[u, v] that of
        u * split and v * split.  Kept while split^2 <= HALF_TABLE_CAP, so
        the order is at most 2^16 and uint16 holds every index."""
        split = self.p ** -(-self.degree // 2)
        lows, highs = np.arange(split), np.arange(0, self.order, split)
        return (self._plane_add(highs[:, None], highs).astype(np.uint16),
                self._plane_add(lows[:, None], lows).astype(np.uint16))

    @functools.cached_property
    def _symmetric_halves(self) -> tuple[int, tuple, tuple]:
        """(split, full, half) for _shift_tables, split = p^ceil(d/2).  Each
        of full and half is (highs, tail): S is the high halves u in `highs`
        (the element u * split) plus every low half, then high half 0 plus
        the low halves in `tail`.  full is all of F; half is S = {y : V(y)
        >= 0} (`_class_reduce`), 0 and one of each pair {y, -y}, (order+1)/2
        elements: those whose high half has V > 0, then those with high
        half 0 and V(y) >= 0."""
        p, d = self.p, self.degree
        split = p ** -(-d // 2)
        lows, highs = np.arange(split), np.arange(self.order // split)
        return (split, (highs, lows[:0]), (highs[_balanced(highs, p, d, p) > 0],
                                           lows[_balanced(lows, p, d, p) >= 0]))

    def _shift_tables(self, cs: np.ndarray, even: bool) -> tuple[np.ndarray, np.ndarray]:
        """(y + h, y - h) as (len(cs), |S|) index tables, h = c/2 for c in
        cs along axis 0, y in S along axis 1 (`_symmetric_halves`: the half
        field if `even`, else all of it).  y + h is the digitwise sum of the
        high halves of y and h plus that of their low halves: one broadcast
        of the block's sums with the high halves of S and with every low
        half, which S's tail reads too.  The sums come from _half_sums when
        its tables hold at most HALF_TABLE_CAP entries each, else are made
        for the block.  Recent blocks are kept in `_shift_cache`, least
        recently used dropped first, up to INDEX_CACHE_BYTES."""
        key = (even, cs.tobytes())
        cache = self._shift_cache
        if key in cache:
            cache[key] = tables = cache.pop(key)
            return tables
        split, full, half = self._symmetric_halves
        highs, tail = half if even else full
        hs = self.mul_vec(cs, (self.p + 1) // 2)
        tables = []
        for h in (hs, self._neg_table[hs]):
            h_hi, h_lo = np.divmod(h, split)
            if split * split <= HALF_TABLE_CAP:
                hi, lo = self._half_sums
                hi, lo = hi[h_hi[:, None], highs], lo[h_lo]
            else:
                hi = self._plane_add(h_hi[:, None] * split, highs * split)
                lo = self._plane_add(h_lo[:, None], np.arange(split))
            body = (hi[:, :, None] + lo[:, None, :]).reshape(len(cs), -1)
            tail_sums = (h_hi * split).astype(lo.dtype)[:, None] + lo[:, tail]
            tables.append(np.concatenate([body, tail_sums], axis=1))
        tables = tuple(tables)
        size = 2 * tables[0].nbytes
        if size <= INDEX_CACHE_BYTES:
            while cache and self._shift_cache_bytes + size > INDEX_CACHE_BYTES:
                self._shift_cache_bytes -= 2 * cache.pop(next(iter(cache)))[0].nbytes
            cache[key] = tables
            self._shift_cache_bytes += size
        return tables

    def shifted_differences(self, f_tabs: np.ndarray):
        """For a (k, order) stack of value tables, (points, differences):
        differences maps directions cs and `rows` of the stack (a slice or
        an index array) to the (rows, len(cs), len(points)) array of the
        classes of E(y) = f(y + h) - f(y - h) = D_c(y - h), h = c/2: [i, j, s]
        for f = f_tabs[rows][i], c = cs[j] and y = points[s].  D_c permutes
        F exactly when its row holds len(points) distinct classes.

        A stack whose every row is even, f(-x) = f(x), has E odd, E(-y) =
        -E(y).  Its points are 0 and one of each pair {y, -y}, (order+1)/2
        in all, and the class of a value v is that of the pair {v, -v},
        |V(v)| in 0 .. (order-1)/2 (`_class_reduce`): E permutes F iff it
        takes the pairs of its points to distinct pairs.  Any other stack
        reads every point, and the classes are the values themselves.  The
        tables and their negations are split into digit planes once; per
        plane, f at y + h and -f at y - h are one gather each along the
        table axis from the block's (len(cs), len(points)) index tables
        (`_shift_tables`), then one add and one reduce lookup, in which a
        single plane also takes |V|."""
        planes, reduce, base = self._add_planes
        f_planes = planes.take(f_tabs, axis=1)
        # f is even iff each of its planes is, and planes are narrower than f
        even = bool((f_planes.take(self._neg_table, axis=2) == f_planes).all())
        neg_planes = self._neg_planes.take(f_tabs, axis=1)
        read = self._class_reduce if even else reduce
        split, full, half = self._symmetric_halves
        highs, tail = half if even else full
        points = np.concatenate([(highs[:, None] * split + np.arange(split)).ravel(),
                                 tail])

        def differences(cs: np.ndarray, rows) -> np.ndarray:
            plus, minus = self._shift_tables(cs, even)
            out = None
            for f_plane, neg_plane in zip(f_planes[::-1], neg_planes[::-1]):
                sums = f_plane[rows].take(plus, axis=1)
                sums += neg_plane[rows].take(minus, axis=1)
                digits = read.take(sums)
                if out is None:
                    out = digits
                else:
                    out = np.multiply(out, base, dtype=np.int64)
                    out += digits
            if even and len(planes) > 1:
                np.abs(out, out=out)
            return out

        return points, differences

    @functools.cached_property
    def add_matrix(self) -> np.ndarray | None:
        """Full (order, order) addition table for small fields, else None."""
        if self.order > ADD_TABLE_CAP:
            return None
        idx = np.arange(self.order)
        return self._plane_add(idx[:, None], idx[None, :]).astype(np.uint32)

    @functools.cached_property
    def _neg_table(self) -> np.ndarray:
        p, idx = self.p, np.arange(self.order, dtype=np.int64)
        return sum(-(idx // p**i) % p * p**i for i in range(self.degree))

    # Scalar add/neg/sub read add_matrix and the negation table, and
    # mul/inv/pow the exp/log tables, through memoryviews of the same
    # buffers: indexing one yields a Python int without a numpy scalar.

    @functools.cached_property
    def _add_view(self) -> memoryview | None:
        return None if self.order > ADD_TABLE_CAP else memoryview(self.add_matrix)

    @functools.cached_property
    def _neg_view(self) -> memoryview | None:
        return None if self.order > ADD_TABLE_CAP else memoryview(self._neg_table)

    @functools.cached_property
    def zech_table(self) -> np.ndarray:
        """Z[k] = log(1 + g^k), and -1 at k = (order - 1)/2, where 1 + g^k
        = -1 + 1 = 0 (Huber, IEEE Trans. Inf. Theory 36, 1990).  Adding 1
        changes only the constant digit, so 1 + y = y - y%p + (y%p + 1)%p,
        and Z is one gather from the exp and log tables, with no field
        addition."""
        self._need_tables()
        p, y = self.p, self.exp_table
        out = self.log_table[y - y % p + (y % p + 1) % p]
        out.setflags(write=False)
        return out

    @functools.cached_property
    def _zech_view(self) -> memoryview:
        return memoryview(self.zech_table)

    @functools.cached_property
    def _exp_view(self) -> memoryview:
        return memoryview(self.exp_table)

    @functools.cached_property
    def _log_view(self) -> memoryview:
        return memoryview(self.log_table)

    def add_vec(self, a, b):
        # digit planes even where add_matrix exists: read at random, its
        # (order, order) entries (1.5 MB on F_625) push a batch's tables out
        # of cache, and the planes and their reduce table stay small
        return self._plane_add(a, b)

    def neg_vec(self, a):
        return self._neg_table[a]

    def sub_vec(self, a, b):
        return self.add_vec(a, self.neg_vec(b))

    def mul_vec(self, a, b):
        self._need_tables()
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = self.exp_table[(self.log_table[a] + self.log_table[b]) % (self.order - 1)]
        return np.where((a == 0) | (b == 0), 0, out)

    def pow_vec(self, a, e: int):
        self._need_tables()
        a = np.asarray(a, dtype=np.int64)
        e %= self.order - 1
        out = self.exp_table[self.log_table[a] * e % (self.order - 1)]
        return np.where(a == 0, 0, out)

    def inv_vec(self, a):
        self._need_tables()
        a = np.asarray(a, dtype=np.int64)
        if np.any(a == 0):
            raise ZeroDivisionError("inverse of 0 in a finite field")
        return self.exp_table[(-self.log_table[a]) % (self.order - 1)]

    def frob_vec(self, a, e: int):
        return self.pow_vec(a, self.p ** (e % self.degree))

    @functools.cached_property
    def trace_table(self) -> np.ndarray:
        """rel_trace of every element, as an index array."""
        return self._conjugate_sum(np.arange(self.order, dtype=np.int64),
                                   self.m, self.n, self.frob_vec, self.add_vec)

    @functools.cached_property
    def norm_table(self) -> np.ndarray:
        """rel_norm of every element, as an index array: one pow_vec."""
        return self.pow_vec(np.arange(self.order, dtype=np.int64), self._norm_exponent)

    @functools.cached_property
    def square_table(self) -> np.ndarray:
        self._need_tables()
        return self.mul_vec(np.arange(self.order), np.arange(self.order))

    @functools.cached_property
    def subfield_mask(self) -> np.ndarray:
        """True at the elements of F_q, as a bool array over all elements."""
        out = np.zeros(self.order, dtype=bool)
        out[self.subfield_elements()] = True
        return out

    @functools.cached_property
    def subfield_eta_table(self) -> np.ndarray:
        """Quadratic character of F_q; valid only at subfield element indices."""
        out = np.zeros(self.order, dtype=np.int8)
        for a in self.subfield_elements():
            if a:
                out[a] = self.quadratic_character(a, level=1)
        return out

    @functools.cached_property
    def subfield_abs_trace_table(self) -> np.ndarray:
        """subfield_abs_trace of every element; valid only at subfield indices."""
        return self._conjugate_sum(np.arange(self.order, dtype=np.int64),
                                   1, self.m, self.frob_vec, self.add_vec)

    # -- misc ----------------------------------------------------------------

    def __repr__(self):
        return f"FieldCtx(p={self.p}, m={self.m}, n={self.n})"

    def __getstate__(self):
        # memoryviews do not pickle; they are made again on first use
        return {k: v for k, v in vars(self).items() if not isinstance(v, memoryview)}

    # Every cache keyed by a context looks it up: new_ctx shares one instance
    # per (p, m, n, table cap), so identity decides most comparisons, and the
    # hash is taken once
    def __eq__(self, other):
        return other is self or (
            isinstance(other, FieldCtx)
            and (self.p, self.m, self.n) == (other.p, other.m, other.n)
        )

    def __hash__(self):
        return self._hash


@functools.lru_cache(maxsize=None)
def _ctx_cached(p: int, m: int, n: int, table_cap: int) -> FieldCtx:
    return FieldCtx(p, m, n, table_cap)


def new_ctx(p: int, m: int, n: int, table_cap: int | None = None) -> FieldCtx:
    """Deterministic context for F_{p^(m*n)} with subfield F_{p^m}."""
    if p % 2 == 0:
        raise ValueError("characteristic must be odd")
    if prime_factors(p) != [p]:
        raise ValueError(f"{p} is not prime")
    if m < 1 or n < 1:
        raise ValueError("subfield exponent and tower degree must be >= 1")
    if p ** (m * n) > MAX_ORDER:
        raise ValueError("field size overflows the element index range")
    cap = DEFAULT_TABLE_CAP if table_cap is None else table_cap
    return _ctx_cached(p, m, n, cap)


def ctx_from_json(obj: dict, table_cap: int | None = None) -> FieldCtx:
    ctx = new_ctx(int(obj["p"]), int(obj["m"]), int(obj["n"]), table_cap)
    if "modulus" in obj and tuple(obj["modulus"]) != ctx.modulus:
        raise ValueError("modulus in serialized ctx is not the canonical one")
    return ctx


# ---------------------------------------------------------------------------
# Characters of the subfield F_q.
# ---------------------------------------------------------------------------

class AdditiveChar:
    """chi_t on F_q: x -> exp(2*pi*i * Tr_{F_q/F_p}(t x) / p), for t in F_q.

    For q = p the selector t ranges over the prime field and the map reduces
    to exp(2*pi*i * t * x / p); general t completes the dual group of (F_q, +).
    """

    def __init__(self, ctx: FieldCtx, t: int):
        if not 0 <= t < ctx.order or not ctx.in_subfield(t):
            raise ValueError("additive character selector must lie in F_q")
        self.ctx = ctx
        self.t = t

    @property
    def trivial(self) -> bool:
        return self.t == 0

    def __call__(self, a: int) -> complex:
        tr = self.ctx.subfield_abs_trace(self.ctx.mul(self.t, a))
        return cmath.exp(2j * math.pi * tr / self.ctx.p)

    def values(self, a) -> np.ndarray:
        """Vectorized evaluation over an array of subfield element indices."""
        ctx = self.ctx
        t_a = ctx.mul_vec(self.t, np.asarray(a, dtype=np.int64))
        tr = ctx.subfield_abs_trace_table[t_a]
        return np.exp(2j * np.pi * tr / ctx.p)


class MultiplicativeChar:
    """psi_j on F_q^*: g^s -> exp(2*pi*i * j * s / (q-1)), with psi_j(0) = 0."""

    def __init__(self, ctx: FieldCtx, j: int):
        if not 0 <= j < ctx.q - 1:
            raise ValueError("multiplicative character index out of range")
        ctx._need_tables()
        self.ctx = ctx
        self.j = j
        self._step = (ctx.order - 1) // (ctx.q - 1)

    @property
    def trivial(self) -> bool:
        return self.j == 0

    def _sublog(self, a: int) -> int:
        l = int(self.ctx.log_table[a])
        s, r = divmod(l, self._step)
        if r:
            raise ValueError("element is not in the subfield F_q")
        return s

    def __call__(self, a: int) -> complex:
        if a == 0:
            return 0j
        return cmath.exp(2j * math.pi * self.j * self._sublog(a) / (self.ctx.q - 1))

    def values(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        s = self.ctx.log_table[a] // self._step
        out = np.exp(2j * np.pi * self.j * s / (self.ctx.q - 1))
        return np.where(a == 0, 0j, out)


def additive_chars(ctx: FieldCtx) -> list[AdditiveChar]:
    return [AdditiveChar(ctx, t) for t in ctx.subfield_elements()]


def multiplicative_chars(ctx: FieldCtx) -> list[MultiplicativeChar]:
    return [MultiplicativeChar(ctx, j) for j in range(ctx.q - 1)]
