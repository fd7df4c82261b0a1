"""Exact arithmetic in the residue field F_q and its coefficient field K = F_{q^m}.

An extension F_p[x]/(h) stores its elements as integer codes: the element
sum_i c_i * t^i (t the class of x, 0 <= c_i < p) has code sum_i c_i * p^i.
All arithmetic is table driven (dense Q x Q add/mul tables plus unary
neg/inv/frobenius tables), so bulk operations on numpy arrays of codes are
plain fancy indexing.  K is one such extension of degree f*m; the residue
field F_q is the degree-f extension, embedded in K by sending its generator
to a root of its modulus inside K (for m = 1 both are the same context).
"""

import itertools
import math

import numpy as np

from .errors import DegreeTooHigh, DivisionByZero, MixedFieldContexts

# Beyond this the dense Q x Q tables stop being sensible.
TABLE_CAP = 4096

# Conway polynomials, ascending coefficients including the leading 1.
# Entries are re-verified by the irreducibility check at construction time;
# degrees not listed fall back to the first irreducible in lexicographic
# coefficient order.
_CONWAY = {
    (2, 1): (1, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (3, 1): (1, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 0, 0, 2, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (3, 6): (2, 2, 1, 0, 2, 0, 1),
    (5, 1): (3, 1),
    (5, 2): (2, 4, 1),
    (5, 3): (3, 3, 0, 1),
    (5, 4): (2, 4, 4, 0, 1),
    (7, 1): (4, 1),
    (7, 2): (3, 6, 1),
}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, int(math.isqrt(n)) + 1):
        if n % d == 0:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# -- dense polynomial helpers over F_p (coefficient tuples, ascending) --


def _poly_trim(a):
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def _poly_mulmod(a, b, mod, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    # reduce by the monic modulus
    deg = len(mod) - 1
    for k in range(len(out) - 1, deg - 1, -1):
        c = out[k]
        if c:
            out[k] = 0
            for i in range(deg):
                out[k - deg + i] = (out[k - deg + i] - c * mod[i]) % p
    return _poly_trim(tuple(out[:deg]))


def _poly_powmod(a, e, mod, p):
    result = (1,)
    base = _poly_mulmod(a, (1,), mod, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _poly_sub(a, b, p):
    return _poly_trim(tuple((x - y) % p for x, y in itertools.zip_longest(a, b, fillvalue=0)))


def _poly_rem(a, b, p):
    # remainder of a by b, b nonzero
    inv_lead = pow(b[-1], -1, p)
    r = list(a)
    while len(r) >= len(b):
        c = (r[-1] * inv_lead) % p
        shift = len(r) - len(b)
        for i, bc in enumerate(b):
            r[shift + i] = (r[shift + i] - c * bc) % p
        r = list(_poly_trim(tuple(r)))
        if not r:
            break
    return _poly_trim(tuple(r))


def _poly_gcd(a, b, p):
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        a, b = b, _poly_rem(a, b, p)
    return a


def is_irreducible(modulus, p: int) -> bool:
    """Rabin test for a monic polynomial over F_p (ascending coefficients)."""
    mod = tuple(c % p for c in modulus)
    n = len(mod) - 1
    if n < 1 or mod[-1] != 1:
        return False
    x = _poly_rem((0, 1), mod, p)
    t = x
    for _ in range(n):
        t = _poly_powmod(t, p, mod, p)
    if _poly_sub(t, x, p) != ():
        return False
    for ell in _prime_factors(n):
        t = x
        for _ in range(n // ell):
            t = _poly_powmod(t, p, mod, p)
        g = _poly_gcd(mod, _poly_sub(t, x, p), p)
        if len(g) - 1 != 0:
            return False
    return True


def default_modulus(p: int, n: int):
    """Conway polynomial when tabulated (and verified), else first-lex irreducible."""
    entry = _CONWAY.get((p, n))
    if entry is not None and is_irreducible(entry, p):
        return entry
    for low in itertools.product(range(p), repeat=n):
        cand = low + (1,)
        if is_irreducible(cand, p):
            return cand
    raise ValueError(f"no irreducible polynomial found for p={p}, degree={n}")


class PrimeExtField:
    """F_p[x]/(modulus) with dense lookup tables over integer codes."""

    def __init__(self, p: int, modulus):
        if not is_prime(p):
            raise ValueError(f"p={p} is not prime")
        modulus = tuple(c % p for c in modulus)
        if not is_irreducible(modulus, p):
            raise ValueError(f"modulus {modulus} is not irreducible over F_{p}")
        self.p = p
        self.deg = len(modulus) - 1
        self.modulus = modulus
        self.order = p**self.deg
        if self.order > TABLE_CAP:
            raise ValueError(f"field order {self.order} exceeds table cap {TABLE_CAP}")
        self._build_tables()

    # -- table construction --

    def _build_tables(self):
        p, deg, Q = self.p, self.deg, self.order
        pows = p ** np.arange(deg, dtype=np.int64)
        codes = np.arange(Q, dtype=np.int64)
        digits = (codes[:, None] // pows[None, :]) % p  # Q x deg

        # multiplication by x as a map on digit vectors
        modlow = np.array(self.modulus[:deg], dtype=np.int64)

        def mulx(codes_in):
            d = (codes_in[:, None] // pows[None, :]) % p
            top = d[:, deg - 1]
            shifted = np.zeros_like(d)
            shifted[:, 1:] = d[:, : deg - 1]
            out = (shifted - top[:, None] * modlow[None, :]) % p
            return out @ pows

        # codes of a * x^j for every a
        axj = np.empty((Q, deg), dtype=np.int64)
        axj[:, 0] = codes
        for j in range(1, deg):
            axj[:, j] = mulx(axj[:, j - 1])

        add = np.empty((Q, Q), dtype=np.int32)
        mul = np.empty((Q, Q), dtype=np.int32)
        block = max(1, min(Q, (1 << 22) // max(Q, 1)))
        axj_digits = (axj[:, :, None] // pows[None, None, :]) % p  # Q x deg x deg
        for lo in range(0, Q, block):
            hi = min(Q, lo + block)
            add[lo:hi] = (((digits[lo:hi, None, :] + digits[None, :, :]) % p) @ pows).astype(np.int32)
            prod_digits = np.einsum("ajd,bj->abd", axj_digits[lo:hi], digits) % p
            mul[lo:hi] = (prod_digits @ pows).astype(np.int32)
        self.ADD = add
        self.MUL = mul
        self.NEG = (((-digits) % p) @ pows).astype(np.int32)
        self.FROB = self._pow_all(p)
        inv = self._pow_all(Q - 2) if Q > 2 else np.array([0, 1], dtype=np.int32)
        inv[0] = 0  # sentinel; callers must not invert 0
        self.INV = inv

    def _pow_all(self, e: int) -> np.ndarray:
        out = np.ones(self.order, dtype=np.int32)
        base = np.arange(self.order, dtype=np.int32)
        while e:
            if e & 1:
                out = self.MUL[out, base]
            base = self.MUL[base, base]
            e >>= 1
        return out

    # -- code-level arithmetic --

    def add_code(self, a: int, b: int) -> int:
        return int(self.ADD[a, b])

    def sub_code(self, a: int, b: int) -> int:
        return int(self.ADD[a, self.NEG[b]])

    def mul_code(self, a: int, b: int) -> int:
        return int(self.MUL[a, b])

    def inv_code(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return int(self.INV[a])

    def pow_code(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv_code(a), -e
        out, base = 1, a
        while e:
            if e & 1:
                out = int(self.MUL[out, base])
            base = int(self.MUL[base, base])
            e >>= 1
        return out

    def frob_code(self, a: int, j: int = 1) -> int:
        # Frobenius has order deg on the whole field
        for _ in range(j % self.deg):
            a = int(self.FROB[a])
        return a

    def coords_of(self, code: int):
        p = self.p
        return tuple((code // p**i) % p for i in range(self.deg))

    def code_of(self, coords) -> int:
        p = self.p
        return sum((int(c) % p) * p**i for i, c in enumerate(coords))

    def elem(self, code: int) -> "FqElem":
        return FqElem(self, int(code) % self.order)

    def from_int(self, n: int) -> "FqElem":
        return FqElem(self, n % self.p)

    @property
    def zero(self) -> "FqElem":
        return FqElem(self, 0)

    @property
    def one(self) -> "FqElem":
        return FqElem(self, 1)

    def __repr__(self):
        return f"PrimeExtField(p={self.p}, deg={self.deg})"


class FqElem:
    """Element of a PrimeExtField, wrapping an integer code."""

    __slots__ = ("field", "code")

    def __init__(self, field: PrimeExtField, code: int):
        self.field = field
        self.code = code

    def _check(self, other):
        if not isinstance(other, FqElem) or other.field is not self.field:
            raise MixedFieldContexts("operands live in different field contexts")

    def __add__(self, other):
        self._check(other)
        return FqElem(self.field, int(self.field.ADD[self.code, other.code]))

    def __sub__(self, other):
        self._check(other)
        f = self.field
        return FqElem(f, int(f.ADD[self.code, f.NEG[other.code]]))

    def __mul__(self, other):
        self._check(other)
        return FqElem(self.field, int(self.field.MUL[self.code, other.code]))

    def __neg__(self):
        return FqElem(self.field, int(self.field.NEG[self.code]))

    def inverse(self):
        return FqElem(self.field, self.field.inv_code(self.code))

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __pow__(self, e: int):
        return FqElem(self.field, self.field.pow_code(self.code, e))

    def __eq__(self, other):
        return (
            isinstance(other, FqElem)
            and other.field is self.field
            and other.code == self.code
        )

    def __hash__(self):
        return hash((id(self.field), self.code))

    def __bool__(self):
        return self.code != 0

    def __repr__(self):
        return f"FqElem({self.code})"


class FieldCtx:
    """Residue field F_q = F_{p^f} together with the coefficient field K = F_{q^m}."""

    def __init__(self, p: int, f: int, m: int = 1):
        if f < 1 or m < 1:
            raise ValueError("f and m must be >= 1")
        self.p, self.f, self.m = p, f, m
        self.q = p**f
        self.fq = PrimeExtField(p, default_modulus(p, f))
        if m == 1:
            self.kk = self.fq
            self._embed = np.arange(self.q, dtype=np.int32)
        else:
            self.kk = PrimeExtField(p, default_modulus(p, f * m))
            self._embed = self._build_embedding()
        self._check_embedding_is_q_fixed_set()

    def _build_embedding(self) -> np.ndarray:
        # root of the F_q modulus inside K, smallest by code order
        kk, p = self.kk, self.p
        mod = self.fq.modulus
        root = None
        for z in range(kk.order):
            acc = 0
            for c in reversed(mod):
                acc = kk.add_code(kk.mul_code(acc, z), c % p)
            if acc == 0:
                root = z
                break
        if root is None:
            raise AssertionError("residue-field modulus has no root in K")
        emb = np.empty(self.q, dtype=np.int32)
        zpow = [1]
        for _ in range(1, self.f):
            zpow.append(kk.mul_code(zpow[-1], root))
        for a in range(self.q):
            coords = self.fq.coords_of(a)
            acc = 0
            for c, zp in zip(coords, zpow):
                acc = kk.add_code(acc, kk.mul_code(c % p, zp))
            emb[a] = acc
        return emb

    def _check_embedding_is_q_fixed_set(self):
        kk = self.kk
        codes = np.arange(kk.order, dtype=np.int32)
        qth = codes
        for _ in range(self.f):
            qth = kk.FROB[qth]
        fixed = set(codes[qth == codes].tolist())
        if fixed != set(int(c) for c in self._embed):
            raise ValueError("embedding image != fixed set of x -> x^q")

    def embed(self, a: FqElem) -> FqElem:
        if a.field is self.kk:
            return a
        if a.field is not self.fq:
            raise MixedFieldContexts("element does not belong to this context")
        return FqElem(self.kk, int(self._embed[a.code]))

    def embed_code(self, code: int) -> int:
        return int(self._embed[code])

    def enumerate_field(self, which: str = "Fq"):
        if which == "Fq":
            return [FqElem(self.fq, c) for c in range(self.q)]
        if which == "K":
            return [FqElem(self.kk, c) for c in range(self.kk.order)]
        raise ValueError(f"unknown field selector {which!r}")

    def __repr__(self):
        return f"FieldCtx(p={self.p}, f={self.f}, m={self.m})"


# -- free functions --


def monomial_exp(lam: FqElem, ivec) -> FqElem:
    """lam ** (sum_j p^j i_j) with the convention 0^0 = 1."""
    p = lam.field.p
    e = sum(int(i) * p**j for j, i in enumerate(ivec))
    if e == 0:
        return lam.field.one
    return lam**e


def sum_over_field(coeffs, ctx: FieldCtx) -> FqElem:
    """Sum of the polynomial over all of F_q; equals minus its degree-(q-1) coefficient.

    coeffs: ascending coefficient list of K-elements; hard error above degree q-1.
    """
    kk = ctx.kk
    trimmed = [c if c.field is kk else ctx.embed(c) for c in coeffs]
    while trimmed and not trimmed[-1]:
        trimmed.pop()
    if len(trimmed) - 1 > ctx.q - 1:
        raise DegreeTooHigh(f"degree {len(trimmed) - 1} exceeds q-1 = {ctx.q - 1}")
    total = kk.zero
    for t in range(ctx.q):
        tk = FqElem(kk, ctx.embed_code(t))
        acc = kk.zero
        for c in reversed(trimmed):
            acc = acc * tk + c
        total = total + acc
    return total
