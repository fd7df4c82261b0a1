"""Exact arithmetic in O/ϖ^N for a local field with residue degree f and ramification e.

O is presented as GR(p^M, f)[x]/(E(x)) with E monic Eisenstein of degree e
(default x^e - p), where GR(p^M, f) = (Z/p^M)[y]/(h) is the Galois ring on a
monic lift h of the residue-field modulus.  A RingElem is a polynomial of
degree < e in the uniformizer with GR coefficients and a declared ϖ-adic
precision.  Digit strings (λ_0, .., λ_{n-1}) denote Σ ϖ^i [λ_i] and give the
canonical set of representatives of O/ϖ^n used to index induced vectors.

The coefficient precision M = ⌈N/e⌉ + 1 guarantees that no carry into the
top tracked ϖ-digit is lost (e·M ≥ N + 1).  Coefficients are int64 and every
product is reduced mod p^M before the next one, so arithmetic is exact while
f·(p^M - 1)² < 2^63; a larger precision is rejected when the ctx is built.
The batched products below sum at most f terms before they reduce, so the
same bound covers them.

Digits, their values and the translations [μ] + c = [μ″] + ϖⁿ[t] all run on
one carry engine: int64 stacks of shape (K, e, f), with the Teichmüller lifts,
the division by ϖ and the multiplication by ϖ precomputed as small arrays per
ctx (_arrays).  translation_table carries all qⁿ strings of a level at once;
divide_by_uniformizer, digits, from_digits and translate_digits are one-row
calls of the same kernels.  Every whole-level table is verified forward on
every key, through the multiplication by ϖ alone, before it is memoised.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CheckFailed,
    MixedFieldContexts,
    NonConvergence,
    NotDivisible,
    PrecisionExhausted,
)
from .gf import FieldCtx, FqElem


class LocalRingCtx:
    """Working model of O/ϖ^N; immutable, all operations pure."""

    def __init__(self, p: int, f: int, e: int, E=None, N: int = 8, field: FieldCtx | None = None):
        if e < 1 or f < 1 or N < 1:
            raise ValueError("need e, f, N >= 1")
        self.p, self.f, self.e, self.N = p, f, e, N
        self.M = -(-N // e) + 1
        if self.e * self.M < N + 1:
            raise ValueError(f"{self.M} digits of ramification {e} do not reach precision N = {N}")
        self.pM = p**self.M
        if f * (self.pM - 1) ** 2 >= 2**63:
            raise ValueError(
                f"precision N = {N} needs coefficients mod {p}^{self.M}, beyond exact int64 arithmetic"
            )
        self.field = field if field is not None else FieldCtx(p, f)
        if self.field.p != p or self.field.f != f:
            raise ValueError("field context does not match (p, f)")
        self.q = p**f

        # monic lift of the residue-field modulus, ascending, length f+1
        self.h = np.array([c % self.pM for c in self.field.fq.modulus], dtype=np.int64)

        # Eisenstein polynomial: list of e lower coefficients as GR vectors
        self.E = self._normalize_eisenstein(E)
        self._check_eisenstein()

        # y^(f+k) mod h for k = 0..f-2, used to fold products
        self._ypow_hi = self._build_ypow()
        self._u0_inv = None  # lazy: inverse of E[0]/p in GR
        self._teich = None  # lazy: (q, f) Teichmüller lifts of every residue code
        self._translations: dict = {}  # (n, c mod ϖ^{n+1}) -> translation_table result
        self._level_arrays = None  # lazy: (teich, W matrix, ϖ matrix) of the batched tables

    def _normalize_eisenstein(self, E):
        e, f = self.e, self.f
        if E is None:
            E = [-self.p] + [0] * (e - 1) + [1]
        E = list(E)
        if len(E) != e + 1:
            raise ValueError(f"Eisenstein polynomial must have degree {e}")
        out = []
        for c in E[:e]:
            if isinstance(c, (int, np.integer)):
                vec = np.zeros(f, dtype=np.int64)
                vec[0] = int(c) % self.pM
            else:
                vec = np.array([int(x) % self.pM for x in c], dtype=np.int64)
                if vec.shape != (f,):
                    raise ValueError("Eisenstein coefficient has wrong length")
            out.append(vec)
        # the lead is 1 as an integer or as the coordinates (1, 0, .., 0)
        lead = [E[e]] + [0] * (f - 1) if isinstance(E[e], (int, np.integer)) else list(E[e])
        if lead != [1] + [0] * (f - 1):
            raise ValueError("Eisenstein polynomial must be monic")
        return out

    def _check_eisenstein(self):
        p = self.p
        for c in self.E:
            if np.any(c % p != 0):
                raise ValueError("Eisenstein: lower coefficients must be divisible by p")
        if not np.any((self.E[0] // p) % p):
            raise ValueError("Eisenstein: constant coefficient divisible by p^2")

    def _build_ypow(self):
        f, pM = self.f, self.pM
        if f == 1:
            return []
        hi = []
        # y^f = -(h_0 + .. + h_{f-1} y^{f-1})
        cur = (-self.h[:f]) % pM
        hi.append(cur.copy())
        for _ in range(f - 2):
            nxt = np.zeros(f, dtype=np.int64)
            nxt[1:] = cur[: f - 1]
            nxt = (nxt + cur[f - 1] * hi[0]) % pM
            hi.append(nxt.copy())
            cur = nxt
        return hi

    # -- Galois ring coefficient arithmetic (vectors length f mod p^M) --

    def gr_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._gr_mul_rows(a[None], b[None])[0]

    def _gr_mul_rows(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Products in GR(p^M, f) row by row on two stacks (K, f) of coefficient vectors."""
        f, pM = self.f, self.pM
        conv = np.zeros((len(A), 2 * f - 1), dtype=np.int64)
        for i in range(f):
            conv[:, i : i + f] = (conv[:, i : i + f] + A[:, i : i + 1] * B) % pM
        out = conv[:, :f]
        for k in range(f, 2 * f - 1):
            out = (out + conv[:, k : k + 1] * self._ypow_hi[k - f]) % pM
        return out

    def gr_inv(self, a: np.ndarray) -> np.ndarray:
        """Newton-lift the residue-field inverse; a must be a unit."""
        fq = self.field.fq
        res = fq.code_of(a % self.p)
        if res == 0:
            raise NotDivisible("not a unit in the Galois ring")
        v = np.zeros(self.f, dtype=np.int64)
        for i, c in enumerate(fq.coords_of(fq.inv_code(res))):
            v[i] = c
        two = np.zeros(self.f, dtype=np.int64)
        two[0] = 2
        prec = 1
        while prec < self.M:
            v = self.gr_mul(v, (two - self.gr_mul(a, v)) % self.pM)
            prec *= 2
        return v

    # -- element constructors --

    def zero(self, prec: int | None = None) -> "RingElem":
        return RingElem(self, np.zeros((self.e, self.f), dtype=np.int64), prec or self.N)

    def one(self, prec: int | None = None) -> "RingElem":
        vec = np.zeros((self.e, self.f), dtype=np.int64)
        vec[0, 0] = 1
        return RingElem(self, vec, prec or self.N)

    def uniformizer(self, prec: int | None = None) -> "RingElem":
        vec = np.zeros((self.e, self.f), dtype=np.int64)
        if self.e == 1:
            vec[0] = (-self.E[0]) % self.pM  # E(ϖ) = 0 pins ϖ = -E_0
        else:
            vec[1, 0] = 1
        return RingElem(self, vec, prec or self.N)

    # -- canonical form and equality --

    def canon(self, vec: np.ndarray, prec: int) -> np.ndarray:
        """Reduce coefficient of ϖ^i mod p^⌈max(prec-i,0)/e⌉; bijective onto O/ϖ^prec.

        vec is one (e, f) coefficient array or a stack (..., e, f) of them.
        """
        out = vec.copy()
        for i in range(self.e):
            mi = -(-max(prec - i, 0) // self.e)
            out[..., i, :] %= self.p**mi if mi > 0 else 1
        return out

    # -- core polynomial arithmetic in the ϖ-generator --

    def _mul_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        e = self.e
        full = [np.zeros(self.f, dtype=np.int64) for _ in range(2 * e - 1)]
        for i in range(e):
            if not np.any(a[i]):
                continue
            for j in range(e):
                if not np.any(b[j]):
                    continue
                full[i + j] = (full[i + j] + self.gr_mul(a[i], b[j])) % self.pM
        # reduce by E: ϖ^e = -(E_0 + E_1 ϖ + .. + E_{e-1} ϖ^{e-1})
        for k in range(2 * e - 2, e - 1, -1):
            c = full[k]
            if not np.any(c):
                continue
            full[k] = np.zeros(self.f, dtype=np.int64)
            for i in range(e):
                full[k - e + i] = (full[k - e + i] - self.gr_mul(c, self.E[i])) % self.pM
        return np.stack(full[:e])

    def _pi_w(self) -> "RingElem":
        """W with p = ϖ·W: W = -u0^{-1}(ϖ^{e-1} + E_{e-1}ϖ^{e-2} + .. + E_1), u0 = E_0/p."""
        if self._u0_inv is None:
            self._u0_inv = self.gr_inv((self.E[0] // self.p) % self.pM)
        e = self.e
        vec = np.zeros((e, self.f), dtype=np.int64)
        if e == 1:
            # p = ϖ·(p/ϖ) with ϖ = p·unit; W = -u0^{-1}·1, E = x - E_0... here E_0 = -p·u0
            vec[0] = (-self._u0_inv) % self.pM
        else:
            vec[e - 1, 0] = 1
            for i in range(1, e):
                vec[i - 1] = (vec[i - 1] + self.E[i]) % self.pM
            for i in range(e):
                vec[i] = self.gr_mul((-self._u0_inv) % self.pM, vec[i])
        return RingElem(self, vec, self.N)

    # -- batched arithmetic on stacks (K, e, f) of coefficient arrays --

    def _matmul_mod(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """A @ B mod p^M for entries in [0, p^M), summed f products at a time.

        Each partial sum stays below f·(p^M - 1)² < 2^63, the bound checked
        when the ctx is built, whatever the inner dimension is.
        """
        f, pM = self.f, self.pM
        out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
        for k in range(0, A.shape[1], f):
            out = (out + (A[:, k : k + f] @ B[k : k + f]) % pM) % pM
        return out

    def _arrays(self) -> tuple:
        """(teich, W, Π), built once: teich[λ] is [λ] as an (e, f) array for every
        residue code λ, W is the f x ef matrix of a ↦ a·W on constants a (p = ϖ·W),
        and Π the ef x ef matrix of multiplication by ϖ, rows and columns over
        the flattened (e, f) coefficients."""
        if self._level_arrays is None:
            e, f = self.e, self.f
            teich = np.zeros((self.q, e, f), dtype=np.int64)
            teich[:, 0] = _teich_lifts(self)
            units = np.eye(e * f, dtype=np.int64).reshape(e * f, e, f)
            w, pi = self._pi_w().vec, self.uniformizer().vec
            W = np.stack([self._mul_vec(u, w).reshape(-1) for u in units[:f]])
            Pi = np.stack([self._mul_vec(u, pi).reshape(-1) for u in units])
            self._level_arrays = teich, W, Pi
        return self._level_arrays

    def __repr__(self):
        return f"LocalRingCtx(p={self.p}, f={self.f}, e={self.e}, N={self.N})"


class RingElem:
    """Polynomial of degree < e over GR(p^M, f) with a declared ϖ-adic precision."""

    __slots__ = ("ctx", "vec", "prec")

    def __init__(self, ctx: LocalRingCtx, vec: np.ndarray, prec: int):
        self.ctx = ctx
        self.vec = vec % ctx.pM
        self.prec = min(prec, ctx.N)

    def _check(self, other):
        if not isinstance(other, RingElem) or other.ctx is not self.ctx:
            raise MixedFieldContexts("operands live in different ring contexts")

    def __add__(self, other):
        self._check(other)
        return RingElem(self.ctx, (self.vec + other.vec) % self.ctx.pM, min(self.prec, other.prec))

    def __sub__(self, other):
        self._check(other)
        return RingElem(self.ctx, (self.vec - other.vec) % self.ctx.pM, min(self.prec, other.prec))

    def __mul__(self, other):
        self._check(other)
        return RingElem(self.ctx, self.ctx._mul_vec(self.vec, other.vec), min(self.prec, other.prec))

    def __neg__(self):
        return RingElem(self.ctx, (-self.vec) % self.ctx.pM, self.prec)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers not supported")
        out = self.ctx.one(self.prec)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, RingElem) or other.ctx is not self.ctx:
            return NotImplemented
        n = min(self.prec, other.prec)
        return np.array_equal(self.ctx.canon(self.vec, n), self.ctx.canon(other.vec, n))

    def __hash__(self):
        return hash((id(self.ctx), self.prec, self.vec.tobytes()))

    def at_precision(self, n: int) -> "RingElem":
        if n > self.prec:
            raise PrecisionExhausted(f"cannot raise precision {self.prec} to {n}")
        return RingElem(self.ctx, self.vec, n)

    def __repr__(self):
        return f"RingElem({self.vec.tolist()}, prec={self.prec})"


@dataclass(frozen=True)
class DigitString:
    """Digits (λ_0, .., λ_{n-1}) denoting Σ ϖ^i [λ_i]; the empty string is 0."""

    ctx: LocalRingCtx
    codes: tuple


# -- Teichmüller lifts --


def _teich_lifts(ctx: LocalRingCtx) -> np.ndarray:
    """The Teichmüller lift of every residue code, as rows of a (q, f) array.

    x ← x^q from the residue coordinates, on all codes at once, until every
    row is stable; memoised on the ctx.
    """
    if ctx._teich is None:
        p, f, q = ctx.p, ctx.f, ctx.q
        x = np.arange(q)[:, None] // p ** np.arange(f) % p
        for _ in range(ctx.M + 8):
            power, base, n = np.zeros_like(x), x, q
            power[:, 0] = 1
            while n:
                if n & 1:
                    power = ctx._gr_mul_rows(power, base)
                base = ctx._gr_mul_rows(base, base)
                n >>= 1
            if np.array_equal(power, x):
                ctx._teich = x
                break
            x = power
        else:
            raise NonConvergence("Teichmüller iteration did not stabilize")
    return ctx._teich


def teichmuller(lam: FqElem, ctx: LocalRingCtx) -> RingElem:
    """The unique lift of λ with x^q = x; computed by q-power stabilization."""
    if lam.field is not ctx.field.fq:
        raise MixedFieldContexts("element not in the residue field of this context")
    vec = np.zeros((ctx.e, ctx.f), dtype=np.int64)
    vec[0] = _teich_lifts(ctx)[lam.code]
    return RingElem(ctx, vec, ctx.N)


# -- free functions --


def divide_by_uniformizer(a: RingElem) -> RingElem:
    """Exact division by ϖ; requires a ≡ 0 mod ϖ, drops one unit of precision."""
    if a.prec - 1 < 1:
        raise PrecisionExhausted("quotient would have precision < 1")
    if residue(a):
        raise NotDivisible("element is a unit mod ϖ")
    return RingElem(a.ctx, _div_pi(a.ctx, a.vec[None])[0], a.prec - 1)


def residue(a: RingElem) -> FqElem:
    fq = a.ctx.field.fq
    return fq.elem(fq.code_of(a.vec[0] % a.ctx.p))


def digits(a: RingElem, n: int) -> DigitString:
    """Greedy I_n expansion: λ_i = residue(a), a ← (a - [λ_i])/ϖ."""
    if n > a.prec:
        raise PrecisionExhausted(f"need precision {n}, have {a.prec}")
    out, R = [], a.vec[None]
    for _ in range(n):
        s, R = _carry_steps(a.ctx, R)
        out.append(int(s[0]))
    return DigitString(a.ctx, tuple(out))


def from_digits(s: DigitString, prec: int | None = None) -> RingElem:
    """Σ ϖ^i [λ_i]; the empty string is 0."""
    columns = np.array(s.codes or (0,), dtype=np.int64)[:, None]
    return RingElem(s.ctx, _horner(s.ctx, columns)[0], prec or s.ctx.N)


# -- translation of digit strings --


def _translation_precision(c: RingElem, n: int) -> RingElem:
    if c.prec < n + 1:
        raise PrecisionExhausted(f"translation needs precision {n + 1}, have {c.prec}")
    return c.at_precision(n + 1)


def translate_digits(c: RingElem, mu: tuple) -> tuple:
    """(μ″, t) with [μ] + c = [μ″] + ϖⁿ[t] mod ϖ^{n+1}, where n = len(μ)."""
    ctx = c.ctx
    teich = ctx._arrays()[0]
    carry = _translation_precision(c, len(mu)).vec[None]
    out = []
    for lam in mu:
        s, carry = _carry_steps(ctx, carry + teich[lam])
        out.append(int(s[0]))
    return tuple(out), int(_residue_codes(ctx, carry)[0])


def _residue_codes(ctx: LocalRingCtx, R: np.ndarray) -> np.ndarray:
    """residue(x).code for each x of the stack R (K, e, f)."""
    return (R[:, 0] % ctx.p) @ ctx.p ** np.arange(ctx.f, dtype=np.int64)


def _div_pi(ctx: LocalRingCtx, R: np.ndarray) -> np.ndarray:
    """x/ϖ for each x of the stack R (K, e, f), whose entries lie in [0, p^M) and
    whose ϖ⁰ coefficients a₀ are divisible by p.

    p = ϖ·W, so x/ϖ is (a₀/p)·W plus the higher coefficients moved down one place.
    """
    W = ctx._arrays()[1]
    out = ctx._matmul_mod(R[:, 0] // ctx.p, W).reshape(-1, ctx.e, ctx.f)
    out[:, : ctx.e - 1] += R[:, 1:]
    return out % ctx.pM


def _carry_steps(ctx: LocalRingCtx, R: np.ndarray) -> tuple:
    """(s, C) with R = [s] + ϖ·C row by row, for a stack R (K, e, f) of nonnegative entries."""
    s = _residue_codes(ctx, R)
    return s, _div_pi(ctx, (R - ctx._arrays()[0][s]) % ctx.pM)


def _horner(ctx: LocalRingCtx, digit_columns) -> np.ndarray:
    """Σ ϖ^i [d_i] for each row, with d_i = digit_columns[i], as a stack (K, e, f)."""
    teich, _, Pi = ctx._arrays()
    e, f = ctx.e, ctx.f
    acc = teich[digit_columns[-1]]
    for d in reversed(digit_columns[:-1]):
        acc = (ctx._matmul_mod(acc.reshape(-1, e * f), Pi).reshape(-1, e, f) + teich[d]) % ctx.pM
    return acc


def check_translation_table(c: RingElem, n: int, perm: np.ndarray, twist: np.ndarray) -> None:
    """Raise CheckFailed unless (perm, twist) is the translation table of c on level n.

    perm must permute range(qⁿ), and Σ ϖ^i [μ_i] + c ≡ Σ ϖ^i [μ″_i] + ϖⁿ[t]
    mod ϖ^{n+1} must hold on every key.  Both sides are evaluated forward, by
    Horner over the digit columns of the ranks, not by the carry recursion
    that built the table.
    """
    ctx = c.ctx
    q, K = ctx.q, ctx.q**n
    if perm.shape != (K,) or twist.shape != (K,) or not np.array_equal(np.sort(perm), np.arange(K)):
        raise CheckFailed(f"translation table on level {n} does not permute the {K} digit strings")
    if np.any((twist < 0) | (twist >= q)):
        raise CheckFailed(f"translation table on level {n} has a twist outside the residue field")
    places = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    ranks = np.arange(K, dtype=np.int64)
    # a zero digit at place n on the left, so that n = 0 needs no case of its own
    lhs = _horner(ctx, [ranks // b % q for b in places] + [np.zeros(K, dtype=np.int64)]) + c.vec
    rhs = _horner(ctx, [perm // b % q for b in places] + [twist])
    if not np.array_equal(ctx.canon(lhs % ctx.pM, n + 1), ctx.canon(rhs, n + 1)):
        raise CheckFailed(f"translation table on level {n} breaks [μ] + c = [μ″] + ϖⁿ[t]")


def translation_table(c: RingElem, n: int) -> tuple:
    """translate_digits over all qⁿ digit strings of length n, as arrays.

    Strings are ranked lexicographically, first digit most significant:
    perm[rank μ] = rank μ″ and twist[rank μ] = t.  All strings are carried
    at once: after i digits the carries of the qⁱ prefixes form one stack,
    and each step adds every [λ] to every carry and divides by ϖ in a few
    array operations.  Every table is checked forward on every key by
    check_translation_table before it is memoised on the ctx by
    (n, c mod ϖ^{n+1}).
    """
    ctx = c.ctx
    c = _translation_precision(c, n)
    key = (n, ctx.canon(c.vec, n + 1).tobytes())
    hit = ctx._translations.get(key)
    if hit is None:
        teich = ctx._arrays()[0]
        q, e, f = ctx.q, ctx.e, ctx.f
        perm, carry = np.zeros(1, dtype=np.int64), c.vec[None]
        for _ in range(n):
            s, carry = _carry_steps(ctx, (carry[:, None] + teich).reshape(-1, e, f))
            perm = np.repeat(perm * q, q) + s
        hit = (perm, _residue_codes(ctx, carry))
        check_translation_table(c, n, *hit)
        ctx._translations[key] = hit
    return hit


def _carry_poly_coeffs(p: int):
    # F(x,y) = (x^p + y^p - (x+y)^p)/p mod p = -Σ_{k=1}^{p-1} (C(p,k)/p) x^k y^{p-k}
    return [(-(math.comb(p, k) // p)) % p for k in range(1, p)]


def witt_carry_closed_form(a: FqElem, b: FqElem, ctx: LocalRingCtx) -> FqElem:
    """Carry digit for e = 1 as a polynomial in (a^{p^{f-1}}, b^{p^{f-1}})."""
    fq = ctx.field.fq
    p, f = ctx.p, ctx.f
    x = a ** (p ** (f - 1)) if a else a
    y = b ** (p ** (f - 1)) if b else b
    coeffs = _carry_poly_coeffs(p)
    total = fq.zero
    for k in range(1, p):
        c = fq.from_int(coeffs[k - 1])
        total = total + c * (x**k) * (y ** (p - k))
    return total


def witt_carry_precision(e: int, carries: int = 1) -> int:
    """Ring precision witt_carry needs: the k-th carry sits at digit k·e."""
    return e * carries + 1


def witt_carry(a: FqElem, b: FqElem, ctx: LocalRingCtx, carries: int = 1) -> DigitString:
    """Digit string of [a]+[b] through the first `carries` carry positions.

    Positions 1..e-1 vanish; position e holds the first carry polynomial.
    """
    need = witt_carry_precision(ctx.e, carries)
    if ctx.N < need:
        raise PrecisionExhausted(f"need precision {need}, ctx has {ctx.N}")
    s = teichmuller(a, ctx) + teichmuller(b, ctx)
    return digits(s, need)
