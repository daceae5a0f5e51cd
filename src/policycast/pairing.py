"""Low-level pairing arithmetic over supersingular curves.

Both profiles use the curve  y^2 = x^3 + x  over a prime field F_q with
q = 3 (mod 4).  Such a curve is supersingular, has exactly q + 1 points,
and has embedding degree 2.  The quadratic extension is represented as
F_q2 = F_q[i] / (i^2 + 1).  The distortion map

    phi(x, y) = (-x, i*y)

sends E(F_q) into the trace-zero subgroup of E(F_q2), so the modified
Tate pairing  e(P, Q) = Tate_r(P, phi(Q))  is non-degenerate even when
both inputs come from the same order-r subgroup of E(F_q).

Conventions used throughout this module:

  * F_q elements are plain ints in [0, q).
  * F_q2 elements are (a, b) tuples meaning a + b*i.
  * Curve points are affine (x, y) tuples; None is the point at infinity.
  * The pairing takes both inputs as points of E(F_q); the second input
    is the phi-preimage of the actual second pairing argument, and the
    distortion map is applied inside the Miller loop.

The Miller loop uses Jacobian coordinates and denominator elimination:
with an even embedding degree every F_q-rational line factor (verticals,
and any F_q scaling of the tangent/chord lines) is annihilated by the
final exponentiation (q - 1)(q + 1)/r, so those factors are simply
dropped.  Parameters were produced by tools/gen_params.py and are pinned
here; rerunning that script reproduces them.

Fixed arguments.  r does not divide the cofactor c, so E(F_q)[r] is
cyclic and both inputs are multiples of one generator G; hence
e(A, phi(B)) = e(G, phi(G))^(ab) = e(B, phi(A)), and a long-lived point
B (a key) can be the point the loop walks while the other input only
supplies the evaluation point.  One Miller walk, _walk, yields the
lines of a walked point in Jacobian coordinates: tate_miller evaluates
each at phi(Q) as it comes, and miller_lines keeps B's lines, divided
by the F_q part of each one's i-coefficient.  Those divisors are F_q
factors, which the final exponentiation kills, and one Montgomery batch
inversion covers all of them.  Each line is then two ints (a, b) with
value a + b*xq + i*yq at phi(Q), and fixed_miller evaluates the table
at Q with no point arithmetic and no inversion: about a third of a
Miller loop.  Tables all follow the bits of r, so several (table, Q)
pairs share one loop and its squarings; a pair evaluated at
-Q = (xq, -yq) contributes the conjugate, which the final
exponentiation turns into the inverse.

Fixed bases.  A point raised to many scalars (g1, g2, h, a signing
key) keeps a window table (fixed_base_table; Brickell, Gordon, McCurley
& Wilson, EUROCRYPT 1992): with w = FIXED_WINDOW, row j holds
d * 2^(wj) * P for every digit d = 1 .. 2^w - 1, affine, one row per
w-bit window of r (32 rows of 31 points at w = 5).  A row is built in
Jacobian coordinates by adding its base, together with the next row's
base (one doubling of 2^(w-1) times this one), and the row is made
affine with one Montgomery batch inversion, so only one row is ever
held in Jacobian form.  pt_mul_fixed takes a batch of (table, k) jobs,
reads one entry per nonzero digit of each k, and adds every job's
entries as one tree of affine chords (Montgomery, Math. Comp. 1987):
each round shares one inversion across all the batch's additions, so
a batch of any size takes about log2(rows) inversions, 5 at 32 rows,
and no doublings.  A single power is a batch of one.  pt_mul, the
double-and-add for any other base, and the tables share one
Jacobian-plus-affine mixed addition, _jac_add_affine.

Walked and evaluated points.  Only the walked point must have order r:
the loop relies on rP = O to end in the vertical chord, and the one
walk, _walk, which tate_miller and miller_lines both consume, checks
that it does, so a walked point needs no subgroup check of its own.
The walked points are the key-side ones: every key point, whose first
pairing builds its lines, and psi, which e(C, psi) walks (absc).  The
walk's Jacobian doubling is exact whenever Y != 0 and its chord
whenever H != 0 (T != +-P); a degenerate step (Y = 0, or H = 0 for
T = P or T = -P) sets Z to 0, and Z = 0 stays 0 through every later
doubling (2*Y*Z) and chord (Z*H).  So Z != 0 before the last addition
step means every step was exact and T = (r - 1)P there, and a vertical
chord at that step (H = 0, R != 0) means T = -P, hence rP = O.  Any
other end, an earlier vertical chord included, raises ValueError.  A
point of order r walks with no degenerate step, because kP != O, +-P
for 1 < k < r - 1 and no point of odd order has y = 0.  The reduced
pairing depends on the evaluation point Q only modulo rE, because the
Tate pairing is trivial on rE in its second argument.  q + 1 = c*r with
r coprime to c, so any Q' of E(F_q) is Q + h with Q of order r and h of
order dividing c; h = r*(r^-1 mod ord(h))*h lies in rE(F_q), and so
does phi(h) in E(F_q2).  Hence Q' and Q give the same reduced pairing
against any walked point, and an evaluation point needs only to be on
the curve, not a pt_mul by r (Barreto et al., "Subgroup security in
pairing-based cryptography", LATINCRYPT 2015).  The flip side is that
the pairing cannot tell Q' from Q, so a protocol that pairs against
points it has not subgroup-checked must bind their bytes some other
way (absc signs them).  Evaluation points must also have y != 0: the
only such point, (0, 0), has order two, every line's i-part vanishes at
it, and with y != 0 no line value is zero, so tate_final_exp's
inversion is always defined.

Points travel as (x, y) (groups.GroupContext.serialize_element), so a
decode is one on-curve check, pt_is_on_curve, and no square root;
pt_decompress is kept for tests that draw random curve points.
"""


class CurveParams:
    """Pinned constants for one curve profile."""

    __slots__ = ("name", "q", "r", "c", "g1", "g2pre", "symmetric",
                 "fq_bytes", "r_bytes", "r_tail")

    def __init__(self, name, q, r, c, g1, g2pre, symmetric):
        self.name = name
        self.q = q
        self.r = r
        self.c = c
        self.g1 = g1
        self.g2pre = g2pre
        self.symmetric = symmetric
        self.fq_bytes = (q.bit_length() + 7) // 8
        self.r_bytes = (r.bit_length() + 7) // 8
        self.r_tail = bin(r)[3:]  # bits of r after the leading one


# 512-bit field, 160-bit group order; source groups coincide.
SYM512 = CurveParams(
    name="SYMMETRIC_512",
    q=0x800000000000000000000000000000000000000000000000000000000000000000000000000000000000002c000000000000000000000000065f864c000066c7,
    r=0x800000000000000000000000000000000000012b,
    c=0xfffffffffffffffffffffffffffffffffffffdaa00000000000000000000000000000000000574e400000058,
    g1=(0x5885b6063364b203d5d1600b75f18ce5ec35b7032369e98bd54ade60fcabdaffb5dace311ce1ce5af9d7a3e8f407a333b48664e1f192cba6180139d8609e5013,
        0x626875d7f182c5952f23635eef3f48b49c300e14bbd786ad8732e768379911288611a6fcf55b863e9e91c58b9ef5a79dfc482bfd7bcb8e3c5094bcbd47dee258),
    g2pre=None,  # symmetric: second source group is the first
    symmetric=True,
)

# 159-bit field, 157-bit group order, cofactor 4; the second source group
# is the distorted image of an independently derived subgroup generator.
ASYM159 = CurveParams(
    name="ASYMMETRIC_159",
    q=0x4000000000000000000000000000000000000a3b,
    r=0x100000000000000000000000000000000000028f,
    c=0x4,
    g1=(0x15fb97024654d52fd39b41cbbb056c2efc1a0180,
        0x243a3b21bc0ee95c7ae5bbbb1ad6bb4a36e67c36),
    g2pre=(0x1be0e6c230532f6ca1f73e921a7128d1b5222ef0,
           0x3fcd4903e0e03560af496a9683731b2e12439a3e),
    symmetric=False,
)

FQ2_ONE = (1, 0)


# ---------------------------------------------------------------------------
# F_q2 arithmetic

def fq2_mul(x, y, q):
    a, b = x
    c, d = y
    ac = a * c
    bd = b * d
    return (ac - bd) % q, ((a + b) * (c + d) - ac - bd) % q


def fq2_sqr(x, q):
    a, b = x
    return (a + b) * (a - b) % q, 2 * a * b % q


def fq2_conj(x, q):
    a, b = x
    return a, -b % q


def fq2_inv(x, q):
    a, b = x
    n = pow(a * a + b * b, -1, q)
    return a * n % q, -b * n % q


def fq2_exp(x, e, q):
    if e < 0:
        x = fq2_inv(x, q)
        e = -e
    out = FQ2_ONE
    for bit in bin(e)[2:]:
        out = fq2_sqr(out, q)
        if bit == "1":
            out = fq2_mul(out, x, q)
    return out


# ---------------------------------------------------------------------------
# E(F_q) arithmetic, affine interface

def pt_is_on_curve(P, q):
    if P is None:
        return True
    x, y = P
    return 0 <= x < q and 0 <= y < q and (y * y - (x * x * x + x)) % q == 0


def pt_neg(P, q):
    if P is None:
        return None
    x, y = P
    return x, -y % q


def pt_add(P, Q, q):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % q == 0:
            return None
        num = (3 * x1 * x1 + 1) % q
        den = pow(2 * y1, -1, q)
    else:
        num = (y2 - y1) % q
        den = pow(x2 - x1, -1, q)
    lam = num * den % q
    x3 = (lam * lam - x1 - x2) % q
    y3 = (lam * (x1 - x3) - y1) % q
    return x3, y3


def _jac_double(X, Y, Z, q):
    # Jacobian doubling for y^2 = x^3 + a*x with a = 1
    Zsq = Z * Z % q
    A = X * X % q
    B = Y * Y % q
    Cc = B * B % q
    D = 2 * ((X + B) * (X + B) - A - Cc) % q
    E = (3 * A + Zsq * Zsq) % q
    X2 = (E * E - 2 * D) % q
    Y2 = (E * (D - X2) - 8 * Cc) % q
    Z2 = 2 * Y * Z % q
    return X2, Y2, Z2


def _jac_add_affine(X, Y, Z, x, y, q):
    """Jacobian (X, Y, Z) plus affine (x, y); Z = 0 is the point at infinity."""
    if Z == 0:
        return x, y, 1
    Zsq = Z * Z % q
    H = (x * Zsq - X) % q
    R = (y * Z % q * Zsq - Y) % q
    if H == 0:
        if R == 0:
            return _jac_double(X, Y, Z, q)  # T == P
        return 0, 1, 0  # T == -P
    H2 = H * H % q
    H3 = H * H2 % q
    X2 = (R * R - H3 - 2 * X * H2) % q
    Y2 = (R * (X * H2 - X2) - Y * H3) % q
    return X2, Y2, Z * H % q


def _jac_to_affine(X, Y, Z, q):
    if Z == 0:
        return None
    zinv = pow(Z, -1, q)
    z2 = zinv * zinv % q
    return X * z2 % q, Y * z2 % q * zinv % q


def _batch_inv(values, q):
    """Inverses of nonzero F_q values with one inversion (Montgomery's trick)."""
    prefix = []
    acc = 1
    for v in values:
        prefix.append(acc)
        acc = acc * v % q
    inv = pow(acc, -1, q)
    out = [None] * len(values)
    for k in range(len(values) - 1, -1, -1):
        out[k] = inv * prefix[k] % q
        inv = inv * values[k] % q
    return out


def _batch_to_affine(points, q):
    """Affine forms of Jacobian points, none at infinity, with one inversion."""
    out = []
    for (X, Y, _), zinv in zip(points, _batch_inv([p[2] for p in points], q)):
        z2 = zinv * zinv % q
        out.append((X * z2 % q, Y * z2 % q * zinv % q))
    return out


def pt_mul(P, k, q):
    """k*P via Jacobian double-and-add; returns an affine point."""
    if P is None or k == 0:
        return None
    if k < 0:
        return pt_mul(pt_neg(P, q), -k, q)
    xp, yp = P
    X, Y, Z = xp, yp, 1
    for bit in bin(k)[3:]:
        if Z:
            X, Y, Z = _jac_double(X, Y, Z, q)
        if bit == "1":
            X, Y, Z = _jac_add_affine(X, Y, Z, xp, yp, q)
    return _jac_to_affine(X, Y, Z, q)


FIXED_WINDOW = 5  # bits per window of a fixed-base table


def fixed_base_table(P, params):
    """Window table of a fixed point P of order r, for pt_mul_fixed.

    Row j holds d * 2^(wj) * P, affine, for d = 1 .. 2^w - 1, with one
    row per w-bit window of r.
    """
    q = params.q
    w = FIXED_WINDOW
    half = 1 << (w - 1)
    table = []
    x, y = P  # the row's base, 2^(wj) * P
    for _ in range(-(-params.r.bit_length() // w)):
        row = [(x, y, 1)]
        for _ in range(2 * half - 2):
            row.append(_jac_add_affine(*row[-1], x, y, q))
        row.append(_jac_double(*row[half - 1], q))  # the next base, 2^w * base
        *row, (x, y) = _batch_to_affine(row, q)
        table.append(row)
    return table


def pt_mul_fixed(jobs, q):
    """k*P for every (fixed_base_table of P, k) job, 0 <= k < 2^(w * rows).

    Each job contributes one table entry per nonzero w-bit digit of k,
    and _tree_sums adds all the lists at once: no doublings, and one
    inversion per round of the tree, shared by every job.
    """
    mask = (1 << FIXED_WINDOW) - 1
    lists = []
    for table, k in jobs:
        terms = []
        for row in table:
            d = k & mask
            if d:
                terms.append(row[d - 1])
            k >>= FIXED_WINDOW
        if k:
            raise ValueError("scalar wider than the table")
        lists.append(terms)
    return _tree_sums(lists, q)


def _tree_sums(lists, q):
    """The sum of each list of affine points, None for an empty sum.

    Each round adds neighbours in every list with the affine chord, all
    of the round's chords sharing one _batch_inv (Montgomery's trick),
    so the longest list, of n points, sets the inversions: ceil(log2(n)),
    however many lists there are.  A pair with equal x, a doubling or a
    cancellation, goes through pt_add, and a None it returns is dropped.
    """
    lists = [list(terms) for terms in lists]
    while any(len(terms) > 1 for terms in lists):
        chords = []  # (list, P, Q) pairs with distinct x
        for n, terms in enumerate(lists):
            if len(terms) < 2:
                continue
            pairs = terms[:len(terms) & ~1]
            del terms[:len(pairs)]  # an odd one out waits for the next round
            for P, Q in zip(pairs[::2], pairs[1::2]):
                if P[0] == Q[0]:
                    S = pt_add(P, Q, q)
                    if S is not None:
                        terms.append(S)
                else:
                    chords.append((n, P, Q))
        inverses = _batch_inv([Q[0] - P[0] for _, P, Q in chords], q)
        for (n, (x1, y1), (x2, y2)), inv in zip(chords, inverses):
            lam = (y2 - y1) * inv % q
            x3 = (lam * lam - x1 - x2) % q
            lists[n].append((x3, (lam * (x1 - x3) - y1) % q))
    return [terms[0] if terms else None for terms in lists]


def pt_decompress(x, y_is_odd, q):
    """Recover (x, y) from x and the parity of y; None if x is not on the curve."""
    if not 0 <= x < q:
        return None
    rhs = (x * x * x + x) % q
    y = pow(rhs, (q + 1) // 4, q)  # a square root, as q = 3 mod 4
    if y * y % q != rhs:
        return None
    if y == 0:
        return None if y_is_odd else (x, 0)
    if (y & 1) != (1 if y_is_odd else 0):
        y = q - y
    return x, y


# ---------------------------------------------------------------------------
# Tate pairing

def _walk(P, params):
    """The Miller walk of P along the bits of r, one line at a time.

    Yields each line as (a, b, s, doubling): its value at phi(Q) is
    a + b*xq + i*s*yq, with a and b left unreduced for the caller's one
    reduction, and doubling marks the lines that follow a squaring.  Subfield line factors are dropped
    (k = 2 is even).  Raises ValueError at the end unless rP = O (module
    docstring, "Walked and evaluated points").
    """
    q = params.q
    xp, yp = P
    X, Y, Z = xp, yp, 1
    last = len(params.r_tail) - 1
    for k, bit in enumerate(params.r_tail):
        # --- doubling step, with the tangent at T
        Zsq = Z * Z % q
        A = X * X % q
        B = Y * Y % q
        Cc = B * B % q
        D = 4 * X * B % q
        E = (3 * A + Zsq * Zsq) % q
        Z2 = 2 * Y * Z % q  # 0 once Y = 0 (T of order two) or Z = 0
        # tangent at phi(Q): E*(X + xq*Zsq) - 2B + i*Z2*Zsq*yq
        yield E * X - 2 * B, E * Zsq, Z2 * Zsq % q, True
        X = (E * E - 2 * D) % q
        Y = (E * (D - X) - 8 * Cc) % q
        Z = Z2
        if bit == "1":
            # --- addition step T + P, with the chord through T and P
            Zsq = Z * Z % q
            H = (xp * Zsq - X) % q
            R = (yp * Z % q * Zsq - Y) % q
            if k == last:
                break  # r is odd: the walk ends on this chord
            H2 = H * H % q
            H3 = H * H2 % q
            X2 = (R * R - H3 - 2 * X * H2) % q
            Y2 = (R * (X * H2 - X2) - Y * H3) % q
            Z = Z * H % q  # 0 once T = +-P or Z = 0
            # chord at phi(Q): R*(xq + xp) - Z*yp + i*Z*yq
            yield R * xp - Z * yp, R, Z, False
            X, Y = X2, Y2
    # an undisturbed walk (Z != 0) ends on the vertical chord at T = -P,
    # whose line is F_q-rational and dropped
    if Z == 0 or H != 0 or R == 0:
        raise ValueError("walked point is not of order r")


def tate_miller(P, Q, params):
    """Miller loop for the reduced Tate pairing, walking P.

    P and Q are affine points of E(F_q); the walk's lines are evaluated
    at phi(Q) = (-xq, i*yq).  Result is the unreduced f in F_q2; feed it
    to tate_final_exp.  Raises ValueError unless rP = O, shown by the
    walk itself; Q may be any point with y != 0.
    """
    q = params.q
    xq, yq = Q
    fa, fb = 1, 0
    for a, b, s, doubling in _walk(P, params):
        if doubling:  # f <- f^2
            fa, fb = (fa + fb) * (fa - fb) % q, 2 * fa * fb % q
        # f <- f * l
        lr = (a + b * xq) % q
        li = s * yq % q
        m1 = fa * lr
        m2 = fb * li
        fa, fb = (m1 - m2) % q, ((fa + fb) * (lr + li) - m1 - m2) % q
    return fa, fb


def miller_lines(P, params):
    """Line table of a fixed point P for fixed_miller.

    Keeps each line of P's walk as (a, b, doubling), divided by its s so
    that its value at phi(Q) is a + b*xq + i*yq, with one batch
    inversion for all the divisors.  Raises ValueError unless rP = O, by
    the walk's end check, and then builds no table.
    """
    q = params.q
    raw = list(_walk(P, params))
    inverses = _batch_inv([s for _, _, s, _ in raw], q)
    return [(a * s_inv % q, b * s_inv % q, doubling)
            for (a, b, _, doubling), s_inv in zip(raw, inverses)]


def fixed_miller(pairs, params):
    """Unreduced product of e(P, phi(Q)) over (miller_lines of P, Q) pairs.

    The pairs share one loop and its squarings; each line costs one
    evaluation at its Q and one F_q2 product, with no point arithmetic.
    tate_final_exp reduces the result.
    """
    q = params.q
    terms = [(lines, xq, yq) for lines, (xq, yq) in pairs]
    fa, fb = 1, 0
    for k, (_, _, doubling) in enumerate(pairs[0][0]):
        if doubling:
            fa, fb = (fa + fb) * (fa - fb) % q, 2 * fa * fb % q
        for lines, xq, yq in terms:
            a, b, _ = lines[k]
            lr = (a + b * xq) % q
            m1 = fa * lr
            m2 = fb * yq
            fa, fb = (m1 - m2) % q, ((fa + fb) * (lr + yq) - m1 - m2) % q
    return fa, fb


def tate_final_exp(f, params):
    """f^((q^2 - 1)/r) computed as g^c, g = conj(f)/f and c = (q + 1)/r.

    g has norm 1, so g^-1 = conj(g) and V_k = g^k + g^-k = 2*Re(g^k)
    is a Lucas sequence over F_q: V_2k = V_k^2 - 2 and V_2k+1 =
    V_k*V_k+1 - V_1.  For a long c (c >= 2^16, SYMMETRIC_512) a ladder
    over (V_k, V_k+1) takes one F_q square and one product per bit of c,
    against an F_q2 square and product, and Im(g^c) comes back from
    Re(g^c+1) = a*Re(g^c) - b*Im(g^c) with one inversion (Scott &
    Barreto, CRYPTO 2004).  A short c, or g with b = 0, takes
    square-and-multiply.
    """
    q = params.q
    a, b = f
    n = pow(a * a + b * b, -1, q)
    conj = (a, -b % q)
    finv = (a * n % q, -b * n % q)
    g = fq2_mul(conj, finv, q)
    c = params.c
    a, b = g
    if c >> 16 == 0 or b == 0:
        return fq2_exp(g, c, q)
    v1 = 2 * a % q
    v, v_next = v1, (v1 * v1 - 2) % q  # V_1, V_2
    for bit in bin(c)[3:]:
        if bit == "1":
            v, v_next = (v * v_next - v1) % q, (v_next * v_next - 2) % q
        else:
            v, v_next = (v * v - 2) % q, (v * v_next - v1) % q
    # g^c = x + y*i with 2x = V_c and 2*(a*x - b*y) = V_c+1
    return v * ((q + 1) // 2) % q, (a * v - v_next) * pow(2 * b, -1, q) % q
