"""Tiny exact number-theory helpers.

Everything here runs at trial-division scale; group orders in this
package stay small enough that nothing faster is warranted.
"""


def is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_factors(n):
    """Sorted distinct prime divisors of ``n >= 1``."""
    if n < 1:
        raise ValueError("prime_factors requires a positive integer")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def p_part(n, p):
    """Largest power of ``p`` dividing ``n``."""
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def prime_to_p_part(n, p):
    """The largest divisor of ``n`` coprime to ``p``."""
    return n // p_part(n, p)


def is_prime_power(n, p):
    """True when ``n`` is a power of the prime ``p`` (including ``n == 1``)."""
    return p_part(n, p) == n


def smallest_prime_not_dividing(n):
    p = 2
    while n % p == 0:
        p += 1
        while not is_prime(p):
            p += 1
    return p


def element_of_order(order, l):
    """Least residue in (Z/l)* of multiplicative order exactly ``order``.

    a has that order when a^order = 1 and a^(order/q) != 1 for each
    prime q dividing it.  Returns None when (Z/l)* has no element of
    that order, which for prime ``l`` happens exactly when ``order``
    does not divide ``l - 1``.
    """
    primes = prime_factors(order)
    for a in range(1, l):
        if pow(a, order, l) == 1 and all(pow(a, order // q, l) != 1 for q in primes):
            return a
    return None


def xgcd(a, b):
    """Extended gcd: returns (g, x, y) with g = a*x + b*y and g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t
