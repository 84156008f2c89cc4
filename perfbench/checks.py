"""Output checks, done in the benchmark's own Fraction arithmetic.

Each ``check_*`` function takes the exit code and stdout text of one command
(and, where needed, what the generator expects of it) and returns a list of
failure strings, empty when the output is right.  Nothing here imports
``cuspchain``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd


def _parse_scalar(x, d):
    if isinstance(x, dict):
        if x.get("D") != d:
            raise ValueError(f"field element over D={x.get('D')} in a space over D={d}")
        return (Fraction(x["a"]), Fraction(x["b"]))
    return Fraction(x)


def _parse_rows(rows, d=None):
    return [[_parse_scalar(x, d) for x in r] for r in rows]


def _load(text):
    try:
        return json.loads(text)
    except ValueError:
        return None


def count_links(cert, depth=0, acc=None):
    """Link-type counts and the deepest boundary descent of a certificate."""
    acc = acc if acc is not None else {"depth": 0}
    acc["depth"] = max(acc["depth"], depth)
    for link in cert.get("links", []):
        acc[link["type"]] = acc.get(link["type"], 0) + 1
        if link["type"] == "boundary_descent":
            count_links(link["sub"], depth + 1, acc)
    return acc


def check_chain(expect, code, out):
    """``chain`` exits 0 and the certificate's endpoints are the inputs."""
    if code != 0:
        return [f"chain exit {code}"]
    cert = _load(out)
    if not isinstance(cert, dict) or not cert.get("nodes"):
        return ["chain output is not a certificate"]
    d = expect["d"]
    try:
        first = _parse_rows(cert["nodes"][0]["basis"], d)
        last = _parse_rows(cert["nodes"][-1]["basis"], d)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"certificate nodes unreadable: {exc}"]
    fails = []
    if first != expect["node_first"]:
        fails.append("first node is not the canonical first input")
    if last != expect["node_last"]:
        fails.append("last node is not the canonical second input")
    return fails


def check_verify(code, out):
    """``verify`` exits 0 and reports ok with no failures."""
    report = _load(out)
    fails = [] if code == 0 else [f"verify exit {code}"]
    if not isinstance(report, dict) or report.get("ok") is not True or report.get("failures"):
        fails.append("verify does not report ok")
    return fails


def check_analyze(expect, code, out):
    """Signature from the diagonal; an isotropic vector iff one was planted."""
    if code != 0:
        return [f"analyze exit {code}"]
    res = _load(out)
    if not isinstance(res, dict):
        return ["analyze output is not an object"]
    diag = expect["diag"]
    fails = []
    plus = sum(1 for a in diag if a > 0)
    if res.get("kind") != "symmetric" or res.get("dim") != len(diag):
        fails.append("wrong kind or dimension")
    if res.get("signature") != [plus, len(diag) - plus, 0]:
        fails.append(f"signature {res.get('signature')} is wrong")
    vec = res.get("isotropic")
    if expect["planted"] is None:
        if vec is not None:
            fails.append("anisotropic form reported an isotropic vector")
        return fails
    if vec is None:
        return fails + ["planted isotropic vector not found within the cap"]
    try:
        v = [Fraction(x) for x in vec]
    except (TypeError, ValueError):
        return fails + ["isotropic vector unreadable"]
    if len(v) != len(diag) or any(x.denominator != 1 for x in v):
        return fails + ["isotropic vector is not an integer vector of the right length"]
    ints = [int(x) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g != 1:
        fails.append("isotropic vector is not primitive")
    if max(abs(x) for x in ints) > expect["max_height"]:
        fails.append("isotropic vector lies above the cap")
    if sum(a * x * x for a, x in zip(diag, ints)) != 0:
        fails.append("reported vector is not isotropic")
    return fails


def _inverse(m):
    n = len(m)
    a = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
         for i, r in enumerate(m)]
    for c in range(n):
        pr = next(i for i in range(c, n) if a[i][c] != 0)
        a[c], a[pr] = a[pr], a[c]
        pv = a[c][c]
        a[c] = [x / pv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [r[n:] for r in a]


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(r, col)) for col in zip(*b)] for r in a]


def _integral(m, k=1):
    return all((k * x).denominator == 1 for r in m for x in r)


def _prime_factors(n):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + ([n] if n > 1 else [])


def _minimal_multiplier_ok(change, k):
    """k * change is integral and no proper divisor k/p makes it so."""
    return _integral(change, k) and not any(_integral(change, k // p) for p in _prime_factors(k))


def check_level(expect, code, out):
    """N1 L' <= N L, N2 L <= L', both minimal, and N' = N1 N2."""
    if code != 0:
        return [f"level exit {code}"]
    res = _load(out)
    if not isinstance(res, dict):
        return ["level output is not an object"]
    n1, n2, nprime = res.get("N1"), res.get("N2"), res.get("Nprime")
    if not all(isinstance(x, int) and x >= 1 for x in (n1, n2, nprime)):
        return ["level multipliers are not positive integers"]
    fails = []
    if nprime != n1 * n2:
        fails.append("N' != N1 * N2")
    lat, lat_prime, level = expect["lattice"], expect["lattice_prime"], expect["N"]
    scaled_inv = [[x / level for x in r] for r in _inverse(lat)]
    if not _minimal_multiplier_ok(_matmul(lat_prime, scaled_inv), n1):
        fails.append("N1 is not the minimal multiplier with N1 L' in N L")
    if not _minimal_multiplier_ok(_matmul(lat, _inverse(lat_prime)), n2):
        fails.append("N2 is not the minimal multiplier with N2 L in L'")
    return fails


def _vec(m):
    return [m[0][0], m[0][1], m[1][0], m[1][1]]


def check_order(expect, code, out):
    """The order contains I2 and is closed under multiplication."""
    if code != 0:
        return [f"order exit {code}"]
    res = _load(out)
    try:
        mats = [_parse_rows(m) for m in res["order"]]
    except (KeyError, TypeError, ValueError):
        return ["order output unreadable"]
    if len(mats) != 4 or any(len(m) != 2 or any(len(r) != 2 for r in m) for m in mats):
        return ["order basis is not four 2x2 matrices"]
    basis = [_vec(m) for m in mats]
    try:
        inv = _inverse(basis)
    except StopIteration:
        return ["order basis is singular"]

    def contains(m):
        return _integral(_matmul([_vec(m)], inv))

    fails = []
    if not contains([[1, 0], [0, 1]]):
        fails.append("order does not contain I2")
    if not all(contains(_matmul(x, y)) for x in mats for y in mats):
        fails.append("order is not closed under multiplication")
    return fails
