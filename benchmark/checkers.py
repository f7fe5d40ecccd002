"""Independent checks for the benchmark's outputs.

Nothing here imports amalgsep. Membership is decided from the normal form
theorem for amalgamated products (Lyndon-Schupp, ch. IV.2): a word whose
letters alternate between the factors and avoid the amalgamated subgroup
is not the identity, and for a cyclically reduced ``y`` of length
``n >= 2`` the power ``y^k`` has length ``|k| n``. Certificates are
re-verified letter by letter in a target table built by ``groups``, and
subgroup lattices are enumerated by brute force.

Every check raises ``CheckFailed`` on a wrong output and returns None
otherwise.
"""

from __future__ import annotations

import ast
from itertools import product as cartesian

from groups import Table, element_order, generated, inverses, table_by_name


class CheckFailed(AssertionError):
    pass


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _other(side: str) -> str:
    return "B" if side == "A" else "A"


# ---------------------------------------------------------------------------
# Amalgam word problems


class _AmalgamWords:
    """Shared reduction for amalgams ``A *_{H=K} B``.

    Subclasses say how letters multiply, when a letter lies in the
    amalgamated subgroup, and how it crosses to the other side.
    """

    def mul(self, side, x, y):
        raise NotImplementedError

    def inv(self, side, x):
        raise NotImplementedError

    def is_one(self, side, x) -> bool:
        raise NotImplementedError

    def cross(self, side, x):
        """The same group element written on the other side, or None when
        ``x`` lies outside the amalgamated subgroup."""
        raise NotImplementedError

    def reduce(self, letters) -> list:
        """Reduced word: alternating sides, no letter inside the
        amalgamated subgroup (except a single letter, written on side A)."""
        w = [(s, x) for s, x in letters if not self.is_one(s, x)]
        while True:
            out: list = []
            for s, x in w:
                if out and out[-1][0] == s:
                    y = self.mul(s, out.pop()[1], x)
                    if not self.is_one(s, y):
                        out.append((s, y))
                else:
                    out.append((s, x))
            w = out
            if len(w) < 2:
                break
            for i, (s, x) in enumerate(w):
                y = self.cross(s, x)
                if y is not None:
                    w[i] = (_other(s), y)
                    break
            else:
                break
        if len(w) == 1 and w[0][0] == "B":
            y = self.cross("B", w[0][1])
            if y is not None:
                w = [("A", y)]
        return w

    def inverse(self, letters) -> list:
        return [(s, self.inv(s, x)) for s, x in reversed(letters)]

    def power(self, letters, k: int) -> list:
        base = list(letters) if k >= 0 else self.inverse(letters)
        return base * abs(k)

    def equal(self, x, y) -> bool:
        return not self.reduce(self.inverse(x) + list(y))

    def cyclic_reduction(self, g) -> tuple[list, list]:
        """(y, c) with g = c y c^-1 and y cyclically reduced."""
        y, c = self.reduce(g), []
        while len(y) >= 2 and y[0][0] == y[-1][0]:
            head = y[0]
            y = self.reduce([(head[0], self.inv(*head))] + y + [head])
            c.append(head)
        return y, c

    def short_exponent(self, y_letter, h_word) -> int | None:
        """Exponent k with h = y^k, for y a single letter (a factor element)."""
        raise NotImplementedError

    def member_exponent(self, h, g) -> int | None:
        """Some k with g^k = h, or None when h lies outside <g>."""
        y, c = self.cyclic_reduction(g)
        require(bool(y), "g must be nontrivial")
        ht = self.reduce(self.inverse(c) + list(h) + c)
        n, m = len(y), len(ht)
        if n >= 2:
            if m % n:
                return None
            k = m // n
            if k == 0:
                return 0
            for e in (k, -k):
                if self.equal(self.power(y, e), ht):
                    return e
            return None
        k = self.short_exponent(y[0], ht)
        if k is not None:
            require(self.equal(self.power(y, k), ht), "short exponent mismatch")
        return k


class FiniteAmalgam(_AmalgamWords):
    """Amalgam of two table groups; ``phi`` maps H (in A) onto K (in B)."""

    def __init__(self, ta: Table, tb: Table, phi: dict[int, int]):
        self.t = {"A": ta, "B": tb}
        self.invs = {"A": inverses(ta), "B": inverses(tb)}
        self.phi = dict(phi)
        self.conv = {"A": dict(phi), "B": {v: k for k, v in phi.items()}}
        for h1 in phi:
            for h2 in phi:
                require(phi[ta[h1][h2]] == tb[phi[h1]][phi[h2]], "phi is no homomorphism")

    def mul(self, side, x, y):
        return self.t[side][x][y]

    def inv(self, side, x):
        return self.invs[side][x]

    def is_one(self, side, x) -> bool:
        return x == 0

    def cross(self, side, x):
        return self.conv[side].get(x)

    def short_exponent(self, y_letter, h_word) -> int | None:
        side, x = y_letter
        for k in range(element_order(self.t[side], x)):
            if self.equal([y_letter] * k, h_word):
                return k
        return None


# Free words use amalgsep's encoding: tuples of (generator index, +1/-1).


def free_reduce(word) -> tuple:
    out: list = []
    for letter in word:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(tuple(letter))
    return tuple(out)


def free_inv(word) -> tuple:
    return tuple((g, -s) for g, s in reversed(word))


def free_pow(word, k: int) -> tuple:
    base = word if k >= 0 else free_inv(word)
    return free_reduce(tuple(base) * abs(k))


def parse_free_word(text: str, names) -> tuple:
    """Words such as ``a b^-1 a^2`` over the given generator names."""
    letters = []
    for token in text.split():
        name, _, exp = token.partition("^")
        k = int(exp) if exp else 1
        letters += [(list(names).index(name), 1 if k > 0 else -1)] * abs(k)
    return free_reduce(letters)


def primitive_root(word) -> tuple[tuple, int]:
    """(r, m) with word = r^m and r not a proper power (word nontrivial)."""
    c, u = [], tuple(word)
    while len(u) >= 2 and u[0] == (u[-1][0], -u[-1][1]):
        c.append(u[0])
        u = u[1:-1]
    n = len(u)
    for d in range(1, n + 1):
        if n % d == 0 and u[:d] * (n // d) == u:
            return free_reduce(tuple(c) + u[:d] + free_inv(tuple(c))), n // d
    raise AssertionError("unreachable")


def free_cyclic_exponent(x, w) -> int | None:
    """t with x = w^t in a free group, or None."""
    if not x:
        return 0
    rw, mw = primitive_root(w)
    rx, mx = primitive_root(x)
    if rx == rw:
        s = mx
    elif rx == free_inv(rw):
        s = -mx
    else:
        return None
    return s // mw if s % mw == 0 else None


class FreeCyclicAmalgam(_AmalgamWords):
    """Free groups F(X), F(Y) amalgamated along <u> = <v>."""

    def __init__(self, u, v):
        self.words = {"A": free_reduce(u), "B": free_reduce(v)}
        require(bool(self.words["A"]) and bool(self.words["B"]), "empty amalgam word")

    def mul(self, side, x, y):
        return free_reduce(tuple(x) + tuple(y))

    def inv(self, side, x):
        return free_inv(x)

    def is_one(self, side, x) -> bool:
        return not free_reduce(x)

    def cross(self, side, x):
        t = free_cyclic_exponent(x, self.words[side])
        return None if t is None else free_pow(self.words[_other(side)], t)

    def short_exponent(self, y_letter, h_word) -> int | None:
        side, x = y_letter
        if not h_word:
            return 0
        if len(h_word) != 1:
            return None
        hs, hx = h_word[0]
        if hs != side:
            hx = self.cross(hs, hx)
            if hx is None:
                return None
        return free_cyclic_exponent(hx, x)


# ---------------------------------------------------------------------------
# Separation outcomes


def check_membership_outcome(amalgam: _AmalgamWords, h, g, outcome: str,
                             exponent: int | None) -> bool:
    """The verdict agrees with exact membership; returns whether h is a member."""
    k = amalgam.member_exponent(h, g)
    if outcome == "member":
        require(k is not None, "member verdict for a non-member")
        require(exponent is not None and amalgam.equal(amalgam.power(g, exponent), h),
                f"wrong exponent {exponent}")
        return True
    require(k is None, f"outcome {outcome} for a member (h = g^{k})")
    return False


def _separates(T: Table, th: int, tg: int) -> bool:
    return th not in generated(T, [tg])


def _is_hom(src: Table, T: Table, mapping) -> bool:
    n = len(src)
    return (len(mapping) == n and mapping[0] == 0
            and all(mapping[src[a][b]] == T[mapping[a]][mapping[b]]
                    for a in range(n) for b in range(n)))


def coset_projection(t: Table, normal: frozenset[int]) -> list[int]:
    """x -> index of its coset, cosets ordered by their least member."""
    rep = [min(t[nm][x] for nm in normal) for x in range(len(t))]
    index = {r: i for i, r in enumerate(sorted(set(rep)))}
    return [index[r] for r in rep]


def check_finite_certificate(amalgam: FiniteAmalgam, T: Table, map_a, map_b, h, g,
                             pair: tuple[frozenset, frozenset] | None = None) -> None:
    """Re-verify a certificate given on the factors, or on the quotient
    factors A/R and B/S when the compatible pair (R, S) is given."""
    ta, tb = amalgam.t["A"], amalgam.t["B"]
    if pair is not None:
        pa = coset_projection(ta, pair[0])
        pb = coset_projection(tb, pair[1])
        map_a = [map_a[pa[x]] for x in range(len(ta))]
        map_b = [map_b[pb[x]] for x in range(len(tb))]
    require(_is_hom(ta, T, map_a), "factor map on A is no homomorphism")
    require(_is_hom(tb, T, map_b), "factor map on B is no homomorphism")
    require(all(map_a[x] == map_b[y] for x, y in amalgam.phi.items()),
            "factor maps disagree on the amalgamated subgroup")
    image = {"A": map_a, "B": map_b}

    def ev(word):
        acc = 0
        for s, x in word:
            acc = T[acc][image[s][x]]
        return acc

    require(_separates(T, ev(h), ev(g)), "image of h lies in <image of g>")


def check_free_certificate(amalgam: FreeCyclicAmalgam, T: Table, images_a, images_b,
                           h, g) -> None:
    """Generator images into T define a homomorphism of the free amalgam
    (the amalgamated words agree) that keeps h outside <g>."""
    inv = inverses(T)
    image = {"A": images_a, "B": images_b}

    def ev(side, word):
        acc = 0
        for gen, sign in word:
            x = image[side][gen]
            acc = T[acc][x if sign > 0 else inv[x]]
        return acc

    require(ev("A", amalgam.words["A"]) == ev("B", amalgam.words["B"]),
            "generator images disagree on the amalgamated word")

    def ev_letters(word):
        acc = 0
        for side, w in word:
            acc = T[acc][ev(side, w)]
        return acc

    require(_separates(T, ev_letters(h), ev_letters(g)), "image of h lies in <image of g>")


def image_embedding(T: Table, images) -> dict[int, int]:
    """Target element -> index in the image subgroup re-indexed by sorted members."""
    members = sorted(generated(T, list(images) + [inverses(T)[x] for x in images]))
    return {x: i for i, x in enumerate(members)}


def check_root(amalgam: _AmalgamWords, root, q: int, g, p: int) -> None:
    require(q != p and q > 1 and all(q % d for d in range(2, q)), f"bad root prime {q}")
    require(amalgam.equal(amalgam.power(root, q), g), "root^q differs from g")


def is_prime_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def check_witness_report(amalgam: _AmalgamWords, h, g, doc: dict, p: int | None,
                         bounds, letters_of=None) -> None:
    """Check a witness report (``WitnessReport.to_json()`` or the CLI's
    report) for the query h, g in p-mode (``p``) or plain mode (None).

    A separating certificate is re-verified: for finite factors on the
    factors or, after a factor pair, on the quotients named in ``pair``;
    for free factors through the pair's generator images (``pair`` reads
    ``<catalog name>:<images on A>|<images on B>``). ``letters_of`` parses
    the root element of a ``not_isolated`` obstruction; ``bounds`` lists
    the bounds a ``bound_exhausted`` report may name.
    """
    outcome = doc["outcome"]
    if check_membership_outcome(amalgam, h, g, outcome, doc.get("exponent")):
        return
    if outcome == "separated":
        cert = doc["certificate"]
        T = table_by_name(cert["target"])
        require(cert["target_order"] == len(T), "target order mismatch")
        require(p is None or is_prime_power(len(T), p), "p-mode target is no p-group")
        map_a, map_b, pair = cert["factor_map_a"], cert["factor_map_b"], doc.get("pair", "")
        if isinstance(amalgam, FreeCyclicAmalgam):
            name, images = pair.split(":", 1)
            ua, vb = (ast.literal_eval(s) for s in images.split("|"))
            P = table_by_name(name)
            emb_a, emb_b = image_embedding(P, ua), image_embedding(P, vb)
            check_free_certificate(amalgam, T, [map_a[emb_a[x]] for x in ua],
                                   [map_b[emb_b[x]] for x in vb], h, g)
        else:
            quotient = None
            if "factor pair" in pair:
                (_, rs), (_, ss) = ast.literal_eval(pair.split("factor pair ")[1])
                quotient = (frozenset(rs), frozenset(ss))
            check_finite_certificate(amalgam, T, map_a, map_b, h, g, quotient)
        return
    require(outcome == "obstructed", f"unknown outcome {outcome}")
    reason = doc["reason"]
    if reason == "not_isolated":
        require(p is not None, "root obstruction outside p-mode")
        check_root(amalgam, letters_of(doc["root"]["element"]), doc["root"]["prime"], g, p)
    elif reason == "bound_exhausted":
        require(doc["bound"] in bounds, f"bound {doc['bound']} not among {bounds}")
    else:
        require(reason == "lambda_family", f"unknown reason {reason}")


# ---------------------------------------------------------------------------
# Subgroup lattices and compatible pairs, by brute force


def all_subgroups(t: Table) -> list[frozenset[int]]:
    found = {frozenset({0})}
    frontier = [frozenset({0})]
    n = len(t)
    while frontier:
        S = frontier.pop()
        for x in range(n):
            if x not in S:
                T = generated(t, list(S) + [x])
                if T not in found:
                    found.add(T)
                    frontier.append(T)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def is_normal(t: Table, S: frozenset[int]) -> bool:
    inv = inverses(t)
    return all(t[t[inv[g]][x]][g] in S for g in range(len(t)) for x in S)


def normal_subgroups(t: Table) -> list[frozenset[int]]:
    return [S for S in all_subgroups(t) if is_normal(t, S)]


def _families(t: Table, R: frozenset, H: frozenset, p: int, normals) -> set[frozenset]:
    """All families {link n H} over chains R < ... < G of normal links
    with index-p steps."""
    top = frozenset(range(len(t)))
    fams: set[frozenset] = set()

    def up(cur, fam):
        if cur == top:
            fams.add(fam)
            return
        for N in normals:
            if len(N) == len(cur) * p and cur < N:
                up(N, fam | {N & H})

    up(R, frozenset({R & H}))
    return fams


class PairLattice:
    """Brute-force compatible pairs of a finite amalgam."""

    def __init__(self, amalgam: FiniteAmalgam):
        self.am = amalgam
        ta, tb = amalgam.t["A"], amalgam.t["B"]
        self.H = frozenset(amalgam.phi)
        self.K = frozenset(amalgam.phi.values())
        self.normals = {"A": normal_subgroups(ta), "B": normal_subgroups(tb)}

    def phi_set(self, s) -> frozenset:
        return frozenset(self.am.phi[x] for x in s)

    def plain_pairs(self) -> list[tuple[frozenset, frozenset]]:
        return [(R, S) for R, S in cartesian(self.normals["A"], self.normals["B"])
                if self.phi_set(R & self.H) == S & self.K]

    def p_compatible(self, R, S, p: int) -> bool:
        fa = _families(self.am.t["A"], R, self.H, p, self.normals["A"])
        fb = _families(self.am.t["B"], S, self.K, p, self.normals["B"])
        return any(frozenset(self.phi_set(s) for s in fam) in fb for fam in fa)

    def check_chain(self, side: str, chain, start: frozenset, p: int) -> None:
        t = self.am.t[side]
        links = [frozenset(link) for link in chain]
        require(bool(links) and links[0] == start, "chain does not start at the pair")
        require(links[-1] == frozenset(range(len(t))), "chain does not end at the factor")
        for a, b in zip(links, links[1:]):
            require(a < b and len(b) == len(a) * p, "chain step is not of index p")
        require(all(link in self.normals[side] for link in links), "chain link not normal")

    def check_certificate(self, R, S, chain_a, chain_b, matching, p: int) -> None:
        self.check_chain("A", chain_a, R, p)
        self.check_chain("B", chain_b, S, p)
        fam_a = {frozenset(link) & self.H for link in chain_a}
        fam_b = {frozenset(link) & self.K for link in chain_b}
        left = {frozenset(a) for a, _ in matching}
        require(left == fam_a, "matching does not list the A-side family")
        require(all(self.phi_set(a) == frozenset(b) for a, b in matching),
                "matching is not the image under phi")
        require({frozenset(b) for _, b in matching} == fam_b,
                "H/K families do not correspond under phi")

    def check_family_verdict(self, side: str, g: int, pairs, verdict: str,
                             witnesses: dict | None, certifying) -> None:
        t = self.am.t[side]
        cyc = generated(t, [g])
        family = {R if side == "A" else S for R, S in pairs}

        def blocked(x, N):
            return x in {t[c][n] for c in cyc for n in N}

        unseparated = [x for x in range(len(t)) if x not in cyc
                       and all(blocked(x, N) for N in family)]
        if verdict == "not_separated":
            require(certifying in unseparated, "certifying element is separated")
            return
        require(verdict == "separable" and not unseparated,
                f"verdict {verdict} but {len(unseparated)} element(s) unseparated")
        require(set(witnesses) == set(range(len(t))) - cyc, "witnesses do not cover G - <g>")
        for x, N in witnesses.items():
            require(frozenset(N) in family and not blocked(x, frozenset(N)),
                    f"witness for {x} does not separate it")


# ---------------------------------------------------------------------------
# Free compatible classes


def kernels_equal(ta: Table, imgs_a, tb: Table, imgs_b) -> bool:
    """The diagonal subgroup generated by the paired images meets both
    axes trivially exactly when the two induced maps have equal kernels."""
    ia, ib = inverses(ta), inverses(tb)
    gens = list(zip(imgs_a, imgs_b)) + [(ia[a], ib[b]) for a, b in zip(imgs_a, imgs_b)]
    seen = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        a, b = frontier.pop()
        for x, y in gens:
            nxt = (ta[a][x], tb[b][y])
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return all((a == 0) == (b == 0) for a, b in seen)


def evaluate(T: Table, images, word) -> int:
    inv = inverses(T)
    acc = 0
    for gen, sign in word:
        acc = T[acc][images[gen] if sign > 0 else inv[images[gen]]]
    return acc


def check_free_classes(classes, h_words, k_words, table_of) -> None:
    """Each class is a compatible pair, and no two classes share a kernel.

    ``classes`` holds (name_a, images_a, name_b, images_b); ``table_of``
    maps a catalog name to its table.
    """
    restricted = []
    for name_a, ia, name_b, ib in classes:
        ta, tb = table_of(name_a), table_of(name_b)
        ra = [evaluate(ta, ia, w) for w in h_words]
        rb = [evaluate(tb, ib, w) for w in k_words]
        require(kernels_equal(ta, ra, tb, rb), f"class {name_a}|{name_b} is not compatible")
        restricted.append((ta, ra))
    for i, (ta, ra) in enumerate(restricted):
        for tb, rb in restricted[:i]:
            require(not kernels_equal(ta, ra, tb, rb), "two classes share a kernel")


def check_thm21(classes, bound: int, table_of) -> None:
    """The doubling amalgam <a, b^-1 a b> = <c, d^-1 c^2 d>: every
    compatible image of a has odd order and lies in the subgroup that the
    image of a^2 generates; an order-7 image appears once the bound is 21."""
    require(bool(classes), "no compatible classes")
    orders = []
    for name_a, ia, _, _ in classes:
        T = table_of(name_a)
        a = ia[0]
        o = element_order(T, a)
        orders.append(o)
        require(o % 2 == 1, f"a-image of even order {o} in {name_a}")
        require(a in generated(T, [T[a][a]]), f"a-image outside <a^2 image> in {name_a}")
    if bound >= 21:
        require(7 in orders, "no order-7 witness")
