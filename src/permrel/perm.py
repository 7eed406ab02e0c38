"""Permutations on {0, ..., degree-1} and concrete permutation groups.

A Group stores its elements as one array of image rows, sorted, plus
lazily built multiplication and inverse tables; those tables are what
every other module indexes into.  Element 0 is always the identity,
because the identity is the lexicographically smallest permutation of
its degree.

Every array of element indices of a group, its tables, subgroups and
keys among them, has the group's one ``index_dtype``: uint16 from 256
to 65,536 elements, int32 otherwise.  Two bytes halve the n x n ``mult``
table; below 256 elements the int32 table is at most 256 KB, less than
the memory numpy's uint16 loops take when first used.  Under 65,536,
little-endian uint16 keys sort byte by byte as the int32 ones did (the
int32 padding bytes are zero in the same places), so a subgroup's key
order does not depend on the dtype.
"""

import math
import re

import numpy as np

from . import _kernels as kernels
from .errors import CapExceeded, InputError, InternalCheckError

DEFAULT_ELEMENT_CAP = 10000


class Permutation:
    """An immutable permutation given by its tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(int(v) for v in images)
        n = len(images)
        seen = [False] * n
        for v in images:
            if not 0 <= v < n or seen[v]:
                raise InputError("image list %r is not a permutation" % (images,))
            seen[v] = True
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, point):
        return self.images[point]

    def __mul__(self, other):
        return compose(self, other)

    def inverse(self):
        out = [0] * len(self.images)
        for i, v in enumerate(self.images):
            out[v] = i
        return Permutation(out)

    def is_identity(self):
        return all(i == v for i, v in enumerate(self.images))

    def order(self):
        return math.lcm(*map(len, self.cycles()))

    def cycles(self):
        """Nontrivial cycles, each rotated to start at its least point."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = []
            p = start
            while not seen[p]:
                seen[p] = True
                cyc.append(p)
                p = self.images[p]
            out.append(tuple(cyc))
        return out

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images == other.images

    def __lt__(self, other):
        return self.images < other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return "Permutation(%r)" % (list(self.images),)

    def __str__(self):
        return cycle_string(self)


def identity(degree):
    return Permutation(range(degree))


def compose(a, b):
    """The permutation mapping i to a(b(i))."""
    if a.degree != b.degree:
        raise InputError("cannot compose permutations of different degrees")
    return Permutation(tuple(a.images[v] for v in b.images))


def from_cycles(degree, cycles):
    """Permutation of the given degree from disjoint cycles.

    A cycle (a, b, c) maps a to b, b to c, and c back to a.
    """
    images = list(range(degree))
    touched = set()
    for cyc in cycles:
        cyc = [int(v) for v in cyc]
        for v in cyc:
            if not 0 <= v < degree:
                raise InputError("cycle point %d outside degree %d" % (v, degree))
            if v in touched:
                raise InputError("cycles are not disjoint at point %d" % v)
            touched.add(v)
        for i, v in enumerate(cyc):
            images[v] = cyc[(i + 1) % len(cyc)]
    return Permutation(images)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(degree, text):
    """Parse cycle notation like ``(0 1 2)(3 4)`` into a Permutation.

    Points may be separated by spaces or commas.  The empty string and
    ``()`` both denote the identity.
    """
    body = text.strip()
    cycles = []
    consumed = _CYCLE_RE.sub("", body)
    if consumed.strip():
        raise InputError("unparsable cycle notation: %r" % text)
    for match in _CYCLE_RE.finditer(body):
        inner = match.group(1).replace(",", " ").split()
        if not inner:
            continue
        try:
            cycles.append([int(v) for v in inner])
        except ValueError:
            raise InputError("non-integer point in cycle notation: %r" % text)
    return from_cycles(degree, cycles)


def cycle_string(p):
    cycles = p.cycles()
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(v) for v in cyc) + ")" for cyc in cycles)


def generate(degree, generators, element_cap=DEFAULT_ELEMENT_CAP):
    """Close a generator list into a Group, or raise CapExceeded.

    Elements are enumerated by breadth first closure, one level at a
    time as an int array, and then sorted lexicographically by image
    tuple.
    """
    if degree < 1:
        raise InputError("group degree must be at least 1, not %d" % degree)
    gens = list(generators)
    for g in gens:
        if g.degree != degree:
            raise InputError(
                "generator degree %d does not match group degree %d"
                % (g.degree, degree)
            )
    gen_images = np.array([g.images for g in gens], dtype=np.int32).reshape(len(gens), degree)
    key = np.dtype((np.void, 4 * degree))
    frontier = np.arange(degree, dtype=np.int32)[None, :]
    seen = set(frontier.view(key).ravel().tolist())
    levels = [frontier]
    while frontier.size:
        # row (s, x) is generator s composed with frontier element x
        products = np.ascontiguousarray(gen_images[:, frontier]).reshape(-1, degree)
        fresh = []
        for i, row in enumerate(products.view(key).ravel().tolist()):
            if row not in seen:
                seen.add(row)
                fresh.append(i)
        if fresh and len(seen) > element_cap:
            raise CapExceeded("group closure exceeded the element cap of %d" % element_cap)
        frontier = products[fresh]
        levels.append(frontier)
    del seen  # from here on, at most two arrays of the group's size live at once
    rows = np.concatenate(levels, dtype=">i4")
    del levels
    # sorted as Group.images must be: big-endian bytes sort as the images
    rows = rows[np.argsort(rows.view(key).ravel())]
    return Group(degree, gens, rows)


class Group:
    """A finite permutation group, its elements one sorted image array.

    ``images`` is an order x degree big-endian int32 array of
    permutations whose rows strictly increase, row 0 the identity; the
    constructor checks all three.
    ``mult`` proves that every row is a product of the generators, each
    product found by an exact lookup.  ``index_dtype`` is the dtype of
    every array of element indices (see the module docstring).
    Construct through ``generate`` (or the preset builders).
    """

    __slots__ = ("degree", "generators", "images", "index_dtype", "_mult", "_inv", "_memo")

    def __init__(self, degree, generators, images):
        images = np.ascontiguousarray(images, dtype=">i4")
        if images.ndim != 2 or images.shape[1] != degree or not images.size:
            raise InputError("group images must be a nonempty order x %d array" % degree)
        # a row is a permutation exactly when, scattered into a mask, its
        # entries hit every point; read unsigned, a negative entry cannot
        # wrap, and like one past the degree it fails the bounds check and
        # leaves its row short (blocks of rows keep the masks small)
        block = max(1, 2**20 // degree)
        for start in range(0, len(images), block):
            rows = images[start:start + block]
            hit = np.zeros(rows.shape, dtype=bool)
            try:
                hit[np.arange(len(rows))[:, None], rows.view(">u4")] = True
            except IndexError:
                pass
            if np.count_nonzero(hit) < hit.size:
                raise InputError("a group image row is not a permutation of 0..%d" % (degree - 1))
        keys = images.view(np.dtype((np.void, 4 * degree))).ravel().tolist()
        if keys[0] != np.arange(degree, dtype=np.int32).astype(">i4").tobytes():
            raise InputError("group element list must start with the identity")
        if keys != sorted(set(keys)):
            raise InputError("group element list must strictly increase")
        self.degree = degree
        self.generators = tuple(generators)
        self.images = images
        self.index_dtype = np.dtype(np.uint16 if 256 <= len(images) <= 2**16 else np.int32)
        self._mult = self._inv = None
        self._memo = {}

    @property
    def order(self):
        return len(self.images)

    @property
    def elements(self):
        """The elements as Permutations, built when first read."""
        return self.cached("elements", lambda: self._perms(slice(None)))

    def _perms(self, indices):
        """The elements at ``indices`` as Permutations."""
        return tuple(map(Permutation, self.images[indices].tolist()))

    def index(self, perm):
        return int(self._indices_of(perm.images)[0])

    def _indices_of(self, rows):
        """Element indices of the image ``rows``, or InputError for a row
        of another degree or one that is no element."""
        # The rows of ``images`` strictly increase, and the big-endian bytes
        # of non-negative ints compare in the same order, so each row viewed
        # as one 4*degree-byte key binary-searches to its element's index.
        # Searching all but the last key keeps every hit inside the array.
        rows = np.ascontiguousarray(rows, dtype=">i4")
        if rows.shape[-1] != self.degree:
            raise InputError("a permutation of another degree is not an element of this group")
        key = np.dtype((np.void, 4 * self.degree))
        hay, needles = self.images.view(key).ravel(), rows.view(key).ravel()
        at = np.searchsorted(hay[:-1], needles)
        if hay[at].tobytes() != needles.tobytes():
            raise InputError("a permutation is not an element of this group")
        return at

    @property
    def mult(self):
        """The table mult[i, j] = index of elements[i] * elements[j], in the
        group's ``index_dtype``.

        Built along a breadth-first walk of the Cayley graph from the
        identity: when y = s * x for a generator s, row y is row s
        gathered at row x, since s * x * e_j = s * (x * e_j).  Only the
        generators' rows are looked up by image.
        """
        if self._mult is None:
            n = self.order
            steps = [
                self._indices_of(np.asarray(g.images)[self.images]).astype(self.index_dtype)
                for g in self.generators
            ]
            step_lists = [step.tolist() for step in steps]
            table = np.empty((n, n), dtype=self.index_dtype)
            table[0] = np.arange(n)
            reached = [True] + [False] * (n - 1)
            walk = [0]
            for x in walk:
                for step, targets in zip(steps, step_lists):
                    y = targets[x]
                    if not reached[y]:
                        reached[y] = True
                        step.take(table[x], out=table[y])
                        walk.append(y)
            if len(walk) != n:
                raise InternalCheckError(
                    "the generators reach %d of the %d group elements" % (len(walk), n)
                )
            self._mult = table
        return self._mult

    @property
    def inv(self):
        """inv[i] = index of the inverse of elements[i]: where row i of
        ``mult`` holds the identity, its least entry 0 as the row permutes
        0..n-1, proved by one gather."""
        if self._inv is None:
            mult = self.mult
            inv = mult.argmin(axis=1).astype(self.index_dtype)
            if (mult[np.arange(self.order), inv] != 0).any():
                raise InternalCheckError("a row of the multiplication table misses the identity")
            self._inv = inv
        return self._inv

    @property
    def element_orders(self):
        """int64 order of each element, read off ``mult``."""
        def build():
            identity_only = np.zeros(self.order, dtype=bool)
            identity_only[0] = True
            return kernels.power_orders(self.mult, identity_only)

        return self.cached("element_orders", build)

    def cached(self, key, build):
        """The answer kept under ``key``, from ``build()`` on the first
        request alone; an answer of None is kept as any other.  Every
        per-group memo goes through here."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def conjugate_indices(self, g_index, indices):
        """Sorted indices of g H g^-1 for H given by ``indices``."""
        mult = self.mult
        conj = mult[mult[g_index, indices], self.inv[g_index]]
        conj.sort()
        return conj

    def __repr__(self):
        return "Group(degree=%d, order=%d)" % (self.degree, self.order)
