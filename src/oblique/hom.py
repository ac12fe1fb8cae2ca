"""Homomorphisms between permutation groups, given by generator images.

A map is certified at construction time. The pairs (g_i, phi(g_i)) generate
the graph, a subgroup of the direct product; its kernel K = {(1, y)} onto the
domain is trivial exactly when the generator assignment extends to a
homomorphism. Every base point of the graph's chain is a domain point exactly
when K is trivial: the chain is complete, so only the identity fixes its base
pointwise, and K fixes every domain point; conversely, a base point at or
above the domain degree is the first moved point of a residue that fixes
every domain point, a nontrivial element of K. The graph is then isomorphic
to the domain, and each step of the deterministic Schreier-Sims run on the
graph projects onto the run on the domain's own generators, so the graph's
chain cut to the domain points is the domain's chain; a domain without a
chain gets that one, and is built no second time. ``apply`` sifts through
the graph's chain; ``kernel``, ``lift`` and ``preimage_group`` read a second
chain of it whose base starts on the codomain points.
"""

from __future__ import annotations

from .caps import DEFAULT_CAPS, Caps
from .group import NotASubgroup, PermGroup, StabilizerChain
from .perm import Permutation, _compose, _inverse


class NotAHomomorphism(ValueError):
    pass


def _split(pair, dG):
    """A pair-group element (g, phi(g)) on dG + dH points, as the tuples g and phi(g)."""
    return pair[:dG], tuple(q - dG for q in pair[dG:])


class GroupHom:
    def __init__(self, domain: PermGroup, codomain: PermGroup, images, caps: Caps = DEFAULT_CAPS):
        images = tuple(images)
        if len(images) != len(domain.generators):
            raise NotAHomomorphism("need one image per domain generator")
        for y in images:
            if y.degree != codomain.degree:
                raise NotAHomomorphism("image degree does not match codomain")
            if not codomain.contains(y):
                raise NotAHomomorphism("generator image lies outside the codomain")
        self.domain = domain
        self.codomain = codomain
        self.images = images
        self._pair_degree = domain.degree + codomain.degree
        self._pairs = [
            g.images + tuple(domain.degree + p for p in y.images)
            for g, y in zip(domain.generators, images)
        ]
        # Certificate: every base point is a domain point exactly when the
        # graph's kernel onto the domain is trivial (see the module
        # docstring). Base points are first moved points, so ``apply`` meets
        # domain base points only. The domain's chain is then the graph chain
        # cut to the domain points; one built earlier is kept.
        dG = domain.degree
        self._dom_chain = StabilizerChain(self._pair_degree, self._pairs)
        if not all(b < dG for b in self._dom_chain.base):
            raise NotAHomomorphism(
                f"generator images do not define a homomorphism "
                f"(graph order {self._dom_chain.order} != domain order {domain.order})"
            )
        if domain._chain is None:
            domain._chain = self._dom_chain.cut(dG)
        self._dom_ident, self._cod_ident = tuple(range(dG)), tuple(range(dG, self._pair_degree))
        self._cod_chain = None
        self._image = None
        self._kernel = None
        self._caps = caps

    # -- internal chains -----------------------------------------------------

    def _codomain_first_chain(self):
        if self._cod_chain is None:
            dG = self.domain.degree
            moved = sorted(
                {dG + p for pair in self._pairs for p in range(self.codomain.degree) if pair[dG + p] != dG + p}
            )
            self._cod_chain = StabilizerChain(self._pair_degree, self._pairs, forced_prefix=moved)
            self._cod_prefix = len(moved)
        return self._cod_chain

    # -- queries ---------------------------------------------------------------

    def _image_tuple(self, x):
        """phi(x) for the image tuple x; raises if x is not in the domain.
        Sifting (x, 1) through the graph leaves (x g^-1, phi(g)^-1) for some g
        in the domain; its domain part is the identity exactly when x is in
        the domain, and then g = x."""
        dG = self.domain.degree
        residue = self._dom_chain._strip(x + self._cod_ident)[0]
        if residue[:dG] != self._dom_ident:
            raise NotASubgroup(f"element {Permutation(x)} is not in the domain")
        return _inverse(tuple(q - dG for q in residue[dG:]))

    def apply(self, x: Permutation) -> Permutation:
        """phi(x); raises if x is not in the domain."""
        if x.degree != self.domain.degree:
            raise NotASubgroup("element degree does not match the domain")
        return Permutation(self._image_tuple(x.images))

    def image(self) -> PermGroup:
        if self._image is None:
            self._image = PermGroup(self.codomain.degree, self.images, caps=self._caps)
        return self._image

    def is_surjective(self) -> bool:
        return self.image().order == self.codomain.order

    def kernel(self) -> PermGroup:
        if self._kernel is None:
            dG = self.domain.degree
            chain = self._codomain_first_chain()
            gens = [
                Permutation(tuple(g[:dG]))
                for g in chain.strong_generators_fixing(self._cod_prefix)
            ]
            K = PermGroup(dG, gens, caps=self._caps)
            if K.order * self.image().order != self.domain.order:
                raise AssertionError("kernel extraction failed the order identity")
            self._kernel = K
        return self._kernel

    def lift(self, y: Permutation) -> Permutation:
        """Some x with phi(x) = y; raises if y is not in the image."""
        dG, dH = self.domain.degree, self.codomain.degree
        if y.degree != dH:
            raise NotASubgroup("element degree does not match the codomain")
        chain = self._codomain_first_chain()
        cur = y.images
        acc = tuple(range(dG))
        for i in range(self._cod_prefix):
            u_inv = chain.inverses[i].get(dG + cur[chain.base[i] - dG])
            if u_inv is None:
                raise NotASubgroup(f"element {y} is not in the image")
            first, second = _split(u_inv, dG)
            cur = _compose(cur, second)
            acc = _compose(acc, first)
        if cur != tuple(range(dH)):
            raise NotASubgroup(f"element {y} is not in the image")
        return Permutation(_inverse(acc))

    def preimage_group(self, H: PermGroup) -> PermGroup:
        """Full preimage of a subgroup H of the image."""
        gens = list(self.kernel().generators)
        for h in H.generators:
            gens.append(self.lift(h))
        P = PermGroup(self.domain.degree, gens, caps=self._caps)
        if P.order != self.kernel().order * H.order:
            raise AssertionError("preimage order identity failed")
        return P

    def image_of_group(self, H: PermGroup) -> PermGroup:
        """Image of a subgroup H of the domain."""
        return PermGroup(self.codomain.degree, [self.apply(h) for h in H.generators], caps=self._caps)

    def __repr__(self):
        return (
            f"GroupHom(|dom|={self.domain.order}, |cod|={self.codomain.order}, "
            f"|im|={self.image().order})"
        )
