"""Sites: a finite category with a pretopology.

A site with no declared covers carries the trivial topology: every object
is covered by its identity only.  Covering families are stored unrefined;
refinement checks use exhaustive factorization search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import fincat as fc


@dataclass
class Site:
    cat: fc.FinCat
    covers: dict = field(default_factory=dict)   # object -> list of families

    def families_of(self, x: str):
        """Declared covering families of x, always including the identity."""
        return [[self.cat.id_of(x)]] + [list(fam) for fam in self.covers.get(x, [])]


def malformed_covers(site: Site):
    """A cover declared on an object the category does not have, or with a
    member that is not a morphism into its object, one line each."""
    cat = site.cat
    problems = []
    for x, fams in site.covers.items():
        if x not in cat.objects:
            problems.append("cover declared on unknown object %r" % x)
            continue
        for fam in fams:
            for m in fam:
                if m not in cat._mor_by_id or cat.cod(m) != x:
                    problems.append("family member %r does not land in %r" % (m, x))
    return problems


def validate_pretopology(site: Site):
    """Report pretopology violations with witnesses.

    After :func:`malformed_covers`, checks that (a) singleton isomorphism
    families cover, (b) every declared family can be base-changed:
    pullbacks exist and the pulled-back family is refined by a declared
    cover of the base, (c) composites of covers are refined by covers.
    """
    cat = site.cat
    problems = malformed_covers(site)
    if problems:
        return problems
    for x in cat.objects:
        for fam in site.families_of(x):
            for y in cat.objects:
                for g in cat.hom(y, x):
                    pulled = []
                    ok = True
                    for m in fam:
                        pb = fc.pullback(cat, m, g)
                        if pb is None:
                            problems.append(
                                "pullback of %r along %r missing (cover of %r)" % (m, g, x))
                            ok = False
                            break
                        apex, leg_m, leg_g = pb
                        pulled.append((apex, leg_g))
                    if ok and not _refined_by_some_cover(site, y, pulled):
                        problems.append(
                            "pullback of cover %r along %r not refined by a cover of %r"
                            % (fam, g, y))
    # composition stability: refine one member at a time by each of its
    # declared covers; the mixed family must again be refined by a cover
    for x in cat.objects:
        for fam in site.families_of(x):
            for k, m in enumerate(fam):
                u = cat.dom(m)
                for sub in site.families_of(u):
                    composite = [(cat.dom(m2), m2) for m2 in fam[:k] + fam[k + 1:]]
                    composite += [(cat.dom(m2), cat.comp(m, m2)) for m2 in sub]
                    if not _refined_by_some_cover(site, x, composite):
                        problems.append(
                            "refining %r inside cover %r of %r breaks composition"
                            % (m, fam, x))
    return problems


def _refined_by_some_cover(site: Site, y: str, family):
    """Does some declared cover of y refine the given family?

    `family` lists (domain, morphism into y); a declared cover {w_j}
    refines it when every w_j factors through some member.
    """
    cat = site.cat
    return any(all(any(cat.comp(m, h) == w for d, m in family for h in cat.hom(cat.dom(w), d))
                   for w in cov) for cov in site.families_of(y))

