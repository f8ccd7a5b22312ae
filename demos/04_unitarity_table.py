"""
Unitarity verdicts across the families
======================================

A family only carries a unitary module when Phi stays positive on the
interior levels 1..p.  The verdicts are exact: every Phi value is a
rational number, so there is no tolerance anywhere in this table.
"""

from cubicalg import algebra, spectrum
from cubicalg.exactnum import parse

sf = spectrum.q5_structure_function()
_, families, _ = spectrum.energy_families(sf.phi)

P_MAX = 10

print("unitarity by family (p = 1..%d), then for every p >= 1:" % P_MAX)
for fam in families:
    marks = ""
    for verdict in spectrum.unitarity_table(fam, range(1, P_MAX + 1)):
        marks += "+" if verdict.unitary else "-"
    # every root is c0 + c1*p, so the sign pattern settles once p passes
    # twice the largest |c0|: the decision covers all p, not a sample
    decision = spectrum.unitarity_decision(fam)
    print("  E(p) = %-28s %s  eventually %s, except p in %s" % (
        fam.energy.format(), marks, "+" if decision.eventual else "-",
        list(decision.exceptions)))

# two families survive at every p; the rising one looks like an
# oscillator ladder E = (p + 3) / 2 at h = a = 1.  One more family
# sneaks in a single unitary module at p = 1: it shares |E| with a
# failing family, and the two split on the sign of one number.
print()
print("the sharp p = 1 case:")
table = algebra.master_table()
for text in ("h^2*p/2/a^2", "-h^2*p/2/a^2"):
    want = parse(text, table)
    fam = next(f for f in families if f.energy == want)
    value = spectrum.family_instance(fam, 1).values[1]
    verdict = spectrum.unitarity_verdict(fam, 1)
    print("  E(p) = %-16s Phi(1) = %-12s unitary: %s" % (
        fam.energy.format(), value.format(), verdict.unitary))
