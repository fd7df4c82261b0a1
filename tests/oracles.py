"""Helpers shared by the dense oracles of the test suite."""

from indgl2.localring import teichmuller


def all_translations(ctx, n):
    """Every [λ_s]·ϖ^i with 0 ≤ i ≤ n, λ_s running over an F_p-basis of F_q.

    These additively generate O/ϖ^{n+1} with no argument needed.  They list
    the depths ≥ e that analysis.u_generators leaves out, so an oracle built
    on them does not rest on the lemma that makes the shorter list suffice.
    """
    ring = ctx.ring
    pi = ring.uniformizer()
    return [teichmuller(ring.field.fq.elem(ring.p**s), ring) * pi**i for i in range(n + 1) for s in range(ring.f)]
