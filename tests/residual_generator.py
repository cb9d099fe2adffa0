"""Seeded defeasible theories that reach the well-founded residual: their
team compilation leaves atoms unknown, which only the unfounded-set passes
of ``evaluator._evaluate`` decide.

Each theory composes copies of one gadget, the loop of the acceptance
corpus's ``ground-0958`` cut to its core:

    aK: neg pK => neg pK.
    bK: => pK.
    cK: => neg pK.
    aK > bK.

``neg pK`` beats ``bK`` only through ``aK``, whose body is ``neg pK``
itself, so the team program's ``defeasibly__not__pK`` is unknown in its
well-founded model.  The variable version reads ``n(X)`` in every body and
leaves one such atom per constant.  A ring gadget closes a chain of gated
loops through that unknown atom, the theory-level form of the
``gated_ring`` program of ``test_evaluation``: each loop is unfounded only
once the one below it is false, and all of them are one component, so it
takes one unfounded-set pass per link.  Random noise rules, facts and
superiority pairs over the same atoms are mixed in; they may decide a
gadget either way.
"""

import random

from defeasidl.parser import parse_theory
from defeasidl.theory import DefeasibleTheory


def gadget(k: int) -> str:
    return f"a{k}: neg p{k} => neg p{k}.\nb{k}: => p{k}.\nc{k}: => neg p{k}.\na{k} > b{k}.\n"


def variable_gadget(k: int) -> str:
    return (
        f"a{k}: n(X), neg p{k}(X) => neg p{k}(X).\nb{k}: n(X) => p{k}(X).\n"
        f"c{k}: n(X) => neg p{k}(X).\na{k} > b{k}.\n"
    )


def ring_gadget(k: int, links: int) -> str:
    """``gadget(k)`` and a ring of ``links`` gated loops through ``neg pK``:
    ``xK_i`` supports itself, and ``zK_(i-1)`` holds it up until ``xK_(i-1)``
    is false, which leaves ``sK_(i-1)`` unbeaten and ``zK_(i-1)`` overruled;
    ``xK_1`` also reads ``neg pK``, which reads the top loop."""
    x, z = f"x{k}_", f"z{k}_"
    text = f"e{k}_0: {x}0 => {x}0.\n"
    for i in range(links):
        text += (
            f"e{k}_{i + 1}: {x}{i + 1} => {x}{i + 1}.\ng{k}_{i + 1}: {z}{i} => {x}{i + 1}.\n"
            f"f{k}_{i}: => {z}{i}.\ns{k}_{i}: => neg {z}{i}.\n"
            f"t{k}_{i}: {x}{i} => {z}{i}.\nt{k}_{i} > s{k}_{i}.\n"
        )
    return text + gadget(k) + f"h{k}: {x}1, neg p{k} => {x}1.\nw{k}: {x}{links} => neg p{k}.\n"


def residual_theory(rng: random.Random) -> DefeasibleTheory:
    """One to three ground gadgets, each a ring of two or three links in
    three cases of ten, at most one variable gadget over one to three
    constants, and up to four noise rules over the gadgets' atoms and two
    noise atoms, with up to two noise facts and superiority pairs."""
    ground = rng.randint(1, 3)
    text = "".join(ring_gadget(k, rng.randint(2, 3)) if rng.random() < 0.3 else gadget(k)
                   for k in range(ground))
    atoms = [f"p{k}" for k in range(ground)] + ["s0", "s1"]
    if rng.random() < 0.5:
        constants = [f"c{i}" for i in range(rng.randint(1, 3))]
        text += "".join(f"n({c}).\n" for c in constants) + variable_gadget(ground)
        atoms += [f"p{ground}({c})" for c in constants]

    def literal() -> str:
        return ("neg " if rng.random() < 0.5 else "") + rng.choice(atoms)

    text += "".join(f"{literal()}.\n" for _ in range(rng.randint(0, 2)))
    heads = []
    for j in range(rng.randint(0, 4)):
        body = ", ".join(dict.fromkeys(literal() for _ in range(rng.randint(0, 2))))
        heads.append(literal())
        text += f"x{j}: {body} {rng.choice(['->', '=>', '=>', '~>'])} {heads[j]}.\n"
    # Pairs between noise rules with complementary heads, the earlier rule
    # superior, so the relation stays acyclic.
    pairs = [(i, j) for j in range(len(heads)) for i in range(j)
             if heads[i].removeprefix("neg ") == heads[j].removeprefix("neg ")
             and heads[i] != heads[j]]
    text += "".join(f"x{i} > x{j}.\n" for i, j in rng.sample(pairs, min(len(pairs), 2)))
    parsed = parse_theory(text)
    assert isinstance(parsed, DefeasibleTheory), [str(e) for e in parsed]
    return parsed
