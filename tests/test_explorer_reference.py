"""Exploration of rewriting grammars, checked against a reference explorer.

``reference_explore`` walks the state space breadth-first with no
:class:`Effect`, no certificate and no colour refinement.  Each
application is built by ``reference_apply``'s semantics and merged into a
class by brute-force isomorphism.  An application counts when the rule
prints, or when its post-state differs from its pre-state under the
identity on surviving nodes, as README states for an effective
application.  Seeded random grammars of one or two rules that erase,
create, flag, write and wire nodes are explored by the engine and by the
reference, and the two must agree on the number of states, the truncation
flag and every transition between classes.  Each kept state's printed
certificate must also be the one its graph gets on its own, whatever
record and colours the state was found with.
"""

from __future__ import annotations

import random

from test_explorer import brute_isomorphic
from test_rewriter_reference import (
    random_host,
    random_rule_text,
    reference_post_state,
)

from gtx.dsl import parse_rule
from gtx.explorer import certificate, explore
from gtx.graph import HostGraph
from gtx.matcher import find_root_matches

#: the largest state the brute-force isomorphism check is asked about
MAX_NODES = 8


class TooLarge(Exception):
    """A state outgrew what the brute-force check can afford."""


def profile(g: HostGraph) -> tuple:
    """Each node's data and the labels of its outgoing and incoming edges,
    sorted: equal for isomorphic graphs."""
    return tuple(sorted(
        (tuple(sorted(t.name for t in n.types)),
         tuple(sorted(f.name for f in n.flags)),
         tuple(sorted((a, v.sort_key()) for a, v in n.attrs.items())),
         tuple(sorted(e.label.name for e in g.edges if e.src == nid)),
         tuple(sorted(e.label.name for e in g.edges if e.tgt == nid)))
        for nid, n in g.nodes.items()))


class Classes:
    """Graphs up to isomorphism, one representative each in the order
    met.  The brute force, which tries every bijection, runs only within
    one profile."""

    def __init__(self) -> None:
        self.reps: list[HostGraph] = []
        self.by_profile: dict[tuple, list[int]] = {}

    def find(self, g: HostGraph) -> int | None:
        return next((k for k in self.by_profile.get(profile(g), [])
                     if brute_isomorphic(self.reps[k], g)), None)

    def add(self, g: HostGraph) -> int:
        self.by_profile.setdefault(profile(g), []).append(len(self.reps))
        self.reps.append(g)
        return len(self.reps) - 1


def unchanged(g: HostGraph, post: HostGraph, ids: dict) -> bool:
    """Whether ``post`` is ``g`` under the identity on surviving nodes: no
    node erased or created, and the same node data and edges."""
    if set(ids) != {("old", h) for h in g.nodes}:
        return False
    m = {h: ids[("old", h)] for h in g.nodes}
    return all(g.nodes[h].types == post.nodes[m[h]].types
               and g.nodes[h].flags == post.nodes[m[h]].flags
               and g.nodes[h].attrs == post.nodes[m[h]].attrs
               for h in g.nodes) and post.edges == {
        (m[e.src], e.label, m[e.tgt]) for e in g.edges}


def reference_explore(rules, start: HostGraph, max_depth: int
                      ) -> tuple[Classes, set, bool]:
    """One representative per class in discovery order, the transitions
    ``(class, rule name, class)`` and whether ``max_depth`` cut anything
    off."""
    classes, depths = Classes(), [0]
    classes.add(start)
    transitions: set[tuple[int, str, int]] = set()
    truncated = False
    for i, g in enumerate(classes.reps):  # grows while walked: breadth-first
        for rule in rules:
            for match in find_root_matches(rule, g):
                post, ids = reference_post_state(rule, g, match)
                if rule.print_format is None and unchanged(g, post, ids):
                    continue
                if depths[i] >= max_depth:
                    truncated = True
                    continue
                if len(post.nodes) > MAX_NODES:
                    raise TooLarge
                j = classes.find(post)
                if j is None:
                    j = classes.add(post)
                    depths.append(depths[i] + 1)
                transitions.add((i, rule.name, j))
    return classes, transitions, truncated


def random_grammar(rng: random.Random) -> list:
    rules = [parse_rule(random_rule_text(rng))]
    if rng.random() < 0.5:
        rules.append(parse_rule(
            random_rule_text(rng).replace("rule r\n", "rule s\n", 1)))
    return rules


def test_explorations_agree_with_the_reference_explorer():
    # 400 seeds take about 1.3 s on a 2-vCPU x86 machine
    compared = 0
    for seed in range(400):
        rng = random.Random(seed)
        rules, start = random_grammar(rng), random_host(rng)
        try:
            reference, transitions, truncated = reference_explore(
                rules, start, 2)
        except TooLarge:
            continue
        lts = explore(rules, start, max_depth=2)
        assert len(lts.states) == len(reference.reps), seed
        assert lts.truncated == truncated, seed
        classes = [reference.find(state.graph) for state in lts.states]
        assert sorted(classes) == list(range(len(reference.reps))), seed
        assert {(classes[s], name, classes[t])
                for s, name, t in lts.transitions} == transitions, seed
        compared += 1
    # the grammars that outgrow the brute force are few
    assert compared >= 380


def test_kept_states_carry_the_certificate_of_their_own_graph():
    # a successor's colours come from a record it may share with its
    # parent; a record that does not fit its graph miscolours the state
    kept = 0
    for seed in range(400):
        rng = random.Random(seed)
        lts = explore(random_grammar(rng), random_host(rng), max_depth=2)
        for state in lts.states:
            assert state.cert == certificate(state.graph), (seed, state.index)
        kept += len(lts.states)
    assert kept == 1657
