"""Class lattice, relation validation, projection, and export."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from loveline import (
    BfoClass,
    Individual,
    RelationAssertion,
    RelationKind,
    Timeline,
    check_subclass,
    export_graph,
    parse_document,
    project_timeline,
    validate,
)
from loveline.ontology import _CONSTRAINTS, _PARENT, OntologyGraph

from conftest import build_timeline_a
from helpers import random_timeline

F = Fraction

ALL_CLASSES = list(BfoClass)


def codes(diags) -> list[str]:
    return sorted(d.code for d in diags)


class TestCheckSubclass:
    def test_pinned_cases(self):
        assert check_subclass(
            BfoClass.QUALITY, BfoClass.SPECIFICALLY_DEPENDENT_CONTINUANT
        )
        assert check_subclass(BfoClass.AGENT, BfoClass.MATERIAL_ENTITY)
        assert not check_subclass(BfoClass.QUALITY, BfoClass.OCCURRENT)

    def test_chains(self):
        assert check_subclass(BfoClass.AGENT, BfoClass.CONTINUANT)
        assert check_subclass(BfoClass.DISPOSITION, BfoClass.REALIZABLE_ENTITY)
        assert check_subclass(
            BfoClass.DISPOSITION, BfoClass.SPECIFICALLY_DEPENDENT_CONTINUANT
        )
        assert check_subclass(
            BfoClass.INFORMATION_CONTENT_ENTITY,
            BfoClass.GENERICALLY_DEPENDENT_CONTINUANT,
        )
        assert check_subclass(BfoClass.PROCESS, BfoClass.OCCURRENT)
        assert not check_subclass(BfoClass.MATERIAL_ENTITY, BfoClass.AGENT)
        assert not check_subclass(BfoClass.CONTINUANT, BfoClass.OCCURRENT)

    def test_reflexive(self):
        for cls in ALL_CLASSES:
            assert check_subclass(cls, cls)

    def test_antisymmetric(self):
        for a, b in itertools.product(ALL_CLASSES, repeat=2):
            if a is not b:
                assert not (check_subclass(a, b) and check_subclass(b, a))

    def test_transitive(self):
        for a, b, c in itertools.product(ALL_CLASSES, repeat=3):
            if check_subclass(a, b) and check_subclass(b, c):
                assert check_subclass(a, c)


def graph(*items) -> tuple[list[Individual], list[RelationAssertion]]:
    individuals = [x for x in items if isinstance(x, Individual)]
    relations = [x for x in items if isinstance(x, RelationAssertion)]
    return individuals, relations


Q1 = Individual("q1", BfoClass.QUALITY, "a quality")
Q2 = Individual("q2", BfoClass.QUALITY, "another quality")
AG = Individual("ag", BfoClass.AGENT, "an agent")
PR = Individual("pr", BfoClass.PROCESS, "a process")
ICE = Individual("ic", BfoClass.INFORMATION_CONTENT_ENTITY, "a content")
DI = Individual("di", BfoClass.DISPOSITION, "a disposition")


class TestValidate:
    def test_quality_inheres_in_agent_is_clean(self):
        inds, rels = graph(
            Q1, AG, RelationAssertion(RelationKind.INHERES_IN, "q1", "ag")
        )
        assert validate(inds, rels) == []

    def test_quality_inhering_in_quality_is_a_range_violation(self):
        inds, rels = graph(
            Q1, Q2, RelationAssertion(RelationKind.INHERES_IN, "q1", "q2")
        )
        diags = validate(inds, rels)
        assert codes(diags) == ["E_RANGE"]
        assert diags[0].record == "q1 inheres_in q2"

    def test_inheres_in_domain(self):
        inds, rels = graph(
            AG, Q1, RelationAssertion(RelationKind.INHERES_IN, "ag", "q1")
        )
        # Agent is no dependent continuant, and Quality cannot host inherence.
        assert codes(validate(inds, rels)) == ["E_DOMAIN", "E_RANGE"]

    def test_participates_in(self):
        ok = [
            graph(AG, PR, RelationAssertion(RelationKind.PARTICIPATES_IN, "ag", "pr")),
            graph(Q1, PR, RelationAssertion(RelationKind.PARTICIPATES_IN, "q1", "pr")),
            graph(ICE, PR,
                  RelationAssertion(RelationKind.PARTICIPATES_IN, "ic", "pr"),
                  RelationAssertion(RelationKind.IS_ABOUT, "ic", "pr")),
        ]
        for inds, rels in ok:
            assert validate(inds, rels) == []
        bare = Individual("co", BfoClass.CONTINUANT, "a bare continuant")
        inds, rels = graph(
            bare, PR, RelationAssertion(RelationKind.PARTICIPATES_IN, "co", "pr")
        )
        assert codes(validate(inds, rels)) == ["E_DOMAIN"]
        inds, rels = graph(
            AG, Q1, RelationAssertion(RelationKind.PARTICIPATES_IN, "ag", "q1")
        )
        assert codes(validate(inds, rels)) == ["E_RANGE"]

    def test_is_about_domain(self):
        inds, rels = graph(
            Q1, AG, RelationAssertion(RelationKind.IS_ABOUT, "q1", "ag")
        )
        assert codes(validate(inds, rels)) == ["E_DOMAIN"]

    def test_realized_in(self):
        inds, rels = graph(
            DI, PR, RelationAssertion(RelationKind.REALIZED_IN, "di", "pr")
        )
        assert validate(inds, rels) == []
        inds, rels = graph(
            Q1, PR, RelationAssertion(RelationKind.REALIZED_IN, "q1", "pr")
        )
        assert codes(validate(inds, rels)) == ["E_DOMAIN"]

    def test_causally_correlated_with(self):
        inds, rels = graph(
            Q1, AG,
            RelationAssertion(RelationKind.CAUSALLY_CORRELATED_WITH, "q1", "ag"),
        )
        assert validate(inds, rels) == []
        inds, rels = graph(
            Q1, Q2,
            RelationAssertion(RelationKind.CAUSALLY_CORRELATED_WITH, "q1", "q2"),
        )
        assert codes(validate(inds, rels)) == ["E_RANGE"]

    def test_ice_requires_aboutness(self):
        assert codes(validate([ICE], [])) == ["E_ABOUTNESS"]
        inds, rels = graph(
            ICE, AG, RelationAssertion(RelationKind.IS_ABOUT, "ic", "ag")
        )
        assert validate(inds, rels) == []

    def test_dangling_references(self):
        diags = validate(
            [Q1], [RelationAssertion(RelationKind.INHERES_IN, "q1", "ghost")]
        )
        assert codes(diags) == ["E_UNKNOWN_REF"]
        diags = validate(
            [], [RelationAssertion(RelationKind.INHERES_IN, "a", "b")]
        )
        assert codes(diags) == ["E_UNKNOWN_REF", "E_UNKNOWN_REF"]

    def test_duplicate_individual_ids(self):
        diags = validate([Q1, Individual("q1", BfoClass.AGENT, "again")], [])
        assert codes(diags) == ["E_DUP_ID"]

    def test_long_ids_are_quoted_briefly(self):
        quality = Individual("q" * 3000, BfoClass.QUALITY, "a quality")
        content = Individual("c" * 3000, ICE.cls, "a content")
        rels = [
            RelationAssertion(RelationKind.IS_ABOUT, quality.id, quality.id),
            RelationAssertion(RelationKind.INHERES_IN, quality.id, quality.id),
            RelationAssertion(RelationKind.INHERES_IN, quality.id, "g" * 3000),
        ]
        diags = validate([quality, quality, content], rels)
        assert codes(diags) == [
            "E_ABOUTNESS", "E_DOMAIN", "E_DUP_ID", "E_RANGE", "E_UNKNOWN_REF",
        ]
        for diag in diags:
            assert len(diag.message) < 200
            assert "(3000 characters)" in diag.message
        assert {d.record for d in diags} == {
            quality.id, content.id, *(rel.render() for rel in rels)
        }

    def test_short_ids_are_quoted_whole(self):
        diags = validate(
            [Q1, Q1], [RelationAssertion(RelationKind.INHERES_IN, "q1", "q1")]
        )
        assert sorted(d.message for d in diags) == [
            "duplicate individual id 'q1'",
            "inheres_in object 'q1' is Quality, expected an independent "
            "continuant",
        ]

    def test_diagnostics_come_in_a_fixed_order(self):
        # Duplicate ids first, then each assertion's in turn (subject before
        # object), then content entities without aboutness.
        inds = [Q1, ICE, AG, Individual("q1", BfoClass.AGENT, "again"),
                Individual("ic2", ICE.cls, "another content")]
        rels = [
            RelationAssertion(RelationKind.INHERES_IN, "ag", "q1"),
            RelationAssertion(RelationKind.IS_ABOUT, "ghost", "ag"),
            RelationAssertion(RelationKind.IS_ABOUT, "ic", "q1"),
            RelationAssertion(RelationKind.REALIZED_IN, "q1", "nowhere"),
            RelationAssertion(RelationKind.CAUSALLY_CORRELATED_WITH, "q1", "ag"),
            RelationAssertion(RelationKind.PARTICIPATES_IN, "ag", "ic"),
        ]
        assert [(d.code, d.message, d.record) for d in validate(inds, rels)] == [
            ("E_DUP_ID", "duplicate individual id 'q1'", "q1"),
            ("E_DOMAIN", "inheres_in subject 'ag' is Agent, expected a "
             "specifically dependent continuant", "ag inheres_in q1"),
            ("E_RANGE", "inheres_in object 'q1' is Quality, expected an "
             "independent continuant", "ag inheres_in q1"),
            ("E_UNKNOWN_REF", "subject 'ghost' of is_about is not a declared "
             "individual", "ghost is_about ag"),
            ("E_UNKNOWN_REF", "object 'nowhere' of realized_in is not a "
             "declared individual", "q1 realized_in nowhere"),
            ("E_RANGE", "participates_in object 'ic' is "
             "InformationContentEntity, expected a process",
             "ag participates_in ic"),
            ("E_ABOUTNESS", "information content entity 'ic2' has no "
             "is_about assertion", "ic2"),
        ]

    def test_every_kind_and_class_pair_against_the_lattice(self):
        # Each side fits when its class lies under one of the constraint's
        # classes, read here by walking the parent links.
        def under(cls, classes):
            while cls is not None:
                if cls in classes:
                    return True
                cls = _PARENT[cls]
            return False

        for kind, (dom, _, rng, _) in _CONSTRAINTS.items():
            for a, b in itertools.product(ALL_CLASSES, repeat=2):
                inds = [Individual("s", a, "s"), Individual("o", b, "o")]
                rel = RelationAssertion(kind, "s", "o")
                got = [d.code for d in validate(inds, [rel])
                       if d.code != "E_ABOUTNESS"]
                expected = ["E_DOMAIN"] * (not under(a, dom))
                expected += ["E_RANGE"] * (not under(b, rng))
                assert got == expected, (kind, a, b)

    def test_order_independent_multiset(self):
        inds = [Q1, Q2, AG, PR, ICE]
        rels = [
            RelationAssertion(RelationKind.INHERES_IN, "q1", "q2"),
            RelationAssertion(RelationKind.IS_ABOUT, "q1", "ag"),
            RelationAssertion(RelationKind.REALIZED_IN, "ag", "pr"),
        ]
        rng = random.Random(7)
        baseline = sorted(
            (d.code, d.message) for d in validate(inds, rels)
        )
        for _ in range(10):
            shuffled_rels = rels[:]
            shuffled_inds = inds[:]
            rng.shuffle(shuffled_rels)
            rng.shuffle(shuffled_inds)
            got = sorted(
                (d.code, d.message)
                for d in validate(shuffled_inds, shuffled_rels)
            )
            assert got == baseline


class TestProjectTimeline:
    def test_empty_timeline(self):
        assert project_timeline(Timeline()) == OntologyGraph((), ())

    def test_agents_only(self):
        g = project_timeline(Timeline(agents=("a", "b")))
        assert [ind.cls for ind in g.individuals] == [BfoClass.AGENT] * 2
        assert g.relations == ()

    def test_canonical_contains_pinned_assertions(self, timeline_a):
        g = project_timeline(timeline_a)
        rendered = {rel.render() for rel in g.relations}
        assert "s1 inheres_in sally" in rendered
        assert "s1 causally_correlated_with john" in rendered
        assert "ice:j1 is_about john" in rendered
        assert "ice:j1 is_about s1" in rendered
        assert "disp:j1 inheres_in sally" in rendered
        assert "disp:j1 realized_in act:j1" in rendered
        assert "sally participates_in act:j1" in rendered

    def test_canonical_classes(self, timeline_a):
        g = project_timeline(timeline_a)
        by_id = {ind.id: ind.cls for ind in g.individuals}
        assert by_id == {
            "sally": BfoClass.AGENT,
            "john": BfoClass.AGENT,
            "s1": BfoClass.QUALITY,
            "act:j1": BfoClass.PROCESS,
            "disp:j1": BfoClass.DISPOSITION,
            "ice:j1": BfoClass.INFORMATION_CONTENT_ENTITY,
        }

    def test_direct_judgment_ice_is_about_the_person_once(self, timeline_a):
        import dataclasses

        tl = dataclasses.replace(
            timeline_a,
            judgments=(
                dataclasses.replace(timeline_a.judgments[0], target="john"),
            ),
        )
        g = project_timeline(tl)
        about = [r for r in g.relations if r.kind is RelationKind.IS_ABOUT]
        assert [(r.subject, r.object) for r in about] == [("ice:j1", "john")]

    def test_inhibition_disposition_only_for_inhibitors(self, timeline_a):
        import dataclasses

        from loveline import InhibitionEpisode, Interval, IntervalSet

        g = project_timeline(timeline_a)
        assert not any(ind.id.startswith("inhib:") for ind in g.individuals)
        tl = dataclasses.replace(
            timeline_a,
            inhibitions=(
                InhibitionEpisode(
                    "i1", "sally", None,
                    IntervalSet((Interval(F(1), F(2)),)),
                ),
                InhibitionEpisode(
                    "i2", "sally", "john",
                    IntervalSet((Interval(F(4), F(5)),)),
                ),
            ),
        )
        g = project_timeline(tl)
        dispositions = [ind for ind in g.individuals if ind.id == "inhib:sally"]
        assert len(dispositions) == 1
        assert dispositions[0].cls is BfoClass.DISPOSITION
        assert "inhib:sally inheres_in sally" in {
            rel.render() for rel in g.relations
        }

    def test_projection_always_validates(self, timeline_a, timeline_b,
                                          timeline_c):
        for tl in (timeline_a, timeline_b, timeline_c):
            g = project_timeline(tl)
            assert validate(g.individuals, g.relations) == []

    def test_agents_named_like_minted_ids_do_not_collide(self):
        # Each extra agent is spelled as an underscore prefix scheme would
        # mint the projection of judgment j1 or of inhibitor sally.
        source = (
            "agent sally\nagent john\nagent act_j1\nagent disp_j1\n"
            "agent ice_j1\nagent inhib_sally\n"
            "acquaintance sally john at 0\n"
            "judgment j1 agent=sally target=john extent=[0,5)\n"
            "inhibition i1 agent=sally extent=[1,2)\n"
        )
        timeline = parse_document(source).timeline
        assert timeline is not None
        g = project_timeline(timeline)
        assert validate(g.individuals, g.relations) == []
        assert len({ind.id for ind in g.individuals}) == len(g.individuals) == 10

    def test_projection_reaches_the_whole_vocabulary(self, fixture_dir):
        # Vocabulary that no projection emits is dead weight; a class
        # counts as reached when some emitted class lies under it.
        source = (fixture_dir / "mixed.love").read_text(encoding="utf-8")
        g = project_timeline(parse_document(source).timeline)
        emitted = {ind.cls for ind in g.individuals}
        reached = {
            cls for cls in BfoClass
            if any(check_subclass(e, cls) for e in emitted)
        }
        assert reached == set(BfoClass)
        assert {rel.kind for rel in g.relations} == set(RelationKind)

    def test_projection_validates_on_random_timelines(self):
        rng = random.Random(99)
        for _ in range(25):
            g = project_timeline(random_timeline(rng))
            assert validate(g.individuals, g.relations) == []


class TestExportGraph:
    def test_canonical_export_is_pinned(self, timeline_a):
        assert export_graph(project_timeline(timeline_a)) == (
            'individual act:j1 Process "act of judgment by sally"\n'
            'individual disp:j1 Disposition "judgment disposition of sally"\n'
            'individual ice:j1 InformationContentEntity "content of judgment j1"\n'
            'individual john Agent "john"\n'
            'individual s1 Quality "positive sensation of sally correlated with john"\n'
            'individual sally Agent "sally"\n'
            "disp:j1 inheres_in sally\n"
            "disp:j1 realized_in act:j1\n"
            "ice:j1 is_about john\n"
            "ice:j1 is_about s1\n"
            "s1 causally_correlated_with john\n"
            "s1 inheres_in sally\n"
            "sally participates_in act:j1\n"
        )

    def test_empty_graph_exports_empty(self):
        assert export_graph(OntologyGraph((), ())) == ""

    def test_export_is_order_insensitive(self, timeline_a):
        g = project_timeline(timeline_a)
        flipped = OntologyGraph(
            tuple(reversed(g.individuals)), tuple(reversed(g.relations))
        )
        assert export_graph(flipped) == export_graph(g)

    def test_hand_built_graph_is_sorted_by_whole_lines(self):
        # Out of order, a duplicate id and a duplicate assertion, a dangling
        # reference, and ids that are prefixes of one another or hold a
        # space: each block sorts by its rendered lines and keeps them all.
        g = OntologyGraph(
            (
                Individual("zed", BfoClass.AGENT, "zed"),
                Individual("ab", BfoClass.QUALITY, "a quality"),
                Individual("a", BfoClass.PROCESS, "a process"),
                Individual("zed", BfoClass.DISPOSITION, "zed again"),
                Individual("a b", BfoClass.AGENT, 'spaced, "quoted"'),
            ),
            (
                RelationAssertion(RelationKind.PARTICIPATES_IN, "zed", "a"),
                RelationAssertion(RelationKind.INHERES_IN, "ab", "zed"),
                RelationAssertion(RelationKind.INHERES_IN, "ab", "zed"),
                RelationAssertion(RelationKind.IS_ABOUT, "a", "ghost"),
            ),
        )
        assert export_graph(g) == (
            'individual a Process "a process"\n'
            'individual a b Agent "spaced, "quoted""\n'
            'individual ab Quality "a quality"\n'
            'individual zed Agent "zed"\n'
            'individual zed Disposition "zed again"\n'
            "a is_about ghost\n"
            "ab inheres_in zed\n"
            "ab inheres_in zed\n"
            "zed participates_in a\n"
        )
