"""Typed upper-ontology schema, relation validation, timeline projection.

A small fixed class lattice (continuants vs occurrents, with the usual
material/quality/disposition/information branches) types the individuals
that a timeline projects to: agents as material agents, sensations as
qualities inhering in their bearers, judgments as acts with a realizing
disposition and an information content entity about the judged target,
and inhibitory control as a disposition of the inhibiting agent.

:func:`validate` checks relation assertions against per-kind domain and
range constraints and reports violations as diagnostics. :func:`export_graph`
renders a graph to a canonical, byte-deterministic text form.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

from .diagnostics import (
    Diagnostic,
    E_ABOUTNESS,
    E_DOMAIN,
    E_DUP_ID,
    E_RANGE,
    E_UNKNOWN_REF,
    _quoted,
)
from .model import Timeline


class BfoClass(Enum):
    CONTINUANT = "Continuant"
    INDEPENDENT_CONTINUANT = "IndependentContinuant"
    SPECIFICALLY_DEPENDENT_CONTINUANT = "SpecificallyDependentContinuant"
    GENERICALLY_DEPENDENT_CONTINUANT = "GenericallyDependentContinuant"
    MATERIAL_ENTITY = "MaterialEntity"
    AGENT = "Agent"
    QUALITY = "Quality"
    REALIZABLE_ENTITY = "RealizableEntity"
    DISPOSITION = "Disposition"
    OCCURRENT = "Occurrent"
    PROCESS = "Process"
    INFORMATION_CONTENT_ENTITY = "InformationContentEntity"


# Fixed single-parent lattice; None marks a root.
_PARENT: dict[BfoClass, BfoClass | None] = {
    BfoClass.CONTINUANT: None,
    BfoClass.OCCURRENT: None,
    BfoClass.INDEPENDENT_CONTINUANT: BfoClass.CONTINUANT,
    BfoClass.SPECIFICALLY_DEPENDENT_CONTINUANT: BfoClass.CONTINUANT,
    BfoClass.GENERICALLY_DEPENDENT_CONTINUANT: BfoClass.CONTINUANT,
    BfoClass.MATERIAL_ENTITY: BfoClass.INDEPENDENT_CONTINUANT,
    BfoClass.AGENT: BfoClass.MATERIAL_ENTITY,
    BfoClass.QUALITY: BfoClass.SPECIFICALLY_DEPENDENT_CONTINUANT,
    BfoClass.REALIZABLE_ENTITY: BfoClass.SPECIFICALLY_DEPENDENT_CONTINUANT,
    BfoClass.DISPOSITION: BfoClass.REALIZABLE_ENTITY,
    BfoClass.INFORMATION_CONTENT_ENTITY: BfoClass.GENERICALLY_DEPENDENT_CONTINUANT,
    BfoClass.PROCESS: BfoClass.OCCURRENT,
}


def check_subclass(a: BfoClass, b: BfoClass) -> bool:
    """True iff ``a`` is ``b`` or lies below it in the lattice."""
    cursor: BfoClass | None = a
    while cursor is not None:
        if cursor is b:
            return True
        cursor = _PARENT[cursor]
    return False


class RelationKind(Enum):
    INHERES_IN = "inheres_in"
    PARTICIPATES_IN = "participates_in"
    IS_ABOUT = "is_about"
    REALIZED_IN = "realized_in"
    CAUSALLY_CORRELATED_WITH = "causally_correlated_with"


@dataclass(frozen=True)
class Individual:
    id: str
    cls: BfoClass
    label: str


@dataclass(frozen=True)
class RelationAssertion:
    kind: RelationKind
    subject: str
    object: str

    def render(self) -> str:
        return f"{self.subject} {self.kind.value} {self.object}"


class OntologyGraph(NamedTuple):
    individuals: tuple[Individual, ...]
    relations: tuple[RelationAssertion, ...]


# Per relation kind: (domain classes, domain description,
#                     range classes, range description);
# an individual fits a side when its class lies under one of the classes.
_CONSTRAINTS = {
    RelationKind.INHERES_IN: (
        (BfoClass.SPECIFICALLY_DEPENDENT_CONTINUANT,),
        "a specifically dependent continuant",
        (BfoClass.INDEPENDENT_CONTINUANT,),
        "an independent continuant",
    ),
    RelationKind.PARTICIPATES_IN: (
        (
            BfoClass.SPECIFICALLY_DEPENDENT_CONTINUANT,
            BfoClass.GENERICALLY_DEPENDENT_CONTINUANT,
            BfoClass.INDEPENDENT_CONTINUANT,
        ),
        "a dependent or independent continuant",
        (BfoClass.PROCESS,),
        "a process",
    ),
    RelationKind.IS_ABOUT: (
        (BfoClass.INFORMATION_CONTENT_ENTITY,),
        "an information content entity",
        (BfoClass.CONTINUANT, BfoClass.OCCURRENT),
        "any individual",
    ),
    RelationKind.REALIZED_IN: (
        (BfoClass.REALIZABLE_ENTITY,),
        "a realizable entity",
        (BfoClass.PROCESS,),
        "a process",
    ),
    RelationKind.CAUSALLY_CORRELATED_WITH: (
        (BfoClass.QUALITY,),
        "a quality",
        (BfoClass.MATERIAL_ENTITY,),
        "a material entity",
    ),
}


def validate(
    individuals: Sequence[Individual],
    relations: Sequence[RelationAssertion],
) -> list[Diagnostic]:
    """Check domain/range constraints and information-entity aboutness.

    Dangling subject or object ids are reported (E_UNKNOWN_REF) and skip
    the type checks for that assertion. Every individual typed as an
    information content entity must be the subject of at least one
    is_about assertion. The result is order-independent up to ordering.
    """
    diags: list[Diagnostic] = []
    by_id: dict[str, Individual] = {}
    for ind in individuals:
        if ind.id in by_id:
            diags.append(
                Diagnostic(
                    E_DUP_ID,
                    f"duplicate individual id {_quoted(ind.id)}",
                    record=ind.id,
                )
            )
        else:
            by_id[ind.id] = ind

    about_subjects = set()
    for rel in relations:
        handle = rel.render()
        missing = False
        for role, ref in (("subject", rel.subject), ("object", rel.object)):
            if ref not in by_id:
                diags.append(
                    Diagnostic(
                        E_UNKNOWN_REF,
                        f"{role} {_quoted(ref)} of {rel.kind.value} is not a "
                        f"declared individual",
                        record=handle,
                    )
                )
                missing = True
        if missing:
            continue
        if rel.kind is RelationKind.IS_ABOUT:
            about_subjects.add(rel.subject)
        dom_classes, dom_text, rng_classes, rng_text = _CONSTRAINTS[rel.kind]
        for role, ref, code, classes, text in (
            ("subject", rel.subject, E_DOMAIN, dom_classes, dom_text),
            ("object", rel.object, E_RANGE, rng_classes, rng_text),
        ):
            cls = by_id[ref].cls
            if not any(check_subclass(cls, c) for c in classes):
                diags.append(
                    Diagnostic(
                        code,
                        f"{rel.kind.value} {role} {_quoted(ref)} is "
                        f"{cls.value}, expected {text}",
                        record=handle,
                    )
                )

    for ind in by_id.values():
        if (
            check_subclass(ind.cls, BfoClass.INFORMATION_CONTENT_ENTITY)
            and ind.id not in about_subjects
        ):
            diags.append(
                Diagnostic(
                    E_ABOUTNESS,
                    f"information content entity {_quoted(ind.id)} has no "
                    f"is_about assertion",
                    record=ind.id,
                )
            )
    return diags


def project_timeline(timeline: Timeline) -> OntologyGraph:
    """Emit the individual/relation graph a timeline describes.

    Agents become Agent individuals. Each sensation becomes a Quality
    inhering in its bearer and causally correlated with its correlate.
    Each judgment becomes an act (Process) with a realizing Disposition
    inhering in the judge, the judge participating in the act, and an
    information content entity about the judged target; when the target
    is a sensation, the content is additionally about that sensation's
    correlate, since judging the sensation valuable reaches the person it
    is correlated with. Agents with inhibition episodes get one
    inhibitory-control Disposition each. The timeline must be valid; the
    emitted graph then validates cleanly.

    Minted ids are ``act:<judgment>``, ``disp:<judgment>``,
    ``ice:<judgment>`` and ``inhib:<agent>``. Every id that a valid
    timeline declares, even one built in code, matches ``[a-z][a-z0-9_]*``
    and so has no ``:``, which keeps minted ids apart from all of them.
    """
    individuals: list[Individual] = []
    relations: list[RelationAssertion] = []

    for name in timeline.agents:
        individuals.append(Individual(name, BfoClass.AGENT, name))

    sensations = {ep.id: ep for ep in timeline.sensations}
    for ep in timeline.sensations:
        individuals.append(
            Individual(
                ep.id,
                BfoClass.QUALITY,
                f"{ep.valence.value} sensation of {ep.bearer} "
                f"correlated with {ep.correlate}",
            )
        )
        relations.append(
            RelationAssertion(RelationKind.INHERES_IN, ep.id, ep.bearer)
        )
        relations.append(
            RelationAssertion(
                RelationKind.CAUSALLY_CORRELATED_WITH, ep.id, ep.correlate
            )
        )

    for j in timeline.judgments:
        act_id = f"act:{j.id}"
        disp_id = f"disp:{j.id}"
        ice_id = f"ice:{j.id}"
        individuals.append(
            Individual(act_id, BfoClass.PROCESS, f"act of judgment by {j.agent}")
        )
        individuals.append(
            Individual(
                disp_id, BfoClass.DISPOSITION, f"judgment disposition of {j.agent}"
            )
        )
        individuals.append(
            Individual(
                ice_id,
                BfoClass.INFORMATION_CONTENT_ENTITY,
                f"content of judgment {j.id}",
            )
        )
        relations.append(
            RelationAssertion(RelationKind.INHERES_IN, disp_id, j.agent)
        )
        relations.append(
            RelationAssertion(RelationKind.REALIZED_IN, disp_id, act_id)
        )
        relations.append(
            RelationAssertion(RelationKind.PARTICIPATES_IN, j.agent, act_id)
        )
        relations.append(
            RelationAssertion(RelationKind.IS_ABOUT, ice_id, j.target)
        )
        target = sensations.get(j.target)
        if target is not None:
            relations.append(
                RelationAssertion(RelationKind.IS_ABOUT, ice_id, target.correlate)
            )

    for agent in dict.fromkeys(inh.agent for inh in timeline.inhibitions):
        disp_id = f"inhib:{agent}"
        individuals.append(
            Individual(
                disp_id, BfoClass.DISPOSITION, f"inhibitory control of {agent}"
            )
        )
        relations.append(RelationAssertion(RelationKind.INHERES_IN, disp_id, agent))

    return OntologyGraph(tuple(individuals), tuple(relations))


def export_graph(graph: OntologyGraph) -> str:
    """Render a graph as canonical text: declarations, then assertions.

    One declaration per line ``individual <id> <class-tag> "<label>"`` and
    one assertion per line ``<subject> <kind> <object>``, each block in
    lexicographic order, so equal graphs export byte-identically.
    """
    lines = sorted(
        f'individual {ind.id} {ind.cls.value} "{ind.label}"'
        for ind in graph.individuals
    )
    lines.extend(sorted(rel.render() for rel in graph.relations))
    return "".join(line + "\n" for line in lines)
