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
from operator import attrgetter
from typing import Iterator, NamedTuple, Sequence

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


def _lineage(cls: BfoClass | None) -> Iterator[BfoClass]:
    while cls is not None:
        yield cls
        cls = _PARENT[cls]


# Each class with every class above it, itself included: walked once here.
_ANCESTORS = {cls: frozenset(_lineage(cls)) for cls in BfoClass}


def check_subclass(a: BfoClass, b: BfoClass) -> bool:
    """True iff ``a`` is ``b`` or lies below it in the lattice."""
    return b in _ANCESTORS[a]


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


def _under(classes: tuple[BfoClass, ...]) -> frozenset[BfoClass]:
    """Every class that is one of ``classes`` or lies below one of them."""
    return frozenset(
        cls for cls in BfoClass if not _ANCESTORS[cls].isdisjoint(classes)
    )


# _CONSTRAINTS with each side's classes widened to every class that fits
# it, so that checking a side is one membership test.
_FITS = {
    kind: (_under(dom_classes), dom_text, _under(rng_classes), rng_text)
    for kind, (dom_classes, dom_text, rng_classes, rng_text)
    in _CONSTRAINTS.items()
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
    is_about = RelationKind.IS_ABOUT
    for rel in relations:
        kind, subject, object_ = rel.kind, rel.subject, rel.object
        if subject not in by_id or object_ not in by_id:
            for role, ref in (("subject", subject), ("object", object_)):
                if ref not in by_id:
                    diags.append(
                        Diagnostic(
                            E_UNKNOWN_REF,
                            f"{role} {_quoted(ref)} of {kind.value} is not a "
                            f"declared individual",
                            record=rel.render(),
                        )
                    )
            continue
        if kind is is_about:
            about_subjects.add(subject)
        dom_fits, dom_text, rng_fits, rng_text = _FITS[kind]
        if by_id[subject].cls in dom_fits and by_id[object_].cls in rng_fits:
            continue
        for role, ref, code, fits, text in (
            ("subject", subject, E_DOMAIN, dom_fits, dom_text),
            ("object", object_, E_RANGE, rng_fits, rng_text),
        ):
            cls = by_id[ref].cls
            if cls not in fits:
                diags.append(
                    Diagnostic(
                        code,
                        f"{kind.value} {role} {_quoted(ref)} is "
                        f"{cls.value}, expected {text}",
                        record=rel.render(),
                    )
                )

    content = BfoClass.INFORMATION_CONTENT_ENTITY
    for ind in by_id.values():
        if content in _ANCESTORS[ind.cls] and ind.id not in about_subjects:
            diags.append(
                Diagnostic(
                    E_ABOUTNESS,
                    f"information content entity {_quoted(ind.id)} has no "
                    f"is_about assertion",
                    record=ind.id,
                )
            )
    return diags


def _graph_rows(timeline: Timeline) -> tuple[list[tuple], list[tuple]]:
    """The projection of :func:`project_timeline` as plain rows.

    One ``(id, class, label)`` row per individual and one ``(subject,
    kind, object)`` row per relation, in emission order. Each class and
    kind is written as its enum value (``"Agent"``, ``"inheres_in"``), the
    word the export prints, so rendering reads no enum member.
    :func:`project_timeline` builds its records from these rows, and
    ``export-bfo`` renders them with :func:`_render_rows` without building
    any record.
    """
    individuals = [(name, "Agent", name) for name in timeline.agents]
    relations = []

    sensations = {}
    for ep in timeline.sensations:
        sensations[ep.id] = ep
        individuals.append((
            ep.id,
            "Quality",
            f"{ep.valence.value} sensation of {ep.bearer} "
            f"correlated with {ep.correlate}",
        ))
        relations.append((ep.id, "inheres_in", ep.bearer))
        relations.append((ep.id, "causally_correlated_with", ep.correlate))

    for j in timeline.judgments:
        act_id = f"act:{j.id}"
        disp_id = f"disp:{j.id}"
        ice_id = f"ice:{j.id}"
        individuals.append(
            (act_id, "Process", f"act of judgment by {j.agent}")
        )
        individuals.append(
            (disp_id, "Disposition", f"judgment disposition of {j.agent}")
        )
        individuals.append(
            (ice_id, "InformationContentEntity", f"content of judgment {j.id}")
        )
        relations.append((disp_id, "inheres_in", j.agent))
        relations.append((disp_id, "realized_in", act_id))
        relations.append((j.agent, "participates_in", act_id))
        relations.append((ice_id, "is_about", j.target))
        target = sensations.get(j.target)
        if target is not None:
            relations.append((ice_id, "is_about", target.correlate))

    for agent in dict.fromkeys(inh.agent for inh in timeline.inhibitions):
        disp_id = f"inhib:{agent}"
        individuals.append(
            (disp_id, "Disposition", f"inhibitory control of {agent}")
        )
        relations.append((disp_id, "inheres_in", agent))

    return individuals, relations


_CLASS_OF = {cls.value: cls for cls in BfoClass}
_KIND_OF = {kind.value: kind for kind in RelationKind}


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
    individuals, relations = _graph_rows(timeline)
    return OntologyGraph(
        tuple([
            Individual(id_, _CLASS_OF[tag], label)
            for id_, tag, label in individuals
        ]),
        tuple([
            RelationAssertion(_KIND_OF[kind], subject, object_)
            for subject, kind, object_ in relations
        ]),
    )


def _render_rows(individuals, relations) -> str:
    """The text of :func:`export_graph` for rows shaped as
    :func:`_graph_rows` returns them."""
    lines = sorted([
        f'individual {id_} {tag} "{label}"' for id_, tag, label in individuals
    ])
    lines += sorted([
        f"{subject} {kind} {object_}" for subject, kind, object_ in relations
    ])
    lines.append("")  # the last line's newline
    return "\n".join(lines)


def export_graph(graph: OntologyGraph) -> str:
    """Render a graph as canonical text: declarations, then assertions.

    One declaration per line ``individual <id> <class-tag> "<label>"`` and
    one assertion per line ``<subject> <kind> <object>``, each block in
    lexicographic order, so equal graphs export byte-identically.
    """
    return _render_rows(
        map(attrgetter("id", "cls.value", "label"), graph.individuals),
        map(attrgetter("subject", "kind.value", "object"), graph.relations),
    )
