"""Template registry and prompt rendering.

Covers the three prompt surfaces: context-generation prompts built from the
knowledge-type templates, single-choice task instructions for classification,
and the pairwise context-comparison (judge) prompt.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from .datamodel import LABELS, Sample, _read_typed, _text
from .digest import stable_digest

PLACEHOLDER = "[x]"


class TemplateError(ValueError):
    """Invalid template body or unusable rendering inputs."""


# Knowledge-type template bodies. Keep byte-exact as distributed; do not edit.
_TEMPLATE_BODIES: dict[str, str] = {
    "artistic": (
        "Identify and discuss any artistic movements or styles that influenced the creation of the image. "
        "Explore how the artist's choice of style aligns with or deviates from prevalent artistic trends of "
        "the time. Sentence: [x]."
    ),
    "biographical": (
        "Delve into the backgrounds of individuals associated with the image and text. Explore the "
        "biographies of artists, authors, or other relevant figures, and discuss how their life experiences "
        "shaped the creation and interpretation of the work. Sentence: [x]"
    ),
    "character": (
        "Focus on characters within the image and sente. Analyze their personalities, relationships, and "
        "potential character development. Discuss how the visual and textual elements contribute to "
        "character portrayal. Sentence: [x]"
    ),
    "cultural": (
        "Explore how the image and sentence reflect or represent aspects of a particular culture. Discuss "
        "the cultural significance, traditions, or values implied by the elements in the image and "
        "sentence. Sentence: [x]"
    ),
    "environmental": (
        "Examine the environmental elements within the image and sentence, discussing ecological factors, "
        "environmental changes, or the relationship between human activities and the depicted setting. "
        "Sentence: [x]"
    ),
    "historical": (
        "Give you an image and sentence, you can provide historical context, important events, and relevant "
        "background information related to the image and sentence. Sentence: [x]"
    ),
    "literary": (
        "Conduct a literary analysis of the sentence, exploring themes, symbolism, and narrative "
        "techniques. Discuss how the words complement or contrast with the visual elements in the image. "
        "Sentence: [x]"
    ),
    "political": (
        "Examine the political during the time the image and text were created. Discuss any political "
        "events, movements, or ideologies that may have influenced the content and tone of the work. "
        "Sentence: [x]"
    ),
    "scientific": (
        "Investigate the scientific elements within the image, delving into discoveries, advancements, or "
        "breakthroughs related to the subject matter mentioned in the sentence. Sentence: [x]"
    ),
    "social": (
        "Investigate the image and text as a form of social commentary. Analyze how the work reflects or "
        "critiques social issues, norms, or inequalities prevalent at the time of creation. Sentence: [x]"
    ),
    "financial": "Give you a sentence and image, you should provide related financial knowledge. Sentence: [x]",
}

# Default task instruction per level: the target is filled in here, the rest per call, as in a custom template.
_INSTRUCTIONS: dict[str, str] = {
    level: (
        "{context_block}Answer the single-choice question.\n"
        'Sentence: "{sentence}"\n'
        f"Question: What's the sentiment polarity of {target}?\n"
        "Options:\n{options}\n"
        "Answer:"
    )
    for level, target in (("sentence", "the sentence"), ("aspect", '"{aspect}"'))
}

LEVELS = tuple(_INSTRUCTIONS)

_OPTIONS = "\n".join(LABELS)

_JUDGE_TEMPLATE = """**System**: In this task, you will be asked to compare the relevance of two paragraphs to determine which one is more pertinent to the provided source sentence and image and benefits the sentiment analysis task the most. There are three options for you to choose from:
1. Context1 is better. If you think Context 1 is more relevant to the source sentence and image and benefits the sentiment analysis task.
2. Context2 is better. If you think Context 2 is more relevant to the source sentence and image and benefits the sentiment analysis task.
3. Context1, Context2 are the same: If you think Context1, Context2 have the same relevance to the source sentence and image, then choose this option.

**Your answer is a JSON DICT that has one key: answer. For example: {"answer": "x. Context x is better."}**

**INPUT**
Source Sentence: "[s]"

Context1: "[x1]"

Context2: "[x2]"

**OUTPUT**
"""


@dataclass(frozen=True)
class PromptTemplate:
    """A knowledge-type template whose body carries exactly one "[x]" placeholder."""

    knowledge_type: str
    body: str
    source: str = "builtin"

    def __post_init__(self) -> None:
        if self.source not in ("builtin", "generated"):
            raise TemplateError(f"template source must be builtin or generated, got {self.source!r}")
        count = self.body.count(PLACEHOLDER)
        if count != 1:
            raise TemplateError(
                f"template {self.knowledge_type!r} must contain {PLACEHOLDER!r} exactly once, found {count}"
            )


@dataclass(frozen=True)
class RenderedPrompt:
    """Final prompt text plus its stable digest.

    When image_token is set, the text starts with it. The hash is the shared
    stable digest over (text, image_token) and doubles as a cache key part.
    """

    text: str
    image_token: str | None
    hash: str

    def __post_init__(self) -> None:
        if self.image_token and not self.text.startswith(self.image_token):
            raise TemplateError("rendered text must begin with its image token")


def _rendered(text: str, image_token: str | None = None) -> RenderedPrompt:
    """The prompt for text, with the image token, when given, on its own line in front."""
    if image_token:
        text = f"{image_token}\n{text}"
    return RenderedPrompt(text=text, image_token=image_token or None, hash=stable_digest(text, image_token or ""))


def registry_templates() -> list[PromptTemplate]:
    """All built-in knowledge-type templates, in registry order."""
    return [PromptTemplate(knowledge_type=k, body=v, source="builtin") for k, v in _TEMPLATE_BODIES.items()]


def get_template(knowledge_type: str) -> PromptTemplate:
    body = _TEMPLATE_BODIES.get(knowledge_type)
    if body is None:
        raise TemplateError(
            f"unknown knowledge type {knowledge_type!r}; built-ins: {', '.join(_TEMPLATE_BODIES)}"
        )
    return PromptTemplate(knowledge_type=knowledge_type, body=body, source="builtin")


def load_template_file(path: str | Path) -> list[PromptTemplate]:
    """Load override templates from a JSONL file of {knowledge_type, body}."""

    def parse(row: Mapping[str, Any]) -> PromptTemplate:
        return PromptTemplate(knowledge_type=_text(row, "knowledge_type"), body=_text(row, "body"), source="generated")

    return _read_typed(path, parse, "template")


def render_context_prompt(
    template: PromptTemplate, sample: Sample, image_token: str | None = None
) -> RenderedPrompt:
    """Substitute the sample sentence into the template, after the image token if the sample has an image."""
    return _rendered(template.body.replace(PLACEHOLDER, sample.sentence), image_token if sample.image else None)


def render_task_instruction(
    sample: Sample,
    level: str,
    context: str | None = None,
    image_token: str | None = None,
    template: str | None = None,
) -> tuple[RenderedPrompt, tuple[str, str, str]]:
    """Build the single-choice classification instruction and its option list.

    The template, by default the level's entry in _INSTRUCTIONS, is formatted
    with {context_block} (an optional delimited context, else empty),
    {sentence}, {aspect} and {options} (the three options in canonical
    polarity order, one a line).

    Returns the rendered prompt and the ordered option texts.
    """
    if level not in LEVELS:
        raise TemplateError(f"level must be one of {LEVELS}, got {level!r}")
    if level == "aspect" and not sample.aspect:
        raise TemplateError(f"sample {sample.id!r}: aspect-level instruction requires an aspect")
    text = (_INSTRUCTIONS[level] if template is None else template).format(
        context_block=f'Context:\n"""\n{context}\n"""\n' if context else "",
        sentence=sample.sentence,
        aspect=sample.aspect or "",
        options=_OPTIONS,
    )
    return _rendered(text, image_token if sample.image else None), LABELS


def render_judge_prompt(sentence: str, context1: str, context2: str) -> RenderedPrompt:
    """Fill the pairwise context-comparison prompt with a sentence and two contexts."""
    for name, value in (("sentence", sentence), ("context1", context1), ("context2", context2)):
        if not value:
            raise TemplateError(f"judge prompt requires a non-empty {name}")
    text = _JUDGE_TEMPLATE.replace("[s]", sentence).replace("[x1]", context1).replace("[x2]", context2)
    return _rendered(text)


def generate_templates(backend, instruction: str) -> list[PromptTemplate]:
    """Ask a text backend for fresh templates and parse its output.

    Paragraphs separated by blank lines become one template each. A paragraph
    without the placeholder gets "Sentence: [x]" appended at the end.
    """
    if not instruction:
        raise TemplateError("template-generation instruction must be non-empty")
    raw = backend.generate(_rendered(instruction))
    paragraphs = [p.strip() for p in raw.split("\n\n") if p.strip()]
    if not paragraphs:
        raise TemplateError(f"backend produced no usable template paragraphs; raw output: {raw!r}")
    templates = []
    for i, paragraph in enumerate(paragraphs, start=1):
        body = paragraph if PLACEHOLDER in paragraph else f"{paragraph} Sentence: {PLACEHOLDER}"
        try:
            templates.append(PromptTemplate(knowledge_type=f"generated_{i}", body=body, source="generated"))
        except TemplateError as exc:
            raise TemplateError(f"unparseable template paragraph {i}: {exc}; raw output: {raw!r}") from None
    return templates
