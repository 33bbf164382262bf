import pytest

from ctxsent.datamodel import Polarity, Sample
from ctxsent.prompts import (
    PLACEHOLDER,
    PromptTemplate,
    TemplateError,
    generate_templates,
    get_template,
    load_template_file,
    registry_templates,
    render_context_prompt,
    render_judge_prompt,
    render_task_instruction,
)

EXPECTED_TYPES = [
    "artistic", "biographical", "character", "cultural", "environmental",
    "historical", "literary", "political", "scientific", "social", "financial",
]

ALEPPO = Sample(
    id="aleppo",
    split="test",
    sentence="RT @AHedengren : # Aleppo before and after . # Syria .",
    image="599097.jpg",
    aspect="Aleppo",
    gold=Polarity.NEGATIVE,
)


class TestRegistry:
    def test_eleven_templates(self):
        templates = registry_templates()
        assert len(templates) == 11
        assert [t.knowledge_type for t in templates] == EXPECTED_TYPES
        assert all(t.source == "builtin" for t in templates)

    def test_historical_golden_string(self):
        assert "provide historical context, important events" in get_template("historical").body

    def test_financial_golden_string(self):
        assert "provide related financial knowledge" in get_template("financial").body

    def test_every_body_has_single_placeholder(self):
        for template in registry_templates():
            assert template.body.count(PLACEHOLDER) == 1

    def test_unknown_type_lists_known_ones(self):
        with pytest.raises(TemplateError, match="historical"):
            get_template("nautical")

    def test_template_without_placeholder_rejected(self):
        with pytest.raises(TemplateError, match="exactly once"):
            PromptTemplate(knowledge_type="broken", body="no placeholder here")

    def test_override_file(self, tmp_path):
        path = tmp_path / "templates.jsonl"
        path.write_text('{"knowledge_type": "historical", "body": "Recall the past. Sentence: [x]"}\n')
        templates = load_template_file(path)
        assert templates[0].source == "generated"
        assert templates[0].body.startswith("Recall")


class TestRenderContextPrompt:
    def test_direct_substitution(self):
        template = PromptTemplate(knowledge_type="t", body="Sentence: [x]", source="generated")
        sample = Sample(id="x", split="test", sentence="hello")
        rendered = render_context_prompt(template, sample)
        assert rendered.text == "Sentence: hello"
        assert rendered.image_token is None

    def test_image_token_prefix_and_sentence_suffix(self):
        rendered = render_context_prompt(get_template("historical"), ALEPPO, image_token="<image>")
        assert rendered.text.startswith("<image>")
        assert rendered.text.endswith(ALEPPO.sentence)
        assert PLACEHOLDER not in rendered.text

    def test_no_image_token_without_image(self):
        sample = Sample(id="x", split="test", sentence="hello")
        rendered = render_context_prompt(get_template("historical"), sample, image_token="<image>")
        assert rendered.image_token is None
        assert not rendered.text.startswith("<image>")

    def test_rendering_is_deterministic(self):
        first = render_context_prompt(get_template("historical"), ALEPPO, image_token="<image>")
        second = render_context_prompt(get_template("historical"), ALEPPO, image_token="<image>")
        assert first.text == second.text
        assert first.hash == second.hash

    def test_image_token_golden(self):
        rendered = render_context_prompt(get_template("financial"), ALEPPO, image_token="<image>")
        assert rendered.text == (
            "<image>\nGive you a sentence and image, you should provide related financial knowledge. "
            "Sentence: RT @AHedengren : # Aleppo before and after . # Syria ."
        )
        assert rendered.image_token == "<image>"
        assert rendered.hash == "a42835d4f8af2e3174cdb764dc6a4ae6db35e4bcdefa65d1f49cae1080f7145d"

    def test_placeholder_removed_for_all_types(self):
        for template in registry_templates():
            rendered = render_context_prompt(template, ALEPPO)
            assert PLACEHOLDER not in rendered.text
            assert ALEPPO.sentence in rendered.text


class TestTaskInstruction:
    def test_sentence_level_structure(self):
        prompt, choices = render_task_instruction(ALEPPO, "sentence")
        assert ALEPPO.sentence in prompt.text
        assert choices == ("negative", "neutral", "positive")
        assert prompt.text.count("negative") == 1

    def test_aspect_level_names_target(self):
        prompt, _ = render_task_instruction(ALEPPO, "aspect")
        assert 'What\'s the sentiment polarity of "Aleppo"?' in prompt.text

    def test_aspect_level_requires_aspect(self):
        sample = Sample(id="x", split="test", sentence="hello")
        with pytest.raises(TemplateError, match="aspect"):
            render_task_instruction(sample, "aspect")

    def test_context_block_precedes_question(self):
        prompt, _ = render_task_instruction(ALEPPO, "sentence", context="A war-torn city.")
        assert "A war-torn city." in prompt.text
        assert prompt.text.index("A war-torn city.") < prompt.text.index("Question:")

    def test_without_context_no_block(self):
        prompt, _ = render_task_instruction(ALEPPO, "sentence")
        assert "Context:" not in prompt.text

    def test_custom_template(self):
        prompt, choices = render_task_instruction(
            ALEPPO,
            "aspect",
            context="ctx",
            template="{context_block}Target {aspect} in: {sentence}\n{options}",
        )
        assert prompt.text.startswith("Context:")
        assert "Target Aleppo" in prompt.text
        assert choices == ("negative", "neutral", "positive")

    def test_deterministic(self):
        a, _ = render_task_instruction(ALEPPO, "aspect", context="ctx")
        b, _ = render_task_instruction(ALEPPO, "aspect", context="ctx")
        assert a.hash == b.hash

    # The default wording in full, with its hash, for each level, with and without a context and an image token.
    @pytest.mark.parametrize(
        "level, context, token, digest",
        [
            ("sentence", None, None, "1f065b3b0858b226f4121c0bc12da1fc45fb86e67fda244685dfa78456d2927c"),
            ("sentence", None, "<image>", "c1bdbc880a49557be8921ac4f7fc78e01bbfed8650479086260709d5c61072c5"),
            ("sentence", "A war-torn city.", None, "cbefbb505d39d03df9beebfc572069a0ed26298948a5935312bc7b663240fb54"),
            ("sentence", "A war-torn city.", "<image>", "74dbf214e710a6941bec2728b9b3423bf4af96318c27589db463034fdf6432f3"),
            ("aspect", None, None, "4ee2b9dc4b961afc67f1c016a4403d3be86100fddf06576f1890ddce7029f205"),
            ("aspect", None, "<image>", "16b76d6affccd33bde74f6bc7c010251b5ecaee3b0546df137f87f3042a6618a"),
            ("aspect", "A war-torn city.", None, "6b23e16697eddfbc527c5b18fe088316c19eb405794a19eb32a9cac99ac80a4c"),
            ("aspect", "A war-torn city.", "<image>", "98d0de3a227367828f7ced2a2c4def1652046911975ef5609e1e65e2596d0135"),
        ],
    )
    def test_default_golden(self, level, context, token, digest):
        question = "the sentence" if level == "sentence" else '"Aleppo"'
        expected = (
            ("<image>\n" if token else "")
            + ('Context:\n"""\nA war-torn city.\n"""\n' if context else "")
            + "Answer the single-choice question.\n"
            + 'Sentence: "RT @AHedengren : # Aleppo before and after . # Syria ."\n'
            + f"Question: What's the sentiment polarity of {question}?\n"
            + "Options:\nnegative\nneutral\npositive\nAnswer:"
        )
        prompt, _ = render_task_instruction(ALEPPO, level, context=context, image_token=token)
        assert (prompt.text, prompt.image_token, prompt.hash) == (expected, token, digest)

    def test_braces_in_sample_text_are_kept(self):
        sample = Sample(id="b", split="test", sentence="a {sentence} {aspect} {0} }{", aspect="{aspect}")
        prompt, _ = render_task_instruction(sample, "aspect", context="{options}")
        assert 'Sentence: "a {sentence} {aspect} {0} }{"' in prompt.text
        assert 'polarity of "{aspect}"?' in prompt.text
        assert '"""\n{options}\n"""' in prompt.text

    def test_empty_image_token_adds_no_line(self):
        prompt, _ = render_task_instruction(ALEPPO, "sentence", image_token="")
        assert prompt.image_token is None
        assert prompt.text.startswith("Answer")


class TestJudgePrompt:
    def test_verbatim_option_line(self):
        rendered = render_judge_prompt("a sentence", "first context", "second context")
        assert "1. Context1 is better." in rendered.text

    def test_sentence_after_source_marker(self):
        rendered = render_judge_prompt("a sentence", "c1", "c2")
        marker = rendered.text.index("Source Sentence:")
        assert rendered.text.index("a sentence", marker) > marker

    def test_identical_contexts_occupy_both_slots(self):
        rendered = render_judge_prompt("s", "same text", "same text")
        first = rendered.text.index('Context1: "same text"')
        second = rendered.text.index('Context2: "same text"')
        assert first < second

    def test_empty_input_rejected(self):
        with pytest.raises(TemplateError, match="context2"):
            render_judge_prompt("s", "c1", "")


class _CannedBackend:
    def __init__(self, text):
        self.text = text

    def generate(self, prompt, image=None):
        return self.text


class TestGenerateTemplates:
    def test_suffix_forced_when_placeholder_missing(self):
        templates = generate_templates(_CannedBackend("Describe the scene in detail."), "give templates")
        assert len(templates) == 1
        assert templates[0].body.endswith("Sentence: [x]")
        assert templates[0].source == "generated"

    def test_three_paragraphs_three_templates(self):
        raw = "First idea.\n\nSecond idea. Sentence: [x]\n\nThird idea."
        templates = generate_templates(_CannedBackend(raw), "give templates")
        assert len(templates) == 3
        assert all(t.body.count(PLACEHOLDER) == 1 for t in templates)

    def test_empty_output_rejected(self):
        with pytest.raises(TemplateError, match="no usable"):
            generate_templates(_CannedBackend("   \n\n  "), "give templates")

    def test_double_placeholder_error_carries_raw(self):
        with pytest.raises(TemplateError, match="raw output"):
            generate_templates(_CannedBackend("bad [x] and [x] again"), "give templates")
