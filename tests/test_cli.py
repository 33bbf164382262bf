import json
import math
from pathlib import Path
from typing import Literal, get_args, get_origin, get_type_hints

import numpy as np
import pytest

from conftest import write_config
from ctxsent.backend import CACHE_SCHEMA, BackendConfig, MockOracleParams, ResponseCache, TransportError
from ctxsent.cli import (
    _COERCIONS,
    DatasetSpec,
    RunConfig,
    SweepSpec,
    build_parser,
    cmd_generate_context,
    load_config,
    main,
)
from ctxsent.classifier import read_outputs
from ctxsent.datamodel import POLARITIES, read_predictions, read_samples
from ctxsent.evaluate import compute_metrics
from ctxsent.fusion import FusionConfig, fuse_outputs
from stubserver import StubServer


def _run(*argv):
    return main([str(a) for a in argv])


def _artifacts(run_path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(run_path.iterdir()) if p.is_file()}


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        write_config(path)
        raw = json.loads(path.read_text())
        raw["mystery"] = 1
        path.write_text(json.dumps(raw))
        from ctxsent.backend import ConfigurationError

        with pytest.raises(ConfigurationError, match="mystery"):
            load_config(path)

    def test_overrides_change_hash(self, tmp_path):
        path = write_config(tmp_path / "config.json")
        base = load_config(path)
        tweaked = load_config(path, {"beta": 0.9})
        assert tweaked.fusion.beta == 0.9
        assert tweaked.config_hash != base.config_hash

    @pytest.mark.parametrize(
        "changes, error",
        [
            ({"dataset": {"path": "x.jsonl", "zzz": 1}}, "unknown dataset keys: ['zzz']"),
            ({"fusion": {"alpha": 0.3, "zzz": 1}}, "unknown fusion keys: ['zzz']"),
            ({"sweep": {"zzz": 1}}, "unknown sweep keys: ['zzz']"),
            ({"generator_backend": {"kind": "mock", "zzz": 1}}, "unknown backend keys: ['zzz']"),
            ({"generator_backend": {"mock": {"seed": 1, "zzz": 1}}}, "unknown backend.mock keys: ['seed', 'zzz']"),
            ({"config_hash": "x"}, "unknown config keys: ['config_hash']"),
            ({"dataset": {"adapter": "canonical-jsonl"}}, "config requires dataset.path"),
            ({"dataset": None}, "config requires dataset.path"),
            ({"fusion": {"beta": 0}, "sweep": {"alpha_grid": [0, 1]}}, None),
            ({"fusion": None, "knowledge_types": []}, None),
            ({"fusion": None, "--alpha": 0.2}, None),
            ({"generator_backend": None, "--backend": "mock"}, None),
            ({"fusion": {"alpha": None}}, "fusion.alpha: must not be null"),
            ({"fusion": {"alpha": "high"}}, "fusion.alpha: could not convert string to float: 'high'"),
            ({"seed": None}, "config.seed: must not be null"),
            ({"seed": 2.7}, "config.seed: expected a whole number, got 2.7"),
            ({"fusion": {"gate_alternatives": "false"}}, "fusion.gate_alternatives: expected true or false, got 'false'"),
            ({"fusion": 5}, "fusion: must be an object, got 5"),
            ({"fusion": 5, "--alpha": 0.2}, "fusion: must be an object, got 5"),
            ({"sweep": [1]}, "sweep: must be an object, got [1]"),
            ({"dataset": "x.jsonl"}, "dataset: must be an object, got 'x.jsonl'"),
            ({"dataset": {"path": "x.jsonl", "column_map": 3}}, "dataset.column_map: must be an object, got 3"),
            ({"generator_backend": 5}, "generator_backend: must be an object, got 5"),
            ({"classifier_backend": [], "--backend": "mock"}, "classifier_backend: must be an object, got []"),
            ({"generator_backend": {"mock": 5}}, "backend.mock: must be an object, got 5"),
            ([1, 2], "config: must be an object, got [1, 2]"),
            ({"knowledge_types": "historical"}, "config.knowledge_types: expected a list of strings, got 'historical'"),
            ({"knowledge_types": ["historical", 3]}, "config.knowledge_types: expected a list of strings, got ['historical', 3]"),
            ({"knowledge_types": None}, None),
            ({"level": "bogus"}, "config.level: must be one of ('sentence', 'aspect'), got 'bogus'"),
            ({"score_normalization": "bogus"}, "config.score_normalization: must be one of ('total', 'per-token'), got 'bogus'"),
            ({"knowledge_types": ["historical", "cultural", "historical"]}, "config.knowledge_types: 'historical' is listed twice"),
            ({"knowledge_types": ["historical", "bogus"]}, "config.knowledge_types: unknown knowledge type 'bogus'; built-ins: "
             "artistic, biographical, character, cultural, environmental, historical, literary, political, scientific, "
             "social, financial"),
            ({"classifier_backend": {"temperature": math.nan}}, "temperature must be finite and >= 0, got nan"),
            ({"generator_backend": {"timeout": 0}}, "timeout must be finite and > 0, got 0.0"),
            ({"generator_backend": {"timeout": -5}}, "timeout must be finite and > 0, got -5.0"),
            ({"classifier_backend": {"timeout": math.nan}}, "timeout must be finite and > 0, got nan"),
            ({"classifier_backend": {"max_retries": -3}}, "max_retries must be >= 0, got -3"),
            ({"dataset": {"path": "x"}, "fusion": {"alpha": True, "beta": False}}, "fusion.alpha: expected a number, got True"),
            ({"fusion": {"beta": False}}, "fusion.beta: expected a number, got False"),
            ({"classifier_backend": {"max_retries": True}}, "backend.max_retries: expected a number, got True"),
            ({"generator_backend": {"concurrency_limit": True}}, "backend.concurrency_limit: expected a number, got True"),
            ({"seed": False}, "config.seed: expected a number, got False"),
            ({"sweep": {"alpha_grid": [True]}}, "sweep.alpha_grid: expected a number, got True"),
            ({"generator_backend": {"mock": {"base_accuracy": True}}}, "backend.mock.base_accuracy: expected a number, got True"),
            ({"generator_backend": {"mock": {"easy_context_accuracy": False}}},
             "backend.mock.easy_context_accuracy: expected a number, got False"),
            ({"dataset": {"path": "x.jsonl", "adapter": "csv"}},
             "dataset.adapter: must be one of ('canonical-jsonl', 'twitter-tsv', 'msed'), got 'csv'"),
            ({"dataset": {"path": "x.jsonl", "split": "validation"}},
             "dataset.split: must be one of ('train', 'dev', 'test'), got 'validation'"),
            ({"classifier_backend": {"mock": {"hard_fraction": None}}}, "backend.mock.hard_fraction: must not be null"),
            ({"generator_backend": {"mock": {"seed": 5}}}, "unknown backend.mock keys: ['seed']"),
            ({"run_id": 5}, "config.run_id: expected text, got 5"),
            ({"out_dir": 7}, "config.out_dir: expected text, got 7"),
            ({"cache_path": 4}, "config.cache_path: expected text, got 4"),
            ({"instruction_template_file": 3}, "config.instruction_template_file: expected text, got 3"),
            ({"image_token": 3}, "config.image_token: expected text, got 3"),
            ({"template_file": 9}, "config.template_file: expected text, got 9"),
            ({"generator_backend": {"model_id": 5}}, "backend.model_id: expected text, got 5"),
            ({"level": ["sentence"]}, "config.level: expected text, got ['sentence']"),
            ({"dataset": {"path": 1}}, "dataset.path: expected text, got 1"),
            ({"sweep": {"mode": "bogus"}}, "sweep.mode: must be one of ('two-phase', 'full-grid'), got 'bogus'"),
            ({"instruction_template_file": "absent.txt"},
             "config.instruction_template_file: [Errno 2] No such file or directory: 'absent.txt'"),
            ({"sweep": {"alpha_grid": "0", "beta_grid": "05"}}, "sweep.alpha_grid: expected a list of numbers, got '0'"),
            ({"sweep": {"beta_grid": "0"}}, "sweep.beta_grid: expected a list of numbers, got '0'"),
            ({"sweep": {"beta_grid": [5]}}, "sweep.beta_grid: expected numbers within [0, 1], got 5.0"),
            ({"sweep": {"alpha_grid": [0.1, -0.2]}}, "sweep.alpha_grid: expected numbers within [0, 1], got -0.2"),
        ],
    )
    def test_config_table(self, tmp_path, capsys, changes, error):
        # A key starting with "--" is a command-line override, not a config key; a list row is the whole file.
        keys = changes if isinstance(changes, dict) else {}
        overrides = {key[2:]: value for key, value in keys.items() if key.startswith("--")}
        path = write_config(tmp_path / "config.json", **{k: v for k, v in keys.items() if not k.startswith("--")})
        if keys is not changes:
            path.write_text(json.dumps(changes))
        argv = [arg for key, value in overrides.items() for arg in (f"--{key}", value)]
        if error is not None:
            assert _run("ingest", "--config", path, *argv) == 1
            report = {"error": {"type": "ConfigurationError", "message": error}}
            assert capsys.readouterr().err.splitlines() == [json.dumps(report)]
            assert not (tmp_path / "out").exists()
            return
        config = load_config(path, overrides)
        assert _run("ingest", "--config", path, *argv) == 0
        if "sweep" in changes:
            assert repr(config.fusion.beta) == "0.0"
            assert config.sweep.alpha_grid == (0.0, 1.0)
            assert all(type(a) is float for a in config.sweep.alpha_grid)
            for command in ("generate-context", "predict", "sweep"):
                assert _run(command, "--config", path) == 0
            rows = (tmp_path / "out" / "run" / "sweep.historical.csv").read_text().splitlines()
            assert [row.split(",")[0] for row in rows[1:]] == ["0.3"] * 10 + ["0.0", "1.0"]
            assert rows[1].startswith("0.3,0.0,")
        else:
            assert config.fusion == FusionConfig(alpha=overrides.get("alpha", 0.3))
            assert config.knowledge_types == ("historical",)
            assert config.generator_backend == BackendConfig(kind="mock", model_id="mock-generator")

    def test_mock_section_read_like_any_section(self, tmp_path):
        mock = {"base_accuracy": "0.7", "hard_fraction": 0, "easy_context_accuracy": None}
        path = write_config(tmp_path / "config.json", generator_backend={"mock": mock})
        params = load_config(path).generator_backend.mock
        assert params == MockOracleParams(base_accuracy=0.7, hard_fraction=0.0)
        assert type(params.hard_fraction) is float

    def test_every_config_field_has_a_rule(self):
        # A field is converted through _COERCIONS, is a Literal or is a section its caller builds; none passes unchecked.
        sections = {DatasetSpec, SweepSpec, BackendConfig, MockOracleParams, FusionConfig}
        for cls in (RunConfig, *sections):
            for name, hint in get_type_hints(cls).items():
                ruled = hint in _COERCIONS or get_origin(hint) is Literal
                assert ruled or set(get_args(hint) or (hint,)) - {type(None)} <= sections, (cls, name)

    @pytest.mark.parametrize(
        "body, reason",
        [
            ("Say {bogus} about {sentence}", "unknown placeholder ('bogus')"),
            ("Say {} about {sentence}", "unknown placeholder (Replacement index 0 out of range for positional args tuple)"),
            ("Say {sentence", "expected '}' before end of string"),
            ("{context_block}{{{aspect}}} in {sentence}\n{options}", None),
        ],
    )
    def test_instruction_template_checked_on_load(self, tmp_path, capsys, body, reason):
        template = tmp_path / "instruction.txt"
        template.write_text(body)
        path = write_config(tmp_path / "config.json", instruction_template_file=str(template))
        if reason is None:
            assert _run("pipeline", "--config", path) == 0
            return
        assert _run("pipeline", "--config", path) == 1
        message = json.loads(capsys.readouterr().err.splitlines()[-1])["error"]["message"]
        assert message.startswith(f"config.instruction_template_file: {reason}")
        assert not (tmp_path / "out").exists()

    def test_readme_example_config(self, tmp_path):
        raw = {
            "dataset": {"path": "data/test.jsonl", "adapter": "canonical-jsonl", "column_map": None, "split": "test"},
            "level": "sentence",
            "generator_backend": {"kind": "mock", "model_id": "mock-generator"},
            "classifier_backend": {
                "kind": "remote", "model_id": "my-lvlm", "base_url": "http://host:8000",
                "api_key_env": "MY_API_KEY", "temperature": 0, "timeout": 30,
                "max_retries": 2, "concurrency_limit": 4,
            },
            "knowledge_types": ["historical"],
            "fusion": {"alpha": 0.3, "beta": 0.45, "strategy": "cf", "cxmi_threshold": 1.1, "gate_alternatives": False},
            "sweep": {
                "alpha_grid": [0.1, 0.2, 0.3, 0.4, 0.5],
                "beta_grid": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
                "mode": "two-phase",
                "fixed_alpha": 0.3,
            },
            "out_dir": "out",
            "run_id": None,
            "seed": 0,
            "image_token": "<image>",
            "cache_path": "cache.jsonl",
            "score_normalization": "total",
            "template_file": None,
            "instruction_template_file": None,
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(raw))
        expected = RunConfig(
            dataset=DatasetSpec(path="data/test.jsonl"),
            generator_backend=BackendConfig(kind="mock", model_id="mock-generator"),
            classifier_backend=BackendConfig(
                kind="remote", model_id="my-lvlm", base_url="http://host:8000", api_key_env="MY_API_KEY"
            ),
            fusion=FusionConfig(),
            sweep=SweepSpec(),
            cache_path="cache.jsonl",
            config_hash="53a0d73fd4f866940c959135f720d535ec29661239b62f3fda3948537c6dfab1",
        )
        config = load_config(path)
        # repr also tells 0 from 0.0, so it checks the coercions that == cannot.
        assert config == expected
        assert repr(config) == repr(expected)

    def test_template_file_types_are_known(self, tmp_path):
        templates = tmp_path / "templates.jsonl"
        templates.write_text('{"knowledge_type": "nautical", "body": "Recall the sea. Sentence: [x]"}\n')
        path = write_config(tmp_path / "config.json", knowledge_types=["nautical"], template_file=str(templates))
        assert _run("pipeline", "--config", path) == 0
        assert (tmp_path / "out" / "run" / "fused.cf.nautical.jsonl").exists()

    @pytest.mark.parametrize(
        "command, accepted",
        [
            ("generate-context", True),
            ("predict", True),
            ("fuse", True),
            ("sweep", True),
            ("ingest", False),
            ("evaluate", False),
            ("compare-types", False),
            ("analyze-saliency", False),
            ("pipeline", False),
        ],
    )
    def test_knowledge_type_only_where_it_narrows(self, command, accepted):
        argv = [command, "--config", "run.json", "--knowledge-type", "cultural"]
        if command == "analyze-saliency":
            argv += ["--dump", "d.json"]
        if accepted:
            assert build_parser().parse_args(argv).knowledge_type == "cultural"
            return
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(argv)
        assert info.value.code == 2

    @pytest.mark.parametrize("command", ["generate-context", "predict", "fuse", "sweep"])
    def test_unconfigured_knowledge_type_is_rejected(self, tmp_path, capsys, command):
        path = write_config(tmp_path / "config.json", knowledge_types=["historical", "cultural"])
        assert _run(command, "--config", path, "--knowledge-type", "financial") == 1
        message = "--knowledge-type: 'financial' is not in config.knowledge_types ['historical', 'cultural']"
        report = {"error": {"type": "ConfigurationError", "message": message}}
        assert capsys.readouterr().err.splitlines() == [json.dumps(report)]
        assert not (tmp_path / "out").exists()

    def test_knowledge_type_is_scope_filter_not_override(self, tmp_path):
        path = write_config(tmp_path / "config.json", knowledge_types=["historical", "financial"])
        assert _run("ingest", "--config", path) == 0
        assert _run("generate-context", "--config", path, "--knowledge-type", "financial") == 0
        run_path = tmp_path / "out" / "run"
        assert (run_path / "contexts.financial.jsonl").exists()
        assert not (run_path / "contexts.historical.jsonl").exists()


class TestPipelineCommands:
    def test_full_pipeline_writes_expected_artifacts(self, tmp_path):
        config_path = write_config(tmp_path / "config.json")
        assert _run("pipeline", "--config", config_path) == 0
        run_path = tmp_path / "out" / "run"
        names = {p.name for p in run_path.iterdir()}
        assert "samples.jsonl" in names
        assert "contexts.historical.jsonl" in names
        assert "predictions.base.jsonl" in names
        assert "predictions.historical.jsonl" in names
        assert "fused.cf.historical.jsonl" in names
        assert "metrics.predictions.base.json" in names
        assert "metrics.fused.cf.historical.json" in names
        assert "manifest.ingest.json" in names

    def test_missing_upstream_names_expected_file(self, tmp_path, capsys):
        config_path = write_config(tmp_path / "config.json")
        assert _run("fuse", "--config", config_path) == 1
        err = capsys.readouterr().err
        report = json.loads(err.strip().splitlines()[-1])
        assert "predictions.base.jsonl" in report["error"]["message"]

    @pytest.mark.parametrize(
        "damage, problem", [("gap", "no context for samples ['t000']"), ("swap", "contexts of type ['cultural']")]
    )
    def test_predict_refuses_contexts_that_do_not_match(self, tmp_path, capsys, damage, problem):
        config_path = write_config(tmp_path / "config.json", seed=3, knowledge_types=["historical", "cultural"])
        assert _run("pipeline", "--config", config_path) == 0
        run_path = tmp_path / "out" / "run"
        contexts = run_path / "contexts.historical.jsonl"
        if damage == "gap":
            contexts.write_text("".join(contexts.read_text().splitlines(keepends=True)[1:]))
        else:
            contexts.write_bytes((run_path / "contexts.cultural.jsonl").read_bytes())
        predictions = (run_path / "predictions.historical.jsonl").read_bytes()
        capsys.readouterr()
        assert _run("predict", "--config", config_path, "--knowledge-type", "historical") == 1
        message = f"{contexts}: {problem}; rerun `ctxsent generate-context --knowledge-type historical`"
        assert capsys.readouterr().err.splitlines()[-1] == json.dumps({"error": {"type": "DatasetError", "message": message}})
        assert (run_path / "predictions.historical.jsonl").read_bytes() == predictions

    def test_fuse_beta_zero_reproduces_base_vectors(self, tmp_path):
        config_path = write_config(tmp_path / "config.json")
        assert _run("ingest", "--config", config_path) == 0
        assert _run("generate-context", "--config", config_path) == 0
        assert _run("predict", "--config", config_path) == 0
        assert _run("fuse", "--config", config_path, "--beta", 0) == 0
        run_path = tmp_path / "out" / "run"
        base = read_outputs(run_path / "predictions.base.jsonl")
        fused = read_predictions(run_path / "fused.cf.historical.jsonl")
        assert len(base) == len(fused) == 30
        assert fused.fused.tolist() == base.probs.tolist()

    def test_sweep_command(self, tmp_path):
        config_path = write_config(
            tmp_path / "config.json",
            sweep={"alpha_grid": [0.2, 0.3], "beta_grid": [0.0, 0.45, 0.9], "mode": "two-phase"},
        )
        for command in ("ingest", "generate-context", "predict", "sweep"):
            assert _run(command, "--config", config_path) == 0
        payload = json.loads((tmp_path / "out" / "run" / "sweep.historical.json").read_text())
        assert payload["selected_beta"] in (0.0, 0.45, 0.9)
        assert payload["selected_alpha"] in (0.2, 0.3)
        betas_at_fixed = [g["beta"] for g in payload["grid"] if g["alpha"] == 0.3]
        assert set(betas_at_fixed) >= {0.0, 0.45, 0.9}

    def test_sweep_fuses_with_the_run_config(self, tmp_path):
        # gate_alternatives changes what `fuse` does with `average`, so the
        # sweep must score each point with it too.
        fusion = {"alpha": 0.3, "beta": 0.5, "strategy": "average", "gate_alternatives": True}
        config_path = write_config(
            tmp_path / "config.json",
            seed=3,
            fusion=fusion,
            sweep={"alpha_grid": [0.1, 0.3], "beta_grid": [0.5], "mode": "full-grid"},
        )
        for command in ("ingest", "generate-context", "predict", "sweep"):
            assert _run(command, "--config", config_path) == 0
        run_path = tmp_path / "out" / "run"
        base = read_outputs(run_path / "predictions.base.jsonl")
        ctx = read_outputs(run_path / "predictions.historical.jsonl")
        golds = {s.id: s.gold for s in read_samples(run_path / "samples.jsonl")}
        grid = json.loads((run_path / "sweep.historical.json").read_text())["grid"]
        assert [g["alpha"] for g in grid] == [0.1, 0.3]
        for point in grid:
            config = FusionConfig(alpha=point["alpha"], beta=0.5, strategy="average", gate_alternatives=True)
            fused = fuse_outputs(base, ctx, config)
            report = compute_metrics([golds[i] for i in fused.ids], [POLARITIES[i] for i in fused.labels.tolist()])
            assert point["macro_f1"] == report.macro_f1
        assert grid[0]["macro_f1"] != grid[1]["macro_f1"]

    def test_evaluate_accepts_fused_and_raw(self, tmp_path):
        config_path = write_config(tmp_path / "config.json")
        assert _run("pipeline", "--config", config_path) == 0
        run_path = tmp_path / "out" / "run"
        assert _run("evaluate", "--config", config_path, "--predictions", "predictions.historical.jsonl") == 0
        payload = json.loads((run_path / "metrics.predictions.historical.json").read_text())
        assert 0.0 <= payload["macro_f1"] <= 1.0
        entropy_payload = json.loads((run_path / "entropy.predictions.historical.json").read_text())
        assert entropy_payload["hard"]["hard_only"] is True

    def test_evaluate_reports_unscored_samples(self, tmp_path, capsys):
        config_path = write_config(tmp_path / "config.json")
        assert _run("pipeline", "--config", config_path) == 0
        predictions = tmp_path / "out" / "run" / "predictions.base.jsonl"
        lines = predictions.read_text().splitlines(keepends=True)
        dropped = json.loads(lines[4])["sample_id"]
        predictions.write_text("".join(lines[:4] + lines[5:]))
        capsys.readouterr()
        assert _run("evaluate", "--config", config_path) == 0
        metrics = json.loads((tmp_path / "out" / "run" / "metrics.predictions.base.json").read_text())
        assert metrics["n"] == 29
        err = capsys.readouterr().err
        assert f"scored 29 of 30 samples; 1 have no prediction (e.g. ['{dropped}'])" in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            ("unknown id", "ids absent from samples.jsonl cannot be scored: ['not-a-sample']"),
            ("no label", "samples without gold labels cannot be scored: ['{first}']"),
        ],
    )
    def test_evaluate_tells_unknown_ids_from_unlabelled_samples(self, tmp_path, capsys, edit, message):
        config_path = write_config(tmp_path / "config.json")
        assert _run("pipeline", "--config", config_path) == 0
        run_path = tmp_path / "out" / "run"
        lines = (run_path / "predictions.base.jsonl").read_text().splitlines(keepends=True)
        first = json.loads(lines[0])["sample_id"]
        if edit == "unknown id":
            lines[1] = json.dumps({**json.loads(lines[1]), "sample_id": "not-a-sample"}) + "\n"
        else:
            samples = run_path / "samples.jsonl"
            rows = [json.loads(line) for line in samples.read_text().splitlines()]
            assert rows[0]["id"] == first
            del rows[0]["label"]
            samples.write_text("".join(json.dumps(row) + "\n" for row in rows))
        (tmp_path / "ext.jsonl").write_text("".join(lines))
        capsys.readouterr()
        assert _run("evaluate", "--config", config_path, "--predictions", tmp_path / "ext.jsonl") == 1
        report = {"error": {"type": "DatasetError", "message": message.format(first=first)}}
        assert capsys.readouterr().err.splitlines() == [json.dumps(report)]

    @pytest.mark.parametrize(
        "name, field, value, reason",
        [
            ("fused.cf.historical.jsonl", "delta", None, "bad prediction record: float() argument must be a string or "
             "a real number, not 'NoneType'"),
            ("fused.cf.historical.jsonl", "with_context", [0.2, None, 0.8], "bad prediction record: float() argument "
             "must be a string or a real number, not 'NoneType'"),
            ("predictions.historical.jsonl", "raw_scores", [0.0, "x", 0.0], "bad classifier output record: could not "
             "convert string to float: 'x'"),
        ],
    )
    def test_evaluate_rejects_a_bad_row(self, tmp_path, capsys, name, field, value, reason):
        config_path = write_config(tmp_path / "config.json")
        assert _run("pipeline", "--config", config_path) == 0
        path = tmp_path / "out" / "run" / name
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = json.dumps({**json.loads(lines[2]), field: value}) + "\n"
        path.write_text("".join(lines))
        capsys.readouterr()
        assert _run("evaluate", "--config", config_path, "--predictions", name) == 1
        report = {"error": {"type": "SchemaError", "message": f"{path}: line 3: {reason}"}}
        assert capsys.readouterr().err.splitlines() == [json.dumps(report)]

    @pytest.mark.parametrize("command", [["fuse"], ["evaluate"], ["sweep"]])
    def test_a_repeated_sample_id_stops_the_command(self, tmp_path, capsys, command):
        config_path = write_config(tmp_path / "config.json")
        assert _run("pipeline", "--config", config_path) == 0
        path = tmp_path / "out" / "run" / "predictions.base.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        first = json.loads(lines[0])["sample_id"]
        lines[1] = json.dumps({**json.loads(lines[1]), "sample_id": first}) + "\n"
        path.write_text("".join(lines))
        capsys.readouterr()
        assert _run(*command, "--config", config_path) == 1
        message = f"{path}: line 2: sample id {first!r} repeats an earlier row"
        report = {"error": {"type": "SchemaError", "message": message}}
        assert capsys.readouterr().err.splitlines() == [json.dumps(report)]

    def test_manifest_contents(self, tmp_path):
        config_path = write_config(tmp_path / "config.json")
        assert _run("ingest", "--config", config_path) == 0
        manifest = json.loads((tmp_path / "out" / "run" / "manifest.ingest.json").read_text())
        assert manifest["command"] == "ingest"
        assert manifest["outputs"] == ["samples.jsonl"]
        assert len(manifest["config_hash"]) == 64
        assert "tiny30.jsonl" in manifest["inputs"]
        assert "ctxsent" in manifest["versions"]


class TestHandOff:
    @pytest.mark.parametrize(
        "fusion",
        [
            {"alpha": 0.3, "beta": 0.45, "strategy": "cf"},
            {"alpha": 0.3, "beta": 0.45, "strategy": "average", "gate_alternatives": True},
        ],
    )
    def test_pipeline_writes_what_the_single_stages_write(self, tmp_path, fusion):
        config_path = write_config(
            tmp_path / "config.json", seed=3, knowledge_types=["historical", "cultural"], fusion=fusion
        )
        assert _run("pipeline", "--config", config_path, "--out", tmp_path / "chained") == 0
        staged = tmp_path / "staged"
        fused = [f"fused.{fusion['strategy']}.{kt}.jsonl" for kt in ("historical", "cultural")]
        commands = [["ingest"], ["generate-context"], ["predict"], ["fuse"], ["evaluate"]]
        commands += [["evaluate", "--predictions", name] for name in fused] + [["compare-types"]]
        for command in commands:
            assert _run(*command, "--config", config_path, "--out", staged) == 0
        chained = _artifacts(tmp_path / "chained" / "run")
        assert len(chained) == 30
        assert chained == _artifacts(staged / "run")

    def test_pipeline_reads_no_artifact_back(self, tmp_path, monkeypatch):
        import ctxsent.cli as cli

        reads = []
        for name in ("read_samples", "read_outputs", "read_predictions", "read_contexts"):
            original = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *a, _name=name, _fn=original: reads.append(_name) or _fn(*a))
        config_path = write_config(tmp_path / "config.json", seed=3, knowledge_types=["historical", "cultural"])
        assert _run("pipeline", "--config", config_path) == 0
        assert (tmp_path / "out" / "run" / "knowledge_types.csv").exists()
        assert reads == []


class TestDeterminism:
    def test_two_runs_byte_identical(self, tmp_path):
        (tmp_path / "first").mkdir()
        (tmp_path / "second").mkdir()
        first_config = write_config(tmp_path / "first" / "config.json")
        second_config = write_config(tmp_path / "second" / "config.json")
        second_dir = tmp_path / "second"
        assert _run("pipeline", "--config", first_config) == 0
        assert _run("pipeline", "--config", second_config) == 0
        first = _artifacts(tmp_path / "first" / "out" / "run")
        second = _artifacts(second_dir / "out" / "run")
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], f"artifact {name} differs between runs"

    def test_stage_rerun_byte_identical(self, tmp_path):
        config_path = write_config(tmp_path / "config.json")
        assert _run("pipeline", "--config", config_path) == 0
        run_path = tmp_path / "out" / "run"
        before = _artifacts(run_path)
        assert _run("predict", "--config", config_path) == 0
        assert _run("fuse", "--config", config_path) == 0
        assert _run("evaluate", "--config", config_path, "--predictions", "fused.cf.historical.jsonl") == 0
        after = _artifacts(run_path)
        assert before == after


def _remote_generator(url, **kwargs):
    return {"kind": "remote", "model_id": "stub", "base_url": url, "api_key_env": "CTXSENT_TEST_KEY", **kwargs}


class TestRemoteGeneration:
    def test_contexts_keep_input_order_within_the_cap(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CTXSENT_TEST_KEY", "k")

        def echo(body):
            return 200, {"choices": [{"message": {"content": body["messages"][0]["content"][0]["text"]}}]}

        with StubServer(echo, delay=0.02) as server:
            config_path = write_config(
                tmp_path / "config.json", generator_backend=_remote_generator(server.base_url, concurrency_limit=3)
            )
            assert _run("ingest", "--config", config_path) == 0
            assert _run("generate-context", "--config", config_path) == 0
        run_path = tmp_path / "out" / "run"
        samples = read_samples(run_path / "samples.jsonl")
        contexts = [json.loads(line) for line in (run_path / "contexts.historical.jsonl").read_text().splitlines()]
        assert [c["sample_id"] for c in contexts] == [s.id for s in samples]
        assert all(s.sentence in c["text"] for s, c in zip(samples, contexts))
        assert 1 < server.max_concurrent <= 3

    def test_failure_exits_1_and_keeps_status(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CTXSENT_TEST_KEY", "k")
        with StubServer(lambda body: (503, {"error": "busy"})) as server:
            config_path = write_config(
                tmp_path / "config.json", generator_backend=_remote_generator(server.base_url, max_retries=0)
            )
            assert _run("ingest", "--config", config_path) == 0
            assert _run("generate-context", "--config", config_path) == 1
            with pytest.raises(TransportError) as exc_info:
                samples = read_samples(tmp_path / "out" / "run" / "samples.jsonl")
                cmd_generate_context(load_config(config_path), samples, "historical")
        assert exc_info.value.last_status == 503


class TestCacheScope:
    def test_one_cache_per_pipeline(self, tmp_path, monkeypatch):
        built = []
        original = ResponseCache.__init__

        def counting_init(self, path):
            built.append(path)
            original(self, path)

        monkeypatch.setattr(ResponseCache, "__init__", counting_init)
        cache_path = tmp_path / "cache.jsonl"
        config_path = write_config(
            tmp_path / "config.json", cache_path=str(cache_path), knowledge_types=["historical", "cultural"]
        )
        assert _run("pipeline", "--config", config_path) == 0
        assert built == [str(cache_path)]
        assert _run("evaluate", "--config", config_path) == 0
        assert len(built) == 1

    def test_truncated_cache_stays_cold_within_one_process(self, tmp_path, monkeypatch):
        lookups = []
        original = ResponseCache.get

        def counting_get(self, key):
            entry = original(self, key)
            lookups.append(entry is not None)
            return entry

        monkeypatch.setattr(ResponseCache, "get", counting_get)
        cache_path = tmp_path / "cache.jsonl"
        config_path = write_config(tmp_path / "config.json", cache_path=str(cache_path))
        assert _run("pipeline", "--config", config_path) == 0
        first = len(lookups)
        cache_path.write_bytes(b"")
        assert _run("pipeline", "--config", config_path) == 0
        second = lookups[first:]
        assert len(second) == first == 90
        assert not any(second)
        assert len(cache_path.read_text().splitlines()) == 90

    def test_older_mock_answers_are_never_served(self, tmp_path):
        def run(name, cache_path):
            (tmp_path / name).mkdir()
            config_path = write_config(tmp_path / name / "config.json", cache_path=cache_path)
            for command in ("ingest", "generate-context", "predict"):
                assert _run(command, "--config", config_path) == 0
            artifacts = _artifacts(tmp_path / name / "out" / "run")
            return {n: b for n, b in artifacts.items() if n.startswith(("contexts.", "predictions."))}

        def rewrite(schema):
            stale = {"text": "stale context.", "scores": {"scores": [-0.1, -3.0, -3.0], "normalization_mode": "total"}}
            rows = [{**line, "schema": schema, "value": stale[line["kind"]]} for line in lines]
            cache_path.write_text("".join(json.dumps(row) + "\n" for row in rows))

        uncached = run("uncached", None)
        cache_path = tmp_path / "cache.jsonl"
        run("fill", str(cache_path))
        lines = [json.loads(line) for line in cache_path.read_text().splitlines()]
        # Wrong answers under today's keys, written by the previous mock's schema.
        rewrite("3")
        assert run("stale", str(cache_path)) == uncached
        # Under the current schema the same lines are served: the keys are the ones predict looks up.
        rewrite(CACHE_SCHEMA)
        assert run("served", str(cache_path)) != uncached


class TestJudgeAndSaliencyCommands:
    def test_judge_prompt_stdout(self, capsys):
        assert _run("judge-prompt", "--sentence", "s", "--context1", "c1", "--context2", "c2") == 0
        out = capsys.readouterr().out
        assert "1. Context1 is better." in out
        assert 'Source Sentence: "s"' in out

    def test_analyze_saliency(self, tmp_path):
        config_path = write_config(tmp_path / "config.json")
        dump_path = tmp_path / "dump.json"
        attention = np.full((2, 4, 4), 0.5)
        grad = np.full((2, 4, 4), 2.0)
        dump_path.write_text(json.dumps({
            "metadata": {"model_id": "m", "sample_id": "s"},
            "prediction_index": 3,
            "context_indices": [0],
            "input_indices": [1, 2],
            "layers": [{"attention": attention.tolist(), "grad": grad.tolist()}],
        }))
        assert _run("analyze-saliency", "--config", config_path, "--dump", dump_path) == 0
        csv_text = (tmp_path / "out" / "run" / "saliency.dump.csv").read_text()
        assert csv_text.splitlines()[1] == "0,2.0,2.0"
