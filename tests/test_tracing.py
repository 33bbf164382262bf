"""The benchmark's tracer (perfbench/tracing.py) rebinds ctxsent names by getattr.

A refactor that unbinds one of those names makes `perfbench/run.py --trace 1`
fail; installing the tracer here makes the test suite fail first.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_undoes(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    from ctxsent import classifier, cli, datamodel

    names = [(cli, "read_outputs"), (classifier, "read_jsonl"), (classifier, "write_jsonl"), (datamodel, "read_jsonl")]
    originals = [getattr(owner, name) for owner, name in names]
    undo = tracing.install(tracing.Tracer())
    try:
        assert all(getattr(owner, name) is not original for (owner, name), original in zip(names, originals))
    finally:
        undo()
    assert [getattr(owner, name) for owner, name in names] == originals
