"""Self-test of the output checks: each must pass a clean run and reject a corrupted artifact.

    python3 perfbench/selftest.py

Runs one small round of mock-cold, plugin-sweep and remote-stub, checks it,
then corrupts one artifact at a time in a copy of the round's output and
requires the workload's check to raise CheckFailed. Exits 0 when every
clean run passes and every corruption is rejected.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import checks
import run
import stub
import workloads

SEED = 7


def _rewrite_jsonl(path: Path, index: int, edit) -> None:
    rows = checks.read_jsonl(path)
    edit(rows[index])
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))


def _rewrite_json(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def flip_final_label(run_dir: Path) -> None:
    def edit(row):
        row["final_label"] = checks.LABELS[(checks.LABELS.index(row["final_label"]) + 1) % 3]

    _rewrite_jsonl(run_dir / "fused.cf.historical.jsonl", 0, edit)


def perturb_fused_probability(run_dir: Path) -> None:
    path = run_dir / "fused.cf.historical.jsonl"
    index = next(i for i, row in enumerate(checks.read_jsonl(path)) if row["is_hard"])

    def edit(row):
        row["fused"][0] += 1e-7
        row["fused"][1] -= 1e-7

    _rewrite_jsonl(path, index, edit)


def wrong_metric(run_dir: Path) -> None:
    _rewrite_json(run_dir / "metrics.predictions.base.json", lambda report: report.update(accuracy=report["accuracy"] + 1e-3))


def wrong_grid_f1(run_dir: Path) -> None:
    def edit(result):
        result["grid"][7]["macro_f1"] += 1e-6

    _rewrite_json(run_dir / "sweep.historical.json", edit)


def wrong_selection(run_dir: Path) -> None:
    def edit(result):
        other = next(p for p in result["grid"] if (p["alpha"], p["beta"]) != (result["selected_alpha"], result["selected_beta"]))
        result["selected_alpha"], result["selected_beta"] = other["alpha"], other["beta"]

    _rewrite_json(run_dir / "sweep.cultural.json", edit)


def mismatched_stub_score(run_dir: Path) -> None:
    other = checks.softmax(stub.answer_logprobs("images/elsewhere/000001.jpg", None)).tolist()
    _rewrite_jsonl(run_dir / "predictions.base.jsonl", 3, lambda row: row.update(probs=other))


def context_of_other_type(run_dir: Path) -> None:
    """The distribution the stub serves when the historical context goes with the cultural scoring request."""
    row = checks.read_jsonl(run_dir / "contexts.historical.jsonl")[2]
    image = f"images/{SEED}/{int(row['sample_id'][1:]):06d}.jpg"
    other = checks.softmax(stub.answer_logprobs(image, row["text"])).tolist()
    _rewrite_jsonl(run_dir / "predictions.cultural.jsonl", 2, lambda prediction: prediction.update(probs=other))


def mismatched_stub_context(run_dir: Path) -> None:
    _rewrite_jsonl(run_dir / "contexts.cultural.jsonl", 5, lambda row: row.update(text=row["text"] + " "))


CASES = (
    (workloads.MockCold, 200, (flip_final_label, perturb_fused_probability, wrong_metric)),
    (workloads.PluginSweep, 120, (flip_final_label, wrong_grid_f1, wrong_selection)),
    (workloads.RemoteStub, 40, (mismatched_stub_score, context_of_other_type, mismatched_stub_context)),
)


def main() -> int:
    if not (run.ROOT / "src" / "ctxsent" / "__init__.py").is_file():
        print("ctxsent sources not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.ROOT / "src"))
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    ok = True
    for cls, samples, corruptions in CASES:
        workload = cls()
        workload.samples = samples
        prepared = workload.setup(work / workload.name / "setup", SEED)
        try:
            timed = run._run_rounds(prepared, work / workload.name, seconds=0, trace=0)
            failed = workload.check(prepared, timed)
            print(f"{workload.name}: clean round passes ({failed} counted failures)")
            source = Path(timed["rounds"][0]["dir"])
            for corrupt in corruptions:
                copy = work / workload.name / corrupt.__name__ / source.name
                shutil.copytree(source, copy)
                corrupt(copy)
                try:
                    workload.check(prepared, dict(timed, rounds=[dict(timed["rounds"][0], dir=str(copy))]))
                except checks.CheckFailed as exc:
                    print(f"{workload.name}: {corrupt.__name__} rejected: {exc}")
                else:
                    print(f"{workload.name}: {corrupt.__name__} NOT rejected")
                    ok = False
        finally:
            prepared.close()
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
