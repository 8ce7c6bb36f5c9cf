"""The benchmark's hooks still find every program name they patch.

``perfbench/spans.py`` wraps geminal functions and methods by attribute
name, and each workload in ``perfbench/workloads.py`` times its items at
one attribute.  A refactor that deletes or renames one of those names
fails here, with the fast tests, instead of only when the benchmark runs.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_and_item_clocks_patch_and_restore_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    tracer = spans.Tracer()
    try:
        tracer.install()  # inside the try: a missing name leaves no wrapper behind
        patched = list(tracer._saved)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr).__wrapped__ is original, attr
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr

    assert set(workloads.WORKLOADS) == {"curve-sampled", "point-noisy", "scan-noisy"}
    for name, workload in workloads.WORKLOADS.items():
        owner, attr = workload.item_boundary
        original = getattr(owner, attr)
        with spans.ItemClock(owner, attr):
            assert getattr(owner, attr) is not original, name
        assert getattr(owner, attr) is original, name
