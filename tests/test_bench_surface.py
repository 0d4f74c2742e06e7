"""The benchmark's tracer patches racelab by attribute path; pin that surface.

``bench/spans.py`` wraps functions such as ``racelab.ail:Trainer.iteration``
by name, so renaming one of them breaks the benchmark without breaking any
other test. The file is read and executed here, not imported, so nothing is
written under ``bench/``.
"""

import pathlib

SPANS_PY = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _tracer_namespace():
    namespace = {"__name__": "bench_spans"}
    exec(compile(SPANS_PY.read_text(encoding="utf-8"), str(SPANS_PY), "exec"), namespace)
    return namespace


def test_every_target_the_tracer_patches_resolves():
    tracer = _tracer_namespace()
    targets = [t for group in tracer["SPANS"].values() for t in group]
    targets += tracer["SAVE_PARAMS"] + ["racelab.autodiff:Tensor.__init__"]
    unresolved = []
    for target in targets:
        try:
            owner, attr = tracer["_resolve"](target)
            if not callable(getattr(owner, attr)):
                unresolved.append(f"{target} (not callable)")
        except (ImportError, AttributeError) as exc:
            unresolved.append(f"{target} ({exc})")
    assert len(targets) > 20
    assert unresolved == []
