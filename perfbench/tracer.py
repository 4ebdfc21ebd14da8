"""Run one lplab CLI call with a span around every traced layer function.

Usage: python3 perfbench/tracer.py SPANS.json -- <lplab arguments>

Each traced function is replaced at every module attribute that binds it:
quasinorms, maximal, verify and cli import their names with
`from .x import y`, so patching the defining module alone would miss
those calls.  numpy.fft's transforms are wrapped as the fields layer's
FFTs.  Spans stay in memory and are written once, when the command
returns, as {"spans": [[name, start, end, parent, detail], ...],
"overhead_s": ...}.  detail is the point count of an FFT and the
distinct-step key of an iterated difference.
"""

from __future__ import annotations

import json
import sys
import time

# span name -> (defining module, traced functions)
TRACED = {
    "cli": ("lplab.cli", ("main",)),
    "verify": ("lplab.verify", (
        "equivalence_experiment", "divergence_probe", "scaling_experiment",
        "ppn_probe", "kernel_decay_probe", "slice_support_check",
    )),
    "quasinorms": ("lplab.quasinorms", ("quasinorm", "maximal_quasinorm_set")),
    "bands.decompose": ("lplab.bands", ("decompose",)),
    "maximal.mean_max": ("lplab.maximal", ("sphere_mean_max", "annulus_mean_max")),
    "maximal.weighted_offset_sup": ("lplab.maximal", ("weighted_offset_sup",)),
    "differences.iterated_difference": ("lplab.differences", ("iterated_difference",)),
}
# every transform, so a change to, say, rfftn is still counted
FFT_FUNCTIONS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
                 "rfft", "irfft", "rfftn", "irfftn")


class Tracer:
    """Span recorder; spans[i] = [name, start, end, parent index, detail]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.overhead = 0.0
        self.step_keys: dict[tuple, int] = {}
        self.fields: dict[int, object] = {}  # keeps fields alive so ids stay unique

    def wrap(self, name, fn, detail=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            enter = clock()
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1,
                          detail(*args, **kwargs) if detail else None])
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1:3] = (start, end)
                self.overhead += clock() - end + start - enter

        return traced

    def step_key(self, field, step, order, *args, **kwargs) -> int:
        """Index of the distinct (field, step to 12 digits, order) triple."""
        self.fields.setdefault(id(field), field)
        key = (id(field), tuple(float("%.12g" % h) for h in step), order)
        return self.step_keys.setdefault(key, len(self.step_keys))

    def install(self) -> None:
        """Patch every binding of each traced function, and numpy.fft.

        Call after lplab.cli is imported, which imports every lplab module.
        """
        import numpy.fft

        modules = [m for n, m in sys.modules.items() if n == "lplab" or n.startswith("lplab.")]
        for span, (home, names) in TRACED.items():
            for fname in names:
                original = getattr(sys.modules[home], fname)
                detail = self.step_key if span == "differences.iterated_difference" else None
                wrapper = self.wrap(span, original, detail)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
        for fname in FFT_FUNCTIONS:
            setattr(numpy.fft, fname, self.wrap(
                "fields.fft", getattr(numpy.fft, fname), lambda a, *_, **__: int(numpy.size(a))))


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <lplab arguments>", file=sys.stderr)
        return 2
    import lplab.cli

    tracer = Tracer()
    started = time.perf_counter()
    tracer.install()
    tracer.overhead += time.perf_counter() - started
    try:
        return lplab.cli.main(argv[2:])
    finally:
        with open(argv[0], "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "overhead_s": tracer.overhead}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
