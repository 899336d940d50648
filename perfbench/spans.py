"""Outside-in layer trace of the brokenline package.

Each listed function is replaced, in every ``brokenline.*`` namespace that
holds it, by a wrapper that records one span per call: function, parent
span, start, end, and whether an exception escaped.  Spans stay in memory in
flat arrays; ``summary`` folds them into self time (a span's duration minus
its traced children's), calls and raised counts per function.  Nothing inside
the package changes, so time in an unlisted helper counts toward the nearest
listed caller.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

LAYERS = {
    "angles": (
        "PeriodicAngle",
        "multiplicative_order",
        "word_to_fraction",
        "fraction_to_expansion",
        "minimal_period",
    ),
    "words": ("is_sturmian",),
    "farey": ("validate_spec", "farey_parents", "stern_brocot_path"),
    "mechanical": (
        "mechanical_word",
        "mediant_tags",
        "broken_line_tags",
        "broken_line_word",
        "block_decomposition",
        "cutting_sequence",
    ),
    "conjugate": ("conjugate_word", "conjugate_chain", "lavaurs_pairs", "lavaurs_partner"),
    "kneading": ("kneading_of_spec", "kneading_of_angle", "invert_kneading"),
    "atlas": ("enumerate_specs", "sturmian_census", "locate", "junction_rays"),
    "cli": ("main",),
}

FUNCTIONS = tuple(f"{module}.{name}" for module, names in LAYERS.items() for name in names)


class Tracer:
    def __init__(self) -> None:
        self.func = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.raised = array("b")
        self._open: list[int] = []

    def install(self) -> None:
        """Wrap every listed function of the imported package."""
        namespaces = [
            module
            for name, module in sys.modules.items()
            if name == "brokenline" or name.startswith("brokenline.")
        ]
        for fid, qualname in enumerate(FUNCTIONS):
            module, name = qualname.split(".")
            original = getattr(sys.modules[f"brokenline.{module}"], name)
            if isinstance(original, type):
                # a class is timed through the normalization its constructor runs
                original.__post_init__ = self._wrap(fid, original.__post_init__)
                continue
            wrapper = self._wrap(fid, original)
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, attr, wrapper)

    def _wrap(self, fid: int, fn):
        func, parent, start, end, raised = self.func, self.parent, self.start, self.end, self.raised
        stack = self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(func)
            func.append(fid)
            parent.append(stack[-1] if stack else -1)
            raised.append(0)
            end.append(0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[index] = 1
                raise
            finally:
                end[index] = clock()
                stack.pop()

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per listed function: self time in ms, calls, and raised calls."""
        count = len(FUNCTIONS)
        self_ns = [0] * count
        calls = [0] * count
        raised = [0] * count
        func, parent, start, end = self.func, self.parent, self.start, self.end
        for i in range(len(func)):
            f = func[i]
            duration = end[i] - start[i]
            self_ns[f] += duration
            calls[f] += 1
            raised[f] += self.raised[i]
            if parent[i] >= 0:
                self_ns[func[parent[i]]] -= duration
        return {
            name: {"self_ms": self_ns[f] / 1e6, "calls": calls[f], "raised": raised[f]}
            for f, name in enumerate(FUNCTIONS)
        }
