"""Per-layer tracing by wrapping the calls that cross covtrans module boundaries.

Nothing inside covtrans changes: `Tracer.install` replaces each boundary
function at every attribute a caller looks it up by (module globals such as
`covtrans.covering._translate_bits`, class attributes such as
`SymmetricGroup.mul`), and `uninstall` puts the originals back.

Every call is counted and timed.  A boundary's `.s` is the time spent inside
its outermost calls (a recursive call such as a factored membership test
that recurses into the base stage is not counted twice); `.self_s` is that
time minus the time covered by the wrapped calls it made.  Spans
(name, start, end, parent) are kept in memory for the first
`SPANS_PER_NAME` calls of each boundary, which records every call of the
coarse boundaries and a prefix of the hot oracles, and are written out when
the run ends.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

SPANS_PER_NAME = 2000

# Boundary name -> (module, attribute path) of each function it wraps.
MODULE_FUNCTIONS = {
    "subsets.random_subset": ("covtrans.subsets", "random_subset"),
    "subsets.translate_bits": ("covtrans.subsets", "_translate_bits"),
    "subsets.translate_into": ("covtrans.subsets", "translate_into"),
    "covering.verify_intersecting": ("covtrans.covering", "verify_intersecting"),
    "covering.verify_k_covering": ("covtrans.covering", "verify_k_covering"),
    "covering.construct_intersecting_family": (
        "covtrans.covering",
        "construct_intersecting_family",
    ),
    "tower.extend_covering": ("covtrans.tower", "extend_covering"),
    "tower.check_projection_claim": ("covtrans.tower", "check_projection_claim"),
    "tower.check_translation_claim": ("covtrans.tower", "check_translation_claim"),
    "tower.tower_from_document": ("covtrans.tower", "tower_from_document"),
    "tower.sample_thin_set": ("covtrans.tower", "sample_thin_set"),
    "tower.translate_thin": ("covtrans.tower", "translate_thin"),
    "util.canonical_json": ("covtrans.util", "canonical_json"),
    "cli.run_config": ("covtrans.cli", "run_config"),
}

EPIMORPHISM_METHODS = ("map", "section", "embed_kernel", "kernel_coords")

BOUNDARIES = (
    "groups.mul",
    "groups.inv",
    "groups.epimorphism",
    *MODULE_FUNCTIONS,
    "tower.member",
)

# Extra per-layer figures beyond .calls/.s/.self_s, with their units.
EXTRAS = {
    "subsets.random_subset.draws": "count",
    "covering.verify_intersecting.exhaustive_s": "s",
    "covering.verify_intersecting.sampled_s": "s",
    "covering.verify_k_covering.subset_scan_s": "s",
    "covering.verify_k_covering.difference_set_s": "s",
    "covering.verify_k_covering.sampled_s": "s",
    "covering.attempts": "count",
    "covering.accept_ratio": "ratio",
    "tower.extend_covering.stage1_s": "s",
    "tower.extend_covering.stage2_s": "s",
    "tower.extend_covering.stage3_s": "s",
    "util.canonical_json.bytes": "count",
    "cli.certify_s": "s",
    "cli.reverify_s": "s",
    "cli.exact_s": "s",
    "cli.tower_build_s": "s",
    "cli.translate_s": "s",
    "cli.translate_per_s": "1/s",
}

# run_config's time split by command, named after the end-to-end figures
# each command carries on its own
_COMMAND_FIGURE = {
    "covering construct": "cli.certify_s",
    "covering verify": "cli.reverify_s",
    "covering exact-cov": "cli.exact_s",
    "tower build": "cli.tower_build_s",
    "tower translate": "cli.translate_s",
}

_K_COVERING_METHOD = {
    "subset-scan": "subset_scan_s",
    "difference-set": "difference_set_s",
    "subset-sample": "sampled_s",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in BOUNDARIES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(EXTRAS)
    return units


def _record_extras(name: str, extra: dict, args, kwargs, result, elapsed: float) -> None:
    if name == "subsets.random_subset":
        extra["subsets.random_subset.draws"] += args[0].order
    elif name == "covering.verify_intersecting":
        extra[f"{name}.{result.mode}_s"] += elapsed
    elif name == "covering.verify_k_covering":
        key = _K_COVERING_METHOD.get(result.method)
        if key is not None:
            extra[f"{name}.{key}"] += elapsed
    elif name == "covering.construct_intersecting_family":
        extra["covering.attempts"] += result.attempts_used
    elif name == "tower.extend_covering":
        k = args[2] if len(args) > 2 else kwargs["k"]
        extra[f"{name}.stage{k + 1}_s"] += elapsed
    elif name == "util.canonical_json":
        extra["util.canonical_json.bytes"] += len(result)
    elif name == "cli.run_config":
        command = args[0]["command"]
        if command in _COMMAND_FIGURE:
            extra[_COMMAND_FIGURE[command]] += elapsed
        if command == "tower translate":
            extra["thin_sets_translated"] += args[0]["samples"]


class Tracer:
    """Wraps covtrans boundaries; holds spans and per-boundary totals in memory."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.extra: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[str, float, float, int]] = []
        self.spans_dropped = 0
        self._span_counts: dict[str, int] = defaultdict(int)
        self._active: dict[str, int] = defaultdict(int)
        self._frames: list[list] = []  # [child time, span index or -1]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        clock = time.perf_counter
        frames = self._frames
        active = self._active
        spans = self.spans
        span_counts = self._span_counts
        tracer = self

        def traced(*args, **kwargs):
            parent = -1
            for frame in reversed(frames):
                if frame[1] >= 0:
                    parent = frame[1]
                    break
            index = -1
            if span_counts[name] < SPANS_PER_NAME:
                span_counts[name] += 1
                index = len(spans)
                spans.append((name, 0.0, 0.0, parent))
            else:
                tracer.spans_dropped += 1
            frame = [0.0, index]
            frames.append(frame)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                active[name] -= 1
                elapsed = end - start
                tracer.calls[name] += 1
                tracer.self_time[name] += elapsed - frame[0]
                if not active[name]:
                    tracer.total[name] += elapsed
                if frames:
                    frames[-1][0] += elapsed
                if index >= 0:
                    spans[index] = (name, start, end, parent)
            _record_extras(name, tracer.extra, args, kwargs, result, elapsed)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every boundary of the currently imported covtrans."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "covtrans" or key.startswith("covtrans.")
        ]
        for name, (module_name, attr) in MODULE_FUNCTIONS.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        groups = sys.modules["covtrans.groups"]
        for cls in vars(groups).values():
            if (
                isinstance(cls, type)
                and issubclass(cls, groups.FiniteGroup)
                and cls is not groups.FiniteGroup
            ):
                for attr in ("mul", "inv"):
                    if attr in cls.__dict__:
                        self._patch(cls, attr, self._wrap(f"groups.{attr}", cls.__dict__[attr]))
        for attr in EPIMORPHISM_METHODS:
            original = groups.Epimorphism.__dict__[attr]
            self._patch(groups.Epimorphism, attr, self._wrap("groups.epimorphism", original))
        tower = sys.modules["covtrans.tower"]
        self._patch(tower.Tower, "member", self._wrap("tower.member", tower.Tower.member))
        self._patch(
            tower.FactoredSubset,
            "__contains__",
            self._wrap("tower.member", tower.FactoredSubset.__contains__),
        )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def per_layer(self, rounds: int) -> dict[str, float]:
        """Per-round means of every per-layer metric (0 for layers not entered)."""
        out = {}
        for name in BOUNDARIES:
            out[f"{name}.calls"] = self.calls[name] / rounds
            out[f"{name}.s"] = self.total[name] / rounds
            out[f"{name}.self_s"] = self.self_time[name] / rounds
        for key in EXTRAS:
            out[key] = self.extra[key] / rounds
        attempts = self.extra["covering.attempts"]
        accepted = self.calls["covering.construct_intersecting_family"]
        out["covering.accept_ratio"] = accepted / attempts if attempts else 0.0
        translate_s = self.extra["cli.translate_s"]
        out["cli.translate_per_s"] = (
            self.extra["thin_sets_translated"] / translate_s if translate_s else 0.0
        )
        return out
