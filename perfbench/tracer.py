"""Span tracing from outside the program, for the traced run.

``Tracer.install`` replaces the module attributes through which the
cubemc layers call each other (``cubemc.motion_search.face_of``,
``cubemc.evaluate.tzs_search``, ...) with wrappers that record one span
per call: layer name, call site, start, end, parent span and a small
attribute tuple.  Spans stay in memory and are written out once, at the
end.  Calls a function makes to helpers in its own module by a name that
is not patched here (``_warp_arrays``, ``_ModelCost``) are part of its
self time.

The patching is permanent, so install a tracer only in a process that
exits after the traced eval (the benchmark forks one per traced eval).
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

# (calling module, attribute, layer name) for every patched call path.
# The layer name is "<defining module>.<function>".
WRAPPED = (
    ("cli", "run_eval", "evaluate.run_eval"),
    ("cli", "emit_csv", "evaluate.emit_csv"),
    ("evaluate", "read_yuv420", "frame_io.read_yuv420"),
    ("evaluate", "tzs_search", "motion_search.tzs_search"),
    ("evaluate", "mode_decide", "motion_search.mode_decide"),
    ("evaluate", "warp_block", "interp.warp_block"),
    ("evaluate", "chroma_field", "interp.chroma_field"),
    ("evaluate", "sad", "motion_search.sad"),
    ("evaluate", "translational_field", "motion_model.translational_field"),
    ("evaluate", "build_correspondence_field", "motion_model.build_correspondence_field"),
    ("motion_search", "tzs_search", "motion_search.tzs_search"),
    ("motion_search", "face_of", "geometry.face_of"),
    ("motion_search", "fetch_block", "interp.fetch_block"),
    ("motion_search", "sad", "motion_search.sad"),
    ("motion_search", "warp_block", "interp.warp_block"),
    ("motion_search", "translational_field", "motion_model.translational_field"),
    ("motion_search", "build_correspondence_field", "motion_model.build_correspondence_field"),
    ("motion_search", "transport_mv_predictor", "motion_model.transport_mv_predictor"),
    ("motion_model", "face_of", "geometry.face_of"),
    ("motion_model", "unfold_to_sphere", "geometry.unfold_to_sphere"),
    ("motion_model", "sphere_to_unfold", "geometry.sphere_to_unfold"),
)


def _tzs_attrs(args, kwargs):
    block = args[0]
    return (block.x0, block.y0, bool(kwargs.get("advanced", True)))


def _block_attrs(args, kwargs):
    return (args[0].x0, args[0].y0)


# Attribute extractors, by layer name, for the spans the wasted-work
# ratios need: which block and model a search served, which integer
# offset a fetch read, which MV a field was built for.
_ATTRS = {
    "motion_search.tzs_search": _tzs_attrs,
    "motion_search.mode_decide": _block_attrs,
    "interp.fetch_block": lambda a, k: (a[1], a[2]),
    "motion_model.build_correspondence_field": lambda a, k: (a[1].dx_q2, a[1].dy_q2),
}


class Tracer:
    """In-memory span recorder; one instance per traced eval."""

    def __init__(self):
        # one [layer, site, start_ns, end_ns, parent, attrs] list per span
        self.spans: list[list] = []
        self._stack = [-1]

    def install(self, package) -> None:
        modules = {name: getattr(package, name) for name in {m for m, _, _ in WRAPPED}}
        for mod_name, attr, layer in WRAPPED:
            module = modules[mod_name]
            setattr(module, attr, self._wrap(getattr(module, attr), layer, mod_name))

    def _wrap(self, fn, layer, site):
        spans, stack = self.spans, self._stack
        attrs = _ATTRS.get(layer)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [layer, site, 0, 0, stack[-1], attrs(args, kwargs) if attrs else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        """Write every span as one CSV line: id,parent,layer,site,start_ns,end_ns."""
        with open(path, "w") as fh:
            fh.write("id,parent,layer,site,start_ns,end_ns\n")
            for i, (layer, site, t0, t1, parent, _) in enumerate(self.spans):
                fh.write(f"{i},{parent},{layer},{site},{t0},{t1}\n")


def summarize(spans: list[list], blocks: int) -> dict:
    """Reduce the spans of one traced eval to counts, self times and ratios.

    ``blocks`` is the number of predicted blocks (blocks x predicted
    frames); per-block figures divide by it.  Counts are exact and must
    repeat between traced evals of the same clip; times are seconds.
    """
    n = len(spans)
    dur = np.array([s[3] - s[2] for s in spans], dtype=np.int64)
    parent = np.array([s[4] for s in spans], dtype=np.int64)
    child = np.zeros(n, dtype=np.int64)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_ns = dur - child

    calls = defaultdict(int)
    site_calls = defaultdict(int)
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    for i, (layer, site, _, _, p, _) in enumerate(spans):
        calls[layer] += 1
        site_calls[(layer, site)] += 1
        self_s[layer] += self_ns[i] * 1e-9
        # inclusive time counts only the outermost span of a layer
        if p < 0 or spans[p][0] != layer:
            incl_s[layer] += dur[i] * 1e-9

    tzs_s = {False: 0.0, True: 0.0}
    int_cands = q2_cands = 0
    trans_offsets: dict[tuple[int, int], set] = {}
    search_offsets: dict[int, set] = defaultdict(set)
    adv_evals: dict[int, list] = defaultdict(list)
    for i, (layer, site, _, _, p, attrs) in enumerate(spans):
        if p < 0:
            continue
        if layer == "motion_search.tzs_search":
            tzs_s[attrs[2]] += dur[i] * 1e-9
        elif layer == "interp.fetch_block" and spans[p][0] == "motion_search.tzs_search":
            int_cands += 1
            bx, by, _ = spans[p][5]
            search_offsets[p].add((attrs[0] - bx, attrs[1] - by))
        elif layer == "interp.warp_block" and spans[p][0] == "motion_search.tzs_search":
            q2_cands += 1
        elif layer == "motion_model.build_correspondence_field" and site == "motion_search":
            # advanced-model candidate: merge (under mode_decide) or AMVP
            # (under a tzs_search that mode_decide called)
            owner = p if spans[p][0] == "motion_search.mode_decide" else spans[p][4]
            adv_evals[owner].append(attrs)

    # integer offsets an AMVP search repeats from the same block's
    # translational search, which runs just before it
    int_total = int_repeat = 0
    for i in sorted(search_offsets):
        bx, by, advanced = spans[i][5]
        if not advanced:
            trans_offsets[(bx, by)] = search_offsets[i]
            continue
        seen = trans_offsets.get((bx, by), set())
        int_total += len(search_offsets[i])
        int_repeat += len(search_offsets[i] & seen)

    q2_total = q2_repeat = 0
    for mvs in adv_evals.values():
        q2_total += len(mvs)
        q2_repeat += len(mvs) - len(set(mvs))

    total_s = incl_s["evaluate.run_eval"] + incl_s["evaluate.emit_csv"]
    per_block = 1.0 / blocks
    return {
        "counts": {
            "geometry.face_of.calls_per_block": calls["geometry.face_of"] * per_block,
            "motion_model.build_correspondence_field.calls_per_block":
                calls["motion_model.build_correspondence_field"] * per_block,
            "interp.warp_block.calls_per_block": calls["interp.warp_block"] * per_block,
            "interp.fetch_block.calls_per_block": calls["interp.fetch_block"] * per_block,
            "motion_search.int_candidates_per_block": int_cands * per_block,
            "motion_search.q2_candidates_per_block": q2_cands * per_block,
            "motion_search.sad.calls_per_block":
                site_calls[("motion_search.sad", "motion_search")] * per_block,
            "evaluate.warp_block.calls_per_block":
                site_calls[("interp.warp_block", "evaluate")] * per_block,
            "motion_search.int_sad_repeat_frac": int_repeat / int_total if int_total else 0.0,
            "motion_search.adv_q2_repeat_frac": q2_repeat / q2_total if q2_total else 0.0,
        },
        "times": {
            "geometry.face_of.self_s": self_s["geometry.face_of"],
            "motion_model.build_correspondence_field.self_s":
                self_s["motion_model.build_correspondence_field"],
            "interp.warp_block.self_s": self_s["interp.warp_block"],
            "interp.fetch_block.self_s": self_s["interp.fetch_block"],
            "motion_search.tzs_search.trans.ms_per_block": tzs_s[False] * 1e3 * per_block,
            "motion_search.tzs_search.adv.ms_per_block": tzs_s[True] * 1e3 * per_block,
            "motion_search.mode_decide.self_ms_per_block":
                self_s["motion_search.mode_decide"] * 1e3 * per_block,
            "evaluate.run_eval.inclusive_s": incl_s["evaluate.run_eval"],
            "evaluate.emit_csv.s": incl_s["evaluate.emit_csv"],
            # shares of the traced eval: the contrast the workloads exist for
            "interp.warp_block.share": incl_s["interp.warp_block"] / total_s,
            "motion_search.int_search.share": (self_s["interp.fetch_block"] + self_s["geometry.face_of"])
            / total_s,
            "motion_model.build_correspondence_field.share": incl_s["motion_model.build_correspondence_field"] / total_s,
        },
    }
