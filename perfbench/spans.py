"""Spans around the public functions of each fpkit layer, from outside.

`Tracer.install` replaces every module attribute bound to a traced
function with a wrapper that records a span: name, start, end, parent
span and instance id.  Replacing the attribute in every fpkit module
matters because `cli`, `verify` and `coset` import names directly.
Spans stay in memory; `layer_metrics` turns them into self times, work
counts and ratios, and `write` saves them as JSON lines.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter


def _built_letters(build) -> int:
    return sum(r.lhs.length() + r.rhs.length() for r in build.presentation.relations)


def _kb_info(rs):
    return rs.status.value, len(rs.rules)


def _tc_info(result):
    return result.closed, result.table.deductions, len(result.table.rows)


def _comparisons(report):
    return report.budget_used.get("comparisons", 0)


# module -> function name -> (layer, summary of the return value or None)
TRACED = {
    "fpkit.presentations": {"parse_presentation": ("presentations", None)},
    "fpkit.constructions": {
        "markov_semigroup": ("constructions", _built_letters),
        "triviality_test_group": ("constructions", _built_letters),
        "markov_property_reduction": ("constructions", _built_letters),
        "free_product": ("constructions", None),
        "adjoin_zero": ("constructions", None),
        "hnn_extension": ("constructions", None),
        "hnn_ladder": ("constructions", None),
    },
    "fpkit.rewriting": {
        "knuth_bendix": ("rewriting", _kb_info),
        "words_equal": ("rewriting", lambda v: v.value),
    },
    "fpkit.coset": {
        "todd_coxeter": ("coset", _tc_info),
        "is_trivial": ("coset", None),
    },
    "fpkit.verify": {
        "smith_normal_form": ("verify", None),
        "abelianization": ("verify", None),
        "collapse_check": ("verify", _comparisons),
        "embedding_spot_check": ("verify", _comparisons),
        "assemble_certificate": ("verify", None),
    },
    "fpkit.cli": {"run_job": ("cli", None)},
}
LAYERS = ("presentations", "constructions", "rewriting", "coset", "verify", "cli")

NAME, START, END, PARENT, INSTANCE, INFO = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.instance = -1
        self.layer: dict[str, str] = {}
        self.missing: list[str] = []

    def _wrap(self, fn, name: str, summary):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.instance, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if summary is not None:
                span[INFO] = summary(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the traced functions; import fpkit before calling this."""
        wrappers = {}
        for modname, funcs in TRACED.items():
            module = sys.modules[modname]
            for fname, (layer, summary) in funcs.items():
                fn = getattr(module, fname, None)
                if fn is None:
                    self.missing.append(f"{modname}.{fname}")
                    continue
                wrappers[id(fn)] = (fn, self._wrap(fn, fname, summary))
                self.layer[fname] = layer
        for modname, module in list(sys.modules.items()):
            if modname != "fpkit" and not modname.startswith("fpkit."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s[:INFO]) + "\n")

    def layer_metrics(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per-layer metrics, and each layer's share of all self time."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        child_names: list[set] = [set() for _ in spans]
        for s in spans:
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
                child_names[s[PARENT]].add(s[NAME])
        total = defaultdict(float)  # inclusive ms by function
        own = defaultdict(float)  # self ms by function
        calls = defaultdict(int)
        by_layer = defaultdict(float)
        kb = {"complete": [0.0, 0, 0], "partial": [0.0, 0, 0]}  # ms, calls, rules
        tc = {True: [0.0, 0], False: [0.0, 0]}
        deductions = rows = letters = comparisons = builds = unknown = shortcuts = 0
        for i, s in enumerate(spans):
            name, dur = s[NAME], (s[END] - s[START]) * 1000
            total[name] += dur
            own[name] += dur - child_time[i] * 1000
            by_layer[self.layer[name]] += dur - child_time[i] * 1000
            calls[name] += 1
            info = s[INFO]
            parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None
            if self.layer[name] == "constructions" and (
                parent is None or self.layer[parent] != "constructions"
            ):
                builds += 1
                letters += info or 0
            elif name == "knuth_bendix" and info is not None:
                row = kb[info[0]]
                row[0] += dur
                row[1] += 1
                row[2] += info[1]
            elif name == "words_equal":
                unknown += info == "unknown"
            elif name == "todd_coxeter" and info is not None:
                tc[info[0]][0] += dur
                tc[info[0]][1] += 1
                deductions += info[1]
                rows += info[2]
            elif name in ("collapse_check", "embedding_spot_check"):
                comparisons += info or 0
            elif name == "is_trivial":
                shortcuts += "todd_coxeter" not in child_names[i]
        we_calls = calls["words_equal"]
        kb_calls = calls["knuth_bendix"]
        metrics = {
            "presentations.parse_ms": own["parse_presentation"],
            "presentations.parse_calls": calls["parse_presentation"],
            "constructions.build_ms": by_layer["constructions"],
            "constructions.build_calls": builds,
            "constructions.relator_letters": letters,
            "rewriting.complete_ms": kb["complete"][0],
            "rewriting.complete_calls": kb["complete"][1],
            "rewriting.partial_ms": kb["partial"][0],
            "rewriting.partial_calls": kb["partial"][1],
            "rewriting.rules": kb["complete"][2] + kb["partial"][2],
            "rewriting.words_equal_calls": we_calls,
            "rewriting.reduce_ms": own["words_equal"],
            "rewriting.cache_hit_ratio": 1 - kb_calls / we_calls if we_calls else 0.0,
            "rewriting.unknown_ratio": unknown / we_calls if we_calls else 0.0,
            "coset.closed_ms": tc[True][0],
            "coset.closed_calls": tc[True][1],
            "coset.exhausted_ms": tc[False][0],
            "coset.exhausted_calls": tc[False][1],
            "coset.deductions": deductions,
            "coset.rows": rows,
            "coset.is_trivial_calls": calls["is_trivial"],
            "coset.abelian_shortcut_ratio": (
                shortcuts / calls["is_trivial"] if calls["is_trivial"] else 0.0
            ),
            "verify.snf_ms": own["smith_normal_form"] + own["abelianization"],
            "verify.snf_calls": calls["smith_normal_form"],
            "verify.embedding_ms": total["embedding_spot_check"],
            "verify.collapse_ms": total["collapse_check"],
            "verify.check_self_ms": own["embedding_spot_check"] + own["collapse_check"],
            "verify.comparisons": comparisons,
            "verify.certificate_ms": total["assemble_certificate"],
            "cli.job_self_ms": own["run_job"],
        }
        all_self = sum(by_layer.values()) or 1.0
        shares = {layer: by_layer[layer] / all_self for layer in LAYERS}
        return metrics, shares
