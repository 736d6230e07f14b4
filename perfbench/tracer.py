"""Span tracing of copsem's layers from outside the package.

`Tracer` wraps every public function defined in each layer module
(`copsem.<layer>`), plus `CopulaFamily.to_json`, and rebinds each name
wherever a `copsem.*` module namespace holds it, so calls between layers and
within a layer both pass through a wrapper. Leaving the `with` block puts
every original back.

Each wrapper records one span: (span id, parent span id, operation id,
name, start ns, end ns). Spans stay in memory until `write_spans`. Counters
are taken at the same wrappers from arguments and results. The program is
single-threaded, so spans nest strictly and no layer ever waits on another.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import itertools
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

LAYERS = (
    "image_io",
    "transforms",
    "rank_copula",
    "metrics",
    "codec",
    "channel",
    "bounds",
    "harness",
    "cli",
)


def _arg(sig: inspect.Signature, args, kwargs, name: str):
    return sig.bind_partial(*args, **kwargs).arguments.get(name, sig.parameters[name].default)


def _popcount_xor(a: bytes, b: bytes) -> int:
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).bit_count()


def _ssim_windows(img) -> int:
    h, w = img.height, img.width
    return 1 if h < 8 or w < 8 else (h // 8) * (w // 8)


def _counter_hooks(modules: dict) -> dict:
    """name -> hook(counters, args, kwargs, result) for the counted functions."""
    ber_sig = inspect.signature(modules["channel"].ber_experiment)
    return {
        "rank_copula.rank_transform": lambda c, a, k, r: c.update(
            {"rank_copula.rank_transform.pixels": r.u.size}
        ),
        "rank_copula.extract_copula": lambda c, a, k, r: c.update(
            {"rank_copula.extract_copula.pairs": r.n_pairs}
        ),
        "rank_copula.CopulaFamily.to_json": lambda c, a, k, r: c.update(
            {"rank_copula.CopulaFamily.to_json.bytes": len(r)}
        ),
        "metrics.ssim": lambda c, a, k, r: c.update(
            {"metrics.ssim.windows": _ssim_windows(a[0] if a else k["a"])}
        ),
        "codec.pack": lambda c, a, k, r: c.update({"codec.pack.bytes": len(r)}),
        "channel.transmit": lambda c, a, k, r: c.update(
            {
                "channel.transmit.bits": 8 * len(r),
                "channel.transmit.bits_flipped": _popcount_xor(a[0] if a else k["data"], r),
            }
        ),
        "channel.ber_experiment": lambda c, a, k, r: c.update(
            {"channel.ber_experiment.trials": _arg(ber_sig, a, k, "trials")}
        ),
        "image_io.read_pgm": lambda c, a, k, r: c.update(
            {"image_io.read_pgm.bytes": len(a[0] if a else k["data"])}
        ),
    }


class Tracer:
    """Context manager that traces every copsem layer while it is active."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.counters: Counter = Counter()
        self.op_id = 0
        self._stack = [0]
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    # -- installing and removing the wrappers --------------------------------

    def _wrap(self, name: str, fn, hook):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, ids, counters = self.spans, self._stack, self._ids, self.counters

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans.append((sid, parent, self.op_id, idx, t0, t1))
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def __enter__(self) -> "Tracer":
        modules = {layer: importlib.import_module(f"copsem.{layer}") for layer in LAYERS}
        hooks = _counter_hooks(modules)
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = self._wrap(name, obj, hooks.get(name))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "copsem" or mod_name.startswith("copsem.")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

        rc = modules["rank_copula"]
        to_json = rc.CopulaFamily.__dict__["to_json"]
        self._patch_attr(
            rc.CopulaFamily,
            "to_json",
            self._wrap("rank_copula.CopulaFamily.to_json", to_json, hooks["rank_copula.CopulaFamily.to_json"]),
        )
        post_init = rc.EmpiricalCopula.__dict__["__post_init__"]
        counters = self.counters

        def counted_post_init(obj):
            counters["rank_copula.EmpiricalCopula.constructed"] += 1
            return post_init(obj)

        self._patch_attr(rc.EmpiricalCopula, "__post_init__", counted_post_init)
        return self

    def _patch_attr(self, owner, attr: str, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict[int, int]:
        """Per span id: self time in ns (span minus its direct children)."""
        child = defaultdict(int)
        for _sid, parent, _op, _idx, t0, t1 in self.spans:
            child[parent] += t1 - t0
        return {s[0]: (s[5] - s[4]) - child[s[0]] for s in self.spans}

    def summary(self, op_labels: dict[int, str]) -> dict:
        """Self time, call counts and nesting ratios, overall and per operation label."""
        self_ns = self.self_times()
        by_name = defaultdict(lambda: [0, 0])  # name -> [self ns, calls]
        by_label = defaultdict(lambda: defaultdict(int))  # label -> name -> self ns
        label_wall = defaultdict(list)  # label -> root span durations (ns)
        name_of = {}
        for sid, parent, op, idx, t0, t1 in self.spans:
            name = self.names[idx]
            name_of[sid] = name
            agg = by_name[name]
            agg[0] += self_ns[sid]
            agg[1] += 1
            by_label[op_labels.get(op, "?")][name] += self_ns[sid]
            if parent == 0:
                label_wall[op_labels.get(op, "?")].append(t1 - t0)
        solve_children = sum(
            1
            for sid, parent, _op, idx, _t0, _t1 in self.spans
            if self.names[idx] == "metrics.d_pc" and name_of.get(parent) == "harness.solve_decoder_weight"
        )
        return {
            "functions": {n: {"self_ns": v[0], "calls": v[1]} for n, v in by_name.items()},
            "by_label": {lab: dict(v) for lab, v in by_label.items()},
            "label_wall_ns": {lab: v for lab, v in label_wall.items()},
            "solve_d_pc_children": solve_children,
            "counters": dict(self.counters),
            "spans": len(self.spans),
        }

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            fh.write("span_id,parent_id,op_id,name,start_ns,end_ns\n")
            names = self.names
            for sid, parent, op, idx, t0, t1 in self.spans:
                fh.write(f"{sid},{parent},{op},{names[idx]},{t0},{t1}\n")
