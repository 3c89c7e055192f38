"""Outside-in span tracer for manalab's layers.

The library has no timers of its own, so this module wraps each layer's
entry points at run time.  A plain function is replaced in every loaded
`manalab` module namespace that binds it (the `from .x import f` copies in
measures, search and cli); lazy `from .x import f` statements inside
function bodies (oracles, search) read the patched module attribute when
they run.  Methods are replaced on their class.

Each call records one span: entry-point id, start, end and parent span,
kept in flat arrays so a pass with ~600k spans stays small.  A layer's self
time is the sum over its spans of duration minus the duration of their
direct children, so the layer self times of one pass add up to the
outermost span (`cli.main`).

Tiny helpers (`is_odd_prime`, `tau_power`, `omega_power`, `_dim`, `_point`,
`mod_inverse`, `fmt17`) stay unwrapped: they run tens of thousands of times
per pass, and wrapping them would charge the tracer's own cost to their
layer.  Their time counts toward the layer that calls them.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

# layer -> entry points; "Class.method" entries are patched on the class
ENTRY_POINTS = {
    "phasespace": (
        "weyl", "weyl_stack", "phase_point_stack", "phase_point_operator",
        "_kernel_transform", "wigner", "reconstruct", "char_function",
        "WignerTable.abs_sum",
    ),
    "states": (
        "DensityState.__post_init__", "DensityState.purity",
        "PureVector.__post_init__", "PureVector.density",
        "maximally_mixed", "named_state", "noisy_mix", "tensor", "partial_trace",
        "enumerate_stabilizer_pure", "random_pure", "random_density",
        "state_to_json", "state_from_json",
    ),
    "circuits": (
        "beamsplitter", "apply_beamsplitter", "clifford_gate", "conjugate_weyl",
        "heisenberg_pullback", "prop3_expectation", "prop3_index",
        "csum_spec", "swap_spec", "qutrit_specs",
    ),
    "measures": (
        "mana", "sum_negativity", "purity_bound", "mutual_mana", "l1_magic",
        "mutual_l1", "sre_alpha", "mutual_sre", "von_neumann_entropy",
        "mutual_information", "nonlocal_mana_upper", "_abs_wigner_sum",
        "measure_report",
    ),
    "oracles": (
        "oracle_vs_numeric", "closed_form", "numeric_for", "csum_output",
        "threshold_by_bisection", "table1_cell", "p_crit", "example1",
        "example2", "example3", "example4", "example5", "example6",
        "ml1_h", "msre2_h",
    ),
    "search": (
        "max_mana_coherent", "mutual_mana_coherent_equals_mana",
        "PhaseVector.__post_init__", "_CoherentObjective.value",
        "_CoherentObjective.batch",
    ),
    "cli": (
        "main", "cmd_measure", "cmd_verify", "cmd_figure", "cmd_maximize",
        "figure_rows", "write_figure_csv", "_print_checks",
    ),
}
LAYERS = tuple(ENTRY_POINTS)

# Entry points whose spans carry a weight other than 1: the validated
# DensityState builds, and the number of phase vectors in one batch.
WEIGHTS = {
    ("states", "DensityState.__post_init__"): lambda args: int(bool(args[0].validate)),
    ("search", "_CoherentObjective.batch"): lambda args: len(args[1]),
}

# per-layer count metric -> (layer, entry point, "calls" or "weight")
COUNTS = {
    "states.builds": ("states", "DensityState.__post_init__", "calls"),
    "states.validated_builds": ("states", "DensityState.__post_init__", "weight"),
    "phasespace.transforms": ("phasespace", "_kernel_transform", "calls"),
    "circuits.bmat_builds": ("circuits", "beamsplitter", "calls"),
    "circuits.applications": ("circuits", "apply_beamsplitter", "calls"),
    "measures.nonlocal_evals": ("measures", "_abs_wigner_sum", "calls"),
    "oracles.comparisons": ("oracles", "oracle_vs_numeric", "calls"),
    "search.scalar_evals": ("search", "_CoherentObjective.value", "calls"),
    "search.batch_evals": ("search", "_CoherentObjective.batch", "weight"),
}
# per-layer time metric -> (layer, entry point): total span duration
DURATIONS = {
    "search.scalar_s": ("search", "_CoherentObjective.value"),
    "search.batch_s": ("search", "_CoherentObjective.batch"),
}


class Tracer:
    """Installs span-recording wrappers on manalab and restores the originals."""

    def __init__(self):
        self.entries: list[tuple[str, str]] = []  # span id -> (layer, entry point)
        self.missing: list[str] = []  # entry points the library no longer has
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.reset()

    def reset(self):
        """Drop recorded spans; the wrappers stay installed."""
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.weight = array("q")

    def install(self):
        self.entries, self.missing = [], []
        modules = [m for k, m in sys.modules.items() if k == "manalab" or k.startswith("manalab.")]
        for layer, names in ENTRY_POINTS.items():
            module = importlib.import_module(f"manalab.{layer}")
            for entry in names:
                owner_name, _, attr = entry.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = vars(owner).get(attr) if owner is not None else None
                if original is None:
                    self.missing.append(f"{layer}.{entry}")
                    continue
                wrapped = self._wrap(len(self.entries), original, WEIGHTS.get((layer, entry)))
                self.entries.append((layer, entry))
                if owner_name:
                    self._patch(owner, attr, original, wrapped)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapped)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, attr, original, wrapped):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def _wrap(self, span_id, fn, weigh):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(span_id)
            self.parent.append(stack[-1] if stack else -1)
            self.weight.append(weigh(args) if weigh else 1)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()

        return traced

    def summary(self) -> dict[str, float]:
        """Per-layer self time, counts and durations of the recorded spans."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        weight = np.frombuffer(self.weight, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        n = len(self.entries)
        self_by_entry = np.bincount(name, weights=dur - child, minlength=n)
        dur_by_entry = np.bincount(name, weights=dur, minlength=n)
        calls = np.bincount(name, minlength=n)
        weights = np.bincount(name, weights=weight, minlength=n)
        ids = {entry: i for i, entry in enumerate(self.entries)}

        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for (layer, _), s in zip(self.entries, self_by_entry):
            out[f"{layer}.self_s"] += float(s)
        for metric, (layer, entry, kind) in COUNTS.items():
            i = ids.get((layer, entry))
            source = calls if kind == "calls" else weights
            out[metric] = 0 if i is None else int(source[i])
        for metric, key in DURATIONS.items():
            i = ids.get(key)
            out[metric] = 0.0 if i is None else float(dur_by_entry[i])
        return out
