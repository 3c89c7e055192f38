"""Mutation catalogue: small edits to src/manalab that the named tests must catch.

Each mutant is one textual edit (file under src/manalab, old text, new text)
and the pytest node ids that should fail once it is made.  A run copies
src/ into a temporary directory, applies the edit there, runs the named
tests against the copy, and reports the mutant as killed when they fail and
as a survivor when they pass.  The repository itself is never edited.

    python tools/mutants.py              # every mutant
    python tools/mutants.py NAME ...     # the named ones

Exits 1 when a mutant survives that is not in KNOWN_SURVIVORS, or when a
mutant's tests run past TIME_LIMIT_S: their process group is then killed
and the mutant is reported as TIMED OUT.  The tier-1
suite only checks that each old text still occurs exactly once
(tests/test_mutants.py); the full run is a separate command, like the
benchmark.  A change that adds a fast path adds its mutants here.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIME_LIMIT_S = 300  # seconds one mutant's tests may run


class Mutant(NamedTuple):
    file: str  # path under src/manalab
    old: str  # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = {
    # the beamsplitter's phase-space permutation and the permuted output tables
    "weyl-image-sign": Mutant(
        "circuits.py",
        "(a * l1 + b * l2) % d,",
        "(a * l1 - b * l2) % d,",
        ("tests/test_output_measures.py", "tests/test_circuits.py"),
    ),
    "unpermuted-table": Mutant(
        "measures.py",
        "source[perm] = np.arange(dd * dd)",
        "source[:] = np.arange(dd * dd)",
        ("tests/test_output_measures.py",),
    ),
    "inverse-permutation": Mutant(
        "measures.py",
        "source[perm] = np.arange(dd * dd)",
        "source[:] = perm",
        ("tests/test_output_measures.py",),
    ),
    "chi-marginal-slice": Mutant(
        "measures.py",
        "_log_abs_sum(chi[0])",
        "_log_abs_sum(chi[1])",
        ("tests/test_output_measures.py",),
    ),
    "sre2-for-every-chi-block": Mutant(
        "measures.py",
        'if "sre2" in wanted:',
        "if True:",
        ("tests/test_output_measures.py::test_only_the_requested_measures_are_evaluated",),
    ),
    # the component-major tables' sums, which replay numpy's summation order
    "pairwise-tree-pair-swapped": Mutant(
        "measures.py",
        "pairs = acc[0::2] + acc[1::2]",
        "pairs = acc[:4] + acc[4:]",
        (
            "tests/test_component_major.py::test_numpy_sum_replays_numpy_add_reduce",
            "tests/test_component_major.py::test_output_measures_have_the_bits_of_the_row_major_formulas",
        ),
    ),
    "pairwise-remainder-row-dropped": Mutant(
        "measures.py",
        "for component in table[end:]:",
        "for component in table[end + 1 :]:",
        (
            "tests/test_component_major.py::test_numpy_sum_replays_numpy_add_reduce",
            "tests/test_component_major.py::test_output_measures_have_the_bits_of_the_row_major_formulas",
        ),
    ),
    "pairwise-split-not-multiple-of-8": Mutant(
        "measures.py",
        "half = m // 2 - m // 2 % 8",
        "half = m // 2",
        (
            "tests/test_component_major.py::test_numpy_sum_replays_numpy_add_reduce",
            "tests/test_component_major.py::test_output_measures_have_the_bits_of_the_row_major_formulas",
        ),
    ),
    "p-a-marginal-summed-pairwise": Mutant(
        "measures.py",
        "np.add.reduce(w, axis=0)",
        "_numpy_sum(w)",
        ("tests/test_component_major.py::test_output_measures_have_the_bits_of_the_row_major_formulas",),
    ),
    "sum-starts-from-negative-zero": Mutant(
        "measures.py",
        "total = 0.0 + ((pairs[0] + pairs[1]) + (pairs[2] + pairs[3]))",
        "total = (pairs[0] + pairs[1]) + (pairs[2] + pairs[3])",
        ("tests/test_component_major.py::test_numpy_sum_replays_numpy_add_reduce",),
    ),
    # the vacuum's 1 moved off the diagonal: another basis index would only
    # shift the output by a local Weyl operator, which no measure sees
    "vacuum-index": Mutant(
        "measures.py",
        'vacuum = named_state("basis", [0], dim=d).density().matrix',
        'vacuum = named_state("basis", [0], dim=d).density().matrix[:, ::-1]',
        ("tests/test_output_measures.py",),
    ),
    "vacuum-wigner-table-for-chi": Mutant(
        "measures.py",
        '_vacuum_table(d, "char")',
        '_vacuum_table(d, "wigner")',
        ("tests/test_output_measures.py",),
    ),
    # the one memo behind every operator table
    "table-writable": Mutant(
        "phasespace.py",
        "                fresh.setflags(write=False)\n",
        "",
        ("tests/test_fast_paths.py", "tests/test_phasespace.py::test_cache_concurrent_first_use"),
    ),
    "table-last-writer-wins": Mutant(
        "phasespace.py",
        "found = tables.setdefault(key, fresh)",
        "tables[key] = found = fresh",
        ("tests/test_phasespace.py::test_cache_concurrent_first_use",),
    ),
    "table-key-after-lookup": Mutant(  # the lookup takes the raw arguments, so 3.0 finds the table of 3
        "phasespace.py",
        "            key = tuple(rule(arg) for rule, arg in zip(rules, args, strict=True))\n"
        "            found = tables.get(key)\n",
        "            found = tables.get(args)\n"
        "            key = args if found is not None else "
        "tuple(rule(arg) for rule, arg in zip(rules, args, strict=True))\n",
        ("tests/test_fast_paths.py::test_a_lookup_raises_whatever_is_cached",),
    ),
    # the block rule
    "no-one-row-doubling": Mutant(
        "measures.py",
        "values.append(f(np.concatenate([piece, piece]))[:1] if len(piece) == 1 else f(piece))",
        "values.append(f(piece))",
        ("tests/test_by_rows.py",),
    ),
    "lone-row-on-one-piece-path": Mutant(
        "measures.py",
        "if out is None and 2 <= len(rows) <= step:",
        "if out is None and 1 <= len(rows) <= step:",
        ("tests/test_by_rows.py",),
    ),
    "pieces-joined-in-reverse": Mutant(
        "measures.py",
        "return np.concatenate(values, out=out)",
        "return np.concatenate(values[::-1], out=out)",
        ("tests/test_by_rows.py", "tests/test_search_bits.py"),
    ),
    # the lockstep Nelder-Mead and its starts
    "shrink-one-row-fewer": Mutant(
        "measures.py",
        "moved = min(n, m + 1)",
        "moved = m",
        ("tests/test_nonlocal_lockstep.py",),
    ),
    "evaluation-past-maxfev": Mutant(
        "measures.py",
        "m = min(n, maxfev - nfev)",
        "m = n",
        ("tests/test_nonlocal_lockstep.py",),
    ),
    "nelder-mead-loose-xatol": Mutant(
        "measures.py",
        "<= 1e-7",
        "<= 1e-6",
        ("tests/test_nonlocal_lockstep.py::test_lockstep_runs_stop_at_convergence_as_scipy_does",),
    ),
    "no-branch-snap": Mutant(
        "measures.py",
        "angles = np.where(angles < BRANCH_TOL - math.pi, angles + 2.0 * math.pi, angles)",
        "angles = angles",
        ("tests/test_nonlocal_lockstep.py", "tests/test_numpy_runtime.py"),
    ),
    "stacked-factors-swapped": Mutant(
        "measures.py",
        "ua, ub = u[0::2], u[1::2]",
        "ua, ub = u[1::2], u[0::2]",
        ("tests/test_kernel_bits.py", "tests/test_nonlocal_lockstep.py"),
    ),
    "bound-reads-the-start-after-an-exit": Mutant(  # the loop tests the exit only after each start's value
        "measures.py",
        """tried = ((val0,) if run is None else (val0, run[0]) for val0, run in zip(values, runs + [None]))
    for value in itertools.chain.from_iterable(tried):
        best = min(best, value)
        if best <= EXIT_TOL:
            break""",
        """for val0, run in zip(values, runs + [None]):
        best = min(best, val0)
        if best <= EXIT_TOL:
            break
        best = min(best, run[0])""",
        ("tests/test_nonlocal_lockstep.py::test_a_run_that_exits_ends_the_bound_before_the_next_start",),
    ),
    "nelder-mead-stop-or": Mutant(
        "measures.py",
        "<= 1e-9 and np.abs(sim[1:] - sim[0]).max()",
        "<= 1e-9 or np.abs(sim[1:] - sim[0]).max()",
        ("tests/test_nonlocal_lockstep.py",),
    ),
    "hermitian-diagonal-real-division": Mutant(
        "measures.py",
        "np.where(t < k, 1.0, np.where(t == k, -k, 0.0)).astype(complex) / np.sqrt(k * (k + 1))",
        "(np.where(t < k, 1.0, np.where(t == k, -k, 0.0)) / np.sqrt(k * (k + 1))).astype(complex)",
        ("tests/test_tables.py",),
    ),
    # the cached transform kernels
    "kernel-transposed-120": Mutant(
        "phasespace.py",
        "stack.reshape(d * d, d, d).transpose(2, 1, 0)",
        "stack.reshape(d * d, d, d).transpose(1, 2, 0)",
        ("tests/test_kernel_bits.py", "tests/test_phasespace.py"),
    ),
    "dim-takes-any-number": Mutant(  # 3.0, 3+0j and True hash like 3 and would reach the cached tables
        "phasespace.py",
        "if not isinstance(dim, (int, np.integer)) or dim > MAX_DIM",
        "if dim > MAX_DIM",
        ("tests/test_fast_paths.py",),
    ),
    # the checks with one owner each: the local-dimension cap, the dims rule,
    # the beta*delta hypothesis and measure_report's invariants
    "cap-includes-its-bound": Mutant(
        "phasespace.py",
        "if d > DIM_CAP:",
        "if d >= DIM_CAP:",
        ("tests/test_cli.py::test_measure_takes_a_local_dimension_of_7",),
    ),
    "dims-take-zero": Mutant(
        "phasespace.py",
        "if any(d < 1 for d in dims):",
        "if any(d < 0 for d in dims):",
        ("tests/test_states.py::test_density_state_refuses_dims_below_1",),
    ),
    "beta-delta-unchecked": Mutant(
        "circuits.py",
        "if (spec.beta * spec.delta) % spec.dim == 0:",
        "if False:",
        (
            "tests/test_search.py::test_beta_delta_guard",
            "tests/test_circuits.py::test_prop3_rejects_beta_delta_zero",
        ),
    ),
    "dims-take-empty": Mutant(
        "phasespace.py",
        "if not dims:",
        "if False:",
        (
            "tests/test_states.py::test_density_state_and_wigner_table_refuse_empty_dims",
            "tests/test_cli.py::test_measure_state_file_without_subsystems",
        ),
    ),
    "prop3-index-unchecked": Mutant(
        "circuits.py",
        '''"""Predicted diagonal index j0/j1 for the vacuum-ancilla expectation."""
    check_beta_delta(spec)''',
        '''"""Predicted diagonal index j0/j1 for the vacuum-ancilla expectation."""''',
        ("tests/test_circuits.py::test_prop3_rejects_beta_delta_zero",),
    ),
    "mana-invariant-weakened": Mutant(
        "measures.py",
        'if values.get("mana", 0.0) < -1e-10:',
        'if values.get("mana", 0.0) < -1e-6:',
        ("tests/test_measures.py::test_measure_report_refuses_a_negative_mana_or_mutual_information",),
    ),
    # state validation and the coherent amplitudes
    "point-truncates": Mutant(  # a non-integral index, dimension or G entry is cut to an int
        "phasespace.py",
        "isinstance(value, numbers.Real) and float(value).is_integer()",
        "isinstance(value, numbers.Real) and math.isfinite(value)",
        (
            "tests/test_phasespace.py::test_phase_points_refuse_non_integer_indices",
            "tests/test_circuits.py::test_spec_refuses_non_integer_entries",
            "tests/test_circuits.py::test_conjugate_weyl_refuses_non_integer_points",
        ),
    ),
    "point-reads-two-entries": Mutant(  # a 3-entry point read as its first two, a 1-entry one an IndexError
        "phasespace.py",
        """if len(pt) != 2:
            raise ValueError(f"a phase point has two entries, got {pt!r}")
        pt = PhasePoint(*pt)""",
        "pt = PhasePoint(pt[0], pt[1])",
        ("tests/test_circuits.py::test_phase_points_take_exactly_two_entries",),
    ),
    "wigner-table-aliases-values": Mutant(
        "phasespace.py",
        "vals = np.array(self.values, dtype=float)",
        "vals = np.asarray(self.values, dtype=float)",
        ("tests/test_phasespace.py::test_wigner_table_values_are_a_read_only_copy",),
    ),
    "pure-vector-aliases-amplitudes": Mutant(  # with its next line: NoisyRows makes the same np.array call
        "states.py",
        """amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (dim,):""",
        """amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (dim,):""",
        ("tests/test_pure_vector.py::test_amplitudes_are_a_read_only_copy",),
    ),
    "pure-vector-flattens": Mutant(
        "states.py",
        """amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (dim,):""",
        """amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape != (dim,):""",
        ("tests/test_pure_vector.py::test_amplitudes_are_one_row_of_dim_entries",),
    ),
    "density-state-aliases-matrix": Mutant(
        "states.py",
        "mat = np.array(self.matrix, dtype=complex)",
        "mat = np.asarray(self.matrix, dtype=complex)",
        ("tests/test_states.py::test_density_matrix_is_a_read_only_copy",),
    ),
    "dims-product-in-int64": Mutant(
        "states.py",
        "total = math.prod(dims)",
        "total = int(np.prod(dims))",
        ("tests/test_states.py::test_density_state_dims_multiply_exactly",),
    ),
    "trace-check-last-bad": Mutant(
        "states.py",
        "traces[bad[0]]",
        "traces[bad[-1]]",
        ("tests/test_fast_paths.py",),
    ),
    "pure-vector-full-herm-tol": Mutant(
        "states.py",
        "if not abs(trace - 1.0) <= HERM_TOL / 2:",
        "if not abs(trace - 1.0) <= HERM_TOL:",
        ("tests/test_pure_vector.py",),
    ),
    "partial-trace-takes-bool": Mutant(
        "states.py",
        "lookup = isinstance(keep, (str, numbers.Integral)) and not isinstance(keep, bool)",
        "lookup = isinstance(keep, (str, numbers.Integral))",
        ("tests/test_states.py::test_partial_trace_keeps_only_a_name_or_an_integer_index",),
    ),
    "noisy-rows-full-herm-tol": Mutant(
        "states.py",
        "np.abs(row_traces - 1.0) <= HERM_TOL / 2",
        "np.abs(row_traces - 1.0) <= HERM_TOL",
        ("tests/test_noisy_rows.py",),
    ),
    "noisy-identity-on-diagonal-only": Mutant(
        "states.py",
        "mixed += (1.0 - p) * eye / d",
        "mixed[range(d), range(d)] += ((1.0 - p) * eye / d)[range(d), range(d)]",
        ("tests/test_noisy_matrices.py::test_noisy_matrices_have_the_bits_of_the_row_major_formula",),
    ),
    "noisy-transposed": Mutant(
        "states.py",
        "np.multiply(a[:, None], a[None, :].conj(),",
        "np.multiply(a[:, None].conj(), a[None, :],",
        ("tests/test_noisy_matrices.py::test_noisy_matrices_have_the_bits_of_the_row_major_formula",),
    ),
    "phases-over-d": Mutant(
        "states.py",
        "return np.exp(1j * np.asarray(thetas, dtype=float)) / math.sqrt(d)",
        "return np.exp(1j * np.asarray(thetas, dtype=float)) / d",
        ("tests/test_search_bits.py",),
    ),
    "phi-lambda-one-square": Mutant(
        "states.py",
        "np.sqrt(np.maximum(1.0 - 2.0 * lams * lams, 0.0))",
        "np.sqrt(np.maximum(1.0 - lams * lams, 0.0))",
        ("tests/test_states.py",),
    ),
    # the oracle comparison's per-call state cache and the states it names
    "input-key-without-labels": Mutant(  # a key without the state name: table1's S/N/T/H inputs collapse
        "oracles.py",
        "key = state, tuple(map(float.hex, params))",
        "key = tuple(map(float.hex, params))",
        ("tests/test_compare.py",),
    ),
    "input-key-by-value": Mutant(
        "oracles.py",
        "key = state, tuple(map(float.hex, params))",
        "key = state, params",
        ("tests/test_compare.py",),
    ),
    "cached-input-skips-noise-check": Mutant(  # an id whose group holds its input's slot skips the check
        "oracles.py",
        """        if slot is None:
            slot = slot_of(state, params[:-1] if noisy else params)
        if noisy:
            p = params[-1]
            if not 0.0 <= p <= 1.0:  # NaN too
                check_noise(p)""",
        """        if noisy:
            p = params[-1]
        if slot is None:
            slot = slot_of(state, params[:-1] if noisy else params)
            if noisy and not 0.0 <= p <= 1.0:  # NaN too
                check_noise(p)""",
        ("tests/test_compare.py::test_a_cached_input_still_checks_its_noise",),
    ),
    # the per-call groups: one form, numeric input, block and slot per (name, labels, parameter count)
    "group-key-without-labels": Mutant(  # ex5_set's m_l1 and m_sre2 ids would share one table row
        "oracles.py",
        "key = name, labels, len(params)",
        "key = name, len(params)",
        ("tests/test_compare.py::test_interleaved_groups_equal_the_per_id_records",),
    ),
    "group-key-without-parameter-count": Mutant(  # a later id of another arity would skip the arity check
        "oracles.py",
        "key = name, labels, len(params)",
        "key = name, labels",
        ("tests/test_compare.py::test_a_later_id_with_another_parameter_count_raises_its_own_error",),
    ),
    "group-skips-later-noise-check": Mutant(  # only a group's first id has its noise checked
        "oracles.py",
        """            group = groups[key] = form, state, noisy, p, note, block, slot
        else:
            oracle_values.append(group[0](*labels, *params))
        _, state, noisy, p, note, block, slot = group
        if slot is None:
            slot = slot_of(state, params[:-1] if noisy else params)
        if noisy:
            p = params[-1]
            if not 0.0 <= p <= 1.0:  # NaN too
                check_noise(p)""",
        """            group = groups[key] = form, state, noisy, p, note, block, slot
            if noisy and not 0.0 <= params[-1] <= 1.0:
                check_noise(params[-1])
        else:
            oracle_values.append(group[0](*labels, *params))
        _, state, noisy, p, note, block, slot = group
        if slot is None:
            slot = slot_of(state, params[:-1] if noisy else params)
        if noisy:
            p = params[-1]""",
        ("tests/test_compare.py::test_a_later_id_of_a_group_checks_its_noise",),
    ),
    "ex5-family-swapped": Mutant(
        "oracles.py",
        'state = "phi_lambda" if oid.name == "ex5_set" else "psi_theta"',
        'state = "psi_theta" if oid.name == "ex5_set" else "phi_lambda"',
        ("tests/test_compare.py",),
    ),
    "gather-shifted-one-row": Mutant(
        "oracles.py",
        "amps[[slots[i] for i in block]]",
        "amps[[slots[i] - 1 for i in block]]",
        ("tests/test_compare.py",),
    ),
    # the figure sweeps
    "figure-noise-fastest": Mutant(
        "oracles.py",
        "NoisyRows(np.tile(amps, (len(ps), 1)), np.repeat(ps, len(amps)))",
        "NoisyRows(np.repeat(amps, len(ps), axis=0), np.tile(ps, len(amps)))",
        ("tests/test_output_measures.py::test_figure_rows_match_dense_path",),
    ),
    "figure-h-variant": Mutant(  # every column takes the I row's variant, so fig4d's m_mana uses h
        "oracles.py",
        "_table_state_name(m, fig.state)",
        '_table_state_name("I", fig.state)',
        ("tests/test_registry.py::test_fig4d_mana_column_uses_fourier_variant",),
    ),
    # the record types, the closed-form lookup and the table cells
    "oracle-id-raw-params": Mutant(
        "oracles.py",
        "tuple(map(float, params))",
        "tuple(params)",
        ("tests/test_oracles.py::test_an_oracle_id_stores_floats_and_strings",),
    ),
    "dispatch-ex3-to-example4": Mutant(
        "oracles.py",
        'form, params, labels = example3, ("lam", "p"), ()',
        'form, params, labels = example4, ("lam", "p"), ()',
        ("tests/test_oracles.py::test_closed_form_calls_the_form_it_names",),
    ),
    "h-terms-swapped": Mutant(  # c2 and c3 enter ml1_h as a sum, c1 on its own
        "oracles.py",
        "c1, c2, c3, c4, c5 = _ML1_H_TERMS",
        "c2, c1, c3, c4, c5 = _ML1_H_TERMS",
        ("tests/test_oracles.py::test_h_column_closed_forms_match_printed_state",),
    ),
    "ex4-domain-unchecked": Mutant(
        "oracles.py",
        "if s < -1e-12:",
        "if False:",
        ("tests/test_oracles.py::test_example4_refuses_a_negative_sin_2theta",),
    ),
    "i-cell-without-h-global": Mutant(
        "oracles.py",
        "return 2 * shannon_entropy((1 - p) / 3.0, (2 + p) / 6.0, (2 + p) / 6.0) - h_global",
        "return 2 * shannon_entropy((1 - p) / 3.0, (2 + p) / 6.0, (2 + p) / 6.0)",
        ("tests/test_compare.py::test_the_grouped_suites_pass",),
    ),
    # the coherent search
    "rho-without-conjugate": Mutant(
        "search.py",
        "np.conjugate(psi, out=conj)[None, :, :]",
        "psi[None, :, :]",
        ("tests/test_search_bits.py",),
    ),
    "objective-times-d": Mutant(
        "search.py",
        "w.view(float)[...] *= 1.0 / d",
        "w.view(float)[...] *= d",
        ("tests/test_search_bits.py",),
    ),
    "golden-write-back-rows": Mutant(
        "search.py",
        "done = idx[~run]",
        "done = np.flatnonzero(~run)",
        ("tests/test_search_bits.py",),
    ),
    "golden-swap-crossed": Mutant(
        "search.py",
        "c, d_ = np.where(left, new, d_), np.where(left, c, new)",
        "c, d_ = np.where(left, c, new), np.where(left, new, d_)",
        ("tests/test_search_bits.py", "tests/test_search_lockstep.py"),
    ),
    "golden-new-point-side": Mutant(
        "search.py",
        "new = np.where(left, b - step, a + step)",
        "new = np.where(left, a + step, b - step)",
        ("tests/test_search_bits.py",),
    ),
    "golden-start-bracket-ge": Mutant(
        "search.py",
        "run = np.abs(b_out - a_out) > GOLDEN_TOL",
        "run = np.abs(b_out - a_out) >= GOLDEN_TOL",
        ("tests/test_search_bits.py",),
    ),
    "golden-stop-ge": Mutant(
        "search.py",
        "run = np.abs(width) > GOLDEN_TOL",
        "run = np.abs(width) >= GOLDEN_TOL",
        ("tests/test_search_bits.py", "tests/test_search_lockstep.py"),
    ),
    # the streamed grid and the golden-section lines
    "line-writes-column-i": Mutant(
        "search.py",
        "d, j, n = self.d, i + 1, len(base)",
        "d, j, n = self.d, i, len(base)",
        ("tests/test_search_bits.py",),
    ),
    "line-moved-row-only": Mutant(
        "search.py",
        "np.multiply(psi, conj[moved], out=rho[:, moved])",
        "pass",
        ("tests/test_search_bits.py",),
    ),
    "line-conj-row-stale": Mutant(
        "search.py",
        "np.conjugate(psi[moved], out=conj[moved])",
        "pass",
        ("tests/test_search_bits.py",),
    ),
    "line-full-rows-by-length": Mutant(
        "search.py",
        "len(rows) == n and (rows == every).all()",
        "len(rows) == n",
        ("tests/test_search_bits.py",),
    ),
    "line-one-row-in-place": Mutant(
        "search.py",
        "if n >= 2 and len(rows) == n",
        "if len(rows) == n",
        ("tests/test_search_bits.py",),
    ),
    "grid-first-amplitude": Mutant(
        "search.py",
        "psi[0] = 1.0 / math.sqrt(d)",
        "psi[0] = 1.0 / d",
        ("tests/test_search_bits.py",),
    ),
    "grid-axes-reversed": Mutant(
        "search.py",
        "enumerate(np.unravel_index(flat, shape), start=1)",
        "enumerate(np.unravel_index(flat, shape)[::-1], start=1)",
        ("tests/test_search_bits.py",),
    ),
    "box-max-wrap-off-by-one": Mutant(
        "search.py",
        "kept = np.array(o[0, ...])",
        "kept = np.array(o[1, ...])",
        ("tests/test_numpy_runtime.py", "tests/test_kernel_bits.py"),
    ),
    "box-max-neighbour-overwritten": Mutant(
        "search.py",
        "np.maximum(kept, o[0, ...], out=o[0, ...])",
        "np.maximum(o[-1, ...], o[0, ...], out=o[0, ...])",
        ("tests/test_numpy_runtime.py", "tests/test_kernel_bits.py"),
    ),
    "dedup-last-kept-only": Mutant(
        "search.py",
        "_angular_distance(x, unique[:count])",
        "_angular_distance(x, unique[max(count - 1, 0) : count])",
        ("tests/test_search_bits.py", "tests/test_search.py"),
    ),
    # the sign of a zero entropy
    "entropy-negative-zero": Mutant(
        "measures.py",
        "return 0.0 - (eigs * np.log(np.where(eigs > 0.0, eigs, 1.0))).sum(axis=-1)",
        "return -(eigs * np.log(np.where(eigs > 0.0, eigs, 1.0))).sum(axis=-1)",
        (
            "tests/test_measures.py::test_entropy_pure_zero_and_mixed",
            "tests/test_cli.py::test_measure_entropy_of_a_pure_state_prints_positive_zero",
        ),
    ),
    # the measure report's log base
    "log-factor-on-raw-measures": Mutant(  # l1 is a sum, not a logarithm: base 2 would scale it too
        "measures.py",
        "fn(rho) * factor if logarithmic else fn(rho)",
        "fn(rho) * factor",
        ("tests/test_measures.py::test_measure_report_l1_raw_not_converted",),
    ),
    # verification and the CLI boundary
    "check-worst-python-max": Mutant(
        "verify.py",
        "float(np.maximum(values.max(), 0.0))",
        "float(max(0.0, *values))",
        ("tests/test_verify.py",),
    ),
    "verify-default-seed": Mutant(
        "verify.py",
        '"seed": 42',
        '"seed": 41',
        ("tests/test_verify.py::test_absent_flags_take_the_defaults",),
    ),
    "csv-sixteen-digits": Mutant(
        "cli.py",
        '"%.17g" % x for x',
        '"%.16g" % x for x',
        ("tests/test_figure_csv.py",),
    ),
    "csv-dedupe-by-float-value": Mutant(
        "cli.py",
        "np.unique(rows.view(np.int64),",
        "np.unique(rows,",
        ("tests/test_figure_csv.py",),
    ),
    "parser-captures-commands": Mutant(
        "cli.py",
        """    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    command = globals()[f"cmd_{args.command}"]""",
        """    parser = build_parser()
    parser.set_defaults(table={name: globals()[f"cmd_{name}"] for name in ("measure", "verify", "figure", "maximize")})
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    command = args.table[args.command]""",
        ("tests/test_cli_parser.py::test_a_cmd_patched_after_the_first_run_is_dispatched",),
    ),
    "tolerance-without-finiteness": Mutant(
        "cli.py",
        "if not math.isfinite(value) or value < 0:",
        "if value < 0:",
        ("tests/test_cli_flags.py",),
    ),
    "error-line-on-stdout": Mutant(
        "cli.py",
        'print(f"error: {exc}", file=sys.stderr)',
        'print(f"error: {exc}")',
        ("tests/test_cli_argv.py",),
    ),
    "out-of-memory-uncaught": Mutant(
        "cli.py",
        "except (ManalabError, MemoryError, OSError, ValueError) as exc:",
        "except (ManalabError, OSError, ValueError) as exc:",
        ("tests/test_cli.py::test_out_of_memory_is_an_error_line",),
    ),
}

# mutants no test can catch, with the reason
KNOWN_SURVIVORS = {
    "golden-stop-ge": "differs only for a bracket that shrinks to exactly GOLDEN_TOL",
}


def apply(src: Path, mutant: Mutant) -> None:
    """Make the mutant's edit in the copy of src/ at `src`."""
    path = src / "manalab" / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.file}: the old text occurs {text.count(mutant.old)} times, not once")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


class TimedOut(Exception):
    """A mutant's tests ran past TIME_LIMIT_S."""


def killed(mutant: Mutant) -> bool:
    """Whether the mutant's tests fail against a mutated copy of src/; TimedOut past TIME_LIMIT_S."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        apply(src, mutant)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        tests = [str(ROOT / test) for test in mutant.tests]
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
        # a session of its own, so that the kill reaches every process the tests start
        proc = subprocess.Popen(
            cmd, cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True
        )
        try:
            code = proc.wait(timeout=TIME_LIMIT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise TimedOut(" ".join(mutant.tests)) from None
    if code not in (0, 1, 2):  # 1: a test failed, 2: collection failed (the mutant broke an import)
        raise RuntimeError(f"pytest exited {code} on {' '.join(mutant.tests)}")
    return code != 0


def main(argv: list[str]) -> int:
    unknown = [name for name in argv if name not in MUTANTS]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    surprises = 0
    for name in argv or MUTANTS:
        try:
            was_killed = killed(MUTANTS[name])
        except TimedOut:
            print(f"{name}: TIMED OUT", flush=True)
            surprises += 1
            continue
        if was_killed:
            status = "killed (listed as a known survivor)" if name in KNOWN_SURVIVORS else "killed"
        elif name in KNOWN_SURVIVORS:
            status = f"survived (known: {KNOWN_SURVIVORS[name]})"
        else:
            status = "SURVIVED"
            surprises += 1
        print(f"{name}: {status}", flush=True)
    return 1 if surprises else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
