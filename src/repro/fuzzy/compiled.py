"""Compiled Mamdani inference: the rule base precompiled into numpy tensors.

:class:`MamdaniEngine` walks the rule base with a per-rule Python loop on
every ``infer`` — an interpreted evaluation that dominates the runtime of the
FACS simulations (two controllers, ~70 rules, one inference per admission
decision).  :class:`CompiledMamdaniEngine` performs the same computation with
a handful of vectorized operations by lowering the rule base at construction
time into

* an *antecedent index matrix* ``A`` of shape ``(n_rules, max_props)`` whose
  entries point into a flat vector of fuzzified membership degrees (rules
  with fewer propositions are padded with a slot pinned to ``1.0``, the
  identity of the minimum), and
* one *consequent surface tensor* ``C`` of shape ``(n_entries, resolution)``
  per output variable, stacking the pre-sampled consequent term surfaces in
  rule order.

One inference is then: fill the degree vector (scalar fast paths for the
triangular/trapezoidal shapes the paper uses), gather ``A`` and fold the
minimum across its columns to get all firing strengths at once, clip the
fired rows of ``C`` at their strengths and reduce them with the maximum, and
defuzzify.  The batch path clips one surface per distinct consequent term
instead of one per rule (see :meth:`CompiledMamdaniEngine._compile`).

The compiled engine is an exact drop-in: its results are bit-for-bit
identical to the reference engine's, which
``tests/fuzzy/test_engine_equivalence.py`` checks over random definitions.
Every rule is a conjunction of propositions, so every rule base compiles.

The engine is safe to share between threads: the scalar hot path keeps its
scratch degree buffer in thread-local storage, so results stay deterministic
under the thread-pool sweep executor.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .defuzzification import Centroid, DefuzzificationError
from .inference import (
    BatchInference,
    InferenceResult,
    MamdaniEngine,
    RuleActivation,
)
from .membership import Trapezoidal, Triangular
from .variables import LinguisticVariable, Term

__all__ = [
    "CompiledMamdaniEngine",
    "CrispInference",
]

_EPS = 1e-12
# np.isclose defaults, replicated so the scalar fast paths match the array
# evaluation of Triangular bitwise.
_ISCLOSE_RTOL = 1e-5
_ISCLOSE_ATOL = 1e-8


@dataclass(frozen=True)
class CrispInference:
    """Lightweight inference outcome: crisp outputs plus the dominant rule.

    The fast-path counterpart of :class:`InferenceResult` — no per-rule
    activation records and no aggregated surfaces, so admission decisions in
    the simulator hot loop do not pay for diagnostics they never read.
    """

    outputs: Mapping[str, float]
    dominant_index: int
    dominant_label: str

    def __getitem__(self, variable: str) -> float:
        return self.outputs[variable]


def _isclose_scalar(x: float, target: float) -> bool:
    return abs(x - target) <= _ISCLOSE_ATOL + _ISCLOSE_RTOL * abs(target)


def _triangular_degree(x: float, a: float, b: float, c: float) -> float:
    """Scalar replica of ``Triangular.evaluate`` followed by the [0, 1] clip.

    Mirrors the array implementation branch for branch (including the
    ``np.isclose`` peak snapping) so the result is bit-identical to
    ``term.degree(x)``.
    """
    mu = 0.0
    left_width = b - a
    right_width = c - b
    if left_width > _EPS:
        if a < x < b:
            mu = (x - a) / left_width
    elif _isclose_scalar(x, b):
        mu = 1.0
    if right_width > _EPS and b <= x < c:
        mu = (c - x) / right_width
    if _isclose_scalar(x, b):
        mu = 1.0
    if left_width <= _EPS and x == b:
        mu = 1.0
    return min(max(mu, 0.0), 1.0)


def _trapezoidal_degree(x: float, a: float, b: float, c: float, d: float) -> float:
    """Scalar replica of ``Trapezoidal.evaluate`` followed by the [0, 1] clip."""
    mu = 0.0
    left_width = b - a
    right_width = d - c
    if left_width > _EPS and a < x < b:
        mu = (x - a) / left_width
    if right_width > _EPS and c < x < d:
        mu = (d - x) / right_width
    if b <= x <= c:
        mu = 1.0
    return min(max(mu, 0.0), 1.0)


def _term_evaluator(term: Term) -> Callable[[float], float]:
    """Return the fastest exact scalar evaluator for a term's membership."""
    mf = term.membership
    if type(mf) is Triangular:
        a, b, c = mf.a, mf.b, mf.c
        return lambda x: _triangular_degree(x, a, b, c)
    if type(mf) is Trapezoidal:
        a, b, c, d = mf.a, mf.b, mf.c, mf.d
        return lambda x: _trapezoidal_degree(x, a, b, c, d)
    return term.degree


class CompiledMamdaniEngine(MamdaniEngine):
    """Vectorized Mamdani engine, equivalent to :class:`MamdaniEngine`.

    Takes the same arguments as :class:`MamdaniEngine`.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._compile()

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _compile(self) -> None:
        rule_base = self._rule_base
        self._input_order: list[str] = list(rule_base.input_variables)

        # Flat degree vector layout: one slot per (variable, term) in
        # variable order, plus a trailing slot pinned to 1.0 — the identity
        # of the minimum — used to pad rules with fewer propositions.
        slot_of: dict[tuple[str, str], int] = {}
        fuzzify_plan: list[
            tuple[str, float, float, int, list[Callable[[float], float]]]
        ] = []
        n_slots = 0
        for name in self._input_order:
            variable = rule_base.input_variables[name]
            offset = n_slots
            evaluators: list[Callable[[float], float]] = []
            for term in variable:
                slot_of[(name, term.name)] = n_slots
                evaluators.append(_term_evaluator(term))
                n_slots += 1
            low, high = variable.universe
            fuzzify_plan.append((name, low, high, offset, evaluators))
        self._fuzzify_plan = fuzzify_plan
        # Array membership callables per variable, for the batched fuzzifier
        # (the scalar plan's closures replicate exactly these array paths).
        self._batch_fuzzify_plan = [
            (
                name,
                low,
                high,
                offset,
                [term.membership for term in rule_base.input_variables[name]],
            )
            for name, low, high, offset, _ in fuzzify_plan
        ]
        self._identity_slot = n_slots
        self._n_degree_slots = n_slots + 1
        # The scalar hot path reuses a scratch buffer; keeping it in
        # thread-local storage makes a shared engine safe under the
        # thread-pool sweep executor.
        self._degree_local = threading.local()

        rows = [
            [slot_of[(prop.variable, prop.term)] for prop in rule.antecedent]
            for rule in rule_base
        ]
        width = max(len(row) for row in rows)
        index = np.full((len(rows), width), self._identity_slot, dtype=np.intp)
        for i, row in enumerate(rows):
            index[i, : len(row)] = row
        self._antecedent_index = index
        self._antecedent_width = width

        weights = np.array([rule.weight for rule in rule_base], dtype=float)
        self._weights = weights
        self._trivial_weights = bool(np.all(weights == 1.0))

        # The centroid defuzzifier reduces to two trapezoid integrals over
        # the fixed output grid; precomputing the grid spacing and replaying
        # np.trapezoid's formula saves two np.diff calls per inference while
        # remaining bit-identical.  Only the exact Centroid type qualifies —
        # subclasses may override behaviour.
        self._fast_centroid = type(self._defuzzifier) is Centroid

        # Per output variable: (entry -> rule index, stacked surfaces, variable).
        plans: dict[str, tuple[np.ndarray, np.ndarray, LinguisticVariable]] = {}
        self._grid_diffs: dict[str, np.ndarray] = {}
        # The validating Centroid rejects a surface whose area or peak is at
        # most _EPS.  Area <= peak * span, so a surface with more area than
        # this bound passes both checks and the fast centroid reads its peak
        # only below it.
        self._zero_area_bounds: dict[str, float] = {}
        for var_name, variable in rule_base.output_variables.items():
            self._grid_diffs[var_name] = np.diff(variable.grid)
            low, high = variable.universe
            self._zero_area_bounds[var_name] = _EPS * max(1.0, 2.0 * (high - low))
            surfaces: list[np.ndarray] = []
            entry_rules: list[int] = []
            for rule_index, rule in enumerate(rule_base):
                for consequent in rule.consequents:
                    if consequent.variable == var_name:
                        surfaces.append(self._output_term_surfaces[var_name][consequent.term])
                        entry_rules.append(rule_index)
            tensor = (
                np.ascontiguousarray(np.stack(surfaces))
                if surfaces
                else np.zeros((0, variable.resolution))
            )
            plans[var_name] = (np.asarray(entry_rules, dtype=np.intp), tensor, variable)
        self._consequent_plans = plans

        # Term-grouped consequent plans, which the batch path runs.  Rules
        # sharing a consequent term have *identical* clipped surfaces, and
        # the per-entry fold ``max_e min(T, s_e)`` equals
        # ``min(T, max_e s_e)`` (clipping against a fixed surface is a
        # monotone selection, so this is exact, not just algebraically true)
        # — the clip tensor shrinks from one row per rule to one row per
        # distinct term.  Each term's clipped surface is exactly zero
        # outside its membership support — the identity of max — so
        # aggregation touches only the support slice.
        grouped: dict[
            str, tuple[list[np.ndarray], list[np.ndarray], list[tuple[int, int]], int]
        ] = {}
        for var_name, variable in rule_base.output_variables.items():
            term_rules: dict[str, list[int]] = {}
            for rule_index, rule in enumerate(rule_base):
                for consequent in rule.consequents:
                    if consequent.variable == var_name:
                        term_rules.setdefault(consequent.term, []).append(rule_index)
            term_surfaces: list[np.ndarray] = []
            term_columns: list[np.ndarray] = []
            supports: list[tuple[int, int]] = []
            for term, rule_indices in term_rules.items():
                surface = self._output_term_surfaces[var_name][term]
                nonzero = np.flatnonzero(surface != 0.0)
                start, stop = (
                    (int(nonzero[0]), int(nonzero[-1]) + 1) if nonzero.size else (0, 0)
                )
                term_surfaces.append(np.ascontiguousarray(surface[start:stop]))
                term_columns.append(np.asarray(rule_indices, dtype=np.intp))
                supports.append((start, stop))
            grouped[var_name] = (
                term_surfaces,
                term_columns,
                supports,
                int(variable.grid.shape[0]),
            )
        self._grouped_consequent_plans = grouped

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------
    @property
    def _degree_buffer(self) -> np.ndarray:
        """Per-thread scratch buffer for the scalar fuzzifier."""
        buffer = getattr(self._degree_local, "buffer", None)
        if buffer is None:
            buffer = np.empty(self._n_degree_slots, dtype=float)
            buffer[self._identity_slot] = 1.0
            self._degree_local.buffer = buffer
        return buffer

    def _fill_degrees(self, inputs: Mapping[str, float]) -> np.ndarray:
        buffer = self._degree_buffer
        try:
            for name, low, high, offset, evaluators in self._fuzzify_plan:
                value = float(inputs[name])
                if value < low:
                    value = low
                elif value > high:
                    value = high
                for k, evaluator in enumerate(evaluators):
                    buffer[offset + k] = evaluator(value)
        except KeyError:
            missing = set(self._rule_base.input_variables) - set(inputs)
            raise ValueError(
                f"missing crisp inputs for variables: {sorted(missing)}"
            ) from None
        return buffer

    def _firing_strengths(self, buffer: np.ndarray) -> np.ndarray:
        picked = buffer[self._antecedent_index]
        strengths = picked[:, 0]
        for column in range(1, self._antecedent_width):
            strengths = np.minimum(strengths, picked[:, column])
        if not self._trivial_weights:
            strengths = self._weights * strengths
        return strengths

    def _aggregate_output(
        self,
        strengths: np.ndarray,
        entry_rules: np.ndarray,
        tensor: np.ndarray,
        var_name: str,
        inputs: Mapping[str, float],
    ) -> np.ndarray:
        entry_strengths = strengths[entry_rules]
        fired = entry_strengths > 0.0
        if not fired.any():
            raise DefuzzificationError(
                f"no rule fired for output variable {var_name!r} with inputs "
                f"{dict(inputs)!r}; the rule base does not cover this input region"
            )
        if fired.all():
            surfaces, fired_strengths = tensor, entry_strengths
        else:
            surfaces, fired_strengths = tensor[fired], entry_strengths[fired]
        clipped = np.minimum(surfaces, fired_strengths[:, None])
        # Clipped surfaces are non-negative, so the axis reduction equals
        # the reference engine's fold from a zero surface bit-for-bit.
        return clipped.max(axis=0)

    def _defuzzify_fast(
        self, var_name: str, variable: LinguisticVariable, surface: np.ndarray
    ) -> float:
        """Defuzzify an aggregated surface, raising where the reference does.

        A fired rule can still leave an all-zero surface (a consequent term
        that samples to zero on the output grid), so every defuzzifier goes
        through its validating ``__call__``.  The exact :class:`Centroid`
        is the one shortcut: its two ``np.trapezoid`` integrals are replayed
        against the precomputed grid spacing, producing the same value
        bit-for-bit with fewer array passes, and it raises on the surfaces
        the validating call rejects (zero area, or a peak at most ``_EPS``).
        """
        if self._fast_centroid:
            grid = variable.grid
            spacing = self._grid_diffs[var_name]
            area = float((spacing * (surface[1:] + surface[:-1]) / 2.0).sum())
            if area <= self._zero_area_bounds[var_name] and (
                area <= _EPS or float(surface.max()) <= _EPS
            ):
                raise DefuzzificationError("zero area under membership surface")
            moment = surface * grid
            return float((spacing * (moment[1:] + moment[:-1]) / 2.0).sum() / area)
        return self._defuzzifier(variable.grid, surface)

    def infer_crisp(self, inputs: Mapping[str, float]) -> CrispInference:
        """Crisp outputs plus dominant rule, skipping all diagnostics.

        This is the engine's hot path: identical numbers to :meth:`infer`
        without materialising per-rule activation records or surface dicts.
        """
        buffer = self._fill_degrees(inputs)
        strengths = self._firing_strengths(buffer)
        outputs: dict[str, float] = {}
        for var_name, (entry_rules, tensor, variable) in self._consequent_plans.items():
            aggregated = self._aggregate_output(strengths, entry_rules, tensor, var_name, inputs)
            outputs[var_name] = self._defuzzify_fast(var_name, variable, aggregated)
        dominant = int(np.argmax(strengths))
        return CrispInference(
            outputs=outputs,
            dominant_index=dominant,
            dominant_label=self._rule_base[dominant].label,
        )

    def infer(self, inputs: Mapping[str, float]) -> InferenceResult:
        """Full inference with the same diagnostics as the reference engine."""
        buffer = self._fill_degrees(inputs)
        degrees = {
            name: {
                term.name: float(buffer[offset + k])
                for k, term in enumerate(self._rule_base.input_variables[name])
            }
            for name, _, _, offset, _ in self._fuzzify_plan
        }
        strengths = self._firing_strengths(buffer)
        activations = tuple(
            RuleActivation(rule, float(strength))
            for rule, strength in zip(self._rule_base, strengths)
        )
        outputs: dict[str, float] = {}
        aggregated: dict[str, np.ndarray] = {}
        for var_name, (entry_rules, tensor, variable) in self._consequent_plans.items():
            surface = self._aggregate_output(strengths, entry_rules, tensor, var_name, inputs)
            aggregated[var_name] = surface
            outputs[var_name] = self._defuzzifier(variable.grid, surface)
        return InferenceResult(
            outputs=outputs,
            fuzzified_inputs=degrees,
            activations=activations,
            aggregated=aggregated,
        )

    # ------------------------------------------------------------------
    # Batched hot path
    # ------------------------------------------------------------------
    #: Upper bound on the array elements one block's aggregation holds (per
    #: row: one aggregated surface plus one support-sliced contribution);
    #: rows are independent, so chunking changes peak memory but not a
    #: single bit of the results.
    _BATCH_BLOCK_ELEMENTS = 8_000_000

    def _fill_degrees_batch(self, matrix: np.ndarray) -> np.ndarray:
        """Fuzzify a whole ``(N, n_vars)`` matrix into ``(N, n_slots + 1)``.

        Uses the membership functions' array evaluation — the very path the
        scalar fast-path closures replicate branch for branch — so each row
        equals :meth:`_fill_degrees` on that row bit for bit.
        """
        degrees = np.empty((matrix.shape[0], self._n_degree_slots))
        degrees[:, self._identity_slot] = 1.0
        for k, (name, low, high, offset, memberships) in enumerate(self._batch_fuzzify_plan):
            values = np.clip(matrix[:, k], low, high)
            for j, membership in enumerate(memberships):
                degrees[:, offset + j] = np.clip(membership.evaluate(values), 0.0, 1.0)
        return degrees

    def _firing_strengths_batch(self, degrees: np.ndarray) -> np.ndarray:
        """All rules' firing strengths for all rows: ``(N, n_rules)``."""
        picked = degrees[:, self._antecedent_index]
        strengths = picked[:, :, 0]
        for column in range(1, self._antecedent_width):
            strengths = np.minimum(strengths, picked[:, :, column])
        if not self._trivial_weights:
            strengths = self._weights * strengths
        return strengths

    @staticmethod
    def _term_strengths_batch(
        strengths: np.ndarray, term_columns: list[np.ndarray]
    ) -> np.ndarray:
        """Per-consequent-term maximum firing strengths: ``(N, n_terms)``.

        A term's effective clip level is the maximum strength over the rules
        concluding in it; strengths are non-negative, so ``any(term > 0)`` is
        also exactly the per-entry fired check.
        """
        count = strengths.shape[0]
        term_strengths = np.empty((count, len(term_columns)))
        for t, columns in enumerate(term_columns):
            if columns.size == 1:
                term_strengths[:, t] = strengths[:, columns[0]]
            else:
                strengths[:, columns].max(axis=1, out=term_strengths[:, t])
        return term_strengths

    def _aggregate_output_batch(
        self, strengths: np.ndarray, var_name: str, row_offset: int = 0
    ) -> np.ndarray:
        """Aggregated output surfaces for all rows: ``(N, resolution)``.

        Runs the term-grouped plan, bit-identical to the scalar path's
        per-entry fold: strengths are non-negative, so the term strength
        ``max_e s_e`` selects the entry that would win the element-wise
        maximum anyway (min against a fixed surface is monotone in the
        strength), and outside a term's support its clipped surface is
        exactly ``0.0`` — the identity the zero-initialised accumulator
        already holds.  Rows where no entry fired would defuzzify garbage,
        so they raise just like the scalar path (``row_offset`` maps a
        block-local row back to its index in the caller's full batch).
        """
        plan = self._grouped_consequent_plans[var_name]
        term_surfaces, term_columns, supports, grid_length = plan
        count = strengths.shape[0]
        term_strengths = self._term_strengths_batch(strengths, term_columns)
        fired_any = (term_strengths > 0.0).any(axis=1)
        if not fired_any.all():
            row = row_offset + int(np.flatnonzero(~fired_any)[0])
            raise DefuzzificationError(
                f"no rule fired for output variable {var_name!r} at batch row "
                f"{row}; the rule base does not cover this input region"
            )
        aggregated = np.zeros((count, grid_length))
        for t, (start, stop) in enumerate(supports):
            if start == stop:
                continue
            contribution = np.minimum(term_surfaces[t], term_strengths[:, t, None])
            window = aggregated[:, start:stop]
            np.maximum(window, contribution, out=window)
        return aggregated

    def _defuzzify_fast_batch(
        self, var_name: str, variable: LinguisticVariable, surfaces: np.ndarray
    ) -> np.ndarray:
        """Row-wise :meth:`_defuzzify_fast` over ``(N, resolution)`` surfaces."""
        if self._fast_centroid:
            grid = variable.grid
            spacing = self._grid_diffs[var_name]
            # In-place temporaries; every operation and reduction order is
            # exactly the scalar fast path's (multiplication commutes bit
            # for bit), so the results stay bit-identical.
            trapezoids = surfaces[:, 1:] + surfaces[:, :-1]
            trapezoids *= spacing
            trapezoids /= 2.0
            areas = trapezoids.sum(axis=1)
            small = areas <= self._zero_area_bounds[var_name]
            if small.any() and np.any(
                (areas[small] <= _EPS) | (surfaces[small].max(axis=1) <= _EPS)
            ):
                raise DefuzzificationError("zero area under membership surface")
            moments = surfaces * grid
            trapezoids = moments[:, 1:] + moments[:, :-1]
            trapezoids *= spacing
            trapezoids /= 2.0
            centroids = trapezoids.sum(axis=1)
            centroids /= areas
            return centroids
        return np.array([self._defuzzifier(variable.grid, row) for row in surfaces])

    def _infer_batch_block(
        self, matrix: np.ndarray, row_offset: int = 0
    ) -> tuple[dict[str, np.ndarray], np.ndarray]:
        degrees = self._fill_degrees_batch(matrix)
        strengths = self._firing_strengths_batch(degrees)
        outputs: dict[str, np.ndarray] = {}
        for var_name, (_, _, variable) in self._consequent_plans.items():
            aggregated = self._aggregate_output_batch(strengths, var_name, row_offset)
            outputs[var_name] = self._defuzzify_fast_batch(var_name, variable, aggregated)
        return outputs, np.argmax(strengths, axis=1)

    def infer_batch(
        self, inputs: np.ndarray | Mapping[str, np.ndarray]
    ) -> BatchInference:
        """Tensorized batch inference, bit-identical to per-row :meth:`infer`.

        The whole batch flows through the compiled antecedent/consequent
        tensors in a handful of vectorized passes; processing happens in
        blocks bounding peak memory, which cannot change results because rows
        are mutually independent.
        """
        matrix = self._batch_matrix(inputs)
        count = matrix.shape[0]
        # The grouped path never materialises the full clip tensor; its
        # per-row footprint is one aggregated surface plus one
        # support-sliced contribution.
        row_elements = max(
            (
                grid_length + max((stop - start for start, stop in supports), default=0)
                for _, _, supports, grid_length in self._grouped_consequent_plans.values()
            ),
            default=1,
        )
        block = max(1, self._BATCH_BLOCK_ELEMENTS // max(row_elements, 1))
        if count <= block:
            outputs, dominant = self._infer_batch_block(matrix)
            return BatchInference(outputs=outputs, dominant_indices=dominant)
        output_blocks: list[dict[str, np.ndarray]] = []
        dominant_blocks: list[np.ndarray] = []
        for start in range(0, count, block):
            outputs, dominant = self._infer_batch_block(
                matrix[start : start + block], row_offset=start
            )
            output_blocks.append(outputs)
            dominant_blocks.append(dominant)
        merged = {
            name: np.concatenate([chunk[name] for chunk in output_blocks])
            for name in self._rule_base.output_variables
        }
        return BatchInference(outputs=merged, dominant_indices=np.concatenate(dominant_blocks))
