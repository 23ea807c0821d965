"""Compilers implementing the paper's simulation techniques.

* :mod:`repro.translate.fo_to_datalog` — FO queries into non-recursive
  stratified Datalog¬ (the substrate of every other simulation);
* :mod:`repro.translate.delay` — the delay technique of Example 4.3:
  fire rules only after an inner fixpoint completes, in inflationary
  Datalog¬;
* :mod:`repro.translate.timestamp` — the timestamp technique of
  Example 4.4: re-run a loop body once per iteration, stamping scratch
  relations with newly derived values;
* :mod:`repro.translate.fixpoint_to_datalog` — compile (a documented
  class of) fixpoint while-change programs into inflationary Datalog¬
  (Theorem 4.2's simulation, made executable);
* :mod:`repro.translate.while_to_datalog` — compile while-change
  programs with non-cumulative assignment into Datalog¬¬ using a
  deletion-driven phase clock (the Datalog¬¬ ≡ while simulation).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".fo_to_datalog": ("CompiledFormula", "compile_formula", "adom_rules"),
    ".fo_to_algebra": ("compile_formula_to_algebra",),
    ".delay": ("compile_inner_with_post",),
    ".timestamp": ("compile_gain_loop",),
    ".fixpoint_to_datalog": ("compile_fixpoint_loop",),
    ".fixpoint_general": ("compile_fixpoint_loop_general",),
    ".while_to_datalog": ("compile_while_loop",),
})
