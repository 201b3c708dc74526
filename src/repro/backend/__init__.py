"""Backends: λrc → lp codegen, lp → rgn and rgn → CFG lowerings, the baseline
C emitter and the end-to-end pipeline drivers.

The exports resolve lazily (PEP 562): ``from repro.backend import run_mlir``
imports :mod:`repro.backend.pipeline` on first use, so importing a light
submodule such as :mod:`repro.backend.options` does not pull in the whole
compiler.
"""

from ..lazy import lazy_exports

#: Exported name -> the submodule defining it.
_EXPORTS = {
    "emit_c_source": ".c_backend",
    "LabelScope": ".lowering_context",
    "LoweringContext": ".lowering_context",
    "CodegenError": ".lp_codegen",
    "generate_lp_module": ".lp_codegen",
    "LpToRgnPass": ".lp_to_rgn",
    "lower_lp_to_rgn": ".lp_to_rgn",
    "FIGURE10_VARIANTS": ".options",
    "RC_VARIANTS": ".options",
    "PipelineOptions": ".options",
    "rgn_pipeline_spec": ".options",
    "BaselineCompiler": ".pipeline",
    "CompilationArtifacts": ".pipeline",
    "CompilationSession": ".pipeline",
    "Frontend": ".pipeline",
    "MlirCompiler": ".pipeline",
    "build_spec_pipeline": ".pipeline",
    "rgn_optimization_pipeline": ".pipeline",
    "run_all_backends": ".pipeline",
    "run_baseline": ".pipeline",
    "run_mlir": ".pipeline",
    "run_rc_variant": ".pipeline",
    "run_reference": ".pipeline",
    "RgnToCfPass": ".rgn_to_cf",
    "lower_rgn_to_cf": ".rgn_to_cf",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(globals(), _EXPORTS)
