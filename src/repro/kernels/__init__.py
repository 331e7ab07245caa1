"""Kernel rewriting: template engine, kernel templates, rewriter (§4.4)."""

from repro.kernels.codegen import ExecStyle, KernelBundle, KernelProgram
from repro.kernels.rewriter import KernelRewriter, transform_kernel_source
from repro.kernels.templating import Template, TemplateError

__all__ = [
    "ExecStyle",
    "KernelBundle",
    "KernelProgram",
    "KernelRewriter",
    "transform_kernel_source",
    "Template",
    "TemplateError",
]
