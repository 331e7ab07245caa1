"""Model zoo registry for the 11 evaluated models plus solver-scaling variants.

:data:`PAPER_CHARACTERIZATION` holds the paper's Table 6 reference rows so
the Table 6 bench can print paper-vs-built side by side; :func:`load_model`
builds the lowered graph by abbreviation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple

from repro.graph.dag import Graph
from repro.graph.models import convnet, sam, transformer


@dataclass(frozen=True)
class ModelCard:
    """Reference characterization of an evaluated model (paper Table 6).

    ``paper`` is the model's Table 6 row ``(params M, MACs G, layers)``.
    The solver-scaling variants have none — Table 4 doesn't report MACs or
    layer counts, and placeholder zeros would make anything that normalizes
    by them divide by zero or pass vacuously — so theirs is derived from the
    built graph on first read, not at import.
    """

    abbr: str
    full_name: str
    input_type: str
    task: str
    paper: Optional[Tuple[float, float, int]]
    builder: Callable[..., Graph]

    @cached_property
    def _row(self) -> Tuple[float, float, int]:
        if self.paper is not None:
            return self.paper
        graph = self.builder()
        return (
            round(graph.total_params / 1e6, 1),
            round(graph.total_macs / 1e9, 1),
            graph.num_layers,
        )

    @property
    def paper_params_m(self) -> float:
        return self._row[0]

    @property
    def paper_macs_g(self) -> float:
        return self._row[1]

    @property
    def paper_layers(self) -> int:
        return self._row[2]


_CARDS: List[ModelCard] = [
    ModelCard("GPTN-S", "GPTNeo-Small", "Text", "NLP", (164, 16, 606), transformer.gpt_neo_small),
    ModelCard("GPTN-1.3B", "GPTNeo-1.3B", "Text", "NLP", (1419, 170, 1110), transformer.gpt_neo_1p3b),
    ModelCard("GPTN-2.7B", "GPTNeo-2.7B", "Text", "NLP", (2781, 342, 1446), transformer.gpt_neo_2p7b),
    ModelCard("ResNet50", "ResNet50", "Image", "Classification", (25.6, 4.1, 141), convnet.resnet50),
    ModelCard("SAM-2", "SegmentationAnything-2", "Image", "Segmentation", (215, 218, 1668), sam.sam2),
    ModelCard("ViT", "ViT", "Image", "Classification", (103, 21, 819), transformer.vit),
    ModelCard("DeepViT", "DeepViT", "Image", "Classification", (204, 42, 1395), transformer.deepvit),
    ModelCard("SD-UNet", "StableDiffusion-UNet", "Image", "Generation", (860, 78, 1271), convnet.sd_unet),
    ModelCard("Whisp-M", "Whisper-Medium", "Audio", "Speech Recognition", (356, 55, 2026), transformer.whisper_medium),
    ModelCard("DepA-S", "DepthAnything-Small", "Video", "Segmentation", (24.3, 14, 1108), convnet.depth_anything_small),
    ModelCard("DepA-L", "DepthAnything-Large", "Video", "Segmentation", (333, 180, 2007), convnet.depth_anything_large),
]

#: Solver-scaling variants used only by the paper's Table 4.
_SOLVER_CARDS: List[ModelCard] = [
    ModelCard("ViT-8B", "ViT-8B", "Image", "Classification", None, transformer.vit_8b),
    ModelCard("Llama2-13B", "Llama2-13B", "Text", "NLP", None, transformer.llama2_13b),
    ModelCard("Llama2-70B", "Llama2-70B", "Text", "NLP", None, transformer.llama2_70b),
]

MODEL_CARDS: Dict[str, ModelCard] = {c.abbr: c for c in _CARDS}
SOLVER_MODEL_CARDS: Dict[str, ModelCard] = {c.abbr: c for c in _SOLVER_CARDS}
ALL_CARDS: Dict[str, ModelCard] = {**MODEL_CARDS, **SOLVER_MODEL_CARDS}

#: Paper Table 6 rows, importable for the characterization bench.
PAPER_CHARACTERIZATION = {c.abbr: c.paper for c in _CARDS}

EVALUATED_MODELS = [c.abbr for c in _CARDS]


def available_models() -> List[str]:
    """Abbreviations of all buildable models (evaluated + solver-scaling)."""
    return list(ALL_CARDS)


#: Decode-phase builder per LLM abbreviation: same dims as the prefill
#: builders, but lowered as a single-token step over growing KV caches.
_DECODE_BUILDERS: Dict[str, Callable[..., Graph]] = {
    "GPTN-S": lambda **kw: transformer.build_gpt_neo_decode("GPTN-S", dim=768, blocks=12, heads=12, **kw),
    "GPTN-1.3B": lambda **kw: transformer.build_gpt_neo_decode("GPTN-1.3B", dim=2048, blocks=24, heads=16, **kw),
    "GPTN-2.7B": lambda **kw: transformer.build_gpt_neo_decode("GPTN-2.7B", dim=2560, blocks=32, heads=20, **kw),
    "Llama2-13B": lambda **kw: transformer.build_llama_decode("Llama2-13B", dim=5120, blocks=40, heads=40, **kw),
    "Llama2-70B": lambda **kw: transformer.build_llama_decode("Llama2-70B", dim=8192, blocks=80, heads=64, **kw),
}

#: LLMs with a decode-phase lowering (the ``--scenario decode`` candidates).
DECODE_MODELS = sorted(_DECODE_BUILDERS)


def load_decode_model(
    abbr: str,
    *,
    context_len: int,
    max_context: int = None,
    dtype_bytes: int = 2,
) -> Graph:
    """Build the single-token decode graph for an LLM by abbreviation.

    ``context_len`` is the KV-cache fill when decoding starts (the prompt /
    conversation so far); ``max_context`` bounds how far the caches may grow
    (defaults to ``context_len`` plus a generation headroom).
    """
    try:
        builder = _DECODE_BUILDERS[abbr]
    except KeyError:
        raise KeyError(
            f"model {abbr!r} has no decode lowering; available: {DECODE_MODELS}"
        ) from None
    kwargs = {"context_len": context_len, "dtype_bytes": dtype_bytes}
    if max_context is not None:
        kwargs["max_context"] = max_context
    return builder(**kwargs)


def load_model(abbr: str, *, dtype_bytes: int = 2) -> Graph:
    """Build the lowered graph for a model by its paper abbreviation.

    ``dtype_bytes=4`` builds the fp32 configuration the paper's appendix
    evaluates (same topology, doubled weight/activation footprints).

    >>> g = load_model("ResNet50")
    >>> g.total_params > 20_000_000
    True
    """
    try:
        card = ALL_CARDS[abbr]
    except KeyError:
        raise KeyError(f"unknown model {abbr!r}; available: {sorted(ALL_CARDS)}") from None
    return card.builder(dtype_bytes=dtype_bytes)
