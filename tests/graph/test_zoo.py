"""Model zoo characterization tests against the paper's Table 6."""

import importlib

import pytest

from repro.graph.models import (
    EVALUATED_MODELS,
    MODEL_CARDS,
    PAPER_CHARACTERIZATION,
    SOLVER_MODEL_CARDS,
    available_models,
    load_model,
    transformer,
    zoo,
)

#: Relative tolerance on params/MACs vs. Table 6 (builders are synthetic
#: re-creations; see DESIGN.md).
TOLERANCE = 0.30


@pytest.fixture(scope="module")
def built_models():
    # SAM-2 / big GPT builds take a moment; build each once per module.
    return {abbr: load_model(abbr) for abbr in EVALUATED_MODELS}


class TestZooRegistry:
    def test_eleven_evaluated_models(self):
        assert len(EVALUATED_MODELS) == 11

    def test_available_includes_solver_variants(self):
        avail = available_models()
        for abbr in ("ViT-8B", "Llama2-13B", "Llama2-70B"):
            assert abbr in avail

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            load_model("GPT-5")

    def test_cards_have_metadata(self):
        for card in MODEL_CARDS.values():
            assert card.input_type and card.task and card.full_name


class TestTable6Characterization:
    @pytest.mark.parametrize("abbr", EVALUATED_MODELS)
    def test_params_match_paper(self, built_models, abbr):
        paper_params, _, _ = PAPER_CHARACTERIZATION[abbr]
        built = built_models[abbr].total_params / 1e6
        assert built == pytest.approx(paper_params, rel=TOLERANCE), (
            f"{abbr}: built {built:.1f}M vs paper {paper_params}M"
        )

    @pytest.mark.parametrize("abbr", EVALUATED_MODELS)
    def test_macs_match_paper(self, built_models, abbr):
        _, paper_macs, _ = PAPER_CHARACTERIZATION[abbr]
        built = built_models[abbr].total_macs / 1e9
        assert built == pytest.approx(paper_macs, rel=TOLERANCE), (
            f"{abbr}: built {built:.1f}G vs paper {paper_macs}G"
        )

    @pytest.mark.parametrize("abbr", EVALUATED_MODELS)
    def test_layer_counts_in_band(self, built_models, abbr):
        # Our lowering is coarser than the paper's; layer counts land within
        # a documented factor rather than matching exactly (EXPERIMENTS.md).
        _, _, paper_layers = PAPER_CHARACTERIZATION[abbr]
        built = built_models[abbr].num_layers
        assert 0.2 * paper_layers <= built <= 2.0 * paper_layers

    def test_size_ordering_preserved(self, built_models):
        # Relative ordering of model sizes must match the paper.
        params = {a: built_models[a].total_params for a in EVALUATED_MODELS}
        assert params["GPTN-S"] < params["GPTN-1.3B"] < params["GPTN-2.7B"]
        assert params["ResNet50"] < params["ViT"] < params["DeepViT"]
        assert params["DepA-S"] < params["DepA-L"]

    def test_all_graphs_frozen_and_acyclic(self, built_models):
        for g in built_models.values():
            nodes = g.nodes()
            for node in nodes:
                for parent in node.inputs:
                    assert parent.index < node.index

    def test_weight_names_unique_per_model(self, built_models):
        for g in built_models.values():
            names = [w.name for w, _ in g.weights()]
            assert len(names) == len(set(names))


class TestSolverVariants:
    def test_llama13b_larger_than_gptneo(self):
        g = load_model("Llama2-13B")
        assert g.total_params > 10e9

    def test_solver_cards_registered(self):
        assert set(SOLVER_MODEL_CARDS) == {"ViT-8B", "Llama2-13B", "Llama2-70B"}

    def test_solver_cards_derive_sizes_on_first_read(self, monkeypatch):
        built = []
        names = ("vit_8b", "llama2_13b", "llama2_70b")
        for name in names:
            real = getattr(transformer, name)

            def counting(*args, _real=real, **kwargs):
                built.append(_real.__name__)
                return _real(*args, **kwargs)

            monkeypatch.setattr(transformer, name, counting)
        try:
            reloaded = importlib.reload(zoo)
            assert built == []  # importing the zoo builds no graph
            for abbr, card in reloaded.SOLVER_MODEL_CARDS.items():
                sizes = (card.paper_params_m, card.paper_macs_g, card.paper_layers)
                graph = reloaded.load_model(abbr)
                assert sizes == (
                    round(graph.total_params / 1e6, 1),
                    round(graph.total_macs / 1e9, 1),
                    graph.num_layers,
                )
            # One build per card for its three sizes, one per load_model.
            assert built == [name for name in names for _ in range(2)]
        finally:
            monkeypatch.undo()
            importlib.reload(zoo)
