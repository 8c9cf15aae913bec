"""The models registry: one resolution path for every consumer."""

import pytest

from repro.core import ConfigurationError, Platform, TaskGraph
from repro.models import (
    MacroDataflowModel,
    NoOverlapOnePortModel,
    OnePortModel,
    RoutedOnePortModel,
    UniPortModel,
    available_models,
    make_model,
    register_model,
)


@pytest.fixture
def platform():
    return Platform.homogeneous(3)


class TestRegistry:
    def test_all_builtins_registered(self):
        names = available_models()
        for expected in ("one-port", "macro-dataflow", "routed", "uni-port",
                         "no-overlap"):
            assert expected in names

    @pytest.mark.parametrize("name,cls", [
        ("one-port", OnePortModel),
        ("macro-dataflow", MacroDataflowModel),
        ("routed", RoutedOnePortModel),
        ("uni-port", UniPortModel),
        ("no-overlap", NoOverlapOnePortModel),
    ])
    def test_make_model_resolves(self, platform, name, cls):
        model = make_model(platform, name)
        assert isinstance(model, cls)
        assert model.registry_name == name

    def test_instance_passthrough(self, platform):
        model = OnePortModel(platform)
        assert make_model(platform, model) is model

    def test_unknown_rejected(self, platform):
        with pytest.raises(ConfigurationError, match="unknown communication model"):
            make_model(platform, "telepathy")

    def test_duplicate_name_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate model name"):
            register_model("one-port")(OnePortModel)

    def test_heuristics_cli_campaign_share_resolution(self):
        """KNOWN_MODELS and the heuristics' make_model are the registry."""
        from repro.campaign.spec import KNOWN_MODELS
        from repro.heuristics import make_model as heuristics_make_model

        assert set(KNOWN_MODELS) == set(available_models())
        assert heuristics_make_model is make_model

    def test_every_model_has_a_flat_booker(self):
        from repro.kernel import compile_statics
        from repro.kernel.builder import FlatBuilder
        from repro.models.base import FlatBooker

        platform = Platform.homogeneous(2)
        statics = compile_statics(TaskGraph.from_specs([("a", 1.0)], []), platform)
        for name in available_models():
            booker = make_model(platform, name).flat_booker(FlatBuilder(2), statics)
            assert isinstance(booker, FlatBooker), name
