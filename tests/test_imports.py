"""Cold start: which modules a fresh process loads, and the package surface.

The module sets are counted in a fresh interpreter, since this test process
has imported every layer long before these tests run.
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import lrlab

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")

# every name lrlab/__init__.py exported before its names resolved lazily,
# by defining module
EXPORTS = {
    "elements": ["LRElement"],
    "errors": [
        "BudgetExceeded", "CapMismatch", "HypothesisFails", "IndexOutOfRange",
        "InternalCheckError", "InvalidPartition", "LRLabError", "NoDecomposition",
        "NotComparable", "NotFoundWithin", "NotWeaklyDecreasing", "UnknownLemma",
        "UnsupportedLength",
    ],
    "cones": ["cone_generator_decomposition", "cone_membership", "theorem_bound"],
    "partitions": [
        "EMPTY", "Cell", "Dominance", "Partition", "column_decomposition",
        "diagram_difference", "diagram_distance", "dominance_compare",
        "dominated_partitions", "dominates", "interpolating_sequence", "lcm_upto",
        "partitions_of", "partitions_up_to", "single_column",
    ],
    "powercache": ["PowerCache"],
    "product": [
        "DEFAULT_TERM_BUDGET", "clear_caches", "gl_dimension", "lr_coefficient", "mul",
        "mul_element", "mul_tableau", "tensor_power", "term_budget",
    ],
    "reports": ["ConeCertificate", "ExponentSearch", "TransferWitness", "VerificationReport"],
    "search": ["minimal_uniform_exponent", "property_holds", "transfer_witness"],
    "subdivisions": [
        "Subdivision", "all_subdivisions", "blockwise_reversed_negation", "cone_generator",
        "perturbed_generator", "perturbed_generator_raw", "restrict", "reversed_negation",
    ],
    "verify": ["LEMMA_IDS", "default_bounds", "verify_all", "verify_lemma"],
}

LOADED = (
    "import json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules"
    " if m.split('.')[0] in ('lrlab', 'dataclasses', 'fractions'))))\n"
)


def loaded_after(code: str) -> set[str]:
    """lrlab, dataclasses and fractions modules in sys.modules after code runs
    in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code + "\n" + LOADED],
        capture_output=True, text=True, env=env, check=True,
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


def loaded_after_main(*argv: str) -> set[str]:
    return loaded_after(f"from lrlab.cli import main\nassert main({list(argv)!r}) == 0")


BASE = {"lrlab", "lrlab.cli", "lrlab.errors", "lrlab.partitions"}


class TestColdStart:
    def test_dominance_loads_parsing_only(self):
        assert loaded_after_main("dominance", "[1]", "[1]") == BASE

    def test_interpolate_loads_parsing_only(self):
        assert loaded_after_main("interpolate", "[4]", "[2,2]") == BASE

    def test_mul_loads_the_product_stack_without_the_cache(self):
        assert loaded_after_main("mul", "[2,1]", "[2,1]") == BASE | {"lrlab.elements", "lrlab.product"}

    def test_gj_adds_subdivisions_only(self):
        assert loaded_after_main("gj", "[2,1]", "--l", "3") == BASE | {"lrlab.subdivisions"}

    def test_hj_adds_subdivisions_only(self):
        argv = ("hj", "[2,1]", "--l", "3", "--mask", "3", "--beta", "2", "--delta", "1")
        assert loaded_after_main(*argv) == BASE | {"lrlab.subdivisions"}

    @pytest.mark.parametrize(
        "argv", [("nsearch", "[2,1]", "--l", "3", "--nmax", "30"), ("transfer", "[3,1]", "[2,2]", "--d", "3")]
    )
    def test_searches_load_the_product_stack_without_cache_cones_or_verify(self, argv):
        assert loaded_after_main(*argv) == BASE | {
            "lrlab.elements", "lrlab.product", "lrlab.reports", "lrlab.search", "lrlab.subdivisions",
        }

    @pytest.mark.parametrize("extra", [(), ("--member-only",)])
    def test_cone_loads_cones_without_the_product_stack(self, extra):
        assert loaded_after_main("cone", "[6,6,6]", "[3,2,1]", "--l", "3", *extra) == BASE | {
            "lrlab.cones", "lrlab.reports", "lrlab.subdivisions", "fractions",
        }

    def test_cache_adds_the_power_cache_only(self, tmp_path):
        # a missing file reads as an empty valid cache
        path = str(tmp_path / "none.lrpow")
        assert loaded_after_main("cache", path) == BASE | {"lrlab.powercache"}

    def test_power_loads_the_product_stack_only(self):
        assert loaded_after_main("power", "[2,1]", "3") == BASE | {
            "lrlab.elements", "lrlab.product", "lrlab.powercache",
        }

    def test_verify_lemma_skips_cones_and_search(self):
        # the report records are named tuples: no dataclasses (inspect, ast, dis) and
        # no fractions (decimal) at start
        loaded = loaded_after_main("verify", "--lemma", "EXCHANGE")
        assert "lrlab.verify" in loaded
        assert not loaded & {"lrlab.cones", "lrlab.search", "dataclasses", "fractions"}

    def test_import_lrlab_loads_no_layer(self):
        assert loaded_after("import lrlab") == {"lrlab"}

    def test_submodule_resolves_on_first_use(self):
        loaded = loaded_after("import lrlab\nassert lrlab.product.mul is lrlab.mul")
        assert loaded == {"lrlab", "lrlab.elements", "lrlab.errors", "lrlab.partitions",
                          "lrlab.product"}


class TestPackageSurface:
    @pytest.mark.parametrize("module", sorted(EXPORTS))
    def test_names_resolve_to_their_definitions(self, module):
        home = importlib.import_module(f"lrlab.{module}")
        for name in EXPORTS[module]:
            assert getattr(lrlab, name) is getattr(home, name), name
            namespace = {}
            exec(f"from lrlab import {name}", namespace)
            assert namespace[name] is getattr(home, name), name

    def test_dir_and_all_list_every_name(self):
        names = {name for names in EXPORTS.values() for name in names}
        assert names <= set(dir(lrlab))
        assert set(lrlab.__all__) == names
        assert lrlab.__version__ == "0.1.0"

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            lrlab.no_such_name
        with pytest.raises(ImportError):
            exec("from lrlab import no_such_name", {})

    def test_submodule_attribute_imports_its_module(self):
        # in this process the import system has already bound lrlab.product, so ask
        # the package's own lookup
        assert lrlab.__getattr__("product") is sys.modules["lrlab.product"]
