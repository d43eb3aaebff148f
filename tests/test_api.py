"""The public API: ``cpes.__all__`` is the user surface, and the benchmark
and the tools read nothing else from the package."""

import ast
from pathlib import Path

import cpes
import cpes.errors

ROOT = Path(__file__).resolve().parent.parent
SURFACE = [
    "CpesError",
    "DistanceKind",
    "EmbeddingStore",
    "EvalReport",
    "MlpHead",
    "OptimizerConfig",
    "RunConfig",
    "ScheduleKind",
    "SweepReport",
    "SyntheticConfig",
    "evaluate",
    "export_masks",
    "generate_synthetic",
    "load_head",
    "read_store",
    "save_head",
    "sweep",
    "train",
    "write_store",
]


def test_all_is_the_user_surface():
    assert sorted(cpes.__all__) == SURFACE
    assert all(hasattr(cpes, name) for name in cpes.__all__)


def test_errors_are_one_class_per_exit_code():
    """The CLI maps InfeasibleConfig to exit 2 and StoreFormatError to exit 3;
    no other exception class is defined."""
    defined = {
        name
        for name, value in vars(cpes.errors).items()
        if isinstance(value, type) and issubclass(value, BaseException)
    }
    assert defined == {"CpesError", "InfeasibleConfig", "StoreFormatError"}
    assert issubclass(cpes.errors.InfeasibleConfig, cpes.CpesError)
    assert issubclass(cpes.errors.StoreFormatError, cpes.CpesError)


def test_bench_and_tools_read_only_the_surface():
    """Every ``cpes.<name>`` read in bench/*.py and tools/*.py is in __all__."""
    read = set()
    for path in [*ROOT.glob("bench/*.py"), *ROOT.glob("tools/*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "cpes"
                and not node.attr.startswith("__")
            ):
                read.add(node.attr)
    assert read and read <= set(cpes.__all__), sorted(read - set(cpes.__all__))
