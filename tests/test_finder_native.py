"""The native grower's loader: build cache, concurrency and fallback.

Every failure to build or load the library must end in one warning, the
array fallback, and a report identical to the native one.
"""

import logging
import os
import shutil
import subprocess
import sys

import pytest

from repro.errors import FinderError
from repro.finder import FinderConfig, find_tangled_logic, native
from repro.finder.kernel import ArrayOrderingGrower
from repro.finder.native import NativeOrderingGrower
from repro.finder.ordering import make_grower
from repro.generators.random_gtl import planted_gtl_graph
from repro.netlist.backend import forced_backend
from repro.obs import trace
from repro.service.codec import report_to_dict

SRC = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(native.__file__))))

pytestmark = pytest.mark.skipif(
    shutil.which(native.COMPILER) is None, reason="no C compiler on this host"
)

CONFIG = FinderConfig(num_seeds=4, seed=7, min_gtl_size=20)


@pytest.fixture(scope="module")
def design():
    netlist, _ = planted_gtl_graph(600, [80], seed=3)
    assert native.load_library() is not None
    with forced_backend("numpy"):
        report = _comparable(find_tangled_logic(netlist, CONFIG))
    return netlist, report


def _comparable(report):
    payload = report_to_dict(report)
    payload.pop("runtime_seconds")
    return payload


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.records = []

    def emit(self, record):
        self.records.append(record)

    def at(self, level):
        return [r for r in self.records if r.levelno == level]


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """A loader that has not run yet, caching under ``tmp_path/cache``;
    yields the handler collecting its log records."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(native, "_library", native._UNSET)
    handler = _Records()
    logger = logging.getLogger(native.__name__)
    previous_level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        yield handler
    finally:
        logger.removeHandler(handler)
        logger.setLevel(previous_level)


def _assert_falls_back(design, records):
    netlist, native_report = design
    assert isinstance(make_grower(netlist, 0, backend="numpy"), ArrayOrderingGrower)
    with forced_backend("numpy"):
        assert _comparable(find_tangled_logic(netlist, CONFIG)) == native_report
    warnings = records.at(logging.WARNING)
    assert len(warnings) == 1, [r.getMessage() for r in warnings]
    assert "array fallback" in warnings[0].getMessage()


def test_builds_into_cache_and_logs_path(design, fresh_loader, tmp_path):
    netlist, _ = design
    assert isinstance(make_grower(netlist, 0, backend="numpy"), NativeOrderingGrower)
    path = native.library_path()
    assert path.startswith(str(tmp_path / "cache" / "repro" / "native" / "grower-"))
    assert os.listdir(os.path.dirname(path)) == [os.path.basename(path)]
    assert any(path in r.getMessage() for r in fresh_loader.at(logging.DEBUG))
    assert not fresh_loader.at(logging.WARNING)


def test_missing_compiler_falls_back(design, fresh_loader, monkeypatch):
    monkeypatch.setattr(native, "COMPILER", "repro-no-such-compiler")
    _assert_falls_back(design, fresh_loader)


def test_compile_error_falls_back(design, fresh_loader, monkeypatch, tmp_path):
    broken = tmp_path / "broken.c"
    broken.write_text("this is not C\n")
    monkeypatch.setattr(native, "SOURCE", str(broken))
    _assert_falls_back(design, fresh_loader)
    assert not os.listdir(tmp_path / "cache" / "repro" / "native")  # no partial file


def test_unwritable_cache_directory_falls_back(design, fresh_loader, monkeypatch, tmp_path):
    # A regular file where the cache directory should be: not writable even
    # for root, unlike a chmod-ed directory.
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    _assert_falls_back(design, fresh_loader)


def test_truncated_cached_library_falls_back(design, fresh_loader, monkeypatch, tmp_path):
    with open(native.load_library()._name, "rb") as handle:
        head = handle.read(512)
    # A truncated build in a second cache: a fresh inode, so the dynamic
    # loader cannot reuse the good copy this process already mapped.
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "other-cache"))
    monkeypatch.setattr(native, "_library", native._UNSET)
    path = native.library_path()
    os.makedirs(os.path.dirname(path))
    with open(path, "wb") as handle:
        handle.write(head)
    fresh_loader.records.clear()
    _assert_falls_back(design, fresh_loader)


def test_changed_source_builds_a_new_library(fresh_loader, monkeypatch, tmp_path):
    assert native.load_library() is not None
    first = native.library_path()
    variant = tmp_path / "variant.c"
    with open(native.SOURCE) as handle:
        variant.write_text(handle.read() + "/* variant */\n")
    monkeypatch.setattr(native, "SOURCE", str(variant))
    monkeypatch.setattr(native, "_library", native._UNSET)
    assert native.load_library() is not None
    second = native.library_path()
    assert second != first
    assert sorted(os.listdir(os.path.dirname(first))) == sorted(
        os.path.basename(p) for p in (first, second)
    )


def test_concurrent_first_builds_leave_one_library(tmp_path):
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "cache"), PYTHONPATH=SRC)
    script = (
        "from repro.finder.native import load_library\n"
        "assert load_library() is not None\n"
    )
    processes = [
        subprocess.Popen([sys.executable, "-c", script], env=env) for _ in range(2)
    ]
    for process in processes:
        assert process.wait(timeout=120) == 0
    built = os.listdir(tmp_path / "cache" / "repro" / "native")  # temp files too
    assert len(built) == 1 and built[0].startswith("grower-"), built


def test_spans_name_the_grower_and_the_build(design, fresh_loader, monkeypatch):
    netlist, _ = design

    def seed_spans(backend):
        # capture() restores the global tracer's state afterwards.
        with trace.get_tracer().capture() as captured, forced_backend(backend):
            find_tangled_logic(netlist, CONFIG)
        return captured.spans

    spans = seed_spans("numpy")  # first use: builds the library
    builds = [s for s in spans if s["name"] == "finder.native_build"]
    assert len(builds) == 1 and builds[0]["parent_id"] is not None
    assert {s["attrs"]["grower"] for s in spans if s["name"] == "finder.seed"} == {
        "native"
    }
    assert {
        s["attrs"]["grower"] for s in seed_spans("python") if s["name"] == "finder.seed"
    } == {"python"}
    monkeypatch.setattr(native, "_library", None)
    assert {
        s["attrs"]["grower"] for s in seed_spans("numpy") if s["name"] == "finder.seed"
    } == {"array"}


def test_native_grower_validates_its_inputs(mixed_netlist, monkeypatch):
    with pytest.raises(FinderError):
        NativeOrderingGrower(mixed_netlist, 99)
    with pytest.raises(FinderError):
        NativeOrderingGrower(mixed_netlist, 3)  # the pad
    grower = NativeOrderingGrower(mixed_netlist, 3, exclude_fixed=False)
    assert grower.ordering == [3]
    with pytest.raises(IndexError):
        grower.connection_weight(mixed_netlist.num_cells)
    with pytest.raises(IndexError):
        grower.cut_delta(-1)
    monkeypatch.setattr(native, "_library", None)
    with pytest.raises(FinderError):
        NativeOrderingGrower(mixed_netlist, 0)
