"""The command line keeps the memory a block frees, where glibc allows it.

``cli.main`` asks glibc's ``mallopt``, once per process, to serve every
block temporary from the heap and never to trim it, so that a repeated
request reuses the pages of the last one.  Without ``mallopt`` it runs
unchanged.
"""

import ctypes
import platform
import resource
from types import SimpleNamespace

import pytest

import tricarl.cli as cli

SEPARABILITY_SWEEP = (
    "--rho", "100", "--delta", "3.5", "--gamma1", "0.5", "--gamma2", "0.5", "--kappa", "0.5",
    "--sweep", "tau:0:5:6", "--outputs",
    "mineig_gamma1,mineig_gamma2,mineig_gamma3,mineig_s12,mineig_s13,mineig_s23,class",
)
REQUESTS = (("--preset", "fig3"), SEPARABILITY_SWEEP)


@pytest.fixture
def fresh_setting():
    """Let the next ``cli.main`` apply the heap setting again, and the
    first call after the test too."""
    cli._keep_freed_memory.cache_clear()
    yield
    cli._keep_freed_memory.cache_clear()


def stdout_of(capsys, argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    return captured.out


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_a_repeated_preset_reuses_the_heap(capsys, fresh_setting):
    # fig3 is one 903-row block; a request that frees its temporaries to
    # the OS faults about 400 fresh pages into the next one
    for _ in range(2):
        stdout_of(capsys, ("--preset", "fig3"))
    before = minor_faults()
    stdout_of(capsys, ("--preset", "fig3"))
    assert minor_faults() - before < 40


def test_the_setting_is_made_once_per_process(capsys, monkeypatch, fresh_setting):
    calls = []
    library = SimpleNamespace(mallopt=lambda parameter, value: calls.append((parameter, value)))
    monkeypatch.setattr(ctypes, "CDLL", lambda name: library)
    for argv in REQUESTS:
        stdout_of(capsys, argv)
    # M_TRIM_THRESHOLD at 64 MiB, then M_MMAP_THRESHOLD at 32 MiB
    assert calls == [(-1, 64 << 20), (-3, 32 << 20)]
    assert library.mallopt.argtypes == (ctypes.c_int, ctypes.c_int)


def no_c_library(name):
    raise OSError("no C library")


def no_default_library(name):
    # Windows's LoadLibrary wants a name
    raise TypeError("expected str, bytes or os.PathLike object, not NoneType")


@pytest.mark.parametrize(
    "cdll",
    [no_c_library, no_default_library, lambda name: SimpleNamespace()],
    ids=["no_library", "no_default_library", "no_mallopt"],
)
def test_without_mallopt_the_output_is_unchanged(capsys, monkeypatch, fresh_setting, cdll):
    expected = [stdout_of(capsys, argv) for argv in REQUESTS]
    cli._keep_freed_memory.cache_clear()
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert [stdout_of(capsys, argv) for argv in REQUESTS] == expected
