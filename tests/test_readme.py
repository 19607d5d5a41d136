"""The README's code and the library names it cites stay live."""

import importlib
import re
from pathlib import Path

import pytest

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

# A backticked name in one of these modules, with or without the package
# prefix.  ``dgp.`` is left out: the README uses it for the config's object.
_CITED = re.compile(
    r"`(?:tightci\.)?(design|estimator|intervals|harness|cli)\.([A-Za-z_]\w*)"
)


def _library_example() -> str:
    section = README.split("\n## Library example\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs_and_keeps_its_claim():
    code = _library_example()
    claim = re.search(r"half-width (\d+\.\d+) here", code).group(1)
    scope = {}
    exec(compile(code, "README.md", "exec"), scope)
    assert scope["ci"].method == "hoeff-mbcr"
    assert f"{scope['ci'].half_width:.{len(claim) - 2}f}" == claim


def test_cited_library_names_resolve():
    cited = sorted(set(_CITED.findall(README)))
    assert cited
    missing = [
        f"{module}.{name}"
        for module, name in cited
        if not hasattr(importlib.import_module(f"tightci.{module}"), name)
    ]
    assert missing == []


@pytest.mark.parametrize("stale", ["`design.MbcrDraw`", "`harness.child_rng`"])
def test_cited_name_check_catches_a_removed_name(stale):
    # the pattern reads names the library no longer has
    ((module, name),) = _CITED.findall(stale)
    assert not hasattr(importlib.import_module(f"tightci.{module}"), name)


def test_ci_half_width_note_keeps_its_numbers():
    # the `ci` section's two half-widths of one interval: the endpoints' and
    # the formula's, which differ in the last bit
    from tightci.design import compute_layout
    from tightci.intervals import closed_ci

    note = re.search(
        r"prints `half_width`\s+(\S+) and `tuning.half_width` (\S+?)\.\s", README
    )
    ci = closed_ci("hoeff-mbcr", -0.9, 0.05, layout=compute_layout(1000, 100))
    assert ci.half_width == (ci.upper - ci.lower) / 2.0
    assert (repr(ci.half_width), repr(ci.tuning["half_width"])) == note.groups()
    assert ci.half_width != ci.tuning["half_width"]
