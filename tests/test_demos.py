"""Every walkthrough under demos/ runs to completion, and README keeps up with the code."""

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from partialda import AdaptationConfig

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs():
    # the documented library example must keep up with the API
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start (library)", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_layout_names_every_module():
    # the Layout block lists each module of the package once, and no other
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Layout", 1)[1].split("```\n", 2)[1]
    named = re.findall(r"^  (\w+\.py) ", block, flags=re.MULTILINE)
    modules = [path.name for path in (ROOT / "src" / "partialda").glob("*.py")
               if path.name != "__init__.py"]
    assert sorted(named) == sorted(modules)


def test_readme_configuration_table_names_every_config_field():
    # one row per AdaptationConfig field, in field order, with its default
    # (README writes 1e-3 where the code has 0.001, so they are compared as numbers)
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)`[^|]* \| `([^`]+)` \|", section, flags=re.MULTILINE)
    config = dataclasses.fields(AdaptationConfig)
    assert [name for name, _ in rows] == [f.name for f in config]
    for (name, default), f in zip(rows, config):
        assert float(default) == f.default, name
