"""The CI pipeline definition: valid YAML, correct tiering, and every
command it runs must exist in this tree."""

import shlex
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

REPO_ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = REPO_ROOT / ".github" / "workflows" / "ci.yml"


@pytest.fixture(scope="module")
def workflow():
    return yaml.safe_load(WORKFLOW.read_text())


def _steps(workflow, job):
    return workflow["jobs"][job]["steps"]


def _run_lines(workflow, job):
    return [step["run"] for step in _steps(workflow, job)
            if "run" in step]


class TestStructure:
    def test_parses_and_has_all_jobs(self, workflow):
        assert set(workflow["jobs"]) == {
            "static-checks", "tier-1", "tier-2", "bench-gate"}

    def test_pythonpath_src_everywhere(self, workflow):
        # `on` parses as boolean True in YAML 1.1
        assert workflow["env"]["PYTHONPATH"] == "src"

    def test_triggers(self, workflow):
        triggers = workflow.get("on") or workflow.get(True)
        assert "pull_request" in triggers
        assert triggers["push"]["branches"] == ["main"]

    def test_tier2_and_bench_gate_main_push_only(self, workflow):
        for job in ("tier-2", "bench-gate"):
            condition = workflow["jobs"][job]["if"]
            assert "push" in condition
            assert "refs/heads/main" in condition
        for job in ("static-checks", "tier-1"):
            assert "if" not in workflow["jobs"][job]

    def test_selftest_is_first_command_in_every_job(self, workflow):
        for job in workflow["jobs"]:
            runs = _run_lines(workflow, job)
            commands = [line for line in runs
                        if not line.startswith("python -m pip")]
            assert commands[0] == "python -m repro.cli selftest", job

    def test_superseded_runs_are_cancelled(self, workflow):
        """Pushing a fixup must not leave the previous run burning
        matrix minutes: the workflow declares a per-ref concurrency
        group with cancel-in-progress."""
        concurrency = workflow["concurrency"]
        assert concurrency["cancel-in-progress"] is True
        assert "github.ref" in concurrency["group"]

    def test_every_job_has_a_timeout(self, workflow):
        """A hung step (deadlocked server, stuck socket) must never pin
        a runner for the 6-hour default."""
        for job, spec in workflow["jobs"].items():
            minutes = spec.get("timeout-minutes")
            assert isinstance(minutes, int) and 0 < minutes <= 60, \
                f"{job} needs a sane timeout-minutes, got {minutes!r}"

    def test_pip_cache_keyed_on_pyproject(self, workflow):
        """Every setup-python step caches pip downloads keyed on
        pyproject.toml, so dependency bumps invalidate the cache and
        nothing else does."""
        for job, spec in workflow["jobs"].items():
            setups = [step for step in spec["steps"]
                      if "setup-python" in str(step.get("uses", ""))]
            assert setups, f"{job} never sets up python"
            for step in setups:
                with_block = step["with"]
                assert with_block["cache"] == "pip", job
                assert with_block["cache-dependency-path"] == \
                    "pyproject.toml", job

    def test_tier1_matrix_covers_supported_pythons(self, workflow):
        """Tier-1 fans out across the supported interpreter range; the
        step must actually consume the matrix variable."""
        tier1 = workflow["jobs"]["tier-1"]
        matrix = tier1["strategy"]["matrix"]["python-version"]
        assert matrix == ["3.10", "3.11", "3.12"]
        assert tier1["strategy"]["fail-fast"] is False
        setup = next(step for step in tier1["steps"]
                     if "setup-python" in str(step.get("uses", "")))
        assert setup["with"]["python-version"] == \
            "${{ matrix.python-version }}"


class TestCommands:
    def test_tier1_deselects_slow(self, workflow):
        runs = _run_lines(workflow, "tier-1")
        assert any("-m \"not slow\"" in line or "-m 'not slow'" in line
                   for line in runs)

    def test_tier1_reports_slowest_tests(self, workflow):
        """Every tier-1 log lists its slowest tests, so an accidental
        real-time wait shows up in review instead of hiding in the
        total."""
        pytest_lines = [line for line in _run_lines(workflow, "tier-1")
                        if "python -m pytest" in line]
        assert pytest_lines
        assert all("--durations=10" in line for line in pytest_lines)

    def test_tier2_runs_full_suite(self, workflow):
        assert "python -m pytest -x -q" in _run_lines(workflow, "tier-2")

    def test_tier1_runs_flows_scale_smoke(self, workflow):
        """The PR job must differential-check the vector engine against
        the kernel at 10/100 flows — cheap, and it guards the fast
        path's core equivalence claim on every PR."""
        runs = _run_lines(workflow, "tier-1")
        assert any("bench_ext_flows_scale.py --smoke" in line
                   for line in runs)

    def test_tier1_runs_mobility_smoke(self, workflow):
        """The PR job must differential-check the mobile vector path
        against the kernel across real handoffs, and pin the parked
        profile to the static simulator byte-for-byte."""
        runs = _run_lines(workflow, "tier-1")
        assert any("bench_ext_mobility.py --smoke" in line
                   for line in runs)

    def test_tier1_runs_net_grid_smoke(self, workflow):
        """The PR job must also spin up a loopback `cached serve` and
        differential-check two TCP workers against local execution —
        the networked tier's byte-identity claim, on every PR."""
        runs = _run_lines(workflow, "tier-1")
        assert any("bench_net_grid.py --smoke" in line for line in runs)

    def test_tier1_runs_serve_smoke(self, workflow):
        """The PR job must also prove the advisor service's memo layer:
        warm answers byte-identical to a cold sweep, zero extra
        evaluations — over a real loopback TCP server, on every PR."""
        runs = _run_lines(workflow, "tier-1")
        assert any("bench_serve.py --smoke" in line for line in runs)

    def test_tier1_runs_advisor_sweep_smoke(self, workflow):
        """The PR job must also pin the model engines to each other:
        a scalar and a vector sweep over the default ladder must select
        the same policy and agree on every sweep scalar."""
        runs = _run_lines(workflow, "tier-1")
        assert any("bench_advisor_sweep.py --smoke" in line
                   for line in runs)

    def test_bench_gate_checks_trend(self, workflow):
        runs = _run_lines(workflow, "bench-gate")
        assert any("crypto_microbench.py" in line for line in runs)
        # The flows-scale run gates the *merged* report (crypto + cache
        # + flows curve), so --check-trend rides on the last writer.
        assert any("bench_ext_flows_scale.py --check-trend" in line
                   for line in runs)
        assert any("bench history" in line for line in runs)

    def test_bench_gate_merges_before_gating(self, workflow):
        """crypto_microbench rewrites BENCH_crypto.json from scratch, so
        it must run first; the serve, advisor-sweep and mobility benches
        merge their sections in next, and the flows bench (the last
        writer) carries --check-trend — so the gate sees the mobility
        throughput keys too."""
        runs = _run_lines(workflow, "bench-gate")
        crypto = next(i for i, line in enumerate(runs)
                      if "crypto_microbench.py" in line)
        serve = next(i for i, line in enumerate(runs)
                     if "bench_serve.py" in line)
        sweep = next(i for i, line in enumerate(runs)
                     if "bench_advisor_sweep.py" in line)
        mobility = next(i for i, line in enumerate(runs)
                        if "bench_ext_mobility.py" in line)
        flows = next(i for i, line in enumerate(runs)
                     if "bench_ext_flows_scale.py" in line)
        assert crypto < serve < sweep < mobility < flows

    def test_static_checks_compile_and_lint(self, workflow):
        runs = _run_lines(workflow, "static-checks")
        assert any("compileall" in line and "src tests benchmarks" in line
                   for line in runs)
        assert any("lint_checks.py" in line for line in runs)

    def test_referenced_scripts_exist(self, workflow):
        for job in workflow["jobs"]:
            for line in _run_lines(workflow, job):
                for token in shlex.split(line):
                    if token.endswith(".py"):
                        assert (REPO_ROOT / token).is_file(), \
                            f"{job} runs missing script {token}"

    def test_no_new_dependencies(self, workflow):
        """The pipeline may only install what the project already
        depends on (plus the test/yaml toolchain)."""
        allowed = {"numpy", "scipy", "pytest", "hypothesis", "pyyaml"}
        for job in workflow["jobs"]:
            for line in _run_lines(workflow, job):
                if "pip install" in line:
                    packages = set(shlex.split(line.split("install", 1)[1]))
                    assert packages <= allowed, f"{job}: {packages}"
