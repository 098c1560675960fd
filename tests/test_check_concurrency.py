"""Tests for the concurrency tier of ``repro check`` (RC6xx).

Four layers, mirroring the implementation:

- the effect summaries (:mod:`repro.check.concurrency`): token
  resolution for class-attr and ctor-local primitives, acquisition
  pairs through resolved callees, the escape hedge, and the
  spawned-worker separation (a worker's ops must not pair with its
  spawner's held set);
- the four rules, each with a good/bad fixture pair — RC601
  acquisition-order cycle through a helper, RC602 lost wakeup with the
  trigger supplied by a spawned producer, RC603 overlapping constant
  region writes vs disjoint/synced, RC604 exception-path claim leak
  inherited across a call vs try/finally;
- fingerprints and the ``--baseline`` CLI mode: stable across pure
  line shifts, carried in JSON and SARIF, regressions-only filtering;
- the driver and the CLI: RC6xx findings ride the ``--inter`` cache,
  are worker-count invariant, and the project itself carries none (the
  repo-wide zero-findings gate for the whole inter tier lives in
  ``tests/test_check_inter.py``).
"""

import json
import pathlib
import textwrap

from repro.check import lint_source, render_findings
from repro.check.lint import findings_to_json, findings_to_sarif
from repro.check.summaries import InterContext

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Conc rules are repo-scoped; module names derive from these paths.
SIM_PATH = "src/repro/sim/fixture.py"


def build(files):
    return InterContext.build(
        {path: textwrap.dedent(src) for path, src in files.items()})


def conc_lint(files, path):
    ctx = build(files)
    return lint_source(textwrap.dedent(files[path]), path, flow=True,
                       inter=ctx)


def rule_ids(findings):
    return [f.rule_id for f in findings]


# ---------------------------------------------------------------------------
# effect summaries: tokens, pairs, escapes, spawned workers
# ---------------------------------------------------------------------------

def test_class_attr_tokens_compose_acquisition_pairs_across_methods():
    ctx = build({SIM_PATH: """
        from repro.sim import Semaphore


        class Pair:
            def __init__(self, engine):
                self._a = Semaphore(engine, 1)
                self._b = Semaphore(engine, 1)

            def locked(self):
                yield self._a.acquire()
                yield self._b.acquire()
                self._b.release()
                self._a.release()
        """})
    conc = ctx.summaries["repro.sim.fixture.Pair.locked"].conc
    tok_a = "C:repro.sim.fixture.Pair._a"
    tok_b = "C:repro.sim.fixture.Pair._b"
    assert any(p[0] == tok_a and p[1] == tok_b for p in conc.pairs)
    assert conc.imbalance == ()


def test_escaped_token_is_exempt_from_imbalance():
    # Returning the claim hands the release duty to the caller — the
    # ``StagingBuffer.reserve`` pattern.  No RC604.
    ctx = build({SIM_PATH: """
        from repro.sim import Semaphore


        def make_held(engine):
            s = Semaphore(engine, 1)
            yield s.acquire()
            return s
        """})
    conc = ctx.summaries["repro.sim.fixture.make_held"].conc
    assert "L:repro.sim.fixture.make_held:s" in conc.escaped
    assert ctx.conc.findings == ()


def test_spawned_worker_ops_do_not_pair_with_spawner_held_set():
    # The spawner holds ``_a`` while spawning a worker that takes
    # ``_b``: concurrent, not nested, so no a->b acquisition edge and
    # no cycle with the b->a order elsewhere.
    ctx = build({SIM_PATH: """
        from repro.sim import Semaphore


        class Host:
            def __init__(self, engine):
                self.engine = engine
                self._a = Semaphore(engine, 1)
                self._b = Semaphore(engine, 1)

            def spawner(self):
                yield self._a.acquire()
                self.engine.process(self.worker())
                self._a.release()

            def worker(self):
                yield self._b.acquire()
                self._b.release()

            def other(self):
                yield self._b.acquire()
                yield self._a.acquire()
                self._a.release()
                self._b.release()
        """})
    spawner = ctx.summaries["repro.sim.fixture.Host.spawner"].conc
    assert spawner.pairs == ()
    assert not any(f[0] == "RC601" for f in ctx.conc.findings)


# ---------------------------------------------------------------------------
# RC601: acquisition-order cycle
# ---------------------------------------------------------------------------

RC601_BAD = {SIM_PATH: """
    from repro.sim import Semaphore


    class Pair:
        def __init__(self, engine):
            self._a = Semaphore(engine, 1)
            self._b = Semaphore(engine, 1)

        def m1(self):
            yield self._a.acquire()
            yield from self._grab_b()
            self._b.release()
            self._a.release()

        def m2(self):
            yield self._b.acquire()
            yield self._a.acquire()
            self._a.release()
            self._b.release()

        def _grab_b(self):
            yield self._b.acquire()
    """}


def test_rc601_bad_cycle_through_helper_fires_on_both_edges():
    findings = conc_lint(RC601_BAD, SIM_PATH)
    assert rule_ids(findings) == ["RC601", "RC601"]
    assert all("acquisition-order cycle" in f.message for f in findings)


def test_rc601_good_consistent_order_is_clean():
    files = {SIM_PATH: RC601_BAD[SIM_PATH].replace(
        """\
        def m2(self):
            yield self._b.acquire()
            yield self._a.acquire()
            self._a.release()
            self._b.release()
""",
        """\
        def m2(self):
            yield self._a.acquire()
            yield self._b.acquire()
            self._b.release()
            self._a.release()
""")}
    assert files[SIM_PATH] != RC601_BAD[SIM_PATH]
    assert conc_lint(files, SIM_PATH) == []


# ---------------------------------------------------------------------------
# RC602: blocking wait with no reachable trigger
# ---------------------------------------------------------------------------

def test_rc602_bad_untriggered_queue_get():
    findings = conc_lint({SIM_PATH: """
        from repro.sim import Queue


        def lost_wakeup(engine):
            q = Queue(engine)
            item = yield q.get()
            return item
        """}, SIM_PATH)
    assert rule_ids(findings) == ["RC602"]


def test_rc602_good_spawned_producer_is_the_trigger():
    # The trigger lives in a *callee* reached through engine.process:
    # wait/trigger matching must look through the spawn.
    findings = conc_lint({SIM_PATH: """
        from repro.sim import Queue


        def good_wakeup(engine):
            q = Queue(engine)
            engine.process(producer(q))
            item = yield q.get()
            return item


        def producer(q):
            q.put(1)
            yield
        """}, SIM_PATH)
    assert findings == []


# ---------------------------------------------------------------------------
# RC603: conflicting region writes without happens-before
# ---------------------------------------------------------------------------

RC603_SRC = """
    from repro.hdf5 import Hyperslab


    def writer_low(dset, value):
        dset.write(selection=Hyperslab((0,), (10,)), data=value)
        yield


    def writer_high(dset, value):
        dset.write(selection=Hyperslab((10,), (10,)), data=value)
        yield


    def writer_all(dset, value):
        dset.write(selection=Hyperslab((0,), (20,)), data=value)
        yield


    def sync_writer(dset, barrier, value):
        yield barrier.wait()
        dset.write(selection=Hyperslab((0,), (10,)), data=value)


    def spawn_pair(engine, store, first, second):
        d = store.create_dataset("x", (20,))
        engine.process(first(d, 1))
        engine.process(second(d, 2))
        yield
    """


def _rc603(body):
    src = textwrap.dedent(RC603_SRC) + textwrap.dedent(body)
    return conc_lint({SIM_PATH: src}, SIM_PATH)


def test_rc603_bad_overlapping_constant_regions():
    findings = _rc603("""

    def race(engine, store):
        d = store.create_dataset("x", (20,))
        engine.process(writer_low(d, 1))
        engine.process(writer_all(d, 2))
        yield
    """)
    assert rule_ids(findings) == ["RC603"]


def test_rc603_good_disjoint_regions():
    findings = _rc603("""

    def disjoint(engine, store):
        d = store.create_dataset("x", (20,))
        engine.process(writer_low(d, 1))
        engine.process(writer_high(d, 2))
        yield
    """)
    assert findings == []


def test_rc603_good_barrier_synced_writer():
    # Any synchronization inside a task gives it a happens-before
    # story the static tier cannot refute -> excused.
    findings = _rc603("""

    def synced(engine, store, barrier):
        d = store.create_dataset("x", (20,))
        engine.process(sync_writer(d, barrier, 1))
        engine.process(writer_all(d, 2))
        yield
    """)
    assert findings == []


# ---------------------------------------------------------------------------
# RC604: claim released on some paths only
# ---------------------------------------------------------------------------

def test_rc604_bad_exception_path_leak_inherited_across_call():
    # The leak is in the callee (raise between acquire and release) but
    # the token is the *caller's* local: param-exit substitution must
    # carry the {held, free} exit state back to the binding site.
    findings = conc_lint({SIM_PATH: """
        from repro.sim import Semaphore


        def unbalanced(engine, sem, data):
            yield sem.acquire()
            if not data:
                raise ValueError("empty")
            sem.release()


        def caller(engine, data):
            s = Semaphore(engine, 1)
            yield from unbalanced(engine, s, data)
        """}, SIM_PATH)
    assert rule_ids(findings) == ["RC604"]


def test_rc604_good_try_finally_is_balanced():
    findings = conc_lint({SIM_PATH: """
        from repro.sim import Semaphore


        def balanced(engine, data):
            s = Semaphore(engine, 1)
            yield s.acquire()
            try:
                if not data:
                    raise ValueError("empty")
            finally:
                s.release()
        """}, SIM_PATH)
    assert findings == []


def test_rc602_justified_suppression_for_deliberate_leak_fixture():
    # A deliberate lost-wakeup fixture carries a justified disable
    # directive on the wait line, the same escape hatch the other
    # tiers use; without the justification it would earn RC001.
    findings = conc_lint({SIM_PATH: """
        from repro.sim import Queue


        def lost_wakeup(engine):
            q = Queue(engine)
            item = yield q.get()  # repro-check: disable=RC602 (deliberate leak: hang-detector fixture)
            return item
        """}, SIM_PATH)
    assert findings == []


# ---------------------------------------------------------------------------
# tier gating: conc rules need the whole-project inter context
# ---------------------------------------------------------------------------

def test_conc_rules_are_silent_without_an_inter_context():
    findings = lint_source(textwrap.dedent(RC601_BAD[SIM_PATH]),
                           SIM_PATH, flow=True)
    assert findings == []


# ---------------------------------------------------------------------------
# fingerprints and the baseline mode
# ---------------------------------------------------------------------------

def test_fingerprints_survive_pure_line_shifts():
    base = conc_lint(RC601_BAD, SIM_PATH)
    shifted_src = ("# a new leading comment\n\n"
                   + textwrap.dedent(RC601_BAD[SIM_PATH]))
    shifted = conc_lint({SIM_PATH: shifted_src}, SIM_PATH)
    assert [f.fingerprint for f in base] == \
        [f.fingerprint for f in shifted]
    assert [f.line for f in base] != [f.line for f in shifted]
    assert all(len(f.fingerprint) == 20 for f in base)


def test_fingerprints_distinguish_repeated_identical_lines():
    src = "import time\nt0 = time.time()\nt1 = time.time()\n"
    findings = [f for f in lint_source(src, SIM_PATH)
                if f.rule_id == "RC101"]
    assert len(findings) == 2
    assert findings[0].fingerprint != findings[1].fingerprint


def test_fingerprints_are_carried_in_json_and_sarif():
    findings = conc_lint(RC601_BAD, SIM_PATH)
    blob = json.loads(findings_to_json(findings))
    assert all(f["fingerprint"] for f in blob["findings"])
    sarif = json.loads(findings_to_sarif(findings))
    results = sarif["runs"][0]["results"]
    fps = [r["partialFingerprints"]["reproCheck/v1"] for r in results]
    assert fps == [f["fingerprint"] for f in blob["findings"]]
    rules = {r["id"] for r in
             sarif["runs"][0]["tool"]["driver"]["rules"]}
    assert "RC601" in rules


def test_cli_baseline_suppresses_known_and_reports_regressions(
        tmp_path, capsys):
    from repro.cli import main

    bad = tmp_path / "bad.py"
    bad.write_text("def f():\n    try:\n        g()\n"
                   "    except:\n        pass\n", encoding="utf-8")
    baseline = tmp_path / "baseline.json"
    assert main(["check", "--update-baseline", str(baseline),
                 str(bad)]) == 0
    recorded = json.loads(baseline.read_text())
    assert len(recorded["fingerprints"]) == 1
    # Known finding suppressed -> exit 0.
    assert main(["check", "--baseline", str(baseline), str(bad)]) == 0
    assert "1 known finding(s) suppressed" in capsys.readouterr().err
    # A new finding is a regression -> exit 1, old one still quiet
    # (the occurrence counter keeps the second identical bare except
    # from colliding with the recorded fingerprint).
    bad.write_text(bad.read_text(encoding="utf-8")
                   + "\n\ndef h():\n    try:\n        g()\n"
                   "    except:\n        pass\n",
                   encoding="utf-8")
    assert main(["check", "--baseline", str(baseline), str(bad)]) == 1
    captured = capsys.readouterr()
    assert "1 regression(s)" in captured.err
    # Only the new bare except (line 11) is reported; the recorded
    # one on line 4 stays suppressed.
    assert "bad.py:11:" in captured.out
    assert "bad.py:4:" not in captured.out


# ---------------------------------------------------------------------------
# driver and CLI: cache keys, invalidation, worker invariance
# ---------------------------------------------------------------------------

CONC_HELPER_SRC = """\
def unbalanced(engine, sem, data):
    yield sem.acquire()
    if not data:
        raise ValueError("empty")
    sem.release()
"""

CONC_CALLER_SRC = """\
from pkg.helper import unbalanced


def caller(engine, data):
    s = Semaphore(engine, 1)
    yield from unbalanced(engine, s, data)
"""


def _conc_project(tmp_path, monkeypatch):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "helper.py").write_text(CONC_HELPER_SRC)
    (pkg / "caller.py").write_text(CONC_CALLER_SRC)
    monkeypatch.chdir(tmp_path)


def wire(findings):
    return json.dumps([(f.rule_id, f.path, f.line, f.col, f.message,
                        f.fingerprint) for f in findings])


def test_driver_concurrency_cold_warm_and_fix_invalidation(
        tmp_path, monkeypatch):
    from repro.check.driver import check_paths

    _conc_project(tmp_path, monkeypatch)
    cold = check_paths(["pkg"], cache_dir=".cache")
    assert not cold.tree_hit
    assert rule_ids(cold.findings) == ["RC604"]
    warm = check_paths(["pkg"], cache_dir=".cache")
    assert warm.tree_hit
    assert wire(warm.findings) == wire(cold.findings)
    # Balancing the helper must invalidate the caller's RC604 even
    # though the caller file itself never changed.
    (tmp_path / "pkg" / "helper.py").write_text(
        CONC_HELPER_SRC.replace(
            "    if not data:\n"
            "        raise ValueError(\"empty\")\n"
            "    sem.release()\n",
            "    try:\n"
            "        if not data:\n"
            "            raise ValueError(\"empty\")\n"
            "    finally:\n"
            "        sem.release()\n"))
    fixed = check_paths(["pkg"], cache_dir=".cache")
    assert fixed.findings == []


def test_driver_concurrency_output_is_worker_count_invariant(
        tmp_path, monkeypatch):
    from repro.check.driver import check_paths

    _conc_project(tmp_path, monkeypatch)
    serial = check_paths(["pkg"], cache_dir=".c1", workers=1,
                         use_cache=False)
    fanout = check_paths(["pkg"], cache_dir=".c4", workers=4,
                         use_cache=False)
    assert wire(serial.findings) == wire(fanout.findings)
    assert rule_ids(serial.findings) == ["RC604"]


def test_cli_inter_reports_conc_findings(tmp_path, monkeypatch, capsys):
    # ``repro check --inter`` is the one whole-project mode: RC6xx
    # findings come with it, and gate the exit code like any other.
    from repro.cli import main

    _conc_project(tmp_path, monkeypatch)
    assert main(["check", "--inter", "--cache-dir", ".cache", "pkg"]) == 1
    captured = capsys.readouterr()
    assert "pkg/caller.py:" in captured.out
    assert " RC604 " in captured.out
    assert "inter tier: 3/3 files re-analyzed" in captured.err


def test_repo_is_clean_under_concurrency_tier(monkeypatch):
    """Acceptance gate: the conc index assembles over the whole project
    and RC601-RC604 report nothing."""
    from repro.check.driver import check_paths

    # Same invocation shape as ``repro check --flow --inter`` so the
    # test and the CLI share one incremental cache.
    monkeypatch.chdir(REPO_ROOT)
    result = check_paths(["src", "tests"],
                         cache_dir=".repro-check-cache")
    conc = [f for f in result.findings if f.rule_id.startswith("RC6")]
    assert conc == [], render_findings(conc)
