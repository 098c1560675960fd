"""Tests for the interprocedural tier of ``repro check``.

Four layers, mirroring the implementation:

- the call graph (:mod:`repro.check.callgraph`): resolution edge cases
  the summaries depend on — decorated functions, methods reached
  through ``self``-typed receivers, nested defs, lambdas staying
  opaque, dynamic calls staying conservative;
- the effect summaries (:mod:`repro.check.summaries`): waits/closes of
  parameters, pending returns, parameter passthrough, generator
  deferral, determinism taint and dimension propagation, and the SCC
  fixpoint over mutual recursion;
- the summary-driven rules: RC405 and the RC110/RC111 taint twins,
  plus the sharpened RC401 — the old escape hedge replaced by an
  actual answer in both directions;
- the incremental driver (:mod:`repro.check.driver`): cold/warm runs,
  reverse-call-graph invalidation, and worker-count-invariant output.
"""

import json
import pathlib
import textwrap

import pytest

from repro.check import lint_source, render_findings
from repro.check.summaries import InterContext

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Inter rules are repo-scoped; module names derive from these paths.
HELPER_PATH = "src/repro/util/helpers.py"
SIM_PATH = "src/repro/sim/consumer.py"


def build(files):
    return InterContext.build(
        {path: textwrap.dedent(src) for path, src in files.items()})


def inter_lint(files, path):
    ctx = build(files)
    return lint_source(textwrap.dedent(files[path]), path, flow=True,
                       inter=ctx)


def rule_ids(findings):
    return [f.rule_id for f in findings]


def effects(ctx, qualname):
    return [sorted(e) for e in ctx.summaries[qualname].param_effects]


# ---------------------------------------------------------------------------
# call graph: resolution edge cases
# ---------------------------------------------------------------------------

def test_callgraph_decorated_functions_are_resolved():
    ctx = build({HELPER_PATH: """
        import functools


        def deco(fn):
            return fn


        @deco
        def waits(es):
            es.wait()


        @functools.lru_cache(maxsize=None)
        def cached_wait(es):
            es.wait()


        def run(es):
            waits(es)
            cached_wait(es)
        """})
    edges = ctx.edges["repro.util.helpers.run"]
    assert "repro.util.helpers.waits" in edges
    assert "repro.util.helpers.cached_wait" in edges
    assert effects(ctx, "repro.util.helpers.waits") == [["arg.waited"]]


def test_callgraph_method_resolved_through_self_typed_receiver():
    ctx = build({HELPER_PATH: """
        class Batch:
            def wait_all(self, es):
                es.wait()


        def run(engine):
            b = Batch()
            es = EventSet(engine)
            es.add(engine.event())
            b.wait_all(es)
            return None
        """})
    assert "repro.util.helpers.Batch.wait_all" in \
        ctx.edges["repro.util.helpers.run"]
    # Receiver offset: ``es`` is param 1 (after self) and gets waited.
    assert effects(ctx, "repro.util.helpers.Batch.wait_all") == \
        [["arg"], ["arg.waited"]]


def test_callgraph_nested_defs_are_indexed_and_called():
    ctx = build({HELPER_PATH: """
        def outer(es):
            def waiter(e):
                e.wait()
            waiter(es)
            return None
        """})
    nested = "repro.util.helpers.outer.<locals>.waiter"
    assert nested in ctx.index.functions
    assert nested in ctx.edges["repro.util.helpers.outer"]


def test_callgraph_lambdas_stay_opaque():
    # A lambda-bound name never resolves; its argument escapes (the
    # hedge), so the caller is neither cleaned nor flagged.
    ctx = build({HELPER_PATH: """
        def run(es):
            f = lambda e: e.wait()
            f(es)
            return None
        """})
    assert ctx.edges["repro.util.helpers.run"] == set()
    assert effects(ctx, "repro.util.helpers.run") == [["arg.escaped"]]


def test_callgraph_dynamic_calls_stay_conservative():
    findings = inter_lint({HELPER_PATH: """
        import importlib


        def run(engine, name):
            es = EventSet(engine)
            es.add(engine.event())
            fn = getattr(importlib.import_module(name), "drain")
            fn(es)
            return None
        """}, HELPER_PATH)
    assert findings == [], render_findings(findings)


def test_callgraph_mutual_recursion_scc_fixpoint_converges():
    ctx = build({HELPER_PATH: """
        def ping(es, n):
            if n <= 0:
                es.wait()
                return None
            return pong(es, n - 1)


        def pong(es, n):
            return ping(es, n)
        """})
    # The SCC solve converges to the exact may-wait fixpoint: the wait
    # on the base path joins with the recursive identity path.
    for qual in ("repro.util.helpers.ping", "repro.util.helpers.pong"):
        es_effects = ctx.summaries[qual].param_effects[0]
        assert "arg.waited" in es_effects
        assert "arg.escaped" not in es_effects


# ---------------------------------------------------------------------------
# summaries: effects, returns, deferral, taint, dimensions
# ---------------------------------------------------------------------------

def test_summary_transitive_wait_through_wrapper_and_return_position():
    ctx = build({HELPER_PATH: """
        def waits(es):
            es.wait()
            return None


        def via_return(es):
            return waits(es)
        """})
    assert effects(ctx, "repro.util.helpers.via_return") == [["arg.waited"]]


def test_summary_pending_return_and_param_passthrough():
    ctx = build({HELPER_PATH: """
        def start_batch(engine):
            es = EventSet(engine)
            es.add(engine.event())
            return es


        def identity(es):
            return es
        """})
    start = ctx.summaries["repro.util.helpers.start_batch"]
    assert start.return_states == frozenset({"es.pending"})
    assert not start.return_from_param
    ident = ctx.summaries["repro.util.helpers.identity"]
    assert ident.return_from_param


def test_summary_generator_effects_deferred_until_driven():
    # A bare call to a generator only creates the object, so the wait
    # inside must NOT be credited to the caller; driving the generator
    # with ``yield from`` applies it.
    ctx = build({HELPER_PATH: """
        def drain(es):
            yield from es.wait()


        def bare_call(es):
            drain(es)
            return None


        def driven_call(es):
            yield from drain(es)
        """})
    assert ctx.index.functions["repro.util.helpers.drain"].deferred
    assert effects(ctx, "repro.util.helpers.bare_call") == [["arg.escaped"]]
    assert effects(ctx, "repro.util.helpers.driven_call") == [["arg.waited"]]


def test_summary_return_taint_from_clock_and_rng():
    ctx = build({HELPER_PATH: """
        import random
        import time


        def stamp():
            return time.time()


        def roll():
            return random.random()


        def seeded(seed):
            rng = random.Random(seed)
            return rng.random()
        """})
    assert ctx.summaries["repro.util.helpers.stamp"].return_taint == \
        frozenset({"clock"})
    assert ctx.summaries["repro.util.helpers.roll"].return_taint == \
        frozenset({"rng"})
    # A seeded draw is only as tainted as its seed: pure parameter
    # passthrough, resolved against the argument at each call site.
    assert ctx.summaries["repro.util.helpers.seeded"].return_taint == \
        frozenset({"param:0"})


def test_summary_return_dimension_propagates_into_rc502():
    findings = inter_lint({HELPER_PATH: """
        def slab_bytes(n_ranks):
            per_rank_bytes = 1024.0 * n_ranks
            return per_rank_bytes


        def run(n_ranks):
            elapsed_seconds = slab_bytes(n_ranks)
            return elapsed_seconds
        """}, HELPER_PATH)
    assert "RC502" in rule_ids(findings)


# ---------------------------------------------------------------------------
# summary-driven rules: RC401 sharpened, RC405, RC110/RC111
# ---------------------------------------------------------------------------

_GOOD_HELPER = """
    def finish(es):
        es.wait()
        return None


    def run(engine):
        es = EventSet(engine)
        es.add(engine.event())
        finish(es)
        return None
    """

_BAD_HELPER = """
    def log_only(es, sink):
        sink.append("batch started")
        return None


    def run(engine, sink):
        es = EventSet(engine)
        es.add(engine.event())
        log_only(es, sink)
        return None
    """


def test_rc401_sharpened_good_helper_wait_is_proven():
    # Previously the escape hedge: passing ``es`` to any call silenced
    # RC401.  Now the summary proves the helper waits.
    findings = inter_lint({HELPER_PATH: _GOOD_HELPER}, HELPER_PATH)
    assert findings == [], render_findings(findings)


def test_rc401_sharpened_bad_helper_no_longer_hides_the_leak():
    # The same pattern was a false negative under the flow tier (the
    # hedge); with summaries the non-waiting helper no longer launders
    # the pending event set.
    src = textwrap.dedent(_BAD_HELPER)
    hedged = lint_source(src, HELPER_PATH, flow=True)
    assert hedged == [], render_findings(hedged)
    findings = inter_lint({HELPER_PATH: _BAD_HELPER}, HELPER_PATH)
    assert "RC401" in rule_ids(findings)


def test_rc405_bad_discarded_pending_return():
    findings = inter_lint({
        HELPER_PATH: """
            def start_batch(engine):
                es = EventSet(engine)
                es.add(engine.event())
                return es
            """,
        SIM_PATH: """
            from repro.util.helpers import start_batch


            def drive(engine):
                start_batch(engine)
                return None
            """,
    }, SIM_PATH)
    assert rule_ids(findings) == ["RC405"]
    assert "start_batch" in findings[0].message


def test_rc405_good_bound_return_is_clean():
    findings = inter_lint({
        HELPER_PATH: """
            def start_batch(engine):
                es = EventSet(engine)
                es.add(engine.event())
                return es
            """,
        SIM_PATH: """
            from repro.util.helpers import start_batch


            def drive(engine):
                es = start_batch(engine)
                es.wait()
                return None
            """,
    }, SIM_PATH)
    assert findings == [], render_findings(findings)


def test_rc110_bad_clock_tainted_return_consumed_in_sim_path():
    findings = inter_lint({
        HELPER_PATH: """
            import time


            def stamp():
                return time.time()
            """,
        SIM_PATH: """
            from repro.util.helpers import stamp


            def drive(engine):
                started = stamp()
                return started
            """,
    }, SIM_PATH)
    assert "RC110" in rule_ids(findings)


def test_rc110_bad_clock_tainted_argument_into_sim_path():
    # The taint flows the other way: a host-clock value computed in a
    # harness file is passed as an argument into a sim-path function.
    findings = inter_lint({
        SIM_PATH: """
            def advance(engine, deadline):
                return engine.at(deadline)
            """,
        "src/repro/harness/driver2.py": """
            import time

            from repro.sim.consumer import advance


            def kick(engine):
                return advance(engine, time.time() + 5.0)
            """,
    }, "src/repro/harness/driver2.py")
    assert "RC110" in rule_ids(findings)


def test_rc110_good_engine_time_is_untainted():
    findings = inter_lint({
        HELPER_PATH: """
            def stamp(engine):
                return engine.now
            """,
        SIM_PATH: """
            from repro.util.helpers import stamp


            def drive(engine):
                started = stamp(engine)
                return started
            """,
    }, SIM_PATH)
    assert findings == [], render_findings(findings)


def test_rc111_bad_unseeded_rng_return_consumed_in_sim_path():
    findings = inter_lint({
        HELPER_PATH: """
            import random


            def roll():
                return random.random()
            """,
        SIM_PATH: """
            from repro.util.helpers import roll


            def drive(engine):
                jitter = roll()
                return jitter
            """,
    }, SIM_PATH)
    assert "RC111" in rule_ids(findings)


def test_rc111_good_seeded_rng_is_untainted():
    findings = inter_lint({
        HELPER_PATH: """
            import random


            def roll(seed):
                rng = random.Random(seed)
                return rng.random()
            """,
        SIM_PATH: """
            from repro.util.helpers import roll


            def drive(engine, seed):
                jitter = roll(seed)
                return jitter
            """,
    }, SIM_PATH)
    assert findings == [], render_findings(findings)


def test_inter_rules_are_silent_without_an_inter_context():
    # The flow tier alone must not run inter rules (no summaries to
    # consult): the RC405 fixture lints clean without the context.
    src = textwrap.dedent("""
        from repro.util.helpers import start_batch


        def drive(engine):
            start_batch(engine)
            return None
        """)
    assert lint_source(src, SIM_PATH, flow=True) == []


# ---------------------------------------------------------------------------
# incremental driver: caching, invalidation, parallel determinism
# ---------------------------------------------------------------------------

HELPER_SRC = """\
def start_batch(engine):
    es = EventSet(engine)
    es.add(engine.event())
    return es
"""

CALLER_SRC = """\
from pkg.helper import start_batch


def drive(engine):
    start_batch(engine)
    return None
"""


@pytest.fixture
def project(tmp_path, monkeypatch):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "helper.py").write_text(HELPER_SRC)
    (pkg / "caller.py").write_text(CALLER_SRC)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def wire(findings):
    return json.dumps([(f.rule_id, f.path, f.line, f.col, f.message)
                       for f in findings])


def test_driver_cold_then_warm_tree_hit(project):
    from repro.check.driver import check_paths

    cold = check_paths(["pkg"], cache_dir=".cache")
    assert not cold.tree_hit
    assert rule_ids(cold.findings) == ["RC405"]
    warm = check_paths(["pkg"], cache_dir=".cache")
    assert warm.tree_hit
    assert warm.stats["analyzed"] == 0
    assert wire(warm.findings) == wire(cold.findings)


def test_driver_editing_callee_reanalyzes_caller(project):
    from repro.check.driver import check_paths

    first = check_paths(["pkg"], cache_dir=".cache")
    assert rule_ids(first.findings) == ["RC405"]
    # The helper now waits before returning: its summary changes, so
    # the reverse call graph must pull the caller back in and the
    # caller's RC405 must disappear.
    (project / "pkg" / "helper.py").write_text(
        HELPER_SRC.replace("return es", "es.wait()\n    return es"))
    second = check_paths(["pkg"], cache_dir=".cache")
    assert "pkg/caller.py" in second.analyzed
    assert second.findings == []


def test_driver_touching_caller_leaves_helper_cached(project):
    from repro.check.driver import check_paths

    check_paths(["pkg"], cache_dir=".cache")
    (project / "pkg" / "caller.py").write_text(
        CALLER_SRC + "\n# trailing comment\n")
    result = check_paths(["pkg"], cache_dir=".cache")
    assert result.analyzed == ["pkg/caller.py"]
    assert rule_ids(result.diff_findings()) == ["RC405"]


def test_driver_output_is_worker_count_invariant(project):
    from repro.check.driver import check_paths

    serial = check_paths(["pkg"], cache_dir=".c1", workers=1,
                         use_cache=False)
    fanout = check_paths(["pkg"], cache_dir=".c4", workers=4,
                         use_cache=False)
    warm = check_paths(["pkg"], cache_dir=".c1")
    assert wire(serial.findings) == wire(fanout.findings)
    assert wire(serial.findings) == wire(warm.findings)


# ---------------------------------------------------------------------------
# the repo-wide gate: zero findings under the whole-project mode
# ---------------------------------------------------------------------------

def test_repo_is_clean_under_inter_tier(monkeypatch):
    """Acceptance gate: summaries converge over the whole project, the
    conc index assembles, and the inter tier (RC405/RC110/RC111 and
    RC601-RC604) reports nothing new."""
    from repro.check.driver import check_paths

    # Same invocation shape as ``repro check --flow --inter`` so the
    # test and the CLI share one incremental cache.
    monkeypatch.chdir(REPO_ROOT)
    result = check_paths(["src", "tests"],
                         cache_dir=".repro-check-cache")
    assert result.findings == [], render_findings(result.findings)
