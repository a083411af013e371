"""repro-lint: fixture tests for every determinism-contract rule.

Each rule gets (at least) a *violation* fixture proving it detects its
violation class, a *clean* fixture proving it stays quiet on conforming
code, and a *suppression* fixture proving inline ``# repro-lint:
disable=`` directives are honored.  The shipped tree itself must lint
clean (`test_shipped_tree_is_clean`).
"""

import json
import os
import subprocess
import sys

import pytest

from repro.lint import Finding, all_rules, lint_source, run_lint
from repro.lint.analyzer import lint_contexts
from repro.lint.context import ModuleContext

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC_REPRO = os.path.join(REPO_ROOT, "src", "repro")


def rules_of(findings):
    return [f.rule for f in findings]


def lint_one(source, module="repro/example.py", select=None):
    return lint_source(source, module=module, select=select)


# --------------------------------------------------------------------- RL01
class TestRL01SeededRng:
    def test_module_level_random_call_is_flagged(self):
        findings = lint_one("import random\nx = random.random()\n", select=["RL01"])
        assert rules_of(findings) == ["RL01"]
        assert "global" in findings[0].message

    def test_random_seed_is_flagged_everywhere(self):
        src = "import random\nrandom.seed(42)\n"
        findings = lint_one(
            src, module="repro/faults/distributions.py", select=["RL01"]
        )
        assert rules_of(findings) == ["RL01"]

    def test_numpy_random_is_flagged_through_aliases(self):
        findings = lint_one(
            "import numpy as np\nx = np.random.rand(3)\n", select=["RL01"]
        )
        assert rules_of(findings) == ["RL01"]

    def test_random_constructor_outside_factory_is_flagged(self):
        findings = lint_one(
            "from random import Random\nr = Random(3)\n", select=["RL01"]
        )
        assert rules_of(findings) == ["RL01"]
        assert "derive_rng" in findings[0].message

    def test_random_constructor_inside_factory_is_allowed(self):
        findings = lint_one(
            "import random\n\ndef derive_rng(seed: int):\n"
            "    return random.Random(seed)\n",
            module="repro/faults/distributions.py",
            select=["RL01"],
        )
        assert findings == []

    def test_derived_streams_are_clean(self):
        findings = lint_one(
            "from repro.faults.distributions import derive_rng\n"
            "rng = derive_rng('scenario', 1)\nx = rng.random()\n",
            select=["RL01"],
        )
        assert findings == []

    def test_suppression_with_justification_is_honored(self):
        findings = lint_one(
            "import random\n"
            "x = random.random()  # repro-lint: disable=RL01 -- fixture only\n",
            select=["RL01"],
        )
        assert findings == []


# --------------------------------------------------------------------- RL02
class TestRL02WallClock:
    def test_time_time_is_flagged(self):
        findings = lint_one("import time\nt = time.time()\n", select=["RL02"])
        assert rules_of(findings) == ["RL02"]

    def test_datetime_now_is_flagged_via_from_import(self):
        findings = lint_one(
            "from datetime import datetime\nnow = datetime.now()\n", select=["RL02"]
        )
        assert rules_of(findings) == ["RL02"]

    def test_uuid_and_urandom_are_flagged(self):
        findings = lint_one(
            "import os\nimport uuid\na = uuid.uuid4()\nb = os.urandom(8)\n",
            select=["RL02"],
        )
        assert rules_of(findings) == ["RL02", "RL02"]

    def test_id_feeding_hash_is_flagged(self):
        findings = lint_one(
            "def key(x: object) -> int:\n    return hash(id(x))\n", select=["RL02"]
        )
        assert rules_of(findings) == ["RL02"]

    def test_id_for_identity_sets_is_allowed(self):
        findings = lint_one(
            "def track(x, seen):\n    seen.add(id(x))\n    return id(x) in seen\n",
            select=["RL02"],
        )
        assert findings == []

    def test_simulated_clock_reads_are_clean(self):
        findings = lint_one(
            "def f(engine):\n    return engine.now\n", select=["RL02"]
        )
        assert findings == []


# --------------------------------------------------------------------- RL03
class TestRL03IterationOrder:
    def test_for_over_set_union_is_flagged(self):
        findings = lint_one(
            "def merge(a, b):\n"
            "    out = []\n"
            "    for key in set(a) | set(b):\n"
            "        out.append(key)\n"
            "    return out\n",
            select=["RL03"],
        )
        assert rules_of(findings) == ["RL03"]
        assert "sorted()" in findings[0].message

    def test_comprehension_over_set_is_flagged(self):
        findings = lint_one(
            "def f(a):\n    return [x + 1 for x in {y for y in a}]\n",
            select=["RL03"],
        )
        assert rules_of(findings) == ["RL03"]

    def test_list_of_set_typed_name_is_flagged(self):
        findings = lint_one(
            "def f(items):\n    pending = set(items)\n    return list(pending)\n",
            select=["RL03"],
        )
        assert rules_of(findings) == ["RL03"]

    def test_sorted_wrapper_is_clean(self):
        findings = lint_one(
            "def merge(a, b):\n"
            "    out = []\n"
            "    for key in sorted(set(a) | set(b)):\n"
            "        out.append(key)\n"
            "    return out\n",
            select=["RL03"],
        )
        assert findings == []

    def test_order_free_consumers_are_clean(self):
        findings = lint_one(
            "def f(a, b):\n"
            "    u = set(a) | set(b)\n"
            "    return max(u), len(u), sorted(x for x in u)\n",
            select=["RL03"],
        )
        assert findings == []

    def test_plain_dict_iteration_is_clean(self):
        findings = lint_one(
            "def f(d):\n    return [v for v in d.values()]\n", select=["RL03"]
        )
        assert findings == []


# --------------------------------------------------------------------- RL04
class TestRL04LockedWrites:
    GUARDED = "repro/campaign/example.py"

    def test_bare_write_open_in_guarded_module_is_flagged(self):
        findings = lint_one(
            "def dump(path, text):\n"
            "    with open(path, 'w') as fh:\n"
            "        fh.write(text)\n",
            module=self.GUARDED,
            select=["RL04"],
        )
        assert rules_of(findings) == ["RL04"]
        assert "fslock" in findings[0].message

    def test_os_replace_in_guarded_module_is_flagged(self):
        findings = lint_one(
            "import os\n\ndef publish(a, b):\n    os.replace(a, b)\n",
            module=self.GUARDED,
            select=["RL04"],
        )
        assert rules_of(findings) == ["RL04"]

    def test_reads_are_clean(self):
        findings = lint_one(
            "def load(path):\n"
            "    with open(path, encoding='utf-8') as fh:\n"
            "        return fh.read()\n",
            module=self.GUARDED,
            select=["RL04"],
        )
        assert findings == []

    def test_unguarded_modules_may_write_directly(self):
        findings = lint_one(
            "def dump(path, text):\n"
            "    with open(path, 'w') as fh:\n"
            "        fh.write(text)\n",
            module="repro/analysis/example.py",
            select=["RL04"],
        )
        assert findings == []

    def test_fslock_module_itself_is_exempt(self):
        findings = lint_one(
            "import os\n\ndef atomic(a, b):\n    os.replace(a, b)\n",
            module="repro/fslock.py",
            select=["RL04"],
        )
        assert findings == []

    def test_suppression_is_honored_and_requires_justification(self):
        justified = (
            "def export(path, text):\n"
            "    with open(path, 'w') as fh:  "
            "# repro-lint: disable=RL04 -- user-chosen export, not shared state\n"
            "        fh.write(text)\n"
        )
        assert lint_one(justified, module=self.GUARDED, select=["RL04"]) == []
        unjustified = (
            "def export(path, text):\n"
            "    with open(path, 'w') as fh:  # repro-lint: disable=RL04\n"
            "        fh.write(text)\n"
        )
        findings = lint_one(unjustified, module=self.GUARDED)
        assert "RL04" in rules_of(findings)  # invalid directive doesn't silence
        assert "RL00" in rules_of(findings)  # and is itself reported


# --------------------------------------------------------------------- RL05
class TestRL05FrozenSpec:
    def test_unfrozen_dataclass_spec_is_flagged(self):
        findings = lint_one(
            "from dataclasses import dataclass\n\n"
            "@dataclass\nclass FooSpec:\n    a: int = 0\n",
            select=["RL05"],
        )
        assert rules_of(findings) == ["RL05"]
        assert "frozen" in findings[0].message

    def test_non_dataclass_spec_is_flagged(self):
        findings = lint_one("class BareSpec:\n    pass\n", select=["RL05"])
        assert rules_of(findings) == ["RL05"]

    def test_field_missing_from_to_dict_is_flagged(self):
        findings = lint_one(
            "from dataclasses import dataclass\n\n"
            "@dataclass(frozen=True)\n"
            "class FooSpec:\n"
            "    a: int = 0\n"
            "    b: int = 0\n\n"
            "    def to_dict(self):\n"
            "        return {'a': self.a}\n",
            select=["RL05"],
        )
        assert rules_of(findings) == ["RL05"]
        assert "'b'" in findings[0].message

    def test_asdict_and_star_kwargs_pass_automatically(self):
        findings = lint_one(
            "import dataclasses\nfrom dataclasses import dataclass\n\n"
            "@dataclass(frozen=True)\n"
            "class FooSpec:\n"
            "    a: int = 0\n"
            "    b: int = 0\n\n"
            "    def to_dict(self):\n"
            "        return dataclasses.asdict(self)\n\n"
            "    @classmethod\n"
            "    def from_dict(cls, data):\n"
            "        return cls(**dict(data))\n",
            select=["RL05"],
        )
        assert findings == []

    def test_explicit_complete_serialisers_pass(self):
        findings = lint_one(
            "from dataclasses import dataclass\n\n"
            "@dataclass(frozen=True)\n"
            "class FooSpec:\n"
            "    a: int = 0\n"
            "    b: int = 0\n\n"
            "    def to_dict(self):\n"
            "        return {'a': self.a, 'b': self.b}\n\n"
            "    @classmethod\n"
            "    def from_dict(cls, data):\n"
            "        return cls(a=data['a'], b=data['b'])\n",
            select=["RL05"],
        )
        assert findings == []

    def test_non_spec_classes_are_ignored(self):
        findings = lint_one("class Helper:\n    pass\n", select=["RL05"])
        assert findings == []


# --------------------------------------------------------------------- RL06
class TestRL06MetricNamespace:
    def test_cross_module_duplicate_dotted_metric_is_flagged(self):
        ctx_a = ModuleContext(
            "a.py",
            "def emit(metrics, v):\n    metrics.set('sim.makespan2', v)\n",
            module="repro/simulator/a.py",
        )
        ctx_b = ModuleContext(
            "b.py",
            "def emit(metrics, v):\n    metrics.set('sim.makespan2', v)\n",
            module="repro/analysis/b.py",
        )
        findings = lint_contexts([ctx_a, ctx_b], select=["RL06"])
        assert rules_of(findings) == ["RL06", "RL06"]
        assert {f.path for f in findings} == {"a.py", "b.py"}

    def test_single_producer_is_clean(self):
        findings = lint_one(
            "def emit(metrics, v):\n    metrics.set('sim.unique_metric', v)\n",
            select=["RL06"],
        )
        assert findings == []

    def test_reconstruction_modules_are_exempt(self):
        ctx_a = ModuleContext(
            "a.py",
            "def emit(metrics, v):\n    metrics.set('sim.makespan3', v)\n",
            module="repro/simulator/a.py",
        )
        ctx_b = ModuleContext(
            "migrate.py",
            "def rebuild(metrics, v):\n    metrics.set('sim.makespan3', v)\n",
            module="repro/results/migrate.py",
        )
        assert lint_contexts([ctx_a, ctx_b], select=["RL06"]) == []

    def test_duplicate_add_metric_in_one_class_is_flagged(self):
        findings = lint_one(
            "class Proto:\n"
            "    def extra_metrics(self, info):\n"
            "        add_metric(info, 'clusters', 1)\n"
            "        add_metric(info, 'clusters', 2)\n",
            select=["RL06"],
        )
        assert rules_of(findings) == ["RL06"]

    def test_stats_as_dict_key_colliding_with_add_metric_is_flagged(self):
        ctx_a = ModuleContext(
            "base.py",
            "class Proto:\n"
            "    def extra_metrics(self, info):\n"
            "        add_metric(info, 'clusters', 1)\n",
            module="repro/ftprotocols/base.py",
        )
        ctx_b = ModuleContext(
            "stats.py",
            "class ProtoStats:\n"
            "    def as_dict(self):\n"
            "        return {'clusters': 2}\n",
            module="repro/ftprotocols/stats.py",
        )
        findings = lint_contexts([ctx_a, ctx_b], select=["RL06"])
        assert rules_of(findings) == ["RL06"]
        assert findings[0].path == "stats.py"


# --------------------------------------------------------------------- RL08
class TestRL08EqualTimeTies:
    def test_per_element_fanout_at_constant_time_is_flagged(self):
        src = (
            "def arm(self, events):\n"
            "    for event in events:\n"
            "        self.sim.engine.schedule(0.0, self._fire, event)\n"
        )
        findings = lint_one(src, select=["RL08"])
        assert rules_of(findings) == ["RL08"]
        assert "tie" in findings[0].message

    def test_loop_invariant_name_time_is_flagged(self):
        src = (
            "def arm(self, events, delay):\n"
            "    for event in events:\n"
            "        self.engine.schedule(delay, self._fire, event)\n"
        )
        findings = lint_one(src, select=["RL08"])
        assert rules_of(findings) == ["RL08"]

    def test_schedule_at_with_invariant_absolute_time_is_flagged(self):
        src = (
            "def arm(self, events, when):\n"
            "    for event in events:\n"
            "        self.engine.schedule_at(when, self._fire, event)\n"
        )
        findings = lint_one(src, select=["RL08"])
        assert rules_of(findings) == ["RL08"]

    def test_per_element_time_is_clean(self):
        src = (
            "def arm(self, events):\n"
            "    for index, event in enumerate(events):\n"
            "        self.engine.schedule(index * 1e-9, self._fire, event)\n"
        )
        assert lint_one(src, select=["RL08"]) == []

    def test_computed_time_is_exempt(self):
        # A call in the time expression may vary per iteration; stay quiet.
        src = (
            "def arm(self, events):\n"
            "    for event in events:\n"
            "        self.engine.schedule(self.delay_for(event), self._fire, event)\n"
        )
        assert lint_one(src, select=["RL08"]) == []

    def test_batched_event_is_clean(self):
        src = (
            "def arm(self, events):\n"
            "    self.sim.engine.schedule(0.0, self._fire_batch, list(events))\n"
        )
        assert lint_one(src, select=["RL08"]) == []

    def test_set_iterable_fanout_is_flagged(self):
        src = (
            "def arm(self):\n"
            "    ranks = {1, 2, 3}\n"
            "    for rank in ranks:\n"
            "        self.engine.schedule(self.delay_for(rank), self._fire, rank)\n"
        )
        findings = lint_one(src, select=["RL08"])
        assert rules_of(findings) == ["RL08"]
        assert "hash order" in findings[0].message

    def test_non_engine_schedule_is_ignored(self):
        src = (
            "def arm(self, jobs):\n"
            "    for job in jobs:\n"
            "        self.campaign.schedule(0.0, run, job)\n"
        )
        assert lint_one(src, select=["RL08"]) == []

    def test_inner_loop_owns_the_call(self):
        # Outer loop variable in the delay: invariant w.r.t. the inner loop.
        src = (
            "def arm(self, groups):\n"
            "    for offset in range(3):\n"
            "        for event in self.groups[offset]:\n"
            "            self.engine.schedule(offset * 0.1, self._fire, event)\n"
        )
        findings = lint_one(src, select=["RL08"])
        assert rules_of(findings) == ["RL08"]

    def test_suppression_is_honored(self):
        src = (
            "def arm(self, events):\n"
            "    for event in events:\n"
            "        self.engine.schedule(0.0, self._fire, event)"
            "  # repro-lint: disable=RL08 -- order proven irrelevant here\n"
        )
        assert lint_one(src, select=["RL08"]) == []


# --------------------------------------------------------------------- RL09
class TestRL09EngineIdentity:
    def test_msg_id_in_stats_extra_is_flagged(self):
        src = "def f(self, message):\n    self.stats.extra['last'] = message.msg_id\n"
        findings = lint_one(src, select=["RL09"])
        assert rules_of(findings) == ["RL09"]
        assert ".msg_id" in findings[0].message

    def test_msg_id_in_add_metric_is_flagged(self):
        src = (
            "def f(self, info, message):\n"
            "    add_metric(info, 'last_id', message.msg_id)\n"
        )
        findings = lint_one(src, select=["RL09"])
        assert rules_of(findings) == ["RL09"]

    def test_metric_set_with_identity_is_flagged(self):
        src = "def f(self, m):\n    self.metrics.set('seq', self._seq)\n"
        findings = lint_one(src, select=["RL09"])
        assert rules_of(findings) == ["RL09"]

    def test_id_call_in_json_dump_is_flagged(self):
        src = (
            "import json\n"
            "def f(obj, fh):\n"
            "    json.dump({'key': id(obj)}, fh)\n"
        )
        findings = lint_one(src, select=["RL09"])
        assert rules_of(findings) == ["RL09"]
        assert "id()" in findings[0].message

    def test_identity_inside_snapshot_is_flagged(self):
        src = (
            "def snapshot(self):\n"
            "    return {'last': self.last_message.msg_id}\n"
        )
        findings = lint_one(src, select=["RL09"])
        assert rules_of(findings) == ["RL09"]
        assert "snapshot" in findings[0].message

    def test_transient_msg_id_bookkeeping_is_clean(self):
        # In-flight tracking keyed by msg_id never persists: legitimate.
        src = (
            "def track(self, message):\n"
            "    self._in_flight[message.msg_id] = message\n"
        )
        assert lint_one(src, select=["RL09"]) == []

    def test_protocol_sequence_numbers_are_clean(self):
        src = (
            "def snapshot(self):\n"
            "    return {'send_seq': dict(self.send_seq)}\n"
        )
        assert lint_one(src, select=["RL09"]) == []

    def test_suppression_is_honored(self):
        src = (
            "def f(self, message):\n"
            "    self.stats.extra['last'] = message.msg_id"
            "  # repro-lint: disable=RL09 -- debug-only field, never compared\n"
        )
        assert lint_one(src, select=["RL09"]) == []


# ------------------------------------------------------------ RL00 hygiene
class TestSuppressionHygiene:
    def test_unused_suppression_is_reported(self):
        findings = lint_one(
            "x = 1  # repro-lint: disable=RL02 -- nothing nondeterministic here\n"
        )
        assert rules_of(findings) == ["RL00"]
        assert "unused" in findings[0].message

    def test_unknown_rule_id_is_reported(self):
        findings = lint_one("x = 1  # repro-lint: disable=RL99x -- because\n")
        assert rules_of(findings) == ["RL00"]

    def test_suppression_of_the_removed_rl07_is_reported(self):
        # RL07 (the compiled-subset rule) is gone; a leftover directive
        # naming it must surface instead of silently suppressing nothing.
        findings = lint_one(
            "x = 1  # repro-lint: disable=RL07 -- compiled subset\n"
        )
        assert rules_of(findings) == ["RL00"]

    def test_rl00_itself_cannot_be_suppressed(self):
        findings = lint_one(
            "x = 1  # repro-lint: disable=RL00 -- trying to silence hygiene\n"
        )
        assert rules_of(findings) == ["RL00"]

    def test_trailing_directive_covers_whole_multiline_statement(self):
        # The finding anchors on line 3 (the call) while the directive sits
        # on the closing-paren line: same logical statement, so it covers.
        src = (
            "import time\n"
            "x = (\n"
            "    time.time()\n"
            ")  # repro-lint: disable=RL02 -- wall time for a banner only\n"
        )
        assert lint_one(src, select=["RL02"]) == []

    def test_leading_directive_covers_whole_multiline_statement(self):
        src = (
            "import time\n"
            "x = (  # repro-lint: disable=RL02 -- wall time for a banner only\n"
            "    time.time()\n"
            ")\n"
        )
        assert lint_one(src, select=["RL02"]) == []

    def test_multiline_directive_is_not_reported_unused(self):
        src = (
            "import time\n"
            "x = (\n"
            "    time.time()\n"
            ")  # repro-lint: disable=RL02 -- wall time for a banner only\n"
        )
        assert lint_one(src) == []

    def test_standalone_comment_directive_does_not_leak_to_next_statement(self):
        src = (
            "import time\n"
            "# repro-lint: disable=RL02 -- floating directive, covers nothing\n"
            "x = time.time()\n"
        )
        findings = lint_one(src)
        assert sorted(rules_of(findings)) == ["RL00", "RL02"]
        assert "unused" in [f for f in findings if f.rule == "RL00"][0].message

    def test_unused_multiline_directive_reported_once(self):
        src = (
            "x = (\n"
            "    1 + 2\n"
            ")  # repro-lint: disable=RL02 -- nothing here uses a clock\n"
        )
        findings = lint_one(src)
        assert rules_of(findings) == ["RL00"]


# ----------------------------------------------------------------- baseline
class TestBaseline:
    def _run_cli(self, argv):
        from repro.lint.cli import main

        return main(argv)

    def test_apply_baseline_counts(self):
        from repro.lint.baseline import apply_baseline

        f1 = Finding(rule="RL01", path="a.py", line=3, col=0, message="m1")
        f2 = Finding(rule="RL01", path="a.py", line=9, col=0, message="m1")
        f3 = Finding(rule="RL02", path="b.py", line=1, col=0, message="m2")
        baseline = {("a.py", "RL01", "m1"): 1, ("c.py", "RL03", "gone"): 2}
        new, matched, idle = apply_baseline([f1, f2, f3], baseline)
        assert matched == 1
        assert idle == 2
        assert [(f.path, f.line) for f in new] == [("a.py", 9), ("b.py", 1)]

    def test_write_then_apply_round_trips(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n", encoding="utf-8")
        baseline = tmp_path / "lint-baseline.json"
        assert self._run_cli([str(bad), "--write-baseline", str(baseline)]) == 0
        assert "wrote baseline" in capsys.readouterr().out
        # Same tree against its own baseline: clean exit.
        assert self._run_cli([str(bad), "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "1 baselined" in out

    def test_new_finding_fails_despite_baseline(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n", encoding="utf-8")
        baseline = tmp_path / "lint-baseline.json"
        assert self._run_cli([str(bad), "--write-baseline", str(baseline)]) == 0
        capsys.readouterr()
        bad.write_text(
            "import random\nx = random.random()\ny = random.random()\n",
            encoding="utf-8",
        )
        assert self._run_cli([str(bad), "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        # Only the *new* occurrence is reported.
        assert "1 finding(s)" in out
        assert "1 baselined" in out

    def test_fixed_finding_reports_idle_entry(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n", encoding="utf-8")
        baseline = tmp_path / "lint-baseline.json"
        assert self._run_cli([str(bad), "--write-baseline", str(baseline)]) == 0
        capsys.readouterr()
        bad.write_text("x = 1\n", encoding="utf-8")
        assert self._run_cli([str(bad), "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "1 baseline entr(ies) idle" in out

    def test_baseline_and_write_baseline_are_exclusive(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("x = 1\n", encoding="utf-8")
        baseline = tmp_path / "b.json"
        rc = self._run_cli(
            [str(bad), "--baseline", str(baseline), "--write-baseline", str(baseline)]
        )
        assert rc == 2

    def test_missing_baseline_file_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("x = 1\n", encoding="utf-8")
        rc = self._run_cli([str(bad), "--baseline", str(tmp_path / "absent.json")])
        assert rc == 2

    def test_json_format_reports_baseline_stats(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n", encoding="utf-8")
        baseline = tmp_path / "b.json"
        assert self._run_cli([str(bad), "--write-baseline", str(baseline)]) == 0
        capsys.readouterr()
        assert (
            self._run_cli([str(bad), "--baseline", str(baseline), "--format", "json"])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["baseline"] == {"matched": 1, "idle": 0}
        assert payload["findings"] == []


# ----------------------------------------------------------------- framework
class TestFramework:
    def test_all_rules_are_registered(self):
        ids = [rule.id for rule in all_rules()]
        assert ids == [
            "RL01", "RL02", "RL03", "RL04", "RL05", "RL06", "RL08", "RL09",
        ]
        for rule in all_rules():
            assert rule.invariant and rule.rationale

    def test_findings_are_sorted_and_renderable(self):
        findings = lint_one(
            "import time\nimport random\n"
            "a = random.random()\nb = time.time()\n"
        )
        assert findings == sorted(findings, key=Finding.sort_key)
        rendered = findings[0].render()
        assert rendered.startswith("<fixture>:3:")
        assert findings[0].to_dict()["rule"] == "RL01"

    def test_unknown_select_raises(self):
        with pytest.raises(ValueError):
            lint_one("x = 1\n", select=["RL42"])

    def test_selecting_the_removed_rl07_raises(self):
        with pytest.raises(ValueError):
            lint_one("x = 1\n", select=["RL07"])


# --------------------------------------------------------------- the tree
class TestShippedTree:
    def test_shipped_tree_is_clean(self):
        findings, files_checked = run_lint([SRC_REPRO])
        assert files_checked > 100
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_cli_exits_zero_on_shipped_tree(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", SRC_REPRO],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout

    def test_cli_list_rules_and_json_format(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        listed = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--list-rules", "--format", "json"],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        assert listed.returncode == 0
        table = json.loads(listed.stdout)
        assert [row["id"] for row in table] == [
            "RL01", "RL02", "RL03", "RL04", "RL05", "RL06", "RL08", "RL09",
        ]

    def test_cli_json_findings_are_machine_readable(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n", encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--format", "json", str(bad)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["files_checked"] == 1
        assert [f["rule"] for f in payload["findings"]] == ["RL01"]
