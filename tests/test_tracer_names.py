"""Every name the benchmark's tracer wraps resolves in ``contactlab``, and
its counters read the results they count.

``bench/tracer.py`` instruments the library from outside, by module and
attribute name, so renaming or removing one of those functions breaks a
traced benchmark run (``bench/run.py --trace 1``) without failing anything
else.  The tracer is read here, not edited: it imports only the standard
library, and loading it instruments nothing.
"""

import importlib
import importlib.util
from pathlib import Path

from contactlab import axioms, cli
from contactlab.axioms import CHECKERS
from contactlab.core import FiniteJoinSemilattice

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    missing = [
        f"{module}.{name}"
        for module, name, _key, _count in tracer.INSTRUMENTED
        if not callable(getattr(importlib.import_module(f"contactlab.{module}"), name, None))
    ]
    missing += [
        f"FiniteJoinSemilattice.{attr}"
        for attr, _key in tracer.LATTICE_METHODS
        if attr not in FiniteJoinSemilattice.__dict__
    ]
    assert missing == []
    # The tracer wraps every checker under its key, so the two sets agree.
    assert set(tracer.CHECKER_KEYS) == set(CHECKERS)


def test_traced_counters_read_the_scan_results(m3, capsys):
    # The counters read each scan's (level, witness, examined) result, so a
    # change of its shape breaks them without failing anything else.
    tracer = load_tracer().Tracer()
    original = axioms.check_d2
    tracer.install()
    try:
        tracer.begin(0)
        assert cli.main(["sn", "--n", "3"]) == 0
        axioms.profile_of(m3)
        tracer.end()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.counts["axioms.d1plus.examined"] > 0
    assert tracer.counts["axioms.d2.examined"] > 0
    assert axioms.check_d2 is original
