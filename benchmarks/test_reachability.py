"""The reachability ledger's tracer attributes calls, not definitions.

Runs a small package under the generated ``sitecustomize`` in a fresh
interpreter: a function called only in a forked child counts as
reached (the child's record is flushed in ``os._exit``), and a function
that is only defined at import does not, although its ``def`` line ran.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

sys.path.insert(0, str(pathlib.Path(__file__).parent))

import reachability  # noqa: E402

TARGET = textwrap.dedent('''\
    def only_defined():
        return 2


    def in_child():
        return 1


    def in_parent():
        return 3
''')

SCRIPT = textwrap.dedent('''\
    import os
    import signal

    import target

    target.in_parent()
    pid = os.fork()
    if pid == 0:
        target.in_child()
        os._exit(0)
    os.waitpid(pid, 0)
    # the tracer leaves signal handling alone
    assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
''')


def test_forked_calls_count_and_definitions_do_not(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "target.py").write_text(TARGET)
    (tmp_path / "main.py").write_text(SCRIPT)
    prefix = str(package) + os.sep
    site, out = tmp_path / "site", tmp_path / "out"
    reachability.write_sitecustomize(site, prefix, out)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(site), str(package)]))
    subprocess.run(
        [sys.executable, str(tmp_path / "main.py")], env=env, check=True, timeout=30
    )
    # one record from each process
    assert len(list(out.glob("*.json"))) == 2
    reached = reachability.load_records(out, prefix)
    called = {
        fn.qualname: fn.first in reached.calls["target.py"]
        for fn in reachability.functions(package)
    }
    # ``only_defined`` starts on line 1, as the module's own code object
    # does: running the module is not a call of it
    assert called == {"in_child": True, "only_defined": False, "in_parent": True}
    # a body line of each called function ran; the other's did not
    assert reached.lines["target.py"] >= {6, 10}
    assert 2 not in reached.lines["target.py"]
