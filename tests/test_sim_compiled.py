"""The engine and profiling unit suites, rerun on the compiled build.

``test_sim_engine.py`` and ``test_sim_profile.py`` pin the pure build;
this module collects the same test functions under the compiled build,
so one process checks both.  On the compiled class a run with a
watchdog, profiling or the sanitizer leaves the C fast loop for the
pure ``Simulator.run`` loop over the C ``_pop_due``; these tests cover
that hand-off.  Skipped when the extension is not built.
"""

import pytest

from repro.core import engine_select

from test_sim_engine import *  # noqa: F401,F403  (re-collected below)
from test_sim_profile import *  # noqa: F401,F403

pytestmark = pytest.mark.skipif(
    not engine_select.compiled_available(),
    reason=f"compiled extension not built (`{engine_select.BUILD_HINT}`)",
)


@pytest.fixture(autouse=True)
def _compiled_engine():
    # The imported modules' own pure pin is underscore-named, so the
    # star imports leave it behind; this fixture is the only one here.
    with engine_select.use_engine("compiled"):
        yield


def test_reruns_on_the_compiled_class():
    assert type(Simulator()).__module__ == "repro._cext._core"
