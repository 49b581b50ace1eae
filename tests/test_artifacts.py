"""Property tests of the three test records and their ``pnormlab-test/1``
artifacts.

Every record that constructs saves, loads back to an equal record and saves
again to the same bytes.  An artifact with one line changed, dropped,
repeated or appended either loads to the record its lines build, or is
refused: ``load_test`` raises ConfigError, and ``power --artifact`` exits 2
with an ``error:`` line naming the artifact, before it draws or writes
anything.
"""

import contextlib
import io
import math
import os
import tempfile

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pnormlab import engine
from pnormlab.cli import main
from pnormlab.engine import CombinedTest, MinimaxAdaptiveTest, PNormTest, geometric_budget
from pnormlab.engine import load_test, save_test
from pnormlab.errors import ConfigError, PnormLabError
from pnormlab.norms import SUP, Exponent
from pnormlab.report import read_kv

# from the least subnormal to the largest float
_POSITIVE = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)
_LEVEL = st.floats(min_value=5e-324, max_value=1.0, exclude_max=True)
_DIMENSION = st.integers(min_value=1, max_value=2**62)
# what write_kv keeps: one line, no leading or trailing whitespace
_PROVENANCE = st.text().filter(lambda s: s == s.strip() and "".join(s.splitlines()) == s)

_SINGLE = st.builds(
    PNormTest, d=_DIMENSION, exponent=st.one_of(st.just(SUP), _POSITIVE.map(Exponent.finite)),
    critical_value=st.floats(allow_nan=False, allow_infinity=False), alpha=_LEVEL,
    provenance=_PROVENANCE)


@st.composite
def _combined(draw):
    m = draw(st.integers(min_value=2, max_value=12))
    try:  # a level whose geometric allocation underflows builds no budget
        budget = geometric_budget(m, draw(_LEVEL), draw(_LEVEL), draw(_LEVEL))
    except PnormLabError:
        assume(False)
    return CombinedTest(
        d=draw(_DIMENSION),
        exponents=tuple(sorted(draw(st.lists(_POSITIVE, min_size=m, max_size=m, unique=True)))),
        kappas=tuple(draw(st.lists(_POSITIVE, min_size=m, max_size=m))),
        scale=draw(_POSITIVE), budget=budget,
        calibration_size=draw(st.floats()),  # nan for a test never calibrated
        provenance=draw(_PROVENANCE))


@st.composite
def _minimax(draw):
    try:  # kappas past the largest float build no record
        return MinimaxAdaptiveTest(
            d=draw(_DIMENSION), margin=draw(_POSITIVE),
            max_power=draw(st.integers(min_value=1, max_value=1000)),
            threshold=draw(_POSITIVE), alpha=draw(st.none() | _LEVEL),
            provenance=draw(_PROVENANCE))
    except ArithmeticError:
        assume(False)


RECORDS = st.one_of(_SINGLE, _combined(), _minimax())


def _saved(test) -> str:
    """The artifact text ``save_test`` writes for ``test``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "a.txt")
        save_test(test, path)
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()


def _loaded(text: str):
    """The record ``load_test`` builds from the artifact ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "a.txt")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        return load_test(path)


def _same(a, b) -> bool:
    """Equal, a nan (a combined test never calibrated) equal to a nan."""
    return repr(a) == repr(b)


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    # a margin that overflows the linear CLT bracket of the small members
    @example(test=MinimaxAdaptiveTest(d=1, margin=3.0665771859209324e304, max_power=9))
    @given(test=RECORDS)
    def test_every_record_saves_loads_and_saves_the_same_bytes(self, test):
        text = _saved(test)
        loaded = _loaded(text)
        assert _same(loaded, test)
        if not math.isnan(getattr(test, "calibration_size", 0.0)):
            assert loaded == test
        assert _saved(loaded) == text


# a value of any line: numbers of every kind, the values other lines hold, text
_VALUE = st.one_of(
    st.floats().map(repr),
    st.integers(min_value=-2**70, max_value=2**70).map(str),
    st.sampled_from(["sup", "p=2", "nan", "inf", "-0", "1e400", "1,2", "2,1", "1,,2",
                     "geometric", "custom", "10" + "0" * 400]),
    st.text(max_size=12),
)
_KEYS = sorted({key for _, lines in engine._ARTIFACTS.values() for key, _, _ in lines}
               | {"schema", "kind", "budget_alpha"})


@st.composite
def _edited(draw):
    """An artifact of a record that constructs, and that artifact with one
    line changed, dropped, repeated or appended."""
    test = draw(RECORDS)
    lines = _saved(test).splitlines()
    i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
    key = lines[i].partition(" = ")[0]
    edit = draw(st.sampled_from(["change", "drop", "repeat", "append"]))
    if edit == "change":
        other = draw(st.sampled_from(lines)).partition(" = ")[2]
        lines[i] = draw(st.one_of(st.just(f"{key} = {other}"),
                                  _VALUE.map(lambda v: f"{key} = {v}"), st.text(max_size=20)))
    elif edit == "drop":
        del lines[i]
    elif edit == "repeat":
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), lines[i])
    else:
        new_key = draw(st.sampled_from(_KEYS) | st.text(max_size=8))
        lines.append(f"{new_key} = {draw(_VALUE)}")
    return "".join(line + "\n" for line in lines)


def _agree(kind: str, kv: dict, test) -> None:
    """Every line of ``kv`` that ``kind`` reads holds the value ``test`` has
    for it (a minimax test's kappas to relative 1e-12, which it allows)."""
    for key, value_type, _ in engine._ARTIFACTS[kind][1]:
        if key in kv:
            found, want = engine._CODECS[value_type][1](kv[key]), engine._value(test, key)
            assert _same(found, want) or engine._agrees(found, want), (key, found, want)


class TestEditedArtifact:
    @settings(max_examples=400, deadline=None)
    @given(text=_edited())
    def test_an_edited_artifact_loads_or_exits_two(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path, outdir = os.path.join(tmp, "a.txt"), os.path.join(tmp, "out")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            try:
                test = load_test(path)
            except ConfigError:
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = main(["power", "--d", "100", "--tests", "sup", "--calib-reps", "2000",
                                 "--reps", "200", "--agrid", "0:1:2", "--artifact", path,
                                 "--outdir", outdir])
                assert code == 2
                message = err.getvalue()
                assert message.startswith("error: ") and message.count("\n") == 1
                assert "artifact" in message or path in message
                assert not os.path.exists(outdir)
                return
            kv = read_kv(path)
        _agree(kv["kind"], kv, test)
        # what loads is a record: it saves, and loads back to itself
        assert _same(_loaded(_saved(test)), test)
