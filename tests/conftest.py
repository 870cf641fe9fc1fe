"""Suite-wide fixtures and the acceptance-gate reporting hook.

Each test in ``test_acceptance.py`` registers its verdict through
:func:`record_acceptance`; after the run, ``pytest_terminal_summary``
prints exactly one ``ACCEPTANCE <n> PASS|FAIL`` line per criterion so
the gate can be read off the log without parsing tracebacks.
"""

from __future__ import annotations

import multiprocessing

import pytest

# criterion number -> short label, used for NOT RUN reporting
ACCEPTANCE_LABELS = {
    1: "randomized closed-form inversion oracle",
    2: "trace conservation and Hermiticity",
    3: "threshold cross-validation (residual vs growth rate)",
    4: "two-level reduction of the onset condition",
    5: "analytic plasmon-number limits",
    6: "self-consistent frequency formula",
    7: "pump-sweep qualitative suite (drive family)",
    8: "pump-sweep qualitative suite (dephasing family)",
    9: "growth-rate and switch-on-time orderings",
    10: "analytic Jacobian vs finite differences",
    11: "parallel sweep determinism",
}

_RESULTS: dict[str, tuple[bool, str]] = {}


def record_acceptance(tag: str, ok: bool, detail: str = "") -> None:
    """Store the verdict for one criterion (or sub-clause like '5a')."""
    _RESULTS[tag] = (bool(ok), detail)


def _criterion_number(tag: str) -> int:
    digits = "".join(ch for ch in tag if ch.isdigit())
    return int(digits)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    by_num: dict[int, list[tuple[str, bool, str]]] = {}
    for tag, (ok, detail) in _RESULTS.items():
        by_num.setdefault(_criterion_number(tag), []).append((tag, ok, detail))
    for num in sorted(ACCEPTANCE_LABELS):
        subs = sorted(by_num.get(num, []))
        if not subs:
            terminalreporter.write_line(
                f"ACCEPTANCE {num} NOT RUN — {ACCEPTANCE_LABELS[num]}"
            )
            continue
        ok = all(s[1] for s in subs)
        verdict = "PASS" if ok else "FAIL"
        if len(subs) == 1:
            detail = subs[0][2]
            suffix = f" — {detail}" if detail else ""
        else:
            parts = [
                f"{tag}: {'PASS' if sub_ok else 'FAIL'}"
                + (f" ({detail})" if detail else "")
                for tag, sub_ok, detail in subs
            ]
            suffix = " — " + "; ".join(parts)
        terminalreporter.write_line(f"ACCEPTANCE {num} {verdict}{suffix}")


@pytest.fixture()
def defaults():
    from spaserkit.params import default_params

    return default_params()


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Every grid helper (``cli._map_chunks``) is joined before its command
    returns or raises, so no test leaves a child process behind."""
    yield
    assert multiprocessing.active_children() == []
