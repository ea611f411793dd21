import numpy as np


def random_alpha(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random valid count distribution over 0..n."""
    a = rng.random(n + 1)
    return a / a.sum()


def row_scan_tests(f, rows: np.ndarray) -> np.ndarray:
    """Total tests of the family f for each row of a (rows x population)
    0/1 status matrix, by a scan of whole rows; specimens in no group are
    never read.  The reference for the tally from picks that every
    simulation runs."""
    positive = np.maximum.reduceat(rows[:, f.members], f.starts, axis=1)
    return len(f.starts) + positive @ f.retest


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one PASS/FAIL line per acceptance criterion."""
    results = {}
    for rep in terminalreporter.stats.get("passed", []):
        if "test_acceptance.py" in rep.nodeid and rep.when == "call":
            results[rep.nodeid.split("::")[-1]] = "PASS"
    for key in ("failed", "error"):
        for rep in terminalreporter.stats.get(key, []):
            if "test_acceptance.py" in rep.nodeid:
                results[rep.nodeid.split("::")[-1]] = "FAIL"
    for rep in terminalreporter.stats.get("skipped", []):
        if "test_acceptance.py" in rep.nodeid:
            results.setdefault(rep.nodeid.split("::")[-1], "SKIP")
    if results:
        terminalreporter.section("acceptance criteria")
        for name in sorted(results):
            terminalreporter.write_line(f"{results[name]}  {name}")
