"""The fixed report list of each workload and the check of every report.

Every pass of a workload runs the same reports in the same order.  A report
is one ``qwl`` command line; ``kind`` is its command, which names the
``<kind>_s`` metric its time counts towards.  GLOSSARY.md says why each
workload was chosen.
"""

from dataclasses import dataclass
from typing import Callable

import checks
import inputs

M_LIST = [32, 64, 128, 256, 512, 1024]
EXPONENT_TOL = 0.15


@dataclass(frozen=True)
class Report:
    label: str
    kind: str
    argv: tuple
    check: Callable


def _converge(walk, protocol):
    return ("converge", "--walk", walk, "--protocol", protocol,
            "--m-list", ",".join(map(str, M_LIST)))


def reports(workload, paths, meta):
    """The report list of ``workload`` on the inputs ``inputs.write_inputs`` wrote."""
    f = {name: str(path) for name, path in paths.items()}
    seed = str(meta["report_seed"])
    ref = checks.REFERENCE
    if workload == "closure":
        return [
            Report("closure lattice:3,2", "closure",
                   ("closure", "--walk", "lattice:3,2"), checks.expect_closure(136)),
            Report("simulable cycle:40 member", "simulable",
                   ("simulable", "--walk", "cycle:40", "--hamiltonian", f["member_cycle40.json"]),
                   checks.expect_simulable(True, 61)),
            Report("simulable example non-member", "simulable",
                   ("simulable", "--walk", "example",
                    "--hamiltonian", f["nonmember_example.json"]),
                   checks.expect_simulable(False, 33)),
            Report("example", "example", ("example",), checks.expect_example()),
        ]
    if workload == "limit":
        composite = checks.composite_errors(meta["composite_generators"], inputs.COMPOSITE_N,
                                            1.0, 1.0, M_LIST)
        return [
            Report("converge cycle:64 evencyc", "converge", _converge("cycle:64", "evencyc"),
                   checks.expect_converge(1.0, EXPONENT_TOL, ref["evencyc_cycle64"]["samples"])),
            Report("converge cycle:128 strauch", "converge", _converge("cycle:128", "strauch"),
                   checks.expect_converge(1.0, EXPONENT_TOL, ref["strauch_cycle128"]["samples"])),
            # A group commutator at sqrt(x) has single-step error O(x^1.5),
            # so its repeated error falls like x^0.5.
            Report("converge cycle:32 composite", "converge",
                   _converge("cycle:32", "file:" + f["composite_cycle32.json"]),
                   checks.expect_converge(0.5, EXPONENT_TOL, composite)),
            Report("project cycle:256", "project",
                   ("project", "--walk", "cycle:256", "--seed", seed), checks.expect_project()),
        ]
    if workload == "files":
        from qwl.rng import seeded_state  # the seeded input state is defined by qwl

        n, d = inputs.RELABEL_LATTICE
        state = checks.lattice_evolution(seeded_state(n ** d, int(seed)), meta["lattice_perm"],
                                         n, d, 1.0, 1.0)
        lattice = "file:" + f["lattice10x3_relabelled.json"]
        return [
            Report("closure relabelled cycle:40", "closure",
                   ("closure", "--walk", "file:" + f["cycle40_relabelled.json"]),
                   checks.expect_closure(61)),
            Report("info relabelled lattice:10,3", "info", ("info", "--walk", lattice),
                   checks.expect_info(2 * d, n ** d, n, 2 * d, checks.lattice_eigenvalues(n, d))),
            Report("evolve relabelled lattice:10,3", "evolve",
                   ("evolve", "--walk", lattice, "--seed", seed), checks.expect_state(state)),
            Report("converge relabelled cycle:64 strauch file", "converge",
                   _converge("file:" + f["cycle64_relabelled.json"],
                             "file:" + f["strauch_atom.json"]),
                   checks.expect_converge(1.0, EXPONENT_TOL, ref["strauch_cycle64"]["samples"])),
        ]
    raise ValueError(f"unknown workload {workload!r}")
